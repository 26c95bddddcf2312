#!/usr/bin/env python3
"""Emit the cell-border load and threshold sweeps as CSV files.

Produces ``border_alpha_sweep.csv`` (intensity 0..2 at a 1 dB threshold) and
``border_gamma_sweep.csv`` (threshold 0..8 dB at intensity 1), both for the
worst-case node at the cell edge, where ``sweep`` puts d1 by default.  Pass
--mc-trials to add simulated columns.
"""

import argparse
import sys
from pathlib import Path

from lora_sic.cli import main as cli_main
from lora_sic.params import DEFAULT_SEED


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--mc-trials", type=int, default=0)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mc = ["--mc-trials", str(args.mc_trials), "--seed", str(args.seed)]

    rc = cli_main(
        ["--output", str(out_dir / "border_alpha_sweep.csv"),
         "sweep", "--var", "alpha", "--start", "0.02", "--stop", "2", "--step", "0.02", *mc]
    )
    rc |= cli_main(
        ["--output", str(out_dir / "border_gamma_sweep.csv"),
         "sweep", "--var", "gamma_db", "--start", "0", "--stop", "8", "--step", "0.25",
         "--alpha", "1", *mc]
    )
    print(f"wrote {out_dir}/border_alpha_sweep.csv and {out_dir}/border_gamma_sweep.csv")
    return rc


if __name__ == "__main__":
    sys.exit(main())
