#!/usr/bin/env python3
"""Emit the distance sweep, from --step to the cell edge, as CSV for one deployment size.

The mean node count is a free parameter of this experiment; 500 nodes at a 1%
duty cycle reproduces the canonical border readings (coverage ~0.14 without
SIC, ~0.20 with).  Pass --mc-trials to add simulated columns.
"""

import argparse
import sys
from pathlib import Path

from lora_sic import DEFAULT_SEED, NetworkConfig
from lora_sic.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nbar", type=float, default=500.0, help="mean deployed nodes")
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--step", type=float, default=10.0)
    parser.add_argument("--mc-trials", type=int, default=0)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"distance_sweep_nbar{args.nbar:g}.csv"
    rc = cli_main(
        ["--output", str(target),
         "sweep", "--var", "d1", "--start", str(args.step), "--stop", str(NetworkConfig().radius_m),
         "--step", str(args.step), "--nbar", str(args.nbar),
         "--mc-trials", str(args.mc_trials), "--seed", str(args.seed)]
    )
    print(f"wrote {target}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
