#!/usr/bin/env python3
"""Print the SF characteristics table, the capacity table and the planning example.

Both planning rows come from ``lora-sic plan``: a target that plan refuses is
refused here with plan's exit status and message, before any table prints.
"""

import argparse
import contextlib
import csv
import io
import sys

from lora_sic.cli import main as cli_main


def _plan(target: str, *sic: str) -> tuple[int, dict[str, str] | None]:
    """Run ``lora-sic plan`` and return its exit status and CSV row."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(["plan", "--target", target, *sic])
    return status, next(csv.DictReader(io.StringIO(out.getvalue())), None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", default="0.8",
                        help="coverage target for the planning example")
    args = parser.parse_args(argv)

    plans = []
    for flags in ([], ["--sic"]):
        status, row = _plan(args.target, *flags)
        if status:
            return status
        plans.append(row)
    plain, sic = plans

    print("# SF uplink characteristics")
    cli_main(["table1"])

    print("\n# capacity at alpha = 0.20, 0.52, 1")
    cli_main(["capacity", "--alphas", "0.20,0.52,1"])

    total_plain, total_sic = int(plain["total"]), int(sic["total"])
    gain = f"{total_sic / total_plain:.2f}x" if total_plain else "n/a"
    print(f"\n# planning for border coverage >= {float(args.target)}")
    print(f"alpha* without SIC = {float(plain['alpha_star']):.4f}  -> {total_plain} nodes")
    print(f"alpha* with SIC    = {float(sic['alpha_star']):.4f}  -> {total_sic} nodes")
    print(f"capacity gain      = {gain}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
