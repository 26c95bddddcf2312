#!/usr/bin/env python3
"""Print the SF characteristics table, the capacity table and the planning example."""

import argparse
import sys

from lora_sic.cli import _printed_capacity
from lora_sic.cli import main as cli_main
from lora_sic.experiments import find_alpha_for_target
from lora_sic.params import NetworkConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", type=float, default=0.8,
                        help="coverage target for the planning example")
    args = parser.parse_args()

    cfg = NetworkConfig()
    try:
        plain = find_alpha_for_target(args.target, cfg.radius_m, cfg, with_sic=False)
        sic = find_alpha_for_target(args.target, cfg.radius_m, cfg, with_sic=True)
    except ValueError as exc:  # refused as `lora-sic plan` refuses it
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("# SF uplink characteristics")
    cli_main(["table1"])

    print("\n# capacity at alpha = 0.20, 0.52, 1")
    cli_main(["capacity", "--alphas", "0.20,0.52,1"])

    # Counted as `lora-sic plan` counts them: from alpha* as its CSV prints it.
    total_plain, total_sic = (row.total for row in _printed_capacity([plain, sic]))
    print(f"\n# planning for border coverage >= {args.target}")
    print(f"alpha* without SIC = {plain:.4f}  -> {total_plain} nodes")
    print(f"alpha* with SIC    = {sic:.4f}  -> {total_sic} nodes")
    print(f"capacity gain      = {total_sic / total_plain:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
