"""``python -m lora_sic`` with every public function traced; spans go to a file at exit.

    python3 perfbench/traced_cli.py SPANS_FILE <lora-sic arguments...>

The traced twin of a cold CLI op: the CSV still goes to stdout and the exit
status is the CLI's, while the spans recorded in memory are written to
SPANS_FILE as one JSON list when the command returns.
"""

from __future__ import annotations

import json
import sys

import tracer
from lora_sic import cli


def main(argv: list[str]) -> int:
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return cli.main(argv[1:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(spans.take(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
