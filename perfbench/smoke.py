"""Smoke test of the benchmark itself: every workload, both modes, tiny runs.

    python3 perfbench/smoke.py [--seconds S]

Run from the repository root.  For each workload of BENCHMARK.json it runs
``--trace 0`` and ``--trace 1`` for S seconds (default 1), prints every
metric by name with its unit, and asserts that the last stdout line is the
result object, that the outputs checked correct, and that exactly the
end-to-end or per-layer metrics named in BENCHMARK.json are present, each
with its unit.  With ``--seconds 20`` it is one command that runs all four
workloads at full length.  It also asserts that the benchmark refuses,
with a non-zero exit and no result, to run in a directory that holds only
BENCHMARK.json and the benchmark's files.  Exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, seconds: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int, proc: subprocess.CompletedProcess) -> None:
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result['attempted']} attempted, {result['failed']} "
                             f"failed\n{proc.stderr[-2000:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(units) - set(got))}, "
                             f"extra {sorted(set(got) - set(units))}, "
                             f"units {[(k, got[k], units[k]) for k in got if k in units and got[k] != units[k]]}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{label}: {name} = {metric['value']!r}")
    print(f"ok {label}: {result['attempted']} ops, {len(got)} metrics")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def check_refuses_without_source(spec: dict) -> None:
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok refuses to run without the lora-sic sources")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_refuses_without_source(spec)
        for workload in spec["workloads"]:
            for trace in (0, 1):
                check_result(spec, workload["name"], trace,
                             _run(ROOT, workload["name"], args.seconds, trace))
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
