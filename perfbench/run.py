"""lora-sic benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lora-sic checkout; the package is imported from
``src`` of that checkout.  Each workload is a closed loop with one client
(one process, ``workers=1``): the next op starts when the previous one has
returned.  Inputs derive from ``--seed`` only (see workloads.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of several fresh interpreters), throughput, latency median and p90,
peak RSS and, for the Monte Carlo workloads, time to a CI95 half-width of
1e-3.  ``--trace 1`` spends half the time untraced and half with every public
function of lora_sic wrapped in spans, and reports the per-layer metrics.

Every op's output is checked in this process after the measured process has
exited (oracle.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import tracer
import workloads

SETUP_SAMPLES = 7
CI_TARGET = 1e-3
OUT_DIR = ".bench_out"
CHILD_TIMEOUT_S = 120.0


class Run:
    """State of one benchmark run: environment, op tally and failure notes."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        src = str(root / "src")
        inherited = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
        self.out_dir = root / OUT_DIR
        self.out_dir.mkdir(exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []  # one entry per failed op
        self.trace_error: str | None = None

    def spawn(self, args: list[str], **kwargs) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env, **kwargs)

    def run_child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)

    def tally(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{label}: {error}")

    # -- checks ---------------------------------------------------------------

    def check_cli(self, index: int, codes: list[int], outs: list[str]) -> str | None:
        calls = workloads.cli_calls(self.workload, self.seed, index)
        for call, code, out in zip(calls, codes, outs):
            if code != 0:
                return f"{' '.join(call.argv)} exited {code}"
            try:
                err = call.check(out)
            except ValueError as exc:
                err = f"unparseable output ({exc})"
            if err:
                return err
        return None if len(codes) == len(calls) else f"{len(codes)} of {len(calls)} calls ran"

    def check_record(self, record: dict) -> str | None:
        if "error" in record:
            return record["error"]
        if "reports" in record:
            calls = workloads.mc_calls(self.workload, self.seed, record["i"])
            for call, report in zip(calls, record["reports"]):
                err = call.check(report)
                if err:
                    return err
            return None
        return self.check_cli(record["i"], record["rc"], record["out"])

    def anchor(self) -> None:
        proc = self.run_child(["-m", "lora_sic", *workloads.ANCHOR_ARGV])
        self.tally("anchor", f"exit {proc.returncode}" if proc.returncode
                   else oracle.check_anchor(proc.stdout))

    # -- cold CLI ops ----------------------------------------------------------

    def cli_op(self, index: int, traced: bool) -> tuple[float, list]:
        """One cold process; returns its wall time and, when traced, its spans."""
        (call,) = workloads.cli_calls(self.workload, self.seed, index)
        spans_file = self.out_dir / "cli_spans.json"
        prefix = ["perfbench/traced_cli.py", str(spans_file)] if traced else ["-m", "lora_sic"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *prefix, *call.argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        self.tally(f"op {index}", self.check_cli(index, [proc.returncode], [proc.stdout]))
        spans = json.loads(spans_file.read_text()) if traced and spans_file.exists() else []
        return wall, spans

    def cli_loop(self, seconds: float, first: int, traced: bool,
                 aggregate: tracer.Aggregate | None = None) -> tuple[list[float], float, int]:
        walls: list[float] = []
        index = first
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            wall, spans = self.cli_op(index, traced)
            walls.append(wall)
            if aggregate is not None:
                aggregate.add(spans, wall)
            index += 1
        return walls, time.perf_counter() - start, index

    # -- warm worker -----------------------------------------------------------

    def worker(self, seconds: float, trace: bool) -> tuple[float, list[dict], dict]:
        """Run the warm worker; returns its set-up time, its timed ops and its phases.

        Op outputs are checked as they are read back, so the harness never
        holds every op's output at once.  Op 0 is the set-up op and is not
        among the timed ops.
        """
        with tempfile.TemporaryFile("w+", dir=self.out_dir) as sink:
            spawned = time.monotonic()
            proc = self.spawn(["perfbench/worker.py", "loop", self.workload, str(self.seed),
                               repr(seconds), "1" if trace else "0"],
                              stdout=sink, stderr=subprocess.PIPE, text=True)
            try:
                _, err = proc.communicate(timeout=seconds + CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
            if proc.returncode:
                raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
            sink.seek(0)
            setup_s, ops, phases = math.nan, [], {}
            for line in sink:
                record = json.loads(line)
                if "phase" in record:
                    phases[record["phase"]] = record
                    continue
                self.tally(f"op {record['i']}", self.check_record(record))
                if record["i"] == 0:
                    setup_s = record["first_end"] - spawned
                else:
                    ops.append({"wall": record["wall"], "ttc": _times_to_ci(record)})
        return setup_s, ops, phases


def _times_to_ci(record: dict) -> list[float]:
    """Per estimate: wall time x (CI95 half-width of success_c1_sic / 1e-3)^2."""
    return [
        wall * (report["success_c1_sic"][1] / CI_TARGET) ** 2
        for wall, report in zip(record.get("walls", ()), record.get("reports", ()))
    ]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run) -> dict:
    if run.workload == "cli_cold":
        setup = [run.cli_op(0, traced=False)[0] for _ in range(SETUP_SAMPLES)]
        walls, loop_s, _ = run.cli_loop(run.seconds, 0, traced=False)
        ops_per_s = len(walls) / loop_s
        estimates: list[float] = []
    else:
        setup = [run.worker(0.0, trace=False)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, ops, phases = run.worker(run.seconds, trace=False)
        setup.append(setup_s)
        walls = [op["wall"] for op in ops]
        ops_per_s = phases["untraced"]["ops"] / phases["untraced"]["loop_s"]
        estimates = [t for op in ops for t in op["ttc"]]
    # MC: the mean over estimates of the time to a 1e-3 CI95 half-width.
    # Closed forms are exact, so there one op's time is the time to the answer.
    time_to_ci = statistics.fmean(estimates) if estimates else statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    run.anchor()
    print(f"{run.workload}: {len(walls)} timed ops, {len(setup)} set-up samples", file=sys.stderr)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(ops_per_s, "1/s"),
        "latency_ms_p50": _metric(statistics.median(walls) * 1e3, "ms"),
        "latency_ms_p90": _metric(_p90(walls) * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "time_to_ci95_1e-3_s": _metric(time_to_ci, "s"),
    }


def _import_metrics(run: Run) -> dict:
    """Cumulative import times (median of three fresh interpreters) and module count."""
    samples: dict[str, list[float]] = {"lora_sic": [], "scipy": [], "numpy": []}
    for _ in range(3):
        proc = run.run_child(["-X", "importtime", "-c", "import lora_sic"])
        for prefix, values in samples.items():
            values.append(_outermost_cumulative_us(proc.stderr, prefix) / 1e3)
    count = run.run_child(["-c", "import sys, lora_sic; print(len(sys.modules))"])
    metrics = {f"import.{name}_ms": _metric(statistics.median(v), "ms") for name, v in samples.items()}
    metrics["import.modules_loaded"] = _metric(int(count.stdout), "count")
    return metrics


def _outermost_cumulative_us(importtime: str, prefix: str) -> float:
    """Sum of cumulative times of the imports under ``prefix`` not nested in another.

    ``-X importtime`` prints children before their parent, indented two
    spaces per level, so the lines are walked backwards as a pre-order.
    """
    total = 0.0
    stack: list[tuple[int, bool]] = []
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        matches = name == prefix or name.startswith(prefix + ".")
        if matches and not any(m for _, m in stack):
            total += float(cumulative)
        stack.append((depth, matches))
    return total


def _median(key: str, *aggregates: dict, scale: float = 1.0) -> float:
    """Median of the first aggregate holding samples for ``key``."""
    for aggregate in aggregates:
        values = aggregate["samples"].get(key)
        if values:
            return statistics.median(values) * scale
    raise KeyError(key)


def per_layer(run: Run) -> dict:
    if run.workload == "cli_cold":
        walls, _, next_index = run.cli_loop(run.seconds / 2, 0, traced=False)
        untraced = {"ops": len(walls), "busy_s": sum(walls)}
        aggregate = tracer.Aggregate()
        run.cli_loop(run.seconds / 2, next_index, traced=True, aggregate=aggregate)
        traced, raw = aggregate.to_json(), aggregate.raw
    else:
        _, _, phases = run.worker(run.seconds, trace=True)
        untraced, traced = phases["untraced"], phases["traced"]
        raw = traced.pop("raw")
    run.anchor()

    proc = run.run_child(["perfbench/worker.py", "layers"])
    if proc.returncode:
        raise RuntimeError(f"layers probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)
    layers = json.loads(proc.stdout)
    probe = layers["probe"]
    spans_path = run.out_dir / f"spans-{run.workload}-{run.seed}.json"
    spans_path.write_text(json.dumps({"workload": raw, "probe_counts": probe["counts"]}))
    if traced["over_wall"] or probe["over_wall"]:
        run.trace_error = "self times of an op sum to more than its wall time"

    counts = probe["counts"]
    metrics = _import_metrics(run)
    metrics["cli.main.self_ms_p50"] = _metric(_median("cli.main.self", traced, probe, scale=1e3), "ms")
    for var in ("d1", "alpha", "gamma_db"):
        metrics[f"experiments.sweep.us_per_point.{var}"] = _metric(
            _median(f"sweep_per_point.{var}", traced, probe, scale=1e6), "us")
    for kind in ("plain", "sic"):
        metrics[f"experiments.find_alpha_for_target.ms.{kind}"] = _metric(
            _median(f"plan.{kind}", traced, probe, scale=1e3), "ms")
    plan_calls = probe["samples"]["plan.coverage_calls"]
    metrics["experiments.find_alpha_for_target.coverage_calls"] = _metric(
        sum(plan_calls) / len(plan_calls), "count")
    metrics["analytic.coverage.self_us_p50"] = _metric(
        _median("analytic.coverage.self", traced, probe, scale=1e6), "us")
    for var in ("d1", "alpha", "gamma_db"):
        metrics[f"analytic.kernel_evals_per_point.{var}"] = _metric(
            counts[f"specfun.hyp2f1_1b@sweep.{var}"] / counts[f"analytic.coverage@sweep.{var}"],
            "count")
    points = sum(v for k, v in counts.items() if k.startswith("analytic.coverage@sweep."))
    ring_calls = sum(v for k, v in counts.items() if k.startswith("geometry.ring_of@sweep."))
    metrics["geometry.ring_of.calls_per_point"] = _metric(ring_calls / points, "count")
    for branch in ("direct", "pfaff", "reflect"):  # per probe pass
        metrics[f"specfun.hyp2f1_1b.calls.{branch}"] = _metric(
            counts.get(f"hyp2f1.{branch}", 0) // layers["probe_passes"], "count")
    metrics.update(layers["layers"])
    metrics["mcsim.estimate.mtrials_per_s"] = _metric(
        _median("estimate.mtrials_per_s", traced, probe), "Mtrials/s")
    metrics["mcsim.estimate.chunks"] = _metric(_median("estimate.chunks", probe), "count")
    metrics["trace.overhead_frac"] = _metric(
        1.0 - (traced["ops"] / traced["busy_s"]) / (untraced["ops"] / untraced["busy_s"]), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lora_sic" / "__init__.py").is_file():
        print(f"error: {root} is not a lora-sic checkout (no src/lora_sic)", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds)
    # Untimed: warm the file cache, and write bytecode where the environment
    # allows it, before set-up is timed.
    run.run_child(["-c", "import lora_sic"])
    metrics = per_layer(run) if args.trace else end_to_end(run)
    for failure in run.failures[:20] + ([f"trace: {run.trace_error}"] if run.trace_error else []):
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures and not run.trace_error,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
