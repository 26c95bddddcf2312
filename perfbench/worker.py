"""The measured process of the warm workloads, and the per-layer probe.

Run from the checkout root with ``src`` on PYTHONPATH::

    python3 perfbench/worker.py loop <workload> <seed> <seconds> <trace 0|1>
    python3 perfbench/worker.py layers

``loop`` imports lora_sic, runs op 0 (the set-up op), then a closed loop of
ops for ``seconds``.  With trace 1 the loop is split: the first half
untraced, the second half with every public function wrapped.  Each op's
outputs go to stdout as one JSON line, after the op's clock stops; the
harness checks them in its own process.

``layers`` times single layers from outside (hyp2f1_1b per branch, the fixed
cost of ``estimate``, the 2-worker speed-up, accuracy against mpmath) and
then runs a fixed traced probe whose counts repeat exactly on every run.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import random
import statistics
import sys
import time

import tracer
import workloads

PROBE_DISTANCES = (300.0, 800.0, 1300.0, 1800.0, 2300.0, 2800.0)  # one per ring
PROBE_MC = (3000.0, 1.0, 1_000_000, 42)  # d1, alpha, trials, seed
PROBE_PASSES = 5


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def _cli_runner(workload: str, seed: int):
    from lora_sic import cli

    def run(index: int) -> tuple[float, dict]:
        calls = workloads.cli_calls(workload, seed, index)
        codes, outs = [], []
        start = time.perf_counter()
        for call in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(cli.main(call.argv))
            outs.append(buf.getvalue())
        wall = time.perf_counter() - start
        return wall, {"rc": codes, "out": outs}

    return run


def _mc_runner(workload: str, seed: int):
    from lora_sic import analytic, mcsim

    cfg = analytic.default_config()

    def run(index: int) -> tuple[float, dict]:
        calls = workloads.mc_calls(workload, seed, index)
        walls, reports = [], []
        for call in calls:
            start = time.perf_counter()
            report = mcsim.estimate(call.d1, cfg, call.alpha, workloads.MC_TRIALS, seed=call.seed)
            walls.append(time.perf_counter() - start)
            reports.append(_report_json(report))
        return sum(walls), {"walls": walls, "reports": reports}

    return run


def _report_json(report) -> dict:
    return {
        name: [est.mean, est.ci95_halfwidth, est.trials]
        for name, est in vars(report).items()
    }


def _run_op(run, index: int) -> tuple[float, dict]:
    start = time.perf_counter()
    try:
        return run(index)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return time.perf_counter() - start, {"error": f"{type(exc).__name__}: {exc}"}


def loop(workload: str, seed: int, seconds: float, trace: bool) -> None:
    run = (_cli_runner if workload == "analytic_warm" else _mc_runner)(workload, seed)
    wall, record = _run_op(run, 0)
    first_end = time.monotonic()
    _emit({"i": 0, "wall": wall, "first_end": first_end, **record})

    phases = [(seconds / 2, None), (seconds / 2, tracer.Tracer())] if trace else [(seconds, None)]
    index = 1
    for phase_seconds, spans in phases:
        if spans is not None:
            tracer.install(spans)
            aggregate = tracer.Aggregate()
        busy, ops = 0.0, 0
        loop_start = time.perf_counter()
        deadline = loop_start + phase_seconds
        while time.perf_counter() < deadline:
            if spans is not None:
                spans.op = index
            wall, record = _run_op(run, index)
            if spans is not None:
                aggregate.add(spans.take(), wall)
            busy += wall
            ops += 1
            _emit({"i": index, "wall": wall, **record})
            index += 1
        phase = {"ops": ops, "busy_s": busy, "loop_s": time.perf_counter() - loop_start}
        if spans is not None:
            phase.update(aggregate.to_json(), raw=aggregate.raw)
        _emit({"phase": "traced" if spans is not None else "untraced", **phase})


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def hyp2f1_points() -> dict[str, list[tuple[float, float]]]:
    """Fixed (b, z) points per branch; b spans eta in [2.2, 8]."""
    bs = [2.0 / eta for eta in (2.2, 2.8, 3.5, 5.0, 8.0)]
    zs = {
        "direct": [-0.5 * (k + 1) / 10 for k in range(10)],
        "pfaff": [-0.5 - (k + 0.5) / 10 for k in range(10)],
        "reflect": [-(10.0 ** (0.25 + 1.2 * k)) for k in range(10)],
    }
    return {branch: [(b, z) for b in bs for z in zlist] for branch, zlist in zs.items()}


def layers() -> None:
    from lora_sic import analytic, mcsim, specfun

    result: dict[str, dict] = {}
    for branch, points in hyp2f1_points().items():
        if any(tracer.hyp2f1_branch(b, z) != branch for b, z in points):
            raise RuntimeError(f"a fixed {branch} point lies outside that branch")
        reps = 40

        def sweep_points(points=points) -> None:
            for _ in range(reps):
                for b, z in points:
                    specfun.hyp2f1_1b(b, z)

        sweep_points()
        result[f"specfun.hyp2f1_1b.us.{branch}"] = _metric(
            _median_time(sweep_points, 7) / (reps * len(points)) * 1e6, "us")

    result["specfun.hyp2f1_1b.max_rel_err"] = _metric(
        _max_rel_err_vs_mpmath(specfun.hyp2f1_1b), "ratio")

    cfg = analytic.default_config()
    d1, alpha, trials, seed = PROBE_MC
    calls = 200
    mcsim.estimate(d1, cfg, alpha, 1, seed=seed)
    result["mcsim.estimate.fixed_overhead_us"] = _metric(_median_time(
        lambda: [mcsim.estimate(d1, cfg, alpha, 1, seed=seed) for _ in range(calls)], 5
    ) / calls * 1e6, "us")

    if "workers" in inspect.signature(mcsim.estimate).parameters:
        big = 4_000_000
        one, two = [], []
        for _ in range(3):
            one.append(_median_time(lambda: mcsim.estimate(d1, cfg, alpha, big, seed=seed), 1))
            two.append(_median_time(
                lambda: mcsim.estimate(d1, cfg, alpha, big, seed=seed, workers=2), 1))
        speedup = statistics.median(one) / statistics.median(two)
    else:
        print("note: mcsim.estimate has no workers parameter; workers2_speedup reported as 1",
              file=sys.stderr)
        speedup = 1.0
    result["mcsim.estimate.workers2_speedup"] = _metric(speedup, "x")

    # The probe: fixed inputs, traced, so that its counts repeat exactly.
    # Several passes give the timing fallbacks enough samples.
    from lora_sic import cli

    spans = tracer.Tracer()
    tracer.install(spans)
    probe = tracer.Aggregate()
    for _ in range(PROBE_PASSES):
        for index, d1_probe in enumerate(PROBE_DISTANCES):
            spans.op = index
            argvs = [call.argv for call in workloads.site_study(random.Random(index), d1_probe)]
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv) for argv in argvs]
            probe.add(spans.take(), time.perf_counter() - start)
            if any(codes):
                raise RuntimeError(f"probe site study at d1={d1_probe} exited {codes}")
        spans.op = len(PROBE_DISTANCES)
        start = time.perf_counter()
        report = mcsim.estimate(d1, cfg, alpha, trials, seed=seed)
        probe.add(spans.take(), time.perf_counter() - start)
    result["mcsim.estimate.collisions_per_trial"] = _metric(
        report.single_interferer_given_collision.trials / trials, "ratio")
    _emit({"layers": result, "probe": probe.to_json(), "probe_passes": PROBE_PASSES})


def _max_rel_err_vs_mpmath(hyp2f1_1b) -> float:
    """Worst relative error over eta in [2.0001, 8] and z in [-1e12, -1e-6], 40 digits."""
    try:
        import mpmath
    except ImportError:
        print("note: mpmath cannot be imported; max_rel_err reported as -1", file=sys.stderr)
        return -1.0
    mpmath.mp.dps = 40
    worst = 0.0
    for eta in (2.0001, 2.2, 2.8, 3.5, 4.5, 6.0, 8.0):
        b = 2.0 / eta
        for k in range(19):
            z = -(10.0 ** (-6 + k))
            ref = mpmath.hyp2f1(1, b, 1 + b, z)
            worst = max(worst, float(abs((hyp2f1_1b(b, z) - ref) / ref)))
    return worst


def main(argv: list[str]) -> int:
    if argv[0] == "loop":
        loop(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    elif argv[0] == "layers":
        layers()
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
