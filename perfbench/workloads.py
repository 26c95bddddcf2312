"""Seeded inputs of the benchmark's four workloads, with their output checks.

Op ``index`` of a workload under a seed is a pure function of the three, so
the measured process and the checking harness derive the same inputs
independently.  The program sees only the generated arguments.

* ``cli_cold``: one fresh ``python -m lora_sic`` process per op, cycling a
  seeded order of coverage, plan, plan --sic, capacity and a 100-point alpha
  sweep.
* ``analytic_warm``: one "site study" per op, five in-process ``cli.main``
  calls at one d1.  Ops cycle through the six rings.
* ``mc_light``: per op, ``mcsim.estimate`` of 1e6 trials at each of the
  validate loads 0.25, 0.5 and 1, at one d1.  Summing the three smooths the
  latency distribution, whose per-load clusters sit close together.
* ``mc_heavy``: one 1e6-trial estimate per op, cycling loads 5, 6.5 and 8.
  Three equally frequent loads keep the median inside one load's latency
  cluster; with two it would sit on the gap between them.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import oracle

WORKLOADS = ("cli_cold", "analytic_warm", "mc_light", "mc_heavy")
MC_LOADS = {"mc_light": (0.25, 0.5, 1.0), "mc_heavy": (5.0, 6.5, 8.0)}
MC_TRIALS = 1_000_000
ANCHOR_ARGV = ["coverage", "--d1", "3000", "--alpha", "1"]

SWEEP_POINTS = 100
ALPHA_GRID = [0.05 * (i + 1) for i in range(SWEEP_POINTS)]
GAMMA_GRID = [0.1 * i for i in range(SWEEP_POINTS)]
QUAD_SAMPLES = 2  # rows per d1 or gamma_db sweep checked against quadrature
GOLDEN = (5**0.5 - 1) / 2

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class CliCall:
    argv: list[str]
    check: Check


@dataclass(frozen=True)
class McCall:
    d1: float
    alpha: float
    seed: int

    def check(self, report: dict) -> str | None:
        return oracle.check_mc(report, self.d1, self.alpha)


def _rng(workload: str, seed: int, index: object) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _ring_point(ring: int, u: float) -> float:
    """The d1 at fraction ``u`` of the outer four fifths of ``ring``.

    The inner fifth of each ring is skipped: in ring 1 it reaches d1 -> 0,
    where h1 and q1 round to 1, plan targets become unreachable at
    alpha_max, and MC counts of the complement degenerate to zero.
    """
    lo, hi = oracle.ring_bounds(ring)
    return round(lo + (0.2 + 0.8 * u) * (hi - lo), 3)


def _distance(rng: random.Random, ring: int) -> float:
    return _ring_point(ring, rng.random())


def _target(rng: random.Random, d1: float) -> float:
    return round(rng.uniform(0.45, 0.9) * oracle.h1(d1), 6)


def _num(x: float) -> str:
    return repr(float(x))


def _alpha_sweep(d1: float) -> CliCall:
    argv = ["sweep", "--var", "alpha", "--start", "0.05", "--stop", "5", "--step", "0.05",
            "--d1", _num(d1)]
    return CliCall(argv, functools.partial(
        oracle.check_sweep, var="alpha", d1=d1, alpha=0.0, expect_x=ALPHA_GRID, sample=[]))


def _plan(rng: random.Random, d1: float, with_sic: bool) -> CliCall:
    target = _target(rng, d1)
    argv = ["plan", "--target", _num(target), "--d1", _num(d1)] + (["--sic"] if with_sic else [])
    return CliCall(argv, functools.partial(
        oracle.check_plan, target=target, d1=d1, with_sic=with_sic))


def cli_calls(workload: str, seed: int, index: int) -> list[CliCall]:
    """The CLI invocations of op ``index``: one for cli_cold, five for analytic_warm."""
    rng = _rng(workload, seed, index)
    if workload == "cli_cold":
        kinds = ["coverage", "plan", "plan_sic", "capacity", "sweep_alpha"]
        _rng(workload, seed, "order").shuffle(kinds)
        kind = kinds[index % len(kinds)]
        d1 = _distance(rng, rng.randint(1, 6))
        if kind == "coverage":
            alpha = round(rng.uniform(0.1, 3.0), 4)
            return [CliCall(["coverage", "--d1", _num(d1), "--alpha", _num(alpha)],
                            functools.partial(oracle.check_coverage, d1=d1, alpha=alpha))]
        if kind == "capacity":
            alphas = [round(rng.uniform(0.05, 2.0), 4) for _ in range(3)]
            return [CliCall(["capacity", "--alphas", ",".join(map(_num, alphas))],
                            functools.partial(oracle.check_capacity, alphas=alphas))]
        if kind == "sweep_alpha":
            return [_alpha_sweep(d1)]
        return [_plan(rng, d1, with_sic=kind == "plan_sic")]

    if workload != "analytic_warm":
        raise ValueError(f"{workload} is not a CLI workload")
    ring = 1 + (index + _rng(workload, seed, "ring").randrange(6)) % 6
    return site_study(rng, _distance(rng, ring))


def site_study(rng: random.Random, d1: float) -> list[CliCall]:
    """alpha, gamma_db and d1 sweeps of 100 points, plan and plan --sic, all at d1."""
    alpha = round(rng.uniform(0.25, 2.0), 4)
    lo, hi = oracle.ring_bounds(oracle.ring_of(d1))
    step = (hi - lo) / SWEEP_POINTS
    d1_grid = [lo + step * (i + 1) for i in range(SWEEP_POINTS)]
    return [
        _alpha_sweep(d1),
        CliCall(
            ["sweep", "--var", "gamma_db", "--start", "0", "--stop", "9.9", "--step", "0.1",
             "--d1", _num(d1), "--alpha", _num(alpha)],
            functools.partial(oracle.check_sweep, var="gamma_db", d1=d1, alpha=alpha,
                              expect_x=GAMMA_GRID,
                              sample=rng.sample(range(SWEEP_POINTS), QUAD_SAMPLES)),
        ),
        CliCall(
            ["sweep", "--var", "d1", "--start", _num(lo + step), "--stop", _num(hi),
             "--step", _num(step), "--alpha", _num(alpha)],
            functools.partial(oracle.check_sweep, var="d1", d1=d1, alpha=alpha,
                              expect_x=d1_grid,
                              sample=rng.sample(range(SWEEP_POINTS), QUAD_SAMPLES)),
        ),
        _plan(rng, d1, with_sic=False),
        _plan(rng, d1, with_sic=True),
    ]


def _spread_distance(workload: str, seed: int, stratum: object, ring: int, visit: int) -> float:
    # A golden-ratio sequence spaces the d1 of successive visits to a stratum
    # evenly across its ring, so a run's mix of operating points (and with it
    # the CI half-widths behind time_to_ci95) varies little from seed to seed.
    start = _rng(workload, seed, f"stratum {stratum}").random()
    return _ring_point(ring, (start + visit * GOLDEN) % 1.0)


def mc_calls(workload: str, seed: int, index: int) -> list[McCall]:
    """The estimates of MC op ``index``, each of MC_TRIALS trials.

    Rings and loads are stratified so that every seed runs the same mix:
    mc_light estimates all three loads at one d1 per op, rings cycling;
    mc_heavy estimates one load per op, so 18 consecutive ops cover every
    (ring, load) pair once.
    """
    rng = _rng(workload, seed, index)
    step = index + _rng(workload, seed, "offset").randrange(18)
    loads = MC_LOADS[workload]
    if workload == "mc_light":
        ring, visit = 1 + step % 6, step // 6
        d1 = _spread_distance(workload, seed, ring, ring, visit)
        return [McCall(d1, alpha, rng.getrandbits(63)) for alpha in loads]
    ring, alpha = 1 + (step // len(loads)) % 6, loads[step % len(loads)]
    d1 = _spread_distance(workload, seed, (ring, alpha), ring, step // (6 * len(loads)))
    return [McCall(d1, alpha, rng.getrandbits(63))]
