"""Parameter sweeps, capacity tables and target-reliability planning."""

from __future__ import annotations

import math

from .analytic import _operating_point, _q1, _q2, coverage
from .geometry import interferer_intensity, nodes_from_alpha, ring_of
from .params import DEFAULT_SEED, MAX_ALPHA, NetworkConfig, SfParams, _integer, _record, _uint64

SWEEP_VARIABLES = ("d1", "alpha", "gamma_db")

#: Largest grid a sweep may build; a tiny step would otherwise exhaust memory.
MAX_SWEEP_POINTS = 1_000_000


class InfeasibleTargetError(ValueError):
    """The requested reliability target cannot be met at any positive load."""


class SweepSpec(
    _record(
        "SweepSpec", "variable start stop step",
        d1=None, alpha=None, mc_trials=0, seed=DEFAULT_SEED,
    )
):
    """One-dimensional grid over d1, alpha or gamma_db.

    Non-swept parameters are pinned by ``d1`` (None: the cell edge) and
    ``alpha`` (None: the scenario decides, see :func:`resolve_intensity`).
    ``mc_trials`` = 0 keeps it analytic; ``seed`` lies in [0, 2^64) either way.
    """

    def _check(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        for name in ("start", "stop", "step", "d1", "alpha"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.stop < self.start:
            raise ValueError("stop must not precede start")
        if not self._steps() < MAX_SWEEP_POINTS:
            raise ValueError(
                f"a grid from {self.start} to {self.stop} by {self.step} would "
                f"exceed {MAX_SWEEP_POINTS} points"
            )
        _integer("mc_trials", self.mc_trials)
        _uint64("seed", self.seed)
        if self.mc_trials < 0:
            raise ValueError("mc_trials must be nonnegative")

    def _steps(self) -> float:
        # The slack absorbs binary representation error in (stop-start)/step.
        return (self.stop - self.start) / self.step + 1e-6

    def grid(self) -> list[float]:
        # The clamp keeps the last point from drifting past stop.
        count = int(math.floor(self._steps())) + 1
        return [min(self.start + i * self.step, self.stop) for i in range(count)]


class SweepRow(_record("SweepRow", "x point mc")):
    """One grid point: the swept value ``x`` (a float), the
    :class:`~lora_sic.analytic.CoverageBreakdown` ``point`` that
    :func:`coverage` returned there and, on sweeps with ``mc_trials`` > 0,
    the :class:`~lora_sic.mcsim.McReport` ``mc`` (None otherwise)."""


def resolve_intensity(cfg: NetworkConfig, d1: float, alpha: float | None = None) -> float:
    """The interferer intensity for the ring containing ``d1``.

    The first of these that applies decides it:

    1. an explicit ``alpha``;
    2. the scenario's ``nbar``, when it is above 0, through
       :func:`~lora_sic.geometry.interferer_intensity`;
    3. otherwise alpha = 1.
    """
    if alpha is not None:
        return alpha
    if not cfg.nbar > 0:
        return 1.0
    return interferer_intensity(ring_of(d1, cfg), cfg)


def _d1_or_edge(d1: float | None, cfg: NetworkConfig) -> float:
    """``d1``, or the cell edge, where the worst-case node sits, when it is None."""
    return cfg.radius_m if d1 is None else d1


def sweep(spec: SweepSpec, cfg: NetworkConfig) -> list[SweepRow]:
    """Evaluate the breakdown over the grid, in grid order.

    Deterministic given ``spec.seed``; each grid point gets its own derived
    MC seed so rows are statistically independent.
    """
    rows: list[SweepRow] = []
    for index, x in enumerate(spec.grid()):
        point_cfg = cfg
        d1, alpha = _d1_or_edge(spec.d1, cfg), spec.alpha
        if spec.variable == "d1":
            d1 = x
        elif spec.variable == "alpha":
            alpha = x
        else:
            point_cfg = cfg._replace(gamma_db=x)
        alpha_i = resolve_intensity(point_cfg, d1, alpha)
        point = coverage(d1, point_cfg, alpha_i)
        report = None
        if spec.mc_trials > 0:
            from . import mcsim  # loads numpy, which analytic sweeps never need

            report = mcsim.estimate(
                d1,
                point_cfg,
                alpha_i,
                spec.mc_trials,
                seed=mcsim.derive_seed(spec.seed, index),
            )
        rows.append(SweepRow(x, point, report))
    return rows


class CapacityRow(_record("CapacityRow", "alpha nodes total")):
    """Supported node counts per SF at one network usage intensity: ``nodes``
    holds one count per SF, ``total`` their sum."""


def capacity_table(
    alphas: list[float] | tuple[float, ...], sf_table: tuple[SfParams, ...]
) -> list[CapacityRow]:
    """Node counts sustaining intensity ``alpha`` per SF under the tabulated duty cycles."""
    rows = []
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise ValueError(f"alphas must be finite, got {alpha}")
        if alpha <= 0:
            raise ValueError(f"alphas must be positive, got {alpha}")
        nodes = tuple(nodes_from_alpha(alpha, row.duty_cycle) for row in sf_table)
        rows.append(CapacityRow(alpha=alpha, nodes=nodes, total=sum(nodes)))
    return rows


def find_alpha_for_target(
    target: float,
    d1: float,
    cfg: NetworkConfig,
    with_sic: bool,
) -> float:
    """Largest intensity whose coverage probability still meets ``target``.

    Inverts the closed form c(alpha) = h1 (e^(-alpha K1) + [SIC] alpha
    e^(-alpha) K2), where K1 and K2 are the two alpha-independent ring
    kernels at thresholds 1/gamma and gamma, computed once with the operating
    point (its fields ``k1`` and ``k2``); c(alpha) is the c1 (or c1_sic) that
    :func:`coverage` reports.  Bisection runs until the bracket holds two
    adjacent doubles, so the result is exact to double precision.

    No monotonicity check is needed, for any capture threshold: with K1, K2
    in [0, 1], e^alpha c'(alpha) / h1 = K2 (1 - alpha) - K1 e^(alpha (1 - K1))
    decreases in alpha, so c rises at most once and then falls.  Below the
    zero-load value c(0) = h1 the set {c >= target} is therefore an interval
    [0, alpha*].  Raises :class:`InfeasibleTargetError` when even a silent
    network misses the target, or when the target is still exceeded at
    :data:`~lora_sic.params.MAX_ALPHA`.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    op = _operating_point(d1, cfg)
    h1 = math.exp(-op.demand)  # the zero-load coverage: no interference
    if target > h1:
        raise InfeasibleTargetError(
            f"target {target} exceeds the zero-load coverage {h1:.6f} at d1={d1}"
        )
    if target == h1:
        return 0.0

    def objective(alpha: float) -> float:
        return h1 * (_q1(op, alpha) + _q2(op, alpha)) if with_sic else h1 * _q1(op, alpha)

    if objective(MAX_ALPHA) > target:
        raise InfeasibleTargetError(
            f"objective still exceeds {target} at alpha_max={MAX_ALPHA}"
        )
    lo, hi = 0.0, MAX_ALPHA
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if objective(mid) >= target:
            lo = mid
        else:
            hi = mid
