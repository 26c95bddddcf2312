"""Ring partition of the coverage disc, SF allocation and interferer intensity."""

from __future__ import annotations

import bisect
import math

from .params import NetworkConfig


class OutOfCoverageError(ValueError):
    """Raised for distances outside the covered annuli."""


def ring_of(d: float, cfg: NetworkConfig) -> int:
    """1-based ring containing distance ``d``.

    A distance exactly on a shared boundary belongs to the inner of the two
    rings it separates; this tie-break is fixed for reproducibility.
    """
    if math.isnan(d):
        raise ValueError(f"distance must be a number, got {d}")
    if d <= 0:
        # + 0.0 names -0 as 0.0, the value a sweep's grid holds there.
        raise OutOfCoverageError(f"distance must be positive, got {d + 0.0}")
    radius = cfg.boundaries[-1]
    if d > radius:
        raise OutOfCoverageError(f"distance {d} m exceeds the cell radius {radius} m")
    return bisect.bisect_left(cfg.boundaries, d)


def ring_area(ring: int, cfg: NetworkConfig) -> float:
    """Area of the annulus in square meters."""
    if not 1 <= ring <= 6:
        raise ValueError(f"ring index must be in 1..6, got {ring}")
    lo, hi = cfg.boundaries[ring - 1], cfg.boundaries[ring]
    return math.pi * (hi * hi - lo * lo)


def interferer_intensity(ring: int, cfg: NetworkConfig) -> float:
    """Mean number of active same-ring interferers during a vulnerability window.

    The scenario's ``nbar`` nodes spread uniformly over the disc, each active
    for its ``duty_cycle``.  The window spans two packet durations, hence the
    factor 2 on top of the duty-cycled mean ring population.
    """
    density = cfg.nbar / (math.pi * cfg.boundaries[-1] ** 2)
    return 2.0 * cfg.duty_cycle * density * ring_area(ring, cfg)


def nodes_from_alpha(alpha: float, duty_cycle: float) -> int:
    """Node count whose duty-cycled activity produces intensity ``alpha``.

    Rounded half-up to the nearest integer.
    """
    if duty_cycle <= 0:
        raise ValueError(f"duty_cycle must be positive, got {duty_cycle}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    count = alpha / (2.0 * duty_cycle) + 0.5
    if not math.isfinite(count):
        raise ValueError(
            f"alpha={alpha} at duty cycle {duty_cycle} needs a node count out of "
            "floating-point range"
        )
    return int(math.floor(count))
