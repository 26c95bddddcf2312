"""Ring partition of the coverage disc, SF allocation and interferer intensity."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass


class OutOfCoverageError(ValueError):
    """Raised for distances outside the covered annuli."""


@dataclass(frozen=True)
class RingLayout:
    """Concentric annuli of the coverage disc, innermost ring first.

    ``boundaries`` holds the n+1 radii ``l0 <= l1 <= ... <= ln`` in meters
    (``l0`` is usually 0); ring ``i`` covers the half-open annulus
    ``(l_{i-1}, l_i]``.  Ring ``i`` uses row ``i`` of the scenario's SF table.
    """

    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) < 2:
            raise ValueError("need at least two boundaries to bound one ring")
        if not all(math.isfinite(b) for b in self.boundaries):
            raise ValueError(f"boundaries must be finite, got {self.boundaries}")
        if self.boundaries[0] < 0:
            raise ValueError("innermost boundary must be nonnegative")
        for lo, hi in zip(self.boundaries, self.boundaries[1:]):
            if hi <= lo:
                raise ValueError("boundaries must be strictly increasing")

    @property
    def n_rings(self) -> int:
        return len(self.boundaries) - 1

    @property
    def radius(self) -> float:
        return self.boundaries[-1]

    def bounds(self, ring: int) -> tuple[float, float]:
        """Inner and outer radius of 1-based ring index ``ring``."""
        if not 1 <= ring <= self.n_rings:
            raise ValueError(f"ring index must be in 1..{self.n_rings}, got {ring}")
        return self.boundaries[ring - 1], self.boundaries[ring]


def default_layout(radius_m: float = 3000.0) -> RingLayout:
    """Six equal-width rings spanning the disc, one per SF from SF7 innermost to SF12."""
    if not math.isfinite(radius_m):
        raise ValueError(f"radius_m must be finite, got {radius_m}")
    if radius_m <= 0:
        raise ValueError(f"radius_m must be positive, got {radius_m}")
    width = radius_m / 6
    return RingLayout(boundaries=tuple(i * width for i in range(7)))


def ring_of(d: float, layout: RingLayout) -> int:
    """1-based ring containing distance ``d``.

    A distance exactly on a shared boundary belongs to the inner of the two
    rings it separates; this tie-break is fixed for reproducibility.
    """
    if math.isnan(d):
        raise ValueError(f"distance must be a number, got {d}")
    if d <= 0:
        raise OutOfCoverageError(f"distance must be positive, got {d}")
    if d > layout.radius:
        raise OutOfCoverageError(
            f"distance {d} m exceeds the cell radius {layout.radius} m"
        )
    idx = bisect.bisect_left(layout.boundaries, d)
    if idx == 0:
        raise OutOfCoverageError(
            f"distance {d} m lies inside the inner cutoff {layout.boundaries[0]} m"
        )
    return idx


def ring_area(ring: int, layout: RingLayout) -> float:
    """Area of the annulus in square meters."""
    lo, hi = layout.bounds(ring)
    return math.pi * (hi * hi - lo * lo)


@dataclass(frozen=True)
class TrafficModel:
    """Mean deployment size and the duty cycle that every node transmits at."""

    n_bar: float
    duty_cycle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.n_bar):
            raise ValueError(f"n_bar must be finite, got {self.n_bar}")
        if self.n_bar < 0:
            raise ValueError(f"n_bar must be nonnegative, got {self.n_bar}")
        if not 0 <= self.duty_cycle < 1:
            raise ValueError(f"duty cycles must lie in [0, 1), got {self.duty_cycle}")

    def density(self, layout: RingLayout) -> float:
        """Spatial node density in nodes per square meter."""
        return self.n_bar / (math.pi * layout.radius**2)


def interferer_intensity(ring: int, traffic: TrafficModel, layout: RingLayout) -> float:
    """Mean number of active same-ring interferers during a vulnerability window.

    The window spans two packet durations, hence the factor 2 on top of the
    duty-cycled mean ring population.
    """
    return 2.0 * traffic.duty_cycle * traffic.density(layout) * ring_area(ring, layout)


def nodes_from_alpha(alpha: float, duty_cycle: float) -> int:
    """Node count whose duty-cycled activity produces intensity ``alpha``.

    Rounded half-up to the nearest integer.
    """
    if duty_cycle <= 0:
        raise ValueError(f"duty_cycle must be positive, got {duty_cycle}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    return int(math.floor(alpha / (2.0 * duty_cycle) + 0.5))
