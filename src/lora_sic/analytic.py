"""Closed-form coverage probabilities for the ring/PPP uplink model.

The model: a reference node at distance d1 from the gateway, Rayleigh fading,
power-law path loss, and co-ring interferers forming a Poisson point process
whose points follow the ring distance density.  Connection (H1) is the event
that the faded reference signal clears its SF's SNR threshold over noise;
capture (Q1) that it beats the aggregate interference by the capture
threshold; SIC capture (Q2) that a *single* interferer beats the reference by
the same threshold, allowing the gateway to decode and cancel it first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .geometry import (
    RingLayout,
    TrafficModel,
    default_layout,
    interferer_intensity,
    ring_of,
    uniform_traffic,
)
from .params import RadioConfig, SfParams, db_to_linear, default_sf_table
from .specfun import hyp2f1_1b


@dataclass(frozen=True)
class NetworkConfig:
    """A complete scenario: radio, ring layout, SF table and traffic."""

    radio: RadioConfig
    layout: RingLayout
    sf_table: tuple[SfParams, ...]
    traffic: TrafficModel

    def __post_init__(self) -> None:
        if len(self.sf_table) != self.layout.n_rings:
            raise ValueError("sf_table must hold one row per ring")
        table_sfs = tuple(row.sf for row in self.sf_table)
        if table_sfs != self.layout.sfs:
            raise ValueError(
                f"layout SF allocation {self.layout.sfs} does not match "
                f"sf_table rows {table_sfs}"
            )
        if len(self.traffic.duty_cycles) != self.layout.n_rings:
            raise ValueError("traffic must hold one duty cycle per ring")

    def sf_for_ring(self, ring: int) -> SfParams:
        return self.sf_table[ring - 1]


def default_config(
    nbar: float = 0.0,
    duty_cycle: float = 0.01,
    radius_m: float = 3000.0,
    **radio_overrides: float,
) -> NetworkConfig:
    """The suburban reference scenario: R=3000 m, six 500 m rings, 1% duty cycle.

    ``radio_overrides`` are forwarded to :class:`RadioConfig` (e.g.
    ``capture_threshold_db=6``).
    """
    layout = default_layout(radius_m=radius_m)
    return NetworkConfig(
        radio=RadioConfig(**radio_overrides),
        layout=layout,
        sf_table=default_sf_table(),
        traffic=uniform_traffic(nbar, duty_cycle, layout.n_rings),
    )


def with_capture_threshold(cfg: NetworkConfig, gamma_db: float) -> NetworkConfig:
    return replace(cfg, radio=replace(cfg.radio, capture_threshold_db=gamma_db))


@dataclass(frozen=True)
class CoverageBreakdown:
    """The probability quintet at one operating point.

    ``c1 = h1*q1`` and ``c1_sic = h1*(q1+q2)`` under the standard
    independence approximations.  The capture/SIC split into disjoint events
    is valid for capture thresholds of at least 0 dB; below that q1+q2 may
    exceed one.
    """

    h1: float
    q1: float
    q2: float
    c1: float
    c1_sic: float
    alpha_i: float
    ring: int
    d1: float

    def __post_init__(self) -> None:
        for name in ("h1", "q1", "q2", "c1", "c1_sic"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} is not a probability")


def path_loss_gain(d: float, radio: RadioConfig) -> float:
    """Free-space-style power gain (wavelength / 4 pi d)^eta."""
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    return (radio.wavelength_m / (4.0 * math.pi * d)) ** radio.path_loss_exp


def _snr_demand(d1: float, cfg: NetworkConfig, ring: int) -> float:
    """Noise-to-received-power ratio scaled by the ring's SNR threshold."""
    q_lin = db_to_linear(cfg.sf_for_ring(ring).snr_threshold_db)
    mean_rx_mw = cfg.radio.tx_power_mw * path_loss_gain(d1, cfg.radio)
    return cfg.radio.noise_power_mw * q_lin / mean_rx_mw


def connection_probability(d1: float, cfg: NetworkConfig) -> float:
    """Probability the faded reference signal clears its SF's SNR threshold."""
    return _connection_probability(d1, cfg, ring_of(d1, cfg.layout))


def _connection_probability(d1: float, cfg: NetworkConfig, ring: int) -> float:
    return math.exp(-_snr_demand(d1, cfg, ring))


@functools.lru_cache(maxsize=1024)
def _ring_capture_kernel(
    d1: float, gamma_lin: float, eta: float, l_lo: float, l_hi: float
) -> float:
    """E over the ring distance density of d1^eta / (d1^eta + gamma D^eta).

    This is the probability that the Rayleigh-faded signal from d1 beats one
    interferer drawn from the ring by the factor gamma.  Closed form via the
    hypergeometric antiderivative of x/(1 + c x^eta); the test suite checks
    it against adaptive quadrature of the same integral.

    The kernel does not depend on the interferer intensity, so it is memoized:
    an alpha sweep or a ``plan`` bisection at one d1 evaluates it once per
    threshold instead of once per point.
    """
    b = 2.0 / eta
    d_eta = d1**eta
    hi_term = l_hi**2 * hyp2f1_1b(b, -gamma_lin * l_hi**eta / d_eta)
    lo_term = l_lo**2 * hyp2f1_1b(b, -gamma_lin * l_lo**eta / d_eta) if l_lo > 0 else 0.0
    return (hi_term - lo_term) / (l_hi**2 - l_lo**2)


def capture_probability(d1: float, cfg: NetworkConfig, alpha_i: float) -> float:
    """Probability the reference signal survives the ring's PPP interference.

    Laplace functional of the faded interference under the capture
    threshold: exp(-alpha * E[gamma d1^eta / (gamma d1^eta + D^eta)]), the
    expectation running over the ring distance density.
    """
    return _capture_probability(d1, cfg, alpha_i, ring_of(d1, cfg.layout))


def _capture_probability(d1: float, cfg: NetworkConfig, alpha_i: float, ring: int) -> float:
    if alpha_i < 0:
        raise ValueError(f"alpha_i must be nonnegative, got {alpha_i}")
    if alpha_i == 0.0:
        return 1.0
    l_lo, l_hi = cfg.layout.bounds(ring)
    gamma = cfg.radio.capture_threshold
    # Suppressing one interferer at D is winning the pairwise comparison at
    # threshold 1/gamma with the roles of the two nodes swapped.
    kernel = _ring_capture_kernel(d1, 1.0 / gamma, cfg.radio.path_loss_exp, l_lo, l_hi)
    return math.exp(-alpha_i * kernel)


def sic_capture_probability(d1: float, cfg: NetworkConfig, alpha_i: float) -> float:
    """Probability that exactly one interferer arrives and is itself capturable.

    The gateway can then decode the interferer, cancel it, and recover the
    reference signal; the Poisson cardinality contributes alpha*e^-alpha and
    the geometry the mean pairwise capture factor.
    """
    return _sic_capture_probability(d1, cfg, alpha_i, ring_of(d1, cfg.layout))


def _sic_capture_probability(
    d1: float, cfg: NetworkConfig, alpha_i: float, ring: int
) -> float:
    if alpha_i < 0:
        raise ValueError(f"alpha_i must be nonnegative, got {alpha_i}")
    if alpha_i == 0.0:
        return 0.0
    l_lo, l_hi = cfg.layout.bounds(ring)
    gamma = cfg.radio.capture_threshold
    kernel = _ring_capture_kernel(d1, gamma, cfg.radio.path_loss_exp, l_lo, l_hi)
    return alpha_i * math.exp(-alpha_i) * kernel


def coverage(d1: float, cfg: NetworkConfig, alpha_i: float | None = None) -> CoverageBreakdown:
    """Full probability breakdown at one operating point.

    ``alpha_i`` may be given explicitly; otherwise it is derived from the
    scenario's traffic model for the ring containing ``d1``.
    """
    ring = ring_of(d1, cfg.layout)
    if alpha_i is None:
        alpha_i = interferer_intensity(ring, cfg.traffic, cfg.layout)
    h1 = _connection_probability(d1, cfg, ring)
    q1 = _capture_probability(d1, cfg, alpha_i, ring)
    q2 = _sic_capture_probability(d1, cfg, alpha_i, ring)
    return CoverageBreakdown(
        h1=h1,
        q1=q1,
        q2=q2,
        c1=h1 * q1,
        c1_sic=h1 * (q1 + q2),
        alpha_i=alpha_i,
        ring=ring,
        d1=d1,
    )


def single_interferer_given_collision(alpha_i: float) -> float:
    """P[exactly one interferer | at least one], Poisson cardinality.

    alpha e^-alpha / (1 - e^-alpha); strictly decreasing, tends to 1 as
    alpha -> 0+ and to 0 as alpha grows.
    """
    if alpha_i <= 0:
        raise ValueError(
            f"alpha_i must be positive (the collision event has zero "
            f"probability otherwise), got {alpha_i}"
        )
    return alpha_i * math.exp(-alpha_i) / -math.expm1(-alpha_i)
