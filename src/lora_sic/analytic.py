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

from .geometry import ring_of
from .params import NetworkConfig, _record, db_to_linear, default_sf_table
from .specfun import hyp2f1_1b


def default_config(**values: float) -> NetworkConfig:
    """The suburban reference scenario (R=3000 m, six 500 m rings, 1% duty
    cycle, 1 dB capture threshold), with ``values`` overriding its fields."""
    return NetworkConfig(**values)


class CoverageBreakdown(_record("CoverageBreakdown", "h1 q1 q2 c1 c1_sic")):
    """The probability quintet at one operating point.

    ``c1 = h1*q1`` and ``c1_sic = h1*(q1+q2)`` under the standard
    independence approximations.  The capture/SIC split into disjoint events
    is valid for capture thresholds of at least 0 dB; below that q1+q2 may
    exceed one.
    """

    def _check(self) -> None:
        if self.c1_sic > 1.0:
            raise ValueError(
                f"c1_sic = h1(q1+q2) = {self.c1_sic} exceeds 1: below 0 dB capture "
                "and SIC are not disjoint events, so the closed form does not apply"
            )
        for name, value in zip(self._fields, self):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} is not a probability")


class _OperatingPoint(_record("_OperatingPoint", "d1 l_lo l_hi gamma eta demand k1 k2")):
    """The link budget at one reference distance, shared by both models.

    Powers are in units of the reference node's mean received power: the
    reference signal is its fading h ~ Exp(1), an interferer at D arrives
    with h_i (d1/D)^eta, and ``demand`` is the noise power times the ring's
    SNR threshold.  The node connects when h >= demand, so h1 = e^-demand.
    ``k1`` and ``k2`` are the alpha-independent ring kernels at thresholds
    1/gamma (capture) and gamma (SIC).  All fields are floats.
    """


@functools.lru_cache(maxsize=256)
def _operating_point(d1: float, cfg: NetworkConfig) -> _OperatingPoint:
    # Memoized, with both ring kernels: an alpha sweep, a plan and an MC
    # estimate each ask for one (d1, cfg) many times.  NetworkConfig is frozen
    # and hashes its nine fields, from which every derived field follows, so
    # equal configs give equal points; an error is raised again on every
    # call, never cached.
    # The cap covers the repeats within one command; it is not meant to keep
    # points from one command to the next.
    ring = ring_of(d1, cfg)
    q_lin = db_to_linear(default_sf_table()[ring - 1].snr_threshold_db)
    try:
        # Free-space-style power gain (wavelength / 4 pi d1)^eta; ring_of has
        # already refused d1 <= 0.
        gain = (cfg.wavelength_m / (4.0 * math.pi * d1)) ** cfg.path_loss_exp
        mean_rx_mw = cfg.tx_power_mw * gain
    except OverflowError:
        mean_rx_mw = math.inf
    if not 0.0 < mean_rx_mw < math.inf:
        raise ValueError(
            f"d1={d1} m puts the mean received power at {mean_rx_mw} mW, out of "
            "floating-point range for this tx_power_dbm and path_loss_exp"
        )
    demand = cfg.noise_power_mw * q_lin / mean_rx_mw
    l_lo, l_hi = cfg.boundaries[ring - 1], cfg.boundaries[ring]
    # Both kernels at every point, so a point either model refuses is refused
    # by every command, the simulator's included.
    k1 = _ring_capture_kernel(d1, 1.0 / cfg.gamma, cfg.path_loss_exp, l_lo, l_hi)
    k2 = _ring_capture_kernel(d1, cfg.gamma, cfg.path_loss_exp, l_lo, l_hi)
    return _OperatingPoint(d1, l_lo, l_hi, cfg.gamma, cfg.path_loss_exp, demand, k1, k2)


def _ring_capture_kernel(
    d1: float, gamma_lin: float, eta: float, l_lo: float, l_hi: float
) -> float:
    """E over the ring distance density of d1^eta / (d1^eta + gamma D^eta).

    This is the probability that one Rayleigh-faded interferer drawn from the
    ring beats the signal from d1 by the factor gamma.  Closed form via the
    hypergeometric antiderivative of x/(1 + c x^eta); the test suite checks
    it against adaptive quadrature of the same integral.

    The kernel does not depend on the interferer intensity, so
    :func:`_operating_point` evaluates it once per threshold and point.

    Powers of the ring edges and of d1 can leave floating-point range (an
    ``OverflowError``, or a ``math`` domain ``ValueError`` once the argument
    of ``hyp2f1_1b`` overflows); either is raised as one ``ValueError`` that
    names the config keys behind the inputs.
    """
    b = 2.0 / eta
    try:
        d_eta = d1**eta
        hi_term = l_hi**2 * hyp2f1_1b(b, -gamma_lin * l_hi**eta / d_eta)
        lo_term = l_lo**2 * hyp2f1_1b(b, -gamma_lin * l_lo**eta / d_eta)
        return (hi_term - lo_term) / (l_hi**2 - l_lo**2)
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(
            f"ring capture kernel out of floating-point range at d1={d1} m, "
            f"path_loss_exp={eta}, threshold {gamma_lin} (from gamma_db) and "
            f"ring {l_lo}-{l_hi} m (from radius_m)"
        ) from exc


def _q1(op: _OperatingPoint, alpha_i: float) -> float:
    # The Laplace functional of the faded PPP interference under the capture
    # threshold: exp(-alpha E[gamma d1^eta / (gamma d1^eta + D^eta)]).
    # Suppressing one interferer at D is winning the pairwise comparison at
    # threshold 1/gamma with the roles of the two nodes swapped.
    return math.exp(-alpha_i * op.k1) if alpha_i else 1.0


def _q2(op: _OperatingPoint, alpha_i: float) -> float:
    # Exactly one interferer (alpha e^-alpha) that is itself capturable, so
    # the gateway decodes and cancels it, then recovers the reference.
    return alpha_i * math.exp(-alpha_i) * op.k2 if alpha_i else 0.0


def coverage(d1: float, cfg: NetworkConfig, alpha_i: float) -> CoverageBreakdown:
    """Full probability breakdown at one operating point and intensity.

    :func:`lora_sic.experiments.resolve_intensity` derives ``alpha_i`` from
    the scenario's ``nbar`` and ``duty_cycle`` when no intensity is given.
    """
    op = _operating_point(d1, cfg)
    if not math.isfinite(alpha_i):
        raise ValueError(f"alpha_i must be finite, got {alpha_i}")
    if alpha_i < 0:
        raise ValueError(f"alpha_i must be nonnegative, got {alpha_i}")
    h1 = math.exp(-op.demand)
    q1 = _q1(op, alpha_i)
    q2 = _q2(op, alpha_i)
    return CoverageBreakdown(h1, q1, q2, h1 * q1, h1 * (q1 + q2))


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
