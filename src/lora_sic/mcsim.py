"""Monte Carlo ground truth for one uplink reception with PPP interferers.

Unlike the closed forms, a trial keeps every dependency between the events:
the same fading draw enters both the SNR and the SIR, and the SIC path
requires both colliding signals to sit above the sensitivity threshold.
Interference is snapshot-based: one vulnerability window is folded into the
ring intensity, so no packet timeline is simulated.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import NetworkConfig
from .geometry import ring_of
from .params import DEFAULT_SEED, db_to_linear

#: Trials per chunk; fixed so estimates are independent of worker count.
CHUNK_TRIALS = 1 << 14

#: Poisson inversion is tabulated only up to this intensity.
MAX_ALPHA = 10.0

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Mix a 64-bit stream index into a master seed (SplitMix64 finalizer)."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class McEstimate:
    """Proportion estimate with a normal-approximation 95% interval."""

    mean: float
    trials: int
    ci95_halfwidth: float


@dataclass(frozen=True)
class McReport:
    """Per-outcome estimates of one simulation run."""

    connected: McEstimate
    captured: McEstimate
    success_c1: McEstimate
    success_c1_sic: McEstimate
    single_interferer_given_collision: McEstimate


def _poisson_cdf(alpha: float) -> np.ndarray:
    """CDF table for inversion sampling, truncated at mass 1-1e-15."""
    if not 0.0 <= alpha <= MAX_ALPHA:
        raise ValueError(f"alpha must lie in [0, {MAX_ALPHA}], got {alpha}")
    pmf = math.exp(-alpha)
    cdf = [pmf]
    k = 0
    while cdf[-1] < 1.0 - 1e-15 and k < 200:
        k += 1
        pmf *= alpha / k
        cdf.append(cdf[-1] + pmf)
    return np.asarray(cdf)


def _outcome_counts(
    d1: float,
    cfg: NetworkConfig,
    k: np.ndarray,
    u_fade: np.ndarray,
    u_dist: np.ndarray,
    u_int_fade: np.ndarray,
) -> np.ndarray:
    """Score trials given their interferer counts and uniform variates.

    ``k`` and ``u_fade`` (reference fading) hold one entry per trial;
    ``u_dist`` and ``u_int_fade`` hold one entry per interferer, trial by
    trial, so their length is ``k.sum()``.  Fading powers are -ln(1-u),
    distances follow the ring's inverse CDF.

    * connected  -- reference power above the ring's SNR threshold over noise
    * captured   -- reference power at least gamma times the interference sum
                    (vacuously true with no interferers)
    * sic        -- exactly one interferer, it beats the reference by gamma,
                    and both signals individually sit above the noise demand

    Returns the counts [trials, connected, captured, success_c1,
    success_c1_sic, collisions, singles, captured-and-sic overlap].
    """
    ring = ring_of(d1, cfg.layout)
    l_lo, l_hi = cfg.layout.bounds(ring)
    gamma = cfg.radio.capture_threshold
    noise_demand = cfg.radio.noise_power_mw * db_to_linear(
        cfg.sf_for_ring(ring).snr_threshold_db
    )
    tx_mw = cfg.radio.tx_power_mw
    eta = cfg.radio.path_loss_exp
    coeff = cfg.radio.wavelength_m / (4.0 * math.pi)

    n = len(k)
    h1 = -np.log1p(-u_fade)
    h_int = -np.log1p(-u_int_fade)
    dist = np.sqrt(l_lo * l_lo + u_dist * (l_hi * l_hi - l_lo * l_lo))
    g1 = tx_mw * h1 * (coeff / d1) ** eta
    with np.errstate(divide="ignore"):
        g_int = tx_mw * h_int * (coeff / dist) ** eta
    owner = np.repeat(np.arange(n), k)
    interference = np.bincount(owner, weights=g_int, minlength=n)

    connected = g1 >= noise_demand
    captured = (k == 0) | (g1 >= gamma * interference)
    # With k == 1 the interference sum is exactly the lone interferer's gain.
    sic = (
        (k == 1)
        & (interference >= gamma * g1)
        & (interference >= noise_demand)
        & (g1 >= noise_demand)
    )
    success_c1 = connected & captured
    success_sic = connected & (captured | sic)
    return np.array(
        [
            n,
            int(connected.sum()),
            int(captured.sum()),
            int(success_c1.sum()),
            int(success_sic.sum()),
            int((k >= 1).sum()),
            int((k == 1).sum()),
            int((sic & captured).sum()),
        ],
        dtype=np.int64,
    )


def _chunk_counts(
    d1: float, cfg: NetworkConfig, cdf: np.ndarray, n: int, chunk_seed: int
) -> np.ndarray:
    """Outcome counts over one chunk of n trials drawn from its own stream.

    Draw order: interferer counts (Poisson by CDF inversion), reference
    fadings, all interferer distances, all interferer fadings.
    """
    rng = np.random.Generator(np.random.PCG64(chunk_seed))
    k = np.searchsorted(cdf, rng.random(n), side="left")
    u_fade = rng.random(n)
    total = int(k.sum())
    u_dist = rng.random(total)
    return _outcome_counts(d1, cfg, k, u_fade, u_dist, rng.random(total))


def _estimate_from(successes: int, trials: int) -> McEstimate:
    if trials == 0:
        return McEstimate(mean=math.nan, trials=0, ci95_halfwidth=math.nan)
    mean = successes / trials
    return McEstimate(
        mean=mean,
        trials=trials,
        ci95_halfwidth=1.96 * math.sqrt(mean * (1.0 - mean) / trials),
    )


def estimate(
    d1: float,
    cfg: NetworkConfig,
    alpha_i: float,
    n_trials: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> McReport:
    """Estimate all outcome proportions over ``n_trials`` receptions.

    Deterministic for a given seed regardless of ``workers``: trials are cut
    into fixed chunks of :data:`CHUNK_TRIALS`, each driven by its own stream
    keyed by ``derive_seed(seed, chunk_index)``, and integer counts are merged
    in chunk order.

    The single-interferer estimate conditions on collision trials, so its
    ``trials`` field is the collision count (NaN mean if none occurred).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    ring_of(d1, cfg.layout)  # validate coverage up front
    cdf = _poisson_cdf(alpha_i)

    sizes = [
        min(CHUNK_TRIALS, n_trials - start)
        for start in range(0, n_trials, CHUNK_TRIALS)
    ]

    def one(index_size: tuple[int, int]) -> np.ndarray:
        index, size = index_size
        return _chunk_counts(d1, cfg, cdf, size, derive_seed(seed, index))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, enumerate(sizes)))
    else:
        parts = [one(item) for item in enumerate(sizes)]
    counts = np.sum(parts, axis=0)

    n, connected, captured, c1, c1_sic, collisions, singles, overlap = (
        int(v) for v in counts
    )
    if overlap and cfg.radio.capture_threshold > 1.0:
        raise AssertionError(
            "captured and sic_decoded overlapped despite a capture threshold "
            "above 0 dB; the model guarantees these events are disjoint"
        )
    return McReport(
        connected=_estimate_from(connected, n),
        captured=_estimate_from(captured, n),
        success_c1=_estimate_from(c1, n),
        success_c1_sic=_estimate_from(c1_sic, n),
        single_interferer_given_collision=_estimate_from(singles, collisions),
    )
