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
from typing import Protocol

import numpy as np

from .analytic import NetworkConfig, path_loss_gain
from .geometry import ring_of, sample_distance_in_ring
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


class UniformSource(Protocol):
    def random(self) -> float: ...


@dataclass(frozen=True)
class TrialDraw:
    """Raw randomness of one trial: interferer count, positions and fading.

    ``fading_powers`` holds the reference node's draw first, then one entry
    per interferer; ``gains`` are the corresponding received powers in mW.
    """

    k: int
    interferer_distances: tuple[float, ...]
    fading_powers: tuple[float, ...]
    gains: tuple[float, ...]


@dataclass(frozen=True)
class TrialOutcome:
    """Decoded flags of one trial."""

    connected: bool
    captured: bool
    sic_decoded: bool
    success_c1: bool
    success_c1_sic: bool


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
    if alpha < 0 or alpha > MAX_ALPHA:
        raise ValueError(f"alpha must lie in [0, {MAX_ALPHA}], got {alpha}")
    pmf = math.exp(-alpha)
    cdf = [pmf]
    k = 0
    while cdf[-1] < 1.0 - 1e-15 and k < 200:
        k += 1
        pmf *= alpha / k
        cdf.append(cdf[-1] + pmf)
    return np.asarray(cdf)


def _poisson_inverse(alpha: float, u: float) -> int:
    """Smallest k with CDF(k) >= u."""
    cdf = _poisson_cdf(alpha)
    return int(np.searchsorted(cdf, u, side="left"))


def _exponential(u: float) -> float:
    return -math.log1p(-u)


def draw_trial(
    d1: float, cfg: NetworkConfig, alpha_i: float, rng: UniformSource
) -> TrialDraw:
    """Draw the randomness of one reception; the caller owns the uniform source.

    Draw order: interferer count, reference fading, all interferer distances,
    all interferer fadings.  Poisson counts by CDF inversion, exponentials as
    -ln(1-u), distances by the ring's inverse CDF.
    """
    ring = ring_of(d1, cfg.layout)
    k = _poisson_inverse(alpha_i, rng.random())
    fadings = [_exponential(rng.random())]
    distances = [sample_distance_in_ring(ring, cfg.layout, rng.random()) for _ in range(k)]
    fadings += [_exponential(rng.random()) for _ in range(k)]

    tx_mw = cfg.radio.tx_power_mw
    gains = [tx_mw * fadings[0] * path_loss_gain(d1, cfg.radio)]
    gains += [
        tx_mw * h * path_loss_gain(d, cfg.radio)
        for h, d in zip(fadings[1:], distances)
    ]
    return TrialDraw(
        k=k,
        interferer_distances=tuple(distances),
        fading_powers=tuple(fadings),
        gains=tuple(gains),
    )


def run_trial(
    d1: float, cfg: NetworkConfig, alpha_i: float, rng: UniformSource
) -> TrialOutcome:
    """Simulate one reception and decode it.

    * connected  -- reference power above the ring's SNR threshold over noise
    * captured   -- reference power at least gamma times the interference sum
                    (vacuously true with no interferers)
    * sic_decoded -- exactly one interferer, it beats the reference by gamma,
                    and both signals individually sit above the noise demand
    """
    return score_trial(draw_trial(d1, cfg, alpha_i, rng), d1, cfg)


def score_trial(draw: TrialDraw, d1: float, cfg: NetworkConfig) -> TrialOutcome:
    ring = ring_of(d1, cfg.layout)
    gamma = cfg.radio.capture_threshold
    noise_demand = cfg.radio.noise_power_mw * db_to_linear(
        cfg.sf_for_ring(ring).snr_threshold_db
    )
    g1 = draw.gains[0]
    interference = sum(draw.gains[1:])
    connected = g1 >= noise_demand
    captured = draw.k == 0 or g1 >= gamma * interference
    sic_decoded = (
        draw.k == 1
        and draw.gains[1] >= gamma * g1
        and draw.gains[1] >= noise_demand
        and g1 >= noise_demand
    )
    return TrialOutcome(
        connected=connected,
        captured=captured,
        sic_decoded=sic_decoded,
        success_c1=connected and captured,
        success_c1_sic=connected and (captured or sic_decoded),
    )


def _chunk_counts(
    d1: float,
    cfg: NetworkConfig,
    alpha_i: float,
    cdf: np.ndarray,
    n: int,
    chunk_seed: int,
) -> np.ndarray:
    """Outcome counts over one chunk of n trials, fully vectorized.

    Draw order matches :func:`run_trial`: counts, reference fadings, all
    interferer distances, all interferer fadings.
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

    rng = np.random.Generator(np.random.PCG64(chunk_seed))
    k = np.searchsorted(cdf, rng.random(n), side="left")
    h1 = -np.log1p(-rng.random(n))
    total = int(k.sum())
    u_dist = rng.random(total)
    h_int = -np.log1p(-rng.random(total))

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
        return _chunk_counts(d1, cfg, alpha_i, cdf, size, derive_seed(seed, index))

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
