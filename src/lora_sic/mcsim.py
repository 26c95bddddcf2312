"""Monte Carlo ground truth for one uplink reception with PPP interferers.

Unlike the closed forms, a trial keeps every dependency between the events:
the same fading draw enters both the SNR and the SIR, and the SIC path
requires both colliding signals to sit above the sensitivity threshold.
Interference is snapshot-based: one vulnerability window is folded into the
ring intensity, so no packet timeline is simulated.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .analytic import _operating_point, _OperatingPoint
from .params import DEFAULT_SEED, MAX_ALPHA, NetworkConfig, _integer, _record, _uint64

#: Trials per chunk; fixed so a seed always yields the same chunk streams.
CHUNK_TRIALS = 1 << 14

#: Most trials one estimate takes: 2^20 chunks, whose seed list alone holds
#: about 40 MB.  A larger count is refused before any seed is derived.
MAX_TRIALS = 1 << 34

#: Buckets of the Poisson inversion table.  A power of two, so that u * B is
#: exact and its integer part is the bucket that holds u.
_BUCKETS = 1 << 12

#: ``(cdf, k_lo, straddle)``; see :func:`_poisson_table`.
_PoissonTable = tuple[np.ndarray, np.ndarray, np.ndarray]

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Mix a 64-bit stream index into a master seed (SplitMix64 finalizer).

    Both are integers in [0, 2^64), Python or numpy; any other value,
    a bool or a float included, is refused, so no two seeds share a stream.
    """
    seed, index = _uint64("seed", seed), _uint64("index", index)
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class McEstimate(_record("McEstimate", "mean ci95_halfwidth trials")):
    """Proportion ``mean``, with the half-width of its normal-approximation 95%
    interval, over ``trials`` trials; ``mc`` prints the fields in this order."""


# A dataclass, not a record: cli._cmd_mc and perfbench/worker.py read its five
# estimates through vars(report).
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


@functools.lru_cache(maxsize=64)
def _poisson_table(alpha: float) -> _PoissonTable:
    """Bucketed inversion table (Chen and Asau's indexed search) for alpha.

    Returns read-only ``(cdf, k_lo, straddle)``.  Inversion maps u to
    k(u) = #{cdf < u}, i.e. ``searchsorted(cdf, u, side="left")``.  For u in
    bucket b, [b/B, (b+1)/B), k(u) lies between edges[b] and edges[b+1],
    with edges[b] = k(b/B), because k never decreases as u grows.  So
    ``k_lo[b] = edges[b]`` is exact wherever the two agree, and only the
    buckets that ``straddle`` a CDF entry, at most ``len(cdf)`` of them, need
    the binary search.
    """
    cdf = _poisson_cdf(alpha)
    edges = np.searchsorted(cdf, np.arange(_BUCKETS + 1) / _BUCKETS, side="left")
    k_lo = edges[:-1]
    straddle = k_lo != edges[1:]
    for table in (cdf, k_lo, straddle):
        table.flags.writeable = False
    return cdf, k_lo, straddle


def _poisson_counts(table: _PoissonTable, u: np.ndarray, bucket: np.ndarray) -> np.ndarray:
    """Poisson variates by inverting ``table`` at uniforms u in [0, 1).

    Equal to ``np.searchsorted(cdf, u, side="left")`` element for element.
    ``bucket`` is an intp buffer of u's length that is overwritten.
    """
    cdf, k_lo, straddle = table
    # Float-to-int casting truncates, and u * B is exact, so this is floor(u B).
    np.multiply(u, _BUCKETS, out=bucket, casting="unsafe")
    k = k_lo.take(bucket)
    fix = np.flatnonzero(straddle.take(bucket))
    k[fix] = np.searchsorted(cdf, u[fix], side="left")
    return k


def _collisions(
    table: _PoissonTable, u: np.ndarray, bucket: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the trials that draw an interferer, and their Poisson counts.

    u holds one count uniform per trial.  Inversion gives k(u) = #{cdf < u},
    so k is 0 exactly where u <= cdf[0], and only the other trials are
    inverted.  ``bucket`` is an intp buffer at least as long as u.
    """
    hit = np.flatnonzero(u > table[0][0])
    return hit, _poisson_counts(table, u.take(hit), bucket[: len(hit)])


def _outcome_counts(
    op: _OperatingPoint,
    hit: np.ndarray,
    k: np.ndarray,
    u_fade: np.ndarray,
    u_dist: np.ndarray,
    u_int_fade: np.ndarray,
    index: np.ndarray,
) -> np.ndarray:
    """Score trials given their collisions and uniform variates.

    ``u_fade`` (reference fading) holds one entry per trial.  ``hit`` lists
    the collision trials, the ones with at least one interferer, in
    increasing order, and ``k`` their interferer counts; ``u_dist`` and
    ``u_int_fade`` hold one entry per interferer, trial by trial, so their
    length is ``k.sum()``.  ``index`` is ``np.arange(len(k))``, passed in so
    that a caller scoring many chunks builds it once.  Fading powers are
    h = -ln(1-u), but they are kept as L = ln(1-u) = -h, and the interference
    sum as S = -I, so every comparison is mirrored: h >= demand becomes
    L <= -demand, h >= gamma I becomes L <= gamma S, and I >= gamma h becomes
    S <= gamma L, each with the same truth value, because IEEE rounding is
    symmetric in sign, so each product and sum of negated operands is
    exactly the negation of the unnegated one.
    Powers are in units of the reference node's mean received power (see
    ``op``), so an interferer whose squared distance follows the ring's
    inverse CDF, D^2 = l_lo^2 + u (l_hi^2 - l_lo^2), arrives with power
    h_i (d1^2 / D^2)^(eta/2).

    The three variate arrays are overwritten with intermediate values.

    * connected  -- reference fading at least the noise demand
    * captured   -- reference fading at least gamma times the interference sum
                    (true with no interferers, whose SIR is unbounded)
    * sic        -- exactly one interferer, it beats the reference by gamma,
                    and the reference sits above the noise demand

    Only ``connected`` is evaluated on every trial.  The other outcomes are
    evaluated on the collision trials alone; a trial without an interferer
    is captured, never SIC decoded, and succeeds exactly when it connects,
    so its share of each count follows from the totals.

    The SIC path needs the interferer above the noise demand too, but no
    clause checks it: for gamma >= 1 it follows from ``connected`` and
    interference >= gamma * h, and for gamma < 1 a trial it would exclude
    has gamma * interference < demand <= h, so it is captured anyway.
    ``success_c1_sic`` is therefore the same either way; only the overlap
    count, which no report shows, includes such trials below 0 dB.

    Returns the counts [trials, connected, captured, success_c1,
    success_c1_sic, collisions, singles, captured-and-sic overlap].
    """
    # The variates are transformed in place, so no float temporary per
    # interferer is allocated; the arithmetic matches the out-of-place
    # log1p(-u) and (d1^2 / (lo^2 + u (hi^2 - lo^2)))^(eta/2) exactly.
    n, m = len(u_fade), len(hit)
    log_h = _log_survival(u_fade)
    log_h_int = _log_survival(u_int_fade)
    lo2 = op.l_lo * op.l_lo
    rel_gain = u_dist
    rel_gain *= op.l_hi * op.l_hi - lo2
    rel_gain += lo2
    with np.errstate(divide="ignore"):  # (d1 / D)^eta, infinite at D = 0
        np.divide(op.d1 * op.d1, rel_gain, out=rel_gain)
    rel_gain **= op.eta / 2
    weights = np.multiply(log_h_int, rel_gain, out=log_h_int)
    owner = np.repeat(index, k)
    neg_interference = np.bincount(owner, weights=weights, minlength=m)

    connected = np.count_nonzero(log_h <= -op.demand)
    log_h = log_h.take(hit)  # from here on, collision trials only
    connected_hit = log_h <= -op.demand
    captured = log_h <= op.gamma * neg_interference
    single = k == 1
    # With k == 1 the interference sum is exactly the lone interferer's power.
    sic = single & (neg_interference <= op.gamma * log_h) & connected_hit
    # A trial without an interferer is captured, and succeeds if it connects.
    free_connected = connected - np.count_nonzero(connected_hit)
    success_c1 = connected_hit & captured
    success_sic = connected_hit & (captured | sic)
    return np.array(
        [
            n,
            connected,
            n - m + np.count_nonzero(captured),
            free_connected + np.count_nonzero(success_c1),
            free_connected + np.count_nonzero(success_sic),
            m,
            np.count_nonzero(single),
            np.count_nonzero(sic & captured),
        ],
        dtype=np.int64,
    )


def _log_survival(u: np.ndarray) -> np.ndarray:
    """Negated unit-mean exponential fading powers ln(1-u), computed in place."""
    np.negative(u, out=u)
    return np.log1p(u, out=u)


class _Scratch:
    """Buffers that one thread's chunks of an estimate draw their variates into.

    Fresh per-chunk arrays of a megabyte or more would let the allocator
    return memory to the kernel and fault it back in chunk after chunk, at
    a cost that depends on the process's allocation history.
    """

    __slots__ = ("trial", "bucket", "index", "variates")

    def __init__(self, n: int) -> None:
        self.trial = np.empty(n)
        self.bucket = np.empty(n, dtype=np.intp)
        self.index = np.arange(n)
        self.variates = np.empty((2, 0))

    def interferers(self, total: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of length ``total`` for the distance and fading variates."""
        if total > self.variates.shape[1]:
            # Headroom of 1/8 covers the chunk-to-chunk spread of total
            # (standard deviation sqrt(total)) once the first chunk has sized it.
            self.variates = np.empty((2, total + total // 8 + 1024))
        return self.variates[0, :total], self.variates[1, :total]


def _chunk_counts(
    op: _OperatingPoint, table: _PoissonTable, n: int, chunk_seed: int, scratch: _Scratch
) -> np.ndarray:
    """Outcome counts over one chunk of n trials drawn from its own stream.

    Draw order: one count uniform per trial, one reference fading per trial,
    then all interferer distances and all interferer fadings.  Only the
    collision trials, whose count uniform exceeds the table's P(K = 0), are
    inverted to Poisson counts and scored against their interferers.
    """
    rng = np.random.Generator(np.random.PCG64(chunk_seed))
    u = scratch.trial[:n]
    hit, k = _collisions(table, rng.random(out=u), scratch.bucket)
    u_fade = rng.random(out=u)
    u_dist, u_int_fade = scratch.interferers(int(k.sum()))
    rng.random(out=u_dist)
    rng.random(out=u_int_fade)
    return _outcome_counts(op, hit, k, u_fade, u_dist, u_int_fade, scratch.index[: len(hit)])


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _count_chunks(
    op: _OperatingPoint,
    table: _PoissonTable,
    n_trials: int,
    seeds: list[int],
    pending: deque[int],
) -> np.ndarray:
    """Summed counts of the chunks this thread pulls from ``pending``.

    Threads share ``pending`` (``popleft`` is thread-safe), so a thread that
    runs slowly takes fewer chunks.  Each thread draws into buffers of its own.
    """
    scratch = _Scratch(min(CHUNK_TRIALS, n_trials))
    counts = np.zeros(8, dtype=np.int64)
    while True:
        try:
            index = pending.popleft()
        except IndexError:
            return counts
        size = min(CHUNK_TRIALS, n_trials - index * CHUNK_TRIALS)
        counts += _chunk_counts(op, table, size, seeds[index], scratch)


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
) -> McReport:
    """Estimate all outcome proportions over ``n_trials`` receptions.

    Deterministic for a given seed: trials are cut into fixed chunks of
    :data:`CHUNK_TRIALS`, each driven by its own stream keyed by
    ``derive_seed(seed, chunk_index)``.  The chunks run on one thread per
    CPU available to the process, and their integer counts are summed, so
    the result is the same for any thread count and schedule.

    The single-interferer estimate conditions on collision trials, so its
    ``trials`` field is the collision count (NaN mean if none occurred).
    ``n_trials`` must lie in [1, :data:`MAX_TRIALS`] and ``seed`` in
    [0, 2^64); both are integers, and a bool or a float is refused.
    """
    n_trials, seed = _integer("n_trials", n_trials), _uint64("seed", seed)
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    if n_trials > MAX_TRIALS:
        raise ValueError(f"n_trials must be at most {MAX_TRIALS}, got {n_trials}")
    op = _operating_point(d1, cfg)  # validates coverage up front
    table = _poisson_table(alpha_i)
    # Seeds are derived here, not in the workers, so that every call of the
    # public derive_seed happens on the caller's thread, where span recorders
    # that wrap public functions keep their stack.
    seeds = [derive_seed(seed, index) for index in range(-(-n_trials // CHUNK_TRIALS))]
    pending = deque(range(len(seeds)))
    work = (op, table, n_trials, seeds, pending)
    threads = min(len(seeds), _available_cpus())
    # One thread runs here, not in a pool: for one chunk (any --mc-trials point under
    # 2^14) a pool took 267 us, not 94, at 1,000 trials, and 882, not 623, at 10,000 (2-vCPU Xeon).
    if threads == 1:
        counts = _count_chunks(*work)
    else:
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(_count_chunks, *work) for _ in range(threads)]
            try:
                wait(futures, return_when=FIRST_EXCEPTION)
            finally:
                # After an error or an interrupt, the other threads stop at
                # their current chunk instead of running the rest.
                pending.clear()
            counts = sum(future.result() for future in futures)

    n, connected, captured, c1, c1_sic, collisions, singles, overlap = (
        int(v) for v in counts
    )
    if overlap and op.gamma > 1.0:
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
