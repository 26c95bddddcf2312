import math
import sys
import threading

import numpy as np
import pytest

from lora_sic import mcsim
from lora_sic.analytic import _operating_point, coverage, default_config
from lora_sic.mcsim import (
    _BUCKETS,
    CHUNK_TRIALS,
    _chunk_counts,
    _outcome_counts,
    _poisson_counts,
    _poisson_table,
    _Scratch,
    derive_seed,
    estimate,
)

_COUNT_NAMES = (
    "trials", "connected", "captured", "success_c1", "success_c1_sic",
    "collisions", "singles", "overlap",
)


def _u_exp(x):
    """Uniform that makes -ln(1-u) equal x."""
    return -math.expm1(-x)


def _score(op, k, u_fade, u_dist=(), u_int_fade=()):
    """Named outcome counts of hand-built trials at operating point ``op``."""
    counts = _outcome_counts(
        op,
        np.asarray(k, dtype=np.intp),
        np.asarray(u_fade, dtype=float),
        np.asarray(u_dist, dtype=float),
        np.asarray(u_int_fade, dtype=float),
        np.arange(len(k)),
    )
    return dict(zip(_COUNT_NAMES, counts.tolist()))


def test_forced_interference_free_trial(cfg):
    # K=0 with unit fading close to the gateway clears every threshold.
    out = _score(_operating_point(100.0, cfg), [0], [_u_exp(1.0)])
    assert out == dict(
        trials=1, connected=1, captured=1, success_c1=1, success_c1_sic=1,
        collisions=0, singles=0, overlap=0,
    )


def test_forced_interference_free_trial_captured_at_infinite_threshold(cfg):
    # With no interferer the SIR is unbounded, so capture holds at any
    # threshold; the comparison h >= gamma * 0 alone fails at gamma = inf.
    # NetworkConfig only takes finite thresholds, so gamma enters through op.
    op = _operating_point(100.0, cfg)._replace(gamma=math.inf)
    with np.errstate(invalid="ignore"):
        out = _score(op, [0], [_u_exp(1.0)])
    assert out["captured"] == out["success_c1"] == 1


def test_forced_dominant_interferer_is_sic_decoded(cfg):
    # K=1, reference fading 1, interferer at the same radius (u=0.04 in the
    # 0-500 m ring) with 20x the fading power: not captured, but SIC decodes.
    out = _score(_operating_point(100.0, cfg), [1], [_u_exp(1.0)], [0.04], [_u_exp(20.0)])
    assert out == dict(
        trials=1, connected=1, captured=0, success_c1=0, success_c1_sic=1,
        collisions=1, singles=1, overlap=0,
    )


def test_forced_two_interferers_never_sic_decoded(cfg):
    # K=2 regardless of how dominant either interferer is.
    op = _operating_point(100.0, cfg)
    out = _score(op, [2], [_u_exp(1.0)], [0.04, 0.9], [_u_exp(30.0), _u_exp(30.0)])
    assert out == dict(
        trials=1, connected=1, captured=0, success_c1=0, success_c1_sic=0,
        collisions=1, singles=0, overlap=0,
    )


def test_forced_faint_single_interferer_below_0db_is_captured_and_sic_decoded():
    # At -3 dB a lone interferer with 0.9x the noise demand, at the reference's
    # own radius, against a reference fading of 1.5x the demand: gamma * h
    # <= interference < demand <= h.  The reference is captured, and the SIC
    # clause holds too, since it leaves the interferer's own SNR unchecked:
    # whatever that check would exclude below 0 dB is captured anyway.
    op = _operating_point(100.0, default_config(gamma_db=-3.0))
    assert op.gamma < 1.0
    out = _score(op, [1], [_u_exp(1.5 * op.demand)], [0.04], [_u_exp(0.9 * op.demand)])
    assert out == dict(
        trials=1, connected=1, captured=1, success_c1=1, success_c1_sic=1,
        collisions=1, singles=1, overlap=1,
    )


def test_outcome_counts_invariants_on_random_batch(cfg):
    rng = np.random.Generator(np.random.PCG64(11))
    n = 5000
    k = rng.poisson(1.5, n)
    total = int(k.sum())
    op = _operating_point(2700.0, cfg)
    out = _score(op, k, rng.random(n), rng.random(total), rng.random(total))
    assert out["trials"] == n
    assert out["success_c1"] <= out["success_c1_sic"] <= out["connected"]
    assert out["success_c1"] <= out["captured"]
    assert out["captured"] >= int((k == 0).sum())
    assert out["collisions"] == int((k >= 1).sum())
    assert out["singles"] == int((k == 1).sum()) <= out["collisions"]
    assert out["overlap"] == 0  # capture and SIC are disjoint above 0 dB


@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.25, 0.5, 1.0, 5.0, 6.5, 8.0, 10.0])
def test_table_inversion_equals_binary_search(alpha):
    table = _poisson_table(alpha)
    assert _poisson_table(alpha) is table  # built once per intensity
    cdf = table[0]
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    u = np.concatenate([
        np.random.Generator(np.random.PCG64(31)).random(1 << 20),
        # Each CDF entry with its neighbours, where k steps.
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
        # Each bucket edge b/B and the double just below it.
        edges, np.nextafter(edges, 0.0),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]  # the generator's range
    k = _poisson_counts(table, u, np.empty(len(u), dtype=np.intp))
    np.testing.assert_array_equal(k, np.searchsorted(cdf, u, side="left"))


# Counts behind estimate(2700 m, alpha, 2 * CHUNK_TRIALS + 5 trials), keyed by
# (gamma_db, alpha, seed): connected, captured, success_c1, success_c1_sic,
# collisions, singles.  They pin the chunk streams: any change to seeding,
# chunking, draw order, Poisson inversion or scoring moves them.  At 1 dB
# they cover the bench loads (0.25, 1, 6.5, 8) and both ends of the
# intensity range (0 and MAX_ALPHA).
_RECORDED_COUNTS = {
    (1.0, 0.0, 7): (30409, 32773, 30409, 30409, 0, 0),
    (1.0, 0.0, 2024): (30346, 32773, 30346, 30346, 0, 0),
    (1.0, 0.25, 7): (30409, 28645, 26795, 29052, 7206, 6301),
    (1.0, 0.25, 2024): (30346, 28689, 26771, 29086, 7259, 6463),
    (1.0, 1.0, 7): (30409, 19191, 18298, 22534, 20524, 11929),
    (1.0, 1.0, 2024): (30346, 19140, 18243, 22555, 20657, 12000),
    (1.0, 6.5, 7): (30409, 1038, 1035, 1157, 32723, 351),
    (1.0, 6.5, 2024): (30346, 948, 945, 1072, 32709, 326),
    (1.0, 8.0, 7): (30409, 424, 424, 460, 32763, 96),
    (1.0, 8.0, 2024): (30346, 440, 439, 477, 32753, 105),
    (1.0, 10.0, 7): (30409, 153, 153, 157, 32772, 14),
    (1.0, 10.0, 2024): (30346, 140, 140, 151, 32771, 23),
    (1.0, 0.5, 7): (30409, 25036, 23564, 27122, 12804, 9852),
    (1.0, 0.5, 2024): (30346, 24963, 23482, 27098, 12877, 9946),
    (1.0, 5.0, 7): (30409, 2254, 2233, 2665, 32532, 1176),
    (1.0, 5.0, 2024): (30346, 2168, 2154, 2550, 32523, 1079),
    (6.0, 0.5, 7): (30409, 22155, 20703, 22000, 12804, 9852),
    (6.0, 0.5, 2024): (30346, 22152, 20684, 21962, 12877, 9946),
    (6.0, 5.0, 7): (30409, 707, 689, 837, 32532, 1176),
    (6.0, 5.0, 2024): (30346, 655, 643, 793, 32523, 1079),
}


@pytest.mark.parametrize("gamma_db, alpha, seed", sorted(_RECORDED_COUNTS))
def test_estimate_reproduces_recorded_counts(gamma_db, alpha, seed):
    n = 2 * CHUNK_TRIALS + 5
    report = estimate(2700.0, default_config(gamma_db=gamma_db), alpha, n, seed=seed)
    marginals = (report.connected, report.captured, report.success_c1, report.success_c1_sic)
    assert all(est.trials == n for est in marginals)
    singles = report.single_interferer_given_collision
    counts = [round(est.mean * n) for est in marginals]
    # With no collision the conditional mean is NaN and its count is 0.
    counts += [singles.trials, round(singles.mean * singles.trials) if singles.trials else 0]
    assert tuple(counts) == _RECORDED_COUNTS[gamma_db, alpha, seed]


def test_zero_intensity_success_equals_connection(cfg):
    report = estimate(3000.0, cfg, 0.0, 20_000, seed=9)
    assert report.success_c1 == report.connected
    assert report.captured.mean == 1.0
    assert report.single_interferer_given_collision.trials == 0
    assert math.isnan(report.single_interferer_given_collision.mean)


def test_estimate_varies_with_seed(cfg):
    a = estimate(3000.0, cfg, 1.0, 10_000, seed=1)
    b = estimate(3000.0, cfg, 1.0, 10_000, seed=2)
    assert a != b


def test_marginals_match_closed_forms(cfg):
    breakdown = coverage(2750.0, cfg, 0.8)
    report = estimate(2750.0, cfg, 0.8, 40_000, seed=13)
    assert abs(report.connected.mean - breakdown.h1) <= 4 * report.connected.ci95_halfwidth
    assert abs(report.captured.mean - breakdown.q1) <= 4 * report.captured.ci95_halfwidth


def test_ci_halfwidth_formula(cfg):
    report = estimate(3000.0, cfg, 1.0, 5_000, seed=21)
    est = report.captured
    expected = 1.96 * math.sqrt(est.mean * (1.0 - est.mean) / est.trials)
    assert est.ci95_halfwidth == pytest.approx(expected, rel=1e-12)


def test_estimate_rejects_bad_arguments(cfg):
    with pytest.raises(ValueError):
        estimate(3000.0, cfg, 1.0, 0)
    with pytest.raises(ValueError):
        estimate(3000.0, cfg, 11.0, 100)  # intensity beyond the inversion table
    with pytest.raises(ValueError):
        estimate(3000.0, cfg, -0.5, 100)
    with pytest.raises(ValueError):
        estimate(3000.0, cfg, math.nan, 100)
    with pytest.raises(ValueError, match="^distance must be a number"):
        estimate(math.nan, cfg, 1.0, 100)


def test_derive_seed_spreads_indices():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def _serial_counts(d1, cfg, alpha, n, seed):
    """Counts of every chunk in index order on one scratch: the reference fold."""
    op, table, scratch = _operating_point(d1, cfg), _poisson_table(alpha), _Scratch(CHUNK_TRIALS)
    total = np.zeros(8, dtype=np.int64)
    for index, start in enumerate(range(0, n, CHUNK_TRIALS)):
        size = min(CHUNK_TRIALS, n - start)
        total += _chunk_counts(op, table, size, derive_seed(seed, index), scratch)
    return total[:7].tolist()


def _report_counts(report):
    """[trials, connected, captured, success_c1, success_c1_sic, collisions, singles]."""
    n = report.connected.trials
    marginals = (report.connected, report.captured, report.success_c1, report.success_c1_sic)
    singles = report.single_interferer_given_collision
    return [n, *(round(est.mean * n) for est in marginals), singles.trials,
            round(singles.mean * singles.trials) if singles.trials else 0]


@pytest.mark.parametrize("seed", [5, 2**63 + 11])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0, 8.0, 10.0])
def test_thread_count_moves_no_count(cfg, monkeypatch, alpha, seed):
    # More threads than this machine has CPUs, and a short switch interval,
    # so the threads interleave often while they pull chunks.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n in (1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS + 17, 10**5):
            reprs = set()
            for threads in (1, 2, 3, 5):
                monkeypatch.setattr(mcsim, "_available_cpus", lambda threads=threads: threads)
                report = estimate(2700.0, cfg, alpha, n, seed=seed)
                reprs.add(repr(report))
            assert len(reprs) == 1, (n, reprs)
            assert _report_counts(report) == _serial_counts(2700.0, cfg, alpha, n, seed)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 3])
def test_chunk_seeds_are_derived_on_the_calling_thread(cfg, monkeypatch, threads):
    callers = []

    def recording_derive_seed(seed, index):
        callers.append(threading.get_ident())
        return derive_seed(seed, index)

    monkeypatch.setattr(mcsim, "derive_seed", recording_derive_seed)
    monkeypatch.setattr(mcsim, "_available_cpus", lambda: threads)
    n = 6 * CHUNK_TRIALS + 3
    estimate(3000.0, cfg, 1.0, n, seed=8)
    assert len(callers) == -(-n // CHUNK_TRIALS)
    assert set(callers) == {threading.get_ident()}


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_failing_chunk_fails_the_estimate_and_leaves_no_thread(cfg, monkeypatch, threads):
    calls = []
    lock = threading.Lock()

    def failing_chunk_counts(*args):
        with lock:
            calls.append(None)
            fifth = len(calls) == 5
        if fifth:
            raise RuntimeError("fifth chunk failed")
        return _chunk_counts(*args)

    monkeypatch.setattr(mcsim, "_chunk_counts", failing_chunk_counts)
    monkeypatch.setattr(mcsim, "_available_cpus", lambda: threads)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^fifth chunk failed$"):
        estimate(3000.0, cfg, 1.0, 200 * CHUNK_TRIALS, seed=3)
    assert threading.active_count() == before
    # The other threads stop soon after the failure instead of running the
    # rest of the 200 chunks.
    assert len(calls) < 50
