import math
import re
import sys
import threading

import numpy as np
import pytest

from lora_sic import experiments, mcsim
from lora_sic.analytic import _operating_point, coverage, default_config
from lora_sic.experiments import InfeasibleTargetError, find_alpha_for_target
from lora_sic.mcsim import (
    _BUCKETS,
    CHUNK_TRIALS,
    MAX_ALPHA,
    _chunk_counts,
    _collisions,
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
    k = np.asarray(k, dtype=np.intp)
    hit = np.flatnonzero(k)
    counts = _outcome_counts(
        op,
        hit,
        k[hit],
        np.asarray(u_fade, dtype=float),
        np.asarray(u_dist, dtype=float),
        np.asarray(u_int_fade, dtype=float),
        np.arange(len(hit)),
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


def _reference_outcome_counts(
    op,
    k,
    u_fade,
    u_dist,
    u_int_fade,
    index,
):
    """Score trials given their interferer counts and uniform variates.

    ``k`` and ``u_fade`` (reference fading) hold one entry per trial;
    ``u_dist`` and ``u_int_fade`` hold one entry per interferer, trial by
    trial, so their length is ``k.sum()``.  ``index`` is
    ``np.arange(len(k))``, passed in so that a caller scoring many chunks
    builds it once.  Fading powers are -ln(1-u).
    Powers are in units of the reference node's mean received power (see
    ``op``), so an interferer whose squared distance follows the ring's
    inverse CDF, D^2 = l_lo^2 + u (l_hi^2 - l_lo^2), arrives with power
    h_i (d1^2 / D^2)^(eta/2).

    The three variate arrays are overwritten with intermediate values.

    * connected  -- reference fading at least the noise demand
    * captured   -- reference fading at least gamma times the interference sum
                    (vacuously true with no interferers)
    * sic        -- exactly one interferer, it beats the reference by gamma,
                    and the reference sits above the noise demand

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
    # -log1p(-u) and (d1^2 / (lo^2 + u (hi^2 - lo^2)))^(eta/2) exactly.
    n = len(k)
    h = _reference_exp_fading(u_fade)
    h_int = _reference_exp_fading(u_int_fade)
    lo2 = op.l_lo * op.l_lo
    rel_gain = u_dist
    rel_gain *= op.l_hi * op.l_hi - lo2
    rel_gain += lo2
    with np.errstate(divide="ignore"):  # (d1 / D)^eta, infinite at D = 0
        np.divide(op.d1 * op.d1, rel_gain, out=rel_gain)
    rel_gain **= op.eta / 2
    weights = np.multiply(h_int, rel_gain, out=h_int)
    owner = np.repeat(index, k)
    interference = np.bincount(owner, weights=weights, minlength=n)

    connected = h >= op.demand
    captured = (k == 0) | (h >= op.gamma * interference)
    single = k == 1
    # With k == 1 the interference sum is exactly the lone interferer's power.
    sic = single & (interference >= op.gamma * h) & connected
    success_c1 = connected & captured
    success_sic = connected & (captured | sic)
    return np.array(
        [
            n,
            np.count_nonzero(connected),
            np.count_nonzero(captured),
            np.count_nonzero(success_c1),
            np.count_nonzero(success_sic),
            np.count_nonzero(k),
            np.count_nonzero(single),
            np.count_nonzero(sic & captured),
        ],
        dtype=np.int64,
    )


def _reference_exp_fading(u):
    """Unit-mean exponential fading powers -ln(1-u), computed in place."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def _reference_chunk_counts(op, table, n, chunk_seed, scratch):
    """Outcome counts over one chunk of n trials drawn from its own stream.

    Draw order: interferer counts (Poisson by CDF inversion), reference
    fadings, all interferer distances, all interferer fadings.
    """
    rng = np.random.Generator(np.random.PCG64(chunk_seed))
    u = scratch.trial[:n]
    k = _poisson_counts(table, rng.random(out=u), scratch.bucket[:n])
    u_fade = rng.random(out=u)
    u_dist, u_int_fade = scratch.interferers(int(k.sum()))
    rng.random(out=u_dist)
    rng.random(out=u_int_fade)
    return _reference_outcome_counts(op, k, u_fade, u_dist, u_int_fade, scratch.index[:n])


# The three functions above are the earlier chunk scorer, kept verbatim: it
# inverts and scores every trial and keeps fadings as -ln(1-u).  The scorer
# of collision trials alone must match it on all 8 counts.
@pytest.mark.parametrize("gamma_db", [-6.0, -3.0, 0.0, 1.0, 6.0, 10.0])
def test_chunk_counts_equal_the_full_layout_reference(gamma_db):
    cfg = default_config(gamma_db=gamma_db)
    ours, theirs = _Scratch(CHUNK_TRIALS), _Scratch(CHUNK_TRIALS)
    case = 0
    for d1 in (250.0, 750.0, 1250.0, 1750.0, 2250.0, 2750.0):  # one per ring
        op = _operating_point(d1, cfg)
        for alpha in (0.0, 1e-9, 0.25, 1.0, 6.5, MAX_ALPHA):
            table = _poisson_table(alpha)
            for n in (1, 7, CHUNK_TRIALS):
                seed = derive_seed(int(gamma_db * 10) + 2700, case)
                case += 1
                expected = _reference_chunk_counts(op, table, n, seed, theirs)
                got = _chunk_counts(op, table, n, seed, ours)
                assert got.tolist() == expected.tolist(), (d1, alpha, n)


def _forced_counts(op, alpha, u_count, u_fade, u_dist, u_int_fade):
    """Counts of hand-built trials from both scorers, which must agree."""
    table = _poisson_table(alpha)
    u_count = np.asarray(u_count, dtype=float)
    variates = [np.asarray(v, dtype=float) for v in (u_fade, u_dist, u_int_fade)]
    k = np.searchsorted(table[0], u_count, side="left")
    expected = _reference_outcome_counts(op, k, *(v.copy() for v in variates), np.arange(len(k)))
    hit, k_hit = _collisions(table, u_count, np.empty(len(u_count), dtype=np.intp))
    got = _outcome_counts(op, hit, k_hit, *variates, np.arange(len(hit)))
    assert got.tolist() == expected.tolist()
    return dict(zip(_COUNT_NAMES, got.tolist()))


@pytest.mark.parametrize("alpha", [1e-9, 0.25, 1.0, 6.5, MAX_ALPHA])
def test_count_uniform_at_the_zero_interferer_edge(cfg, alpha):
    # k = #{cdf < u} steps from 0 to 1 just above u = cdf[0] = e^-alpha: the
    # uniform itself and the double below it draw no interferer.
    cdf0 = _poisson_table(alpha)[0][0]
    u_count = [cdf0, np.nextafter(cdf0, 0.0), np.nextafter(cdf0, 1.0)]
    hit, k = _collisions(_poisson_table(alpha), np.array(u_count), np.empty(3, dtype=np.intp))
    assert hit.tolist() == [2] and k.tolist() == [1]
    # The lone interferer at the reference's radius with 20x its fading power.
    op = _operating_point(100.0, cfg)
    out = _forced_counts(op, alpha, u_count, [_u_exp(1.0)] * 3, [0.04], [_u_exp(20.0)])
    assert out == dict(
        trials=3, connected=3, captured=2, success_c1=2, success_c1_sic=3,
        collisions=1, singles=1, overlap=0,
    )


@pytest.mark.parametrize("gamma_db", [-3.0, 1.0])
def test_interferer_at_the_gateway_and_its_nan_weight(gamma_db):
    # In ring 1 the squared distance l_lo^2 + u (l_hi^2 - l_lo^2) is 0 at
    # u_dist = 0, so the interferer's gain is infinite; with fading u = 0 as
    # well, its weight is 0 * inf = NaN, which no comparison passes.
    op = _operating_point(250.0, default_config(gamma_db=gamma_db))
    assert op.l_lo == 0.0
    alpha = 1.0
    one, two = 0.5, 0.9  # count uniforms that draw 1 and 2 interferers
    assert np.searchsorted(_poisson_table(alpha)[0], [one, two]).tolist() == [1, 2]
    with np.errstate(invalid="ignore"):
        out = _forced_counts(
            op, alpha,
            [one, one, two, one, 0.0],
            [_u_exp(2.0)] * 5,
            [0.0, 0.0, 0.3, 0.0, 0.3],
            [_u_exp(1.0), 0.0, _u_exp(1.0), 0.0, 0.0],
        )
    # Trial 0 is SIC decoded against an infinite interferer.  Trial 1's lone
    # weight and trial 2's sum are NaN, so neither succeeds.  Trial 3's
    # interferer has zero fading and trial 4 has none, so both are captured.
    assert out == dict(
        trials=5, connected=5, captured=2, success_c1=2, success_c1_sic=3,
        collisions=4, singles=3, overlap=0,
    )


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
# intensity range (0 and MAX_ALPHA).  At -3 dB capture and SIC overlap (in
# 3217, 3199, 382 and 341 trials of these runs), which they never do above 0 dB.
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
    (-3.0, 0.5, 7): (30409, 27912, 26407, 28925, 12804, 9852),
    (-3.0, 0.5, 2024): (30346, 27900, 26385, 28963, 12877, 9946),
    (-3.0, 5.0, 7): (30409, 6620, 6591, 6889, 32532, 1176),
    (-3.0, 5.0, 2024): (30346, 6466, 6448, 6728, 32523, 1079),
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
    # Floats and bools are refused by name before range() or numpy sees them.
    for name, bad in [
        *(("n_trials", bad) for bad in (3000.0, 2e4, True, np.float64(100.0))),
        *(("seed", bad) for bad in (1.5, 42.0, True, False)),
    ]:
        message = re.escape(f"{name} must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate(3000.0, cfg, 1.0, **{"n_trials": 100, name: bad})


def test_estimate_takes_numpy_integers_as_their_values(cfg):
    report = estimate(3000.0, cfg, 1.0, 20000, seed=7)
    assert estimate(3000.0, cfg, 1.0, np.int64(20000), seed=7) == report
    assert estimate(3000.0, cfg, 1.0, 20000, seed=np.uint64(7)) == report


def test_plan_searches_no_further_than_the_simulator_reaches(cfg):
    # One bound for both: plan refuses a target still exceeded at MAX_ALPHA,
    # and every alpha* it can print up to that bound, the bound included, is
    # a load the Monte Carlo simulates.
    assert mcsim.MAX_ALPHA is experiments.MAX_ALPHA == 10.0
    assert not hasattr(experiments, "ALPHA_MAX")
    with pytest.raises(InfeasibleTargetError) as info:
        find_alpha_for_target(0.8, 10.0, cfg, with_sic=True)
    assert str(info.value) == "objective still exceeds 0.8 at alpha_max=10.0"
    assert estimate(3000.0, cfg, mcsim.MAX_ALPHA, 1000).captured.trials == 1000
    beyond = math.nextafter(mcsim.MAX_ALPHA, math.inf)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 10.0\], got 10.000000000000002$"):
        estimate(3000.0, cfg, beyond, 1000)


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
