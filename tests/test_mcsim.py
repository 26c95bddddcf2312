import math

import numpy as np
import pytest

from lora_sic.analytic import coverage, default_config
from lora_sic.mcsim import (
    CHUNK_TRIALS,
    DEFAULT_SEED,
    _outcome_counts,
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


def _score(cfg, d1, k, u_fade, u_dist=(), u_int_fade=()):
    """Named outcome counts of hand-built trials."""
    counts = _outcome_counts(
        d1,
        cfg,
        np.asarray(k, dtype=np.intp),
        np.asarray(u_fade, dtype=float),
        np.asarray(u_dist, dtype=float),
        np.asarray(u_int_fade, dtype=float),
    )
    return dict(zip(_COUNT_NAMES, counts.tolist()))


def test_forced_interference_free_trial(cfg):
    # K=0 with unit fading close to the gateway clears every threshold.
    out = _score(cfg, 100.0, [0], [_u_exp(1.0)])
    assert out == dict(
        trials=1, connected=1, captured=1, success_c1=1, success_c1_sic=1,
        collisions=0, singles=0, overlap=0,
    )


def test_forced_interference_free_trial_captured_at_infinite_threshold():
    # With no interferer the SIR is unbounded, so capture holds at any
    # threshold; the comparison g1 >= gamma * 0 alone fails at gamma = inf.
    cfg = default_config(capture_threshold_db=math.inf)
    with np.errstate(invalid="ignore"):
        out = _score(cfg, 100.0, [0], [_u_exp(1.0)])
    assert out["captured"] == out["success_c1"] == 1


def test_forced_dominant_interferer_is_sic_decoded(cfg):
    # K=1, reference fading 1, interferer at the same radius (u=0.04 in the
    # 0-500 m ring) with 20x the fading power: not captured, but SIC decodes.
    out = _score(cfg, 100.0, [1], [_u_exp(1.0)], [0.04], [_u_exp(20.0)])
    assert out == dict(
        trials=1, connected=1, captured=0, success_c1=0, success_c1_sic=1,
        collisions=1, singles=1, overlap=0,
    )


def test_forced_two_interferers_never_sic_decoded(cfg):
    # K=2 regardless of how dominant either interferer is.
    out = _score(cfg, 100.0, [2], [_u_exp(1.0)], [0.04, 0.9], [_u_exp(30.0), _u_exp(30.0)])
    assert out == dict(
        trials=1, connected=1, captured=0, success_c1=0, success_c1_sic=0,
        collisions=1, singles=0, overlap=0,
    )


def test_outcome_counts_invariants_on_random_batch(cfg):
    rng = np.random.Generator(np.random.PCG64(11))
    n = 5000
    k = rng.poisson(1.5, n)
    total = int(k.sum())
    out = _score(cfg, 2700.0, k, rng.random(n), rng.random(total), rng.random(total))
    assert out["trials"] == n
    assert out["success_c1"] <= out["success_c1_sic"] <= out["connected"]
    assert out["success_c1"] <= out["captured"]
    assert out["captured"] >= int((k == 0).sum())
    assert out["collisions"] == int((k >= 1).sum())
    assert out["singles"] == int((k == 1).sum()) <= out["collisions"]
    assert out["overlap"] == 0  # capture and SIC are disjoint above 0 dB


# Counts behind estimate(2700 m, alpha, 2 * CHUNK_TRIALS + 5 trials), keyed by
# (gamma_db, alpha, seed): connected, captured, success_c1, success_c1_sic,
# collisions, singles.  They pin the chunk streams: any change to seeding,
# chunking, draw order or scoring moves them.
_RECORDED_COUNTS = {
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
    report = estimate(2700.0, default_config(capture_threshold_db=gamma_db), alpha, n, seed=seed)
    marginals = (report.connected, report.captured, report.success_c1, report.success_c1_sic)
    assert all(est.trials == n for est in marginals)
    singles = report.single_interferer_given_collision
    counts = [round(est.mean * n) for est in marginals]
    counts += [singles.trials, round(singles.mean * singles.trials)]
    assert tuple(counts) == _RECORDED_COUNTS[gamma_db, alpha, seed]


def test_zero_intensity_success_equals_connection(cfg):
    report = estimate(3000.0, cfg, 0.0, 20_000, seed=9)
    assert report.success_c1 == report.connected
    assert report.captured.mean == 1.0
    assert report.single_interferer_given_collision.trials == 0
    assert math.isnan(report.single_interferer_given_collision.mean)


def test_estimate_is_deterministic_across_worker_counts(cfg):
    lone = estimate(3000.0, cfg, 1.0, 3 * CHUNK_TRIALS + 17, seed=DEFAULT_SEED, workers=1)
    pooled = estimate(3000.0, cfg, 1.0, 3 * CHUNK_TRIALS + 17, seed=DEFAULT_SEED, workers=4)
    assert lone == pooled


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


def test_derive_seed_spreads_indices():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
