import math

import pytest

from lora_sic import analytic
from lora_sic.analytic import (
    coverage,
    default_config,
    single_interferer_given_collision,
)
from lora_sic.experiments import SweepSpec, capacity_table, find_alpha_for_target, sweep
from lora_sic.geometry import OutOfCoverageError, ring_of
from lora_sic.params import db_to_linear, default_sf_table
from lora_sic.specfun import hyp2f1_1b
from quadrature import q2_integral_quadrature

# Border operating point values, frozen from a 40-digit independent
# evaluation of the defining integrals (noise and path loss computed exactly).
BORDER_H1 = 0.9041341309352110
BORDER_Q1 = 0.5407497420521153
BORDER_Q2 = 0.1848069347712998
BORDER_H1Q2_6DB = 0.0808280028420661


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda cfg: ring_of(math.nan, cfg), "distance"),
        (lambda cfg: coverage(math.nan, cfg, 1.0), "distance"),
        (lambda cfg: coverage(3000.0, cfg, math.inf), "alpha_i"),
        (lambda cfg: coverage(3000.0, cfg, math.nan), "alpha_i"),
        (lambda cfg: coverage(3000.0, cfg, -math.inf), "alpha_i"),
        (lambda cfg: capacity_table([0.2, math.nan], default_sf_table()), "alphas"),
        (lambda cfg: default_config(gamma_db=math.nan), "gamma_db"),
        (lambda cfg: default_config(tx_power_dbm=math.inf), "tx_power_dbm"),
        (lambda cfg: default_config(nbar=math.nan), "nbar"),
        (lambda cfg: default_config(radius_m=math.inf), "radius_m"),
    ],
    ids=[
        "ring_of-nan", "coverage-d1-nan", "coverage-alpha-inf", "capture-alpha-nan",
        "sic-alpha-inf", "capacity-nan", "gamma-nan", "tx-inf", "nbar-nan", "radius-inf",
    ],
)
def test_non_finite_library_input_is_named(cfg, call, name):
    with pytest.raises(ValueError, match=f"^{name} must be (finite|a number)"):
        call(cfg)


def test_wavelength_anchor(cfg):
    assert cfg.wavelength_m == pytest.approx(0.3454, abs=1e-4)


def test_path_loss_gain_at_border(cfg):
    # demand = noise * SNR threshold / (tx power * path gain), ring 6 at SF12.
    q_lin = db_to_linear(default_sf_table()[5].snr_threshold_db)
    gain = 7.826114487474150e-15
    expected = cfg.noise_power_mw * q_lin / (cfg.tx_power_mw * gain)
    assert analytic._operating_point(3000.0, cfg).demand == pytest.approx(expected, rel=1e-12)


def test_path_loss_power_law_scaling(cfg):
    # Both points lie in ring 6, so the SNR threshold cancels from the ratio.
    ratio = analytic._operating_point(2800.0, cfg).demand / analytic._operating_point(2600.0, cfg).demand
    assert ratio == pytest.approx((2800.0 / 2600.0) ** 2.8, rel=1e-12)


def test_path_loss_rejects_nonpositive_distance(cfg):
    for d1 in (0.0, -1.0):
        with pytest.raises(ValueError, match="distance must be positive"):
            analytic._operating_point(d1, cfg)


def test_connection_probability_near_gateway_limit(cfg):
    assert coverage(1e-3, cfg, 1.0).h1 == pytest.approx(1.0, abs=1e-12)


def test_connection_probability_border_anchor(cfg):
    assert coverage(3000.0, cfg, 1.0).h1 == pytest.approx(BORDER_H1, rel=1e-10)


def test_connection_probability_noise_free_limit(cfg):
    loud = default_config(tx_power_dbm=200.0)
    assert coverage(3000.0, loud, 1.0).h1 == pytest.approx(1.0, abs=1e-9)


def test_connection_probability_out_of_coverage(cfg):
    with pytest.raises(OutOfCoverageError):
        coverage(3500.0, cfg, 1.0)


def test_capture_probability_no_interferers(cfg):
    assert coverage(3000.0, cfg, 0.0).q1 == 1.0


def test_capture_probability_border_anchor(cfg):
    assert coverage(3000.0, cfg, 1.0).q1 == pytest.approx(BORDER_Q1, rel=1e-10)


def test_capture_probability_threshold_free_limit(cfg):
    # Far below 0 dB, where coverage() refuses c1_sic > 1: read q1 alone.
    easy = analytic._operating_point(3000.0, default_config(gamma_db=-300.0))
    assert analytic._q1(easy, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_capture_probability_rejects_negative_intensity(cfg):
    with pytest.raises(ValueError, match="^alpha_i must be nonnegative"):
        coverage(3000.0, cfg, -0.1)


def test_sic_capture_probability_no_interferers(cfg):
    assert coverage(3000.0, cfg, 0.0).q2 == 0.0


def test_sic_capture_probability_border_anchor(cfg):
    assert coverage(3000.0, cfg, 1.0).q2 == pytest.approx(BORDER_Q2, rel=1e-10)


def test_sic_gain_anchor_at_one_db(cfg):
    b = coverage(3000.0, cfg, 1.0)
    assert b.h1 * b.q2 == pytest.approx(0.1670902574, abs=5e-9)


def test_sic_gain_at_six_db():
    # The honest six-decibel value; the capture threshold enters as 10^0.6.
    cfg6 = default_config(gamma_db=6.0)
    b = coverage(3000.0, cfg6, 1.0)
    assert b.h1 * b.q2 == pytest.approx(BORDER_H1Q2_6DB, rel=1e-9)


def test_coverage_zero_intensity_collapses_to_connection(cfg):
    b = coverage(3000.0, cfg, 0.0)
    assert b.q1 == 1.0 and b.q2 == 0.0
    assert b.c1 == b.h1 == b.c1_sic


def test_coverage_border_breakdown(cfg):
    b = coverage(3000.0, cfg, 1.0)
    assert b.c1 == pytest.approx(0.4889102981, abs=1e-9)
    assert b.c1_sic == pytest.approx(0.6560005554, abs=1e-9)
    assert b.c1 == pytest.approx(b.h1 * b.q1, rel=1e-15)
    assert b.c1_sic == pytest.approx(b.h1 * (b.q1 + b.q2), rel=1e-15)


@pytest.mark.parametrize(
    "alpha, expected",
    [(1.0, 0.5819767069), (2.0, 0.3130352855)],
)
def test_single_interferer_given_collision_values(alpha, expected):
    assert single_interferer_given_collision(alpha) == pytest.approx(expected, abs=1e-9)


def test_single_interferer_rare_event_limit():
    assert single_interferer_given_collision(1e-12) == pytest.approx(1.0, abs=1e-9)


def test_single_interferer_rejects_nonpositive():
    with pytest.raises(ValueError):
        single_interferer_given_collision(0.0)


def test_single_interferer_strictly_decreasing_and_bounded():
    alphas = [0.05 * k for k in range(1, 101)]
    values = [single_interferer_given_collision(a) for a in alphas]
    assert all(0.0 < v < 1.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


# --- grid properties -------------------------------------------------------

D1_GRID = {1: [50.0, 250.0, 500.0], 4: [1520.0, 1750.0, 2000.0], 6: [2520.0, 2750.0, 3000.0]}
ALPHA_GRID = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
GAMMA_LIN_GRID = [0.5, 1.0, 1.26, 2.0, 4.0, 10.0]


def _cfg_gamma(gamma_lin):
    return default_config(gamma_db=10.0 * math.log10(gamma_lin))


def _q1_q2(d1, cfg, alpha):
    """q1 and q2 from the closed forms themselves: the grid reaches below
    0 dB, where coverage() refuses the points at which c1_sic passes one."""
    op = analytic._operating_point(d1, cfg)
    return analytic._q1(op, alpha), analytic._q2(op, alpha)


def test_q1_nonincreasing_in_intensity(cfg):
    for d1s in D1_GRID.values():
        for d1 in d1s:
            values = [coverage(d1, cfg, a).q1 for a in ALPHA_GRID]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_q1_nonincreasing_in_threshold():
    for d1 in (500.0, 3000.0):
        values = [_q1_q2(d1, _cfg_gamma(g), 1.0)[0] for g in GAMMA_LIN_GRID]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_q1_nonincreasing_in_distance_within_ring(cfg):
    for gamma_lin in GAMMA_LIN_GRID:
        cfg_g = _cfg_gamma(gamma_lin)
        for d1s in D1_GRID.values():
            values = [_q1_q2(d1, cfg_g, 1.0)[0] for d1 in d1s]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_q2_nondecreasing_in_distance_within_ring(cfg):
    for gamma_lin in GAMMA_LIN_GRID:
        cfg_g = _cfg_gamma(gamma_lin)
        for d1s in D1_GRID.values():
            values = [_q1_q2(d1, cfg_g, 1.0)[1] for d1 in d1s]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_q2_factorizes_in_intensity(cfg):
    for d1 in (250.0, 1750.0, 3000.0):
        ratios = [
            coverage(d1, cfg, a).q2 / (a * math.exp(-a))
            for a in (0.3, 1.0, 2.5)
        ]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-12)


def test_capture_events_disjoint_at_and_above_zero_db(cfg):
    """q1 + q2 <= 1 whenever the capture threshold is at least 0 dB."""
    for gamma_lin in [g for g in GAMMA_LIN_GRID if g >= 1.0]:
        cfg_g = _cfg_gamma(gamma_lin)
        for d1s in D1_GRID.values():
            for d1 in d1s:
                for alpha in ALPHA_GRID:
                    q1, q2 = _q1_q2(d1, cfg_g, alpha)
                    assert q1 + q2 <= 1.0 + 1e-12


def test_capture_events_overlap_below_zero_db():
    """Sub-0 dB thresholds let both nodes capture at once: the closed forms
    then stop describing disjoint events and their sum can pass one."""
    cfg_g = _cfg_gamma(0.5)
    q1, q2 = _q1_q2(3000.0, cfg_g, 0.4)
    assert q1 + q2 > 1.0


def test_closed_forms_match_quadrature_on_grid(cfg):
    """Dual-route agreement of both capture factors everywhere on the grid."""
    eta = cfg.path_loss_exp
    for gamma_lin in GAMMA_LIN_GRID:
        cfg_g = _cfg_gamma(gamma_lin)
        for ring, d1s in D1_GRID.items():
            lo, hi = cfg.boundaries[ring - 1], cfg.boundaries[ring]
            for d1 in d1s:
                for alpha in (0.5, 1.0):
                    q1, q2 = _q1_q2(d1, cfg_g, alpha)
                    expected_q1 = math.exp(
                        -alpha * q2_integral_quadrature(d1, 1.0 / gamma_lin, eta, lo, hi)
                    )
                    assert q1 == pytest.approx(expected_q1, rel=1e-8)
                    expected_q2 = (
                        alpha
                        * math.exp(-alpha)
                        * q2_integral_quadrature(d1, gamma_lin, eta, lo, hi)
                    )
                    assert q2 == pytest.approx(expected_q2, rel=1e-8)


def test_alpha_sweep_evaluates_each_ring_kernel_once(cfg, monkeypatch):
    """The ring kernels do not depend on alpha, so a sweep over it reuses them."""
    calls = []

    def counting_hyp2f1(b, z):
        calls.append((b, z))
        return hyp2f1_1b(b, z)

    analytic._operating_point.cache_clear()
    monkeypatch.setattr(analytic, "hyp2f1_1b", counting_hyp2f1)
    rows = sweep(SweepSpec(variable="alpha", start=0.05, stop=5.0, step=0.05), cfg)
    assert len(rows) == 100
    # Two kernels (thresholds gamma and 1/gamma), two hypergeometric terms each.
    assert len(calls) <= 4


def test_ring_kernels_are_evaluated_once_per_operating_point(cfg, monkeypatch):
    """A new point evaluates both kernels; sweeps and plans at it read them."""
    calls = []

    def counting_kernel(*args):
        calls.append(args)
        return kernel(*args)

    kernel = analytic._ring_capture_kernel
    analytic._operating_point.cache_clear()
    monkeypatch.setattr(analytic, "_ring_capture_kernel", counting_kernel)
    op = analytic._operating_point(1851.923, cfg)
    assert [args[1] for args in calls] == [1.0 / cfg.gamma, cfg.gamma]
    assert (op.k1, op.k2) == tuple(kernel(*args) for args in calls)

    calls.clear()
    rows = sweep(SweepSpec(variable="alpha", start=0.05, stop=5.0, step=0.05, d1=3000.0), cfg)
    assert len(rows) == 100
    find_alpha_for_target(0.8, 3000.0, cfg, with_sic=False)
    find_alpha_for_target(0.8, 3000.0, cfg, with_sic=True)
    assert len(calls) == 2


# --- the operating-point memo ------------------------------------------------


@pytest.mark.parametrize("field", ["gamma_db", "tx_power_dbm"])
def test_equal_configs_built_apart_share_one_operating_point(field):
    """Equal configs hash alike, so the memo may serve one for the other:
    that is sound only if each, built fresh, gives the very same point
    (compared by repr, which tells 0.0 from -0.0)."""
    plus, minus = default_config(**{field: 0.0}), default_config(**{field: -0.0})
    assert plus is not minus and plus == minus and hash(plus) == hash(minus)
    for d1 in (250.0, 1700.0, 3000.0):
        fresh = [analytic._operating_point.__wrapped__(d1, c) for c in (plus, minus)]
        assert repr(fresh[0]) == repr(fresh[1])
        assert repr(analytic._operating_point(d1, minus)) == repr(fresh[1])
        assert analytic._operating_point(d1, plus) is analytic._operating_point(d1, minus)


@pytest.mark.parametrize(
    "d1, error",
    [
        (99999.0, OutOfCoverageError),
        (1e-300, ValueError),  # mean received power overflows
    ],
)
def test_operating_point_that_raises_is_not_cached(cfg, d1, error):
    before = analytic._operating_point.cache_info()
    for _ in range(2):
        with pytest.raises(error):
            analytic._operating_point(d1, cfg)
    after = analytic._operating_point.cache_info()
    # The second call recomputed (and raised again) rather than hit.
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)
