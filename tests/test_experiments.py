import math

import pytest

from lora_sic import analytic
from lora_sic.analytic import coverage, default_config
from lora_sic.experiments import (
    MAX_SWEEP_POINTS,
    InfeasibleTargetError,
    SweepSpec,
    capacity_table,
    find_alpha_for_target,
    resolve_intensity,
    sweep,
)
from lora_sic.geometry import OutOfCoverageError, nodes_from_alpha
from lora_sic.params import default_sf_table

SF_TABLE = default_sf_table()

# 500 mean nodes at 1% duty cycle put intensity 2*0.01*rho*V6 on the outer ring.
BORDER_ALPHA_500 = 500.0 * 2 * 0.01 * (3000.0**2 - 2500.0**2) / 3000.0**2


def test_capacity_table_low_load_row_matches_published_counts():
    row = capacity_table([0.20], SF_TABLE)[0]
    assert row.nodes == (2183, 1247, 623, 363, 182, 91)
    assert row.total == 4689


def test_capacity_table_is_rounded_intensity_inversion():
    for row in capacity_table([0.20, 0.52, 1.0], SF_TABLE):
        assert row.nodes == tuple(
            nodes_from_alpha(row.alpha, sf.duty_cycle) for sf in SF_TABLE
        )
        assert row.total == sum(row.nodes)


def test_capacity_table_rejects_nonpositive_intensity():
    with pytest.raises(ValueError):
        capacity_table([0.2, 0.0], SF_TABLE)


def test_find_alpha_without_sic(cfg):
    alpha = find_alpha_for_target(0.8, 3000.0, cfg, with_sic=False)
    assert alpha == pytest.approx(0.19903, abs=2e-4)
    assert coverage(3000.0, cfg, alpha).c1 == pytest.approx(0.8, abs=1e-4)


def test_find_alpha_with_sic(cfg):
    alpha = find_alpha_for_target(0.8, 3000.0, cfg, with_sic=True)
    assert alpha == pytest.approx(0.50958, abs=2e-4)
    assert coverage(3000.0, cfg, alpha).c1_sic == pytest.approx(0.8, abs=1e-4)


@pytest.mark.parametrize("with_sic", [False, True])
@pytest.mark.parametrize("gamma_db", [-6.0, 0.0, 1.0, 6.0])
def test_find_alpha_meets_target_to_double_precision(gamma_db, with_sic):
    cfg_g = default_config(gamma_db=gamma_db)
    for d1 in (250.0, 750.0, 1250.0, 1750.0, 2250.0, 2750.0):  # one per ring
        for target in (0.3, 0.6, 0.85):
            alpha = find_alpha_for_target(target, d1, cfg_g, with_sic=with_sic)
            assert alpha > 0.0
            if with_sic:
                reached = coverage(d1, cfg_g, alpha).c1_sic
            elif gamma_db >= 0.0:
                reached = coverage(d1, cfg_g, alpha).c1
            else:
                # Below 0 dB, c1_sic = h1 (q1 + q2) can pass one there, which
                # coverage() refuses; c1 is the same product h1 q1.
                op = analytic._operating_point(d1, cfg_g)
                reached = math.exp(-op.demand) * analytic._q1(op, alpha)
            assert reached == pytest.approx(target, rel=1e-12, abs=0.0)


def test_find_alpha_answers_when_sic_coverage_first_rises():
    # Below 0 dB one interferer is decodable more often than it is
    # suppressed (K2 > K1), so c1_sic rises from h1 before it falls.
    # There c1_sic can even pass one (the q1 + q2 > 1 caveat), so it is
    # assembled from the closed forms instead of read off coverage().
    cfg_g = default_config(gamma_db=-6.0)
    op = analytic._operating_point(3000.0, cfg_g)

    def c1_sic(alpha):
        return math.exp(-op.demand) * (analytic._q1(op, alpha) + analytic._q2(op, alpha))

    assert c1_sic(0.5) > c1_sic(0.0)
    alpha = find_alpha_for_target(0.8, 3000.0, cfg_g, with_sic=True)
    assert alpha > 1.0
    assert coverage(3000.0, cfg_g, alpha).c1_sic == pytest.approx(0.8, rel=1e-12, abs=0.0)


def test_find_alpha_beyond_alpha_max(cfg):
    # Next to the gateway the ring kernel is so small that coverage still
    # exceeds 0.8 at the largest intensity searched.
    with pytest.raises(InfeasibleTargetError) as info:
        find_alpha_for_target(0.8, 10.0, cfg, with_sic=False)
    assert str(info.value) == "objective still exceeds 0.8 at alpha_max=10.0"


def test_find_alpha_infeasible_target(cfg):
    # The zero-load ceiling at the border is the connection probability, ~0.904.
    with pytest.raises(InfeasibleTargetError):
        find_alpha_for_target(0.95, 3000.0, cfg, with_sic=False)


def test_find_alpha_boundary_target_is_zero_load(cfg):
    ceiling = coverage(3000.0, cfg, 0.0).h1
    assert find_alpha_for_target(ceiling, 3000.0, cfg, with_sic=True) == 0.0


def test_find_alpha_rejects_bad_target(cfg):
    with pytest.raises(ValueError):
        find_alpha_for_target(0.0, 3000.0, cfg, with_sic=False)
    with pytest.raises(ValueError):
        find_alpha_for_target(1.0, 3000.0, cfg, with_sic=False)


def test_sweep_single_point_equals_coverage(cfg):
    spec = SweepSpec(variable="d1", start=3000.0, stop=3000.0, step=1.0, alpha=1.0)
    [row] = sweep(spec, cfg)
    assert row.x == 3000.0
    assert row.point == coverage(3000.0, cfg, 1.0)
    assert row.mc is None


def test_sweep_grid_includes_endpoint(cfg):
    spec = SweepSpec(variable="alpha", start=0.0, stop=1.0, step=0.05, d1=3000.0)
    xs = [row.x for row in sweep(spec, cfg)]
    assert len(xs) == 21
    assert xs[0] == 0.0
    assert xs[-1] == 1.0


def test_sweep_sic_gain_grows_with_load(cfg):
    spec = SweepSpec(variable="alpha", start=0.0, stop=1.0, step=0.1, d1=3000.0)
    gains = [row.point.c1_sic - row.point.c1 for row in sweep(spec, cfg)]
    assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))


def test_sweep_gamma_anchors(cfg):
    spec = SweepSpec(variable="gamma_db", start=1.0, stop=6.0, step=5.0, d1=3000.0, alpha=1.0)
    rows = sweep(spec, cfg)
    assert rows[0].point.h1 * rows[0].point.q2 == pytest.approx(0.1670902574, abs=1e-9)
    assert rows[1].point.h1 * rows[1].point.q2 == pytest.approx(0.0808280028, abs=1e-9)


def test_sweep_probabilities_stay_in_unit_interval(cfg):
    specs = [
        SweepSpec(variable="d1", start=100.0, stop=3000.0, step=100.0, alpha=1.0),
        SweepSpec(variable="alpha", start=0.0, stop=2.0, step=0.1, d1=3000.0),
        SweepSpec(variable="gamma_db", start=0.0, stop=10.0, step=0.5, d1=3000.0, alpha=1.0),
        SweepSpec(variable="d1", start=100.0, stop=3000.0, step=100.0, nbar=1000.0),
    ]
    for spec in specs:
        for row in sweep(spec, cfg):
            for name in ("h1", "q1", "q2", "c1", "c1_sic"):
                value = getattr(row.point, name)
                assert 0.0 <= value <= 1.0, f"{name}={value} at x={row.x}"


def test_sweep_nbar_matches_explicit_intensity(cfg):
    spec = SweepSpec(variable="d1", start=3000.0, stop=3000.0, step=1.0, nbar=500.0)
    point = sweep(spec, cfg)[0].point
    explicit = coverage(3000.0, cfg, BORDER_ALPHA_500)
    assert point.c1 == pytest.approx(explicit.c1, rel=1e-12)
    assert point.c1 == pytest.approx(0.1381618975, abs=1e-9)
    assert point.c1_sic == pytest.approx(0.2035238290, abs=1e-9)


@pytest.mark.parametrize(
    "scenario_nbar, alpha, nbar, expected",
    [
        (500.0, 0.25, None, 0.25),  # 1. an explicit alpha beats both traffic sources
        (500.0, 0.0, None, 0.0),
        (500.0, None, 0.0, 0.0),  # 2. an explicit nbar, 0 included, beats the scenario's
        (0.0, None, 500.0, BORDER_ALPHA_500),
        (500.0, None, None, BORDER_ALPHA_500),  # 3. the scenario's own nbar
        (0.0, None, None, 1.0),  # 4. otherwise unit intensity
    ],
)
def test_resolve_intensity_rule(scenario_nbar, alpha, nbar, expected):
    cfg = default_config(nbar=scenario_nbar)
    assert resolve_intensity(cfg, 3000.0, alpha, nbar) == pytest.approx(expected, rel=1e-12)


def test_resolve_intensity_uses_traffic_when_intensity_omitted():
    cfg500 = default_config(nbar=500.0)
    alpha = resolve_intensity(cfg500, 3000.0)
    assert alpha == pytest.approx(3.0555555556, rel=1e-9)
    b = coverage(3000.0, cfg500, alpha)
    assert b.c1 == pytest.approx(0.1381618975, abs=1e-9)
    assert b.c1_sic == pytest.approx(0.2035238290, abs=1e-9)
    # One duty cycle for every node: doubling it doubles every ring's intensity.
    cfg_busy = default_config(nbar=500.0, duty_cycle=0.02)
    for d1 in (250.0, 1750.0, 3000.0):
        assert resolve_intensity(cfg_busy, d1) == pytest.approx(
            2.0 * resolve_intensity(cfg500, d1), rel=1e-12
        )


@pytest.mark.parametrize("scenario_nbar", [0.0, 500.0])
def test_unpinned_sweep_resolves_intensity_like_the_rule(scenario_nbar):
    cfg = default_config(nbar=scenario_nbar)
    spec = SweepSpec(variable="d1", start=500.0, stop=3000.0, step=500.0)
    for row in sweep(spec, cfg):
        assert row.point == coverage(row.x, cfg, resolve_intensity(cfg, row.x))


def test_sweep_with_mc_columns_is_deterministic(cfg):
    spec = SweepSpec(
        variable="alpha", start=0.5, stop=1.0, step=0.5, d1=3000.0, mc_trials=2000, seed=5
    )
    first = sweep(spec, cfg)
    second = sweep(spec, cfg)
    assert first == second
    for row in first:
        est = row.mc.success_c1
        assert abs(est.mean - row.point.c1) < 10 * est.ci95_halfwidth + 0.02


def test_sweep_spec_validation():
    for variable in ("bogus", "nbar"):
        with pytest.raises(ValueError, match="^variable must be one of"):
            SweepSpec(variable=variable, start=0.0, stop=1.0, step=0.1)
    with pytest.raises(ValueError):
        SweepSpec(variable="alpha", start=0.0, stop=1.0, step=0.0)
    with pytest.raises(ValueError):
        SweepSpec(variable="alpha", start=1.0, stop=0.0, step=0.1)
    with pytest.raises(ValueError):
        SweepSpec(variable="d1", start=0.0, stop=1.0, step=0.1, alpha=1.0, nbar=10.0)


@pytest.mark.parametrize("field", ["start", "stop", "step", "d1", "alpha", "nbar"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sweep_spec_rejects_non_finite_fields(field, value):
    fields = dict(variable="d1", start=100.0, stop=3000.0, step=100.0, alpha=None)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SweepSpec(**fields)


def test_sweep_spec_caps_the_grid_before_building_it():
    # Only the constructor runs here: grid() on the refused specs would try
    # to allocate far more points than any host holds.
    at_cap = SweepSpec(variable="alpha", start=0.0, stop=MAX_SWEEP_POINTS - 1.0, step=1.0)
    assert at_cap.stop == MAX_SWEEP_POINTS - 1.0
    for step in (0.5, 1e-9, 1e-300):
        with pytest.raises(ValueError, match=f"exceed {MAX_SWEEP_POINTS} points"):
            SweepSpec(variable="alpha", start=0.0, stop=MAX_SWEEP_POINTS - 1.0, step=step)


def test_sweep_out_of_coverage_grid_raises(cfg):
    spec = SweepSpec(variable="d1", start=2900.0, stop=3100.0, step=100.0, alpha=1.0)
    with pytest.raises(OutOfCoverageError):
        sweep(spec, cfg)
