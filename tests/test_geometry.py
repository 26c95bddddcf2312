import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lora_sic.geometry import (
    OutOfCoverageError,
    RingLayout,
    TrafficModel,
    default_layout,
    interferer_intensity,
    nodes_from_alpha,
    ring_area,
    ring_of,
)

LAYOUT = default_layout()


def test_default_layout_shape():
    assert LAYOUT.boundaries == (0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    assert LAYOUT.n_rings == 6
    assert LAYOUT.radius == 3000.0


@pytest.mark.parametrize(
    "d, ring", [(100.0, 1), (3000.0, 6), (500.0, 1), (500.0001, 2), (2500.0, 5)]
)
def test_ring_of(d, ring):
    assert ring_of(d, LAYOUT) == ring


@pytest.mark.parametrize("d", [0.0, -5.0, 3000.1])
def test_ring_of_out_of_coverage(d):
    with pytest.raises(OutOfCoverageError):
        ring_of(d, LAYOUT)


def test_ring_of_respects_inner_cutoff():
    layout = RingLayout(boundaries=(100.0, 600.0, 1100.0))
    assert ring_of(600.0, layout) == 1
    with pytest.raises(OutOfCoverageError):
        ring_of(100.0, layout)  # the cutoff radius itself is uncovered
    with pytest.raises(OutOfCoverageError):
        ring_of(50.0, layout)


def test_degenerate_ring_is_rejected_at_construction():
    with pytest.raises(ValueError):
        RingLayout(boundaries=(0.0, 500.0, 500.0))


def test_boundary_count_must_match_rings():
    # n boundaries bound n - 1 rings, so a layout needs at least two.
    assert RingLayout(boundaries=(0.0, 3000.0)).n_rings == 1
    for boundaries in ((), (3000.0,)):
        with pytest.raises(ValueError, match="at least two boundaries"):
            RingLayout(boundaries=boundaries)


def test_ring_areas():
    assert ring_area(1, LAYOUT) == pytest.approx(math.pi * 500**2, rel=1e-12)
    assert ring_area(6, LAYOUT) == pytest.approx(math.pi * (3000**2 - 2500**2), rel=1e-12)


def test_ring_areas_sum_to_disc():
    total = sum(ring_area(i, LAYOUT) for i in range(1, 7))
    assert total == pytest.approx(math.pi * 3000**2, rel=1e-9)


def test_interferer_intensity_silent_nodes():
    traffic = TrafficModel(1000.0, duty_cycle=0.0)
    assert interferer_intensity(3, traffic, LAYOUT) == 0.0


def test_interferer_intensity_fifty_node_ring():
    # 50 nodes in ring 1 at 1% duty cycle give unit intensity.
    n_bar = 50.0 * (3000.0**2) / 500.0**2
    traffic = TrafficModel(n_bar, duty_cycle=0.01)
    assert interferer_intensity(1, traffic, LAYOUT) == pytest.approx(1.0, rel=1e-12)


def test_interferer_intensity_capacity_anchor():
    # 10917 nodes in one ring under the SF7 tabulated duty cycle: intensity ~1.
    n_bar = 10917.0 * (3000.0**2) / 500.0**2
    traffic = TrafficModel(n_bar, duty_cycle=45.8e-6)
    assert interferer_intensity(1, traffic, LAYOUT) == pytest.approx(1.0, abs=1e-3)


@given(scale=st.floats(min_value=0.01, max_value=100.0))
def test_interferer_intensity_linear_in_population(scale):
    base = TrafficModel(400.0, 0.01)
    scaled = TrafficModel(400.0 * scale, 0.01)
    a0 = interferer_intensity(4, base, LAYOUT)
    a1 = interferer_intensity(4, scaled, LAYOUT)
    assert a1 == pytest.approx(scale * a0, rel=1e-9)


@given(scale=st.floats(min_value=0.01, max_value=50.0))
def test_interferer_intensity_linear_in_duty_cycle(scale):
    base = TrafficModel(400.0, 0.042 / 50)
    scaled = TrafficModel(400.0, 0.042 * scale / 50)
    assert interferer_intensity(2, scaled, LAYOUT) == pytest.approx(
        scale * interferer_intensity(2, base, LAYOUT), rel=1e-9
    )


@pytest.mark.parametrize(
    "alpha, duty, expected",
    [(0.20, 45.8e-6, 2183), (1.0, 1101.4e-6, 454), (0.0, 0.01, 0)],
)
def test_nodes_from_alpha_examples(alpha, duty, expected):
    assert nodes_from_alpha(alpha, duty) == expected


def test_nodes_from_alpha_rejects_bad_duty():
    with pytest.raises(ValueError):
        nodes_from_alpha(1.0, 0.0)
    with pytest.raises(ValueError):
        nodes_from_alpha(-1.0, 0.01)


@given(
    n_bar=st.floats(min_value=1.0, max_value=1e6),
    ring=st.integers(min_value=1, max_value=6),
)
def test_nodes_from_alpha_inverts_intensity(n_bar, ring):
    """Applying the intensity formula then inverting recovers the rounded ring population."""
    traffic = TrafficModel(n_bar, 0.01)
    alpha = interferer_intensity(ring, traffic, LAYOUT)
    n_ring = traffic.density(LAYOUT) * ring_area(ring, LAYOUT)
    # Rounding is discontinuous at half-integers, where a one-ulp wobble in
    # the alpha round trip legitimately flips the result; skip that set.
    frac = (n_ring + 0.5) % 1.0
    tol = 1e-9 * (n_ring + 1.0)
    assume(tol < frac < 1.0 - tol)
    assert nodes_from_alpha(alpha, 0.01) == int(math.floor(n_ring + 0.5))


def test_traffic_rejects_negative_population():
    with pytest.raises(ValueError):
        TrafficModel(-1.0, 0.01)


@pytest.mark.parametrize("duty_cycle", [-0.01, 1.0, math.nan])
def test_traffic_rejects_duty_cycle_outside_unit_interval(duty_cycle):
    with pytest.raises(ValueError, match="duty cycles must lie in"):
        TrafficModel(100.0, duty_cycle)
