import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lora_sic.geometry import (
    OutOfCoverageError,
    interferer_intensity,
    nodes_from_alpha,
    ring_area,
    ring_of,
)
from lora_sic.params import NetworkConfig

CFG = NetworkConfig()


def test_default_layout_shape():
    assert CFG.boundaries == (0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)


@pytest.mark.parametrize(
    "d, ring", [(100.0, 1), (3000.0, 6), (500.0, 1), (500.0001, 2), (2500.0, 5)]
)
def test_ring_of(d, ring):
    assert ring_of(d, CFG) == ring


@pytest.mark.parametrize("radius_m", [6516.3, 254.6, 7887.3])
def test_configured_radius_is_the_outer_ring_edge(radius_m):
    # Six widths of radius_m / 6 fall one ulp short of these radii.
    assert 6 * (radius_m / 6) != radius_m
    cfg = NetworkConfig(radius_m=radius_m)
    assert cfg.boundaries[-1] == radius_m
    assert ring_of(radius_m, cfg) == 6
    with pytest.raises(OutOfCoverageError, match=f"cell radius {radius_m} m"):
        ring_of(math.nextafter(radius_m, math.inf), cfg)


@pytest.mark.parametrize("d", [0.0, -5.0, 3000.1])
def test_ring_of_out_of_coverage(d):
    with pytest.raises(OutOfCoverageError):
        ring_of(d, CFG)


def test_degenerate_ring_is_rejected_at_construction():
    for radius_m in (0.0, -500.0):
        with pytest.raises(ValueError, match="radius_m must be positive"):
            NetworkConfig(radius_m=radius_m)


def test_boundary_count_must_match_rings():
    # Seven boundaries bound the six rings, whatever the radius.
    for radius_m in (7.0, 1234.5, 3000.0):
        assert len(NetworkConfig(radius_m=radius_m).boundaries) == 7
    for ring in (0, 7):
        with pytest.raises(ValueError, match="ring index"):
            ring_area(ring, CFG)


def test_ring_areas():
    assert ring_area(1, CFG) == pytest.approx(math.pi * 500**2, rel=1e-12)
    assert ring_area(6, CFG) == pytest.approx(math.pi * (3000**2 - 2500**2), rel=1e-12)


def test_ring_areas_sum_to_disc():
    total = sum(ring_area(i, CFG) for i in range(1, 7))
    assert total == pytest.approx(math.pi * 3000**2, rel=1e-9)


def test_interferer_intensity_silent_nodes():
    assert interferer_intensity(3, NetworkConfig(duty_cycle=0.0), 1000.0) == 0.0


def test_interferer_intensity_fifty_node_ring():
    # 50 nodes in ring 1 at 1% duty cycle give unit intensity.
    nbar = 50.0 * (3000.0**2) / 500.0**2
    assert interferer_intensity(1, NetworkConfig(duty_cycle=0.01), nbar) == pytest.approx(
        1.0, rel=1e-12
    )


def test_interferer_intensity_capacity_anchor():
    # 10917 nodes in one ring under the SF7 tabulated duty cycle: intensity ~1.
    nbar = 10917.0 * (3000.0**2) / 500.0**2
    cfg = NetworkConfig(duty_cycle=45.8e-6)
    assert interferer_intensity(1, cfg, nbar) == pytest.approx(1.0, abs=1e-3)


@given(scale=st.floats(min_value=0.01, max_value=100.0))
def test_interferer_intensity_linear_in_population(scale):
    a0 = interferer_intensity(4, CFG, 400.0)
    a1 = interferer_intensity(4, CFG, 400.0 * scale)
    assert a1 == pytest.approx(scale * a0, rel=1e-9)


@given(scale=st.floats(min_value=0.01, max_value=50.0))
def test_interferer_intensity_linear_in_duty_cycle(scale):
    base = NetworkConfig(duty_cycle=0.042 / 50)
    scaled = NetworkConfig(duty_cycle=0.042 * scale / 50)
    assert interferer_intensity(2, scaled, 400.0) == pytest.approx(
        scale * interferer_intensity(2, base, 400.0), rel=1e-9
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
    alpha = interferer_intensity(ring, CFG, n_bar)
    n_ring = n_bar / (math.pi * 3000.0**2) * ring_area(ring, CFG)
    # Rounding is discontinuous at half-integers, where a one-ulp wobble in
    # the alpha round trip legitimately flips the result; skip that set.
    frac = (n_ring + 0.5) % 1.0
    tol = 1e-9 * (n_ring + 1.0)
    assume(tol < frac < 1.0 - tol)
    assert nodes_from_alpha(alpha, 0.01) == int(math.floor(n_ring + 0.5))


def test_traffic_rejects_negative_population():
    with pytest.raises(ValueError, match="nbar must be nonnegative"):
        NetworkConfig(nbar=-1.0)
    with pytest.raises(ValueError, match="n_bar must be nonnegative"):
        interferer_intensity(1, CFG, -1.0)


@pytest.mark.parametrize("duty_cycle", [-0.01, 1.0, math.nan])
def test_traffic_rejects_duty_cycle_outside_unit_interval(duty_cycle):
    # NaN is caught by the finiteness check that every field goes through.
    match = "duty_cycle must be finite" if math.isnan(duty_cycle) else "duty cycles must lie in"
    with pytest.raises(ValueError, match=match):
        NetworkConfig(duty_cycle=duty_cycle)
