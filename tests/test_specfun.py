import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import hyp2f1 as scipy_hyp2f1

from lora_sic.specfun import hyp2f1_1b
from quadrature import q2_integral_quadrature

# Arguments spanning all three evaluation branches.
Z_GRID = [0.0, -1e-12, -1e-3, -0.1, -0.3, -0.5, -0.7, -0.9, -1.0, -1.2, -1.5,
          -2.0, -5.0, -10.0, -1e2, -1e3, -1e4, -1e5, -1e6]
B_GRID = [0.05, 1.0 / 3.0, 0.5, 5.0 / 7.0, 0.9, 0.99, 1.0]


def test_unit_value_at_zero_argument():
    for b in B_GRID:
        assert hyp2f1_1b(b, 0.0) == 1.0


def test_logarithmic_closed_form_at_b_one():
    assert hyp2f1_1b(1.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_deep_argument_frozen_value():
    # Independently computed with 40-digit arithmetic.
    assert hyp2f1_1b(5.0 / 7.0, -1e6) == pytest.approx(1.461600924278332e-4, rel=1e-12)


@pytest.mark.parametrize("b", B_GRID)
def test_agrees_with_scipy_across_branches(b):
    for z in Z_GRID:
        ours = hyp2f1_1b(b, z)
        ref = float(scipy_hyp2f1(1.0, b, 1.0 + b, z))
        assert ours == pytest.approx(ref, rel=1e-10), f"z={z}"


def test_agrees_with_40_digit_mpmath_to_double_precision():
    # The benchmark's accuracy grid: eta in [2.0001, 8], z in [-1e12, -1e-6].
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for eta in (2.0001, 2.2, 2.8, 3.5, 4.5, 6.0, 8.0):
            b = 2.0 / eta
            for k in range(19):
                z = -(10.0 ** (-6 + k))
                ref = mpmath.hyp2f1(1, b, 1 + b, z)
                rel_err = float(abs((hyp2f1_1b(b, z) - ref) / ref))
                assert rel_err <= 2e-15, f"b={b} z={z} rel_err={rel_err}"


@pytest.mark.parametrize("b", [0.3, 5.0 / 7.0, 0.95])
def test_pfaff_transform_consistency(b):
    """(1-z) * 2F1(1,b;1+b;z) equals 2F1(1,1;1+b;z/(z-1)) for every branch."""
    for z in Z_GRID:
        if z == 0.0:
            continue
        w = z / (z - 1.0)
        lhs = (1.0 - z) * hyp2f1_1b(b, z)
        rhs = float(scipy_hyp2f1(1.0, 1.0, 1.0 + b, w))
        assert lhs == pytest.approx(rhs, rel=1e-9)


@given(
    b=st.floats(min_value=0.05, max_value=1.0),
    z=st.floats(min_value=-1e6, max_value=0.0),
)
def test_value_lies_in_unit_interval(b, z):
    value = hyp2f1_1b(b, z)
    assert 0.0 < value <= 1.0


@given(
    b=st.floats(min_value=0.05, max_value=1.0),
    z1=st.floats(min_value=-1e6, max_value=0.0),
    z2=st.floats(min_value=-1e6, max_value=0.0),
)
def test_monotone_decreasing_in_argument_magnitude(b, z1, z2):
    lo, hi = min(z1, z2), max(z1, z2)
    assert hyp2f1_1b(b, lo) <= hyp2f1_1b(b, hi) + 1e-12


@pytest.mark.parametrize("b, z", [(0.0, -1.0), (-0.5, -1.0), (1.1, -1.0), (0.5, 0.5)])
def test_domain_errors(b, z):
    with pytest.raises(ValueError):
        hyp2f1_1b(b, z)


def test_quadrature_vanishes_for_huge_threshold():
    assert q2_integral_quadrature(3000.0, 1e12, 2.8, 2500.0, 3000.0) < 1e-9


def test_quadrature_vanishes_for_tiny_reference_distance():
    assert q2_integral_quadrature(1e-6, 1.26, 2.8, 500.0, 1000.0) < 1e-12


@pytest.mark.parametrize(
    "d1, gamma, lo, hi",
    [(3000.0, 1.26, 2500.0, 3000.0), (700.0, 4.0, 500.0, 1000.0), (100.0, 0.5, 0.0, 500.0)],
)
def test_quadrature_matches_log_form_at_eta_two(d1, gamma, lo, hi):
    # int x/(d^2 + g x^2) dx = ln(d^2 + g x^2) / (2 g)
    closed = (
        d1**2
        / (gamma * (hi**2 - lo**2))
        * math.log((d1**2 + gamma * hi**2) / (d1**2 + gamma * lo**2))
    )
    assert q2_integral_quadrature(d1, gamma, 2.0, lo, hi) == pytest.approx(closed, rel=1e-9)


def test_hypergeometric_route_matches_log_form_at_eta_two():
    d1, gamma, lo, hi = 2800.0, 1.26, 2500.0, 3000.0
    bracket = (
        hi**2 * hyp2f1_1b(1.0, -gamma * hi**2 / d1**2)
        - lo**2 * hyp2f1_1b(1.0, -gamma * lo**2 / d1**2)
    ) / (hi**2 - lo**2)
    assert bracket == pytest.approx(
        q2_integral_quadrature(d1, gamma, 2.0, lo, hi), rel=1e-9
    )


def _closed_form_kernel(d1, gamma, eta, lo, hi):
    b = 2.0 / eta
    d_eta = d1**eta
    hi_term = hi**2 * hyp2f1_1b(b, -gamma * hi**eta / d_eta)
    lo_term = lo**2 * hyp2f1_1b(b, -gamma * lo**eta / d_eta) if lo > 0 else 0.0
    return (hi_term - lo_term) / (hi**2 - lo**2)


def test_closed_form_and_quadrature_agree_on_random_tuples():
    rng = np.random.Generator(np.random.PCG64(7))
    boundaries = (0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    for _ in range(100):
        ring = int(rng.integers(1, 7))
        lo, hi = boundaries[ring - 1], boundaries[ring]
        d1 = math.sqrt(max(lo, 0.05 * hi) ** 2 + rng.random() * (hi**2 - max(lo, 0.05 * hi) ** 2))
        gamma = 10 ** rng.uniform(-0.3, 1.0)
        eta = rng.uniform(2.05, 6.0)
        closed = _closed_form_kernel(d1, gamma, eta, lo, hi)
        quad = q2_integral_quadrature(d1, gamma, eta, lo, hi)
        assert closed == pytest.approx(quad, rel=1e-8)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d1": 0.0},
        {"gamma_lin": 0.0},
        {"eta": 1.9},
        {"l_lo": -1.0},
        {"l_lo": 3000.0, "l_hi": 2500.0},
    ],
)
def test_quadrature_argument_validation(kwargs):
    base = dict(d1=3000.0, gamma_lin=1.26, eta=2.8, l_lo=2500.0, l_hi=3000.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        q2_integral_quadrature(**base)
