import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import hyp2f1 as scipy_hyp2f1

from lora_sic import analytic, specfun
from lora_sic.params import NetworkConfig
from lora_sic.specfun import ConvergenceError, hyp2f1_1b
from quadrature import q2_integral_quadrature

# Arguments spanning all three evaluation branches.
Z_GRID = [0.0, -1e-12, -1e-3, -0.1, -0.3, -0.5, -0.7, -0.9, -1.0, -1.2, -1.5,
          -2.0, -5.0, -10.0, -1e2, -1e3, -1e4, -1e5, -1e6]
B_GRID = [0.05, 1.0 / 3.0, 0.5, 5.0 / 7.0, 0.9, 0.99]


def test_unit_value_at_zero_argument():
    for b in B_GRID:
        assert hyp2f1_1b(b, 0.0) == 1.0


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
    b=st.floats(min_value=0.05, max_value=1.0, exclude_max=True),
    z=st.floats(min_value=-1e6, max_value=0.0),
)
def test_value_lies_in_unit_interval(b, z):
    value = hyp2f1_1b(b, z)
    assert 0.0 < value <= 1.0


@given(
    b=st.floats(min_value=0.05, max_value=1.0, exclude_max=True),
    z1=st.floats(min_value=-1e6, max_value=0.0),
    z2=st.floats(min_value=-1e6, max_value=0.0),
)
def test_monotone_decreasing_in_argument_magnitude(b, z1, z2):
    lo, hi = min(z1, z2), max(z1, z2)
    assert hyp2f1_1b(b, lo) <= hyp2f1_1b(b, hi) + 1e-12


@pytest.mark.parametrize(
    "b, z", [(0.0, -1.0), (-0.5, -1.0), (1.0, -1.0), (1.1, -1.0), (0.5, 0.5)]
)
def test_domain_errors(b, z):
    with pytest.raises(ValueError, match=r"b must lie in \(0, 1\)|z must be nonpositive"):
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
    # hyp2f1_1b refuses b = 1 itself; one ulp below it, the route still
    # reaches the eta = 2 logarithmic limit.
    b = math.nextafter(1.0, 0.0)
    d1, gamma, lo, hi = 2800.0, 1.26, 2500.0, 3000.0
    bracket = (
        hi**2 * hyp2f1_1b(b, -gamma * hi**2 / d1**2)
        - lo**2 * hyp2f1_1b(b, -gamma * lo**2 / d1**2)
    ) / (hi**2 - lo**2)
    assert bracket == pytest.approx(
        q2_integral_quadrature(d1, gamma, 2.0, lo, hi), rel=1e-9
    )


def test_closed_form_and_quadrature_agree_on_random_tuples():
    rng = np.random.Generator(np.random.PCG64(7))
    boundaries = (0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    for _ in range(100):
        ring = int(rng.integers(1, 7))
        lo, hi = boundaries[ring - 1], boundaries[ring]
        d1 = math.sqrt(max(lo, 0.05 * hi) ** 2 + rng.random() * (hi**2 - max(lo, 0.05 * hi) ** 2))
        gamma = 10 ** rng.uniform(-0.3, 1.0)
        eta = rng.uniform(2.05, 6.0)
        closed = analytic._ring_capture_kernel(d1, gamma, eta, lo, hi)
        quad = q2_integral_quadrature(d1, gamma, eta, lo, hi)
        assert closed == pytest.approx(quad, rel=1e-8)


@pytest.mark.parametrize("d1", [250.0, 1750.0, 3000.0])
def test_kernels_at_the_nearest_exponent_above_two_match_quadrature(d1):
    # The smallest path_loss_exp NetworkConfig takes puts b = 2/eta at
    # 1 - 2**-52, the edge of hyp2f1_1b's domain (rings 1, 4 and 6).
    cfg = NetworkConfig(path_loss_exp=math.nextafter(2.0, math.inf))
    assert 2.0 / cfg.path_loss_exp < 1.0
    op = analytic._operating_point(d1, cfg)
    for kernel, threshold in ((op.k1, 1.0 / op.gamma), (op.k2, op.gamma)):
        quad = q2_integral_quadrature(d1, threshold, op.eta, op.l_lo, op.l_hi)
        assert kernel == pytest.approx(quad, rel=1e-8), threshold


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


# --- bit identity with the reference evaluation ---------------------------
#
# Verbatim copies of the series as they stood before the hot loops were
# tightened (named subexpressions, a local epsilon, a hoisted loop bound, a
# memoized pole term).  Those edits keep every floating-point operation and
# its order, so hyp2f1_1b must equal this reference exactly, not just to a
# tolerance: a regrouped product such as z * (bk / (bk + 1.0)) moves the last
# bit of some values and fails here.  Both sides run on the same libm.

_REF_MAX_TERMS = 100_000
_REF_REL_EPS = 1e-16


def _ref_hyp2f1_1b(b, z):
    if z == 0.0:
        return 1.0
    if z >= -0.5:
        return _ref_series_direct(b, z)
    if z >= -1.5:
        return _ref_series_pfaff(b, z)
    return _ref_reflect_large_z(b, z)


def _ref_series_direct(b, z):
    total = 1.0
    term = 1.0
    for k in range(_REF_MAX_TERMS):
        term *= z * (b + k) / (b + k + 1.0)
        total += term
        if abs(term) < _REF_REL_EPS * abs(total):
            return total
    raise AssertionError("reference direct series stalled")


def _ref_series_pfaff(b, z):
    w = z / (z - 1.0)
    total = 1.0
    term = 1.0
    for k in range(_REF_MAX_TERMS):
        term *= w * (k + 1.0) / (k + 1.0 + b)
        total += term
        if term < _REF_REL_EPS * total:
            return total / (1.0 - z)
    raise AssertionError("reference Pfaff series stalled")


def _ref_reflect_large_z(b, z):
    s = -z
    y = 1.0 / (1.0 + s)
    e = 1.0 - b
    log_y = math.log(y)
    bracket = _ref_csc_minus_pole(e) - math.expm1(e * log_y) / e
    y_pow_e = math.exp(e * log_y)

    tail = 0.0
    term = y * e / (1.0 + e)
    j = 1.0
    while term > _REF_REL_EPS * max(bracket, 1e-300):
        tail += term
        term *= y * (e + j) ** 2 / ((j + 1.0) * (j + 1.0 + e))
        j += 1.0
        if j > _REF_MAX_TERMS:
            raise AssertionError("reference reflection series stalled")
    return b * s**-b * (bracket - y_pow_e * tail)


def _ref_csc_minus_pole(e):
    if e >= 0.3:
        return math.pi / math.sin(math.pi * e) - 1.0 / e
    x = math.pi * e
    x2 = x * x
    num = 0.0
    term = x
    for k in range(1, 30):
        term *= -x2 / ((2 * k) * (2 * k + 1))
        num -= term
        if abs(term) < 1e-20 * max(abs(num), 1e-300):
            break
    return num / (e * math.sin(x))


def _seeded_points(count):
    """(b, z) with eta = 2/b in [2.0001, 8], a third of them in each branch.

    Half the etas come from a short list, the benchmark's 2.8 among them, so
    that the memoized pole term is read back as well as computed.
    """
    rng = random.Random(20261019)
    etas = (2.0001, 2.2, 2.8, 2.85, 3.5, 4.0, 6.0, 8.0)
    points = []
    for i in range(count):
        eta = rng.choice(etas) if i % 2 else rng.uniform(2.0001, 8.0)
        branch = i % 3
        if branch == 0:
            z = -(10.0 ** rng.uniform(-8.0, math.log10(0.5)))
        elif branch == 1:
            z = -rng.uniform(0.5, 1.5)
        else:
            z = -(10.0 ** rng.uniform(math.log10(1.5), 14.0))
        points.append((2.0 / eta, z))
    return points


def test_bit_identical_to_reference_at_seeded_points():
    mismatches = [
        (b, z) for b, z in _seeded_points(100_000) if hyp2f1_1b(b, z) != _ref_hyp2f1_1b(b, z)
    ]
    assert not mismatches, f"{len(mismatches)} points differ, first {mismatches[:3]}"


@pytest.mark.parametrize("cutover", [-0.5, -1.5])
def test_bit_identical_to_reference_around_the_branch_cutovers(cutover):
    zs = [cutover]
    for toward in (0.0, -math.inf):
        z = cutover
        for _ in range(3):
            z = math.nextafter(z, toward)
            zs.append(z)
    for eta in (2.0001, 2.8, 2.85, 4.0, 8.0):
        b = 2.0 / eta
        for z in zs:
            assert hyp2f1_1b(b, z) == _ref_hyp2f1_1b(b, z), f"b={b} z={z!r}"


# --- the per-b ratio tables -------------------------------------------------

# Where each series converges slowest: the far end of its branch.
_SLOWEST_Z = (-0.5, math.nextafter(-0.5, -math.inf), -1.5, math.nextafter(-1.5, -math.inf))
_FINE_B = [i / 2000 for i in range(1, 2000)] + [1e-300, 1e-12, 1.0 - 1e-12, math.nextafter(1.0, 0.0)]


def test_tables_reach_the_slowest_arguments_on_a_fine_b_grid(monkeypatch):
    # Cut to the bounds the specfun module comment states (as table entries
    # read), every table still carries its series to the far end of its
    # branch, bit for bit; the full tables hold 128 entries.
    for name, entries in (("_direct_factors", 48), ("_pfaff_factors", 71), ("_reflect_factors", 34)):
        full = getattr(specfun, name)
        assert len(full(0.5)) == 128
        monkeypatch.setattr(specfun, name, lambda x, full=full, entries=entries: full(x)[:entries])
    for b in _FINE_B:
        for z in _SLOWEST_Z:
            assert hyp2f1_1b(b, z) == _ref_hyp2f1_1b(b, z), f"b={b} z={z!r}"


@pytest.mark.parametrize(
    "series, z",
    [("_series_direct", -0.99), ("_series_pfaff", -1e6), ("_reflect_large_z", -0.01)],
)
def test_series_that_outruns_its_table_raises(series, z):
    # Each z lies outside its series' branch, where thousands of terms would
    # be needed; the loop must refuse rather than return a partial sum.
    with pytest.raises(ConvergenceError, match="stalled"):
        getattr(specfun, series)(2.0 / 2.8, z)
