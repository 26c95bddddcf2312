"""Gauss hypergeometric 2F1(1, b; 1+b; z) on z <= 0.

This is the one special function the closed-form coverage expressions need:
``(L^2/2) * 2F1(1, 2/eta; 1+2/eta; -c L^eta)`` is the antiderivative of
``x / (1 + c x^eta)`` evaluated at ``L``, which is how it enters both capture
integrals.  Only the (1, b; 1+b) parameter family with b in (0, 1) and
nonpositive argument is supported: the model's path-loss exponent eta = 2/b
exceeds 2.
"""

from __future__ import annotations

import functools
import math


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach its accuracy target."""


_REL_EPS = 1e-16

# Branch cutovers chosen so every series below converges geometrically with
# ratio <= 0.6.  On a grid of 20,000 b in (0, 1), plus b within 1e-12 of either
# end, the loops below read at most 48 ratio factors for the direct series (at
# z = -0.5), 71 for the Pfaff one (z = -1.5) and 34 for the reflection (just
# below z = -1.5, where 33 terms are summed); _TABLE_TERMS leaves room above
# all three.
_TABLE_TERMS = 128
_DIRECT_MAX = 0.5
_PFAFF_MAX = 1.5


def hyp2f1_1b(b: float, z: float) -> float:
    """2F1(1, b; 1+b; z) for b in (0, 1) and z <= 0.

    The value lies in (0, 1].  Against 40-digit mpmath over eta = 2/b in
    [2.0001, 8] and z in [-1e12, -1e-6], the worst relative error measured is
    7.6e-16 (63 values of eta by 73 log-spaced z), in every branch and as
    b -> 1.  b = 1 (eta = 2) is refused: NetworkConfig requires eta > 2.

    Evaluation: direct power series for small |z|, a Pfaff-transformed series
    for moderate |z|, and a 1/z reflection through the incomplete beta
    decomposition for large |z|, so the term count stays bounded for every
    z <= 0 instead of growing with |z|.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got {b}")
    if z > 0.0:
        raise ValueError(f"z must be nonpositive, got {z}")
    if z == 0.0:  # ring 1's inner edge, l_lo = 0, on every ring-1 kernel
        return 1.0
    if z >= -_DIRECT_MAX:
        return _series_direct(b, z)
    if z >= -_PFAFF_MAX:
        return _series_pfaff(b, z)
    return _reflect_large_z(b, z)


def _series_direct(b: float, z: float) -> float:
    # sum_k  b/(b+k) z^k.  For -1 < z < 0 the terms alternate and shrink:
    # every partial sum lies in [1 + z/2, 1], so |total| is total itself.
    rel_eps = _REL_EPS
    total = 1.0
    term = 1.0
    for bk, bk1 in _direct_factors(b):
        term *= z * bk / bk1
        total += term
        tol = rel_eps * total
        if -tol < term < tol:
            return total
    raise ConvergenceError(f"direct series stalled at b={b}, z={z}")


def _series_pfaff(b: float, z: float) -> float:
    # Pfaff transform: 2F1(1,b;1+b;z) = (1-z)^-1 2F1(1,1;1+b;w), w = z/(z-1),
    # with 2F1(1,1;1+b;w) = sum_k k!/(1+b)_k w^k.
    w = z / (z - 1.0)
    rel_eps = _REL_EPS
    total = 1.0
    term = 1.0
    for k1, k1b in _pfaff_factors(b):
        term *= w * k1 / k1b
        total += term
        if term < rel_eps * total:
            return total / (1.0 - z)
    raise ConvergenceError(f"Pfaff series stalled at b={b}, z={z}")


def _reflect_large_z(b: float, z: float) -> float:
    # From the Euler integral b*int_0^1 t^{b-1}/(1-zt) dt, substituting to an
    # incomplete beta and splitting at the complementary endpoint:
    #   F = b s^-b [ pi/sin(pi b) - sum_{j>=0} (e)_j / (j! (j+e)) y^{j+e} ]
    # with s = -z, y = 1/(1+s), e = 1-b.  The j = 0 term is paired with the
    # pi/sin pole analytically so b -> 1 stays finite.  That pole term
    # depends on b alone, and a sweep evaluates many z at one eta, so
    # _csc_minus_pole is memoized: below e = 0.3 (eta < 2.86, the default
    # 2.8 included) it sums a sine series on every call otherwise.
    s = -z
    y = 1.0 / (1.0 + s)
    e = 1.0 - b
    log_y = math.log(y)
    bracket = _csc_minus_pole(e) - math.expm1(e * log_y) / e
    y_pow_e = math.exp(e * log_y)

    tail = 0.0
    term = y * e / (1.0 + e)  # j = 1 term of sum (e)_j/(j!(j+e)) y^j
    limit = _REL_EPS * max(bracket, 1e-300)
    for num, den in _reflect_factors(e):
        if not term > limit:
            return b * s**-b * (bracket - y_pow_e * tail)
        tail += term
        term *= y * num / den
    raise ConvergenceError(f"reflection series stalled at b={b}, z={z}")


# Each series multiplies its term by a ratio (w * num) / den whose num and den
# depend on b alone, and a sweep evaluates many z at one eta, so they are
# tabulated once per b.  Every entry is formed as the recurrence writes it,
# (b + k) + 1.0 and not b + (k + 1.0), so the sums are bit for bit those of
# the inline recurrences (tests/test_specfun.py compares them by ==).  A
# series that needs more than _TABLE_TERMS terms raises ConvergenceError
# rather than return a truncated sum.


@functools.lru_cache(maxsize=16)
def _direct_factors(b: float) -> tuple[tuple[float, float], ...]:
    return tuple((b + k, b + k + 1.0) for k in range(_TABLE_TERMS))


@functools.lru_cache(maxsize=16)
def _pfaff_factors(b: float) -> tuple[tuple[float, float], ...]:
    return tuple((k + 1.0, k + 1.0 + b) for k in range(_TABLE_TERMS))


@functools.lru_cache(maxsize=16)
def _reflect_factors(e: float) -> tuple[tuple[float, float], ...]:
    return tuple(
        ((e + j) ** 2, (j + 1.0) * (j + 1.0 + e))
        for j in map(float, range(1, _TABLE_TERMS + 1))
    )


@functools.lru_cache(maxsize=64)
def _csc_minus_pole(e: float) -> float:
    """pi/sin(pi*e) - 1/e, stable for small e.

    Uses (pi*e - sin(pi*e)) / (e*sin(pi*e)) with the numerator summed as a
    sine series so no cancellation occurs.
    """
    if e >= 0.3:
        return math.pi / math.sin(math.pi * e) - 1.0 / e
    x = math.pi * e
    x2 = x * x
    num = 0.0
    term = x  # pi*e - sin(pi*e) = sum_{k>=1} (-1)^{k+1} x^{2k+1}/(2k+1)!
    for k in range(1, 30):
        term *= -x2 / ((2 * k) * (2 * k + 1))
        num -= term
        if abs(term) < 1e-20 * max(abs(num), 1e-300):
            break
    return num / (e * math.sin(x))
