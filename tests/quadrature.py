"""Quadrature cross-check of the closed-form ring capture kernel.

The closed forms in :mod:`lora_sic.analytic` evaluate the ring integrals
through ``hyp2f1_1b``; this module evaluates the same integrals with scipy's
adaptive quadrature, so the two routes share no code.  scipy is a test-only
dependency.
"""

from __future__ import annotations

from scipy.integrate import quad

from lora_sic.specfun import ConvergenceError


def q2_integral_quadrature(
    d1: float, gamma_lin: float, eta: float, l_lo: float, l_hi: float
) -> float:
    """Mean pairwise capture factor by adaptive quadrature.

    Evaluates (2 d1^eta / (l_hi^2 - l_lo^2)) * int_{l_lo}^{l_hi}
    x / (d1^eta + gamma x^eta) dx to 1e-10 relative tolerance.  This is the
    expectation over the ring distance density of the probability that an
    exponentially faded signal from d1 beats a single co-ring interferer by
    the factor gamma; it stays in the test suite permanently as the
    independent cross-check of the closed form.
    """
    if d1 <= 0:
        raise ValueError(f"d1 must be positive, got {d1}")
    if gamma_lin <= 0:
        raise ValueError(f"gamma_lin must be positive, got {gamma_lin}")
    if eta < 2:
        raise ValueError(f"eta must be at least 2, got {eta}")
    if not 0 <= l_lo < l_hi:
        raise ValueError(f"need 0 <= l_lo < l_hi, got {l_lo}, {l_hi}")

    d_eta = d1**eta

    def integrand(x: float) -> float:
        return x / (d_eta + gamma_lin * x**eta)

    # The integrand bends sharply around the distance where the interferer
    # power matches the reference power; hint the subdivision there.
    x_knee = d1 * gamma_lin ** (-1.0 / eta)
    points = [x_knee] if l_lo < x_knee < l_hi else None
    value, abserr = quad(
        integrand, l_lo, l_hi, epsabs=0.0, epsrel=1e-12, limit=500, points=points
    )
    value *= 2.0 * d_eta / (l_hi**2 - l_lo**2)
    abserr *= 2.0 * d_eta / (l_hi**2 - l_lo**2)
    if value != 0.0 and abserr > 1e-10 * abs(value):
        raise ConvergenceError(
            f"quadrature error {abserr:.3e} exceeds tolerance for value {value:.6e}"
        )
    return value
