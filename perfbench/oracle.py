"""Independent reference values and the correctness checks of the benchmark.

Nothing here imports lora_sic: the radio model of the default scenario is
restated from the paper's constants, and the ring integrals behind q1 and q2
are evaluated by adaptive quadrature rather than by the package's
hypergeometric closed form.  Every check returns an error string, or None
when the output passes.
"""

from __future__ import annotations

import functools
import math

RING_WIDTH_M = 500.0
ETA = 2.8
GAMMA_DB = 1.0
TX_POWER_DBM = 14.0
WAVELENGTH_M = 2.998e8 / 868e6
NOISE_DBM = -174.0 + 6.0 + 10.0 * math.log10(125e3)
SNR_THRESHOLD_DB = (-6.0, -9.0, -12.0, -15.0, -17.5, -20.0)
DUTY_CYCLES = (45.8e-6, 80.2e-6, 160.4e-6, 275.3e-6, 550.7e-6, 1101.4e-6)

# CSV cells carry 10 significant digits: a value read back is within 5e-10
# relative of the computed one, and identities hold to the cells' rounding.
CSV_DIGITS = 10
CSV_REL_TOL = 1e-9
QUAD_REL_TOL = 1e-8
MC_CI_MULTIPLE = 4.0
PLAN_PROBE = 1e-4


def ring_of(d1: float) -> int:
    """1-based ring; a distance on a boundary belongs to the inner ring."""
    return max(1, math.ceil(d1 / RING_WIDTH_M))


def ring_bounds(ring: int) -> tuple[float, float]:
    return (ring - 1) * RING_WIDTH_M, ring * RING_WIDTH_M


def h1(d1: float) -> float:
    """Connection probability of the default scenario at distance d1."""
    noise_mw = 10.0 ** (NOISE_DBM / 10.0)
    demand = 10.0 ** (SNR_THRESHOLD_DB[ring_of(d1) - 1] / 10.0)
    mean_rx_mw = 10.0 ** (TX_POWER_DBM / 10.0) * (WAVELENGTH_M / (4.0 * math.pi * d1)) ** ETA
    return math.exp(-noise_mw * demand / mean_rx_mw)


@functools.lru_cache(maxsize=4096)
def ring_kernel(d1: float, g: float) -> float:
    """E[d1^eta / (d1^eta + g D^eta)] over the ring distance density of d1's ring."""
    from scipy.integrate import quad

    lo, hi = ring_bounds(ring_of(d1))
    d_eta = d1**ETA
    knee = d1 * g ** (-1.0 / ETA)
    value, _ = quad(
        lambda x: x * d_eta / (d_eta + g * x**ETA),
        lo,
        hi,
        epsabs=0.0,
        epsrel=1e-12,
        limit=500,
        points=[knee] if lo < knee < hi else None,
    )
    return 2.0 * value / (hi * hi - lo * lo)


def q1_q2(d1: float, alpha: float, gamma_db: float = GAMMA_DB) -> tuple[float, float]:
    g = 10.0 ** (gamma_db / 10.0)
    return (
        math.exp(-alpha * ring_kernel(d1, 1.0 / g)),
        alpha * math.exp(-alpha) * ring_kernel(d1, g),
    )


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    header = lines[0].split(",")
    return header, [[float(cell) for cell in line.split(",")] for line in lines[1:]]


SWEEP_HEADER = ["x", "h1", "q1", "q2", "c1", "c1_sic"]


def _half_unit(value: float) -> float:
    """Half a unit in the 10th significant digit: the rounding error of a CSV cell."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - (CSV_DIGITS - 1))


def _product_holds(printed: float, a: float, b: float, b_err: float) -> bool:
    """printed == a*b up to the rounding of the printed cells a, b and the product."""
    bound = _half_unit(printed) + abs(b) * _half_unit(a) + abs(a) * b_err
    return abs(printed - a * b) <= bound + 4e-16 * abs(printed)


def check_rows(rows: list[list[float]]) -> str | None:
    """Every row: probabilities, c1 = h1*q1 and c1_sic = h1*(q1+q2)."""
    for x, h, q1, q2, c1, c1_sic in rows:
        if not all(0.0 <= p <= 1.0 for p in (h, q1, q2, c1, c1_sic)):
            return f"x={x}: value outside [0, 1]"
        if not _product_holds(c1, h, q1, _half_unit(q1)):
            return f"x={x}: c1={c1} != h1*q1={h * q1}"
        if not _product_holds(c1_sic, h, q1 + q2, _half_unit(q1) + _half_unit(q2)):
            return f"x={x}: c1_sic={c1_sic} != h1*(q1+q2)={h * (q1 + q2)}"
    return None


def check_point(row: list[float], d1: float, alpha: float, gamma_db: float = GAMMA_DB) -> str | None:
    """h1 against the restated radio model, q1 and q2 against quadrature."""
    _, h, q1, q2 = row[:4]
    if not _close(h, h1(d1), CSV_REL_TOL):
        return f"d1={d1}: h1={h} != reference {h1(d1)}"
    ref_q1, ref_q2 = q1_q2(d1, alpha, gamma_db)
    if not _close(q1, ref_q1, QUAD_REL_TOL):
        return f"d1={d1} alpha={alpha} gamma_db={gamma_db}: q1={q1} != quadrature {ref_q1}"
    if not _close(q2, ref_q2, QUAD_REL_TOL):
        return f"d1={d1} alpha={alpha} gamma_db={gamma_db}: q2={q2} != quadrature {ref_q2}"
    return None


def check_sweep(text: str, var: str, d1: float, alpha: float, expect_x: list[float],
                sample: list[int]) -> str | None:
    """A sweep CSV: grid, row identities on every row, references on sampled rows."""
    header, rows = parse_csv(text)
    if header != SWEEP_HEADER:
        return f"sweep header {header}"
    if len(rows) != len(expect_x):
        return f"sweep {var}: {len(rows)} rows, expected {len(expect_x)}"
    for row, x in zip(rows, expect_x):
        if not _close(row[0], x, CSV_REL_TOL):
            return f"sweep {var}: x={row[0]}, expected {x}"
    err = check_rows(rows)
    if err:
        return f"sweep {var}: {err}"
    if var == "alpha":
        # h1 and both ring kernels are alpha-independent: check every row
        # against one pair of quadratures.
        k_cap = ring_kernel(d1, 10.0 ** (-GAMMA_DB / 10.0))
        k_sic = ring_kernel(d1, 10.0 ** (GAMMA_DB / 10.0))
        ref_h1 = h1(d1)
        for x, h, q1, q2, _, _ in rows:
            if not _close(h, ref_h1, CSV_REL_TOL):
                return f"sweep alpha: h1={h} != reference {ref_h1}"
            if not _close(q1, math.exp(-x * k_cap), QUAD_REL_TOL):
                return f"sweep alpha: x={x} q1={q1} != quadrature {math.exp(-x * k_cap)}"
            if not _close(q2, x * math.exp(-x) * k_sic, QUAD_REL_TOL):
                return f"sweep alpha: x={x} q2={q2} != quadrature {x * math.exp(-x) * k_sic}"
        return None
    for index in sample:
        row = rows[index]
        if var == "d1":
            err = check_point(row, row[0], alpha)
        else:
            err = check_point(row, d1, alpha, gamma_db=row[0])
        if err:
            return f"sweep {var}: {err}"
    return None


def coverage_sic(d1: float, alpha: float, with_sic: bool) -> float:
    q1, q2 = q1_q2(d1, alpha)
    return h1(d1) * (q1 + q2 if with_sic else q1)


def check_plan(text: str, target: float, d1: float, with_sic: bool) -> str | None:
    """c(alpha* - 1e-4) >= target >= c(alpha* + 1e-4), c by quadrature."""
    header, rows = parse_csv(text)
    if header[:3] != ["target", "with_sic", "alpha_star"] or len(rows) != 1:
        return f"plan output {text!r}"
    got_target, got_sic, alpha_star = rows[0][:3]
    if got_target != target or bool(got_sic) != with_sic:
        return f"plan echoed target={got_target} sic={got_sic}"
    below = coverage_sic(d1, max(alpha_star - PLAN_PROBE, 0.0), with_sic)
    above = coverage_sic(d1, alpha_star + PLAN_PROBE, with_sic)
    if not below >= target >= above:
        return f"plan: c({alpha_star}-1e-4)={below}, target {target}, c(+1e-4)={above}"
    return check_capacity_row(rows[0][2:], alpha_star) if alpha_star > 0 else None


def check_capacity_row(row: list[float], alpha: float) -> str | None:
    nodes = [math.floor(alpha / (2.0 * p) + 0.5) for p in DUTY_CYCLES]
    if not _close(row[0], alpha, CSV_REL_TOL) or [int(n) for n in row[1:7]] != nodes:
        return f"capacity at alpha={alpha}: {row[1:7]} != {nodes}"
    if int(row[7]) != sum(nodes):
        return f"capacity at alpha={alpha}: total {row[7]} != {sum(nodes)}"
    return None


def check_capacity(text: str, alphas: list[float]) -> str | None:
    header, rows = parse_csv(text)
    if header[0] != "alpha" or len(rows) != len(alphas):
        return f"capacity output {text[:80]!r}"
    for row, alpha in zip(rows, alphas):
        err = check_capacity_row(row, alpha)
        if err:
            return err
    return None


def check_coverage(text: str, d1: float, alpha: float) -> str | None:
    header, rows = parse_csv(text)
    if header != SWEEP_HEADER or len(rows) != 1:
        return f"coverage output {text!r}"
    return check_rows(rows) or check_point(rows[0], d1, alpha)


def check_anchor(text: str) -> str | None:
    """coverage --d1 3000 --alpha 1: the paper's 0.489 -> 0.656 SIC gain."""
    err = check_coverage(text, 3000.0, 1.0)
    if err:
        return err
    row = parse_csv(text)[1][0]
    got = (float(f"{row[4]:.3g}"), float(f"{row[5]:.3g}"))
    return None if got == (0.489, 0.656) else f"anchor c1, c1_sic = {got}"


def check_mc(report: dict[str, list[float]], d1: float, alpha: float) -> str | None:
    """The validate rule: marginals within 4 CI95 half-widths of the closed forms."""
    q1, _ = q1_q2(d1, alpha)
    single = alpha * math.exp(-alpha) / -math.expm1(-alpha)
    for name, ref in (
        ("connected", h1(d1)),
        ("captured", q1),
        ("single_interferer_given_collision", single),
    ):
        mean, halfwidth, _ = report[name]
        if abs(mean - ref) > MC_CI_MULTIPLE * halfwidth:
            return f"mc d1={d1} alpha={alpha}: {name}={mean} vs {ref} (+-{halfwidth})"
    return None
