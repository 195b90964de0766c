"""Weak-coupling Bohr-Sommerfeld inversion, the quantization functions of
the exact band-edge condition, and strong-coupling gap edges.

Everything in this module that returns series returns exact rationals; the
only floating point lives in ``zjj_quantization_solve`` which evaluates the
transcendental band-edge condition numerically.
"""
from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Callable, NamedTuple

from . import dunham
from .errors import ConvergenceError, DomainError, StructureError, require_integer, require_positive
from .series import PolyB, PolySeries, horner, newton_solve

__all__ = [
    "bs_invert_weak",
    "ZjjFunctions",
    "zjj_construct",
    "zjj_A_from_E",
    "zjj_quantization_solve",
    "GapEdges",
    "gap_edge_series",
    "alphabeta_extract",
]

_B = PolyB((0, 1))


def bs_invert_weak(order: int, progress: Callable[[float], None] | None = None) -> PolySeries:
    """u(hbar, B) from the all-orders quantization condition in the wells.

    Inverts hbar B = 2 sum_n hbar^(2n) a_n(u) around u = -1 by Newton
    doubling in hbar; coefficients come out as polynomials in B = N + 1/2.
    The hbar^0 coefficient is -1 (the well bottom).
    """
    order = require_integer("order", order, 1)
    # F(v) = 2 sum_n hbar^(2n) a_n(v) as a polynomial in v = u + 1 whose
    # coefficients are series in hbar; solve F(v) = hbar B for v = O(hbar).
    graded = [PolyB()] * (order + 1)
    for n, an in enumerate(dunham.well_action_series(order // 2, order)):
        graded[2 * n] = PolyB(2 * c for c in an)
    F = PolySeries("hbar", order, graded).coeffs_in_B()
    target = PolySeries("hbar", order, [PolyB(), _B])
    v = newton_solve(F, target, 0, progress)
    return v - PolySeries.const("hbar", order, 1)


class ZjjFunctions(NamedTuple):
    """The two quantization functions in both variable conventions.

    A carries an explicit 16/hbar leading term on top of its power series.
    """

    E_of_B: PolySeries
    B_of_E: PolySeries
    A_of_B: PolySeries
    A_of_E: PolySeries


def zjj_construct(order: int) -> ZjjFunctions:
    """Build E(hbar,B), B(hbar,E), A(hbar,B), A(hbar,E) from the
    perturbative series alone, all to hbar^order."""
    order = require_integer("order", order, 0)
    up = bs_invert_weak(order + 2)
    # E = (u + 1)/hbar; one extra order so A reaches hbar^order below
    E_full = PolySeries("hbar", order + 1, [up[n + 1] for n in range(order + 2)])
    E_of_B = E_full.truncate(order)
    # B(hbar, E) solves E(hbar, B(hbar, E)) = E; the symbol B stands for E.
    B_of_E = newton_solve(E_of_B.coeffs_in_B(), PolySeries.const("hbar", order, _B), _B)
    A_of_B = zjj_A_from_E(E_full).truncate(order)
    # A(hbar, E): substitute B(E) into the series part of A(hbar, B).
    A_of_E = horner(A_of_B.coeffs_in_B(), B_of_E)
    return ZjjFunctions(E_of_B=E_of_B, B_of_E=B_of_E, A_of_B=A_of_B, A_of_E=A_of_E)


def zjj_A_from_E(E_of_B: PolySeries) -> PolySeries:
    """The instanton function from the perturbative one:

        dA/dhbar = -(16/hbar^2) dE/dB - 2B/hbar,

    integrated termwise with the hbar^0 constant set to zero.  The would-be
    log term (the 1/hbar piece of the right side) cancels identically
    because dE/dB = 1 - hbar B/8 + O(hbar^2); a surviving term means the
    input is not a consistent perturbative series.  The returned series is
    the part beyond the explicit 16/hbar pole.
    """
    order = E_of_B.order
    dEdB = E_of_B.derivative_B()
    if dEdB[0] != PolyB.const(1):
        raise StructureError("dE/dB must start at 1")
    if order >= 1 and dEdB[1] != PolyB((0, Q(-1, 8))):
        raise StructureError("1/hbar term fails to cancel: wrong input series")
    out = [PolyB() for _ in range(order)]
    for n in range(2, order + 1):
        # -(16/hbar^2) * c_n hbar^n integrates to -16 c_n hbar^(n-1)/(n-1)
        out[n - 1] = dEdB[n] * Q(-16, n - 1)
    # the hbar^order coefficient would need dE/dB one order further
    return PolySeries("hbar", order - 1, out)


def zjj_quantization_solve(hbar: float, N: int, theta: float, order: int = 8) -> dict:
    """Band-edge energy from the exact quantization condition, numerically.

    Solves, for E near N + 1/2, the real part of

        (32/hbar)^-B e^(A/2) / Gamma(1/2 - B)
        + (-32/hbar)^-B e^(-A/2) / Gamma(1/2 + B) = 2 cos(theta)/sqrt(2 pi)

    with A, B the truncated quantization functions.  On either lateral
    branch (-1)^-B = cos(pi B) -+ i sin(pi B), and the second term is that
    phase times a real number, so its real part, and with it the edge, does
    not depend on the branch.  Returns u = -1 + hbar E plus a truncation
    uncertainty estimated by redoing the solve one order lower.
    """
    require_positive("hbar", hbar)
    N = require_integer("band label N", N, 0)
    if not math.isfinite(theta):
        raise DomainError(f"finite theta required, got {theta!r}")
    order = require_integer("order", order, 1)
    z = zjj_construct(order)

    def solve_at(ord_used: int) -> float:
        Bf = z.B_of_E.truncate(ord_used)
        Af = z.A_of_E.truncate(ord_used)

        def F(E: float) -> float:
            Bv = float(Bf(hbar, E))
            Av = 16.0 / hbar + float(Af(hbar, E))
            # by reflection 1/Gamma(1/2 - B) = cos(pi B) Gamma(1/2 + B)/pi, which
            # vanishes at the poles of Gamma(1/2 - B); past the double range
            # Gamma(1/2 + B) reads inf, so the two reciprocals read +-inf and 0
            cos_b = math.cos(math.pi * Bv)
            try:
                gamma = math.gamma(0.5 + Bv)
            except OverflowError:
                gamma = math.inf
            try:
                scale = (32.0 / hbar) ** (-Bv)
                t1 = scale * math.exp(Av / 2) * cos_b * gamma / math.pi
                t2 = scale * math.exp(-Av / 2) / gamma
            except OverflowError:
                raise ConvergenceError(
                    f"band-edge condition past the double range at hbar={hbar!r}, "
                    f"N={N}, order {ord_used}"
                ) from None
            lhs = t1 + cos_b * t2
            return lhs - 2 * math.cos(theta) / math.sqrt(2 * math.pi)

        lo, hi = N + 0.02, N + 0.98
        flo, fhi = F(lo), F(hi)
        if flo * fhi > 0:
            raise ConvergenceError("no bracketed root for the band edge")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = F(mid)
            if flo * fm <= 0:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
            if hi - lo < 1e-14 * max(1.0, abs(mid)):
                break
        return 0.5 * (lo + hi)

    E_full = solve_at(order)
    E_lower = solve_at(order - 1)
    u = -1 + hbar * E_full
    return {
        "E": E_full,
        "u": u,
        "uncertainty": abs(hbar * (E_full - E_lower)),
        "order": order,
    }


class GapEdges(NamedTuple):
    """Strong-coupling edges of gap N: u = (hbar^2/8) * [b_N | a_N](4/hbar^2).

    ``lower``/``upper`` are the characteristic-value series; for N = 0 only
    the upper edge (bottom of the spectrum's first band) exists.
    """

    lower: PolySeries | None
    upper: PolySeries

    def u_lower(self, hbar: float) -> float:
        if self.lower is None:
            raise DomainError("gap 0 has no lower edge")
        return _edge_value(self.lower, hbar)

    def u_upper(self, hbar: float) -> float:
        return _edge_value(self.upper, hbar)


def _edge_value(series: PolySeries, hbar: float) -> float:
    require_positive("hbar", hbar)
    try:
        u = hbar * hbar / 8 * float(series(4 / hbar**2))
    except (OverflowError, ZeroDivisionError):  # hbar^2 beyond double range
        u = math.inf
    if not math.isfinite(u):
        raise DomainError(f"strong-coupling edge not finite in double precision at hbar={hbar!r}")
    return u


def gap_edge_series(N: int, order: int) -> GapEdges:
    """Exact strong-coupling expansions of the two edges of gap N."""
    from . import charvalues

    upper = charvalues.char_a(N, order)
    lower = charvalues.char_b(N, order) if N >= 1 else None
    return GapEdges(lower=lower, upper=upper)


def alphabeta_extract(N: int, order: int) -> tuple[list[Q], list[Q]]:
    """Rewrite gap-N edges as mean/splitting data:

        u_pm = (hbar^2 N^2/8) sum_n alpha_n / hbar^(4n)
               +- (hbar^2/8) (2/hbar)^(2N) / (2^(N-1) (N-1)!)^2
                  * sum_n beta_n / hbar^(4n)

    Returns (alpha, beta) as exact rationals.  The splitting starts at
    q^N, so order >= N is required.
    """
    N = require_integer("gap label N", N, 1)
    order = require_integer("order", order, N)
    edges = gap_edge_series(N, order)
    a, b = edges.upper, edges.lower
    mean = (a + b) / 2
    half = (a - b) / 2
    # mean: only even powers of q survive; q^(2n) = 16^n / hbar^(4n)
    alphas: list[Q] = []
    for j in range(mean.order + 1):
        c = mean[j].const_value()
        if j == 0:
            if c != N * N:
                raise StructureError("mean must start at N^2")
            alphas.append(Q(1))
        elif j % 2 == 1:
            if c != 0:
                raise StructureError("odd power in gap mean")
        else:
            alphas.append(c * Q(16) ** (j // 2) / (N * N))
    # splitting: supported on q^(N + 2n); q^N carries 4^N/hbar^(2N) which
    # matches the (2/hbar)^(2N) template factor exactly
    pref = Q(2 ** (N - 1) * math.factorial(N - 1)) ** 2
    betas: list[Q] = []
    for j in range(half.order + 1):
        c = half[j].const_value()
        if j < N or (j - N) % 2 == 1:
            if c != 0:
                raise StructureError(
                    f"gap splitting has support at q^{j}, outside the template"
                )
            continue
        betas.append(c * pref * Q(16) ** ((j - N) // 2))
    if not betas or betas[0] == 0:
        raise StructureError("no leading gap splitting found at order hbar^(2-2N)")
    return alphas, betas
