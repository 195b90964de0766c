"""Independent references that only the tests read.

Each function here reaches a quantity the package computes by another
route, built from package primitives alone (``dunham.high_action_series``,
``newton_solve``, ``zjj_construct``, ``PolySeries.exp``, ``rs_series`` and
the action closed forms), so that the agreement the tests assert is a real
check and no route is folded into the one it checks:

* ``bs_invert_strong``: the strong-coupling WKB inversion, against the
  characteristic-value series of ``charvalues``;
* ``p_inst_from_zjj``: the one-instanton fluctuation series from the
  quantization functions, against ``widths.p_inst``;
* ``lame_energy_series``: the elliptic-well ground-state energy in its
  printed normalization, from the Bender-Wu recursion;
* ``wronskian_defect`` and ``barrier_top_a0``: the Legendre-relation
  identity of the action closed forms, and their leading barrier-top form.
"""
from __future__ import annotations

import math
from fractions import Fraction as Q

from mathieu_resurgence import dunham, spectral
from mathieu_resurgence.actions import action_leading, action_leading_derivative
from mathieu_resurgence.benderwu import lame_potential, rs_series
from mathieu_resurgence.errors import DomainError
from mathieu_resurgence.series import PolyB, PolySeries, newton_solve


def bs_invert_strong(order: int, depth: int = 8) -> PolySeries:
    """Invert hbar N / 2 = a(hbar, u) for u >> 1.

    Returns u / a^2, a = N hbar / 2, as a series in 1/a through
    (1/a)^(depth + 2) whose coefficients are polynomials in hbar^2 of degree
    <= ``order``, written in the B slot as ``zjj_construct`` writes E there.
    """
    if order < 0 or depth < 0:
        raise DomainError("order >= 0 and depth >= 0 required")
    acts = dunham.high_action_series(order, depth + 2 * order + 2)
    # Each a_n is sum_h c_{n,h} s^h with s = sqrt(2u).  With t = 1/a,
    # y = hbar^2 and s = a (1 + d), the condition over a reads
    # 1 = sum_{n,h} c_{n,h} y^n t^(1-h) (1+d)^h: a polynomial in d whose
    # coefficients are t-series over Q[y].  As a_0 = s + O(s^-3) and
    # a_n = O(s^(-3-2n)) for n >= 1, d = O(t^4), so d^j vanishes past
    # j = kmax // 4 and the binomial expansion of (1+d)^h stops there (at
    # j = 1 or later, so that newton_solve has a derivative).
    kmax = depth + 2
    jmax = max(1, kmax // 4)
    coeffs = [[PolyB()] * (kmax + 1) for _ in range(jmax + 1)]
    for n, row in enumerate(acts):
        for h, c in row.items():
            if 1 - h <= kmax:
                cj = c  # c_{n,h} times the binomial coefficient C(h, j)
                for j in range(jmax + 1):
                    coeffs[j][1 - h] += PolyB((0,) * n + (cj,))
                    cj = cj * (h - j) / (j + 1)
    d = newton_solve(
        [PolySeries("1/a", kmax, col) for col in coeffs], PolySeries.const("1/a", kmax, 1), 0
    )
    return ((1 + d) ** 2 / 2).map_coeffs(lambda p: PolyB(p.c[: order + 1]))


def p_inst_from_zjj(order: int) -> PolySeries:
    """Independent route: P = (dE/dB) exp(-(A - 16/hbar)/2) from the
    quantization functions; must agree with ``p_inst`` identically."""
    z = spectral.zjj_construct(order + 1)
    dEdB = z.E_of_B.derivative_B().truncate(order)
    half_A = z.A_of_B.truncate(order) / 2
    return dEdB * (-half_A).exp()


def lame_energy_series(m: Q, order: int) -> list[Q]:
    """Ground-state energy of the elliptic (Lame-type) 1D problem in the
    normalization E(hbar | m) = 1 + c1 hbar + c2 hbar^2 + ...

    The quoted normalization has kinetic term xdot^2/4 and potential
    sd^2(sqrt(hbar) x | m)/hbar; undoing the scalings maps it onto
    (2/hbar) x [eigenvalue of -(hbar^2/2) d^2 + sd^2/2].
    """
    V = lame_potential(Q(m), 2 * order + 2)
    bw = rs_series(V, 0, order + 1)
    out = [Q(2) * bw[1].const_value()]  # = 1
    for k in range(2, order + 2):
        out.append(2 * bw[k].const_value())
    return out


def wronskian_defect(u: float) -> complex:
    """a0D a0' - a0 a0D' - 2i/pi, which vanishes by the Legendre relation.

    Note the orientation: with Im a0D >= 0 (the convention of ``actions``)
    the dual cycle enters the Wronskian bilinear with reversed sign relative
    to the ordering a0 a0D' - a0D a0'.
    """
    if not -1 < u < 1:
        raise DomainError("Wronskian check needs -1 < u < 1")
    a0, a0d = action_leading(u)
    da0, da0d = action_leading_derivative(u)
    return a0d * da0 - a0 * da0d - complex(0, 2 / math.pi)


def barrier_top_a0(u: float) -> float:
    """Leading barrier-top behavior 4/pi + (u-1)/(2 pi) [ln(32/(u-1)) + 1].

    Valid for u slightly above 1; for u slightly below use |u-1| with the
    same logarithm (the printed leading form).
    """
    if not math.isfinite(u):
        raise DomainError(f"finite u required, got {u!r}")
    du = u - 1.0
    if du == 0:
        return 4 / math.pi
    return 4 / math.pi + du / (2 * math.pi) * (math.log(abs(32 / du)) + 1)
