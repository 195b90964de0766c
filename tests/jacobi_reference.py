"""Reference Taylor expansions of Jacobi elliptic functions, for the tests.

The package computes sd^2 from its second-order equation
(``mathieu_resurgence.jacobi_exact``).  This module takes another route,
one Glaisher triple (y1, y2, y3) with

    y1' = y2 y3,   y2' = a y1 y3,   y3' = b y1 y2,   y(0) = (0, 1, 1):

    (sn, cn, dn)(. | mu):  a = -1,       b = -mu;
    (sd, cd, nd)(. | m):   a = -(1-m),   b = m;
    (sc, dc, nc)(. | mu):  a = 1 - mu,   b = 1.

So sd^2 and nc^2 = 1/cn^2 are squares of triple members, and no series is
ever inverted.  Left at its default, the PolyB generator of Q[m], the
parameter m makes every coefficient a polynomial in m; given as a rational
p/q, the recursion runs on Python integers.  It is the oracle for the
package's sd^2 and the source of the descent-line data that
``tests/test_zerodim.py`` feeds to the Gaussian-moment engine, which lives
here as well: ``saddle_series`` expands a saddle by exponentiating its
Taylor data with ``PolySeries.exp`` and replacing each power by its
Gaussian moment, the route that the closed form of
``zerodim.lame_saddles`` is checked against.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import comb, factorial

from mathieu_resurgence.errors import DomainError
from mathieu_resurgence.series import PolyB, PolySeries
from mathieu_resurgence.zerodim import SaddleExpansion

_M = PolyB((0, 1))  # the parameter m as a polynomial


def _ratio(m):
    """(p, q) with m = p/q: integers at a rational m, (m, 1) over Q[m]."""
    if isinstance(m, PolyB):
        return m, 1
    m = Q(m)
    return m.numerator, m.denominator


def _triple(order: int, a, b, q) -> tuple[list, list, list]:
    """Scaled Taylor numerators of the Glaisher triple with parameters
    a/q and b/q, to z^order.

    Entry k of each list is k! q^(k//2) y_k.  The coefficient y_k has
    degree <= k//2 in a/q and b/q, so the recursion

        Y1[k+1] = sum_i C(k, i) Y2[i] Y3[k-i],
        Y2[k+1] = a sum_i C(k, i) Y1[i] Y3[k-i],
        Y3[k+1] = b sum_i C(k, i) Y1[i] Y2[k-i]

    stays in the ring of a, b and q: integers at a rational m.  y1 is odd
    and y2, y3 are even, so each sum runs over one parity of i only.
    """
    if order < 0:
        raise DomainError(f"truncation order must be >= 0, got {order}")
    y1, y2, y3 = ([0] * (order + 1) for _ in range(3))
    y2[0] = y3[0] = 1
    for k in range(order):
        if k % 2 == 0:
            y1[k + 1] = sum(comb(k, i) * y2[i] * y3[k - i] for i in range(0, k + 1, 2))
        else:
            odd = range(1, k + 1, 2)
            y2[k + 1] = a * sum(comb(k, i) * y1[i] * y3[k - i] for i in odd)
            y3[k + 1] = b * sum(comb(k, i) * y1[i] * y2[k - i] for i in odd)
    return y1, y2, y3


def _coeffs(y: list, q) -> list:
    """Taylor coefficients y_k from the scaled numerators of ``_triple``."""
    return [v * Q(1, factorial(k) * q ** (k // 2)) for k, v in enumerate(y)]


def _square(y: list, q, odd: int) -> list:
    """Taylor coefficients of (triple member)^2 from its scaled numerators;
    ``odd`` is the parity of the member."""
    out = [Q(0)] * len(y)
    for n in range(2 * odd, len(y), 2):
        s = sum(comb(n, i) * y[i] * y[n - i] for i in range(odd, n + 1, 2))
        out[n] = s * Q(1, factorial(n) * q ** (n // 2 - odd))
    return out


def jacobi_taylor(order: int, m=_M) -> tuple[PolySeries, PolySeries, PolySeries]:
    """(sn, cn, dn) about z = 0 to z^order; coefficients in Q[m], or in Q
    when m is a rational."""
    p, q = _ratio(m)
    return tuple(PolySeries("z", order, _coeffs(y, q)) for y in _triple(order, -q, -p, q))


def sd_squared_taylor(order: int, m=_M) -> PolySeries:
    """sd^2(z | m) = (sn/dn)^2 about z = 0, from the (sd, cd, nd) triple."""
    p, q = _ratio(m)
    return PolySeries("z", order, _square(_triple(order, p - q, p, q)[0], q, 1))


def cn_taylor_flipped(order: int, m=_M) -> PolySeries:
    """cn(z | 1-m) about z = 0, with coefficients in the same ring as m."""
    p, q = _ratio(m)
    return PolySeries("z", order, _coeffs(_triple(order, -q, p - q, q)[1], q))


def saddle_potential_real(order: int, m=_M) -> PolySeries:
    """(1-m) sd^2 along the steepest-descent line through the saddle at K(m).

    With z = K(m) + i s, sd^2(z | m) = 1 / ((1-m) cn^2(s | 1-m)); the
    returned series is nc^2(s | 1-m), from the (sc, dc, nc) triple at 1-m.
    """
    p, q = _ratio(m)
    return PolySeries("z", order, _square(_triple(order, p, q, q)[2], q, 0))


def saddle_potential_imag(order: int, m=_M) -> PolySeries:
    """-m * sd^2 along the imaginary axis through i K(1-m).

    With z = i (K(1-m) + s), sd^2(z | m) = -cn^2(s | 1-m) / m; the returned
    series is cn^2(s | 1-m), from the (sn, cn, dn) triple at 1-m.
    """
    p, q = _ratio(m)
    return PolySeries("z", order, _square(_triple(order, -q, p - q, q)[1], q, 0))


def _dfac(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gaussian_moments(taylor: list[Q], c2: Q, order: int) -> list[Q]:
    """Coefficients b_0..b_order of sum_r b_r hbar^r, the Gaussian-moment
    expansion of int exp(-(f - f(0))/hbar) ds / sqrt(pi hbar / c2).

    ``taylor`` holds the rationals c_k of f = sum_k c_k s^k, with c_1 = 0
    and c_2 = ``c2``.  With s -> sqrt(hbar) s, exp(-A) has
    A = sum_{k>=3} c_k delta^(k-2) s^k, delta = sqrt(hbar): a delta-series
    whose coefficients are polynomials in s (PolyB), exponentiated by
    ``PolySeries.exp``.  b_r is its delta^(2r) coefficient with each s^(2j)
    replaced by the Gaussian moment <s^(2j)> = (2j-1)!!/(2 c2)^j.
    """
    A = PolySeries("delta", 2 * order, [0] + [
        PolyB([0] * (d + 2) + [taylor[d + 2]]) for d in range(1, 2 * order + 1)
    ])
    e = (-A).exp()
    out = []
    for r in range(order + 1):
        p = e[2 * r]  # even in s: a delta^d term carries s^(d + 2n) from A^n
        out.append(sum((p[2 * j] * _dfac(2 * j - 1) / (2 * c2) ** j
                        for j in range(p.degree // 2 + 1)), Q(0)))
    return out


def saddle_series(taylor, order: int) -> SaddleExpansion:
    """Gaussian-moment expansion about a nondegenerate saddle: the reference
    engine that the closed form of ``lame_saddles`` is checked against.

    ``taylor``: exact coefficients [c0, c1, c2, c3, ...] of f along the
    (possibly rotated) descent direction; requires c1 = 0 and c2 > 0.
    """
    if order < 0:
        raise DomainError(f"expansion order must be >= 0, got {order}")
    taylor = [c.const_value() if isinstance(c, PolyB) else Q(c) for c in taylor]
    if len(taylor) < 2 * order + 3:
        raise DomainError(
            f"order {order} needs Taylor data c_0..c_{2 * order + 2}, got {len(taylor)} entries"
        )
    if taylor[1] != 0:
        raise DomainError("need Taylor data [S, 0, c2, ...] along the descent line")
    c2 = taylor[2]
    if c2 <= 0:
        raise DomainError("degenerate or wrongly oriented saddle: c2 must be > 0")
    return SaddleExpansion(taylor[0], c2, _gaussian_moments(taylor, c2, order))
