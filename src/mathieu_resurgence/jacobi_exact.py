"""Exact Taylor expansions of Jacobi elliptic functions.

The elliptic parameter m is an argument: left at its default, the PolyB
generator of Q[m], every coefficient is a polynomial in m; given as a
rational, every coefficient is a constant PolyB, i.e. a number in Q.  One
order-by-order convolution recursion on sn' = cn dn, cn' = -sn dn,
dn' = -m sn cn serves both rings.  No floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction as Q

from .series import PolyB, PolySeries

__all__ = [
    "jacobi_taylor",
    "sd_squared_taylor",
    "cn_taylor_flipped",
    "saddle_potential_real",
    "saddle_potential_imag",
]

_M = PolyB((0, 1))  # the parameter m as a polynomial


def jacobi_taylor(order: int, m=_M) -> tuple[PolySeries, PolySeries, PolySeries]:
    """(sn, cn, dn) about z = 0 to z^order; coefficients in Q[m], or in Q
    when m is a rational."""
    n = order
    s = [PolyB() for _ in range(n + 1)]
    c = [PolyB() for _ in range(n + 1)]
    d = [PolyB() for _ in range(n + 1)]
    c[0] = PolyB.const(1)
    d[0] = PolyB.const(1)

    def conv(a, b, k):
        tot = PolyB()
        for i in range(k + 1):
            if a[i] and b[k - i]:
                tot = tot + a[i] * b[k - i]
        return tot

    for k in range(n):
        inv = Q(1, k + 1)
        s[k + 1] = conv(c, d, k) * inv
        c[k + 1] = -conv(s, d, k) * inv
        d[k + 1] = -m * conv(s, c, k) * inv
    mk = lambda coeffs: PolySeries("z", n, coeffs)
    return mk(s), mk(c), mk(d)


def sd_squared_taylor(order: int, m=_M) -> PolySeries:
    """sd^2(z | m) = (sn/dn)^2 about z = 0."""
    sn, _cn, dn = jacobi_taylor(order, m)
    dn2 = dn * dn
    return sn * sn * dn2.inverse()


def cn_taylor_flipped(order: int, m=_M) -> PolySeries:
    """cn(z | 1-m) about z = 0, with coefficients in the same ring as m."""
    return jacobi_taylor(order, 1 - m)[1]


def saddle_potential_real(order: int, m=_M) -> PolySeries:
    """(1-m) sd^2 along the steepest-descent line through the saddle at K(m).

    With z = K(m) + i s, sd^2(z | m) = 1 / ((1-m) cn^2(s | 1-m)), a real
    function of s with value 1/(1-m) and curvature +1/(1-m) at s = 0.  The
    prefactor 1/(1-m) is not polynomial in m, so it is stripped: the
    returned series is 1/cn^2(s | 1-m), the inverse of
    ``saddle_potential_imag``.
    """
    return saddle_potential_imag(order, m).inverse()


def saddle_potential_imag(order: int, m=_M) -> PolySeries:
    """-m * sd^2 along the imaginary axis through i K(1-m).

    With z = i (K(1-m) + s), sd^2(z | m) = -cn^2(s | 1-m) / m; the returned
    series is cn^2(s | 1-m), so the potential is -(series)/m.
    """
    cnf = cn_taylor_flipped(order, m)
    return cnf * cnf
