"""Exact small-q expansions of Mathieu characteristic values a_N(q), b_N(q).

Standard form y'' + (A - 2 q cos 2z) y = 0.  The band problem maps onto
this with q = 4/hbar^2 and u = (hbar^2/8) A.  Coefficients are produced by
harmonic balance: expand the eigenfunction over cos(mz) (for a_N) or
sin(mz) (for b_N) with m of the parity of N, feed the three-term coupling
of 2 cos 2z back order by order, and read the characteristic-value
correction off the resonant harmonic.
"""
from __future__ import annotations

from fractions import Fraction as Q

from .errors import DomainError, require_integer
from .series import PolyB, PolySeries

__all__ = ["char_a", "char_b"]


def _conv(vec: dict[int, Q], sine: bool) -> dict[int, Q]:
    """Multiply a cosine (or, with ``sine``, a sine) series by 2 cos 2z:
    cos m -> cos(m+2) + cos|m-2|, and sin m -> sin(m+2) + sin(m-2), with
    sin(-k) = -sin k and sin 0 = 0."""
    out: dict[int, Q] = {}
    for m, c in vec.items():
        if not c:
            continue
        out[m + 2] = out.get(m + 2, Q(0)) + c
        mm = m - 2
        if not sine or mm > 0:
            out[abs(mm)] = out.get(abs(mm), Q(0)) + c
        elif mm < 0:
            out[-mm] = out.get(-mm, Q(0)) - c
    return out


def _char_series(N: int, order: int, kind: str) -> PolySeries:
    N, order = require_integer("label N", N, 0), require_integer("order", order, 0)
    if kind == "b" and N == 0:
        raise DomainError("b_0 does not exist")
    # coefficient vectors per q-order: list of dict harmonic -> Q
    A: list[dict[int, Q]] = [{N: Q(1)}]
    alpha: list[Q] = [Q(N * N)]
    for j in range(1, order + 1):
        # q * (2 cos 2z) * y at order j uses y at order j-1
        rhs: dict[int, Q] = dict(_conv(A[j - 1], kind == "b"))
        # alpha_i corrections from lower orders
        for i in range(1, j):
            for m, c in A[j - i].items():
                if c:
                    rhs[m] = rhs.get(m, Q(0)) - alpha[i] * c
        # resonant harmonic fixes alpha_j; others solve (N^2 - m^2) A_m = ...
        aj = rhs.get(N, Q(0))
        alpha.append(aj)
        new: dict[int, Q] = {}
        for m, c in rhs.items():
            if m == N or not c:
                continue
            if kind == "b" and m == 0:
                continue  # sin 0 absent
            new[m] = c / Q(N * N - m * m)
        A.append(new)
    return PolySeries("q", order, [PolyB.const(x) for x in alpha])


def char_a(N: int, order: int) -> PolySeries:
    """a_N(q) as an exact series in q."""
    return _char_series(N, order, "a")


def char_b(N: int, order: int) -> PolySeries:
    """b_N(q) as an exact series in q, N >= 1."""
    return _char_series(N, order, "b")
