"""Symmetric tridiagonal eigenvalues, one index at a time, certified by
Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).

Generic over the arithmetic type: floats for the fast path and mpmath.mpf
for the extended-precision tier that exponentially narrow widths require.
Only the requested index is computed, which is all the band-edge
extraction needs.

Floats are bisected from the Gershgorin bracket.  Any other type is
bracketed first in double precision: the float copy of the matrix is
bisected to about 1e-12 of its Gershgorin scale, and two counts in the
caller's type certify that bracket (the Gershgorin bracket replaces it if
they do not).  Newton steps on det(T - x) then refine the eigenvalue
inside the bracket, and each step's Sturm count shrinks the bracket; a
step that leaves the bracket or stalls becomes a bisection step.  Newton
needs that isolating bracket: the free-particle limit has near-double
roots (the +-k plane-wave pairs), on which it converges only linearly
from a distant start.
"""
from __future__ import annotations

import math
from typing import Sequence

__all__ = ["count_below", "eigenvalue"]

# relative width of the double-precision bracket handed to Newton
_FLOAT_BRACKET = 1e-12


def count_below(d: Sequence, e: Sequence, x) -> int:
    """Number of eigenvalues strictly below x (Sturm sign count).

    d: diagonal (n entries), e: off-diagonal (n-1 entries).
    """
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    tiny = abs(x) * 1e-300 + 1e-300
    for i in range(1, len(d)):
        if q == 0:
            q = tiny
        q = d[i] - x - e[i - 1] * e[i - 1] / q
        if q < 0:
            count += 1
    return count


def _count_and_step(d: Sequence, e: Sequence, x):
    """Sturm count below x and the Newton step for det(T - x), in one pass.

    det(T - x) is the product of the Sturm pivots q_i, so the step
    -det/det' is -1 / sum(q_i'/q_i), with q_i' from differentiating the
    pivot recurrence.  The step is None where that sum vanishes.
    """
    count = 0
    tiny = abs(x) * 1e-300 + 1e-300
    q, dq, s = d[0] - x, -1, 0
    for i in range(1, len(d)):
        if q < 0:
            count += 1
        elif q == 0:
            q = tiny
        s += dq / q
        r = e[i - 1] * e[i - 1] / q
        q, dq = d[i] - x - r, r * dq / q - 1
    if q < 0:
        count += 1
    elif q == 0:
        q = tiny
    s += dq / q
    return count, (-1 / s if s else None)


def _gershgorin(d: Sequence, e: Sequence):
    lo = hi = d[0]
    n = len(d)
    for i in range(n):
        r = (abs(e[i - 1]) if i > 0 else 0) + (abs(e[i]) if i < n - 1 else 0)
        lo = min(lo, d[i] - r)
        hi = max(hi, d[i] + r)
    one = d[0] * 0 + 1  # unit of the arithmetic type in use
    return lo - one, hi + one


def _bisect(d: Sequence, e: Sequence, k: int, lo, hi, tol):
    """Shrink [lo, hi] around the k-th eigenvalue to width tol."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if count_below(d, e, mid) <= k:
            lo = mid
        else:
            hi = mid
    return lo, hi


def eigenvalue(d: Sequence, e: Sequence, k: int, tol):
    """k-th smallest eigenvalue (k = 0 based) to absolute tolerance tol.

    The value v returned carries its Sturm certificate:
    count_below(v - tol/2) <= k < count_below(v + tol/2).
    """
    lo, hi = _gershgorin(d, e)
    if isinstance(d[0], float):
        lo, hi = _bisect(d, e, k, lo, hi, tol)
        return (lo + hi) / 2
    lo, hi = _float_bracket(d, e, k, lo, hi)
    x, last = (lo + hi) / 2, hi - lo
    while hi - lo > tol:
        c, step = _count_and_step(d, e, x)
        if c <= k:
            lo = x
        else:
            hi = x
        if step is not None and abs(step) <= tol / 4:
            v = x + step
            below, above = count_below(d, e, v - tol / 2), count_below(d, e, v + tol / 2)
            if below <= k < above:
                return v
            # converged onto a neighbouring root: the counts move the bracket
            if below > k:
                hi = min(hi, v - tol / 2)
            if above <= k:
                lo = max(lo, v + tol / 2)
            x, last = (lo + hi) / 2, hi - lo
        elif step is None or not lo < x + step < hi or abs(step) > last / 2:
            x, last = (lo + hi) / 2, hi - lo
        else:
            x, last = x + step, abs(step)
    return (lo + hi) / 2


def _float_bracket(d: Sequence, e: Sequence, k: int, lo, hi):
    """Narrow [lo, hi] to the k-th eigenvalue of the float copy of (d, e),
    bisected in double precision; two counts in the caller's type certify
    the result, and [lo, hi] is kept where they do not."""
    flo, fhi = float(lo), float(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):  # beyond double range
        return lo, hi
    df, ef = [float(v) for v in d], [float(v) for v in e]
    flo, fhi = _bisect(df, ef, k, flo, fhi, _FLOAT_BRACKET * max(abs(flo), abs(fhi)))
    clo, chi = type(lo)(flo), type(lo)(fhi)
    if count_below(d, e, clo) <= k < count_below(d, e, chi):
        return clo, chi
    return lo, hi
