"""Symmetric tridiagonal eigenvalues by index, certified by Sturm counts
(Barth, Martin & Wilkinson, Numer. Math. 9, 1967).

One entry point, `eigenvalues`, computes a set of indices.  In double
precision the indices are isolated together by bisection on Sturm counts,
an interval being split only while it holds a requested index and more
than one eigenvalue.  The counts per index grow only with the logarithm of
the spectrum's spread, so the work for a fixed set of indices is linear in
the size of the matrix, up to that logarithm.  Entries of another
arithmetic type (mpmath.mpf for the extended-precision tier that
exponentially narrow widths require) take the double-precision values of
the float copy of the matrix, bracket each by about 1e-12 of its
Gershgorin scale, certify that bracket by two counts in the caller's type
(the Gershgorin bracket replaces it if they do not) and refine it there.

Inside a bracket that holds the requested eigenvalue alone, Newton steps
on det(T - x) refine it, and each step's Sturm count shrinks the bracket; a
step that leaves the bracket or stalls becomes a bisection step.  Newton
needs that isolating bracket: the free-particle limit has near-double
roots (the +-k plane-wave pairs), on which it converges only linearly from
a distant start.  Every value v returned for index k carries a Sturm
certificate count_below(v - t) <= k < count_below(v + t).
"""
from __future__ import annotations

import math
import sys
from itertools import islice
from typing import Iterable, Sequence

from .errors import DomainError

__all__ = ["count_below", "eigenvalues"]

# relative width of the double-precision bracket handed to Newton in
# another arithmetic type
_FLOAT_BRACKET = 1e-12
_EPS = sys.float_info.epsilon


def count_below(d: Sequence, e: Sequence, x) -> int:
    """Number of eigenvalues strictly below x (Sturm sign count).

    d: diagonal (n entries), e: off-diagonal (n-1 entries).
    """
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    tiny = abs(x) * 1e-300 + 1e-300
    for di, ei in zip(islice(d, 1, None), e):
        if q == 0:
            q = tiny
        q = di - x - ei * ei / q
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
    for di, ei in zip(islice(d, 1, None), e):
        if q < 0:
            count += 1
        elif q == 0:
            q = tiny
        s += dq / q
        r = ei * ei / q
        q, dq = di - x - r, r * dq / q - 1
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


def _check_indices(n: int, ks) -> None:
    if any(not 0 <= k < n for k in ks):
        raise DomainError(f"eigenvalue index outside 0..{n - 1}")


def eigenvalues(d: Sequence, e: Sequence, ks: Iterable[int], tol=None) -> dict:
    """The eigenvalues of indices ks (0 = smallest).

    Float entries: each value v for index k carries the certificate
    count_below(v - t) <= k < count_below(v + t), t = 8 eps max(|v|, s),
    with s = max(max|e_i|, eps max|d_i|) (the smallest normal float for a
    zero matrix); tol is not used.  Members of a cluster narrower than
    that, which double precision cannot split, share one value.

    Entries of another type: tol is the absolute tolerance, and each value
    carries count_below(v - tol/2) <= k < count_below(v + tol/2), counted
    in that type.
    """
    ks = sorted(set(ks))
    _check_indices(len(d), ks)
    if not ks:
        return {}
    if not isinstance(d[0], float):
        if tol is None:
            raise DomainError("tol required for entries that are not floats")
        lo, hi = _gershgorin(d, e)
        brackets = dict.fromkeys(ks, (lo, hi))
        flo, fhi = float(lo), float(hi)
        if math.isfinite(flo) and math.isfinite(fhi):  # else beyond double range
            w = _FLOAT_BRACKET / 2 * max(abs(flo), abs(fhi))
            approx = eigenvalues([float(v) for v in d], [float(v) for v in e], ks)
            for k, v in approx.items():
                a, b = type(lo)(v - w), type(lo)(v + w)
                if count_below(d, e, a) <= k < count_below(d, e, b):
                    brackets[k] = a, b
        return {k: _refine(d, e, k, a, b, tol) for k, (a, b) in brackets.items()}
    s = max(max(map(abs, e), default=0.0), _EPS * max(map(abs, d))) or sys.float_info.min
    lo, hi = _gershgorin(d, e)
    out: dict[int, float] = {}
    todo = [(lo, hi, 0, len(d), ks)]
    while todo:
        a, b, ca, cb, want = todo.pop()
        wide = max(abs(a), abs(b), s)
        tol = 8 * _EPS * wide
        if b - a <= tol:
            out.update(dict.fromkeys(want, (a + b) / 2))
            continue
        # refine an isolated eigenvalue once wide <= 2 max(|v|, s) for every
        # v in [a, b]: then tol/2 <= t, and the refined value's certificate
        # is the documented one
        near = min(abs(a), abs(b)) if a * b > 0 else 0.0
        if cb - ca == 1 and wide <= 2 * max(near, s):
            out[want[0]] = _refine(d, e, want[0], a, b, tol)
            continue
        x = (a + b) / 2
        c = min(max(count_below(d, e, x), ca), cb)
        below = [k for k in want if k < c]
        if len(below) < len(want):
            todo.append((x, b, c, cb, want[len(below):]))
        if below:
            todo.append((a, x, ca, c, below))
    return out


def _refine(d: Sequence, e: Sequence, k: int, lo, hi, tol):
    """The k-th eigenvalue from a bracket with count_below(lo) <= k <
    count_below(hi), by safeguarded Newton steps."""
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
