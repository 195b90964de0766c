"""Symmetric tridiagonal eigenvalues by index, certified by Sturm counts
(Barth, Martin & Wilkinson, Numer. Math. 9, 1967).

One entry point, `eigenvalues`, computes a set of indices.  Each index may
come with an approximate value (the same eigenvalue at a smaller Fourier
truncation, say); entries that are not floats (decimal.Decimal for the
extended-precision tier that exponentially narrow widths require, or
mpmath.mpf) take the values of the double-precision copy of the matrix
when none are given.  An approximation is bracketed by 1e-6 of the
Gershgorin scale either side, and the bracket is kept when two Sturm counts
show that it holds its index alone; the other indices share the
Gershgorin interval.  Both kinds of interval go on one work list, in every
arithmetic type: an interval is split by bisection on Sturm counts only
while it holds a requested index and more than one eigenvalue (in double
precision, also while it is too wide for the certificate below), so that
the counts per index grow only with the logarithm of the spectrum's
spread, and each isolated eigenvalue is then refined.

Inside a bracket, Newton steps on det(T - x) refine the eigenvalue, and
each step's Sturm count shrinks the bracket; a step that leaves the
bracket or stalls becomes a bisection step.  Newton needs an isolating
bracket: the free-particle limit has near-double roots (the +-k plane-wave
pairs), on which it converges only linearly from a distant start.  Every
value v returned for index k carries a Sturm certificate
count_below(v - t) <= k < count_below(v + t).
"""
from __future__ import annotations

import math
import sys
from itertools import islice
from typing import Iterable, Sequence

from .errors import DomainError, require_integer

__all__ = ["count_below", "eigenvalues"]

# an approximate eigenvalue's bracket reaches the Gershgorin scale over
# this either side (an integer, so that it divides any arithmetic type)
_SEED_SPLIT = 10 ** 6
_EPS = sys.float_info.epsilon


def _tiny(x):
    """The stand-in for a zero Sturm pivot at shift x, in x's arithmetic."""
    t = 1e-300 if isinstance(x, (int, float)) else type(x)(1e-300)
    return abs(x) * t + t


def _finite(x) -> bool:
    """x is neither NaN nor infinite, for a float, a Decimal or an mpf."""
    return x == x and abs(x) != math.inf


def count_below(d: Sequence, e: Sequence, x) -> int:
    """Number of eigenvalues strictly below x (Sturm sign count).

    d: diagonal (n entries), e: off-diagonal (n-1 entries).  Only the
    lengths and the shift are checked: `eigenvalues` checks the entries.
    """
    n = len(d)
    if not n or len(e) != n - 1 or x != x or abs(x) == math.inf:
        raise DomainError(f"n >= 1 diagonal entries, n - 1 couplings and a finite shift "
                          f"required, got {n}, {len(e)} and {x!r}")
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    for di, ei in zip(islice(d, 1, None), e):
        if q == 0:
            q = _tiny(x)
        q = di - x - ei * ei / q
        if q < 0:
            count += 1
    return count


def _count_and_step(d: Sequence, e2: Sequence, x):
    """Sturm count below x and the Newton step for det(T - x), in one pass
    over the diagonal d and the squared couplings e2.

    det(T - x) is the product of the Sturm pivots q_i, so the step
    -det/det' is -1 / sum(q_i'/q_i), with q_i' from differentiating the
    pivot recurrence.  The step is None where that sum vanishes.
    """
    count = 0
    q, dq, s = d[0] - x, -1, 0
    for di, e2i in zip(islice(d, 1, None), e2):
        if q < 0:
            count += 1
        elif q == 0:
            q = _tiny(x)
        s += dq / q
        r = e2i / q
        q, dq = di - x - r, r * dq / q - 1
    if q < 0:
        count += 1
    elif q == 0:
        q = _tiny(x)
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


def eigenvalues(d: Sequence, e: Sequence, ks: Iterable[int], tol=None) -> dict:
    """The eigenvalues of indices ks (0 = smallest).

    ks: the indices, or a dict from each index to an approximate value of
    its eigenvalue.  An approximation only saves work: one that its
    bracket's counts refute is dropped.

    Float entries: each value v for index k carries the certificate
    count_below(v - t) <= k < count_below(v + t), t = 8 eps max(|v|, s),
    with s = max(max|e_i|, eps max|d_i|) (the smallest normal float for a
    zero matrix); tol is not used.  Members of a cluster narrower than
    that, which double precision cannot split, share one value.

    Entries of another type: tol is the absolute tolerance, and each value
    carries count_below(v - tol/2) <= k < count_below(v + tol/2), counted
    in that type.

    DomainError unless each index is an integer in 0..n-1, the entries are
    finite, and the Gershgorin spread and the squared couplings are finite
    in their arithmetic.
    """
    approx = dict(ks) if isinstance(ks, dict) else {}
    ks = sorted({require_integer("eigenvalue index", k, 0) for k in ks})
    if not len(d) or len(e) != len(d) - 1:
        raise DomainError(f"n >= 1 diagonal entries and n - 1 couplings required, got "
                          f"{len(d)} and {len(e)}")
    if ks and ks[-1] >= len(d):
        raise DomainError(f"eigenvalue index outside 0..{len(d) - 1}")
    if not ks:
        return {}
    floats = isinstance(d[0], float)
    if not floats and not (tol is not None and _finite(tol) and tol > 0):
        raise DomainError(f"finite tol > 0 required for entries not floats, got {tol!r}")
    # a NaN never ends the bisection, and an infinity or an overflowing
    # spread or coupling square makes the Sturm pivots NaN
    finite = math.isfinite if floats else _finite
    if not (all(map(finite, d)) and all(map(finite, e))):
        raise DomainError("finite matrix entries required")
    lo, hi = _gershgorin(d, e)
    e2 = [v * v for v in e]
    if not (_finite(hi - lo) and _finite(max(e2, default=0))):
        raise DomainError("matrix entries too large for the Sturm counts in their arithmetic")
    unit = type(lo)
    span = float(hi) - float(lo)
    if not (floats or approx) and math.isfinite(span * span):
        # the double-precision copy, unless its spread or a squared coupling
        # leaves the double range
        approx = eigenvalues([float(v) for v in d], [float(v) for v in e], ks)
    if floats:
        s = max(max(map(abs, e), default=0.0), _EPS * max(map(abs, d))) or sys.float_info.min
    w = max(abs(lo), abs(hi)) / _SEED_SPLIT
    # (a, b, count_below(a), count_below(b), the indices inside): a seed's
    # bracket where its two counts confirm it, and the Gershgorin interval
    # for every other index
    todo, rest = [], []
    for k in ks:
        if k in approx:
            v = unit(approx[k])
            a, b = v - w, v + w
            if count_below(d, e, a) == k and count_below(d, e, b) == k + 1:
                todo.append((a, b, k, k + 1, [k]))
                continue
        rest.append(k)
    if rest:
        todo.append((lo, hi, 0, len(d), rest))
    out: dict = {}
    while todo:
        a, b, ca, cb, want = todo.pop()
        if floats:
            wide = max(abs(a), abs(b), s)
            tol = 8 * _EPS * wide
            near = min(abs(a), abs(b)) if a * b > 0 else 0.0
        if b - a <= tol:
            out.update(dict.fromkeys(want, (a + b) / 2))
            continue
        # refine an isolated eigenvalue; in floats, once wide <= 2 max(|v|, s)
        # for every v in [a, b]: then tol/2 <= t, and the refined value's
        # certificate is the documented one
        if cb - ca == 1 and (not floats or wide <= 2 * max(near, s)):
            out[want[0]] = _refine(d, e, e2, want[0], a, b, tol)
            continue
        x = (a + b) / 2
        c = min(max(count_below(d, e, x), ca), cb)
        below = [k for k in want if k < c]
        if len(below) < len(want):
            todo.append((x, b, c, cb, want[len(below):]))
        if below:
            todo.append((a, x, ca, c, below))
    return out


def _refine(d: Sequence, e: Sequence, e2: Sequence, k: int, lo, hi, tol):
    """The k-th eigenvalue from a bracket with count_below(lo) <= k <
    count_below(hi), by safeguarded Newton steps; e2 holds the squares of
    the couplings e."""
    x, last = (lo + hi) / 2, hi - lo
    while hi - lo > tol:
        c, step = _count_and_step(d, e2, x)
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
