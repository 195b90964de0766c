"""Tridiagonal eigenvalues against a plain bisection.

`tridiag.eigenvalues` isolates a set of eigenvalues together by bisection
on Sturm counts before refining each by Newton steps, in floats and in mpf
alike.  An index may come with an approximate value, and mpf entries take
one from their double-precision copy: a bracket about it that its counts
confirm replaces the Gershgorin interval as the index's start.  These
tests hold each path to the k-th eigenvalue found by a bisection written
here, at 40 digits, and to their Sturm certificates.
"""
import contextlib
import math
import sys
from decimal import Decimal

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_resurgence import tridiag
from mathieu_resurgence.errors import DomainError

DPS = 40
TOL = mpmath.mpf(10) ** -30


def _sturm(d, e, x):
    """Eigenvalues of the tridiagonal (d, e) below x, from the LDL^T pivots."""
    below, q = 0, None
    for i, di in enumerate(d):
        q = di - x if i == 0 else di - x - e[i - 1] ** 2 / (q or mpmath.mpf(10) ** -(2 * DPS))
        below += q < 0
    return below


def _bisection(d, e, k, tol):
    r = sum(abs(v) for v in d) + 2 * sum(abs(v) for v in e) + 1
    lo, hi = -r, r
    while hi - lo > tol / 4:
        mid = (lo + hi) / 2
        if _sturm(d, e, mid) <= k:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# diagonals from a small value set, so that equal entries split by small
# couplings give near-degenerate pairs
_diag = st.lists(st.sampled_from([-2, -1, 0, 1, 1, 3]), min_size=2, max_size=10)
_coupling = st.one_of(
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.integers(min_value=3, max_value=24).map(lambda j: 10.0 ** -j),
)


@st.composite
def _matrices(draw):
    base = draw(_diag)
    n = len(base)
    shifts = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    with mpmath.workdps(DPS):
        d = [mpmath.mpf(b) + mpmath.mpf(s) / 10**20 for b, s in zip(base, shifts)]
        e = [mpmath.mpf(draw(_coupling)) for _ in range(n - 1)]
    return d, e, draw(st.integers(0, n - 1))


@contextlib.contextmanager
def _pass_budget(limit):
    """Fail, rather than hang, if the Newton loop stops converging."""
    real = tridiag._count_and_step
    used = [0]

    def counted(d, e, x):
        used[0] += 1
        if used[0] > limit:
            raise AssertionError(f"no convergence in {limit} Newton passes")
        return real(d, e, x)

    tridiag._count_and_step = counted
    try:
        yield
    finally:
        tridiag._count_and_step = real


# scaled by 10^400 the float copy overflows, so the index is isolated from
# the Gershgorin interval in mpf before Newton refines it
@pytest.mark.parametrize("exponent", [0, 400], ids=["double-range", "beyond-double-range"])
@settings(max_examples=150, deadline=None)
@given(case=_matrices())
def test_eigenvalue_against_bisection(exponent, case):
    d, e, k = case
    with mpmath.workdps(DPS):
        scale = mpmath.mpf(10) ** exponent
        d, e, tol = [scale * v for v in d], [scale * v for v in e], scale * TOL
        with _pass_budget(500):
            v = tridiag.eigenvalues(d, e, [k], tol)[k]
        assert isinstance(v, mpmath.mpf)
        assert abs(v - _bisection(d, e, k, tol)) <= tol
        # the Sturm certificate, from both counts
        assert tridiag.count_below(d, e, v - tol / 2) <= k < tridiag.count_below(d, e, v + tol / 2)
        assert _sturm(d, e, v - tol / 2) <= k < _sturm(d, e, v + tol / 2)
    if exponent == 0:
        vf = tridiag.eigenvalues([float(x) for x in d], [float(x) for x in e], [k], 1e-13)[k]
        assert isinstance(vf, float)
        assert abs(float(v) - vf) <= 1e-10


def test_free_particle_pairs():
    # Hill matrix far above the barrier: the +-k plane waves pair up into
    # near-double roots split by the exponentially small gaps
    hbar, M = 8.0, 21
    with mpmath.workdps(DPS):
        d = [mpmath.mpf(hbar) ** 2 / 2 * k * k for k in range(-M, M + 1)]
        e = [mpmath.mpf(1) / 2] * (2 * M)
        tol = TOL * d[0]
        vals = tridiag.eigenvalues(d, e, (5, 6), tol)
        pair = [vals[5], vals[6]]
        for k, v in zip((5, 6), pair):
            assert tridiag.count_below(d, e, v - tol / 2) <= k < tridiag.count_below(d, e, v + tol / 2)
            assert abs(v - _bisection(d, e, k, tol)) <= tol
        assert 1e-14 < pair[1] - pair[0] < 1e-12



EPS = sys.float_info.epsilon


def _float_scale(d, e):
    """s of the float certificate t = 8 eps max(|v|, s)."""
    return max(max(map(abs, e), default=0.0), EPS * max(map(abs, d))) or sys.float_info.min


def _check_float_values(d, e, vals):
    """Each value against the 40-digit bisection of the same float matrix,
    and its certificate from the float counts."""
    s = _float_scale(d, e)
    with mpmath.workdps(DPS):
        dm, em = [mpmath.mpf(x) for x in d], [mpmath.mpf(x) for x in e]
        for k, v in vals.items():
            assert isinstance(v, float)
            t = 8 * EPS * max(abs(v), s)
            assert tridiag.count_below(d, e, v - t) <= k < tridiag.count_below(d, e, v + t)
            assert abs(v - _bisection(dm, em, k, TOL)) <= 2 * t + TOL


@settings(max_examples=80, deadline=None)
@given(case=_matrices(), data=st.data())
def test_float_eigenvalues_against_bisection(case, data):
    d, e, _ = case
    d, e = [float(x) for x in d], [float(x) for x in e]
    ks = data.draw(st.sets(st.integers(0, len(d) - 1), min_size=1))
    vals = tridiag.eigenvalues(d, e, ks)
    assert sorted(vals) == sorted(ks)
    _check_float_values(d, e, vals)
    ordered = [vals[k] for k in sorted(ks)]
    assert ordered == sorted(ordered)


@settings(max_examples=120, deadline=None)
@given(case=_matrices(), data=st.data())
def test_float_seeds_only_save_work(case, data):
    # each index gets a seed: its own value, another index's (seeds that
    # collide), one value shared by all, or a value off the spectrum.  A
    # seed whose bracket does not hold its index alone is dropped, and the
    # index gets the unseeded value; a kept one gives a value certified
    # like it
    d, e, _ = case
    d, e = [float(x) for x in d], [float(x) for x in e]
    ks = sorted(data.draw(st.sets(st.integers(0, len(d) - 1), min_size=1)))
    plain = tridiag.eigenvalues(d, e, ks)
    lo, hi = tridiag._gershgorin(d, e)
    common = data.draw(st.floats(lo - 1, hi + 1))
    choices = [*plain.values(), common, lo - 1, hi + 1]
    seeds = {k: data.draw(st.sampled_from([plain[k], *choices])) for k in ks}
    vals = tridiag.eigenvalues(d, e, seeds)
    assert sorted(vals) == ks
    _check_float_values(d, e, vals)
    w = max(abs(lo), abs(hi)) / tridiag._SEED_SPLIT
    s = _float_scale(d, e)
    for k, v in vals.items():
        a, b = seeds[k] - w, seeds[k] + w
        if not tridiag.count_below(d, e, a) == k < tridiag.count_below(d, e, b) == k + 1:
            assert v == plain[k]
        else:
            assert abs(v - plain[k]) <= 8 * EPS * (max(abs(v), s) + max(abs(plain[k]), s))


def test_float_free_particle_against_exact_diagonal():
    # e = 0: the eigenvalues are the diagonal, (k + kappa)^2 hbar^2 / 2, with
    # the +-k plane waves exactly degenerate
    hbar, M = 0.7, 30
    for kappa in (0.0, 0.5):
        d = [hbar * hbar / 2 * (k + kappa) ** 2 for k in range(-M, M + 1)]
        exact = sorted(d)
        e = [0.0] * (2 * M)
        vals = tridiag.eigenvalues(d, e, range(2 * M + 1))
        for k, v in vals.items():
            t = 8 * EPS * max(abs(v), _float_scale(d, e))
            assert abs(v - exact[k]) <= t
            assert tridiag.count_below(d, e, v - t) <= k < tridiag.count_below(d, e, v + t)


def test_float_near_degenerate_pairs():
    # Hill matrix far above the barrier: the +-k plane-wave pairs split by
    # ~1e-2 (k = 1) and ~1e-9 (k = 2) of their level, which double
    # precision resolves, and by ~1e-15 (k = 3) and less, a cluster whose
    # members share one value
    hbar, M = 8.0, 21
    d = [hbar * hbar / 2 * k * k for k in range(-M, M + 1)]
    e = [0.5] * (2 * M)
    vals = tridiag.eigenvalues(d, e, range(9))
    _check_float_values(d, e, vals)
    assert vals[1] < vals[2] and vals[3] < vals[4]
    assert vals[5] == vals[6] and vals[7] == vals[8]


def test_eigenvalues_linear_work_in_size(monkeypatch):
    # a fixed set of indices costs a bounded number of O(n) Sturm passes
    work = []
    for name in ("count_below", "_count_and_step"):
        real = getattr(tridiag, name)
        monkeypatch.setattr(
            tridiag, name, lambda d, e, x, real=real: work.append(len(d)) or real(d, e, x)
        )
    totals = []
    for M in (200, 1600):
        d = [0.001 ** 2 / 2 * k * k for k in range(-M, M + 1)]
        work.clear()
        tridiag.eigenvalues(d, [0.5] * (2 * M), range(3))
        totals.append(sum(work))
    assert 0 < totals[1] <= 12 * totals[0]  # 8x the size: linear, with slack


def test_index_out_of_range():
    with pytest.raises(ValueError):
        tridiag.eigenvalues([0.0, 1.0], [0.5], [2])
    with pytest.raises(ValueError):
        tridiag.eigenvalues([0.0, 1.0], [0.5], [-1], 1e-12)


@pytest.mark.parametrize(
    "call",
    [
        # a NaN or an infinity would never end the bisection
        ("eigenvalues", [math.nan, 2.0], [0.5], [0]),
        ("eigenvalues", [math.inf, 2.0], [0.5], [0]),
        ("eigenvalues", [1.0, 2.0], [math.nan], [0]),
        # finite entries whose Gershgorin spread overflows
        ("eigenvalues", [1e308, -1e308], [1e308], [0, 1]),
        # and whose squared coupling overflows
        ("eigenvalues", [0.0, 0.0, 0.0], [1e200, 1e200], [0]),
        ("eigenvalues", [1.0, 2.0, 3.0], [0.5], [0]),
        ("eigenvalues", [], [], []),
        # a zero tolerance never ends the bisection either
        ("eigenvalues", [Decimal(1), Decimal(2)], [Decimal("0.5")], [0], Decimal("NaN")),
        ("eigenvalues", [Decimal(1), Decimal(2)], [Decimal("0.5")], [0], Decimal(0)),
        ("count_below", [], [], 0.0),
        ("count_below", [1.0, 2.0, 3.0], [0.5], 0.0),
        ("count_below", [1.0, 2.0], [0.5, 0.5, 9.0], 0.0),
        ("count_below", [1.0, 2.0], [0.5], math.nan),
        ("count_below", [1.0, 2.0], [0.5], -math.inf),
    ],
    ids=repr,
)
def test_rejects_malformed_matrices(call):
    name, *args = call
    with pytest.raises(DomainError):
        getattr(tridiag, name)(*args)
