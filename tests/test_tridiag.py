"""Extended-precision tridiagonal eigenvalues against a plain bisection.

`tridiag.eigenvalue` brackets an mpf eigenvalue in double precision and
refines it by Newton steps; these tests hold it to the k-th eigenvalue
found by a bisection written here, to its Sturm certificate, and to the
float route.
"""
import contextlib

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_resurgence import tridiag

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


# scaled by 10^400 the float copy overflows, so Newton starts from the
# Gershgorin bracket and leans on its bisection safeguard
@pytest.mark.parametrize("exponent", [0, 400], ids=["double-range", "beyond-double-range"])
@settings(max_examples=150, deadline=None)
@given(case=_matrices())
def test_eigenvalue_against_bisection(exponent, case):
    d, e, k = case
    with mpmath.workdps(DPS):
        scale = mpmath.mpf(10) ** exponent
        d, e, tol = [scale * v for v in d], [scale * v for v in e], scale * TOL
        with _pass_budget(500):
            v = tridiag.eigenvalue(d, e, k, tol)
        assert isinstance(v, mpmath.mpf)
        assert abs(v - _bisection(d, e, k, tol)) <= tol
        # the Sturm certificate, from both counts
        assert tridiag.count_below(d, e, v - tol / 2) <= k < tridiag.count_below(d, e, v + tol / 2)
        assert _sturm(d, e, v - tol / 2) <= k < _sturm(d, e, v + tol / 2)
    if exponent == 0:
        vf = tridiag.eigenvalue([float(x) for x in d], [float(x) for x in e], k, 1e-13)
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
        pair = [tridiag.eigenvalue(d, e, k, tol) for k in (5, 6)]
        for k, v in zip((5, 6), pair):
            assert tridiag.count_below(d, e, v - tol / 2) <= k < tridiag.count_below(d, e, v + tol / 2)
            assert abs(v - _bisection(d, e, k, tol)) <= tol
        assert 1e-14 < pair[1] - pair[0] < 1e-12

