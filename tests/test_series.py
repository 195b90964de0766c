from fractions import Fraction as Q

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_resurgence.errors import ConvergenceError, StructureError, TruncationError
from mathieu_resurgence.series import (
    PolyB,
    PolySeries,
    TransSeries,
    horner,
    newton_solve,
)


def S(coeffs, order=None, var="h"):
    return PolySeries(var, order if order is not None else len(coeffs) - 1, coeffs)


class TestArithmetic:
    def test_difference_of_squares(self):
        a = S([1, 1], order=4)
        b = S([1, -1], order=4)
        assert a * b == S([1, 0, -1], order=4)

    def test_identity_multiplication(self):
        up = S([PolyB((-1,)), PolyB((0, 1)), PolyB((Q(-1, 64), 0, Q(-1, 16)))], order=2)
        one = PolySeries.const("h", 2, 1)
        assert up * one == up

    def test_polynomial_times_series_from_either_side(self):
        p = PolyB((0, 1))
        assert p * S([1, 1], order=2) == S([1, 1], order=2) * p == S([p, p], order=2)

    def test_variable_tag_mismatch(self):
        with pytest.raises(StructureError):
            S([1, 2]) + PolySeries("u+1", 1, [1, 2])

    def test_truncation_to_min_order(self):
        a = S([1, 1, 1, 1], order=3)
        b = S([1, 1], order=1)
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_truncation_error_on_overread(self):
        a = S([1, 1], order=1)
        with pytest.raises(TruncationError):
            a[2]


class TestHornerNewton:
    def test_horner_over_each_ring(self):
        assert horner([1, 2, 3], Q(1, 2)) == Q(11, 4)
        assert horner([1, 2, 3], PolyB((0, 1))) == PolyB((1, 2, 3))
        x = S([0, 1], order=3)
        assert horner([PolyB((0, 1)), 1], x) == S([PolyB((0, 1)), 1], order=3)
        # series coefficients: 1 + (1 + h) x at x = h
        assert horner([S([1], order=3), S([1, 1], order=3)], x) == S([1, 1, 1], order=3)
        assert horner([], x) == PolySeries.zero("h", 3)

    def test_newton_solves_a_quadratic(self):
        # v + v^2 = h: v = h - h^2 + 2h^3 - 5h^4 (Catalan numbers)
        v = newton_solve([0, 1, 1], S([0, 1], order=4), 0)
        assert [p.const_value() for p in v.c] == [0, 1, -1, 2, -5]

    def test_progress_once_per_doubling(self):
        seen = []
        newton_solve([0, 1, 1], S([0, 1], order=7), 0, seen.append)
        assert seen == [Q(2, 8), Q(4, 8), Q(8, 8)]

    def test_zero_derivative_rejected(self):
        # d/dv (h + v^2) vanishes at v = 0
        with pytest.raises(StructureError):
            newton_solve([S([0, 1], order=3), 0, 1], S([0, 1], order=3), 0)
        with pytest.raises(StructureError):
            newton_solve([1], S([1], order=2), 0)

    def test_non_constant_derivative_rejected(self):
        with pytest.raises(StructureError):
            newton_solve([0, PolyB((0, 1))], S([0, 1], order=3), 0)

    def test_wrong_constant_term_does_not_close(self):
        with pytest.raises(ConvergenceError):
            newton_solve([0, 1, 1], S([0, 1], order=4), 1)


class TestExpLog:
    def test_exp_zero(self):
        z = PolySeries.zero("h", 4)
        assert z.exp() == PolySeries.const("h", 4, 1)

    _tail = st.lists(st.lists(st.fractions(max_denominator=12), max_size=3).map(PolyB), max_size=5)

    @given(_tail, _tail)
    @settings(max_examples=60, deadline=None)
    def test_exp_property(self, f_tail, g_tail):
        # exp(f + g) = exp f exp g and (exp f)' = f' exp f, over B-dependent
        # coefficients
        order = max(len(f_tail), len(g_tail)) + 1
        f, g = S([0] + f_tail, order=order), S([0] + g_tail, order=order)
        assert (f + g).exp() == f.exp() * g.exp()
        assert f.exp().derivative_var() == f.derivative_var() * f.exp()

    def test_exp_requires_zero_constant(self):
        with pytest.raises(StructureError):
            S([1, 1]).exp()

    def test_one_instanton_fluctuation_factor(self):
        # exp(-(3B^2 + 3/4) h/32) opens the single-instanton fluctuation
        arg = PolySeries("h", 2, [PolyB(), PolyB((Q(-3, 128), 0, Q(-3, 32)))])
        got = arg.exp()
        assert got[0] == PolyB.const(1)
        assert got[1] == PolyB((Q(-3, 128), 0, Q(-3, 32)))


class TestTransSeries:
    def test_log_sector_constraint(self):
        good = {(2, 1): PolySeries.const("h", 2, 1)}
        TransSeries(8, good)  # l = 1 <= k-1 = 1, fine
        with pytest.raises(StructureError):
            TransSeries(8, {(1, 1): PolySeries.const("h", 2, 1)})

    def test_product_respects_log_bound(self):
        a = TransSeries(8, {(1, 0): PolySeries.const("h", 3, 1)})
        b = TransSeries(8, {(2, 1): PolySeries.const("h", 3, 1)})
        prod = a * b
        assert set(prod.sectors) == {(3, 1)}


# -- PolyB against a plain list[Fraction] reference -------------------------
# The reference ring is written out here without PolyB, so that a fault in
# PolyB's representation cannot hide behind identities (WKB == Bender-Wu)
# whose both sides run on it.

_rational = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4))
# trailing zeros on purpose: construction must trim them
_coeffs = st.builds(lambda c, z: c + [0] * z, st.lists(_rational, max_size=6), st.integers(0, 2))


def _trim(c):
    c = [Q(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _ref_add(a, b):
    a, b = _trim(a), _trim(b)
    n = max(len(a), len(b))
    return _trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def _ref_mul(a, b):
    a, b = _trim(a), _trim(b)
    out = [Q(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_repr(c):
    terms = [str(x) if k == 0 else f"{x}*B" if k == 1 else f"{x}*B^{k}"
             for k, x in enumerate(_trim(c)) if x]
    return "PolyB(" + (" + ".join(terms) if terms else "0") + ")"


def _same(p, ref):
    """p holds exactly the reference coefficients, each a Fraction."""
    ref = _trim(ref)
    assert isinstance(p, PolyB)
    assert p.c == tuple(ref) and all(type(x) is Q for x in p.c)
    assert p.degree == len(ref) - 1 and bool(p) == bool(ref)
    got = [p[k] for k in range(-1, len(ref) + 2)]
    assert got == [0] + ref + [0, 0] and all(type(x) is Q for x in got)
    assert repr(p) == _ref_repr(ref)


class TestRingAgainstFractionLists:
    @given(_coeffs, _coeffs)
    @settings(deadline=None)
    def test_construction_add_sub_neg(self, a, b):
        p, q = PolyB(a), PolyB(b)
        _same(p, a)
        _same(p + q, _ref_add(a, b))
        _same(p - q, _ref_add(a, [-x for x in b]))
        _same(-p, [-x for x in a])

    @given(_coeffs, _rational)
    @settings(deadline=None)
    def test_scalar_add_sub(self, a, r):
        p = PolyB(a)
        _same(p + r, _ref_add(a, [r]))
        _same(r + p, _ref_add(a, [r]))
        _same(p - r, _ref_add(a, [-r]))
        _same(r - p, _ref_add([-x for x in a], [r]))

    @given(_coeffs, _coeffs, _rational)
    @settings(deadline=None)
    def test_mul(self, a, b, r):
        p, q = PolyB(a), PolyB(b)
        _same(p * q, _ref_mul(a, b))
        _same(p * r, [x * r for x in a])
        _same(r * p, [x * r for x in a])
        _same(p * PolyB.const(r), [x * r for x in a])

    @given(_coeffs, _rational)
    @settings(deadline=None)
    def test_div(self, a, r):
        p = PolyB(a)
        if r == 0:
            with pytest.raises(ZeroDivisionError):
                p / r
        else:
            _same(p / r, [Q(x) / r for x in a])

    @given(st.lists(_rational, max_size=4), st.integers(0, 4))
    @settings(deadline=None)
    def test_pow(self, a, n):
        ref = [1]
        for _ in range(n):
            ref = _ref_mul(ref, a)
        _same(PolyB(a) ** n, ref)
        with pytest.raises(ValueError):
            PolyB(a) ** -1

    @given(_coeffs, st.lists(_rational, max_size=3), st.fractions(max_denominator=100))
    @settings(deadline=None)
    def test_derivative_compose_call(self, a, b, x):
        p, c = PolyB(a), _trim(a)
        _same(p.derivative(), [k * c[k] for k in range(1, len(c))])
        ref, power = [], [1]
        for ck in c:
            ref = _ref_add(ref, [ck * y for y in power])
            power = _ref_mul(power, b)
        _same(p(PolyB(b)), ref)
        value = p(x)
        assert value == sum((ck * x**k for k, ck in enumerate(c)), Q(0))
        assert type(value) is Q

    @given(_coeffs, st.floats(-4, 4))
    @settings(deadline=None)
    def test_numeric_evaluation_is_horner_over_the_fractions(self, a, x):
        # bit-identical to the Fraction-coefficient Horner at a float or mpf
        p, c = PolyB(a), _trim(a)
        got, want = p(x), horner(c, x)
        assert type(got) is type(want) and (got == want or got != got and want != want)
        with mpmath.workdps(30):
            assert p(mpmath.mpf(x)) == horner(c, mpmath.mpf(x))

    @given(_coeffs)
    @settings(deadline=None)
    def test_const_value(self, a):
        c = _trim(a)
        if len(c) <= 1:
            value = PolyB(a).const_value()
            assert value == (c[0] if c else 0) and type(value) is Q
        else:
            with pytest.raises(StructureError):
                PolyB(a).const_value()

    @given(_coeffs, _coeffs, _rational)
    @settings(deadline=None)
    def test_equality_and_hash(self, a, b, r):
        p, q = PolyB(a), PolyB(b)
        assert (p == q) == (_trim(a) == _trim(b))
        if p == q:
            assert hash(p) == hash(q)
        padded = PolyB(list(a) + [0, Q(0)])
        assert padded == p and hash(padded) == hash(p)
        assert PolyB.const(r) == r and PolyB.const(r) == Q(r)
        assert hash(PolyB.const(r)) == hash(r)
        assert (p == r) == (_trim(a) == _trim([r]))
        assert p != "not a polynomial"


class TestNamedSurface:
    def test_series_arith_dispatch(self):
        # the ring operations are methods and operators of PolySeries
        a = S([1, 1], order=3)
        b = S([1, -1], order=3)
        assert a * b == S([1, 0, -1], order=3)
        assert a + b == S([2, 0], order=3)
        g = S([0, Q(1, 3)], order=3)
        assert g.exp() == S([1, Q(1, 3), Q(1, 18), Q(1, 162)], order=3)
