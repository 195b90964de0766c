from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobi_reference as ref
from mathieu_resurgence.benderwu import lame_potential
from mathieu_resurgence.errors import DomainError
from mathieu_resurgence.jacobi_exact import sd_squared_taylor
from mathieu_resurgence.series import PolyB, PolySeries
from mathieu_resurgence.zerodim import lame_saddles

ORDER = 40
M_VALUES = [Q(0), Q(1, 4), Q(1, 3), Q(1, 2), Q(3, 4), Q(1)]


def reference_sd2(order, m):
    """sd^2(z | m) coefficients from the Glaisher triple of the test reference."""
    return [p.const_value() for p in ref.sd_squared_taylor(order, m).c]


@pytest.mark.parametrize("m", [0, Q(1, 4), Q(1, 3), Q(1, 2), Q(2, 7), Q(3, 4), 1])
def test_recursion_equals_glaisher_reference(m):
    got = sd_squared_taylor(200, m)
    assert got == reference_sd2(200, m)
    assert all(type(c) is Q for c in got)


@given(
    m=st.integers(1, 50).flatmap(lambda q: st.integers(0, q).map(lambda p: Q(p, q))),
    order=st.integers(0, 60),
)
@settings(deadline=None)
def test_recursion_property_equals_glaisher_reference(m, order):
    assert sd_squared_taylor(order, m) == reference_sd2(order, m)


@pytest.mark.parametrize(
    "build",
    [sd_squared_taylor, ref.jacobi_taylor, ref.cn_taylor_flipped, ref.saddle_potential_real,
     ref.saddle_potential_imag],
)
def test_negative_order_is_a_domain_error(build):
    for m in (Q(0), Q(1, 4)):
        with pytest.raises(DomainError):
            build(-1, m)


@pytest.mark.parametrize("m", [PolyB((0, 1)), PolyB.const(Q(1, 4)), 0.25])
def test_non_rational_m_is_a_domain_error(m):
    with pytest.raises(DomainError):
        sd_squared_taylor(8, m)


@pytest.fixture
def no_symbolic_evaluation(monkeypatch):
    """Fail on any evaluation of a PolyB that still depends on its variable."""
    plain = PolyB.__call__

    def guarded(self, x):
        if not self.is_const():
            pytest.fail(f"evaluated a non-constant polynomial {self!r}")
        return plain(self, x)

    monkeypatch.setattr(PolyB, "__call__", guarded)


def test_lame_saddles_stay_in_q(no_symbolic_evaluation):
    sads = lame_saddles(Q(1, 4), 36)
    assert len(sads["vacuum"].coeffs) == 37


def test_lame_potential_stays_in_q(no_symbolic_evaluation):
    V = lame_potential(Q(3, 4), 72)
    assert V.taylor[:3] == (0, 0, Q(1, 2))


# The Glaisher triple of the test reference, checked on its own.


@pytest.mark.parametrize(
    "build",
    [ref.sd_squared_taylor, ref.cn_taylor_flipped, ref.saddle_potential_real,
     ref.saddle_potential_imag],
)
def test_fixed_m_equals_q_m_evaluated(build):
    """The Q[m] series evaluated at m is the oracle for the series built at m."""
    symbolic = build(ORDER)
    assert max(p.degree for p in symbolic.c) > 0
    for m in M_VALUES:
        fixed = build(ORDER, m)
        assert all(p.is_const() for p in fixed.c)
        assert fixed == symbolic.map_coeffs(lambda p: PolyB.const(p(m)))


def test_flip_is_parameter_substitution():
    flip = PolyB((1, -1))
    want = ref.jacobi_taylor(ORDER)[1].map_coeffs(lambda p: p(flip))
    assert ref.cn_taylor_flipped(ORDER) == want


GLAISHER_ORDER = 76


@pytest.mark.parametrize("m", [Q(1, 4), Q(1, 3), Q(3, 4)])
def test_glaisher_identities_from_sn_cn_dn(m):
    """sd^2 dn^2 = sn^2 and nc^2 cn^2 = 1, with sn, cn, dn from the
    (sn, cn, dn) triple and products taken in PolySeries."""
    sn, _cn, dn = ref.jacobi_taylor(GLAISHER_ORDER, m)
    assert ref.sd_squared_taylor(GLAISHER_ORDER, m) * (dn * dn) == sn * sn
    cn_flip = ref.jacobi_taylor(GLAISHER_ORDER, 1 - m)[1]
    cn2 = cn_flip * cn_flip
    assert ref.saddle_potential_imag(GLAISHER_ORDER, m) == cn2
    one = PolySeries.const("z", GLAISHER_ORDER, 1)
    assert ref.saddle_potential_real(GLAISHER_ORDER, m) * cn2 == one


@pytest.mark.parametrize("m", [Q(1, 4), Q(3, 4), None])
def test_sn_cn_dn_solve_their_equations(m):
    """sn' = cn dn, cn' = -sn dn, dn' = -m sn cn, term by term."""
    args = () if m is None else (m,)
    sn, cn, dn = ref.jacobi_taylor(30, *args)
    mm = PolyB((0, 1)) if m is None else m
    assert sn.derivative_var() == (cn * dn).truncate(29)
    assert cn.derivative_var() == (-(sn * dn)).truncate(29)
    assert dn.derivative_var() == (sn * cn * -mm).truncate(29)
    assert (sn[0], cn[0], dn[0]) == (PolyB(), PolyB.const(1), PolyB.const(1))
