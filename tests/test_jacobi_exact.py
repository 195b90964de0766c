from fractions import Fraction as Q

import pytest

from mathieu_resurgence.benderwu import lame_potential
from mathieu_resurgence.jacobi_exact import (
    cn_taylor_flipped,
    jacobi_taylor,
    saddle_potential_imag,
    saddle_potential_real,
    sd_squared_taylor,
)
from mathieu_resurgence.series import PolyB
from mathieu_resurgence.zerodim import lame_saddles

ORDER = 40
M_VALUES = [Q(0), Q(1, 4), Q(1, 3), Q(1, 2), Q(3, 4), Q(1)]


@pytest.mark.parametrize(
    "build", [sd_squared_taylor, cn_taylor_flipped, saddle_potential_real, saddle_potential_imag]
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
    want = jacobi_taylor(ORDER)[1].map_coeffs(lambda p: p.compose(flip))
    assert cn_taylor_flipped(ORDER) == want


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
