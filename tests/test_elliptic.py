"""The double-precision AGM behind the action closed forms,
``actions._ellip_KE``, against mpmath's independent ``ellipk``/``ellipe``."""
import math
from fractions import Fraction

import mpmath
import pytest

from mathieu_resurgence.actions import _ellip_KE, action_leading_derivative
from mathieu_resurgence.errors import DomainError, PoleError

GRID = [k / 100 for k in range(1, 100)]


def _legendre_defect(m: float) -> float:
    """E K' + E' K - K K' - pi/2 with K' = K(1-m); identically zero."""
    K, E = _ellip_KE(m)
    Kp, Ep = _ellip_KE(1 - m)
    return E * Kp + Ep * K - K * Kp - math.pi / 2


class TestCompleteIntegrals:
    def test_circular_limits(self):
        K, E = _ellip_KE(0.0)
        assert K == pytest.approx(math.pi / 2, abs=1e-15)
        assert E == pytest.approx(math.pi / 2, abs=1e-15)

    def test_E_at_one(self):
        # E(1) = 1 is the limit that action_leading takes at the barrier top
        assert _ellip_KE(1 - 1e-15)[1] == pytest.approx(1.0, abs=1e-13)

    def test_K_half(self):
        assert _ellip_KE(0.5)[0] == pytest.approx(1.85407467730137, abs=2e-14)

    def test_K_diverges_at_one(self):
        with pytest.raises(PoleError):
            _ellip_KE(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            _ellip_KE(-0.1)
        with pytest.raises(DomainError):
            _ellip_KE(1.2)
        with pytest.raises(DomainError):
            _ellip_KE(math.nan)

    def test_agm_matches_mpmath_on_grid(self):
        with mpmath.workdps(30):
            for m in GRID + [0.0, 1e-6, 0.999, 0.9999, 0.999999]:
                K, E = _ellip_KE(m)
                assert abs(K - mpmath.ellipk(m)) <= 2e-15 * K, m
                assert abs(E - mpmath.ellipe(m)) <= 2e-15 * E, m

    def test_exact_and_mp_arguments_give_the_float_value(self):
        want = _ellip_KE(0.25)
        assert _ellip_KE(Fraction(1, 4)) == want
        assert _ellip_KE(mpmath.mpf("0.25")) == want
        assert all(type(v) is float for v in _ellip_KE(Fraction(1, 4)))


class TestDerivatives:
    def test_formula_instance(self):
        # d/dm (K - E) = E / (2 (1 - m)), on which the dual action's slope
        # above the barrier rests
        m = 0.5
        _K, E = _ellip_KE(m)
        with mpmath.workdps(30):
            want = mpmath.diff(lambda x: mpmath.ellipk(x) - mpmath.ellipe(x), m)
        assert E / (2 * (1 - m)) == pytest.approx(float(want), rel=1e-14)

    def test_finite_difference(self):
        h = 1e-5
        for m in (0.3, 0.7):
            K, E = _ellip_KE(m)
            fd_K = (_ellip_KE(m + h)[0] - _ellip_KE(m - h)[0]) / (2 * h)
            fd_E = (_ellip_KE(m + h)[1] - _ellip_KE(m - h)[1]) / (2 * h)
            assert abs((E - (1 - m) * K) / (2 * m * (1 - m)) - fd_K) < 1e-8
            assert abs((E - K) / (2 * m) - fd_E) < 1e-8

    def test_endpoints_rejected(self):
        # the slopes of the closed forms: at u = 1 the parameters reach
        # m = 1, where K diverges, and u = -1 is the bottom of the well
        with pytest.raises(PoleError):
            action_leading_derivative(1.0)
        with pytest.raises(DomainError):
            action_leading_derivative(-1.0)


class TestLegendre:
    def test_half(self):
        assert abs(_legendre_defect(0.5)) <= 1e-13

    def test_tenth(self):
        assert abs(_legendre_defect(0.1)) <= 1e-13

    def test_near_zero_bounded(self):
        assert abs(_legendre_defect(1e-6)) <= 1e-12

    def test_grid(self):
        for m in GRID:
            assert abs(_legendre_defect(m)) <= 1e-13
