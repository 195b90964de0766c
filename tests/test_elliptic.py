import math
from fractions import Fraction

import mpmath
import pytest

from mathieu_resurgence.elliptic import (
    ellip_dE_dm,
    ellip_dK_dm,
    ellip_E,
    ellip_E_series,
    ellip_K,
    ellip_K_series,
    ellip_KE,
    legendre_defect,
)
from mathieu_resurgence.errors import DomainError, PoleError

GRID = [k / 100 for k in range(1, 100)]


class TestCompleteIntegrals:
    def test_circular_limits(self):
        assert ellip_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert ellip_E(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_E_at_one(self):
        assert ellip_E(1.0) == 1.0

    def test_K_half(self):
        assert ellip_K(0.5) == pytest.approx(1.85407467730137, abs=2e-14)

    def test_K_diverges_at_one(self):
        with pytest.raises(PoleError):
            ellip_K(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ellip_K(-0.1)
        with pytest.raises(DomainError):
            ellip_E(1.2)

    def test_agm_matches_maclaurin_series_on_grid(self):
        for m in GRID:
            K, E = ellip_KE(m)
            assert abs(K - ellip_K_series(m)) <= 1e-13 * K
            assert abs(E - ellip_E_series(m)) <= 1e-13 * E

    def test_exact_and_mp_arguments_give_the_float_value(self):
        want = ellip_KE(0.25)
        assert ellip_KE(Fraction(1, 4)) == want
        assert ellip_KE(mpmath.mpf("0.25")) == want
        assert all(type(v) is float for v in ellip_KE(Fraction(1, 4)))


class TestDerivatives:
    def test_formula_instance(self):
        K, E = ellip_KE(0.5)
        assert ellip_dE_dm(0.5) == pytest.approx((E - K) / 1.0, rel=1e-14)

    def test_finite_difference(self):
        h = 1e-5
        for m in (0.3, 0.7):
            fd_K = (ellip_K(m + h) - ellip_K(m - h)) / (2 * h)
            fd_E = (ellip_E(m + h) - ellip_E(m - h)) / (2 * h)
            assert abs(ellip_dK_dm(m) - fd_K) < 1e-8
            assert abs(ellip_dE_dm(m) - fd_E) < 1e-8

    def test_endpoints_rejected(self):
        with pytest.raises(DomainError):
            ellip_dK_dm(0.0)
        with pytest.raises(DomainError):
            ellip_dE_dm(1.0)


class TestLegendre:
    def test_half(self):
        assert abs(legendre_defect(0.5)) <= 1e-13

    def test_tenth(self):
        assert abs(legendre_defect(0.1)) <= 1e-13

    def test_near_zero_bounded(self):
        assert abs(legendre_defect(1e-6)) <= 1e-12

    def test_grid(self):
        for m in GRID:
            assert abs(legendre_defect(m)) <= 1e-13
