import math
from fractions import Fraction as Q

import mpmath
import pytest
from references import lame_energy_series

from mathieu_resurgence.benderwu import (
    PotentialSeries,
    lame_potential,
    large_order_fit,
    mathieu_well_potential,
    polynomial_in_N,
    richardson,
    rs_series,
)
from mathieu_resurgence.errors import ConvergenceError, DomainError
from mathieu_resurgence.series import PolyB


def weak_row(n):
    """Printed weak-coupling coefficients as polynomials in B."""
    rows = {
        0: PolyB((-1,)),
        1: PolyB((0, 1)),
        2: PolyB((Q(-1, 64), 0, Q(-1, 16))),
        3: PolyB((0, Q(-3, 4) / 256, 0, Q(-1, 256))),
        4: PolyB((Q(-9, 32) / 4096, 0, Q(-17, 4) / 4096, 0, Q(-5, 2) / 4096)),
        5: PolyB(
            (0, Q(-405, 64) / 65536, 0, Q(-205, 8) / 65536, 0, Q(-33, 4) / 65536)
        ),
    }
    return rows[n]


class TestMathieuSeries:
    def test_ground_level_matches_printed_rows(self):
        s = rs_series(mathieu_well_potential(16), 0, 5)
        B = Q(1, 2)
        for n in range(6):
            assert s[n].const_value() == weak_row(n)(B)

    def test_higher_level(self):
        s = rs_series(mathieu_well_potential(16), 3, 4)
        B = Q(7, 2)
        for n in range(5):
            assert s[n].const_value() == weak_row(n)(B)

    def test_polynomial_in_N(self):
        poly = polynomial_in_N(mathieu_well_potential(16), 5)
        for n in range(6):
            assert poly[n] == weak_row(n)


class TestLame:
    def test_printed_rows(self):
        rows = {
            Q(0): [1, Q(-1, 4), Q(-1, 16), Q(-3, 64), Q(-53, 1024), Q(-297, 4096)],
            Q(1): [1, Q(1, 4), Q(-1, 16), Q(3, 64), Q(-53, 1024), Q(297, 4096)],
            Q(1, 4): [1, Q(-1, 8), Q(-11, 128), Q(-3, 128), Q(-889, 32768), Q(-225, 8192)],
            Q(3, 4): [1, Q(1, 8), Q(-11, 128), Q(3, 128), Q(-889, 32768), Q(225, 8192)],
            Q(1, 2): [1, 0, Q(-3, 32), 0, Q(-39, 2048), 0],
        }
        for m, want in rows.items():
            assert lame_energy_series(m, 5) == want

    def test_duality_coefficientwise(self):
        for m in (Q(1, 5), Q(2, 7), Q(1, 3)):
            em = lame_energy_series(m, 8)
            e1m = lame_energy_series(1 - m, 8)
            assert all(em[k] == (-1) ** k * e1m[k] for k in range(len(em)))

    def test_alternation_pattern(self):
        low = lame_energy_series(Q(1, 4), 10)
        high = lame_energy_series(Q(3, 4), 10)
        # non-alternating below m = 1/2 (all corrections negative)...
        assert all(c < 0 for c in low[1:])
        # ... alternating above
        signs = [1 if c > 0 else -1 for c in high[1:] if c != 0]
        assert all(s1 != s2 for s1, s2 in zip(signs, signs[1:]))

    def test_half_m_odd_coefficients_vanish(self):
        es = lame_energy_series(Q(1, 2), 12)
        assert all(es[k] == 0 for k in range(1, len(es), 2))


class TestPotentialPlumbing:
    def test_not_a_minimum(self):
        with pytest.raises(DomainError):
            PotentialSeries((Q(0), Q(1), Q(1)))

    def test_not_harmonic(self):
        with pytest.raises(DomainError):
            PotentialSeries((Q(0), Q(0), Q(0), Q(1)))

    def test_odd_taylor_terms_supported(self):
        V = PotentialSeries((Q(0), Q(0), Q(1, 2), Q(1, 10), Q(0), Q(0),
                             Q(0), Q(0), Q(0), Q(0), Q(0)))
        s = rs_series(V, 0, 3)
        # first shift from the cubic term is the standard -(11/8) v3^2 hbar^2
        assert s[2].const_value() == Q(-11, 8) * Q(1, 10) ** 2


class TestLargeOrder:
    def test_richardson_on_harmonic_sequence(self):
        seq = [1 + Q(1, n) + Q(1, n * n) for n in range(1, 12)]
        acc = richardson(seq, 3)
        assert abs(float(acc) - 1) < 1e-3

    def test_mathieu_twice_instanton_action(self):
        series = rs_series(mathieu_well_potential(72), 0, 34)
        coeffs = [series[n].const_value() for n in range(2, 35)]
        fit = large_order_fit(coeffs, n_offset=2)
        assert abs(float(fit["action"]) - 16) / 16 < 0.01

    def test_lame_quarter_dominant_action(self):
        V = lame_potential(Q(1, 4), 72)
        series = rs_series(V, 0, 34)
        coeffs = [series[n].const_value() for n in range(2, 35)]
        fit = large_order_fit(coeffs, n_offset=2)
        m = 0.25
        s_inst = 2 * math.asin(math.sqrt(m)) / math.sqrt(m * (1 - m))
        assert abs(float(fit["action"]) - 2 * s_inst) / (2 * s_inst) < 0.03

    def test_lame_three_quarter_dominant_ghost_action(self):
        V = lame_potential(Q(3, 4), 72)
        series = rs_series(V, 0, 34)
        coeffs = [series[n].const_value() for n in range(2, 35)]
        fit = large_order_fit(coeffs, n_offset=2)
        m = 0.75
        s_ghost = 2 * math.asin(math.sqrt(1 - m)) / math.sqrt(m * (1 - m))
        assert abs(float(fit["action"]) - 2 * s_ghost) / (2 * s_ghost) < 0.03

    def test_two_action_fit_reports_its_spread(self):
        V = lame_potential(Q(1, 4), 72)
        series = rs_series(V, 0, 34)
        coeffs = [series[n].const_value() for n in range(2, 35)]
        fit = large_order_fit(coeffs, n_offset=2)
        assert 0 < fit["spread"] < 1e-3 * abs(fit["action"])

    def test_lame_half_every_other_coefficient_vanishing(self):
        # at m = 1/2 the odd orders vanish, so each ratio spans two orders
        # and only the even subsequence exists; both actions are 2 pi
        series = rs_series(lame_potential(Q(1, 2), 72), 0, 34)
        coeffs = [series[n].const_value() for n in range(2, 35)]
        fit = large_order_fit(coeffs, n_offset=2)
        assert abs(float(fit["action"]) - 2 * math.pi) / (2 * math.pi) < 2e-3

    @pytest.mark.parametrize("shape", ["single-action", "two-action"])
    def test_unsettled_ratios_are_a_convergence_error(self, shape):
        # ratios cycling with period 3 have no limit on either subsequence,
        # with or without an alternating subdominant saddle at action 2
        coeffs = [Q(math.factorial(n) * 3 ** (n % 3)) for n in range(2, 35)]
        if shape == "two-action":
            coeffs = [
                c + Q((-1) ** n * math.factorial(n) * 2 ** (n % 3), 2**n)
                for n, c in zip(range(2, 35), coeffs)
            ]
        with pytest.raises(ConvergenceError):
            large_order_fit(coeffs, n_offset=2)

    def test_sin2_well_subleading_sequence(self):
        # the 1/n and 1/(n(n-1)) corrections of the normalized large-order
        # growth reproduce the instanton-pair fluctuation pattern 1, -5/2, -13/8
        series = rs_series(lame_potential(Q(0), 80), 0, 38)
        with mpmath.workdps(50):
            c = [
                mpmath.mpf(series[n].const_value().numerator)
                / series[n].const_value().denominator
                for n in range(len(series.c))
            ]
            S = mpmath.mpf(4)
            norm = [
                abs(c[n]) * S ** (n + 1) / mpmath.factorial(n - 1) for n in range(5, 37)
            ]
            # fit norm_n = A (1 + b/n + c2/(n(n-1))) on consecutive triples,
            # Richardson-accelerate the drift
            bs, cs = [], []
            for i in range(len(norm) - 2):
                n = i + 5
                f0, f1, f2 = norm[i], norm[i + 1], norm[i + 2]
                # solve the 3x3 linear system for (A, Ab, Ac2)
                import mpmath as mp

                M = mp.matrix(
                    [
                        [1, mp.mpf(1) / n, mp.mpf(1) / (n * (n - 1))],
                        [1, mp.mpf(1) / (n + 1), mp.mpf(1) / ((n + 1) * n)],
                        [1, mp.mpf(1) / (n + 2), mp.mpf(1) / ((n + 2) * (n + 1))],
                    ]
                )
                sol = mp.lu_solve(M, mp.matrix([f0, f1, f2]))
                bs.append(sol[1] / sol[0])
                cs.append(sol[2] / sol[0])
            b = float(richardson(bs[-10:], 2))
            assert abs(b - (-2.5)) < 0.12
