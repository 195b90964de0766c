import math
from fractions import Fraction as Q

import pytest

from mathieu_resurgence.benderwu import mathieu_well_potential, polynomial_in_N
from mathieu_resurgence.charvalues import char_a
from mathieu_resurgence.errors import ConvergenceError, DomainError, StructureError
from mathieu_resurgence.series import PolyB, PolySeries, horner
from mathieu_resurgence.spectral import (
    alphabeta_extract,
    bs_invert_strong,
    bs_invert_weak,
    gap_edge_series,
    zjj_A_from_E,
    zjj_construct,
    zjj_quantization_solve,
)


class TestWeakInversion:
    def test_printed_low_orders(self):
        up = bs_invert_weak(5)
        assert up[0] == PolyB((-1,))
        assert up[1] == PolyB((0, 1))
        assert up[3] == PolyB((0, Q(-3, 4) / 256, 0, Q(-1, 256)))
        assert up[5] == PolyB(
            (0, Q(-405, 64) / 65536, 0, Q(-205, 8) / 65536, 0, Q(-33, 4) / 65536)
        )

    def test_exact_equality_with_independent_recursion(self):
        up = bs_invert_weak(8)
        bw = polynomial_in_N(mathieu_well_potential(20), 8)
        assert all(up[k] == bw[k] for k in range(9))

    def test_exact_equality_with_independent_recursion_order_16(self):
        up = bs_invert_weak(16)
        bw = polynomial_in_N(mathieu_well_potential(36), 16)
        assert all(up[k] == bw[k] for k in range(17))

    def test_exact_equality_with_independent_recursion_order_24(self):
        up = bs_invert_weak(24)
        bw = polynomial_in_N(mathieu_well_potential(52), 24)
        assert all(up[k] == bw[k] for k in range(25))

    def test_large_order_growth_ratio(self):
        # u_{n+1}/u_n -> (n + 2N + 1)/16, Richardson-accelerated, via the
        # recursion oracle at fixed N (identical series through tested order)
        from mathieu_resurgence.benderwu import richardson, rs_series
        import mpmath

        for N, tol in ((0, 0.02), (1, 0.02)):
            series = rs_series(mathieu_well_potential(70), N, 33)
            with mpmath.workdps(50):
                c = [
                    mpmath.mpf(series[n].const_value().numerator)
                    / series[n].const_value().denominator
                    for n in range(2, 34)
                ]
                vals = []
                for i in range(len(c) - 1):
                    n = i + 2
                    vals.append(c[i + 1] / c[i] * 16 / (n + 2 * N + 1))
                acc = richardson(vals[-12:], 4, n0=len(vals) - 12 + 2)
                assert abs(float(acc) - 1) < tol


class TestStrongInversion:
    def test_printed_rows(self):
        u = bs_invert_strong(2, depth=12)
        assert u[0][0] == Q(1, 2)
        assert u[4][0] == Q(1, 4)
        assert u[8][0] == Q(5, 64)
        assert u[12][0] == Q(9, 128)
        assert u[6][1] == Q(1, 16)
        assert u[10][1] == Q(21, 128)
        assert u[14][1] == Q(55, 128)

    def test_resummed_pole_structure(self):
        # collecting (2/hbar)^4 at fixed N reproduces 1/(2(N^2-1)):
        # the hbar^-2 coefficient of (hbar^2/8)(2/hbar)^4/(2(N^2-1)) is
        # 1/(N^2-1) and the double series reproduces its 1/N^2 expansion
        u = bs_invert_strong(5, depth=20)
        for N in (5, 9):
            got = 0.0
            for i in range(6):  # hbar power 2i + 2 - k = -2 at k = 2i + 4
                got += float(u[2 * i + 4][i]) * (N / 2.0) ** (-2 * i - 2)
            want = 1 / (N * N - 1)
            assert got == pytest.approx(want, rel=1e-8)

    def test_exact_inverse_hbar_rows(self):
        # hbar^(2i) a^(2-k) with a = N hbar/2 is hbar^(2i+2-k) (N/2)^(2-k),
        # so the hbar^(-2-4j) row is k = 2i + 4 + 4j, and it carries
        # (N/2)^(-2i-2-4j) = 4^(i+1+2j) x^(i+1+2j) in x = 1/N^2.  The
        # hbar^-2 term of u is 1/(N^2-1) = sum_i x^(i+1): the row is 1/4^(i+1).
        u = bs_invert_strong(8, 30)
        assert [u[2 * i + 4][i] for i in range(9)] == [Q(1, 4 ** (i + 1)) for i in range(9)]

        def laurent(num, poles, n):
            # [x^0..x^n] of num(x) / prod (1 - a x)^e over (a, e) in poles
            out = [Q(c) for c in num] + [Q(0)] * (n + 1 - len(num))
            for a, e in poles:
                for _ in range(e):
                    for i in range(1, n + 1):
                        out[i] += a * out[i - 1]
            return out

        # (hbar^2/8)(2/hbar)^8 (5N^2+7)/(32(N^2-1)^3(N^2-4)) and
        # (hbar^2/8)(2/hbar)^12 (9N^4+58N^2+29)/(64(N^2-1)^5(N^2-4)(N^2-9))
        # are hbar^-6 x^3 (5+7x)/((1-x)^3(1-4x)) and
        # hbar^-10 8 x^5 (9+58x+29x^2)/((1-x)^5(1-4x)(1-9x))
        for j, num, poles in (
            (1, [5, 7], [(1, 3), (4, 1)]),
            (2, [72, 464, 232], [(1, 5), (4, 1), (9, 1)]),
        ):
            want = laurent(num, poles, 8)
            row = [u[2 * i + 4 + 4 * j][i] for i in range(9)]
            assert row == [want[i] / 4 ** (i + 1 + 2 * j) for i in range(9)]

    @pytest.mark.parametrize("N", [15, 25])
    def test_agrees_with_harmonic_balance(self, N):
        # two independent routes to the same q-series: the WKB inversion's
        # hbar^(2-2j) coefficient at a = N hbar/2 collects k = 2i + 2j, and
        # u = (hbar^2/8) a_N(q) with q = 4/hbar^2 makes it (4^j/8) [q^j] a_N.
        # Keeping i <= 8 truncates the 1/N^2 expansion: at N = 9 the j = 6
        # residual is 1.2e-8, at N = 15 it is 1.4e-12.
        u = bs_invert_strong(8, 30)
        a = char_a(N, 8)
        for j in range(7):
            wkb = sum(u[2 * i + 2 * j][i] * Q(N, 2) ** (2 - 2 * i - 2 * j) for i in range(9))
            exact = Q(4**j, 8) * a[j].const_value()
            assert abs(wkb - exact) <= Q(1, 10**11) * abs(exact)

    @pytest.mark.parametrize("order, depth", [(-1, 8), (2, -3)])
    def test_negative_arguments(self, order, depth):
        with pytest.raises(DomainError):
            bs_invert_strong(order, depth)

    def test_numeric_against_printed_strong_expansion(self):
        u = bs_invert_strong(2, depth=12)
        N, hbar = 7, 9.0
        a = N * hbar / 2
        t = hbar**2 / 8 * (
            N**2
            + (2 / hbar) ** 4 / (2 * (N**2 - 1))
            + (5 * N**2 + 7) * (2 / hbar) ** 8 / (32 * (N**2 - 1) ** 3 * (N**2 - 4))
            + (9 * N**4 + 58 * N**2 + 29)
            * (2 / hbar) ** 12
            / (64 * (N**2 - 1) ** 5 * (N**2 - 4) * (N**2 - 9))
        )
        assert a * a * u(1 / a, hbar**2) == pytest.approx(t, abs=5e-9)


class TestZjj:
    def test_E_of_B_table(self):
        z = zjj_construct(4)
        assert z.E_of_B[0] == PolyB((0, 1))
        assert z.E_of_B[1] == PolyB((Q(-1, 4) / 16, 0, Q(-1, 16)))
        assert z.E_of_B[2] == PolyB((0, Q(-3, 4) / 256, 0, Q(-1, 256)))
        assert z.E_of_B[3] == PolyB(
            (Q(-9, 32) / 16**3, 0, Q(-17, 4) / 16**3, 0, Q(-5, 2) / 16**3)
        )
        assert z.E_of_B[4] == PolyB(
            (0, Q(-405, 64) / 16**4, 0, Q(-205, 8) / 16**4, 0, Q(-33, 4) / 16**4)
        )

    def test_B_of_E_table(self):
        z = zjj_construct(4)
        assert z.B_of_E[1] == PolyB((Q(1, 4) / 16, 0, Q(1, 16)))
        assert z.B_of_E[2] == PolyB((0, Q(5, 4) / 256, 0, Q(3, 256)))
        assert z.B_of_E[3] == PolyB(
            (Q(17, 32) / 16**3, 0, Q(35, 4) / 16**3, 0, Q(25, 2) / 16**3)
        )
        assert z.B_of_E[4] == PolyB(
            (0, Q(721, 64) / 16**4, 0, Q(525, 8) / 16**4, 0, Q(245, 4) / 16**4)
        )

    def test_A_of_B_table(self):
        z = zjj_construct(4)
        assert z.A_of_B[1] == PolyB((Q(3, 4) / 16, 0, Q(3, 16)))
        assert z.A_of_B[2] == PolyB((0, Q(17, 4) / 256, 0, Q(5, 256)))
        assert z.A_of_B[3] == PolyB(
            (Q(135, 64) / 16**3, 0, Q(205, 8) / 16**3, 0, Q(55, 4) / 16**3)
        )
        assert z.A_of_B[4] == PolyB(
            (0, Q(2943, 64) / 16**4, 0, Q(10080, 64) / 16**4, 0, Q(3024, 64) / 16**4)
        )

    def test_A_of_E_table(self):
        z = zjj_construct(4)
        assert z.A_of_E[1] == PolyB((Q(3, 4) / 16, 0, Q(3, 16)))
        assert z.A_of_E[2] == PolyB((0, Q(23, 4) / 256, 0, Q(11, 256)))
        assert z.A_of_E[3] == PolyB(
            (Q(215, 64) / 16**3, 0, Q(341, 8) / 16**3, 0, Q(199, 4) / 16**3)
        )
        assert z.A_of_E[4] == PolyB(
            (0, Q(4487, 64) / 16**4, 0, Q(326) / 16**4, 0, Q(1021, 4) / 16**4)
        )

    def test_reversion_round_trip(self):
        z = zjj_construct(4)
        # B(E(B)) = B identically through order 4
        comp = horner(z.B_of_E.coeffs_in_B(), z.E_of_B)
        assert comp[0] == PolyB((0, 1))
        assert all(comp[k].is_zero() for k in range(1, 5))

    def test_harmonic_leading_term(self):
        z = zjj_construct(3)
        assert z.E_of_B[0] == PolyB((0, 1))

    def test_magic_relation_exact_identity(self):
        # dE/dB = -(hbar/16)(2B + hbar dA/dhbar) as a series identity
        z = zjj_construct(6)
        lhs = z.E_of_B.derivative_B()
        # hbar dA/dhbar includes the pole part hbar d(16/hbar)/dhbar = -16/hbar,
        # so RHS = -(hbar/16)(2B - 16/hbar + sum_n n c_n hbar^n)
        order = z.A_of_B.order
        rhs = [PolyB() for _ in range(order + 1)]
        rhs[0] = PolyB.const(1)
        rhs[1] = PolyB((0, Q(-1, 8)))
        for n in range(1, order):
            rhs[n + 1] = z.A_of_B[n] * Q(-n, 16)
        for k in range(order - 1):
            assert lhs[k] == rhs[k], f"magic relation fails at order {k}"

    def test_A_from_E_rejects_wrong_series(self):
        bad = PolySeries("hbar", 3, [PolyB((0, 1)), PolyB((0, 0, 1))])
        with pytest.raises(StructureError):
            zjj_A_from_E(bad)


class TestQuantizationSolve:
    def test_gamma_past_the_double_range_is_no_root(self):
        # at hbar = 1 the order-4 quantization function B(E) of band 10 drives
        # Gamma(1/2 + B) past the double range: the reciprocals read +-inf and
        # 0 there, and the solve reports that no root is bracketed
        with pytest.raises(ConvergenceError, match="no bracketed root"):
            zjj_quantization_solve(1.0, 10, 0.0, order=4)

    def test_edges_against_oracle(self):
        from mathieu_resurgence.oracle import band_edges

        hbar = 0.4
        lo = zjj_quantization_solve(hbar, 0, 0.0, order=8)
        hi = zjj_quantization_solve(hbar, 0, math.pi, order=8)
        pts = {(p.N, p.edge): p.u for p in band_edges(hbar, 0)}
        assert abs(lo["u"] - pts[(0, "bottom")]) <= 5 * lo["uncertainty"]
        assert abs(hi["u"] - pts[(0, "top")]) <= 5 * hi["uncertainty"]
        # mean against perturbation theory, to truncation accuracy
        mean = (lo["u"] + hi["u"]) / 2
        assert mean == pytest.approx(float(bs_invert_weak(8)(hbar, Q(1, 2))), abs=1e-8)
        # splitting within 10% of the leading band-width scale
        split = hi["u"] - lo["u"]
        lead = (
            4 * hbar / math.sqrt(2 * math.pi) * (32 / hbar) ** 0.5 * math.exp(-8 / hbar)
        )
        assert abs(split / lead - 1) < 0.10


class TestGapEdges:
    def test_u1_rows(self):
        ge = gap_edge_series(1, 8)
        lo, hi = ge.lower, ge.upper
        # b1 = 1 - q - q^2/8 + q^3/64 - q^4/1536 ...
        assert [lo[j].const_value() for j in range(4)] == [1, -1, Q(-1, 8), Q(1, 64)]
        assert [hi[j].const_value() for j in range(4)] == [1, 1, Q(-1, 8), Q(-1, 64)]

    def test_u1_points_against_paper_form(self):
        # (hbar^2/8)(1 -+ 4/hbar^2 - 2/hbar^4 +- 1/hbar^6 - 1/(6 hbar^8) ...)
        ge = gap_edge_series(1, 8)
        hbar = 6.0
        q = 4 / hbar**2
        series_lo = 1 - 4 / hbar**2 - 2 / hbar**4 + 1 / hbar**6 - 1 / (6 * hbar**8)
        assert ge.u_lower(hbar) == pytest.approx(
            hbar**2 / 8 * series_lo, abs=2e-6
        )

    def test_u2_rows(self):
        ge = gap_edge_series(2, 8)
        # a2: + 20/(3 hbar^4) inner term corresponds to q^2 coeff 5/12
        assert ge.upper[2].const_value() == Q(5, 12)
        assert ge.upper[4].const_value() == Q(-763, 13824)
        assert ge.lower[2].const_value() == Q(-1, 12)
        assert ge.lower[4].const_value() == Q(5, 13824)

    def test_u0_row(self):
        ge = gap_edge_series(0, 8)
        a0 = ge.upper
        assert a0[2].const_value() == Q(-1, 2)
        assert a0[4].const_value() == Q(7, 128)
        assert a0[6].const_value() == Q(-29, 2304)
        assert a0[8].const_value() == Q(68687, 18874368)
        assert ge.lower is None
        with pytest.raises(DomainError):
            ge.u_lower(6.0)

    def test_u3_u4_rows(self):
        g3 = gap_edge_series(3, 4)
        assert g3.upper[2].const_value() == Q(1, 16)
        assert g3.upper[3].const_value() == Q(1, 64)
        assert g3.lower[3].const_value() == Q(-1, 64)
        g4 = gap_edge_series(4, 4)
        assert g4.upper[2].const_value() == Q(1, 30)
        assert g4.lower[2].const_value() == Q(1, 30)


class TestAlphaBeta:
    def test_alpha0_is_one(self):
        for N in (1, 2, 3, 4):
            alphas, _ = alphabeta_extract(N, 8)
            assert alphas[0] == 1

    def test_beta0_values(self):
        for N in (1, 2, 3):
            _, betas = alphabeta_extract(N, 8)
            assert betas[0] == 1

    def test_alpha_matches_strong_expansion_pole(self):
        # alpha_1(N) must reproduce the 1/(2(N^2-1)) structure:
        # (hbar^2 N^2/8) alpha_1/hbar^4 = (hbar^2/8)(2/hbar)^4/(2(N^2-1))
        for N in (3, 5):
            alphas, _ = alphabeta_extract(N, 10)
            want = Q(16, 2 * (N * N - 1)) / (N * N)
            assert alphas[1] == want

    def test_rejects_gap_zero(self):
        with pytest.raises(DomainError):
            alphabeta_extract(0, 6)
