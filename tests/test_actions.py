import math
from fractions import Fraction as Q

import mpmath
import pytest
from references import barrier_top_a0, wronskian_defect

from mathieu_resurgence import actions, dunham
from mathieu_resurgence.actions import (
    action_higher,
    action_leading,
    action_leading_derivative,
    operator_a1,
    operator_a2,
)
from mathieu_resurgence.errors import DomainError, PoleError, StructureError
from mathieu_resurgence.series import PolyB, PolySeries, horner

UGRID = [(-0.95 + 1.9 * k / 49) for k in range(50)]

# the Stirling coefficients s_k of ln Gamma(1/2 + B), terms s_k B^(1-2k)
STIRLING = [Q(0), Q(-1, 24), Q(7, 2880)]


def picard_fuchs_residual(u: float, dual: bool = False) -> float:
    """Finite-difference residual of y'' = y / (4 (1 - u^2)) for y = a0,
    or a0D with ``dual``, at step h = 1e-4.

    Second differences at that step sit below the double-precision noise
    floor, so the evaluations take K and E from mpmath at 30 digits.
    """
    with mpmath.workdps(30):
        uu, hh = mpmath.mpf(u), mpmath.mpf(1e-4)

        def y(x):
            m = (1 - x) / 2 if dual else (1 + x) / 2
            return 4 / mpmath.pi * (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m))

        # Fourth-order stencil: the (1-u^2)^-3 growth of y'''' near the edges
        # would otherwise dominate the residual at h = 1e-4.
        second = (
            -y(uu + 2 * hh) + 16 * y(uu + hh) - 30 * y(uu)
            + 16 * y(uu - hh) - y(uu - 2 * hh)
        ) / (12 * hh * hh)
        return float(second - y(uu) / (4 * (1 - uu * uu)))


def well_row(n: int, order: int) -> list[Q]:
    """Taylor coefficients of a_n in u + 1, up to (u + 1)^order."""
    return dunham.well_action_series(n, order)[n]


def well_series(n: int, order: int) -> PolySeries:
    """a_n as a series in v = u + 1, the form the operator route takes."""
    return PolySeries("u+1", order, [PolyB.const(c) for c in well_row(n, order)])


def high_table(n: int, depth: int) -> dict[int, Q]:
    """a_n(u) for u >> 1 as {h: c} meaning sum c (2u)^(h/2)."""
    return dunham.high_action_series(n, depth)[n]


class TestLeading:
    def test_degenerate_cycle(self):
        a0, _ = action_leading(-1.0)
        assert a0 == 0.0

    def test_barrier_top_values(self):
        a0, a0d = action_leading(1.0)
        assert a0 == pytest.approx(4 / math.pi, abs=1e-12)
        assert a0d == 0

    def test_instanton_action_endpoint(self):
        _, a0d = action_leading(-1.0)
        assert 2 * math.pi * a0d.imag == pytest.approx(8.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            action_leading(-1.5)

    def test_reality_structure(self):
        for u in (-0.5, 0.0, 0.8, 2.0, 10.0):
            a0, a0d = action_leading(u)
            assert isinstance(a0, float)
            assert a0d.real == 0.0 and a0d.imag >= 0.0

    def test_continuity_across_barrier(self):
        lo = action_leading(1 - 1e-9)
        hi = action_leading(1 + 1e-9)
        assert abs(hi[0] - lo[0]) < 1e-7
        assert abs(hi[1] - lo[1]) < 1e-7

    def test_strong_asymptotics(self):
        # pi Im a0D ~ sqrt(2u) (ln(8u) - 2) far above the barrier
        u = 200.0
        _, a0d = action_leading(u)
        target = math.sqrt(2 * u) * (math.log(8 * u) - 2)
        assert math.pi * a0d.imag == pytest.approx(target, rel=2e-3)

    def test_well_log_asymptotics(self):
        # pi Im a0D ~ 4 + (1+u)/2 (ln((1+u)/32) - 1) near the bottom;
        # the truncation error of the leading form is O(v^2 ln v)
        for u in (-0.99, -0.95):
            _, a0d = action_leading(u)
            v = 1 + u
            target = 4 + v / 2 * (math.log(v / 32) - 1)
            assert math.pi * a0d.imag == pytest.approx(
                target, abs=2 * v * v * abs(math.log(v))
            )

    @pytest.mark.parametrize(
        "u", [-0.99, -0.5, 0.0, 0.5, 0.9, 0.999, 1.001, 1.5, 3.0, 100.0, 1e4]
    )
    def test_closed_forms_and_slopes_match_mpmath(self, u):
        # the same closed forms with mpmath's K and E at 30 digits, and the
        # slopes by mpmath's numerical derivative: an independent route to
        # both the AGM and the derivative identities
        K, E = mpmath.ellipk, mpmath.ellipe
        if u < 1:
            def a0(x):
                return 4 / mpmath.pi * (E((1 + x) / 2) - (1 - x) / 2 * K((1 + x) / 2))

            def im_a0d(x):
                return 4 / mpmath.pi * (E((1 - x) / 2) - (1 + x) / 2 * K((1 - x) / 2))
        else:
            def a0(x):
                return 2 * mpmath.sqrt(2) / mpmath.pi * mpmath.sqrt(1 + x) * E(2 / (1 + x))

            def im_a0d(x):
                md = (x - 1) / (x + 1)
                return 4 / mpmath.pi * mpmath.sqrt((x + 1) / 2) * (K(md) - E(md))

        got_a0, got_a0d = action_leading(u)
        got_da0, got_da0d = action_leading_derivative(u)
        assert got_a0d.real == 0 and got_da0d.real == 0
        with mpmath.workdps(30):
            x = mpmath.mpf(u)
            want = [a0(x), im_a0d(x), mpmath.diff(a0, x), mpmath.diff(im_a0d, x)]
            got = [got_a0, got_a0d.imag, got_da0, got_da0d.imag]
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * abs(w), (g, w)


class TestHigher:
    def test_a1_series_vs_closed_form(self):
        row = well_row(1, 12)
        assert action_higher(-0.5, 1) == pytest.approx(horner(row, -0.5 + 1.0), abs=1e-8)

    def test_a2_series_vs_closed_form(self):
        row = well_row(2, 12)
        assert action_higher(-0.5, 2) == pytest.approx(horner(row, -0.5 + 1.0), abs=1e-9)

    def test_poles_flagged(self):
        with pytest.raises(PoleError):
            action_higher(1.0, 1)

    def test_unsupported_order(self):
        with pytest.raises(DomainError):
            action_higher(0.0, 5)


class TestWellSeries:
    def test_a0_printed_row(self):
        want = [0, Q(1, 2), Q(1, 32), Q(3, 512), Q(25, 16384), Q(245, 524288)]
        assert well_row(0, 5) == want

    def test_a1_printed_row(self):
        want = [Q(1, 128), Q(5, 2048), Q(35, 32768), Q(525, 1048576), Q(8085, 33554432)]
        assert well_row(1, 4) == want

    def test_a2_printed_row(self):
        want = [
            Q(17, 262144),
            Q(721, 8388608),
            Q(10941, 134217728),
            Q(141757, 2147483648),
            Q(3342339, 68719476736),
        ]
        assert well_row(2, 4) == want

    def test_a0_series_matches_closed_form(self):
        row = well_row(0, 12)
        assert horner(row, -0.9 + 1.0) == pytest.approx(action_leading(-0.9)[0], abs=1e-10)


class TestHighSeries:
    def test_a0_bracket(self):
        tab = high_table(0, 8)
        assert tab[1] == 1
        # bracket coefficients relative to sqrt(2u): -1/(16 u^2) etc.
        assert tab[-3] * 4 == -Q(1, 16) * 16  # (2u)^-2 = 1/(4u^2)
        assert tab[-7] == -Q(15, 64)
        assert tab[-11] == -Q(105, 256)

    def test_a1_prefactor_and_bracket(self):
        tab = high_table(1, 8)
        assert tab[-5] == -Q(1, 16)
        # 35/32u^2 relative: coefficient at (2u)^(-9/2) is -35/128
        assert tab[-9] == -Q(35, 128)

    def test_a2_row(self):
        tab = high_table(2, 8)
        assert tab[-7] == -Q(1, 64)
        assert tab[-11] == -Q(273, 1024)

    def test_eval_matches_elliptic_far_out(self):
        u = 30.0
        got = sum(float(c) * (2 * u) ** (h / 2) for h, c in high_table(0, 10).items())
        assert got == pytest.approx(action_leading(u)[0], rel=1e-12)


class TestOperators:
    def test_operator_a1_exact(self):
        a0, a1 = well_series(0, 10), well_series(1, 8)
        got = operator_a1(a0)
        assert all(got[k] == a1[k] for k in range(7))

    def test_operator_a2_exact(self):
        a0, a2 = well_series(0, 12), well_series(2, 8)
        got = operator_a2(a0)
        assert all(got[k] == a2[k] for k in range(6))


class TestIdentities:
    def test_wronskian_on_grid(self):
        for u in UGRID:
            assert abs(wronskian_defect(u)) <= 1e-11

    def test_wronskian_scaling_consistency(self):
        # defect inherits the AGM's tolerance through the Legendre relation
        # E K' + E' K - K K' = pi/2, K' = K(1-m)
        for u in (0.3, -0.6):
            m = (1 + u) / 2
            (K, E), (Kp, Ep) = actions._ellip_KE(m), actions._ellip_KE(1 - m)
            legendre_defect = E * Kp + Ep * K - K * Kp - math.pi / 2
            assert abs(wronskian_defect(u)) <= 10 * abs(legendre_defect) + 1e-13

    def test_picard_fuchs_both_solutions(self):
        for u in UGRID[::7]:
            assert abs(picard_fuchs_residual(u)) <= 1e-8
            assert abs(picard_fuchs_residual(u, dual=True)) <= 1e-8

    def test_derivatives_vs_finite_difference(self):
        h = 1e-6
        for u in (-0.4, 0.5, 3.0):
            da0, da0d = action_leading_derivative(u)
            fd = (action_leading(u + h)[0] - action_leading(u - h)[0]) / (2 * h)
            fdd = (
                action_leading(u + h)[1].imag - action_leading(u - h)[1].imag
            ) / (2 * h)
            assert da0 == pytest.approx(fd, rel=1e-7, abs=1e-9)
            assert da0d.imag == pytest.approx(fdd, rel=1e-6, abs=1e-9)

    def test_barrier_top_form(self):
        for du in (1e-3, -1e-3, 1e-4):
            u = 1 + du
            assert barrier_top_a0(u) == pytest.approx(
                action_leading(u)[0], abs=5e-3 * abs(du) + 1e-12
            )


class TestRiccatiRings:
    def test_parity_mismatch_is_a_typed_error(self):
        # the recursion adds only terms over one power of 1/p, so a sum of
        # two powers, of either parity, is a typed error that survives
        # python -O
        with pytest.raises(StructureError):
            dunham._WELL.add(({}, {}, 0, 1), ({}, {}, 1, 1))
        with pytest.raises(StructureError):
            dunham._HIGH.add(({}, {}, 1, 1), ({}, {}, 2, 1))
        with pytest.raises(StructureError):
            dunham._WELL.add(({}, {}, 1, 1), ({}, {}, 3, 1))

    @pytest.mark.parametrize("ring", [dunham._WELL, dunham._HIGH])
    def test_every_order_sits_over_one_power_of_p(self, ring):
        # vt_n = (P0 + r P1) p^-(3n-1): the invariant `add` relies on
        assert [e[2] for e in dunham._riccati(ring, 8)] == [3 * n - 1 for n in range(9)]

    @pytest.mark.parametrize(
        "series", [dunham.well_action_series, dunham.high_action_series]
    )
    def test_even_order_r_part_is_a_typed_error(self, series, monkeypatch):
        # an even-order term carrying r = dw/dy (well) or sin y (high) has no
        # cycle integral in this form
        bad = ({0: 1}, {0: 1}, -1, 1)
        monkeypatch.setattr(dunham, "_riccati", lambda ring, n: [bad] * (n + 1))
        with pytest.raises(StructureError):
            series(1, 4)

    def test_well_series_prefix_does_not_depend_on_order(self):
        # a 1/r expansion cut too short shows up as a top coefficient that
        # changes when more orders are asked for
        deep, shallow = dunham.well_action_series(4, 12), dunham.well_action_series(4, 8)
        for n in range(5):
            assert deep[n][:9] == shallow[n]

    def test_high_series_prefix_does_not_depend_on_depth(self):
        deep, shallow = dunham.high_action_series(4, 12), dunham.high_action_series(4, 8)
        for n in range(5):
            floor = max(shallow[n]) - 2 * 8 - 2
            assert {h: c for h, c in deep[n].items() if h >= floor} == shallow[n]


class TestDualPeriodRoute:
    """The P/NP relation by a second route: the instanton function A of the
    quantization functions against the dual WKB period,

        (2 pi/hbar) sum_{k<=n} hbar^(2k) (-1)^k a_k(-u)
            = A/2 - B ln(32/hbar) + B ln B - B + sum_{1<=k<=n} s_k B^(1-2k) + O(hbar)

    at u = hbar E(hbar, B) - 1, where (-1)^k a_k(-u) = Im a_k^D(u).  The
    right side does not integrate the relation
    dE/dB = -(hbar/16)(2B + hbar dA/dhbar) again: A comes from
    ``zjj_construct`` and the left side from the closed forms."""

    @pytest.fixture(scope="class")
    def zjj(self):
        from mathieu_resurgence.spectral import zjj_construct

        return zjj_construct(14)

    @staticmethod
    def residual(zjj, B, hbar, n, dual_sign=-1):
        """Left side minus right side, WKB orders k <= n."""
        u = hbar * float(zjj.E_of_B(hbar, B)) - 1
        a = [action_leading(-u)[0], action_higher(-u, 1), action_higher(-u, 2)]
        lhs = 2 * math.pi / hbar * sum(hbar ** (2 * k) * dual_sign ** k * a[k]
                                       for k in range(n + 1))
        A, b = 16 / hbar + float(zjj.A_of_B(hbar, B)), float(B)
        rhs = (A / 2 - b * math.log(32 / hbar) + b * math.log(b) - b
               + sum(float(STIRLING[k]) * b ** (1 - 2 * k) for k in range(1, n + 1)))
        return lhs - rhs

    @pytest.mark.parametrize("B", [Q(1, 2), Q(5, 2), Q(21, 2)])
    def test_residual_is_first_order_in_hbar(self, zjj, B):
        r = {h: [self.residual(zjj, B, h, n) for n in range(3)] for h in (0.01, 0.005)}
        for n in range(3):
            # halving hbar halves the residual; at n = 0 the ratio is 1.74-1.83
            lo = 1.6 if n == 0 else 1.8
            assert lo <= r[0.01][n] / r[0.005][n] <= 2.2, (n, r)
        for h in r:
            # each WKB order brings the two sides closer
            assert abs(r[h][2]) < abs(r[h][1]) < abs(r[h][0]) < 2e-3, r

    def test_dual_sign(self, zjj):
        # with +a_1(-u) in place of -a_1(-u) the n = 1 residual is 3.5e-2
        assert abs(self.residual(zjj, Q(5, 2), 0.01, 1)) < 1e-5
        assert abs(self.residual(zjj, Q(5, 2), 0.01, 1, dual_sign=1)) > 1e-2
