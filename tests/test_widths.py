import math
import warnings
from fractions import Fraction as Q

import pytest

from mathieu_resurgence.benderwu import mathieu_well_potential, polynomial_in_N
from mathieu_resurgence.errors import DomainError, RegimeWarning, StructureError
from mathieu_resurgence.series import PolyB
from mathieu_resurgence.widths import (
    band_width,
    barrier_top,
    gap_width,
    general_width_leading,
    large_order_prediction,
    p_inst,
    p_inst_from_zjj,
)


class TestPinst:
    def test_normalization(self):
        assert p_inst(3)[0] == PolyB.const(1)

    def test_first_order(self):
        assert p_inst(3)[1] == PolyB((Q(-3, 4) / 32, Q(-4, 32), Q(-3, 32)))

    def test_second_order(self):
        want = PolyB(
            (Q(-87, 32768), Q(-176, 32768), Q(-312, 32768), Q(64, 32768), Q(144, 32768))
        )
        assert p_inst(3)[2] == want

    def test_ground_band_instanton_units(self):
        P = p_inst(2)
        B = Q(1, 2)
        c1 = P[1](B) * 8
        c2 = P[2](B) * 64
        assert c1 == Q(-7, 8)
        assert c2 == Q(-59, 128)
        # the diagrammatic value, to seven decimals
        assert float(c2) == pytest.approx(-0.460937498, abs=1e-7)

    def test_agrees_with_quantization_function_route(self):
        a = p_inst(5)
        b = p_inst_from_zjj(5)
        assert all(a[k] == b[k] for k in range(6))

    def test_depends_only_on_u_pert(self):
        bw = polynomial_in_N(mathieu_well_potential(20), 7)
        a = p_inst(5)
        b = p_inst(5, u_series=bw)
        assert all(a[k] == b[k] for k in range(6))

    def test_rejects_inconsistent_series(self):
        from mathieu_resurgence.series import PolySeries

        bad = PolySeries("hbar", 6, [PolyB((-1,)), PolyB((0, 2))])
        with pytest.raises(StructureError):
            p_inst(4, u_series=bad)


class TestBandWidth:
    def test_against_oracle_moderate(self):
        from mathieu_resurgence.oracle import width_num

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = band_width(0.5, 0, order=3)
        num = width_num(0.5, 0, "band")["width"]
        assert abs(est.with_fluctuations / num - 1) < 0.05

    def test_against_oracle_small(self):
        from mathieu_resurgence.oracle import width_num

        est = band_width(0.3, 0, order=3)
        num = width_num(0.3, 0, "band")["width"]
        assert abs(est.with_fluctuations / num - 1) < 0.01

    @pytest.mark.parametrize("hbar", [0.1, 0.07])
    def test_against_oracle_deep(self, hbar):
        # the extended-precision oracle resolves widths of 1e-28 .. 1e-50
        from mathieu_resurgence.oracle import width_num

        for N in range(4):
            num = width_num(hbar, N, "band")
            est = band_width(hbar, N, order=4).with_fluctuations
            assert abs(est / num["width"] - 1) < 1e-3
            assert num["error_bound"] <= 1e-6 * num["width"]
            assert num["dps_used"] is not None

    def test_regime_warning(self):
        with pytest.warns(UserWarning):
            band_width(1.0, 4, order=2)

    def test_regime_warning_category(self):
        with pytest.warns(RegimeWarning):
            band_width(1.0, 4, order=2)

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(DomainError):
            band_width(-0.5, 0)

    @pytest.mark.parametrize("hbar, N", [(math.nan, 0), (math.inf, 0), (0.0, 1), (0.5, -1)])
    def test_rejects_nonfinite_hbar_and_negative_label(self, hbar, N):
        with pytest.raises(DomainError):
            band_width(hbar, N)

    def test_leading_positive_and_fluctuations_shrink(self):
        ws = [band_width(h, 0, order=2) for h in (0.5, 0.25, 0.125)]
        assert all(w.leading > 0 for w in ws)
        rel = [abs(w.with_fluctuations / w.leading - 1) for w in ws]
        assert rel[0] > rel[1] > rel[2]


class TestGapWidth:
    def test_formula_instance_N1(self):
        w = gap_width(6.0, 1)
        assert w.leading == pytest.approx(6.0**2 / 4 * (2 / 6.0) ** 2, rel=1e-14)
        assert w.leading == pytest.approx(1.0)

    def test_against_oracle(self):
        from mathieu_resurgence.oracle import width_num

        num = width_num(6.0, 2, "gap")["width"]
        assert abs(gap_width(6.0, 2).leading / num - 1) < 0.10

    def test_stirling_form_large_N(self):
        w = gap_width(1.0, 20)
        assert abs(w.with_fluctuations / w.leading - 1) < 0.02

    def test_no_gap_zero(self):
        with pytest.raises(DomainError):
            gap_width(6.0, 0)

    @pytest.mark.parametrize("hbar, N", [(6.0, -1), (math.nan, 2), (math.inf, 2), (0.0, 2)])
    def test_rejects_negative_label_and_nonfinite_hbar(self, hbar, N):
        with pytest.raises(DomainError):
            gap_width(hbar, N)

    def test_regime_warning(self):
        with pytest.warns(UserWarning):
            gap_width(0.3, 1)


class TestLargeLabels:
    """The factorials and powers of the width formulas leave the double range
    long before the widths do; a width itself outside it is a DomainError."""

    @pytest.mark.parametrize("hbar, N", [(0.5, 171), (2.0, 171), (0.05, 90)])
    def test_band_width_past_the_float_factorial(self, hbar, N):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = band_width(hbar, N, order=2)
        log_lead = (math.log(4 * hbar / math.sqrt(2 * math.pi)) - math.lgamma(N + 1)
                    + (N + 0.5) * math.log(32 / hbar) - 8 / hbar)
        assert math.log(w.leading) == pytest.approx(log_lead, rel=1e-12)
        assert math.isfinite(w.with_fluctuations)

    @pytest.mark.parametrize("hbar, N", [(0.05, 90), (0.02, 120), (1.0, 100)])
    def test_gap_width_past_the_float_factorial(self, hbar, N):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = gap_width(hbar, N)
        # exact rational form of (hbar^2/4) (2/hbar)^(2N) / (2^(N-1) (N-1)!)^2
        h = Q(hbar)
        exact = h * h / 4 * (2 / h) ** (2 * N) / (2 ** (N - 1) * math.factorial(N - 1)) ** 2
        assert w.leading == pytest.approx(float(exact), rel=1e-12)
        assert w.with_fluctuations / w.leading == pytest.approx(1, abs=0.01)

    @pytest.mark.parametrize(
        "call", [lambda: gap_width(3.0, 171), lambda: gap_width(1e-3, 400),
                 lambda: band_width(0.005, 0), lambda: band_width(1e-3, 2)],
    )
    def test_width_outside_the_double_range_is_a_domain_error(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DomainError, match="double range"):
                call()

    def test_values_in_range_keep_the_direct_formula(self):
        # the logarithmic form is only the fallback: widths that the direct
        # product reaches keep its last bits
        w = gap_width(6.0, 3)
        assert w.leading == 6.0 * 6.0 / 4 * (2 / 6.0) ** 6 / (2 ** 2 * math.factorial(2)) ** 2
        b = band_width(0.3, 1, order=2)
        assert b.leading == (4 * 0.3 / math.sqrt(2 * math.pi) / math.factorial(1)
                             * (32 / 0.3) ** 1.5 * math.exp(-8 / 0.3))


class TestGeneralWidth:
    def test_band_limit(self):
        # at the band location the single formula approaches the band width;
        # the leading form misses fluctuation corrections of O(hbar ln hbar)
        from mathieu_resurgence.spectral import u_pert

        ratios = []
        for hbar in (0.4, 0.25):
            u = float(u_pert(8)(hbar, Q(1, 2)))
            w = general_width_leading(hbar, u)
            est = band_width(hbar, 0, order=3).with_fluctuations
            ratios.append(w / est)
        assert all(abs(r - 1) < 0.12 for r in ratios)
        assert abs(ratios[1] - 1) < abs(ratios[0] - 1)

    def test_gap_limit(self):
        # far above the barrier it approaches the gap width
        hbar, N = 8.0, 2
        u = hbar * hbar / 8 * N * N
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = general_width_leading(hbar, u)
            est = gap_width(hbar, N).leading
        assert abs(w / est - 1) < 0.25

    def test_condensation_warning(self):
        with pytest.warns(UserWarning, match="condensation"):
            general_width_leading(0.5, 0.999)

    def test_sanity_bracket_inside_spectrum(self):
        # u = 0 sits between the centers of bands 1 and 2 at hbar = 0.5;
        # the interpolating width must land between their oracle widths
        from mathieu_resurgence.oracle import width_num

        w = general_width_leading(0.5, 0.0)
        lo = width_num(0.5, 1, "band")["width"]
        hi = width_num(0.5, 2, "band")["width"]
        assert min(lo, hi) < w < max(lo, hi)


class TestBarrierTop:
    @pytest.mark.parametrize("hbar", [0.0, math.nan, math.inf])
    def test_rejects_nonfinite_hbar(self, hbar):
        with pytest.raises(DomainError):
            barrier_top(hbar)

    def test_scalings(self):
        bt = barrier_top(0.5)
        x = 8 / (math.pi * 0.5)
        assert bt["N_band_center"] == pytest.approx(x - 0.5)
        assert bt["N_gap_center"] == pytest.approx(x)
        assert bt["N_edges"] == (pytest.approx(x - 0.25), pytest.approx(x + 0.25))
        assert bt["u_split"][1] - 1 == pytest.approx(math.pi * 0.5 / 16)
        assert bt["Q_of_edge"](3, +1) == pytest.approx(math.pi**2 / 16 * 3.25**2)

    def test_weak_strong_consistency_at_top(self):
        # both expansions evaluated at the top scaling give u = 1 + O(hbar)
        from mathieu_resurgence.spectral import bs_invert_strong, u_pert

        hbar = 0.12
        Nb = 8 / (math.pi * hbar) - 0.5
        u_weak = float(u_pert(10)(hbar, Q(int(round(Nb)) * 2 + 1, 2)))
        se = bs_invert_strong(2, depth=12)
        Ng = int(round(8 / (math.pi * hbar)))
        u_strong = se.u(hbar, Ng)
        assert u_weak == pytest.approx(1.0, abs=0.12)
        assert u_strong == pytest.approx(1.0, abs=0.12)

    def test_oracle_crossing_near_prediction(self):
        # u = 1 lies in band N_band_center or gap N_gap_center within 0.5
        from mathieu_resurgence.oracle import band_edges

        hbar = 0.5
        bt = barrier_top(hbar)
        tb = {(p.N, p.edge): p.u for p in band_edges(hbar, 8)}
        location = None
        for N in range(8):
            if tb[(N, "bottom")] <= 1.0 <= tb[(N, "top")]:
                location = ("band", N)
            if N >= 1 and tb[(N - 1, "top")] < 1.0 < tb[(N, "bottom")]:
                location = ("gap", N)
        assert location is not None
        kind, N = location
        ref = bt["N_band_center"] if kind == "band" else bt["N_gap_center"]
        assert abs(N - ref) <= 0.5


class TestLargeOrderPrediction:
    def test_gamma_ratio(self):
        a = large_order_prediction(0, 31)
        b = large_order_prediction(0, 30)
        assert float(a / b) == pytest.approx((30 + 1) / 16.0, rel=1e-12)

    def test_ratio_content_against_exact_coefficients(self):
        # the reliable content of the asymptote is the Gamma-ratio growth
        # u_{n+1}/u_n -> (n + 2N + 1)/16; the absolute prefactor of the
        # schematic form is polluted by log-enhanced pair corrections
        from mathieu_resurgence.benderwu import rs_series

        for N in (0, 1):
            series = rs_series(mathieu_well_potential(70), N, 32)
            u30 = float(series[30].const_value())
            u31 = float(series[31].const_value())
            pred = float(large_order_prediction(N, 31) / large_order_prediction(N, 30))
            assert u31 / u30 == pytest.approx(pred, rel=0.05)
            # same sign and same factorial family as the exact coefficients
            assert u30 < 0 and float(large_order_prediction(N, 30)) < 0


class TestConvergenceSweeps:
    def test_band_ratio_monotone_over_levels(self):
        # formula/oracle -> 1 monotonically as hbar falls, for N = 0, 1, 2
        from mathieu_resurgence.oracle import width_num

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for N in (0, 1, 2):
                rel = []
                for h in (0.5, 0.4, 0.3):
                    est = band_width(h, N, order=4).with_fluctuations
                    num = width_num(h, N, "band")["width"]
                    rel.append(abs(est / num - 1))
                assert rel[0] > rel[1] > rel[2]
                assert rel[-1] < 1e-3

    def test_general_width_continuous_across_barrier(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            jumps = []
            for d in (1e-3, 1e-5):
                a = general_width_leading(0.5, 1 - d)
                b = general_width_leading(0.5, 1 + d)
                jumps.append(abs(a - b) / a)
        assert jumps[0] < 1e-3 and jumps[1] < jumps[0]
