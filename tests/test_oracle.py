import math
from decimal import Decimal

import mpmath
import pytest

from mathieu_resurgence.errors import ConvergenceError, DomainError
from mathieu_resurgence.oracle import (
    HillConfig,
    band_edges,
    crossing_Q,
    discriminant,
    figure1_dataset,
    figure2_dataset,
    width_num,
)


class TestBandEdges:
    def test_free_particle(self):
        pts = band_edges(1.0, 5, HillConfig(potential_scale=0.0))
        for p in pts:
            want = p.N**2 / 8 if p.edge == "bottom" else (p.N + 1) ** 2 / 8
            assert float(p.u) == pytest.approx(want, abs=1e-12)

    def test_weak_coupling_band_center(self):
        from fractions import Fraction as Q

        from mathieu_resurgence.spectral import bs_invert_weak

        pts = {(p.N, p.edge): p.u for p in band_edges(0.5, 0)}
        center = (pts[(0, "bottom")] + pts[(0, "top")]) / 2
        assert center == pytest.approx(float(bs_invert_weak(10)(0.5, Q(1, 2))), abs=1e-8)

    def test_strong_coupling_edges_match_series(self):
        from mathieu_resurgence.spectral import gap_edge_series

        tb = {(p.N, p.edge): p.u for p in band_edges(6.0, 2)}
        ge = gap_edge_series(1, 10)
        assert abs(tb[(0, "top")] / ge.u_lower(6.0) - 1) <= 1e-6
        assert abs(tb[(1, "bottom")] / ge.u_upper(6.0) - 1) <= 1e-6

    def test_interlacing(self):
        pts = band_edges(1.3, 6)
        tb = {(p.N, p.edge): p.u for p in pts}
        for N in range(6):
            assert tb[(N, "bottom")] < tb[(N, "top")]
            if N:
                assert tb[(N - 1, "top")] <= tb[(N, "bottom")]

    def test_truncation_doubling_invariant(self):
        base = band_edges(0.8, 3, HillConfig(truncation=24))
        double = band_edges(0.8, 3, HillConfig(truncation=48))
        for p, q in zip(base, double):
            assert abs(p.u - q.u) < 10.0 ** (-p.converged_digits)

    def test_shift_convention_spectrum_invariant(self):
        # V = +cos x and V = -cos x give the same spectrum
        plus = band_edges(0.9, 3, HillConfig(potential_scale=1.0))
        minus = band_edges(0.9, 3, HillConfig(potential_scale=-1.0))
        for p, q in zip(plus, minus):
            assert p.u == pytest.approx(q.u, abs=1e-11)

    def test_small_truncation_rejected(self):
        with pytest.raises(DomainError):
            band_edges(1.0, 2, HillConfig(truncation=4))


def _hill_determinant_discriminant(hbar, u, K):
    """cos(theta) by Hill's determinant: in y'' + (a - 2q cos 2x) y = 0, with
    a = 8u/hbar^2 and q = 4/hbar^2, 1 - D = det (1 - cos(pi sqrt(a))), det
    the continuant of the rows n = -K..K with couplings q/(4n^2 - a)."""
    h2 = mpmath.mpf(hbar) ** 2
    a, q = 8 * mpmath.mpf(u) / h2, 4 / h2
    f2, f1, gp = 1, 1, 0
    for n in range(-K, K + 1):
        g = q / (4 * n * n - a)
        f2, f1, gp = f1, f1 - gp * g * f2, g
    return 1 - f1 * (1 - mpmath.cos(mpmath.pi * mpmath.sqrt(a))).real


class TestDiscriminant:
    def test_free_particle_closed_form(self):
        cfg = HillConfig(potential_scale=0.0)
        for u in (0.5, 1.3):
            want = math.cos(2 * math.pi * math.sqrt(2 * u) / 1.0)
            assert discriminant(1.0, u, cfg) == pytest.approx(want, abs=1e-10)

    def test_edge_roots_match_matrix_edges(self):
        hbar = 0.5
        tb = {(p.N, p.edge): p.u for p in band_edges(hbar, 0)}

        def root(target, lo, hi):
            f = lambda x: discriminant(hbar, x) - target
            flo = f(lo)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            return 0.5 * (lo + hi)

        lo_edge = tb[(0, "bottom")]
        got = root(1.0, lo_edge - 5e-7, lo_edge + 3e-7)
        assert abs(got - lo_edge) <= 1e-9

    def test_gap_has_magnitude_above_one(self):
        tb = {(p.N, p.edge): p.u for p in band_edges(0.5, 1)}
        mid_gap = (tb[(0, "top")] + tb[(1, "bottom")]) / 2
        assert abs(discriminant(0.5, mid_gap)) > 1

    def test_edge_type_alternation(self):
        # periodic/antiperiodic edges alternate with N: D at bottom of band N
        # is +1 for even N, -1 for odd N
        hbar = 1.5
        tb = {(p.N, p.edge): p.u for p in band_edges(hbar, 2)}
        assert discriminant(hbar, tb[(0, "bottom")]) == pytest.approx(1.0, abs=1e-6)
        assert discriminant(hbar, tb[(1, "bottom")]) == pytest.approx(-1.0, abs=1e-6)
        assert discriminant(hbar, tb[(2, "bottom")]) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("hbar", [0.3, 0.5])
    def test_mid_band_against_hill_determinant(self, hbar):
        # a third route, for the value between the edges: the ground band is
        # 1.3e-11 wide at hbar = 0.3, so D moves by ~1e11 per unit of u there,
        # and u must enter the recurrences without rounding
        import mpmath

        tb = {(p.N, p.edge): p.u for p in band_edges(hbar, 0)}
        u = (tb[(0, "bottom")] + tb[(0, "top")]) / 2
        with mpmath.workdps(30):
            # the truncation error falls like 1/K^3: one Richardson step
            coarse, fine = (_hill_determinant_discriminant(hbar, u, K) for K in (2000, 4000))
            want = float((8 * fine - coarse) / 7)
        assert discriminant(hbar, u) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, Decimal("NaN"),
                                   Decimal("-Infinity"), Decimal("sNaN")])
    def test_non_finite_u_is_a_domain_error(self, u):
        # a NaN would never meet the series' stopping rule
        with pytest.raises(DomainError):
            discriminant(1.0, u)

    def test_value_past_the_double_range_stays_finite(self):
        # |D| is about 1e620 here: a float would read -inf
        d = discriminant(0.01, -0.99)
        assert mpmath.isfinite(d) and d < 0 and abs(d) > 1e308
        assert type(discriminant(0.5, 0.3)) is float

    @pytest.mark.parametrize("hbar", [1e-3, 1e-200])
    def test_precision_cap(self, hbar):
        # 6,000 digits and more would be needed: refused before any series runs
        with pytest.raises(ConvergenceError, match="more than 2000 digits"):
            discriminant(hbar, -1.0)

    @pytest.mark.parametrize("hbar", [0.3, 0.1, 0.07])
    def test_deep_edges_of_the_extended_precision_tier(self, hbar):
        # bands down to ~1e-50 wide, far below what a double-precision
        # integration can see: D = +1 at the periodic edges (bottom of an
        # even band, top of an odd one), -1 at the antiperiodic ones, and
        # |D| > 1 inside every gap
        tb = {(p.N, p.edge): p.u for p in band_edges(hbar, 3, HillConfig(dps=60))}
        for (N, edge), u in tb.items():
            want = 1.0 if (N + (edge == "top")) % 2 == 0 else -1.0
            assert discriminant(hbar, u) == pytest.approx(want, abs=1e-6), (N, edge)
        for N in range(1, 4):
            assert abs(discriminant(hbar, (tb[(N - 1, "top")] + tb[(N, "bottom")]) / 2)) > 1


class TestWidths:
    def test_band_width_against_asymptotics(self):
        import warnings

        from mathieu_resurgence.widths import band_width

        got = width_num(0.5, 0, "band")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = band_width(0.5, 0, order=3).with_fluctuations
        assert abs(est / got["width"] - 1) < 0.05

    def test_gap_width_against_asymptotics(self):
        from mathieu_resurgence.widths import gap_width

        got = width_num(6.0, 2, "gap")
        assert abs(gap_width(6.0, 2).leading / got["width"] - 1) < 0.10

    def test_extended_precision_engages(self):
        out = width_num(0.3, 0, "band")
        assert out["dps_used"] is not None
        assert out["width"] == pytest.approx(1.2534757464e-11, rel=1e-6)
        assert out["error_bound"] < 1e-3 * out["width"]

    def test_width_bound_matches_the_digits_of_edges_inside_the_well(self):
        # the edges sit at u = 0.0825 and 0.0920; each one's digits count
        # relative to max(|u|, 1), so each term of the bound is at least
        # 10^-digits, not |u| 10^-digits
        got = width_num(0.8, 1, "band")
        assert got["dps_used"] is None
        assert got["error_bound"] >= 2e-13

    def test_equal_band_gap_widths_near_top(self):
        wb = width_num(2.0, 1, "band")["width"]
        wg = width_num(2.0, 1, "gap")["width"]
        assert 0.5 < wb / wg < 2.0

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            width_num(1.0, 0, "gap")
        with pytest.raises(DomainError):
            width_num(1.0, 0, "ridge")


class TestFloatTier:
    """The float tier's edges, certified against the exact eigenvalues of
    the same Hill matrix by Sturm counts at 30 digits."""

    @pytest.mark.parametrize("hbar", [0.3 * (3.5 / 0.3) ** (i / 11) for i in range(12)])
    def test_edges_within_bound_of_extended_precision(self, hbar):
        # |u - u_exact| <= 2.5e-13 max(1, |u|) at the float tier's own
        # truncation M: the two counts bracket the exact eigenvalue
        import mpmath

        from mathieu_resurgence import tridiag
        from mathieu_resurgence.oracle import _edge_index

        M = HillConfig().resolve_truncation(hbar, 19)
        with mpmath.workdps(30):
            for p in band_edges(hbar, 19):
                kappa, i = _edge_index(p.N, p.edge)
                d = [mpmath.mpf(hbar) ** 2 / 2 * (k + mpmath.mpf(kappa)) ** 2
                     for k in range(-M, M + 1)]
                e = [mpmath.mpf(1) / 2] * (2 * M)
                bound = 2.5e-13 * max(1.0, abs(p.u))
                lo, hi = mpmath.mpf(p.u) - bound, mpmath.mpf(p.u) + bound
                assert tridiag.count_below(d, e, lo) <= i < tridiag.count_below(d, e, hi)

    def test_edges_ascend_where_gaps_close_below_double_precision(self):
        for hbar in (2.5, 3.5, 8.0):
            tb = {(p.N, p.edge): p.u for p in band_edges(hbar, 19)}
            seq = [tb[(N, edge)] for N in range(20) for edge in ("bottom", "top")]
            assert seq == sorted(seq)

    def test_half_truncation_too_small_is_a_convergence_error(self):
        # the half truncation M//2 = 35 holds 71 levels per sector
        with pytest.raises(ConvergenceError, match="M=70"):
            band_edges(1.0, 100)
        with pytest.raises(ConvergenceError):
            band_edges(1.0, 17, HillConfig(truncation=8))
        assert len(band_edges(1.0, 16, HillConfig(truncation=8))) == 34

    def test_truncation_cap(self):
        # a truncation past the cap is refused before any matrix is built
        with pytest.raises(ConvergenceError, match="M=2.454e"):
            band_edges(1e-6, 2)
        with pytest.raises(ConvergenceError, match="M=1e"):
            band_edges(1.0, 2, HillConfig(truncation=10**100))
        with pytest.raises(ConvergenceError, match="M=inf"):
            width_num(1e-308, 0, "band")

    @pytest.mark.parametrize("hbar", [0.0, -0.5, math.nan, math.inf, -math.inf, 1e200])
    def test_hbar_domain(self, hbar):
        with pytest.raises(DomainError):
            band_edges(hbar, 2)
        with pytest.raises(DomainError):
            width_num(hbar, 0, "band")
        with pytest.raises(DomainError):
            figure1_dataset([0.5, hbar], N_max=1)

    @pytest.mark.parametrize("Q", [0.0, -1.0, math.nan, math.inf])
    def test_Q_domain(self, Q):
        with pytest.raises(DomainError):
            figure2_dataset([Q], N_max=1)

    def test_band_label_domain(self):
        with pytest.raises(DomainError):
            band_edges(1.0, -1)
        with pytest.raises(DomainError):
            band_edges(1.0, 2, edges=[(-1, "top")])
        with pytest.raises(DomainError):
            width_num(0.5, -1, "band")
        with pytest.raises(DomainError):
            figure1_dataset([], N_max=-1)
        with pytest.raises(DomainError):
            figure2_dataset([], N_max=-1)

    def test_edge_name_domain(self):
        # an unknown name must not be read as the bottom edge
        with pytest.raises(DomainError):
            band_edges(0.5, 2, edges=[(1, "middle")])
        with pytest.raises(DomainError):
            crossing_Q(3, "middle")


class TestExtendedPrecision:
    @pytest.mark.parametrize("hbar, N", [(8.0, 5), (8.0, 6), (10.0, 6), (0.7, 14), (1.0, 12)])
    def test_narrow_gaps_switch_tier(self, hbar, N):
        from mathieu_resurgence.widths import gap_width

        got = width_num(hbar, N, "gap")
        assert got["dps_used"] is not None
        assert abs(gap_width(hbar, N).leading / got["width"] - 1) < 0.10
        assert got["error_bound"] <= 1e-6 * got["width"]

    @pytest.mark.parametrize("hbar, N", [(0.25, 0), (0.2, 1)])
    def test_width_bound_covers_the_eigensolver_certificate(self, hbar, N):
        # each edge is certified only to within half its block's tolerance,
        # 10^(4 - dps) times the block's largest diagonal entry (at least
        # hbar^2 M^2 / 2), however closely the truncations M and M//2 agree
        got = width_num(hbar, N, "band")
        M, dps = got["truncation"], got["dps_used"]
        half_tol = 10.0 ** (4 - dps) * max(1.0, hbar ** 2 * M ** 2 / 2) / 2
        assert got["error_bound"] >= 2 * half_tol

    def test_bound_below_the_double_range_stays_positive(self):
        # a 7.4e-307 band at dps 324: its bound, ~2e-324, rounds to zero in float()
        got = width_num(0.01135, 0, "band")
        assert 0 < got["error_bound"] <= 1e-6 * got["width"]

    def test_wide_gaps_stay_float(self):
        for hbar, N in ((4.0, 1), (8.0, 3), (0.7, 3)):
            assert width_num(hbar, N, "gap")["dps_used"] is None

    def test_only_the_two_edges_are_computed(self, monkeypatch):
        from mathieu_resurgence import tridiag

        calls = []
        real = tridiag.eigenvalues

        def counted(d, e, ks, tol=None):
            ks = list(ks)
            if tol is not None:  # not the float copy an mp call brackets from
                calls.extend((len(d), k) for k in ks)
            return real(d, e, ks, tol)

        monkeypatch.setattr(tridiag, "eigenvalues", counted)
        width_num(0.2, 3, "band")
        # two edges at two truncations, each index 3 of its sector: index 1
        # of the upper parity block
        assert sorted(k for _, k in calls) == [1, 1, 1, 1]
        calls.clear()
        width_num(8.0, 6, "gap")
        # adjacent indices 5 and 6 of one sector, in different blocks
        assert sorted(k for _, k in calls) == [2, 2, 3, 3]
        assert len({n for n, _ in calls}) == 4  # two block sizes per truncation

    @pytest.mark.parametrize(
        "call, edges",
        [
            (lambda: width_num(8.0, 6, "gap"), 2),
            (lambda: band_edges(3.5, 19, HillConfig(truncation=26, dps=30)), 40),
        ],
        ids=["gap-8-6", "band-edges-3.5"],
    )
    def test_newton_pass_budget_per_edge(self, monkeypatch, call, edges):
        # each edge at M//2 starts from its double-precision value, one
        # eigenvalue of its parity block, and each edge at M from its value
        # at M//2, so Newton converges quadratically (2 and 1 extended-
        # precision passes per edge measured); an unsplit sector, whose
        # near-double gap pairs share one bracket, needs 30 and 46 on
        # average here
        from mathieu_resurgence import tridiag

        passes = []
        real = tridiag._count_and_step

        def counted(d, e, x):
            if not isinstance(x, float):
                passes.append(x)
            return real(d, e, x)

        monkeypatch.setattr(tridiag, "_count_and_step", counted)
        call()
        assert len(passes) <= 4 * 2 * edges  # two truncations per edge

    @pytest.mark.parametrize("hbar", [0.3, 0.1])
    def test_decimal_blocks_match_mpf_blocks(self, hbar):
        # the tier's arithmetic is the standard library's decimal; the same
        # eigensolver on the same blocks in mpmath gives the same edges
        import decimal

        from mathieu_resurgence import tridiag
        from mathieu_resurgence.oracle import _block

        M, ks, digits = HillConfig(dps=40).resolve_truncation(hbar, 3), range(4), 40
        for kappa in (0.0, 0.5):
            for upper in (0, 1):
                with decimal.localcontext(decimal.Context(prec=digits)):
                    one = decimal.Decimal(1)
                    d, e = _block(hbar, kappa, upper, M, 1.0, one)
                    scale = max(one, abs(d[-1]))
                    tol = scale * (10 * one) ** -37
                    dec = tridiag.eigenvalues(d, e, ks, tol)
                    assert all(isinstance(v, decimal.Decimal) for v in dec.values())
                with mpmath.workdps(digits):
                    d, e = _block(hbar, kappa, upper, M, 1.0, mpmath.mpf(1))
                    mpf = tridiag.eigenvalues(d, e, ks, mpmath.mpf(str(tol)))
                    for k in ks:
                        gap = abs(mpmath.mpf(str(dec[k])) - mpf[k])
                        assert gap <= mpmath.mpf(str(scale)) * mpmath.mpf(10) ** -35, (kappa, upper, k)

    def test_truncation_sized_from_dps(self):
        base = HillConfig().resolve_truncation(0.1, 0)
        grown = [HillConfig(dps=p).resolve_truncation(0.1, 0) for p in (20, 50, 80)]
        assert base <= grown[0] < grown[1] < grown[2]
        out = width_num(0.1, 0, "band")
        assert out["truncation"] == HillConfig(dps=out["dps_used"]).resolve_truncation(0.1, 0)
        # the float tier keeps its truncation
        assert width_num(0.5, 0, "band")["truncation"] == HillConfig().resolve_truncation(0.5, 0)

    def test_mp_edges_match_float_edges(self):
        fl = band_edges(1.3, 6)
        mp_ = band_edges(1.3, 6, HillConfig(dps=30))
        for p, q in zip(fl, mp_):
            assert (p.N, p.edge) == (q.N, q.edge)
            assert abs(float(q.u) - p.u) <= 1e-10
            assert q.converged_digits >= 25

    def test_edge_subset_matches_full_table(self):
        full = {(p.N, p.edge): p for p in band_edges(0.25, 3, HillConfig(dps=25))}
        sub = band_edges(0.25, 3, HillConfig(dps=25), edges=[(3, "top"), (1, "bottom")])
        assert [(p.N, p.edge) for p in sub] == [(3, "top"), (1, "bottom")]
        for p in sub:
            assert p.u == full[(p.N, p.edge)].u


class TestPassBudget:
    """Sturm counts plus Newton passes on the CLI's default figure grids.
    Each edge at the full truncation starts from its value at M//2, so it
    needs a few passes where an isolation from the Gershgorin interval
    needs a bisection (20,120 and 14,832 passes that way)."""

    @pytest.mark.parametrize("command, budget", [("figure1", 16_500), ("figure2", 12_000)])
    def test_default_grid(self, monkeypatch, capsys, command, budget):
        from mathieu_resurgence import cli, tridiag

        monkeypatch.delenv("MATHIEU_RESURGENCE_CACHE", raising=False)
        passes = []
        for name in ("count_below", "_count_and_step"):
            real = getattr(tridiag, name)
            monkeypatch.setattr(
                tridiag, name, lambda d, e, x, real=real: passes.append(x) or real(d, e, x)
            )
        assert cli.main([command]) == 0
        capsys.readouterr()
        assert len(passes) <= budget


class TestParityBlocks:
    """The two parity blocks of each Bloch sector against the full
    plane-wave matrix of the same momenta, both diagonalised by mpmath."""

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    @pytest.mark.parametrize("lam", [-1.0, 0.0, 0.5, 2.0])
    def test_blocks_merge_into_the_full_sector(self, kappa, lam):
        import mpmath

        from mathieu_resurgence.oracle import _block

        hbar, M = 0.7, 8
        with mpmath.workdps(40):
            one = mpmath.mpf(1)

            def spectrum(d, e):
                n = len(d)
                A = mpmath.matrix(n, n)
                for i in range(n):
                    A[i, i] = d[i]
                    if i + 1 < n:
                        A[i, i + 1] = A[i + 1, i] = e[i]
                return sorted(mpmath.eigsy(A, eigvals_only=True))

            # plane waves exp(i (k + kappa) x): k = -M..M, or -M-1..M
            ks = range(-M - (kappa > 0), M + 1)
            full = spectrum([one * hbar * hbar / 2 * (k + one * kappa) ** 2 for k in ks],
                            [one * lam / 2] * (len(ks) - 1))
            blocks = [spectrum(*_block(hbar, kappa, upper, M, lam, one)) for upper in (0, 1)]
            assert len(blocks[0]) + len(blocks[1]) == len(full)
            for i, v in enumerate(full):
                assert abs(blocks[i % 2][i // 2] - v) <= mpmath.mpf(10) ** -35


class TestCrossings:
    def test_gap_edge_crossings_match_quarter_shifts(self):
        for N in (3, 6):
            q_lower = crossing_Q(N - 1, "top")
            q_upper = crossing_Q(N, "bottom")
            assert abs(q_lower / (math.pi**2 / 16 * (N - 0.25) ** 2) - 1) < 0.02
            assert abs(q_upper / (math.pi**2 / 16 * (N + 0.25) ** 2) - 1) < 0.02


class TestDatasets:
    def test_figure1_rows(self):
        rows = figure1_dataset([0.8, 1.2], N_max=4)
        assert len(rows) == 2 * 2 * 5
        for r in rows:
            assert set(r) == {"hbar", "Q", "N", "edge", "u", "err"}
        # monotone interlacing per hbar
        for h in (0.8, 1.2):
            seq = [r["u"] for r in rows if r["hbar"] == h]
            assert seq == sorted(seq)

    def test_figure2_rows(self):
        rows = figure2_dataset([10.0], N_max=4)
        assert all(abs(r["Q"] - 10.0) < 1e-12 for r in rows)
