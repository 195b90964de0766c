import decimal
import math
from decimal import Decimal
from fractions import Fraction as Q

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jacobi_reference import (
    saddle_potential_imag,
    saddle_potential_real,
    saddle_series,
    sd_squared_taylor,
)

from mathieu_resurgence import zerodim
from mathieu_resurgence.errors import ConvergenceError, DomainError
from mathieu_resurgence.series import PolyB
from mathieu_resurgence.zerodim import (
    borel_lateral_check,
    exact_relation_check,
    lame_saddles,
    lame_vacuum_symbolic,
    sin2_vacuum_exact,
    z_quadrature,
)


def sin2_taylor(order):
    out = [Q(0)] * (order + 1)
    for k in range(1, order // 2 + 1):
        out[2 * k] = Q((-1) ** (k + 1) * 2 ** (2 * k - 1), math.factorial(2 * k))
    return out


def moment_reference(m, order):
    """The three Lame saddles by the Gaussian-moment engine on the Jacobi
    Taylor data along each descent line, from the Glaisher triples of
    ``jacobi_reference``: the route that the closed form of ``lame_saddles``
    is checked against, using none of its steps."""
    n = 2 * order + 2
    real = [p.const_value() / (1 - m) for p in saddle_potential_real(n, m).c]
    imag = [-p.const_value() / m for p in saddle_potential_imag(n, m).c]
    return {
        "vacuum": saddle_series(sd_squared_taylor(n, m).c, order),
        "real": saddle_series(real, order),
        "imag": saddle_series(imag, order),
    }


def convolution_reference(alpha, beta, order):
    """b_r = Gamma(r+1/2)/Gamma(1/2) sum_i u_i v_(r-i) with
    u_i = alpha^i C(2i, i)/4^i and v_j = beta^j C(2j, j)/4^j, the binomial
    product of one Lame saddle summed term by term, over the ring of alpha
    and beta (rationals or PolyB)."""
    u = [alpha ** i * Q(math.comb(2 * i, i), 4 ** i) for i in range(order + 1)]
    v = [beta ** j * Q(math.comb(2 * j, j), 4 ** j) for j in range(order + 1)]
    out, rising = [], Q(1)
    for r in range(order + 1):
        out.append(sum((u[i] * v[r - i] for i in range(r + 1)), alpha * 0) * rising)
        rising *= r + Q(1, 2)
    return out


class TestSaddleSeries:
    def test_sin2_vacuum_closed_form(self):
        vac = saddle_series(sin2_taylor(46), 21)
        for r in range(21):
            assert vac.coeffs[r] == sin2_vacuum_exact(r)

    def test_sin2_nonperturbative_saddle(self):
        # about z = pi/2 the descent-line Taylor is sinh^2-like: alternating
        taylor = [abs(c) for c in sin2_taylor(30)]
        taylor[0] = Q(1)  # action of the nontrivial saddle
        sad = saddle_series(taylor, 8)
        for r in range(9):
            assert sad.coeffs[r] == (-1) ** r * sin2_vacuum_exact(r)

    @pytest.mark.parametrize("lam", [Q(1), Q(-2, 3), Q(5, 7)])
    def test_cubic_odd_taylor_data(self, lam):
        # f = s^2/2 + lam s^3: every other input here is even in s, so this
        # is the one check of the odd cross terms of exp(-A).  s -> sqrt(hbar) t
        # gives exp(-lam sqrt(hbar) t^3), whose hbar^r term is
        # lam^(2r) <t^(6r)>/(2r)! with <t^(6r)> = (6r-1)!! under exp(-t^2/2)
        sad = saddle_series([Q(0), Q(0), Q(1, 2), lam] + [Q(0)] * 23, 12)
        assert (sad.action, sad.curvature) == (0, Q(1, 2))
        assert sad.coeffs == [
            lam ** (2 * r) * Q(math.prod(range(6 * r - 1, 0, -2)), math.factorial(2 * r))
            for r in range(13)
        ]

    def test_degenerate_saddle_rejected(self):
        with pytest.raises(DomainError):
            saddle_series([Q(0), Q(0), Q(0), Q(1)], 4)

    def test_vacuum_action_zero_invariant(self):
        sads = lame_saddles(Q(1, 3), 4)
        assert sads["vacuum"].action == 0
        assert sads["real"].action == Q(3, 2)
        assert sads["imag"].action == -3


class TestClosedFormSaddles:
    @pytest.mark.parametrize("m", [Q(1, 4), Q(1, 3), Q(1, 2), Q(3, 4), Q(2, 7)])
    def test_equal_to_the_moment_engine(self, m):
        # action, curvature and coefficients, exactly
        want = moment_reference(m, 30)
        assert lame_saddles(m, 30) == want
        assert [p(m) for p in lame_vacuum_symbolic(16)] == want["vacuum"].coeffs[:17]

    @given(
        m=st.integers(2, 50).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: Q(p, q))),
        order=st.integers(0, 16),
    )
    @settings(deadline=None)
    def test_property_equal_to_the_moment_engine(self, m, order):
        got = lame_saddles(m, order)
        assert got == moment_reference(m, order)
        # m <-> 1-m swaps the real and imaginary saddles up to hbar -> -hbar
        flipped = lame_saddles(1 - m, order)["real"].coeffs
        assert flipped == [(-1) ** r * c for r, c in enumerate(got["imag"].coeffs)]


class TestBinomialProduct:
    """The three-term recurrence behind ``lame_saddles`` against the
    binomial convolution it sums, coefficient by coefficient."""

    @given(
        m=st.integers(2, 50).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: Q(p, q))),
        order=st.integers(0, 40),
    )
    @settings(deadline=None)
    def test_property_every_saddle_equals_the_convolution(self, m, order):
        got = lame_saddles(m, order)
        m1 = 1 - m
        assert got["vacuum"].coeffs == convolution_reference(m1, -m, order)
        assert got["real"].coeffs == convolution_reference(-m1, -m * m1, order)
        assert got["imag"].coeffs == convolution_reference(m, m * m1, order)

    def test_symbolic_vacuum_equals_the_convolution_over_polyb(self):
        m = PolyB((0, 1))
        want = convolution_reference(1 - m, -m, 40)
        for order in (0, 1, 2, 7, 23, 40):
            assert lame_vacuum_symbolic(order) == want[: order + 1]


class TestDomain:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: exact_relation_check(Q(1, 4), [10], j_max=-1),
            lambda: borel_lateral_check(Q(1, 4), [0.1], j_max=-1),
        ],
        ids=["relation-jmax", "borel-jmax"],
    )
    def test_numeric_arguments_out_of_range(self, call):
        with pytest.raises(DomainError):
            call()

    def test_negative_order(self):
        with pytest.raises(DomainError):
            lame_vacuum_symbolic(-1)
        with pytest.raises(DomainError):
            lame_saddles(Q(1, 4), -1)
        with pytest.raises(DomainError):
            saddle_series(sin2_taylor(8), -1)

    def test_short_taylor_data(self):
        # order r reads c_k up to k = 2r + 2; sin2_taylor(8) stops at c_8
        assert saddle_series(sin2_taylor(8), 3).coeffs == [sin2_vacuum_exact(r) for r in range(4)]
        with pytest.raises(DomainError):
            saddle_series(sin2_taylor(8), 4)
        with pytest.raises(DomainError):
            saddle_series(sin2_taylor(8), 8)

    @pytest.mark.parametrize("n_values", [[], [0], [4, -2]])
    def test_relation_needs_indices_from_one(self, n_values):
        with pytest.raises(DomainError):
            exact_relation_check(Q(1, 4), n_values)

    def test_relation_empty_range(self):
        with pytest.raises(DomainError):
            exact_relation_check(Q(1, 4), range(8, 8, 4))


class TestLameRows:
    def test_printed_rows_exact(self):
        sym = lame_vacuum_symbolic(5)
        rows = {
            Q(0): [1, Q(1, 4), Q(9, 32), Q(75, 128), Q(3675, 2048), Q(59535, 8192)],
            Q(1): [1, Q(-1, 4), Q(9, 32), Q(-75, 128), Q(3675, 2048), Q(-59535, 8192)],
            Q(1, 4): [1, Q(1, 8), Q(9, 64), Q(105, 512), Q(1995, 4096), Q(48195, 32768)],
            Q(3, 4): [1, Q(-1, 8), Q(9, 64), Q(-105, 512), Q(1995, 4096), Q(-48195, 32768)],
            Q(1, 2): [1, 0, Q(3, 32), 0, Q(315, 2048), 0],
        }
        for m, want in rows.items():
            assert [p(m) for p in sym] == want

    @pytest.mark.parametrize("m", [Q(1, 4), Q(1, 3), Q(3, 4)])
    def test_fixed_m_vacuum_equals_symbolic(self, m):
        """The Q[m] vacuum evaluated at m equals the one computed at m.

        Both sides run ``_binomial_saddle``, so this checks only that the
        helper is generic over its ring (Q and Q[m]); the independent check
        of the closed form is ``TestClosedFormSaddles``."""
        sym = lame_vacuum_symbolic(16)
        assert lame_saddles(m, 16)["vacuum"].coeffs == [p(m) for p in sym]

    @pytest.mark.parametrize("m", [Q(1, 4), Q(1, 3), Q(3, 4)])
    def test_vacuum_closed_form_oracle(self, m):
        # w = sd^2 has (dw/dz)^2 = 4 w P(w), P = 1 + (2m-1) w - m(1-m) w^2,
        # so b_r = Gamma(r+1/2)/Gamma(1/2) [w^r] P^(-1/2), with no moment
        # engine; P f' = -P' f / 2 gives the recursion for f = P^(-1/2)
        p, q = 2 * m - 1, -m * (1 - m)
        f = [Q(1), -p / 2]
        for n in range(1, 30):
            f.append(-(p * (n + Q(1, 2)) * f[n] + q * n * f[n - 1]) / (n + 1))
        want, rising = [], Q(1)
        for r in range(31):
            want.append(rising * f[r])
            rising *= r + Q(1, 2)
        assert lame_saddles(m, 30)["vacuum"].coeffs == want
        assert [poly(m) for poly in lame_vacuum_symbolic(10)] == want[:11]

    def test_duality_exact(self):
        sym = lame_vacuum_symbolic(12)
        flip = PolyB((1, -1))
        for n, p in enumerate(sym):
            assert p(flip) == p * (-1) ** n


class TestQuadrature:
    def test_bessel_closed_form_at_m_zero(self):
        for h in (0.2, 0.37, 1.1):
            (got,) = z_quadrature([h], Q(0))
            with mpmath.workdps(30):
                want = float(
                    mpmath.pi
                    * mpmath.exp(-1 / (2 * mpmath.mpf(h)))
                    * mpmath.besseli(0, 1 / (2 * mpmath.mpf(h)))
                    / mpmath.sqrt(mpmath.pi * mpmath.mpf(h))
                )
            assert got == pytest.approx(want, abs=1e-12)

    def test_bessel_closed_form_at_m_one(self):
        # int exp(-sinh^2(z)/h) dz over the line is e^(1/(2h)) K_0(1/(2h))
        for h in (0.05, 0.2, 1.0, 3.0):
            (got,) = z_quadrature([h], Q(1))
            with mpmath.workdps(30):
                x = 1 / (2 * mpmath.mpf(h))
                want = float(
                    mpmath.exp(x) * mpmath.besselk(0, x) / mpmath.sqrt(mpmath.pi * mpmath.mpf(h))
                )
            assert got == pytest.approx(want, abs=1e-12)

    # values recorded from the route that ran its own descending-Landen
    # sn, dn and AGM K at dps = 30; mpmath's ellipfun and ellipk, and the
    # rule in the amplitude variable at 30 decimal digits, give them back to
    # the bit
    PINNED = {
        Q(1, 4): {
            0.2: 1.0339688468474353, 0.1: 1.0141866046596075, 0.05: 1.0066308158604533,
            0.18: 1.0293920062812216, 0.12: 1.017558333090399, 0.06: 1.0080583718940468,
            0.37: 1.0777853187701172, 1.1: 1.1050144967415763, 3.0: 0.8973568964186567,
        },
        Q(3, 4): {
            0.2: 0.9794876093077761, 0.1: 0.9887390774549777, 0.05: 0.9940785838580828,
            0.18: 0.9812017623471276, 0.12: 0.9867460528883423, 0.06: 0.9929673283497119,
            0.37: 0.9672635444711699, 1.1: 0.9478167421844853, 3.0: 0.8932721379097113,
        },
    }

    @pytest.mark.parametrize("m", sorted(PINNED))
    def test_pinned_values_to_the_bit(self, m):
        for h, want in self.PINNED[m].items():
            assert z_quadrature([h], m) == [want]

    @pytest.mark.parametrize("m", ["0.25", "0.75", "0.3"])
    def test_sd_squared_even_to_the_bit(self, m):
        # the rule evaluates one node per |phi|, phi = am(z|m): sd^2 and
        # 1/dn from sin phi there must be mpmath's ellipfun at z = F(phi|m)
        # and at -z alike, to the 30 digits the rule carries
        with mpmath.workdps(40):
            mm = mpmath.mpf(m)
            for t in [k / 64 for k in range(65)]:
                with decimal.localcontext(decimal.Context(prec=30)):
                    sd2, inv_dn = zerodim._amplitude_node(t, Decimal(m))
                z = mpmath.ellipf(t * mpmath.pi / 2, mm)
                for u in (z, -z):
                    want = mpmath.ellipfun("sd", u, m=mm) ** 2
                    assert abs(mpmath.mpf(str(sd2)) - want) <= 1e-28 * max(want, 1)
                    want = 1 / mpmath.ellipfun("dn", u, m=mm)
                    assert abs(mpmath.mpf(str(inv_dn)) - want) <= 1e-28 * want

    def test_borel_check_evaluates_sd_once_per_node(self, monkeypatch):
        # one z_quadrature call serves every hbar from one table of node
        # values, so each amplitude node t pi/2 is evaluated once
        calls = []
        node = zerodim._amplitude_node

        def counted(t, m):
            calls.append(t)
            return node(t, m)

        monkeypatch.setattr(zerodim, "_amplitude_node", counted)
        hbars = [0.2, 0.1, 0.05]
        rows = borel_lateral_check(Q(1, 4), hbars, j_max=4)
        assert calls
        assert len(calls) == len(set(calls))
        assert len(calls) <= 129
        # sharing the table leaves every quadrature value as it was
        monkeypatch.undo()
        assert [r["lhs"] for r in rows] == [z_quadrature([h], Q(1, 4))[0] for h in hbars]

    @pytest.mark.parametrize("m", [Q(1, 100), Q(99, 100), Q(9999, 10000)])
    def test_ends_of_the_periodic_strip_against_tanh_sinh(self, m):
        # an independent rule as the reference: adaptive tanh-sinh over
        # [-K, 0, K] at 30 digits, which clusters its nodes at z = 0
        hbars = [0.05, 0.2, 1.0]
        got = z_quadrature(hbars, m)
        with mpmath.workdps(30):
            mm = mpmath.mpf(m.numerator) / m.denominator
            K = mpmath.ellipk(mm)
            for h, value in zip(hbars, got):
                hh = mpmath.mpf(h)
                total = mpmath.quad(
                    lambda z: mpmath.exp(-mpmath.ellipfun("sd", z, m=mm) ** 2 / hh), [-K, 0, K]
                )
                assert value == pytest.approx(float(total / mpmath.sqrt(mpmath.pi * hh)),
                                              rel=1e-14)

    def test_node_cap_raises(self, monkeypatch):
        # hbar = 0.05 needs 64 nodes on [0, pi/2]; a cap of 16 stops the doubling
        monkeypatch.setattr(zerodim, "_MAX_TRAPEZOID_NODES", 16)
        with pytest.raises(ConvergenceError, match=r"hbar=0\.05: 16 nodes"):
            z_quadrature([0.05], Q(1, 4))

    def test_borel_check_calls_the_public_quadrature_once(self, monkeypatch):
        # one call of the public name for all hbar: the quadrature's time
        # is then measured under its own name by a profiler that wraps it
        calls = []
        real = zerodim.z_quadrature

        def counted(hbars, m):
            calls.append(list(hbars))
            return real(hbars, m)

        monkeypatch.setattr(zerodim, "z_quadrature", counted)
        borel_lateral_check(Q(1, 4), [0.2, 0.1], j_max=4)
        assert calls == [[0.2, 0.1]]

    def test_half_m_even_in_hbar_to_tested_order(self):
        # odd series coefficients vanish: Z(h) - Z_series_even ~ O(h^6)
        sym = lame_vacuum_symbolic(5)
        m = Q(1, 2)
        for h in (0.05, 0.1):
            (z,) = z_quadrature([h], m)
            part = sum(float(p(m)) * h**n for n, p in enumerate(sym))
            assert abs(z - part) < 3.0 * h**6

    def test_optimal_truncation_signature(self):
        # partial sums shrink then diverge; best error ~ e^(-S1/h)
        h = 0.18
        m = Q(0)
        (z,) = z_quadrature([h], m)
        errs = []
        partial = 0.0
        for r in range(26):
            partial += float(sin2_vacuum_exact(r)) * h**r
            errs.append(abs(partial - z))
        best = min(range(len(errs)), key=errs.__getitem__)
        assert 2 <= best <= 10  # interior optimum near S1/h ~ 5.6
        assert errs[-1] > 10 * errs[best]  # divergence after the optimum
        scale = math.exp(-1 / h)
        assert errs[best] < 30 * scale
        assert errs[best] > scale / 1000

    def test_domain(self):
        with pytest.raises(DomainError):
            z_quadrature([-0.1], Q(0))
        with pytest.raises(DomainError):
            z_quadrature([0.1], Q(3, 2))


class TestDecimalNumerics:
    """The standard-library arithmetic behind the relation and Borel checks
    against mpmath."""

    @pytest.mark.parametrize(
        "t", ["0.5", "-0.5", "5", "-5", "80", "196", "-1.9", "-2.5", "-80", "-400", "-588",
              "-19400"],
    )
    def test_tails_exponential_integral(self, t):
        # both sides of the switch from the series to the continued
        # fraction at t = -2, and the ghost saddle's t = -1/(m hbar) down
        # to m = 1/100 at the smallest hbar the Borel check keeps
        with decimal.localcontext(decimal.Context(prec=60)):
            got = zerodim._exp_ei(Decimal(t))
        with mpmath.workdps(70):
            tt = mpmath.mpf(t)
            want = mpmath.exp(-tt) * mpmath.ei(tt)
            assert abs(mpmath.mpf(str(got)) - want) <= 1e-55 * abs(want)

    def test_constants(self):
        with mpmath.workdps(90):
            assert abs(mpmath.mpf(str(zerodim._PI)) - mpmath.pi) < mpmath.mpf(10) ** -76
            assert abs(mpmath.mpf(str(zerodim._EULER)) - mpmath.euler) < mpmath.mpf(10) ** -76


class TestCoefficientRelations:
    def test_dominance_switches_at_half(self):
        rows_low = exact_relation_check(Q(1, 4), [10, 14], j_max=4)["rows"]
        assert all(r["rel_defect"] < 5e-3 for r in rows_low)
        rows_high = exact_relation_check(Q(3, 4), [10, 14], j_max=4)["rows"]
        assert all(r["rel_defect"] < 5e-3 for r in rows_high)
        # sign structure: non-alternating below half, alternating above
        low = lame_saddles(Q(1, 4), 12)["vacuum"].coeffs
        high = lame_saddles(Q(3, 4), 12)["vacuum"].coeffs
        assert all(c > 0 for c in low[1:])
        signs = [1 if c > 0 else -1 for c in high[1:] if c]
        assert all(a != b for a, b in zip(signs, signs[1:]))

    def test_interference_cancellation_at_half(self):
        vac = lame_saddles(Q(1, 2), 13)["vacuum"].coeffs
        assert all(vac[r] == 0 for r in range(1, 13, 2))

    def test_exact_relation_benchmark(self):
        rep = exact_relation_check(Q(1, 4), [20], j_max=6)
        assert rep["max_rel_defect"] <= 1e-3

    def test_exact_relation_monotone_in_jmax(self):
        defects = [
            exact_relation_check(Q(1, 4), [20], j_max=j)["max_rel_defect"]
            for j in (2, 4, 6)
        ]
        assert defects[0] > defects[1] > defects[2]

    def test_exact_relation_improves_with_n(self):
        rep = exact_relation_check(Q(1, 4), [10, 14, 18], j_max=5)
        ds = [r["rel_defect"] for r in rep["rows"]]
        assert ds[0] > ds[1] > ds[2]

    def test_sin2_limit_single_saddle(self):
        # m -> 0: S2 -> -infinity kills the ghost sector; the single-saddle
        # relation with F = S1 = 1 reproduces the closed form
        n = 18
        with mpmath.workdps(40):
            lhs = mpmath.mpf(sin2_vacuum_exact(n).numerator) / sin2_vacuum_exact(
                n
            ).denominator
            rhs = mpmath.mpf(0)
            for j in range(7):
                aj = (-1) ** j * sin2_vacuum_exact(j)
                rhs += (
                    mpmath.factorial(n - j - 1)
                    / mpmath.pi
                    * mpmath.mpf(aj.numerator)
                    / aj.denominator
                )
            assert abs(lhs - rhs) / lhs < 1e-4


class TestBorelLateral:
    def test_small_hbar_benchmark(self):
        rows = borel_lateral_check(Q(1, 4), [0.05], j_max=6)
        assert rows[0]["rel_defect"] <= 1e-6

    def test_defect_shrinks_like_first_omitted_sector(self):
        rows = borel_lateral_check(Q(1, 4), [0.2, 0.1, 0.05], j_max=6)
        d = [r["abs_defect"] for r in rows]
        assert d[0] > d[1] > d[2]
        decay = (math.log(d[0]) - math.log(d[2])) / (1 / 0.05 - 1 / 0.2)
        S1 = 1 / (1 - 0.25)
        assert abs(decay - S1) / S1 < 0.20

    def test_ambiguity_tracks_one_instanton_scale(self):
        rows = borel_lateral_check(Q(1, 4), [0.1, 0.05], j_max=4)
        S1 = 1 / (1 - 0.25)
        for r in rows:
            lead = math.pi * math.sqrt(1 - 0.25) * math.exp(-S1 / r["hbar"])
            assert r["imag_ambiguity"] == pytest.approx(lead, rel=0.35)

    def test_symmetric_point_real_average(self):
        # m = 1/2: both saddles equidistant; the PV average stays real and
        # matches quadrature
        rows = borel_lateral_check(Q(1, 2), [0.1], j_max=6)
        assert rows[0]["rel_defect"] < 1e-5

    def test_depth_follows_hbar(self):
        # the smallest term sits at n = 45 for hbar = 0.03 at m = 1/4, deeper
        # than the 36 orders that suffice for hbar >= 0.04
        (row,) = borel_lateral_check(Q(1, 4), [0.03], j_max=6)
        assert row["n_cut"] == 45
        assert row["rel_defect"] < 1e-12

    def test_hbar_domain(self):
        with pytest.raises(DomainError):
            borel_lateral_check(Q(1, 4), [0.1, 0.0])
