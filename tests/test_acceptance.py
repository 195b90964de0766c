"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned here and nowhere else; every expected number is
either an exact rational identity or carries the stated tolerance.
"""
import math
import time
import warnings
from fractions import Fraction as Q

import jacobi_reference
import mpmath
import pytest
import references

from mathieu_resurgence import actions, benderwu, dunham, oracle, spectral, widths, zerodim
from mathieu_resurgence.series import PolyB, PolySeries


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_weak_series_two_routes():
    t0 = time.time()
    up = spectral.bs_invert_weak(8)
    bw = benderwu.polynomial_in_N(benderwu.mathieu_well_potential(20), 8)
    identical = all(up[k] == bw[k] for k in range(9))
    printed = {
        1: PolyB((0, 1)),
        2: PolyB((Q(-1, 4) / 16, 0, Q(-1, 16))),
        3: PolyB((0, Q(-3, 4) / 256, 0, Q(-1, 256))),
        4: PolyB((Q(-9, 32) / 4096, 0, Q(-17, 4) / 4096, 0, Q(-5, 2) / 4096)),
        5: PolyB((0, Q(-405, 64) / 65536, 0, Q(-205, 8) / 65536, 0, Q(-33, 4) / 65536)),
    }
    matches = all(up[n] == p for n, p in printed.items())
    runtime = time.time() - t0
    _report(
        1,
        identical and matches and runtime < 60,
        f"inversion == recursion exactly to hbar^8, printed rows exact, {runtime:.1f}s",
    )


def test_criterion_02_quantization_function_tables():
    z = spectral.zjj_construct(6)
    checks = []
    # B(hbar, E) rows
    checks.append(z.B_of_E[1] == PolyB((Q(1, 4) / 16, 0, Q(1, 16))))
    checks.append(z.B_of_E[4] == PolyB(
        (0, Q(721, 64) / 16**4, 0, Q(525, 8) / 16**4, 0, Q(245, 4) / 16**4)))
    # E(hbar, B) rows
    checks.append(z.E_of_B[3] == PolyB(
        (Q(-9, 32) / 16**3, 0, Q(-17, 4) / 16**3, 0, Q(-5, 2) / 16**3)))
    # A(hbar, B) rows
    checks.append(z.A_of_B[1] == PolyB((Q(3, 4) / 16, 0, Q(3, 16))))
    checks.append(z.A_of_B[3] == PolyB(
        (Q(135, 64) / 16**3, 0, Q(205, 8) / 16**3, 0, Q(55, 4) / 16**3)))
    checks.append(z.A_of_B[4] == PolyB(
        (0, Q(9 * 327, 64) / 16**4, 0, Q(9 * 1120, 64) / 16**4, 0, Q(9 * 336, 64) / 16**4)))
    # A(hbar, E) rows
    checks.append(z.A_of_E[2] == PolyB((0, Q(23, 4) / 256, 0, Q(11, 256))))
    checks.append(z.A_of_E[4] == PolyB(
        (0, Q(4487, 64) / 16**4, 0, Q(326) / 16**4, 0, Q(1021, 4) / 16**4)))
    # the generating relation holds as an exact series identity
    lhs = z.E_of_B.derivative_B()
    magic = True
    for k in range(z.A_of_B.order - 1):
        if k == 0:
            rhs_k = PolyB.const(1)
        elif k == 1:
            rhs_k = PolyB((0, Q(-1, 8)))
        else:
            rhs_k = z.A_of_B[k - 1] * Q(-(k - 1), 16)
        magic = magic and lhs[k] == rhs_k
    _report(2, all(checks) and magic,
            "B/E/A tables exact through hbar^4; dA/dhbar relation exact")


def test_criterion_03_one_instanton_fluctuations():
    P = widths.p_inst(3)
    c1 = P[1] == PolyB((Q(-3, 4) / 32, Q(-4, 32), Q(-3, 32)))
    c2 = P[2] == PolyB(
        (Q(-87, 32768), Q(-176, 32768), Q(-312, 32768), Q(64, 32768), Q(144, 32768))
    )
    B = Q(1, 2)
    series_n0 = [P[0](B), P[1](B) * 8, P[2](B) * 64]
    n0_ok = series_n0 == [1, Q(-7, 8), Q(-59, 128)]
    diagram = abs(float(series_n0[2]) - (-0.460937498)) <= 1e-7
    _report(3, c1 and c2 and n0_ok and diagram,
            "P coefficients exact; N=0 series 1, -7/8, -59/128; "
            "third matches diagrammatic -0.460937498 to 1e-7")


def test_criterion_04_band_width_convergence():
    t0 = time.time()
    rel = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for h in (0.6, 0.5, 0.4, 0.3):
            est = widths.band_width(h, 0, order=4).with_fluctuations
            num = oracle.width_num(h, 0, "band")["width"]
            rel.append(abs(est / num - 1))
    runtime = time.time() - t0
    mono = all(a > b for a, b in zip(rel, rel[1:]))
    _report(
        4,
        mono and rel[-1] <= 0.05 and runtime < 300,
        f"|ratio-1| = {['%.2e' % r for r in rel]} monotone, "
        f"{rel[-1]:.2e} <= 5% at hbar=0.3, {runtime:.0f}s",
    )


def test_criterion_05_gap_width_convergence():
    worst = 0.0
    improving = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for N in (1, 2, 3):
            prev = None
            for h in (4.0, 6.0, 8.0):
                est = widths.gap_width(h, N).leading
                num = oracle.width_num(h, N, "gap")["width"]
                r = abs(est / num - 1)
                worst = max(worst, r)
                if prev is not None:
                    improving = improving and r < prev
                prev = r
    tb = {(p.N, p.edge): p.u for p in oracle.band_edges(6.0, 3)}
    series_ok = True
    for N in (0, 1, 2, 3):
        ge = spectral.gap_edge_series(N, 10)
        series_ok = series_ok and abs(ge.u_upper(6.0) / tb[(N, "bottom")] - 1) <= 1e-6
        if N >= 1:
            series_ok = series_ok and abs(ge.u_lower(6.0) / tb[(N - 1, "top")] - 1) <= 1e-6
    _report(
        5,
        worst <= 0.10 and improving and series_ok,
        f"gap ratios within {worst:.2%} <= 10%, improving with N*hbar; "
        "edge series match oracle to 1e-6 at hbar=6",
    )


def test_criterion_06_elliptic_wkb_identities():
    def legendre_defect(m):
        # E K' + E' K - K K' - pi/2 with K' = K(1-m), from the closed forms' AGM
        (K, E), (Kp, Ep) = actions._ellip_KE(m), actions._ellip_KE(1 - m)
        return E * Kp + Ep * K - K * Kp - math.pi / 2

    grid_m = [k / 51 for k in range(1, 51)]
    leg = max(abs(legendre_defect(m)) for m in grid_m)
    grid_u = [-0.95 + 1.9 * k / 49 for k in range(50)]
    wro = max(abs(references.wronskian_defect(u)) for u in grid_u)

    def well_series(n, order):
        # a_n as a series in v = u + 1, the form the operator route takes
        row = dunham.well_action_series(n, order)[n]
        return PolySeries("u+1", order, [PolyB.const(c) for c in row])

    a0_series, a1_series = well_series(0, 10), well_series(1, 8)
    op = actions.operator_a1(a0_series)
    op_ok = all(op[k] == a1_series[k] for k in range(7))
    a0_top, _ = actions.action_leading(1.0)
    _, a0d_bottom = actions.action_leading(-1.0)
    ends_ok = (
        abs(a0_top - 4 / math.pi) <= 1e-12
        and abs(2 * math.pi * a0d_bottom.imag - 8) <= 1e-12
    )
    _report(
        6,
        leg <= 1e-13 and wro <= 1e-11 and op_ok and ends_ok,
        f"legendre {leg:.1e} <= 1e-13, wronskian {wro:.1e} <= 1e-11, "
        "operator a1 exact, endpoint values exact to 1e-12",
    )


def test_criterion_07_barrier_top():
    # (a) gap-edge crossings of u=1 against (pi^2/16)(N -+ 1/4)^2
    worst = 0.0
    for N in range(3, 11):
        q_lower = oracle.crossing_Q(N - 1, "top")
        q_upper = oracle.crossing_Q(N, "bottom")
        worst = max(worst, abs(q_lower / (math.pi**2 / 16 * (N - 0.25) ** 2) - 1))
        worst = max(worst, abs(q_upper / (math.pi**2 / 16 * (N + 0.25) ** 2) - 1))
    # (b) band and adjacent gap widths comparable near the top
    wb = oracle.width_num(2.0, 1, "band")["width"]
    wg = oracle.width_num(2.0, 1, "gap")["width"]
    factor2 = 0.5 <= wb / wg <= 2.0
    # (c) the curve u = 1 + pi hbar/16 meets each upper band edge at the
    # band-centered-on-top point Q = (pi^2/16)(N + 1/2)^2
    def _upper_edge_cross(N):
        lo, hi = 8 / (math.pi * (N + 0.5)) * 0.7, 8 / (math.pi * (N + 0.5)) * 1.5

        def f(h):
            tb = {(p.N, p.edge): p.u for p in oracle.band_edges(h, N)}
            return tb[(N, "top")] - (1 + math.pi * h / 16)

        flo = f(lo)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 4 / (0.5 * (lo + hi)) ** 2

    curve_worst = 0.0
    for N in (3, 5, 7):
        Qc = _upper_edge_cross(N)
        ref = math.pi**2 / 16 * (N + 0.5) ** 2
        curve_worst = max(curve_worst, abs(Qc / ref - 1))
    _report(
        7,
        worst <= 0.02 and factor2 and curve_worst <= 0.05,
        f"crossings within {worst:.2%} <= 2%; band/gap ratio {wb / wg:.2f} in [1/2,2]; "
        f"top-split curve meets upper edges within {curve_worst:.2%} <= 5%",
    )


def test_criterion_08_large_order_ratio():
    ok = True
    detail = []
    for N in (0, 1):
        series = benderwu.rs_series(benderwu.mathieu_well_potential(70), N, 33)
        with mpmath.workdps(50):
            c = [
                mpmath.mpf(series[n].const_value().numerator)
                / series[n].const_value().denominator
                for n in range(2, 34)
            ]
            vals = [
                c[i + 1] / c[i] * 16 / ((i + 2) + 2 * N + 1)
                for i in range(len(c) - 1)
            ]
            acc = float(benderwu.richardson(vals[-12:], 4, n0=len(vals) - 10))
        ok = ok and abs(acc - 1) <= 0.02
        detail.append(f"N={N}: {acc:.4f}")
    _report(8, ok, "accelerated ratio/(n+2N+1)/16 -> " + ", ".join(detail) + " within 2%")


def test_criterion_09_zero_dimensional():
    sin2 = [Q(0)] * 47
    for k in range(1, 24):
        sin2[2 * k] = Q((-1) ** (k + 1) * 2 ** (2 * k - 1), math.factorial(2 * k))
    vac = jacobi_reference.saddle_series(sin2, 21)
    closed = all(vac.coeffs[r] == zerodim.sin2_vacuum_exact(r) for r in range(21))

    sym = zerodim.lame_vacuum_symbolic(5)
    rows = {
        Q(0): [1, Q(1, 4), Q(9, 32), Q(75, 128), Q(3675, 2048), Q(59535, 8192)],
        Q(1, 4): [1, Q(1, 8), Q(9, 64), Q(105, 512), Q(1995, 4096), Q(48195, 32768)],
        Q(1, 2): [1, 0, Q(3, 32), 0, Q(315, 2048), 0],
    }
    rows_ok = all([p(m) for p in sym] == want for m, want in rows.items())
    sym12 = zerodim.lame_vacuum_symbolic(10)
    flip = PolyB((1, -1))
    duality = all(p(flip) == p * (-1) ** n for n, p in enumerate(sym12))

    defects = [
        zerodim.exact_relation_check(Q(1, 4), [20], j_max=j)["max_rel_defect"]
        for j in (2, 4, 6)
    ]
    relation_ok = defects[-1] <= 1e-3 and defects[0] > defects[1] > defects[2]

    rows_b = zerodim.borel_lateral_check(Q(1, 4), [0.2, 0.1, 0.05], j_max=6)
    d = [r["abs_defect"] for r in rows_b]
    decay = (math.log(d[0]) - math.log(d[2])) / (1 / 0.05 - 1 / 0.2)
    S1 = 4 / 3
    borel_ok = rows_b[-1]["rel_defect"] <= 1e-6 and abs(decay - S1) / S1 <= 0.20
    _report(
        9,
        closed and rows_ok and duality and relation_ok and borel_ok,
        f"closed form exact r<=20; rows exact; duality exact; relation defect "
        f"{defects[-1]:.1e} <= 1e-3 monotone; lateral sum defect "
        f"{rows_b[-1]['rel_defect']:.1e} <= 1e-6, decay {decay:.2f} vs S1 within 20%",
    )


def test_criterion_10_elliptic_well_oracle():
    rows = {
        Q(0): [1, Q(-1, 4), Q(-1, 16), Q(-3, 64), Q(-53, 1024), Q(-297, 4096)],
        Q(1): [1, Q(1, 4), Q(-1, 16), Q(3, 64), Q(-53, 1024), Q(297, 4096)],
        Q(1, 4): [1, Q(-1, 8), Q(-11, 128), Q(-3, 128), Q(-889, 32768), Q(-225, 8192)],
        Q(3, 4): [1, Q(1, 8), Q(-11, 128), Q(3, 128), Q(-889, 32768), Q(225, 8192)],
        Q(1, 2): [1, 0, Q(-3, 32), 0, Q(-39, 2048), 0],
    }
    rows_ok = all(references.lame_energy_series(m, 5) == want for m, want in rows.items())
    es = references.lame_energy_series(Q(1, 2), 12)
    odd_zero = all(es[k] == 0 for k in range(1, 13, 2))

    fits_ok = True
    detail = []
    for m in (Q(1, 4), Q(3, 4)):
        V = benderwu.lame_potential(m, 72)
        series = benderwu.rs_series(V, 0, 34)
        coeffs = [series[n].const_value() for n in range(2, 35)]
        fit = benderwu.large_order_fit(coeffs, n_offset=2)
        mf = float(m)
        s_small = min(mf, 1 - mf)
        target = 2 * 2 * math.asin(math.sqrt(s_small)) / math.sqrt(mf * (1 - mf))
        rel = abs(float(fit["action"]) - target) / target
        fits_ok = fits_ok and rel <= 0.03
        detail.append(f"m={m}: {rel:.2%}")
    _report(
        10,
        rows_ok and odd_zero and fits_ok,
        "printed rows exact; odd coefficients vanish at m=1/2; "
        "dominant pair action recovered " + ", ".join(detail) + " within 3%",
    )
