"""Output checks for the benchmark's CLI jobs, each through a route that is
independent of the one that produced the output.

Checks parse the JSON payload and look only at the fields they need, so a
payload that gains fields still passes.  Pinned numbers and tolerances are
those of the package's acceptance tests.  Every checker returns a list of
problems; an empty list means the output is correct.
"""
from __future__ import annotations

import math
from fractions import Fraction as Q

DISCRIMINANT_TOL = 1e-6  # | |D(u)| - 1 | at a band edge, for hbar >= 0.6
DISCRIMINANT_MIN_HBAR = 0.6  # below this the monodromy amplifies ODE error
BAND_RATIO_TOL = 0.05  # acceptance criterion 04
GAP_RATIO_TOL = 0.10  # acceptance criterion 05
STRONG_EDGE_TOL = 1e-6  # acceptance criterion 05
RELATION_TOL = 1e-3  # acceptance criterion 09, at n = 20
BOREL_DEFECT_TOL = 1e-6  # acceptance criterion 09, at the smallest hbar
BOREL_DECAY_TOL = 0.20  # acceptance criterion 09
WELL_ACTION_TOL = {1: 1e-8, 2: 1e-9}  # closed forms at u = -1/2, order >= 12
HIGH_ACTION_RTOL = 1e-12  # a0 at u = 30, order >= 10

# u(hbar, B) rows 0..5 (acceptance criterion 01), coefficients in B
PERT_ROWS = {
    0: [Q(-1)],
    1: [Q(0), Q(1)],
    2: [Q(-1, 4) / 16, Q(0), Q(-1, 16)],
    3: [Q(0), Q(-3, 4) / 256, Q(0), Q(-1, 256)],
    4: [Q(-9, 32) / 4096, Q(0), Q(-17, 4) / 4096, Q(0), Q(-5, 2) / 4096],
    5: [Q(0), Q(-405, 64) / 65536, Q(0), Q(-205, 8) / 65536, Q(0), Q(-33, 4) / 65536],
}
# quantization-function rows (acceptance criterion 02)
ZJJ_ROWS = {
    ("B_of_E", 1): [Q(1, 4) / 16, Q(0), Q(1, 16)],
    ("B_of_E", 4): [Q(0), Q(721, 64) / 16**4, Q(0), Q(525, 8) / 16**4, Q(0), Q(245, 4) / 16**4],
    ("E_of_B", 3): [Q(-9, 32) / 16**3, Q(0), Q(-17, 4) / 16**3, Q(0), Q(-5, 2) / 16**3],
    ("A_of_B", 1): [Q(3, 4) / 16, Q(0), Q(3, 16)],
    ("A_of_B", 3): [Q(135, 64) / 16**3, Q(0), Q(205, 8) / 16**3, Q(0), Q(55, 4) / 16**3],
    ("A_of_E", 2): [Q(0), Q(23, 4) / 256, Q(0), Q(11, 256)],
}
# one-instanton fluctuation rows (acceptance criterion 03)
PINST_ROWS = {
    1: [Q(-3, 4) / 32, Q(-4, 32), Q(-3, 32)],
    2: [Q(-87, 32768), Q(-176, 32768), Q(-312, 32768), Q(64, 32768), Q(144, 32768)],
}
PINST_N0_HBAR_OVER_8 = [Q(1), Q(-7, 8), Q(-59, 128)]
# elliptic-well ground state 2*c_(k+1) (acceptance criterion 10)
LAME_ROWS = {
    Q(1, 4): [Q(1), Q(-1, 8), Q(-11, 128), Q(-3, 128), Q(-889, 32768), Q(-225, 8192)],
    Q(3, 4): [Q(1), Q(1, 8), Q(-11, 128), Q(3, 128), Q(-889, 32768), Q(225, 8192)],
    Q(1, 2): [Q(1), Q(0), Q(-3, 32), Q(0), Q(-39, 2048), Q(0)],
}
# vacuum coefficients at m = 1/4 (acceptance criterion 09)
VACUUM_ROWS_QUARTER = [Q(1), Q(1, 8), Q(9, 64), Q(105, 512), Q(1995, 4096), Q(48195, 32768)]
WELL_A0_ROW = [Q(0), Q(1, 2), Q(1, 32), Q(3, 512), Q(25, 16384), Q(245, 524288)]
HIGH_A0_ROW = {1: Q(1), -7: Q(-15, 64), -11: Q(-105, 256)}


def options(argv) -> dict[str, list[str]]:
    """CLI options of a job: name -> list of values ('' for a flag)."""
    out: dict[str, list[str]] = {}
    i = 1
    while i < len(argv):
        name = argv[i].lstrip("-")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.setdefault(name, []).append(argv[i + 1])
            i += 2
        else:
            out.setdefault(name, []).append("")
            i += 1
    return out


def _opt(opts, name, default=None):
    return opts[name][-1] if name in opts else default


def _poly(coeffs) -> list[Q]:
    c = [Q(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return c


def _peval(p, x):
    tot = Q(0) if isinstance(x, Q) else 0.0
    for c in reversed(p):
        tot = tot * x + c
    return tot


def _rows_in_B(rows) -> dict[int, list[Q]]:
    return {r["power"]: _poly(r["coefficients_in_B"]) for r in rows}


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _lib():
    import mathieu_resurgence.actions as actions
    import mathieu_resurgence.oracle as oracle

    return actions, oracle


def _discriminant_problems(rows, label):
    _actions, oracle = _lib()
    out = []
    for r in rows:
        d = oracle.discriminant(r["hbar"], r["u"])
        if abs(abs(d) - 1) > DISCRIMINANT_TOL:
            out.append(f"{label}: |D| = {abs(d):.12g} at N={r['N']} {r['edge']} "
                       f"hbar={r['hbar']:.6g}, want 1 within {DISCRIMINANT_TOL:g}")
    return out


def _ordering_problems(rows, label):
    """Edges at one hbar must read bottom_0 <= top_0 <= bottom_1 <= ..."""
    out = []
    by_h: dict[float, dict[tuple[int, str], float]] = {}
    for r in rows:
        by_h.setdefault(r["hbar"], {})[(r["N"], r["edge"])] = r["u"]
    for h, tab in by_h.items():
        n_max = max(n for n, _ in tab)
        seq = []
        for n in range(n_max + 1):
            if (n, "bottom") not in tab or (n, "top") not in tab:
                out.append(f"{label}: hbar={h:.6g} lacks an edge of band {n}")
                continue
            seq += [tab[(n, "bottom")], tab[(n, "top")]]
        # high gaps can close below double precision: allow roundoff there
        if any(not math.isfinite(u) for u in seq) or any(
                a > b + 1e-12 * max(1.0, abs(b)) for a, b in zip(seq, seq[1:])):
            out.append(f"{label}: edges at hbar={h:.6g} are not ordered bottom <= top <= next")
    return out


# ---------------------------------------------------------------- checkers


def check_pert(p, opts):
    rows = _rows_in_B(p["rows"])
    out = [f"pert row {n} != {want}" for n, want in PERT_ROWS.items()
           if n in rows and rows[n] != want]
    order = int(_opt(opts, "order", 5))
    if sorted(rows) != list(range(order + 1)):
        out.append(f"pert rows {sorted(rows)} do not cover powers 0..{order}")
    if "at_N" in p:
        B = Q(2 * int(p["at_N"]["N"]) + 1, 2)
        got = [Q(c) for c in p["at_N"]["coefficients"]]
        want = [_peval(rows[n], B) for n in sorted(rows)]
        if got != want:
            out.append("pert at_N coefficients differ from the rows evaluated at B")
        if "value" in p["at_N"]:
            h = float(_opt(opts, "hbar"))
            ref = sum(float(c) * h**n for n, c in enumerate(want))
            if not _close(p["at_N"]["value"], ref, 1e-12):
                out.append(f"pert value {p['at_N']['value']!r} != series sum {ref!r}")
    return out


def check_zjj(p, opts):
    tabs = {k: _rows_in_B(p[k]) for k in ("E_of_B", "B_of_E", "A_of_B", "A_of_E")}
    out = [f"zjj {k}[{n}] != {want}" for (k, n), want in ZJJ_ROWS.items()
           if n in tabs[k] and tabs[k][n] != want]
    # generating relation dE/dB = 1 - hbar B/8 - sum_k (k-1)/16 A_(k-1) hbar^k
    E, A = tabs["E_of_B"], tabs["A_of_B"]
    for k in range(len(A) - 1):
        lhs = _poly(i * c for i, c in enumerate(E[k]) if i)
        if k == 0:
            rhs = [Q(1)]
        elif k == 1:
            rhs = [Q(0), Q(-1, 8)]
        else:
            rhs = _poly(c * Q(-(k - 1), 16) for c in A[k - 1])
        if lhs != rhs:
            out.append(f"zjj generating relation fails at hbar^{k}")
    return out


def check_pinst(p, opts):
    rows = _rows_in_B(p["rows"])
    out = [f"pinst row {n} != {want}" for n, want in PINST_ROWS.items()
           if n in rows and rows[n] != want]
    N = _opt(opts, "N")
    if N is not None:
        B = Q(2 * int(N) + 1, 2)
        got = [Q(c) for c in p["at_N_in_hbar_over_8"]]
        want = [_peval(rows[n], B) * 8**n for n in sorted(rows)]
        if got != want:
            out.append("pinst at_N differs from the rows evaluated at B")
        if int(N) == 0 and got[:3] != PINST_N0_HBAR_OVER_8[: len(got)]:
            out.append(f"pinst N=0 gives {got[:3]}, want 1, -7/8, -59/128")
    return out


def check_strong(p, opts):
    """Edge series against the Hill-matrix oracle (criterion 05)."""
    _actions, oracle = _lib()
    N = int(_opt(opts, "N", 1))
    h = float(_opt(opts, "hbar", 6.0))
    q = 4 / h**2
    edges = {r["edge"]: [Q(c) for c in r["q_coefficients"]] for r in p["rows"]}
    table = {(pt.N, pt.edge): pt.u for pt in oracle.band_edges(h, N)}
    refs = {"upper": table[(N, "bottom")]}
    if N >= 1:
        refs["lower"] = table[(N - 1, "top")]
    out = []
    if sorted(edges) != sorted(refs):
        return [f"strong edges {sorted(edges)} != {sorted(refs)}"]
    for name, coeffs in edges.items():
        u = h * h / 8 * sum(float(c) * q**j for j, c in enumerate(coeffs))
        if not _close(u, refs[name], STRONG_EDGE_TOL):
            out.append(f"strong {name} edge {u!r} vs oracle {refs[name]!r} at hbar={h}")
        at = p.get("at_hbar", {}).get(f"{name}_u")
        if at is not None and not _close(at, u, 1e-12):
            out.append(f"strong at_hbar {name}_u {at!r} != series sum {u!r}")
    return out


def check_actions(p, opts):
    actions, _oracle = _lib()
    region, n = _opt(opts, "region", "well"), int(_opt(opts, "n", 0))
    order = int(_opt(opts, "order", 6))
    out = []
    if region == "well":
        c = [Q(r["coefficient"]) for r in sorted(p["rows"], key=lambda r: r["power_of_u_plus_1"])]
        if n == 0:
            if c[: len(WELL_A0_ROW)] != WELL_A0_ROW[: len(c)]:
                out.append(f"a0 well row {c[:6]} != {WELL_A0_ROW}")
        elif n in WELL_ACTION_TOL and order >= 12:
            got = sum(float(x) * 0.5**k for k, x in enumerate(c))
            ref = actions.action_higher(-0.5, n)
            if abs(got - ref) > WELL_ACTION_TOL[n]:
                out.append(f"a{n} well series {got!r} vs closed form {ref!r} at u=-1/2")
        else:
            out.append(f"no independent check for well n={n} order={order}")
    elif n != 0:
        out.append(f"no independent check for high n={n}")
    else:
        tab = {r["half_power_of_2u"]: Q(r["coefficient"]) for r in p["rows"]}
        for h, want in HIGH_A0_ROW.items():
            if tab.get(h) != want:
                out.append(f"a0 high coefficient at (2u)^({h}/2) is {tab.get(h)}, want {want}")
        if order >= 10:
            got = sum(float(c) * 60.0 ** (h / 2) for h, c in tab.items())
            ref = actions.action_leading(30.0)[0]
            if not _close(got, ref, HIGH_ACTION_RTOL):
                out.append(f"a0 high series {got!r} vs elliptic {ref!r} at u=30")
    return out


def check_spectrum(p, opts):
    rows = p["rows"]
    bands = int(_opt(opts, "bands", 5))
    out = []
    if len(rows) != 2 * (bands + 1):
        out.append(f"spectrum has {len(rows)} edges, want {2 * (bands + 1)}")
    out += _ordering_problems(rows, "spectrum")
    if min(r["hbar"] for r in rows) < DISCRIMINANT_MIN_HBAR:
        return out + [f"spectrum check needs hbar >= {DISCRIMINANT_MIN_HBAR}"]
    return out + _discriminant_problems(rows, "spectrum")


def _figure_sample(rows, n_max=4):
    """Low edges at the smallest and largest hbar the discriminant can check."""
    hs = sorted({r["hbar"] for r in rows if r["hbar"] >= DISCRIMINANT_MIN_HBAR})
    pick = {hs[0], hs[-1]} if hs else set()
    return [r for r in rows if r["hbar"] in pick and r["N"] <= n_max]


def check_figure(p, opts):
    rows = p["rows"]
    sample = _figure_sample(rows)
    out = _ordering_problems(rows, p.get("metadata", {}).get("command", "figure"))
    if not sample:
        return out + ["figure has no edge with hbar >= 0.6 to check"]
    return out + _discriminant_problems(sample, "figure")


def check_widths(p, opts):
    (r,) = p["rows"]
    out = []
    est = r["asymptotic_with_fluctuations"] if r["kind"] == "band" else r["asymptotic_leading"]
    if not r["oracle"] > 0:
        return [f"non-positive oracle width {r['oracle']!r}"]
    if not _close(r["ratio"], est / r["oracle"], 1e-12):
        out.append(f"ratio {r['ratio']!r} != estimate/oracle {est / r['oracle']!r}")
    tol = BAND_RATIO_TOL if r["kind"] == "band" else GAP_RATIO_TOL
    if not abs(r["ratio"] - 1) <= tol:
        out.append(f"{r['kind']} width ratio {r['ratio']!r} outside 1 +- {tol}")
    if not r["oracle_error_bound"] <= 0.2 * r["oracle"]:
        out.append("oracle error bound exceeds 20% of the width it promises")
    return out


def _sin2_vacuum(r):
    dfac = math.prod(range(2 * r - 1, 0, -2))
    return Q(dfac * dfac, 4**r * math.factorial(r))


def _compose_one_minus(p):
    """p(1 - m) as coefficients in m."""
    out = [Q(0)] * len(p)
    for k, c in enumerate(p):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * (-1) ** j
    return _poly(out)


def check_zerodim(p, opts):
    check = _opt(opts, "check", "rows")
    m = Q(_opt(opts, "m", "1/4"))
    rows = p["rows"]
    out = []
    if check == "rows":
        for row in rows:
            r, poly = row["r"], _poly(row["poly_in_m"])
            if Q(row["coefficient_at_m"]) != _peval(poly, m):
                out.append(f"row {r}: coefficient_at_m is not the polynomial at m")
            if _peval(poly, Q(0)) != _sin2_vacuum(r):
                out.append(f"row {r}: value at m=0 != sin^2 closed form {_sin2_vacuum(r)}")
            if _compose_one_minus(poly) != [c * (-1) ** r for c in poly]:
                out.append(f"row {r}: m <-> 1-m duality fails")
            if m == Q(1, 4) and r < len(VACUUM_ROWS_QUARTER) and _peval(poly, m) != VACUUM_ROWS_QUARTER[r]:
                out.append(f"row {r} at m=1/4 != {VACUUM_ROWS_QUARTER[r]}")
    elif check == "relation":
        defects = {row["n"]: row["rel_defect"] for row in rows}
        ns = sorted(defects)
        if 20 not in defects or not defects[20] <= RELATION_TOL:
            out.append(f"relation defect at n=20 is {defects.get(20)!r}, want <= {RELATION_TOL}")
        if any(defects[a] <= defects[b] for a, b in zip(ns, ns[1:])):
            out.append("relation defect does not fall with n")
        if p.get("max_rel_defect") != max(defects.values()):
            out.append("max_rel_defect is not the largest row defect")
    else:
        rows = sorted(rows, key=lambda row: -row["hbar"])
        for row in rows:
            # lhs and rhs are rounded to double after the difference was taken
            slack = 1e-14 * max(abs(row["lhs"]), 1.0)
            if not abs(row["abs_defect"] - abs(row["lhs"] - row["rhs"])) <= slack:
                out.append(f"borel abs_defect at hbar={row['hbar']} is not |lhs - rhs|")
        first, last = rows[0], rows[-1]
        if not last["rel_defect"] <= BOREL_DEFECT_TOL:
            out.append(f"borel defect {last['rel_defect']:.3g} at hbar={last['hbar']} "
                       f"above {BOREL_DEFECT_TOL}")
        if len(rows) >= 2:
            decay = (math.log(first["abs_defect"]) - math.log(last["abs_defect"])) / (
                1 / last["hbar"] - 1 / first["hbar"])
            action = float(min(1 / (1 - m), 1 / m))  # the nearest omitted saddle
            if not abs(decay - action) / action <= BOREL_DECAY_TOL:
                out.append(f"borel defect decays at {decay:.3f}, want {action:.3f} within 20%")
    return out


def check_benderwu(p, opts):
    if "" in opts.get("poly", []):
        rows = _rows_in_B(p["rows"])
        return [f"benderwu row {n} != {want}" for n, want in PERT_ROWS.items()
                if n in rows and rows[n] != want]
    c = {r["power"]: Q(r["coefficient"]) for r in p["rows"]}
    if _opt(opts, "potential", "mathieu") == "mathieu":
        B = Q(2 * int(_opt(opts, "N", 0)) + 1, 2)
        return [f"benderwu coefficient {n} != pert row at B={B}"
                for n, row in PERT_ROWS.items() if n in c and c[n] != _peval(row, B)]
    m = Q(_opt(opts, "m", "1/2"))
    if m not in LAME_ROWS:
        return [f"no pinned elliptic-well row for m={m}"]
    got = [2 * c[k + 1] for k in range(len(LAME_ROWS[m])) if k + 1 in c]
    out = [] if c.get(0) == 0 else ["elliptic-well series must start at 0"]
    if got != LAME_ROWS[m][: len(got)]:
        out.append(f"elliptic-well rows at m={m}: {got} != {LAME_ROWS[m]}")
    return out


CHECKERS = {
    "pert": check_pert,
    "zjj": check_zjj,
    "pinst": check_pinst,
    "strong": check_strong,
    "actions": check_actions,
    "spectrum": check_spectrum,
    "figure1": check_figure,
    "figure2": check_figure,
    "widths": check_widths,
    "zerodim": check_zerodim,
    "benderwu": check_benderwu,
}


def check_payload(argv, payload) -> list[str]:
    try:
        return CHECKERS[argv[0]](payload, options(argv))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed {argv[0]} payload: {type(exc).__name__}: {exc}"]


def cross_check(outputs: dict[str, tuple[tuple[str, ...], dict]]) -> dict[str, list[str]]:
    """Checks between jobs of one pass: the weak-coupling series by
    inversion (pert, zjj) against the Bender-Wu recursion, exactly."""
    problems: dict[str, list[str]] = {}
    by_cmd: dict[str, list] = {}
    for job_id, (argv, payload) in outputs.items():
        by_cmd.setdefault(argv[0], []).append((job_id, argv, payload))
    perts = [(j, _rows_in_B(p["rows"])) for j, _a, p in by_cmd.get("pert", [])]
    for job_id, argv, payload in by_cmd.get("benderwu", []):
        opts = options(argv)
        if _opt(opts, "potential", "mathieu") != "mathieu":
            continue
        if "" in opts.get("poly", []):
            bw = _rows_in_B(payload["rows"])
            for pid, rows in perts:
                if any(rows[n] != bw[n] for n in rows if n in bw):
                    problems.setdefault(pid, []).append(f"pert rows != Bender-Wu rows of {job_id}")
        else:
            B = Q(2 * int(_opt(opts, "N", 0)) + 1, 2)
            c = {r["power"]: Q(r["coefficient"]) for r in payload["rows"]}
            for pid, rows in perts:
                if any(_peval(rows[n], B) != c[n] for n in rows if n in c):
                    problems.setdefault(pid, []).append(
                        f"pert rows at B={B} != Bender-Wu coefficients of {job_id}")
    for zid, _argv, payload in by_cmd.get("zjj", []):
        E = _rows_in_B(payload["E_of_B"])
        for pid, rows in perts:
            if any(E[n] != rows[n + 1] for n in E if n + 1 in rows):
                problems.setdefault(zid, []).append(f"zjj E(hbar,B) != (u+1)/hbar from {pid}")
    return problems
