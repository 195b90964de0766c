"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each checker gets one known-good output, produced by the CLI of this
checkout, and one corrupted copy of it (one flipped rational, one shifted
edge, ...), and must pass the first and flag the second.  The same is done
for the checks between jobs and for the cache-hit and exit-code rules.
Exits 1 if any checker misses a corruption or rejects a good output.
"""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import Job  # noqa: E402


def cli(*argv) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MATHIEU_RESURGENCE_CACHE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-m", "mathieu_resurgence", *argv], cwd=ROOT,
                         env=env, capture_output=True, check=True, timeout=120)
    return json.loads(out.stdout)


def flip(q: str) -> str:
    """A different rational."""
    x = Fraction(q) + Fraction(1, 997)
    return f"{x.numerator}/{x.denominator}"


def shift_edge(rows, pick):
    r = pick(rows)
    r["u"] += 1e-4 * max(1.0, abs(r["u"]))


def _set(path):
    """A corruption that applies ``fn`` to the item at ``path`` of the payload."""
    def make(fn):
        def corrupt(p):
            *head, last = path
            for k in head:
                p = p[k]
            p[last] = fn(p[last])
        return corrupt
    return make


def _widths_scale(p):
    p["rows"][0]["oracle"] *= 1.2


def _borel_rhs(p):
    p["rows"][-1]["rhs"] += 1e-3


# (argv, corruption of the payload)
SINGLE = [
    (("pert", "--order", "8", "--poly", "--N", "1", "--hbar", "0.1"),
     _set(("rows", 2, "coefficients_in_B", 0))(flip)),
    (("zjj", "--order", "5"), _set(("A_of_B", 2, "coefficients_in_B", 0))(flip)),
    (("pinst", "--N", "0", "--order", "3"), _set(("at_N_in_hbar_over_8", 1))(flip)),
    (("strong", "--N", "1", "--order", "10", "--hbar", "6"),
     _set(("rows", 0, "q_coefficients", 1))(flip)),
    (("actions", "--region", "well", "--n", "1", "--order", "12"),
     _set(("rows", 1, "coefficient"))(flip)),
    (("actions",), _set(("rows", 2, "coefficient"))(flip)),
    (("actions", "--region", "high", "--n", "0", "--order", "10"),
     _set(("rows", 1, "coefficient"))(flip)),
    (("spectrum", "--hbar", "0.8", "--bands", "5"),
     lambda p: shift_edge(p["rows"], lambda rows: rows[4])),
    (("figure1", "--points", "4", "--bands", "3"),
     lambda p: shift_edge(p["rows"], lambda rows: checks._figure_sample(rows)[1])),
    (("figure2", "--points", "4", "--bands", "3"),
     lambda p: shift_edge(p["rows"], lambda rows: checks._figure_sample(rows)[2])),
    (("widths", "--kind", "band", "--N", "0", "--hbar", "0.5"), _widths_scale),
    (("widths", "--kind", "gap", "--N", "1", "--hbar", "6"),
     _set(("rows", 0, "ratio"))(lambda r: r * 1.2)),
    (("zerodim", "--m", "1/4", "--check", "rows"),
     _set(("rows", 3, "poly_in_m", 1))(flip)),
    (("zerodim", "--m", "3/4", "--check", "relation", "--order", "20"),
     _set(("rows", 3, "rel_defect"))(lambda d: 2e-3)),
    (("zerodim", "--m", "1/4", "--check", "borel", "--hbar", "0.2", "--hbar", "0.05"),
     _borel_rhs),
    (("benderwu", "--potential", "lame", "--m", "1/4", "--order", "8"),
     _set(("rows", 2, "coefficient"))(flip)),
    (("benderwu", "--potential", "mathieu", "--poly", "--order", "6"),
     _set(("rows", 3, "coefficients_in_B", 1))(flip)),
    (("benderwu", "--N", "1", "--order", "6"), _set(("rows", 2, "coefficient"))(flip)),
]

# (argv of each job, index of the job to corrupt, corruption): the
# corruption lies outside what the single-job checks pin down
CROSS = [
    ((("pert", "--order", "8", "--poly"), ("benderwu", "--poly", "--order", "8")),
     0, _set(("rows", 7, "coefficients_in_B", 1))(flip)),
    ((("pert", "--order", "7"), ("benderwu", "--N", "2", "--order", "7")),
     1, _set(("rows", 7, "coefficient"))(flip)),
    ((("zjj", "--order", "6"), ("pert", "--order", "8", "--poly")),
     0, _set(("E_of_B", 6, "coefficients_in_B", 0))(flip)),
]


def report(name, good, bad) -> bool:
    ok = not good and bool(bad)
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    if good:
        print(f"     good output rejected: {good}")
    if not bad:
        print("     corrupted output not flagged")
    return ok


def run_rules() -> list[bool]:
    """Cache-hit byte identity and the exit-code rules of run.check_pass."""
    payload = json.dumps(cli("pinst", "--N", "0")).encode()
    def make(code, warm_stdout, expect="ok", stderr=b""):
        j = Job("pinst", ("pinst", "--N", "0"), expect)
        runs = [run.JobRun(j, "cold", 1.0, 1.0, 1.0, code, payload, stderr, 1),
                run.JobRun(j, "warm", 1.0, 1.0, 1.0, 0, warm_stdout, b"", 0)]
        p = run.Pass(False, 2.0, runs, 0)
        run.check_pass(p)
        return p.runs

    results = []
    good = make(0, payload)
    bad = make(0, payload.replace(b"-7/8", b"-7/9"))
    results.append(report("cache-hit stdout identical to cold",
                          [x for r in good for x in r.problems], bad[1].problems))
    deep = make(3, payload, "deep", b"convergence failure: width below bound")
    other = make(3, payload, "ok", b"convergence failure: width below bound")
    ok = deep[0].status == "unresolved" and other[0].status == "failed"
    print(f"{'PASS' if ok else 'FAIL'} exit 3 is unresolved only for deep-tunnelling jobs")
    results.append(ok)
    return results


def main() -> int:
    results = []
    for argv, corrupt in SINGLE:
        good = cli(*argv)
        bad = copy.deepcopy(good)
        corrupt(bad)
        results.append(report(" ".join(argv), checks.check_payload(argv, good),
                              checks.check_payload(argv, bad)))
    for jobs, target, corrupt in CROSS:
        good = {f"job{i}": (argv, cli(*argv)) for i, argv in enumerate(jobs)}
        bad = copy.deepcopy(good)
        corrupt(bad[f"job{target}"][1])
        name = " x ".join(" ".join(a) for a in jobs)
        results.append(report(name, checks.cross_check(good), checks.cross_check(bad)))
    results += run_rules()
    print(f"{sum(results)}/{len(results)} checks behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
