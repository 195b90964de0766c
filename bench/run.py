"""Closed-loop CLI benchmark of mathieu-resurgence: one client, one job at a
time, each job in a fresh interpreter, as a user pays for it (import,
compute, serialize, cache).

    python3 bench/run.py --workload exact-series --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is taken from
``src/``.  The job list of the workload is generated from the seed and run
against a fresh cache directory, every job that should succeed twice
(cold, then as a cache hit), until ``--seconds`` are used up (at least
once).  Every output is then checked through an independent route (see
``checks.py``).  ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` alternates untraced passes with passes that
run each job under ``tracer.py`` and reports the per-layer metrics.  The
last line of stdout is one JSON object; a result file with the per-job
records and a machine fingerprint goes to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata, util
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from workloads import WORKLOADS, Job, make_jobs  # noqa: E402

JOB_TIMEOUT_S = 60
SETUP_REPEATS = 3
# measuring stops early enough that a run ends well inside 180 s
MEASURE_LIMIT_S = 120
NUMERIC_STACK = ("numpy", "scipy", "mpmath")


@dataclass
class JobRun:
    job: Job
    phase: str  # "cold" or "warm"
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int  # negative: killed by that signal
    stdout: bytes
    stderr: bytes
    cache_new_files: int
    trace: dict | None = None
    status: str = "failed"  # "ok" | "unresolved" | "failed"
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    runs: list[JobRun]
    cache_bytes: int


def _cache_files(cache: Path) -> set[str]:
    return set(os.listdir(cache)) if cache.is_dir() else set()


def _job_env(cache: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["MATHIEU_RESURGENCE_CACHE"] = str(cache)
    return env


def run_job(job: Job, phase: str, pass_dir: Path, cache: Path, traced: bool) -> JobRun:
    """Run one job to completion and collect its own resource usage."""
    tag = f"{job.id.replace('/', '_')}.{phase}"
    out_path, err_path = pass_dir / f"{tag}.out", pass_dir / f"{tag}.err"
    trace_path = pass_dir / f"{tag}.trace.json"
    if traced:
        cmd = [sys.executable, "-X", "importtime", str(BENCH / "tracer.py"),
               str(trace_path), job.id, "--", *job.argv]
    else:
        cmd = [sys.executable, "-m", "mathieu_resurgence", *job.argv]
    before = _cache_files(cache)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=_job_env(cache))
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text())
        trace["numeric_stack_s"] = _numeric_import_s(err_path.read_text(errors="replace"))
    return JobRun(
        job=job, phase=phase, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0, code=code,
        stdout=out_path.read_bytes(), stderr=err_path.read_bytes(),
        cache_new_files=len(_cache_files(cache) - before), trace=trace,
    )


def _numeric_import_s(stderr: str) -> float:
    """Self time of numpy, scipy and mpmath modules under -X importtime."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[0].strip().isdigit():
            if parts[2].strip().split(".")[0] in NUMERIC_STACK:
                total_us += int(parts[0])
    return total_us / 1e6


def run_pass(jobs: list[Job], tag: str, traced: bool) -> Pass:
    """The workload's job list.  Every job runs cold; a warm job runs
    again right after, as a cache hit.  Spreading the cache hits over
    the pass, rather than bunching them at its end, keeps one burst of host
    noise from slowing all of them."""
    pass_dir = WORK / tag
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    cache = pass_dir / "cache"
    cache.mkdir()
    runs = []
    t0 = time.perf_counter()
    for job in jobs:
        runs.append(run_job(job, "cold", pass_dir, cache, traced))
        if job.warm:
            runs.append(run_job(job, "warm", pass_dir, cache, traced))
    wall = time.perf_counter() - t0
    size = sum(f.stat().st_size for f in cache.iterdir())
    return Pass(traced=traced, wall_s=wall, runs=runs, cache_bytes=size)


def check_pass(p: Pass, reference: Pass | None = None) -> None:
    """Set status and problems of every run.  A traced pass is checked
    against ``reference``, the checked untraced pass of the same round,
    whose outputs it must reproduce byte for byte."""
    payloads = {}
    cold = {r.job.id: r for r in p.runs if r.phase == "cold"}
    for r in p.runs:
        if r.code < 0:
            late = " at the timeout" if r.wall_s >= JOB_TIMEOUT_S else ""
            r.problems.append(f"killed by signal {-r.code}{late}")
        elif (r.job.expect == "deep" and r.code == 3
              and b"convergence failure" in r.stderr):
            r.status = "unresolved"
        elif r.code != 0:
            r.problems.append(f"exit code {r.code}: {r.stderr.decode(errors='replace')[-300:]}")
        elif reference is not None:
            ref = next(x for x in reference.runs if x.job.id == r.job.id and x.phase == r.phase)
            if ref.stdout != r.stdout:
                r.problems.append("traced stdout differs from the untraced run")
        elif r.phase == "warm":
            if r.stdout != cold[r.job.id].stdout:
                r.problems.append("cache-hit stdout differs from the cold run")
        else:
            try:
                payload = json.loads(r.stdout)
            except ValueError as exc:
                r.problems.append(f"stdout is not JSON: {exc}")
            else:
                payloads[r.job.id] = (r.job.argv, payload)
                r.problems += checks.check_payload(r.job.argv, payload)
    for job_id, problems in checks.cross_check(payloads).items():
        cold[job_id].problems += problems
    for r in p.runs:
        if r.status != "unresolved":
            r.status = "failed" if r.problems else "ok"


# ---------------------------------------------------------------- set-up


class SetupError(RuntimeError):
    pass


def setup(workload: str, seed: int) -> list[Job]:
    """Generate the jobs, make a fresh work directory and launch the
    interpreter once untimed, so bytecode and the file cache are warm."""
    jobs = make_jobs(workload, seed)
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "cache").mkdir(parents=True)
    probe = subprocess.run(
        [sys.executable, "-c",
         "import mathieu_resurgence as m, mathieu_resurgence.cli; print(m.__file__)"],
        cwd=ROOT, env=_job_env(WORK / "cache"), capture_output=True, text=True,
        timeout=JOB_TIMEOUT_S,
    )
    where = Path(probe.stdout.strip() or "?").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        raise SetupError(f"cannot import mathieu_resurgence from {SRC}: "
                         f"{probe.stderr.strip()[-300:] or where}")
    return jobs


# ---------------------------------------------------------------- metrics


def end_to_end(passes: list[Pass], setups: list[float]) -> tuple[dict, dict]:
    runs = [r for p in passes for r in p.runs]
    warm = [r.wall_s for r in runs if r.phase == "warm"]
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(sum(r.cpu_s for r in p.runs) for p in passes),
        "job_p50_s": statistics.median(r.wall_s for r in runs),
        "cached_job_p50_s": statistics.median(warm),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "resolved_ratio": sum(r.status == "ok" for r in runs) / len(runs),
    }
    samples = {"passes": len(passes), "jobs": len(runs), "cached_jobs": len(warm),
               "setups": len(setups),
               "failed_ratio": sum(r.status != "ok" for r in runs) / len(runs)}
    return values, samples


def _job_layers(trace: dict) -> tuple[dict, dict, list]:
    """Sums, maxima and (order, seconds) samples from one traced job."""
    spans = trace["spans"]
    sums: dict[str, float] = {}
    maxes: dict[str, float] = {}
    # inversion time per order; repeated calls in one job are memo hits
    orders: dict[int, float] = {}

    def add(key, v):
        sums[key] = sums.get(key, 0.0) + v

    child = [0.0] * len(spans)
    for name, start, end, parent, _attr, _err in spans:
        if parent >= 0:
            child[parent] += end - start
    for idx, v in trace["counted_under"].items():
        if int(idx) >= 0:
            child[int(idx)] += v

    def ancestors(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
            yield spans[i][0]

    for i, (name, start, end, _parent, attr, err) in enumerate(spans):
        dur = end - start
        module = name.split(".")[0]
        add(f"{module}.self_s", dur - child[i])
        add(f"{name}.self_s", dur - child[i])
        add(f"{name}.calls", 1)
        outer = list(ancestors(i))
        if name not in outer:
            add(f"{name}.s", dur)
        if err:
            add(f"{name}.failed", 1)
        if name == "oracle.band_edges":
            add(f"oracle.band_edges.{'float' if attr is None else 'mp'}.s", dur)
            if attr is not None and "oracle.width_num" in outer:
                maxes["oracle.width_num.dps_max"] = max(
                    maxes.get("oracle.width_num.dps_max", 0), attr)
        if name == "spectral.bs_invert_weak" and attr and name not in outer:
            orders[attr] = orders.get(attr, 0.0) + dur
    for name, n in trace["counts"].items():
        add(f"{name}.calls", n)
        add(f"{name}.s", trace["times"][name])
    for layer, t in trace["layer_time"].items():
        add(f"{layer}.self_s", t)
    add("cli.import_s", trace["import_s"])
    add("cli.import.numeric_stack_s", trace["numeric_stack_s"])
    return sums, maxes, list(orders.items())


def _order_slope(orders: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(order), one point per
    order (the median over jobs); 0 when fewer than two orders ran."""
    by_order: dict[int, list[float]] = {}
    for k, t in orders:
        by_order.setdefault(k, []).append(t)
    pts = [(math.log(k), math.log(statistics.median(ts))) for k, ts in by_order.items()]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    per_pass = []
    for p in traced:
        sums: dict[str, float] = {}
        maxes: dict[str, float] = {}
        orders: list = []
        for r in p.runs:
            if r.trace is None:
                continue
            s, m, o = _job_layers(r.trace)
            for k, v in s.items():
                sums[k] = sums.get(k, 0.0) + v
            for k, v in m.items():
                maxes[k] = max(maxes.get(k, 0), v)
            orders += o
        sums.update(maxes)
        sums["spectral.bs_invert_weak.order_slope"] = _order_slope(orders)
        sums["cli.cache.misses"] = sum(r.cache_new_files for r in p.runs)
        sums["cli.cache.hits"] = sum(r.cache_new_files == 0 and r.code == 0 for r in p.runs)
        sums["cli.cache.bytes"] = p.cache_bytes
        per_pass.append(sums)
    keys = set().union(*per_pass)
    out = {k: statistics.median(d.get(k, 0.0) for d in per_pass) for k in keys}
    out["trace.overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                   / statistics.median(p.wall_s for p in untraced))
    return out


# ---------------------------------------------------------------- reporting


def fingerprint(workload: str, seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    git = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git = res.stdout.strip() if res.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "gmpy2": util.find_spec("gmpy2") is not None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def declared_metrics(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mathieu_resurgence" / "cli.py").is_file():
        sys.stderr.write(f"no package source at {SRC}: run from a source checkout\n")
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    wanted = declared_metrics(section)

    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            jobs = setup(args.workload, args.seed)
            setups.append(time.perf_counter() - t0)
    except (SetupError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"set-up failed: {exc}\n")
        return 2

    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(jobs, f"pass{len(untraced)}", traced=False))
        if args.trace:
            traced.append(run_pass(jobs, f"traced{len(traced)}", traced=True))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > min(args.seconds, MEASURE_LIMIT_S):
            break
    for p in untraced:
        check_pass(p)
    for p, ref in zip(traced, untraced):
        check_pass(p, reference=ref)

    values, samples = end_to_end(untraced, setups)
    if args.trace:
        values = per_layer(traced, untraced)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    runs = [r for p in untraced + traced for r in p.runs]
    failed = [r for r in runs if r.status == "failed"]
    result = {"correct": not failed, "attempted": len(runs), "failed": len(failed),
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = {
        "fingerprint": fingerprint(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "result": result,
        "all_values": values,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "cache_bytes": p.cache_bytes,
             "jobs": [{"id": r.job.id, "argv": list(r.job.argv), "phase": r.phase,
                       "wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                       "exit_code": r.code, "status": r.status, "problems": r.problems}
                      for r in p.runs]}
            for p in untraced + traced
        ],
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for r in failed:
        sys.stderr.write(f"FAILED {r.job.id} ({r.phase}): {'; '.join(r.problems)}\n")
    sys.stderr.write(f"result file: {path.relative_to(ROOT)}\n")
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
