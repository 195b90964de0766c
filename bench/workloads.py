"""The benchmark's workloads: CLI job lists generated from a seed.

The seed draws only physical parameters (hbar, N, m) from small fixed
sets of similar cost; truncation orders are fixed per workload, so the
work per run is comparable across seeds.  The same seed always gives the
same job list.  Each job runs cold against a fresh cache directory, then
again right after as a cache hit.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    # "ok": must exit 0 and pass its check.  "deep": a deep-tunnelling width
    # that may also end in the documented convergence failure (exit 3); it
    # then counts as unresolved, not as a wrong answer.
    expect: str = "ok"

    @property
    def warm(self) -> bool:
        """Whether the job runs again as a cache hit.  A deep-tunnelling job
        gets no warm run: it leaves no cache entry while it fails, and a
        fixed job list keeps runs of different versions comparable."""
        return self.expect == "ok"


def _job(id_, *argv, expect="ok"):
    return Job(id_, tuple(str(a) for a in argv), expect)


def exact_series(rng: random.Random) -> list[Job]:
    """Exact rational series: `series` arithmetic and the `spectral` and
    `dunham` inversions do almost all the work; `oracle` does none."""
    return [
        _job("pert-8", "pert", "--order", 8, "--poly",
             "--N", rng.choice([0, 1, 2, 3]), "--hbar", rng.choice(["0.1", "0.125", "0.15"])),
        _job("pert-10", "pert", "--order", 10, "--poly",
             "--N", rng.choice([0, 1, 2, 3]), "--hbar", rng.choice(["0.1", "0.125", "0.15"])),
        _job("zjj-5", "zjj", "--order", 5),
        _job("zjj-7", "zjj", "--order", 7),
        _job("benderwu-poly-10", "benderwu", "--potential", "mathieu", "--poly", "--order", 10),
        _job("pinst", "pinst", "--N", 0, "--order", 3),
        _job("strong", "strong", "--N", rng.choice([1, 2, 3]), "--order", 10,
             "--hbar", rng.choice(["6", "7", "8"])),
        _job("actions-well", "actions", "--region", "well", "--n", rng.choice([1, 2]),
             "--order", 12),
        _job("actions-high", "actions", "--region", "high", "--n", 0, "--order", 10),
    ]


def oracle_widths(rng: random.Random) -> list[Job]:
    """Numerical oracles: the float Hill matrix and the mp Sturm bisection
    in `tridiag`; `series` barely runs.  The two deep-tunnelling widths
    (hbar <= 0.12) end in a convergence failure at the time of writing."""
    spectrum_h = ["0.6", "0.7", "0.8", "0.9", "1.0", "1.1", "1.2"]
    return [
        _job("spectrum-5", "spectrum", "--hbar", rng.choice(spectrum_h), "--bands", 5),
        _job("spectrum-20", "spectrum", "--hbar", rng.choice(spectrum_h), "--bands", 20),
        _job("figure1", "figure1", "--hbar-max", rng.choice(["2.5", "3.0", "3.5"])),
        _job("figure2", "figure2", "--q-max", rng.choice(["50", "60", "70"])),
        _job("width-band-float", "widths", "--kind", "band", "--N", 0,
             "--hbar", rng.choice(["0.4", "0.45", "0.5", "0.55", "0.6"])),
        _job("width-gap-float", "widths", "--kind", "gap", "--N", rng.choice([1, 2, 3]),
             "--hbar", rng.choice(["4", "5", "6", "7", "8"])),
        _job("width-band-mp-a", "widths", "--kind", "band", "--N", rng.choice([0, 1]),
             "--hbar", rng.choice(["0.3", "0.25"])),
        _job("width-band-mp-b", "widths", "--kind", "band", "--N", rng.choice([1, 2]),
             "--hbar", rng.choice(["0.2", "0.15"])),
        _job("width-band-deep-0", "widths", "--kind", "band", "--N", 0,
             "--hbar", rng.choice(["0.1", "0.11", "0.12"]), expect="deep"),
        _job("width-band-deep-1", "widths", "--kind", "band", "--N", 1,
             "--hbar", rng.choice(["0.1", "0.11", "0.12"]), expect="deep"),
    ]


def zerodim_lab(rng: random.Random) -> list[Job]:
    """Zero-dimensional laboratory: `jacobi_exact` Taylor data over Q[m]
    and `zerodim.lame_saddles` dominate; `spectral` and `tridiag` do not
    run.  `series` is reached through `jacobi_exact`, not `spectral`."""
    # relation and borel split m = 1/4 and 3/4 between them, so every run
    # covers both values of m without paying for four checks
    m_relation, m_borel = rng.choice([("1/4", "3/4"), ("3/4", "1/4")])
    borel_h = (rng.choice(["0.2", "0.18"]), rng.choice(["0.1", "0.12"]),
               rng.choice(["0.05", "0.06"]))
    return [
        _job("zerodim-rows-1/4", "zerodim", "--m", "1/4", "--check", "rows"),
        _job("zerodim-rows-3/4", "zerodim", "--m", "3/4", "--check", "rows"),
        _job("zerodim-relation", "zerodim", "--m", m_relation, "--check", "relation",
             "--order", 20),
        _job("zerodim-borel", "zerodim", "--m", m_borel, "--check", "borel",
             *[a for h in borel_h for a in ("--hbar", h)]),
        _job("benderwu-lame-24", "benderwu", "--potential", "lame",
             "--m", rng.choice(["1/4", "3/4"]), "--order", 24),
    ]


WORKLOADS = {
    "exact-series": exact_series,
    "oracle-widths": oracle_widths,
    "zerodim-lab": zerodim_lab,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
