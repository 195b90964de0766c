"""Ground-truth numerics for the band problem: Fourier (Hill) matrix band
edges, the ODE-monodromy discriminant, numeric widths, and the plot-ready
spectrum datasets.

Two independent methods are kept on purpose: the plane-wave matrix at Bloch
momentum 0 and 1/2 gives the edges, and the discriminant of the monodromy
over one period gives the same edges as roots of |cos theta| = 1.  Every
asymptotic formula in the package is ultimately tested against these.

The Hill matrix has two tiers, and both compute only the requested edges
by Sturm counts in `tridiag`.  The float tier isolates the requested
indices of each sector together and refines them by Newton steps
(`tridiag.eigenvalues`); the periodic sector is split by parity first, so
the two near-degenerate edges of a gap fall in different blocks.  The
extended-precision (mp) tier computes each edge by `tridiag.eigenvalue` (a
double-precision bracket, certified by Sturm counts and refined by Newton
steps), with the Fourier truncation grown from the precision.  `width_num`
moves narrow bands and narrow strong-coupling gaps to the mp tier.

Only the monodromy integration (`discriminant`) imports scipy.  The float
tier of the Hill matrix runs on the standard library alone; only the mp
tier imports mpmath.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from . import tridiag
from .errors import ConvergenceError, DomainError, require_positive

__all__ = [
    "HillConfig",
    "SpectralPoint",
    "band_edges",
    "discriminant",
    "width_num",
    "figure1_dataset",
    "figure2_dataset",
    "dataset_to_csv",
    "dataset_to_json",
]


@dataclass(frozen=True)
class HillConfig:
    truncation: int = 0  # 0: choose automatically
    potential_scale: float = 1.0  # 0 switches the free-particle test mode on
    dps: int | None = None  # extended-precision tier when set

    def resolve_truncation(self, hbar: float, n_bands: int) -> int:
        if self.truncation:
            if self.truncation < 8:
                raise DomainError("Fourier truncation must be at least 8")
            return self.truncation
        # momenta engaged up to the classical turning scale plus decay margin
        umax = max(1.5, 1.2 + (n_bands + 1) * hbar + (n_bands + 1) ** 2 * hbar ** 2 / 8)
        k_turn = math.sqrt(2 * (umax + 1.5)) / hbar
        M = max(10, int(k_turn + 14 + 4 / math.sqrt(hbar)))
        lam = abs(self.potential_scale)
        if self.dps is None or lam == 0:
            return M
        # Past the turning momentum the Fourier coefficients of an edge's
        # eigenvector fall by (lam/2) / (hbar^2 k^2/2 - umax) per step, and a
        # truncation shifts the eigenvalue by about the square of the last
        # coefficient kept.  Grow M until M//2, the truncation the digits
        # estimate compares against, holds dps digits with a margin.
        K, log10c = int(k_turn) + 1, 0.0
        while 2 * log10c > -(self.dps + 4):
            K += 1
            log10c += min(0.0, math.log10(lam / (hbar * hbar * K * K - 2 * umax)))
        return max(M, 2 * K + 1)


@dataclass
class SpectralPoint:
    hbar: float
    N: int
    edge: str  # "bottom" | "top"
    u: float
    converged_digits: int


def _edge_index(N: int, edge: str) -> tuple[float, int]:
    """(Bloch momentum, index within that sector) of an edge of band N.

    The edges alternate between the sectors (Sturm ordering): the bottom
    of band N is the N-th eigenvalue of the periodic sector (kappa = 0)
    for even N and of the antiperiodic sector (kappa = 1/2) for odd N, and
    its top is the N-th eigenvalue of the other sector.  So a band's two
    edges share an index in different sectors, and a gap's two edges are
    adjacent indices in one sector.
    """
    return 0.5 * ((N + (edge == "top")) % 2), N


def _edge_table(hbar: float, edges, M: int, lam: float, dps) -> dict:
    """u-values of the requested (N, edge) pairs at Fourier truncation M."""
    sectors: dict[float, dict] = {}
    for key in edges:
        kappa, i = _edge_index(*key)
        sectors.setdefault(kappa, {})[key] = i
    out = {}
    for kappa, want in sectors.items():
        if dps is None:
            out.update(_float_sector(hbar, kappa, M, lam, want))
            continue
        import mpmath

        with mpmath.workdps(dps):
            h2 = mpmath.mpf(hbar) ** 2 / 2
            d = [h2 * (mpmath.mpf(k) + mpmath.mpf(kappa)) ** 2 for k in range(-M, M + 1)]
            e = [mpmath.mpf(lam) / 2] * (2 * M)
            tol = mpmath.mpf(10) ** (-dps + 4) * max(1, abs(d[0]), abs(d[-1]))
            out.update({key: tridiag.eigenvalue(d, e, i, tol) for key, i in want.items()})
    return out


def _float_sector(hbar: float, kappa: float, M: int, lam: float, want: dict) -> dict:
    """Float-tier u-values of the requested keys of one Bloch sector.

    The periodic sector (kappa = 0) is even under k -> -k, so it splits
    exactly into an even block (k = 0..M, whose k = 0 coupling is
    sqrt(2) lam/2) and an odd block (k = 1..M).  The odd block is the even
    block without its first row and column, so by Cauchy interlacing the
    sector's eigenvalues alternate even, odd, even, ...: sector index i is
    index i//2 of block i%2.  Each near-degenerate gap pair of the sector
    is then one even and one odd eigenvalue, which Newton resolves
    separately.
    """
    h2 = hbar * hbar / 2.0
    if kappa:
        d = [h2 * (k + kappa) ** 2 for k in range(-M, M + 1)]
        vals = tridiag.eigenvalues(d, [lam / 2.0] * (2 * M), want.values())
        return {key: vals[i] for key, i in want.items()}
    d = [h2 * k ** 2 for k in range(M + 1)]
    e = [lam / 2.0] * (M - 1)
    ks = [[i // 2 for i in want.values() if i % 2 == parity] for parity in (0, 1)]
    blocks = (
        tridiag.eigenvalues(d, [lam / math.sqrt(2.0)] + e, ks[0]),
        tridiag.eigenvalues(d[1:], e, ks[1]),
    )
    return {key: blocks[i % 2][i // 2] for key, i in want.items()}


def band_edges(
    hbar: float, N_max: int, cfg: HillConfig | None = None, *, edges=None
) -> list[SpectralPoint]:
    """Band edges for bands 0..N_max, with truncation-convergence estimates.

    edges: the (N, edge) pairs to compute, in output order; by default
    the bottom and top of every band 0..N_max.  Only these eigenvalues are
    computed, at truncation M and M//2; their difference sets the digits.
    """
    cfg = cfg or HillConfig()
    require_positive("hbar", hbar)
    if edges is None:
        edges = [(N, edge) for N in range(N_max + 1) for edge in ("bottom", "top")]
    if N_max < 0 or any(N < 0 for N, _ in edges):
        raise DomainError("band label N >= 0 required")
    M = cfg.resolve_truncation(hbar, N_max)
    half_M = max(8, M // 2)
    top = max((N for N, _ in edges), default=0)
    if top > 2 * half_M:
        # edge N is index N of a sector of 2 M + 1 levels
        raise ConvergenceError(
            f"Fourier truncation M={M} cannot hold band {top}: its half "
            f"M//2 = {half_M} keeps {2 * half_M + 1} levels per Bloch sector"
        )
    lam = cfg.potential_scale
    full = _edge_table(hbar, edges, M, lam, cfg.dps)
    half = _edge_table(hbar, edges, half_M, lam, cfg.dps)
    out: list[SpectralPoint] = []
    for N, edge in edges:
        u = full[(N, edge)]
        diff = abs(u - half[(N, edge)])
        if cfg.dps is None:
            rel = diff / max(abs(u), 1.0)
            # cap at the double-precision eigensolver roundoff floor
            digits = 13 if rel == 0 else max(0, min(13, int(-math.log10(float(rel) + 1e-300))))
        else:
            import mpmath

            rel = diff / max(abs(u), mpmath.mpf(1))
            digits = cfg.dps if rel == 0 else max(
                0, min(cfg.dps, int(-mpmath.log10(rel)))
            )
        if digits < 6:
            raise ConvergenceError(
                f"band edge not converged at truncation M={M}: ~{digits} digits"
            )
        out.append(
            SpectralPoint(hbar=hbar, N=N, edge=edge, u=float(u) if cfg.dps is None else u,
                          converged_digits=int(digits))
        )
    return out


def discriminant(hbar: float, u: float, cfg: HillConfig | None = None) -> float:
    """cos(theta) = psi_1(x0 + 2 pi) for the monodromy from identity data
    at x0 = -pi (a symmetry point of V = lam cos x), integrated with a
    high-order adaptive explicit scheme.
    """
    from scipy.integrate import solve_ivp

    cfg = cfg or HillConfig()
    lam = cfg.potential_scale

    def rhs(x, y):
        v = 2.0 * (lam * math.cos(x) - u) / (hbar * hbar)
        return [y[1], v * y[0], y[3], v * y[2]]

    sol = solve_ivp(
        rhs,
        (-math.pi, math.pi),
        [1.0, 0.0, 0.0, 1.0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-13,
        dense_output=False,
    )
    if not sol.success:
        raise ConvergenceError(f"monodromy integration failed: {sol.message}")
    return float(sol.y[0, -1])


def width_num(hbar: float, N: int, kind: str, cfg: HillConfig | None = None) -> dict:
    """Numeric band or gap width from its two edges.

    Widths narrower than double precision can resolve are computed on the
    extended-precision tier, with dps sized from a leading estimate of the
    width relative to its edges: the one-instanton band width, or (on the
    strong-coupling side hbar >= 2, q = 4/hbar^2 <= 1) the order-q^N gap.
    Only the two edges are computed.  Returns {"width", "error_bound",
    "dps_used" (None on the float tier), "truncation" (Fourier M)}.
    """
    cfg = cfg or HillConfig()
    if kind not in ("band", "gap"):
        raise DomainError("kind is 'band' or 'gap'")
    if kind == "gap" and N < 1:
        raise DomainError("gap label N >= 1")
    if N < 0:
        raise DomainError("band label N >= 0 required")
    require_positive("hbar", hbar)
    dps = cfg.dps
    if dps is None:
        log10w = 0.0
        if kind == "band":
            log10w = (
                math.log10(2 * hbar / math.sqrt(2 * math.pi) / math.factorial(N))
                + (N + 0.5) * math.log10(32 / hbar)
                - 8 / hbar * math.log10(math.e)
            )
        elif hbar >= 2:
            # (hbar^2/4) (2/hbar)^(2N) / (2^(N-1) (N-1)!)^2 at u ~ (N hbar)^2/8
            log10w = (
                2 * math.log10(hbar / 2) + 2 * N * math.log10(2 / hbar)
                - 2 * math.log10(2 ** (N - 1) * math.factorial(N - 1))
                - math.log10(max(1.0, (N * hbar) ** 2 / 8))
            )
        if log10w < -9:
            dps = int(-log10w) + 18
    use = HillConfig(truncation=cfg.truncation, potential_scale=cfg.potential_scale, dps=dps)
    edges = [(N, "bottom"), (N, "top")] if kind == "band" else [(N - 1, "top"), (N, "bottom")]
    lo, hi = band_edges(hbar, N, use, edges=edges)
    width = hi.u - lo.u
    err = abs(hi.u) * 10.0 ** (-hi.converged_digits) + abs(lo.u) * 10.0 ** (
        -lo.converged_digits
    )
    width = float(width)
    err = float(err)
    if width <= 0:
        raise ConvergenceError("width not resolved: non-positive difference")
    if err > 0.2 * width:
        raise ConvergenceError(
            f"width {width:.3e} below achievable precision (bound {err:.3e})"
        )
    return {"width": width, "error_bound": err, "dps_used": dps,
            "truncation": use.resolve_truncation(hbar, N)}


def figure1_dataset(hbar_grid, N_max: int = 19, cfg: HillConfig | None = None) -> list[dict]:
    """Band edges against hbar: the spectrum overview dataset.

    Rows carry (hbar, Q, N, edge, u, err); the potential extrema u = +-1
    are the natural reference lines and are recorded as metadata rows by
    the CLI serializer.
    """
    if N_max < 0:
        raise DomainError("band label N >= 0 required")
    rows = []
    for hbar in hbar_grid:
        for p in band_edges(hbar, N_max, cfg):
            rows.append(
                {
                    "hbar": p.hbar,
                    "Q": 4 / p.hbar ** 2,
                    "N": p.N,
                    "edge": p.edge,
                    "u": float(p.u),
                    "err": 10.0 ** (-p.converged_digits),
                }
            )
    return rows


def figure2_dataset(Q_grid, N_max: int = 12, cfg: HillConfig | None = None) -> list[dict]:
    """Band edges against Q = 4/hbar^2 near the barrier top u = 1."""
    if N_max < 0:
        raise DomainError("band label N >= 0 required")
    rows = []
    for Qv in Q_grid:
        require_positive("Q", Qv)
        hbar = 2 / math.sqrt(Qv)
        for p in band_edges(hbar, N_max, cfg):
            rows.append(
                {
                    "hbar": hbar,
                    "Q": Qv,
                    "N": p.N,
                    "edge": p.edge,
                    "u": float(p.u),
                    "err": 10.0 ** (-p.converged_digits),
                }
            )
    return rows


def crossing_Q(N: int, edge: str, cfg: HillConfig | None = None,
               u_target: float = 1.0) -> float:
    """Q at which the requested edge of band N crosses u_target (= 1)."""
    lo_Q = math.pi ** 2 / 16 * max(N - 0.75, 0.05) ** 2
    hi_Q = math.pi ** 2 / 16 * (N + 0.75) ** 2

    def u_of_Q(Qv: float) -> float:
        hbar = 2 / math.sqrt(Qv)
        pts = band_edges(hbar, N, cfg)
        for p in pts:
            if p.N == N and p.edge == edge:
                return float(p.u)
        raise ConvergenceError("edge not found")

    flo, fhi = u_of_Q(lo_Q) - u_target, u_of_Q(hi_Q) - u_target
    if flo * fhi > 0:
        raise ConvergenceError("crossing not bracketed")
    for _ in range(60):
        mid = 0.5 * (lo_Q + hi_Q)
        fm = u_of_Q(mid) - u_target
        if flo * fm <= 0:
            hi_Q, fhi = mid, fm
        else:
            lo_Q, flo = mid, fm
    return 0.5 * (lo_Q + hi_Q)


def dataset_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["hbar", "Q", "N", "edge", "u", "err"])
    for r in rows:
        writer.writerow(
            [
                _fmt17(r["hbar"]),
                _fmt17(r["Q"]),
                r["N"],
                r["edge"],
                _fmt17(r["u"]),
                _fmt17(r["err"]),
            ]
        )
    return buf.getvalue()


def dataset_to_json(rows: list[dict], metadata: dict | None = None) -> str:
    payload = {"metadata": metadata or {}, "rows": rows}
    return json.dumps(payload, sort_keys=True, default=_fmt17)


def _fmt17(x) -> str:
    return format(float(x), ".17g")
