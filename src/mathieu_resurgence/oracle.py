"""Ground-truth numerics for the band problem: Fourier (Hill) matrix band
edges, the monodromy discriminant, numeric widths, and the plot-ready
spectrum datasets.

Two independent methods are kept on purpose: the plane-wave matrix at Bloch
momentum 0 and 1/2 gives the edges, and the discriminant of the monodromy
over one period, from Frobenius series about the symmetry points x = 0 and
x = pi, gives the same edges as roots of |cos theta| = 1.  Every
asymptotic formula in the package is ultimately tested against these.

The Hill matrix has two tiers, which share one code path.  Each Bloch
sector splits by parity into two blocks that interlace (`_block`), so the
two near-degenerate edges of a gap fall in different blocks, and every
edge is computed by `tridiag.eigenvalues` from Sturm counts and Newton
steps, only the requested ones.  The float tier works in double
precision; the extended-precision (mp) tier refines each edge from a
double-precision bracket in mpmath, with the Fourier truncation grown from
the precision.  Truncation M keeps the momenta |k| <= M of the periodic
sector and |k + 1/2| <= M + 1/2 of the antiperiodic one.  `width_num`
moves narrow bands and narrow gaps to the mp tier.

The float tier of the Hill matrix runs on the standard library alone; the
mp tier and `discriminant` import mpmath, inside the functions that use it.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

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
]


# Largest Fourier truncation M: the float tier reaches it near hbar = 2.5e-4,
# and each Sturm count costs O(M).
_MAX_TRUNCATION = 10_000
# Largest hbar: the diagonal entries hbar^2 k^2 / 2 stay far inside double
# precision below it.
_HBAR_MAX = 1e100
# Largest working precision of `discriminant`: it is reached near hbar = 3e-3 at
# the bottom of the well, where one call takes several seconds.
_MAX_DISCRIMINANT_DPS = 2_000


def _require_hbar(hbar: float) -> None:
    require_positive("hbar", hbar)
    if hbar > _HBAR_MAX:
        raise DomainError(f"hbar <= {_HBAR_MAX:g} required by the Hill matrix, got {hbar!r}")


def _capped(M):
    if not M <= _MAX_TRUNCATION:
        raise ConvergenceError(
            f"Fourier truncation M={M:.4g} above the cap {_MAX_TRUNCATION} of the Hill matrix"
        )
    return M


class HillConfig(NamedTuple):
    truncation: int = 0  # 0: choose automatically
    potential_scale: float = 1.0  # 0 switches the free-particle test mode on
    dps: int | None = None  # extended-precision tier when set

    def resolve_truncation(self, hbar: float, n_bands: int) -> int:
        if self.truncation:
            if self.truncation < 8:
                raise DomainError("Fourier truncation must be at least 8")
            return _capped(self.truncation)
        # momenta engaged up to the classical turning scale plus decay margin
        umax = max(1.5, 1.2 + (n_bands + 1) * hbar + (n_bands + 1) ** 2 * hbar ** 2 / 8)
        k_turn = math.sqrt(2 * (umax + 1.5)) / hbar
        M = max(10, int(_capped(k_turn + 14 + 4 / math.sqrt(hbar))))
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
        return _capped(max(M, 2 * K + 1))


class SpectralPoint(NamedTuple):
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


def _block(hbar: float, kappa: float, upper: int, M: int, lam: float, one):
    """Diagonal and couplings of one parity block of a Bloch sector, in the
    arithmetic of `one` (1.0 or an mpmath unit).

    Each sector is even under k -> -k, so it splits exactly into two
    blocks.  Periodic (kappa = 0): cos(k x), k = 0..M, whose k = 0
    coupling is sqrt(2) lam/2, and sin(k x), k = 1..M, the same block
    without its first row and column.  Antiperiodic (kappa = 1/2):
    cos((k + 1/2) x) and sin((k + 1/2) x), k = 0..M, with couplings lam/2
    and the k = 0 entry shifted by +-lam/2 (the -|lam|/2 one is the lower
    block).  Either way the upper block is the lower one less a row and
    column or plus a rank-one positive term, so the two interlace: sector
    index i is index i//2 of block i%2 (upper = 1).  A near-degenerate gap
    pair of a sector is then one eigenvalue of each block.
    """
    h2 = one * hbar * hbar / 2
    if kappa:
        d = [h2 * (k + one / 2) ** 2 for k in range(M + 1)]
        shift = one * abs(lam) / 2
        d[0] += shift if upper else -shift
        return d, [one * lam / 2] * M
    e = [one * lam / 2] * (M - 1)
    if not upper:
        e.insert(0, one * lam / (2 * one) ** 0.5)
    return [h2 * k ** 2 for k in range(upper, M + 1)], e


def _edge_table(hbar: float, edges, M: int, lam: float, one, rtol) -> dict:
    """u-values of the requested (N, edge) pairs at Fourier truncation M.

    rtol: None on the float tier; otherwise the tolerance relative to a
    block's largest diagonal entry (at least one).
    """
    blocks: dict[tuple, dict] = {}
    for key in edges:
        kappa, i = _edge_index(*key)
        blocks.setdefault((kappa, i % 2), {})[key] = i // 2
    out = {}
    for (kappa, upper), want in blocks.items():
        d, e = _block(hbar, kappa, upper, M, lam, one)
        tol = None if rtol is None else rtol * max(one, abs(d[-1]))
        vals = tridiag.eigenvalues(d, e, want.values(), tol)
        out.update({key: vals[j] for key, j in want.items()})
    return out


def band_edges(
    hbar: float, N_max: int, cfg: HillConfig | None = None, *, edges=None
) -> list[SpectralPoint]:
    """Band edges for bands 0..N_max, with truncation-convergence estimates.

    edges: the (N, edge) pairs to compute, in output order; by default
    the bottom and top of every band 0..N_max.  Only these eigenvalues are
    computed, at truncation M and M//2; their difference sets the digits.
    """
    cfg = cfg or HillConfig()
    _require_hbar(hbar)
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
    if cfg.dps is None:
        full = _edge_table(hbar, edges, M, lam, 1.0, None)
        half = _edge_table(hbar, edges, half_M, lam, 1.0, None)
    else:
        import mpmath

        with mpmath.workdps(cfg.dps):
            rtol = mpmath.mpf(10) ** (4 - cfg.dps)
            full = _edge_table(hbar, edges, M, lam, mpmath.mpf(1), rtol)
            half = _edge_table(hbar, edges, half_M, lam, mpmath.mpf(1), rtol)
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


def _frobenius(c, lam, u, rho, eps):
    """Value and t-derivative at t = 1 of the Frobenius solution
    t^rho sum_k a_k t^k (a_0 = 1) about t = 1 - cos x = 0, and the sum of
    its terms' magnitudes, which bounds the roundoff of both."""
    import mpmath

    a2, a1 = 0, mpmath.mpf(1)
    v, d, bound, top = a1, rho * a1, a1 + rho, a1
    # past k^2 ~ c (|lam| + |u|) the terms fall by about 1/2 each
    k, kmin = 0, 2 * math.sqrt(float(c * (abs(lam) + abs(u)))) + 2
    cl, cu = c * lam, c * u  # products in mpf: lam - u in floats would round
    while True:
        k += 1
        a = (((k - 1 + rho) ** 2 + cl - cu) * a1 - cl * a2) / ((k + rho) * (2 * k + 2 * rho - 1))
        v, d, m = v + a, d + (k + rho) * a, abs(a) * (1 + k + rho)
        bound, top = bound + m, max(top, m)
        if k > kmin and m + abs(a1) * (k + rho) < eps * top:
            return v, d, bound
        a2, a1 = a1, a


def discriminant(hbar: float, u: float, cfg: HillConfig | None = None) -> "float | mpf":
    """cos(theta), the half trace of the monodromy over one period, from the
    Frobenius solutions about the symmetry points x = 0 and x = pi.

    In z = cos x the equation reads (1 - z^2) psi'' - z psi' = c (lam z - u) psi,
    c = 2/hbar^2, regular singular at z = +-1 with exponents 0 (the even
    solution) and 1/2 (the odd one).  The series in t = 1 - z and s = 1 + z
    (the same with lam -> -lam) are summed at z = 0, inside their radius 2.
    The canonical y1, y2 at x = 0 are even_0 and sqrt(2) odd_0 (t^(1/2) =
    sqrt(2) sin(x/2)), so cos(theta) = y1(pi) y2'(pi) + y1'(pi) y2(pi) is, in
    z-Wronskians with W(even_pi, odd_pi) = 1/sqrt(2) at z = 0,
    2 [W(e0, o_pi) W(o0, e_pi) + W(e0, e_pi) W(o0, o_pi)].  u may be an mpf.
    The terms cancel to O(1) from up to about e^(8/hbar), so the precision is
    sized from c (|lam| + |u|) and checked against the terms' magnitudes.
    The value is a float, or the mpf itself when it lies outside the double
    range (deep in a gap at small hbar), where a float would read +-inf.
    """
    import mpmath

    cfg = cfg or HillConfig()
    require_positive("hbar", hbar)
    lam = cfg.potential_scale
    if not (mpmath.isfinite(u) and math.isfinite(lam)):
        raise DomainError(f"finite u and potential scale required, got {u!r}, {lam!r}")
    dps = 20 + 3 * math.sqrt(2 * (abs(lam) + abs(float(u)))) / hbar  # 3 sqrt(c (|lam| + |u|))
    while dps <= _MAX_DISCRIMINANT_DPS:
        dps = int(dps)
        with mpmath.workdps(dps):
            c, eps = 2 / mpmath.mpf(hbar) ** 2, mpmath.mpf(10) ** -dps
            (e0, o0), (ep, op) = ([_frobenius(c, sign * lam, u, rho, eps) for rho in (0, 0.5)]
                                  for sign in (1, -1))
            # each pairs a t-solution with an s-solution, and dt/dz = -ds/dz
            W = lambda f, g: f[0] * g[1] + f[1] * g[0]
            delta = 2 * (W(e0, op) * W(o0, ep) + W(e0, ep) * W(o0, op))
            need = 20 + int(mpmath.log10(e0[2] * o0[2] * ep[2] * op[2]))
        if need <= dps:
            value = float(delta)
            return value if math.isfinite(value) else delta
        dps = need + 5
    raise ConvergenceError(f"discriminant needs more than {_MAX_DISCRIMINANT_DPS} digits "
                           f"at hbar={hbar!r}, u={u!r}")


def width_num(hbar: float, N: int, kind: str, cfg: HillConfig | None = None) -> dict:
    """Numeric band or gap width from its two edges.

    Widths narrower than double precision can resolve are computed on the
    extended-precision tier, with dps sized from a leading estimate of the
    width relative to its edges: the one-instanton band width, or the
    strong-coupling order-q^N gap (q = 4/hbar^2), which also holds above the
    barrier at q > 1 and is far above one below it.  A width whose estimate
    lies below the double range is refused before any matrix is built.
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
    _require_hbar(hbar)
    cfg.resolve_truncation(hbar, N)  # past the cap first: the estimates overflow there
    dps = cfg.dps
    if dps is None:
        if kind == "band":
            # N! as lgamma: as a float it overflows from N = 171
            log10w = (
                math.log10(2 * hbar / math.sqrt(2 * math.pi)) - math.lgamma(N + 1) / math.log(10)
                + (N + 0.5) * math.log10(32 / hbar)
                - 8 / hbar * math.log10(math.e)
            )
        else:
            # (hbar^2/4) (2/hbar)^(2N) / (2^(N-1) (N-1)!)^2 at u ~ (N hbar)^2/8
            log10w = (
                2 * math.log10(hbar / 2) + 2 * N * math.log10(2 / hbar)
                - 2 * math.log10(2 ** (N - 1) * math.factorial(N - 1))
                - math.log10(max(1.0, (N * hbar) ** 2 / 8))
            )
        if log10w < math.log10(sys.float_info.min):
            raise ConvergenceError(
                f"{kind} width estimate 1e{log10w:.1f} below the double range "
                f"(smallest normal double {sys.float_info.min:.3g})"
            )
        if log10w < -9:
            dps = int(-log10w) + 18
    use = HillConfig(truncation=cfg.truncation, potential_scale=cfg.potential_scale, dps=dps)
    edges = [(N, "bottom"), (N, "top")] if kind == "band" else [(N - 1, "top"), (N, "bottom")]
    lo, hi = band_edges(hbar, N, use, edges=edges)
    # the checks run in the tier's own arithmetic (float or mpf), in which
    # a width below the double range does not underflow to zero
    ten = type(hi.u)(10)
    width = hi.u - lo.u
    err = abs(hi.u) * ten ** (-hi.converged_digits) + abs(lo.u) * ten ** (-lo.converged_digits)
    if width <= 0:
        raise ConvergenceError("width not resolved: non-positive difference")
    if width < sys.float_info.min:
        raise ConvergenceError(f"width {width} below the double range")
    if err > 0.2 * width:
        raise ConvergenceError(
            f"width {float(width):.3e} below achievable precision (bound {float(err):.3e})"
        )
    # a bound below the double range reads as the smallest double
    return {"width": float(width), "error_bound": max(float(err), math.ulp(0.0)),
            "dps_used": dps, "truncation": use.resolve_truncation(hbar, N)}


def _rows(points: list[SpectralPoint], Q: float) -> list[dict]:
    """Dataset rows (hbar, Q, N, edge, u, err) of the band edges at one hbar."""
    return [
        {
            "hbar": p.hbar,
            "Q": Q,
            "N": p.N,
            "edge": p.edge,
            "u": float(p.u),
            "err": 10.0 ** (-p.converged_digits),
        }
        for p in points
    ]


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
        rows += _rows(band_edges(hbar, N_max, cfg), 4 / hbar ** 2)
    return rows


def figure2_dataset(Q_grid, N_max: int = 12, cfg: HillConfig | None = None) -> list[dict]:
    """Band edges against Q = 4/hbar^2 near the barrier top u = 1."""
    if N_max < 0:
        raise DomainError("band label N >= 0 required")
    rows = []
    for Qv in Q_grid:
        require_positive("Q", Qv)
        rows += _rows(band_edges(2 / math.sqrt(Qv), N_max, cfg), Qv)
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
