"""Exact Rayleigh-Schrodinger recursion for potentials with a harmonic
minimum, plus the large-order fitting tools built on top of it.

The recursion works for H = -(hbar^2/2) d^2/dx^2 + V(x) with
V = v0 + v2 x^2 + v3 x^3 + ..., v2 > 0.  Rescaling x = sqrt(hbar) y and
peeling off the Gaussian exp(-w y^2/2), w = sqrt(2 v2), reduces each order
in sqrt(hbar) to a triangular linear solve in the monomial basis; the
resonant monomial y^N fixes the energy correction.  All arithmetic is in
exact rationals, so the output coefficients can be compared as identities.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from typing import Callable, NamedTuple, Sequence

from .errors import ConvergenceError, DomainError, StructureError
from .series import PolyB, PolySeries

__all__ = [
    "PotentialSeries",
    "mathieu_well_potential",
    "lame_potential",
    "rs_series",
    "polynomial_in_N",
    "richardson",
    "large_order_fit",
]


class _PotentialFields(NamedTuple):
    taylor: tuple[Q, ...]


class PotentialSeries(_PotentialFields):
    """Taylor data of a potential about its minimum; exact coefficients.

    ``taylor[k]`` multiplies x^k.  taylor[1] must vanish and taylor[2] > 0;
    construction checks both.  Immutable.
    """

    __slots__ = ()

    def __new__(cls, taylor: tuple[Q, ...]):
        if len(taylor) < 3:
            raise DomainError("potential needs Taylor data through x^2")
        if taylor[1] != 0:
            raise DomainError("expansion point is not a stationary point")
        if taylor[2] <= 0:
            raise DomainError("minimum must be harmonic: V''(0) > 0")
        return super().__new__(cls, taylor)


def mathieu_well_potential(order: int) -> PotentialSeries:
    """-cos y about the well: -1 + y^2/2 - y^4/24 + ..."""
    coeffs = []
    fact = 1
    for k in range(order + 1):
        if k:
            fact *= k
        coeffs.append(Q(-(-1) ** (k // 2), fact) if k % 2 == 0 else Q(0))
    return PotentialSeries(tuple(coeffs))


def lame_potential(m: Q, order: int) -> PotentialSeries:
    """sd^2(y | m)/2, the elliptic well in canonical normalization."""
    from .jacobi_exact import sd_squared_taylor

    m = Q(m)
    if not 0 <= m <= 1:
        raise DomainError("m in [0, 1]")
    coeffs = tuple(c / 2 for c in sd_squared_taylor(order, m))
    return PotentialSeries(coeffs)


def _sqrt_q(x: Q) -> Q:
    """Exact rational square root, error if not a perfect square."""
    from math import isqrt

    num = isqrt(x.numerator)
    den = isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise DomainError(
            "harmonic frequency sqrt(2 V''(0)/2) must be rational for the "
            "exact recursion"
        )
    return Q(int(num), int(den))


def rs_series(
    V: PotentialSeries,
    N: int,
    order: int,
    progress: Callable[[float], None] | None = None,
) -> PolySeries:
    """Energy of level N as an exact series in hbar up to hbar^order.

    The hbar^0 coefficient is V(0); hbar^1 carries the harmonic w(N+1/2).
    """
    if N < 0 or order < 1:
        raise DomainError("need N >= 0 and order >= 1")
    w = _sqrt_q(2 * V.taylor[2])
    jmax = 2 * (order - 1)
    needed = jmax + 2
    if len(V.taylor) < needed + 1:
        raise DomainError(
            f"potential Taylor data to x^{needed} required for order {order}"
        )

    # Q0: polynomial solution of -Q''/2 + w y Q' - w N Q = 0, degree N.
    q0 = [Q(0)] * (N + 1)
    q0[N] = Q(1)
    for t in range(N - 2, -1, -1):
        q0[t] = (t + 2) * (t + 1) * q0[t + 2] / (2 * w * (t - N))
    # Each Q_j is kept as (integer numerators, one denominator), so that the
    # O(j^2) accumulation below runs on Python integers.
    q0d = lcm(*(x.denominator for x in q0))
    q0n = [x.numerator * (q0d // x.denominator) for x in q0]
    Qs = [(q0n, q0d)]
    e: list[Q] = [Q(0)]  # e[j] multiplies delta^j, delta = sqrt(hbar)

    def apply_rhs(j: int) -> tuple[list[int], int]:
        """Known part of RHS_j = sum_{i=1..j} (e_i - v_{i+2} y^{i+2}) Q_{j-i}
        as integer numerators over one denominator, the lcm of the terms';
        the unknown e_j Q0 piece is folded in during the solve."""
        terms = []  # (rational factor, power of y, Q_{j-i})
        for i in range(1, j + 1):
            if i < j and e[i]:
                terms.append((e[i], 0, Qs[j - i]))
            v = V.taylor[i + 2]
            if v:
                terms.append((-v, i + 2, Qs[j - i]))
        den = lcm(*(f.denominator * d for f, _, (_, d) in terms))
        out = [0] * max((len(n) + k for _, k, (n, _) in terms), default=0)
        for f, k, (n, d) in terms:
            scale = f.numerator * (den // (f.denominator * d))
            for t, c in enumerate(n, start=k):
                if c:
                    out[t] += scale * c
        return out, den

    wn, wd = w.numerator, w.denominator
    for j in range(1, jmax + 1):
        rhs, den = apply_rhs(j)
        deg = max(len(rhs) - 1, N)
        rhs += [0] * (deg + 1 - len(rhs))
        # Solve -Q''/2 + w y Q' - w N Q = RHS + e_j Q0 downward in degree.
        # Entry t of den Q_j is held as the unreduced ratio a[t] / b[t], with
        # b[t] = b[t+2] (numerator of w) (t - N): each b divides the later ones
        # of its parity chain, and lcm(b[0], b[1]) is a common denominator.
        # The y^N row has zero diagonal and instead fixes e_j (resonance);
        # there a[N] = 0 and b[N] = b[N+2] (denominator of Q0), the
        # denominator over which the e_j Q0 term enters the rows below.
        a, b = [0] * (deg + 3), [1] * (deg + 3)
        for t in range(deg, -1, -1):
            r = rhs[t] * b[t + 2] + (t + 2) * (t + 1) // 2 * a[t + 2]  # over b[t+2]
            if t == N:
                ej, r_res = Q(-r, b[t + 2] * den), r
                b[t] = b[t + 2] * q0d
                continue
            if t < N and q0n[t]:
                r -= r_res * q0n[t] * (b[t + 2] // b[N])
            a[t] = r * wd
            b[t] = b[t + 2] * wn * (t - N)
        e.append(ej)
        common = lcm(b[0], b[1])
        num = [a[t] * (common // b[t]) for t in range(deg + 1)]
        while len(num) > 1 and not num[-1]:
            num.pop()
        g = gcd(den * common, *num)
        Qs.append(([x // g for x in num], den * common // g))
        if progress is not None:
            progress(j / jmax)

    # Parity: odd-j energy corrections vanish identically.
    for j in range(1, jmax + 1, 2):
        if e[j] != 0:
            raise StructureError(f"odd half-order energy correction e[{j}] = {e[j]} must vanish")

    coeffs: list[PolyB] = [PolyB.const(V.taylor[0]), PolyB.const(w * (Q(2 * N + 1, 2)))]
    for k in range(2, order + 1):
        coeffs.append(PolyB.const(e[2 * (k - 1)]))
    return PolySeries("hbar", order, coeffs)


def polynomial_in_N(V: PotentialSeries, order: int) -> PolySeries:
    """Interpolate the level dependence: hbar^n coefficient as PolyB in B.

    Runs the recursion at N = 0..order and one extra level; the degree-n
    polynomial in B = N + 1/2 must reproduce the extra level exactly,
    otherwise the degree assumption is violated and we raise.
    """
    levels = [rs_series(V, N, order) for N in range(order + 2)]
    bs = [Q(2 * N + 1, 2) for N in range(order + 2)]
    out: list[PolyB] = []
    for n in range(order + 1):
        deg = n if n >= 1 else 0
        pts = [(bs[i], levels[i][n].const_value()) for i in range(deg + 1)]
        poly = _lagrange(pts)
        for i in range(order + 2):
            if poly(bs[i]) != levels[i][n].const_value():
                raise StructureError(
                    f"hbar^{n} coefficient is not degree-{deg} in B"
                )
        out.append(poly)
    return PolySeries("hbar", order, out)


def _lagrange(points: Sequence[tuple[Q, Q]]) -> PolyB:
    total = PolyB()
    for i, (xi, yi) in enumerate(points):
        li = PolyB.const(1)
        denom = Q(1)
        for k, (xk, _yk) in enumerate(points):
            if k == i:
                continue
            li = li * PolyB((-xk, 1))
            denom *= xi - xk
        total = total + li * (yi / denom)
    return total


def richardson(seq: Sequence, steps: int, n0: int = 1):
    """Iterated Richardson extrapolation for s_n = L + a/n + b/n^2 + ...

    Level k update: s_n <- ((n+k) s_{n+1} - n s_n) / k, which annihilates
    the 1/n^k term exactly.  Works on Fractions, floats or Decimals; ``n0``
    is the true index of the first entry.
    """
    work = list(seq)
    if not work or steps < 0:
        raise DomainError(f"need a nonempty sequence and steps >= 0, got {len(work)}, {steps}")
    ns = list(range(n0, n0 + len(work)))
    for k in range(1, steps + 1):
        if len(work) < 2:
            break
        work = [
            ((ns[i] + k) * work[i + 1] - ns[i] * work[i]) / k
            for i in range(len(work) - 1)
        ]
        ns = ns[:-1]
    return work[-1]


def large_order_fit(coeffs: Sequence[Q], n_offset: int = 0) -> dict:
    """Fit the factorial growth c_n ~ A n!/S^(n+1) and estimate S.

    ``coeffs[i]`` is the coefficient of order n_offset + i.

    The ratios S_n = (n+1) |c_n / c_{n+1}| are formed in Decimal at 60
    digits, split by the parity of n, and each non-empty subsequence is
    Richardson-accelerated on its own; their common limit is the dominant
    action even when a subdominant alternating saddle makes the plain
    ratios oscillate.  When every other coefficient vanishes, the ratio
    spans two orders and its square root is taken.  Each subsequence
    compares Richardson at 5 steps with 4; the largest of those spreads is
    returned under ``"spread"``, and ConvergenceError is raised when it
    exceeds 0.2 |action|.  Both values are returned as floats.
    """
    if len(coeffs) < 8:
        raise DomainError("need at least 8 coefficients for a ratio fit")
    import decimal

    with decimal.localcontext(decimal.Context(prec=60)):
        num = decimal.Decimal
        c = [num(x.numerator) / num(x.denominator) for x in coeffs]
        tail = [(n_offset + i, c[i]) for i in range(len(c)) if c[i] != 0]
        ratios = []
        for (n1, c1), (n2, c2) in zip(tail, tail[1:]):
            if n2 - n1 == 1:
                ratios.append((n1, abs(c1 / c2) * (n1 + 1)))
            elif n2 - n1 == 2:
                # every other coefficient vanishes: ratio jumps two orders
                ratios.append((n1, (abs(c1 / c2) * (n1 + 1) * (n1 + 2)).sqrt()))
        if len(ratios) < 7:
            raise DomainError("too many vanishing coefficients for a fit")
        k = 5
        fits = []
        for parity in (0, 1):
            win = [(n, v) for n, v in ratios if n % 2 == parity][-(k + 4):]
            if win:
                # the subsequence steps by 2 in n; n // 2 relabels it to unit steps
                vals, n0 = [v for _n, v in win], win[0][0] // 2
                s = richardson(vals, k, n0=n0)
                fits.append((s, abs(s - richardson(vals, k - 1, n0=n0))))
        action = sum(s for s, _ in fits) / len(fits)
        spread = max(d for _, d in fits)
        if spread > abs(action) * num("0.2"):
            raise ConvergenceError(
                f"ratio acceleration did not settle: spread {float(spread):.3g} "
                f"around {float(action):.6g}"
            )
    return {"action": float(action), "spread": float(spread)}
