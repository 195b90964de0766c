"""Zero-dimensional saddle resurgence laboratory for the periodic and
doubly-periodic partition integrals

    Z(hbar | m) = 1/sqrt(pi hbar) * int_{-K}^{K} exp(-sd^2(z|m)/hbar) dz,

whose m -> 0 limit is the sin^2 integral.  Provides exact saddle-point
fluctuation expansions, quadrature ground truth, large-order/low-order
coefficient relations, and lateral Borel-type resummation experiments.
"""
from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import NamedTuple

from .elliptic import ellip_K, jacobi_sn_cn_dn
from .errors import ConvergenceError, DomainError, require_positive
from .jacobi_exact import _cn2_flipped, _nc2_flipped, _sd2, sd_squared_taylor
from .series import PolyB

__all__ = [
    "SaddleExpansion",
    "saddle_series",
    "lame_saddles",
    "lame_vacuum_symbolic",
    "sin2_vacuum_exact",
    "z_quadrature",
    "berry_howls_check",
    "exact_relation_check",
    "borel_lateral_check",
]


class SaddleExpansion(NamedTuple):
    """Fluctuation data of one saddle of exp(-f/hbar).

    The steepest-descent integral through the saddle is

        int exp(-f/hbar) = exp(-action/hbar) sqrt(pi hbar / curvature)
                           * sum_r coeffs[r] hbar^r,

    with coeffs[0] = 1.  ``rotated`` marks saddles whose descent direction
    is i times the original one (contributing a factor i to the sector).
    All stored numbers are exact rationals.
    """

    label: str
    action: Q
    curvature: Q
    coeffs: list[Q]
    rotated: bool = False

    def sector_coeff(self, r: int, dps: int = 30):
        """a_r = coeffs[r]/sqrt(curvature), the partition-normalized
        fluctuation coefficient (an mpf; irrational in general)."""
        import mpmath

        with mpmath.workdps(dps):
            c2 = mpmath.mpf(self.curvature.numerator) / self.curvature.denominator
            b = mpmath.mpf(self.coeffs[r].numerator) / self.coeffs[r].denominator
            return b / mpmath.sqrt(c2)


def _dfac(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _common_denominator(xs) -> tuple[list, int]:
    """(numerators, D): the entries of xs over one common denominator D.
    A rational becomes an int, a PolyB an integer-coefficient PolyB."""
    D = math.lcm(*(x.d if isinstance(x, PolyB) else x.denominator for x in xs))
    return [x * D if isinstance(x, PolyB) else x.numerator * (D // x.denominator) for x in xs], D


def _reduce(vals: list, den: int) -> tuple[list, int]:
    """Divide integer entries (ints or integer-coefficient PolyB) and their
    common denominator by one gcd."""
    g = math.gcd(den, *(v for v in vals if isinstance(v, int)),
                 *(c for v in vals if isinstance(v, PolyB) for c in v.n))
    if g == 1:
        return vals, den
    return [v / g if isinstance(v, PolyB) else v // g for v in vals], den // g


def _gaussian_moments(taylor, c2: Q, order: int) -> list:
    """Coefficients b_0..b_order of sum_r b_r hbar^r, the Gaussian-moment
    expansion of int exp(-(f - f(0))/hbar) ds / sqrt(pi hbar / c2).

    ``taylor`` holds f = sum_k c_k s^k with c_1 = 0 and c_2 = ``c2``; its
    entries may be rationals or PolyB polynomials, and the output stays in
    their ring (``c * 0`` is the ring's zero, as in ``series.horner``).
    With s -> sqrt(hbar) s, exp(-A) has A = sum_{k>=3} c_k delta^(k-2) s^k,
    delta = sqrt(hbar).  The n-th term A^n/n! at delta^d carries s^(d+2n),
    so only a list over d is kept per n, and hbar^r takes the moments
    <s^(2j)> = (2j-1)!!/(2 c2)^j with j = r + n.  The lists hold integers
    (integer polynomials over Q[m]): A/s^2 is written over one denominator,
    and A^n/n! over one denominator per n, reduced by one gcd.
    """
    dmax = 2 * order
    zero = taylor[2] * 0
    # the nonzero a[d], which multiplies delta^d in A/s^2 = sum_k c_k
    # (delta s)^(k-2), as (d, numerator) over one denominator D
    nz = [(d, c) for d, c in enumerate(taylor[3 : dmax + 3], start=1) if c]
    nums, D = _common_denominator([c for _, c in nz])
    a = [(d, v) for (d, _), v in zip(nz, nums)]
    # (2j-1)!! / (2 c2)^j = moment[j][0] / moment[j][1]
    u, v = c2.numerator, c2.denominator
    moment, dfac = [], 1
    for j in range(order + dmax + 1):
        moment.append((dfac * v ** j, (2 * u) ** j))
        dfac *= 2 * j + 1
    term, den = [1] + [0] * dmax, 1  # (-A)^n/n! = term / den, from n = 0
    out = [zero] * (order + 1)
    for n in range(dmax + 1):
        for r in range(order + 1):
            if term[2 * r]:
                num, mden = moment[r + n]
                out[r] = out[r] + term[2 * r] * Q(num, mden * den)
        new = [0] * (dmax + 1)
        for d1, t in enumerate(term):
            if t:
                for d2, x in a:
                    if d1 + d2 > dmax:
                        break
                    new[d1 + d2] += t * x
        # (-A)^(n+1)/(n+1)! = -A (-A)^n/n! / (n+1)
        term, den = _reduce(new, -den * D * (n + 1))
    return out


def saddle_series(taylor, order: int, label: str = "saddle",
                  rotated: bool = False) -> SaddleExpansion:
    """Gaussian-moment expansion about a nondegenerate saddle.

    ``taylor``: exact coefficients [c0, c1, c2, c3, ...] of f along the
    (possibly rotated) descent direction; requires c1 = 0 and c2 > 0.
    """
    if order < 0:
        raise DomainError(f"expansion order must be >= 0, got {order}")
    taylor = [c.const_value() if isinstance(c, PolyB) else Q(c) for c in taylor]
    if len(taylor) < 2 * order + 3:
        raise DomainError(
            f"order {order} needs Taylor data c_0..c_{2 * order + 2}, got {len(taylor)} entries"
        )
    if taylor[1] != 0:
        raise DomainError("need Taylor data [S, 0, c2, ...] along the descent line")
    c2 = taylor[2]
    if c2 <= 0:
        raise DomainError("degenerate or wrongly oriented saddle: c2 must be > 0")
    return SaddleExpansion(
        label=label, action=taylor[0], curvature=c2,
        coeffs=_gaussian_moments(taylor, c2, order), rotated=rotated,
    )


def lame_saddles(m: Q, order: int) -> dict[str, SaddleExpansion]:
    """The three connected saddles of the doubly-periodic integrand.

    vacuum at z = 0 (action 0), the real saddle at z = K(m) with action
    1/(1-m), and the imaginary one at z = i K(1-m) with action -1/m; the
    latter two are rotated (descent along the imaginary direction).  The
    Taylor data are built over Q at this m, as plain rationals.
    """
    return _lame_saddles(m, order, order)


def _lame_saddles(m: Q, order: int, rotated_order: int) -> dict[str, SaddleExpansion]:
    """``lame_saddles`` with the two rotated saddles expanded only to
    ``rotated_order``: the coefficient relations read them to j_max only."""
    m = Q(m)
    if not 0 < m < 1:
        raise DomainError("saddle set needs 0 < m < 1; use sin2_vacuum_exact at m=0")
    if order < 0:
        raise DomainError(f"expansion order must be >= 0, got {order}")
    vacuum = saddle_series(_sd2(2 * order + 4, m), order, label="vacuum")
    need = 2 * rotated_order + 4

    # real saddle: f(K + i s) = P(s)/(1-m), P = nc^2(s | 1-m) = (1-m) sd^2;
    # rescale s -> sqrt(1-m) sigma to keep every coefficient rational.
    P = _nc2_flipped(need, m)
    one_m = 1 - m
    f1 = [P[k] * one_m ** (k // 2 - 1) if k % 2 == 0 else Q(0) for k in range(len(P))]
    # k = 0 entry: action S1 = 1/(1-m)
    f1[0] = 1 / one_m
    # the sigma-rescaling moved the physical curvature 1/(1-m) to 1;
    # restore it so sector_coeff carries the right Gaussian prefactor
    real = saddle_series(f1, rotated_order, label="real", rotated=True)._replace(
        curvature=1 / one_m)

    # imaginary saddle: f(i (K' + s)) = -C(s)/m, C = cn^2(s | 1-m);
    # rescale s -> sqrt(m) sigma.
    C = _cn2_flipped(need, m)
    f2 = [-C[k] * m ** (k // 2 - 1) if k % 2 == 0 else Q(0) for k in range(len(C))]
    f2[0] = -1 / m
    imag = saddle_series(f2, rotated_order, label="imag", rotated=True)._replace(
        curvature=1 / m)
    return {"vacuum": vacuum, "real": real, "imag": imag}


def lame_vacuum_symbolic(order: int) -> list[PolyB]:
    """Vacuum fluctuation coefficients as exact polynomials in m."""
    if order < 0:
        raise DomainError(f"expansion order must be >= 0, got {order}")
    sd2 = sd_squared_taylor(2 * order + 4)
    return _gaussian_moments(sd2.c, sd2[2].const_value(), order)


def sin2_vacuum_exact(r: int) -> Q:
    """Closed form for the sin^2 vacuum coefficients:
    Gamma(r+1/2)^2/(sqrt(pi) r!) normalized by the Gaussian prefactor
    sqrt(pi), i.e. ((2r-1)!!)^2 / (4^r r!)."""
    return Q(_dfac(2 * r - 1) ** 2, 4 ** r * math.factorial(r))


def z_quadrature(hbar: float, m, dps: int = 25) -> float:
    """1/sqrt(pi hbar) int_{-K}^{K} exp(-sd^2(z|m)/hbar) dz by adaptive
    tanh-sinh quadrature, absolute accuracy well below 1e-12.

    The integrand is even, so sd^2 is evaluated once per distinct |z|.
    The quadrature reads no saddle data: it is the independent route the
    saddle sums are checked against.
    """
    return _z_quadratures([hbar], m, dps)[0]


def _z_quadratures(hbars, m, dps: int) -> list[float]:
    """``z_quadrature`` at every hbar in ``hbars``, sharing one table of
    sd^2 values.  mpmath's tanh-sinh nodes do not depend on the integrand,
    so every hbar meets the same nodes, and z and -z share one entry."""
    for hbar in hbars:
        require_positive("hbar", hbar)
    if not 0 <= m <= 1:
        raise DomainError("m in [0, 1]")
    import mpmath

    with mpmath.workdps(dps):
        mm = mpmath.mpf(m.numerator) / m.denominator if isinstance(m, Q) else mpmath.mpf(m)
        sd2_at = {}  # |z| -> sd^2(z | m)

        def sd2(z):
            z = abs(z)
            val = sd2_at.get(z)
            if val is None:
                if mm == 0:
                    s = mpmath.sin(z)
                    val = s * s
                elif mm == 1:
                    s = mpmath.sinh(z)
                    val = s * s
                else:
                    sn, _cn, dn = jacobi_sn_cn_dn(z, mm, dps=dps)
                    val = (sn / dn) ** 2
                sd2_at[z] = val
            return val

        if mm < 1:
            K = mpmath.pi / 2 if mm == 0 else ellip_K(mm, dps=dps)
        out = []
        for hbar in hbars:
            h = mpmath.mpf(hbar)
            if mm == 1:
                # sinh^2 well: integrate to effective infinity
                K = mpmath.sqrt(h) * 40 + 10
            total = mpmath.quad(lambda z: mpmath.exp(-sd2(z) / h), [-K, 0, K])
            out.append(float(total / mpmath.sqrt(mpmath.pi * h)))
        return out


def berry_howls_check(m: Q, n_values, j_max: int = 4, dps: int = 50) -> list[dict]:
    """Compare vacuum coefficients against the (n-1)!-weighted sums over
    the two adjacent saddles; reports the relative error coefficient by
    coefficient.  The dominant saddle flips from the real one (m < 1/2,
    non-alternating) to the imaginary one (m > 1/2, alternating).
    """
    m = Q(m)
    n_values = list(n_values)
    if not n_values or min(n_values) < 1:
        raise DomainError("need at least one coefficient index, each n >= 1")
    sads = _lame_saddles(m, max(n_values), max(j_max, 0))
    vac = sads["vacuum"]
    S1, S2 = sads["real"].action, sads["imag"].action
    out = []
    import mpmath

    with mpmath.workdps(dps):
        s1 = mpmath.mpf(S1.numerator) / S1.denominator
        s2 = mpmath.mpf(S2.numerator) / S2.denominator
        for n in n_values:
            lhs = mpmath.mpf(vac.coeffs[n].numerator) / vac.coeffs[n].denominator
            rhs = mpmath.mpf(0)
            for j in range(min(j_max, n - 1) + 1):
                w = mpmath.factorial(n - j - 1) / mpmath.pi
                rhs += w * (
                    sads["real"].sector_coeff(j, dps) / s1 ** (n - j)
                    + sads["imag"].sector_coeff(j, dps) / s2 ** (n - j)
                )
            rel = abs(lhs - rhs) / abs(lhs)
            out.append({"m": float(m), "n": n, "lhs": float(lhs),
                        "rhs": float(rhs), "rel_defect": float(rel)})
    return out


def exact_relation_check(m: Q, n_range, j_max: int = 6, dps: int = 60) -> dict:
    """Max relative defect of the coefficient relation

        a_n^(0) = sum_j ((n-j-1)!/pi) (a_j^(1)/S1^(n-j) + a_j^(2)/S2^(n-j))

    truncated at j_max, over the requested n range."""
    rows = berry_howls_check(m, list(n_range), j_max=j_max, dps=dps)
    worst = max(r["rel_defect"] for r in rows)
    return {"m": float(Q(m)), "j_max": j_max, "rows": rows, "max_rel_defect": worst}


def _phi_tail(x, p: int):
    """PV-resummed factorial tail sum_{q > p} (q-1)! x^q.

    Equals x^(p+1) J_p with J_p = PV int_0^inf t^p e^(-t)/(1 - x t) dt / x
    ... satisfying J_p = t* J_{p-1} - (p-1)!, J_0 = e^(-t*) Ei(t*),
    t* = 1/x.  mpmath's ei takes the principal value on the positive axis,
    which is exactly the lateral average.
    """
    import mpmath

    tstar = 1 / x
    J = mpmath.exp(-tstar) * mpmath.ei(tstar)
    fact = mpmath.mpf(1)
    for q in range(1, p + 1):
        J = tstar * J - fact
        fact *= q
    return x ** (p + 1) * J


# deepest optimal truncation the Borel check expands to: hbar >= about 0.01
_MAX_BOREL_ORDER = 200


def borel_lateral_check(
    m: Q,
    hbar_list,
    j_max: int = 8,
    n_cut: int | None = None,
    dps: int = 60,
) -> list[dict]:
    """Superasymptotic lateral-Borel reconstruction of Z(hbar | m).

    The exact vacuum coefficients are kept up to the optimal truncation
    n_cut (chosen per hbar as the index of the smallest term when not
    given); the factorially divergent tail is replaced sector by sector
    using the coefficient relation

        a_n ~ sum_j ((n-j-1)!/pi) (a_j^(1)/S1^(n-j) + a_j^(2)/S2^(n-j)),

    each j-term resummed in closed form through the principal-value kernel
    PV int_0^inf t^p e^(-t) dt/(1 - hbar v ...) = e^(-1/x) Ei(1/x) tails.
    The pole on the positive axis (real saddle) carries the lateral
    ambiguity +- i pi e^(-S1/hbar) sum_j a_j^(1) hbar^j, reported in
    ``imag_ambiguity``; the ghost sector is pole-free.  ``rhs`` is compared
    against direct quadrature (``z_quadrature`` at dps min(dps, 30)); the
    residual defect tracks the omitted sectors and shrinks exponentially
    as hbar decreases.  The quadratures of all hbar share one table of
    sd^2 values, one Jacobi evaluation per distinct |z| node.
    """
    m = Q(m)
    if not 0 < m < 1:
        raise DomainError("saddle set needs 0 < m < 1")
    for hb in hbar_list:
        require_positive("hbar", hb)
    rows = []
    # |a_n| hbar^n ~ (n-1)! (hbar/|S|)^n is smallest near n = |S|/hbar for the
    # nearer saddle, |S| = min(1/(1-m), 1/m); a few orders past it show the
    # minimum.  A given n_cut sets the depth itself; at least 36 orders are
    # always kept.
    s_min = min(1 / (1 - m), 1 / m)
    if n_cut is not None:
        deepest = [n_cut]
    else:
        depths = [float(s_min) / float(hb) for hb in hbar_list]
        if not max(depths, default=0.0) + 4 <= _MAX_BOREL_ORDER:
            raise ConvergenceError(
                f"the smallest term of hbar={min(hbar_list)!r} lies past order "
                f"{_MAX_BOREL_ORDER}, the deepest the Borel check keeps"
            )
        deepest = [math.ceil(x) + 2 for x in depths]
    order_needed = max([34, *deepest]) + 2
    sads = _lame_saddles(m, max(j_max + 2, order_needed), max(j_max, 0))
    vac = sads["vacuum"].coeffs
    S1, S2 = sads["real"].action, sads["imag"].action
    quad_dps = min(dps, 30)
    import mpmath

    with mpmath.workdps(dps):
        s1 = mpmath.mpf(S1.numerator) / S1.denominator
        s2 = mpmath.mpf(S2.numerator) / S2.denominator
        a1 = [sads["real"].sector_coeff(j, dps) for j in range(j_max + 1)]
        a2 = [sads["imag"].sector_coeff(j, dps) for j in range(j_max + 1)]
        quads = _z_quadratures([float(hb) for hb in hbar_list], m, quad_dps)
        for hb, quad in zip(hbar_list, quads):
            h = mpmath.mpf(hb)
            lhs = mpmath.mpf(quad)
            if n_cut is None:
                terms = {
                    n: abs(mpmath.mpf(c.numerator) / c.denominator) * h ** n
                    for n, c in enumerate(vac[1:], start=1)
                    if c != 0
                }
                nc = min(terms, key=terms.__getitem__)
                nc = min(nc, order_needed - 2)
            else:
                nc = n_cut
            head = mpmath.mpf(0)
            for n in range(nc + 1):
                head += mpmath.mpf(vac[n].numerator) / vac[n].denominator * h ** n
            tail = mpmath.mpf(0)
            amb = mpmath.mpf(0)
            for j in range(j_max + 1):
                p1 = max(nc - j, 0)
                tail += (a1[j] / mpmath.pi) * h ** j * _phi_tail(h / s1, p1)
                tail += (a2[j] / mpmath.pi) * h ** j * _phi_tail(h / s2, p1)
                amb += a1[j] * h ** j
            rhs = head + tail
            ambiguity = float(abs(mpmath.pi * mpmath.exp(-s1 / h) * amb))
            rows.append(
                {
                    "m": float(m),
                    "hbar": float(hb),
                    "n_cut": nc,
                    "j_max": j_max,
                    "lhs": float(lhs),
                    "rhs": float(rhs),
                    "abs_defect": float(abs(lhs - rhs)),
                    "rel_defect": float(abs(lhs - rhs) / abs(lhs)),
                    "imag_ambiguity": ambiguity,
                }
            )
            if not all(math.isfinite(v) for v in rows[-1].values()):
                raise DomainError(f"Borel check not finite in double precision at hbar={hb!r}")
    return rows
