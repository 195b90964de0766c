"""Zero-dimensional saddle resurgence laboratory for the periodic and
doubly-periodic partition integrals

    Z(hbar | m) = 1/sqrt(pi hbar) * int_{-K}^{K} exp(-sd^2(z|m)/hbar) dz,

whose m -> 0 limit is the sin^2 integral.  Provides exact saddle-point
fluctuation expansions, quadrature ground truth, large-order/low-order
coefficient relations, and lateral Borel-type resummation experiments.
"""
from __future__ import annotations

import decimal
import math
from decimal import Decimal as D
from fractions import Fraction as Q
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, require_positive

# pi and Euler's gamma to 77 digits, above every precision used here
_PI = D("3.1415926535897932384626433832795028841971693993751058209749445923078164062862")
_EULER = D("0.57721566490153286060651209008240243104215933593992359880576723488486772677766")

__all__ = [
    "SaddleExpansion",
    "lame_saddles",
    "lame_vacuum_symbolic",
    "sin2_vacuum_exact",
    "z_quadrature",
    "exact_relation_check",
    "borel_lateral_check",
]


class SaddleExpansion(NamedTuple):
    """Fluctuation data of one saddle of exp(-f/hbar).

    The steepest-descent integral through the saddle is

        int exp(-f/hbar) = exp(-action/hbar) sqrt(pi hbar / curvature)
                           * sum_r coeffs[r] hbar^r,

    with coeffs[0] = 1, the integral taken along the saddle's descent
    direction.  Where that direction is i times the original one (the real
    and imaginary saddles of ``lame_saddles``), the sector gains a factor
    i that the record does not carry.  All three fields are exact
    rationals; the checks below take the partition-normalized coefficients
    a_r = coeffs[r]/sqrt(curvature) in the standard library's decimal
    (``_sector_coeffs``).
    """

    action: Q
    curvature: Q
    coeffs: list[Q]


def _dfac(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _binomial_saddle(alpha, beta, order: int) -> list:
    """Coefficients b_0..b_order of one saddle of the sd^2 integrand.

    w = sd^2(z | m) obeys (dw/dz)^2 = 4 w (1 - (1-m) w)(1 + m w), so in
    t = |w - w_saddle| the saddle's series (normalized as in SaddleExpansion)
    is int_0^inf exp(-t/hbar) t^(-1/2) ((1 - alpha t)(1 - beta t))^(-1/2) dt
    / sqrt(pi hbar): b_r = Gamma(r+1/2)/Gamma(1/2) c_r, with c_r =
    sum_i u_i v_(r-i), u_i = alpha^i C(2i, i)/4^i, v_j = beta^j C(2j, j)/4^j,
    the t^r coefficient of (1 - s t + p t^2)^(-1/2), s = alpha + beta, p =
    alpha beta, for which (r+1) c_(r+1) = s (r+1/2) c_r - p r c_(r-1); so
    b_(r+1) = (r+1/2)/(r+1) (s (r+1/2) b_r - p r (r-1/2) b_(r-1)), b_0 = 1.
    alpha, beta: rationals or PolyB polynomials in m; b_r lies in their ring.
    """
    if order < 0:
        raise DomainError(f"expansion order must be >= 0, got {order}")
    s, p = alpha + beta, alpha * beta
    # s ** 0 is the ring's one; at r = 0 the factor r voids b[r - 1]
    b = [s ** 0]
    for r in range(order):
        b.append((s * b[r] * Q(2 * r + 1, 2) - p * b[r - 1] * Q(r * (2 * r - 1), 2))
                 * Q(2 * r + 1, 2 * r + 2))
    return b


def _rational(m) -> Q:
    try:
        return Q(m)
    except (ValueError, OverflowError):  # a NaN, an infinity or malformed text
        raise DomainError(f"finite rational m required, got {m!r}") from None


def lame_saddles(m: Q, order: int) -> dict[str, SaddleExpansion]:
    """The three connected saddles of the doubly-periodic integrand.

    vacuum at z = 0 (action 0, curvature 1), the real saddle at z = K(m)
    (action and curvature 1/(1-m)) and the imaginary one at z = i K(1-m)
    (action -1/m, curvature 1/m); the latter two are rotated (descent along
    the imaginary direction).  The coefficients are rationals in closed
    form (``_binomial_saddle``).
    """
    m = _rational(m)
    if not 0 < m < 1:
        raise DomainError("saddle set needs 0 < m < 1; use sin2_vacuum_exact at m=0")
    m1 = 1 - m
    return {
        "vacuum": SaddleExpansion(Q(0), Q(1), _binomial_saddle(m1, -m, order)),
        "real": SaddleExpansion(1 / m1, 1 / m1, _binomial_saddle(-m1, -m * m1, order)),
        "imag": SaddleExpansion(-1 / m, 1 / m, _binomial_saddle(m, m * m1, order)),
    }


def lame_vacuum_symbolic(order: int) -> list:
    """Vacuum fluctuation coefficients as exact polynomials in m (PolyB)."""
    from .series import PolyB

    m = PolyB((0, 1))
    return _binomial_saddle(1 - m, -m, order)


def sin2_vacuum_exact(r: int) -> Q:
    """Closed form for the sin^2 vacuum coefficients:
    Gamma(r+1/2)^2/(sqrt(pi) r!) normalized by the Gaussian prefactor
    sqrt(pi), i.e. ((2r-1)!!)^2 / (4^r r!)."""
    if r < 0:
        raise DomainError(f"coefficient index r >= 0 required, got {r}")
    return Q(_dfac(2 * r - 1) ** 2, 4 ** r * math.factorial(r))


def z_quadrature(hbars, m) -> list[float]:
    """1/sqrt(pi hbar) int_{-K}^{K} exp(-sd^2(z|m)/hbar) dz at every hbar
    in ``hbars``, by the trapezoidal rule at 30 digits.

    The rule runs in the Jacobi amplitude phi = am(z|m) (DLMF 22.16), where
    sn = sin phi and dn = sqrt(1 - m sin^2 phi), so with s = sin^2 phi,
    dz = dphi/dn and sd^2 = s/(1 - m s):

        Z = 1/sqrt(pi hbar) int_{-pi/2}^{pi/2} exp(-sd^2/hbar) / dn dphi.

    The integrand is even with period pi in phi for every m in [0, 1], so
    the rule folds onto [0, pi/2]:
    T_n = (pi/(2n)) [f(0) + f(pi/2) + 2 sum_(0<k<n) f(k pi/(2n))], converging
    geometrically on this periodic integrand, analytic for m < 1 (Trefethen
    and Weideman, SIAM Rev. 56 (2014) 385); at m = 1 (z over the whole
    line) it vanishes to all orders at phi = pi/2, and the rule converges
    faster than any power of 1/n.  n doubles from 4,
    adding only the odd k, until two sums agree to 1e-25 relative;
    ConvergenceError past _MAX_TRAPEZOID_NODES.  The hbars share one table
    of the node values sd^2 and 1/dn (``_amplitude_node``), which hold all
    the m-dependence, so each hbar costs one exp per node.  It reads no
    saddle data: it is the independent route the saddle sums are checked
    against.
    """
    hbars = list(hbars)
    for hbar in hbars:
        require_positive("hbar", hbar)
    if not 0 <= m <= 1:
        raise DomainError("m in [0, 1]")
    # Context(prec=...) rather than localcontext(prec=...), which needs 3.11
    with decimal.localcontext(decimal.Context(prec=30)):
        mm = _dec(m) if isinstance(m, Q) else D(m)
        half_pi = _PI / 2
        nodes = {}  # t -> (sd^2, 1/dn) at phi = t pi/2, shared by every hbar

        def f(t, h):  # exp(-sd^2/hbar)/dn at phi = t pi/2, t = k/n exact in binary
            if t not in nodes:
                nodes[t] = _amplitude_node(t, mm)
            sd2, inv_dn = nodes[t]
            return (-sd2 / h).exp() * inv_dn

        out = []
        for hbar in hbars:
            h = D(hbar)
            n, diff = 4, D("Infinity")
            total = f(0.0, h) + f(1.0, h) + 2 * sum(f(k / n, h) for k in range(1, n))
            while diff > D("1e-25"):
                if n >= _MAX_TRAPEZOID_NODES:
                    raise ConvergenceError(f"quadrature at hbar={hbar!r}: {n} nodes leave "
                                           f"a relative difference {float(diff):.1e}")
                prev, n = half_pi * total / n, 2 * n
                total += 2 * sum(f(k / n, h) for k in range(1, n, 2))
                diff = abs(half_pi * total / n - prev) / prev
            out.append(float(half_pi * total / n / (_PI * h).sqrt()))
        return out


def _amplitude_node(t: float, m: D) -> tuple[D, D]:
    """(sd^2, 1/dn) at amplitude phi = t pi/2, 0 <= t <= 1, from sn = sin phi
    and dn = sqrt(1 - m sin^2 phi), at the caller's precision.  sin^2 phi
    comes from the series about the nearer end of [0, pi/2], so 1 - sin^2
    phi keeps its digits near pi/2.  At m = 1 and phi = pi/2 (z = infinity)
    it returns (inf, 0), whose exp(-inf) * 0 is the integrand's limit 0."""
    if t <= 0.5:
        s = _sin_squared(_PI * D(t) / 2)
    else:
        s = 1 - _sin_squared(_PI * D(1 - t) / 2)
    dn2 = 1 - m * s
    if not dn2:
        return D("Infinity"), D(0)
    return s / dn2, 1 / dn2.sqrt()


def _sin_squared(x: D) -> D:
    """sin(x)^2 for 0 <= x <= pi/4 from the Taylor series of sin, summed
    until a term no longer changes the sum at the caller's precision."""
    x2 = x * x
    term = total = x
    k = 1
    while True:
        term = -term * x2 / ((k + 1) * (k + 2))
        k += 2
        new = total + term
        if new == total:
            return total * total
        total = new


def _dec(x: Q) -> D:
    """The rational x as a Decimal at the caller's precision."""
    return D(x.numerator) / x.denominator


def _sector_coeffs(saddle: SaddleExpansion, j_max: int) -> list[D]:
    """a_j = coeffs[j]/sqrt(curvature) for j = 0..j_max (as far as stored),
    the partition-normalized fluctuation coefficients: Decimals (irrational
    in general) at the caller's precision."""
    root = _dec(saddle.curvature).sqrt()
    return [_dec(b) / root for b in saddle.coeffs[: j_max + 1]]


def exact_relation_check(m: Q, n_range, j_max: int = 6) -> dict:
    """Vacuum coefficients against the (n-1)!-weighted sums over the two
    adjacent saddles,

        a_n^(0) = sum_j ((n-j-1)!/pi) (a_j^(1)/S1^(n-j) + a_j^(2)/S2^(n-j)),

    truncated at j_max, over the requested n range, at 60 digits.  Returns
    the rows, one per n with its relative defect, and the largest defect.
    The dominant saddle flips from the real one (m < 1/2, non-alternating)
    to the imaginary one (m > 1/2, alternating).
    """
    m = _rational(m)
    n_values = list(n_range)
    if not n_values or min(n_values) < 1 or j_max < 0:
        raise DomainError("need at least one coefficient index, each n >= 1, and j_max >= 0")
    sads = lame_saddles(m, max(n_values))
    vac = sads["vacuum"]
    rows = []
    with decimal.localcontext(decimal.Context(prec=60)):
        s1, s2 = _dec(sads["real"].action), _dec(sads["imag"].action)
        a1, a2 = _sector_coeffs(sads["real"], j_max), _sector_coeffs(sads["imag"], j_max)
        for n in n_values:
            lhs = _dec(vac.coeffs[n])
            rhs = D(0)
            for j in range(min(j_max, n - 1) + 1):
                w = math.factorial(n - j - 1) / _PI
                rhs += w * (a1[j] / s1 ** (n - j) + a2[j] / s2 ** (n - j))
            rel = abs(lhs - rhs) / abs(lhs)
            rows.append({"m": float(m), "n": n, "lhs": float(lhs),
                         "rhs": float(rhs), "rel_defect": float(rel)})
    worst = max(r["rel_defect"] for r in rows)
    return {"m": float(m), "j_max": j_max, "rows": rows, "max_rel_defect": worst}


def _exp_ei(t: D) -> D:
    """e^(-t) Ei(t) for real t != 0 at the caller's precision; on t > 0, Ei
    is the principal value.

    Above t = -2 it sums Ei(t) = gamma + ln|t| + sum_k t^k/(k k!), whose
    terms cancel by at most e^4 there.  Below, Ei(t) = -E1(x), x = -t, and
    e^x E1(x) = 1/(x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...)))) (DLMF 6.9.1)
    by Lentz's method, in few terms at the large x of a ghost saddle.
    """
    if t > -2:
        term = total = t
        k = 1
        while True:
            k += 1
            term = term * t / k
            new = total + term / k
            if new == total:
                return (_EULER + abs(t).ln() + total) * (-t).exp()
            total = new
    x = -t
    eps = D(10) ** (2 - decimal.getcontext().prec)
    f = c = x + 1
    d = D(0)
    k = 0
    while True:
        k += 1
        b = x + 2 * k + 1
        d = 1 / (b - k * k * d)
        c = b - k * k / c
        f *= c * d
        if abs(c * d - 1) < eps:
            return -1 / f


def _phi_tails(x: D, p_max: int) -> list[D]:
    """x^(p+1) J_p for p = 0..p_max, J_p = x PV int_0^inf t^p e^(-t)/(1 - x t) dt,
    from J_p = t* J_{p-1} - (p-1)!, J_0 = e^(-t*) Ei(t*), t* = 1/x, so one
    Ei serves all p.  ``_exp_ei`` takes the principal value on the positive
    axis, which is exactly the lateral average.  Entry p is x times the
    PV-resummed factorial tail sum_{q > p} (q-1)! x^q.
    """
    tstar = 1 / x
    J = _exp_ei(tstar)
    xp = x  # x^(p+1)
    out, fact = [xp * J], 1
    for q in range(1, p_max + 1):
        J = tstar * J - fact
        fact *= q
        xp *= x
        out.append(xp * J)
    return out


# deepest optimal truncation the Borel check expands to: hbar >= |S|/196
_MAX_BOREL_ORDER = 200
# most nodes on [0, pi/2] that z_quadrature's trapezoidal rule doubles to
_MAX_TRAPEZOID_NODES = 2 ** 14


def borel_lateral_check(m: Q, hbar_list, j_max: int = 8) -> list[dict]:
    """Superasymptotic lateral-Borel reconstruction of Z(hbar | m).

    The exact vacuum coefficients are kept up to the optimal truncation
    n_cut, the index of the smallest term at each hbar, capped at
    max(34, ceil(|S|/hbar) + 2) with |S| the nearer saddle's action
    (ConvergenceError where |S|/hbar passes 196).  The factorially
    divergent tail is replaced sector by sector using the coefficient
    relation

        a_n ~ sum_j ((n-j-1)!/pi) (a_j^(1)/S1^(n-j) + a_j^(2)/S2^(n-j)),

    each j-term resummed in closed form through the principal-value kernel
    PV int_0^inf t^p e^(-t) dt/(1 - hbar v ...) = e^(-1/x) Ei(1/x) tails.
    The pole on the positive axis (real saddle) carries the lateral
    ambiguity +- i pi e^(-S1/hbar) sum_j a_j^(1) hbar^j, reported in
    ``imag_ambiguity``; the ghost sector is pole-free.  The sums run at 60
    digits.  ``rhs`` is compared against direct quadrature, one
    ``z_quadrature`` call for all hbar; the residual defect tracks the
    omitted sectors and shrinks exponentially as hbar decreases.
    """
    m = _rational(m)
    if not 0 < m < 1:
        raise DomainError("saddle set needs 0 < m < 1")
    hbar_list = list(hbar_list)
    if not hbar_list:
        raise DomainError("need at least one hbar")
    for hb in hbar_list:
        require_positive("hbar", hb)
    if j_max < 0:
        raise DomainError(f"need j_max >= 0, got {j_max}")
    rows = []
    # |a_n| hbar^n ~ (n-1)! (hbar/|S|)^n is smallest near n = |S|/hbar for the
    # nearer saddle, |S| = min(1/(1-m), 1/m); a few orders past it show the
    # minimum.  At least 36 orders are always kept.
    s_min = min(1 / (1 - m), 1 / m)
    depths = [float(s_min) / float(hb) for hb in hbar_list]
    if not max(depths) + 4 <= _MAX_BOREL_ORDER:
        raise ConvergenceError(
            f"the smallest term of hbar={min(hbar_list)!r} lies past order "
            f"{_MAX_BOREL_ORDER}, the deepest the Borel check keeps"
        )
    order_needed = max([34, *(math.ceil(x) + 2 for x in depths)]) + 2
    sads = lame_saddles(m, max(j_max + 2, order_needed))
    with decimal.localcontext(decimal.Context(prec=60)):
        s1, s2 = _dec(sads["real"].action), _dec(sads["imag"].action)
        a1, a2 = _sector_coeffs(sads["real"], j_max), _sector_coeffs(sads["imag"], j_max)
        vac = [_dec(c) for c in sads["vacuum"].coeffs]
        quads = z_quadrature([float(hb) for hb in hbar_list], m)
        for hb, quad in zip(hbar_list, quads):
            h = D(float(hb))
            lhs = D(quad)
            hp = [D(1)]  # hp[n] = hbar^n
            for _ in vac[1:]:
                hp.append(hp[-1] * h)
            terms = {n: abs(c) * hp[n] for n, c in enumerate(vac) if n and c}
            nc = min(min(terms, key=terms.__getitem__), order_needed - 2)
            head = sum(vac[n] * hp[n] for n in range(nc + 1))
            tail = amb = D(0)
            tails1, tails2 = _phi_tails(h / s1, nc), _phi_tails(h / s2, nc)
            for j in range(j_max + 1):
                p1 = max(nc - j, 0)
                tail += (a1[j] * tails1[p1] + a2[j] * tails2[p1]) / _PI * hp[j]
                amb += a1[j] * hp[j]
            rhs = head + tail
            ambiguity = float(abs(_PI * (-s1 / h).exp() * amb))
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
