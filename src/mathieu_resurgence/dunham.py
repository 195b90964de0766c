"""All-orders WKB cycle integrals for the cosine well, exact in rationals.

The quantum momentum obeys the Riccati recursion obtained from
psi = exp(W/hbar), W' = sum_n hbar^n w_n:

    w_0 = i p,   p^2 = 2 (u - V),
    w_n = -(sum_{k=1}^{n-1} w_k w_{n-k} + w_{n-1}') / (2 w_0).

With vt_n = w_n / i^(n+1) everything is real:

    vt_0 = p,   vt_n = (vt_{n-1}' - sum_{k=1}^{n-1} vt_k vt_{n-k}) / (2 p),

and the action coefficients are a_n = (-1)^n / (2 pi) * cycle(vt_{2n}).

Both regions run the recursion in one exact ring, whose elements are

    (P0 + r P1) p^(-j),   r^2 = f(x),   p^2 = g(x, lam),

with P0, P1 polynomials in x over Q[lam] and the derivative D = sigma r d/dx.
The ring is closed under D,

    D(P0 + r P1) = sigma (f P1' + f'/2 P1) + r sigma P0',
    D p^(-j)     = -(j sigma / 2) g_x r p^(-j-2),

so no term is ever truncated.  Odd orders are pure r parts and even orders
carry no r part; the cycle integrals only read even orders.

* well (u near -1): x = w = 2 sin(y/2) makes the shifted potential exactly
  w^2/2, so r = dw/dy = sqrt(1 - w^2/4), sigma = +1, lam = eps = u + 1 and
  p^2 = 2 eps - w^2.  The cycle integral of vt_2n dy = vt_2n dw / r expands
  1/r once per n, only to the power of w that eps_order reaches, and
  reduces to Hadamard-regularized beta integrals
  int_{-R}^{R} w^(2t) (R^2 - w^2)^(-j/2) dw, all rational multiples of
  pi * (2 eps)^k.

* high (u >> 1): x = cos y, r = sin y, sigma = -1, lam = u and
  p^2 = 2u - 2 cos y; the full-period average reduces to cosine moments
  after a binomial expansion in 1/u.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import comb, factorial, gcd, lcm

from .errors import DomainError, StructureError

__all__ = ["well_action_series", "high_action_series"]

# A polynomial in (x, lam) is a dict {key: coefficient} with
# key = (power of x) << _SHIFT | (power of lam), so products add keys.
_SHIFT = 32
_LAM = (1 << _SHIFT) - 1


def _pmul(A: dict, B: dict) -> dict:
    out: dict = {}
    get = out.get
    for ka, ca in A.items():
        for kb, cb in B.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _plin(A: dict, s, B: dict, t) -> dict:
    """s A + t B."""
    out = {k: s * c for k, c in A.items()}
    get = out.get
    for k, c in B.items():
        out[k] = get(k, 0) + t * c
    return {k: c for k, c in out.items() if c}


def _pdx(A: dict) -> dict:
    """d/dx."""
    return {k - (1 << _SHIFT): (k >> _SHIFT) * c for k, c in A.items() if k >> _SHIFT}


class _QuadRing:
    """Exact elements (P0 + r P1) p^(-j), r^2 = f(x), p^2 = g(x, lam).

    An element is a tuple (P0, P1, j, den) standing for
    (P0 + r P1) p^(-j) / den, with P0, P1 integer polynomials (see
    ``_SHIFT``) and den a positive integer, so the recursion runs on
    integers and reduces by one gcd per order.
    """

    def __init__(self, f: dict, g: dict, sigma: int):
        self.sigma = sigma
        fx, gx = _pdx(f), _pdx(g)
        half = Q(1, 2)
        # g f, g f'/2, g_x f / 2, g and g_x / 2 over one common denominator
        consts = [
            _pmul(g, f),
            _pmul(g, {k: c * half for k, c in fx.items()}),
            _pmul({k: c * half for k, c in gx.items()}, f),
            g,
            {k: c * half for k, c in gx.items()},
        ]
        self.den = lcm(*(Q(c).denominator for p in consts for c in p.values()))
        self.gf, self.gfx, self.gxf, self.g, self.gx = (
            {k: int(c * self.den) for k, c in p.items()} for p in consts
        )
        self.fden = lcm(*(Q(c).denominator for c in f.values()))
        self.f = {k: int(c * self.fden) for k, c in f.items()}
        self.p = ({0: 1}, {}, -1, 1)  # vt_0 = p = 1 * p^(+1)

    def add(self, e1, e2, s: int = 1):
        """e1 + s e2 of one power of 1/p: vt_n sits over p^-(3n-1), so every
        sum of the recursion adds equal powers."""
        if e1[2] != e2[2]:
            raise StructureError(f"power mismatch: p^(-{e1[2]}) + p^(-{e2[2]})")
        den = lcm(e1[3], e2[3])
        a, b = den // e1[3], s * den // e2[3]
        return (_plin(e1[0], a, e2[0], b), _plin(e1[1], a, e2[1], b), e1[2], den)

    def mul(self, e1, e2):
        """(A0 + r A1)(B0 + r B1) = A0 B0 + f A1 B1 + r (A0 B1 + A1 B0)."""
        (A0, A1, j1, d1), (B0, B1, j2, d2) = e1, e2
        P0 = _plin(_pmul(A0, B0), self.fden, _pmul(self.f, _pmul(A1, B1)), 1)
        P1 = _plin(_pmul(A0, B1), self.fden, _pmul(A1, B0), self.fden)
        return (P0, P1, j1 + j2, d1 * d2 * self.fden)

    def d(self, e):
        """D e, written over p^(-j-2): the r-free part is
        sigma (g f P1' + (g f'/2 - j g_x f/2) P1) and the r part
        sigma (g P0' - j g_x/2 P0)."""
        P0, P1, j, den = e
        s = self.sigma
        B = _plin(self.gfx, 1, self.gxf, -j)
        P0n = _plin(_pmul(self.gf, _pdx(P1)), s, _pmul(B, P1), s)
        P1n = _plin(_pmul(self.g, _pdx(P0)), s, _pmul(self.gx, P0), -s * j)
        return (P0n, P1n, j + 2, den * self.den)

    def div_2p(self, e):
        """e / (2 p), reduced to lowest terms."""
        P0, P1, j, den = e
        den *= 2
        q = gcd(den, *P0.values(), *P1.values())
        return (
            {k: c // q for k, c in P0.items()},
            {k: c // q for k, c in P1.items()},
            j + 1,
            den // q,
        )

    @staticmethod
    def even_part(e):
        """(P0, j, den) of an even-order term, whose r part must vanish."""
        if e[1]:
            raise StructureError("even-order WKB term has a nonzero r part")
        return e[0], e[2], e[3]


# well: x = w, r = sqrt(1 - w^2/4), p^2 = 2 eps - w^2; high: x = cos y,
# r = sin y, p^2 = 2u - 2 cos y.  Keys: w^a eps^d -> a << _SHIFT | d.
_WELL = _QuadRing({0: 1, 2 << _SHIFT: Q(-1, 4)}, {1: 2, 2 << _SHIFT: -1}, +1)
_HIGH = _QuadRing({0: 1, 2 << _SHIFT: -1}, {1: 2, 1 << _SHIFT: -2}, -1)


def _riccati(ring: _QuadRing, n_orders: int) -> list:
    """vt_0 .. vt_{n_orders} via the real Riccati recursion."""
    v = [ring.p]
    for n in range(1, n_orders + 1):
        acc = ring.d(v[n - 1])
        # the sum over k = 1..n-1 holds each product with k != n - k twice
        for k in range(1, (n + 1) // 2):
            acc = ring.add(acc, ring.mul(v[k], v[n - k]), -2)
        if n % 2 == 0:
            acc = ring.add(acc, ring.mul(v[n // 2], v[n // 2]), -1)
        v.append(ring.div_2p(acc))
    return v


def _gamma_half_ratio(k: int) -> Q:
    """Gamma(k + 1/2) / sqrt(pi) as an exact rational, any integer k:
    (2k)! / (4^k k!), and (-4)^m m! / (2m)! at k = -m < 0."""
    if k >= 0:
        return Q(factorial(2 * k), 4**k * factorial(k))
    return Q((-4) ** -k * factorial(-k), factorial(-2 * k))


def well_action_series(n_max: int, eps_order: int) -> list[list[Q]]:
    """Exact Taylor coefficients of a_n(u) in eps = u + 1, n = 0..n_max.

    Returns L with L[n][k] the coefficient of eps^k in a_n, k <= eps_order.
    """
    if n_max < 0 or eps_order < 0:
        raise DomainError(f"need n_max >= 0 and eps_order >= 0, got {n_max}, {eps_order}")
    v = _riccati(_WELL, 2 * n_max)
    out = []
    for n in range(n_max + 1):
        P, j, den = _WELL.even_part(v[2 * n])
        # integrand P / r with 1/r = sum_i C(2i, i) w^(2i) / 16^i; w^(2t)
        # reaches eps^k only for 2t <= 2 eps_order + j - 1, j odd
        top = 2 * eps_order + j
        imax = max(top // 2, 0)
        inv_r = [comb(2 * i, i) * 16 ** (imax - i) for i in range(imax + 1)]
        integrand: dict[tuple[int, int], int] = {}
        get = integrand.get
        for key, c in P.items():
            a, d = key >> _SHIFT, key & _LAM
            for i in range((top - a) // 2 + 1):
                ti = (a + 2 * i, d)
                integrand[ti] = get(ti, 0) + c * inv_r[i]
        # w^(2t) eps^d integrates to scale * weight[t] * eps^(powR + d), with
        # powR the power of R^2 = 2 eps; the regularized integral vanishes
        # unless mint > 0.  The weights share one denominator, so the sums
        # run on integers and each coefficient is one Fraction.
        weight: dict[int, Q] = {}
        for t2, _d in integrand:
            t, mint = t2 // 2, t2 // 2 + (3 - j) // 2
            if t2 % 2 == 0 and mint > 0 and t not in weight:
                powR = (2 * t + 1 - j) // 2
                weight[t] = _gamma_half_ratio(t) * Q(2) ** powR / factorial(mint - 1)
        wden = lcm(*(w.denominator for w in weight.values()))
        wnum = {t: w.numerator * (wden // w.denominator) for t, w in weight.items()}
        sums = [0] * (eps_order + 1)
        for (t2, d), cd in integrand.items():
            if t2 % 2 == 0 and t2 // 2 in wnum:
                k = (t2 + 1 - j) // 2 + d
                if 0 <= k <= eps_order:
                    sums[k] += cd * wnum[t2 // 2]
        # the 1/(2 pi) and the pi from the beta integral leave a bare 1/2
        scale = (-1) ** n * _gamma_half_ratio((1 - j) // 2) / (2 * den * 16**imax * wden)
        out.append([scale * s for s in sums])
    return out


def high_action_series(n_max: int, depth: int) -> list[dict[int, Q]]:
    """a_n(u) for u >> 1 as {h: c} meaning sum c * (2u)^(h/2), n = 0..n_max.

    ``depth`` bounds how far down in powers of 1/u the expansion goes:
    terms with h >= h_lead - 2*depth are kept.
    """
    if n_max < 0 or depth < 0:
        raise DomainError(f"need n_max >= 0 and depth >= 0, got {n_max}, {depth}")
    v = _riccati(_HIGH, 2 * n_max)
    out = []
    for n in range(n_max + 1):
        T, j, den = _HIGH.even_part(v[2 * n])
        rows: dict[int, dict[int, int]] = {}  # u-power d -> {cos-power k: coefficient}
        for key, c in T.items():
            rows.setdefault(key & _LAM, {})[key >> _SHIFT] = c
        h_lead = -j + 2 * max(rows, default=0)
        h_floor = h_lead - 2 * depth - 2
        acc: dict[int, Q] = {}
        for d, row in rows.items():
            kmax = max(row)
            # term c u^d cos^k p^(-j); expand p^(-j) = (2u)^(-j/2) (1 - cos/u)^(-j/2)
            # and average cos^(k+i) = C(k+i, (k+i)/2) / 2^(k+i) over the period
            binom = Q(1)
            for i in range((2 * d - j - h_floor) // 2 + 1):
                if i:
                    binom *= Q(-j - 2 * (i - 1), 2 * i)  # C(-j/2, i)
                mom = sum(
                    c * comb(k + i, (k + i) // 2) * 2 ** (kmax - k)
                    for k, c in row.items()
                    if (k + i) % 2 == 0
                )
                if mom:
                    h = 2 * d - 2 * i - j
                    val = mom * binom * (-1) ** (i + n) * Q(2) ** (-d - kmax) / den
                    acc[h] = acc.get(h, Q(0)) + val
        out.append({h: c for h, c in sorted(acc.items(), reverse=True) if c != 0})
    return out
