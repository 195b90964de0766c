"""All-orders WKB cycle integrals for the cosine well, exact in rationals.

The quantum momentum obeys the Riccati recursion obtained from
psi = exp(W/hbar), W' = sum_n hbar^n w_n:

    w_0 = i p,   p^2 = 2 (u - V),
    w_n = -(sum_{k=1}^{n-1} w_k w_{n-k} + w_{n-1}') / (2 w_0).

With vt_n = w_n / i^(n+1) everything is real:

    vt_0 = p,   vt_n = (vt_{n-1}' - sum_{k=1}^{n-1} vt_k vt_{n-k}) / (2 p),

and the action coefficients are a_n = (-1)^n / (2 pi) * cycle(vt_{2n}).

Two regions are evaluated with the same recursion but different exact
representations:

* well (u near -1): canonical coordinate w = 2 sin(y/2) makes the shifted
  potential exactly w^2/2, so p^2 = 2 eps - w^2 with eps = u + 1, and the
  cycle integrals reduce to Hadamard-regularized beta integrals
  int_{-R}^{R} w^(2t) (R^2 - w^2)^(-j/2) dw, all rational multiples of
  pi * (2 eps)^k.

* high (u >> 1): everything is a trig polynomial over p^2 = 2u - 2 cos x,
  and the full-period average reduces to cosine moments after a binomial
  expansion in 1/u.
"""
from __future__ import annotations

from fractions import Fraction as Q

from .errors import StructureError
from .series import PolyB, PolySeries

__all__ = ["well_action_series", "high_action_series"]


def _gamma_half_ratio(k: int) -> Q:
    """Gamma(k + 1/2) / sqrt(pi) as an exact rational, any integer k."""
    q = Q(1)
    if k >= 0:
        for i in range(k):
            q *= Q(2 * i + 1, 2)
    else:
        for i in range(1, -k + 1):
            # Gamma(x) = Gamma(x+1)/x with x = 1/2 - i
            q /= Q(1 - 2 * i, 2)
    return q


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _binom_q(alpha: Q, i: int) -> Q:
    """Generalized binomial coefficient C(alpha, i) over the rationals."""
    num = Q(1)
    for t in range(i):
        num *= (alpha - t)
    return num / _factorial(i)


# ---------------------------------------------------------------------------
# Well region
# ---------------------------------------------------------------------------

class _WellRing:
    """Elements P(w, eps) * p^(-j) with P a w-series over Q[eps]."""

    def __init__(self, wmax: int):
        self.wmax = wmax
        self.p2 = PolySeries("w", wmax, [PolyB((0, 2)), PolyB(), PolyB.const(-1)])
        # dw/dy = sqrt(1 - w^2/4) and its reciprocal, truncated.
        x2 = PolySeries("w", wmax, [PolyB(), PolyB(), PolyB.const(Q(-1, 4))])
        self.c = self._binom_series(x2, Q(1, 2))
        self.invc = self._binom_series(x2, Q(-1, 2))

    @staticmethod
    def _binom_series(x: PolySeries, alpha: Q) -> PolySeries:
        out = PolySeries.const(x.var, x.order, 1)
        term = PolySeries.const(x.var, x.order, 1)
        k = 0
        while True:
            k += 1
            if 2 * k > x.order:
                break
            term = term * x * (Q(alpha - (k - 1)) / k)
            out = out + term
        return out

    def align(self, e1, e2):
        (P1, j1), (P2, j2) = e1, e2
        j = max(j1, j2)
        if (j - j1) % 2 or (j - j2) % 2:
            raise StructureError("p-parity mismatch in well ring")
        if j > j1:
            P1 = P1 * self.p2 ** ((j - j1) // 2)
        if j > j2:
            P2 = P2 * self.p2 ** ((j - j2) // 2)
        return (P1, P2, j)

    def add(self, e1, e2):
        P1, P2, j = self.align(e1, e2)
        return (P1 + P2, j)

    def sub(self, e1, e2):
        P1, P2, j = self.align(e1, e2)
        return (P1 - P2, j)

    def mul(self, e1, e2):
        return (e1[0] * e2[0], e1[1] + e2[1])

    def div_2p(self, e):
        return (e[0] / 2, e[1] + 1)

    def d_dy(self, e):
        """d/dy = c(w) d/dw on P p^(-j)."""
        P, j = e
        t1 = (P.derivative_var().extend_zero(self.wmax) * self.c, j)
        t2 = (P * self.c * PolySeries("w", self.wmax, [PolyB(), PolyB.const(j)]), j + 2)
        return self.add(t1, t2)


def _riccati(ring, v0, n_orders: int):
    """vt_0 .. vt_{n_orders} via the real Riccati recursion."""
    v = [v0]
    for n in range(1, n_orders + 1):
        acc = ring.d_dy(v[n - 1])
        for k in range(1, n):
            acc = ring.sub(acc, ring.mul(v[k], v[n - k]))
        v.append(ring.div_2p(acc))
    return v


def well_action_series(n_max: int, eps_order: int) -> list[list[Q]]:
    """Exact Taylor coefficients of a_n(u) in eps = u + 1, n = 0..n_max.

    Returns L with L[n][k] the coefficient of eps^k in a_n, k <= eps_order.
    """
    wmax = 2 * eps_order + 6 * n_max + 6
    ring = _WellRing(wmax)
    v = _riccati(ring, (PolySeries.const("w", wmax, 1), -1), 2 * n_max)

    out = []
    for n in range(n_max + 1):
        P, j = v[2 * n]
        integrand = P * ring.invc
        coeffs = [Q(0)] * (eps_order + 1)
        for t2 in range(0, integrand.order + 1):
            if t2 % 2:
                continue
            t = t2 // 2
            mint = t + (3 - j) // 2
            if mint <= 0:
                continue  # regularized integral vanishes
            powR = (2 * t + 1 - j) // 2  # power of R^2 = 2 eps
            base = _gamma_half_ratio(t) * _gamma_half_ratio((1 - j) // 2) / _factorial(mint - 1)
            poly = integrand.c[t2]
            for d, cd in enumerate(poly.c):
                if cd == 0:
                    continue
                k = powR + d
                if 0 <= k <= eps_order:
                    # (2 eps)^powR * eps^d; the 1/(2 pi) and the pi from the
                    # beta integral leave a bare 1/2.
                    coeffs[k] += (-1) ** n * cd * base * Q(2) ** powR / 2
        out.append(coeffs)
    return out


# ---------------------------------------------------------------------------
# High region
# ---------------------------------------------------------------------------

class _TrigPoly:
    """c-polynomial plus s * (c-polynomial), coefficients in Q[u]."""

    __slots__ = ("ce", "se")

    def __init__(self, ce=(), se=()):
        self.ce = self._trim([p if isinstance(p, PolyB) else PolyB.const(p) for p in ce])
        self.se = self._trim([p if isinstance(p, PolyB) else PolyB.const(p) for p in se])

    @staticmethod
    def _trim(ls):
        while ls and ls[-1].is_zero():
            ls.pop()
        return ls

    @staticmethod
    def _padd(a, b):
        n = max(len(a), len(b))
        return [
            (a[i] if i < len(a) else PolyB()) + (b[i] if i < len(b) else PolyB())
            for i in range(n)
        ]

    @staticmethod
    def _pmul(a, b):
        if not a or not b:
            return []
        out = [PolyB() for _ in range(len(a) + len(b) - 1)]
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for k, y in enumerate(b):
                if not y.is_zero():
                    out[i + k] = out[i + k] + x * y
        return out

    def __add__(self, other):
        return _TrigPoly(self._padd(self.ce, other.ce), self._padd(self.se, other.se))

    def __sub__(self, other):
        neg = _TrigPoly([-p for p in other.ce], [-p for p in other.se])
        return self + neg

    def __mul__(self, other):
        # (A + sB)(C + sD) = AC + (1-c^2) BD + s(AD + BC)
        ac = self._pmul(self.ce, other.ce)
        bd = self._pmul(self.se, other.se)
        one_c2 = self._padd(self._pmul([PolyB.const(1), PolyB(), PolyB.const(-1)], bd), [])
        ce = self._padd(ac, one_c2)
        se = self._padd(self._pmul(self.ce, other.se), self._pmul(self.se, other.ce))
        return _TrigPoly(ce, se)

    def scale(self, q: Q):
        return _TrigPoly([p * q for p in self.ce], [p * q for p in self.se])

    def d_dx(self):
        """(c^k)' = -k c^(k-1) s ; (c^k s)' = (k+1) c^(k+1) - k c^(k-1)."""
        se = [PolyB() for _ in range(max(len(self.ce) - 1, 0))]
        for k in range(1, len(self.ce)):
            se[k - 1] = se[k - 1] - self.ce[k] * k
        ce = [PolyB() for _ in range(len(self.se) + 1)]
        for k, p in enumerate(self.se):
            ce_len = max(len(ce), k + 2)
            while len(ce) < ce_len:
                ce.append(PolyB())
            ce[k + 1] = ce[k + 1] + p * (k + 1)
            if k >= 1:
                ce[k - 1] = ce[k - 1] - p * k
        return _TrigPoly(ce, se)


class _HighRing:
    """Elements T(x, u) * p^(-j) with T a trig polynomial, p^2 = 2u - 2 cos x."""

    def __init__(self):
        self.p2 = _TrigPoly([PolyB((0, 2)), PolyB.const(-2)])

    def align(self, e1, e2):
        (T1, j1), (T2, j2) = e1, e2
        j = max(j1, j2)
        if (j - j1) % 2 or (j - j2) % 2:
            raise StructureError("p-parity mismatch in high ring")
        for _ in range((j - j1) // 2):
            T1 = T1 * self.p2
        for _ in range((j - j2) // 2):
            T2 = T2 * self.p2
        return (T1, T2, j)

    def add(self, e1, e2):
        T1, T2, j = self.align(e1, e2)
        return (T1 + T2, j)

    def sub(self, e1, e2):
        T1, T2, j = self.align(e1, e2)
        return (T1 - T2, j)

    def mul(self, e1, e2):
        return (e1[0] * e2[0], e1[1] + e2[1])

    def div_2p(self, e):
        return (e[0].scale(Q(1, 2)), e[1] + 1)

    def d_dy(self, e):
        """d/dx of T p^(-j); p' = sin x / p."""
        T, j = e
        t1 = (T.d_dx(), j)
        t2 = (_TrigPoly([], [PolyB.const(-j)]) * T, j + 2)
        return self.add(t1, t2)


def _cos_moment(t: int) -> Q:
    """(1/2pi) integral of cos^t over a period."""
    if t % 2:
        return Q(0)
    return Q(_factorial(t), _factorial(t // 2) ** 2 * 2 ** t)


def high_action_series(n_max: int, depth: int) -> list[dict[int, Q]]:
    """a_n(u) for u >> 1 as {h: c} meaning sum c * (2u)^(h/2), n = 0..n_max.

    ``depth`` bounds how far down in powers of 1/u the expansion goes:
    terms with h >= h_lead - 2*depth are kept.
    """
    ring = _HighRing()
    v = _riccati(ring, (_TrigPoly([PolyB.const(1)]), -1), 2 * n_max)

    out = []
    for n in range(n_max + 1):
        T, j = v[2 * n]
        acc: dict[int, Q] = {}
        h_lead = -j + 2 * max(
            (d for p in T.ce for d, cd in enumerate(p.c) if cd != 0), default=0
        )
        h_floor = h_lead - 2 * depth - 2
        for k, p in enumerate(T.ce):
            for d, cd in enumerate(p.c):
                if cd == 0:
                    continue
                # term cd * u^d * c^k * p^(-j); expand p^(-j) in cos/u.
                i = 0
                while True:
                    h = 2 * d - 2 * i - j
                    if h < h_floor:
                        break
                    mom = _cos_moment(k + i)
                    if mom:
                        val = (
                            cd
                            * _binom_q(Q(-j, 2), i)
                            * (-1) ** i
                            * mom
                            * Q(2) ** (i - d)
                            * (-1) ** n
                        )
                        acc[h] = acc.get(h, Q(0)) + val
                    i += 1
        out.append({h: c for h, c in sorted(acc.items(), reverse=True) if c != 0})
    return out
