"""Exact-rational formal algebra: polynomials in B and truncated
one-variable series with polynomial coefficients.  ``TransSeries``, a
finite trans-series container, has no reader in the package; the benchmark
tracer wraps its methods by name.

Every coefficient is an exact rational; no floating point enters any
arithmetic path.  ``PolyB`` keeps its coefficients fraction-free, as
integer numerators over one common denominator, so that a ring operation
pays one gcd per result rather than one per coefficient operation; at its
surface (``c``, ``[k]``, ``const_value``, evaluation at a rational) every
coefficient is a ``fractions.Fraction``.  ``PolySeries``, ``horner`` and
``newton_solve`` are generic over the coefficient ring.  Binary operations
truncate to the minimum order of their operands, so precision loss is
always explicit.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Union

from .errors import ConvergenceError, StructureError, TruncationError

Q = Fraction
QLike = Union[int, Fraction]

__all__ = [
    "Q",
    "PolyB",
    "PolySeries",
    "TransSeries",
    "horner",
    "newton_solve",
]


def _as_q(x: QLike) -> Q:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Q(x)
    raise TypeError(f"exact coefficient expected, got {type(x).__name__}")


class PolyB:
    """Polynomial in the band variable B = N + 1/2 over the rationals.

    Stored as integer numerators ``n`` over one denominator ``d > 0`` in
    lowest terms (gcd(d, *n) == 1), with trailing zeros trimmed, so the
    representation is unique and ``degree`` is well defined (-1 for the
    zero polynomial, n = () over d = 1).  ``c`` and ``[k]`` read the
    coefficients as Fractions.
    """

    __slots__ = ("n", "d")

    def __init__(self, coeffs: Iterable[QLike] = ()):
        c = [_as_q(x) for x in coeffs]
        d = lcm(*(x.denominator for x in c))
        p = PolyB._from([x.numerator * (d // x.denominator) for x in c], d)
        self.n: tuple[int, ...] = p.n
        self.d: int = p.d

    @staticmethod
    def _from(n: list[int], d: int) -> "PolyB":
        """The PolyB n/d (d > 0), trimmed and reduced by one gcd."""
        while n and not n[-1]:
            n.pop()
        g = gcd(d, *n)
        if g != 1:
            n = [x // g for x in n]
            d //= g
        p = object.__new__(PolyB)
        p.n, p.d = tuple(n), d
        return p

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, x: QLike) -> "PolyB":
        x = _as_q(x)
        return PolyB._from([x.numerator], x.denominator)

    # -- structure ----------------------------------------------------
    @property
    def c(self) -> tuple[Q, ...]:
        return tuple(Q(x, self.d) for x in self.n)

    @property
    def degree(self) -> int:
        return len(self.n) - 1

    def is_zero(self) -> bool:
        return not self.n

    def is_const(self) -> bool:
        return len(self.n) <= 1

    def const_value(self) -> Q:
        if not self.is_const():
            raise StructureError(f"polynomial {self} is not constant")
        return self[0]

    def __getitem__(self, k: int) -> Q:
        return Q(self.n[k], self.d) if 0 <= k < len(self.n) else Q(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyB):
            return self.n == other.n and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.n == ((other.numerator,) if other else ()) and self.d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its Fraction, so it hashes like one
        return hash(self[0]) if len(self.n) <= 1 else hash((self.n, self.d))

    def __bool__(self) -> bool:
        return bool(self.n)

    # -- arithmetic ---------------------------------------------------
    def _plus(self, other: "PolyB | QLike", sign: int) -> "PolyB":
        """self + sign * other over the lcm of the two denominators."""
        o = other if isinstance(other, PolyB) else PolyB.const(other)
        if not o.n:
            return self
        if not self.n:
            return o if sign > 0 else -o
        g = gcd(self.d, o.d)
        fa, fb = o.d // g, sign * (self.d // g)
        n = [x * fa for x in self.n]
        n += [0] * (len(o.n) - len(n))
        for k, y in enumerate(o.n):
            n[k] += y * fb
        return PolyB._from(n, self.d * fa)

    def __add__(self, other: "PolyB | QLike") -> "PolyB":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "PolyB":
        return PolyB._from([-x for x in self.n], self.d)

    def __sub__(self, other: "PolyB | QLike") -> "PolyB":
        return self._plus(other, -1)

    def __rsub__(self, other: QLike) -> "PolyB":
        return PolyB.const(other) - self

    def __mul__(self, other: "PolyB | QLike") -> "PolyB":
        if isinstance(other, (int, Fraction)):
            q = _as_q(other)
            return PolyB._from([x * q.numerator for x in self.n], self.d * q.denominator)
        if not isinstance(other, PolyB):
            return NotImplemented
        a, b = self.n, other.n
        if not (a and b):
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return PolyB._from(out, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other: QLike) -> "PolyB":
        q = _as_q(other)
        if not q:
            raise ZeroDivisionError("PolyB division by zero")
        s = q.denominator if q > 0 else -q.denominator
        return PolyB._from([x * s for x in self.n], self.d * abs(q.numerator))

    def __pow__(self, n: int) -> "PolyB":
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base = PolyB.const(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "PolyB":
        return PolyB._from([k * self.n[k] for k in range(1, len(self.n))], self.d)

    def __call__(self, x):
        """Evaluate at x.  A rational x gives the exact Fraction, by Horner
        over the integer numerators; any other x (float, mpf, a ring
        element) takes Horner over the Fraction coefficients, so a PolyB x
        gives the composition p(x(B))."""
        if not isinstance(x, (int, Fraction)):
            return horner(self.c, x)
        if not self.n:
            return Q(0)
        x = _as_q(x)
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1  # ends as d q^deg p(x), with qk = q^(deg+1)
        for a in reversed(self.n):
            acc = acc * p + a * qk
            qk *= q
        return Q(acc, self.d * (qk // q))

    def __repr__(self) -> str:
        if not self.n:
            return "PolyB(0)"
        terms = []
        for k, a in enumerate(self.c):
            if a == 0:
                continue
            if k == 0:
                terms.append(str(a))
            elif k == 1:
                terms.append(f"{a}*B")
            else:
                terms.append(f"{a}*B^{k}")
        return "PolyB(" + " + ".join(terms) + ")"


_ZERO = PolyB()
_ONE = PolyB.const(1)


class PolySeries:
    """Truncated power series in one small variable with PolyB coefficients.

    ``var`` is a bookkeeping tag ("hbar", "u+1", "1/u2", ...); operations on
    series with different tags are refused.  Arithmetic truncates to the
    minimum truncation order of the operands.
    """

    __slots__ = ("var", "order", "c")

    def __init__(self, var: str, order: int, coeffs: Iterable[PolyB | QLike] = ()):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cl = [x if isinstance(x, PolyB) else PolyB.const(x) for x in coeffs]
        if len(cl) > order + 1:
            raise ValueError("more coefficients than truncation order allows")
        cl += [_ZERO] * (order + 1 - len(cl))
        self.var = var
        self.order = order
        self.c: tuple[PolyB, ...] = tuple(cl)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, var: str, order: int) -> "PolySeries":
        return cls(var, order)

    @classmethod
    def const(cls, var: str, order: int, x: PolyB | QLike) -> "PolySeries":
        return cls(var, order, (x,))

    # -- structure ----------------------------------------------------
    def __getitem__(self, n: int) -> PolyB:
        if n < 0:
            return _ZERO
        if n > self.order:
            raise TruncationError(
                f"order {n} beyond stored truncation {self.order} for {self.var}-series"
            )
        return self.c[n]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolySeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and self.c == other.c
        )

    def __hash__(self) -> int:
        return hash((self.var, self.order, self.c))

    def _check_var(self, other: "PolySeries") -> None:
        if self.var != other.var:
            raise StructureError(
                f"variable tag mismatch: {self.var!r} vs {other.var!r}"
            )

    def truncate(self, order: int) -> "PolySeries":
        order = min(order, self.order)
        return PolySeries(self.var, order, self.c[: order + 1])

    def extend_zero(self, order: int) -> "PolySeries":
        """Pad with explicit zero coefficients up to ``order`` (use only when
        the higher coefficients are known to vanish identically)."""
        if order <= self.order:
            return self.truncate(order)
        return PolySeries(self.var, order, self.c)

    def map_coeffs(self, f: Callable[[PolyB], PolyB]) -> "PolySeries":
        return PolySeries(self.var, self.order, (f(p) for p in self.c))

    def coeffs_in_B(self) -> list["PolySeries"]:
        """sum_n var^n p_n(B) regrouped as sum_k B^k f_k(var), returning the
        f_k; ``horner(s.coeffs_in_B(), g)`` substitutes the series g for B."""
        deg = max(p.degree for p in self.c)
        return [PolySeries(self.var, self.order, (p[k] for p in self.c)) for k in range(deg + 1)]

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "PolySeries | PolyB | QLike") -> "PolySeries":
        if not isinstance(other, PolySeries):
            other = PolySeries.const(self.var, self.order, other)
        self._check_var(other)
        n = min(self.order, other.order)
        return PolySeries(self.var, n, (self.c[k] + other.c[k] for k in range(n + 1)))

    __radd__ = __add__

    def __neg__(self) -> "PolySeries":
        return PolySeries(self.var, self.order, (-p for p in self.c))

    def __sub__(self, other) -> "PolySeries":
        if not isinstance(other, PolySeries):
            other = PolySeries.const(self.var, self.order, other)
        return self + (-other)

    def __rsub__(self, other) -> "PolySeries":
        return (-self) + other

    def __mul__(self, other: "PolySeries | PolyB | QLike") -> "PolySeries":
        if isinstance(other, (int, Fraction, PolyB)):
            o = other if isinstance(other, PolyB) else PolyB.const(other)
            return PolySeries(self.var, self.order, (p * o for p in self.c))
        self._check_var(other)
        n = min(self.order, other.order)
        out = [_ZERO] * (n + 1)
        for i in range(min(len(self.c), n + 1)):
            a = self.c[i]
            if a.is_zero():
                continue
            for j in range(min(len(other.c), n + 1 - i)):
                b = other.c[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PolySeries(self.var, n, out)

    __rmul__ = __mul__

    def __truediv__(self, other: QLike) -> "PolySeries":
        q = _as_q(other)
        return PolySeries(self.var, self.order, (p / q for p in self.c))

    def __pow__(self, n: int) -> "PolySeries":
        if n < 0:
            raise ValueError("negative series power; use inverse() first")
        out = PolySeries.const(self.var, self.order, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "PolySeries":
        """Multiplicative inverse; constant term must be a nonzero rational."""
        a0 = self.c[0].const_value()
        if a0 == 0:
            raise StructureError("series has zero constant term, not invertible")
        out = [PolyB.const(1 / a0)]
        for n in range(1, self.order + 1):
            s = _ZERO
            for k in range(1, n + 1):
                s = s + self.c[k] * out[n - k] if k < len(self.c) else s
            out.append(s * Q(-1, 1) / a0)
        return PolySeries(self.var, self.order, out)

    def derivative_var(self) -> "PolySeries":
        """d/d(var); output truncation drops by one order."""
        if self.order == 0:
            return PolySeries.zero(self.var, 0)
        return PolySeries(
            self.var, self.order - 1, (self.c[k] * k for k in range(1, self.order + 1))
        )

    def derivative_B(self) -> "PolySeries":
        """Coefficient-wise d/dB."""
        return self.map_coeffs(lambda p: p.derivative())

    def exp(self) -> "PolySeries":
        """exp(series); constant term must vanish."""
        if not self.c[0].is_zero():
            raise StructureError("series_exp requires zero constant term")
        out = [_ONE]
        # e' = f' e  =>  (n+1) e_{n+1} = sum_{k} (k+1) f_{k+1} e_{n-k}
        for n in range(self.order):
            s = _ZERO
            for k in range(n + 1):
                fk = self.c[k + 1] * (k + 1)
                if not fk.is_zero():
                    s = s + fk * out[n - k]
            out.append(s / Q(n + 1))
        return PolySeries(self.var, self.order, out)

    def eval_at_B(self, b: QLike) -> "PolySeries":
        """Substitute a rational value for B in every coefficient."""
        q = _as_q(b)
        return self.map_coeffs(lambda p: PolyB.const(p(q)))

    def __call__(self, x, b=None):
        """Numerical evaluation at var=x (and optionally B=b)."""
        return horner([p(b) if b is not None else p.const_value() for p in self.c], x)

    def __repr__(self) -> str:
        terms = [f"({p!r})*{self.var}^{k}" for k, p in enumerate(self.c) if not p.is_zero()]
        body = " + ".join(terms) if terms else "0"
        return f"PolySeries[{self.var}; O({self.var}^{self.order + 1})]({body})"


def horner(coeffs, x):
    """sum_k coeffs[k] * x**k by Horner's rule.

    The coefficients may be rationals, PolyB or PolySeries, and x anything
    they combine with; ``x * 0`` supplies the zero of x's ring, so a series
    argument keeps its own truncation order.
    """
    out = x * 0
    for a in reversed(coeffs):
        out = out * x + a
    return out


def newton_solve(
    coeffs,
    target: PolySeries,
    v0: PolyB | QLike,
    progress: Callable[[float], None] | None = None,
) -> PolySeries:
    """The series v with constant term v0 and horner(coeffs, v) == target.

    Newton doubling (Brent & Kung, J. ACM 1978): if v is right modulo
    var^k, one step v <- v - (horner(C, v) - target) / horner(C', v) makes
    it right modulo var^(2k).  The derivative series only needs half the
    working precision.  ``progress`` receives the fraction of the target
    order reached after each step.  The result is checked exactly against
    ``target`` at full order, so a wrong v0 raises ConvergenceError rather
    than returning a series that does not solve the equation.  A derivative
    whose constant term is zero or not a rational constant raises
    StructureError.
    """
    deriv = [a * k for k, a in enumerate(coeffs) if k]
    order = target.order
    v = PolySeries(target.var, 0, (v0,))
    prec = 1  # v is right modulo var^prec
    while prec <= order:
        new = min(2 * prec, order + 1)
        v = v.extend_zero(new - 1)
        slope = horner(deriv, v.truncate(new - prec - 1)).inverse()
        resid = horner(coeffs, v) - target.truncate(new - 1)
        v = v - resid * slope.extend_zero(new - 1)
        prec = new
        if progress is not None:
            progress(prec / (order + 1))
    if horner(coeffs, v) != target:
        raise ConvergenceError("series equation has no solution with the given constant term")
    return v


class TransSeries:
    """Finite trans-series: sum over sectors (k, l) of

        sigma^k * (ln[-1/hbar])^l * hbar^shift(k,l) * PolySeries(hbar)

    with trans-monomial sigma = hbar^-(N+1/2) exp(-S/hbar).  The log branch
    ln(-1/hbar) = ln(1/hbar) -+ i pi is kept symbolic; ``branch`` records the
    lateral continuation (+1 or -1) and is never expanded to a float here.
    """

    __slots__ = ("action", "sectors", "shifts", "branch")

    def __init__(
        self,
        action: QLike,
        sectors: Mapping[tuple[int, int], PolySeries],
        shifts: Mapping[tuple[int, int], int] | None = None,
        branch: int = +1,
    ):
        if branch not in (+1, -1):
            raise ValueError("branch must be +1 or -1")
        self.action = _as_q(action)
        sec = {}
        shf = {}
        for (k, l), s in sectors.items():
            if k < 0 or l < 0:
                raise StructureError("sector indices must be non-negative")
            if l > max(k - 1, 0):
                raise StructureError(
                    f"log power l={l} exceeds max(k-1,0) in sector k={k}"
                )
            if s.is_zero():
                continue
            sec[(k, l)] = s
            shf[(k, l)] = (shifts or {}).get((k, l), 0)
        self.sectors = dict(sorted(sec.items()))
        self.shifts = {key: shf[key] for key in self.sectors}
        self.branch = branch

    def sector(self, k: int, l: int = 0) -> PolySeries | None:
        return self.sectors.get((k, l))

    @property
    def perturbative(self) -> PolySeries | None:
        return self.sector(0, 0)

    def _check_compat(self, other: "TransSeries") -> None:
        if self.action != other.action or self.branch != other.branch:
            raise StructureError("trans-series action/branch mismatch")

    def __add__(self, other: "TransSeries") -> "TransSeries":
        self._check_compat(other)
        keys = set(self.sectors) | set(other.sectors)
        sec, shf = {}, {}
        for key in keys:
            a, b = self.sectors.get(key), other.sectors.get(key)
            if a is not None and b is not None:
                if self.shifts[key] != other.shifts[key]:
                    raise StructureError("incompatible hbar shifts in sector sum")
                sec[key], shf[key] = a + b, self.shifts[key]
            elif a is not None:
                sec[key], shf[key] = a, self.shifts[key]
            else:
                sec[key], shf[key] = b, other.shifts[key]
        return TransSeries(self.action, sec, shf, self.branch)

    def __mul__(self, other: "TransSeries | PolySeries | PolyB | QLike") -> "TransSeries":
        if isinstance(other, (int, Fraction, PolyB, PolySeries)):
            sec = {key: s * other for key, s in self.sectors.items()}
            return TransSeries(self.action, sec, self.shifts, self.branch)
        self._check_compat(other)
        sec: dict[tuple[int, int], PolySeries] = {}
        shf: dict[tuple[int, int], int] = {}
        for (k1, l1), s1 in self.sectors.items():
            for (k2, l2), s2 in other.sectors.items():
                key = (k1 + k2, l1 + l2)
                shift = self.shifts[(k1, l1)] + other.shifts[(k2, l2)]
                prod = s1 * s2
                if key in sec:
                    if shf[key] != shift:
                        raise StructureError("incompatible hbar shifts in sector product")
                    sec[key] = sec[key] + prod
                else:
                    sec[key], shf[key] = prod, shift
        return TransSeries(self.action, sec, shf, self.branch)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransSeries):
            return NotImplemented
        return (
            self.action == other.action
            and self.branch == other.branch
            and self.sectors == other.sectors
            and self.shifts == other.shifts
        )
