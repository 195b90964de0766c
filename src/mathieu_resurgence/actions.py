"""WKB action a(hbar, u) and dual action a^D(hbar, u) for the cosine band
problem: elliptic closed forms, region expansions, and consistency checks.

Conventions (fixed once, used everywhere):

* a0(u) = (4/pi) [E((1+u)/2) - (1-u)/2 K((1+u)/2)] for -1 <= u <= 1, and
  its smooth continuation (2 sqrt(2)/pi) sqrt(1+u) E(2/(1+u)) above the
  barrier.

* a0D(u) is stored with Im a0D >= 0 on the whole spectral line, so the
  tunneling exponent exp(-(2 pi/hbar) Im a0D) is always damped:
  a0D(u) = +(4i/pi) [E((1-u)/2) - (1+u)/2 K((1-u)/2)] below the barrier.
  With this orientation the cycle Wronskian reads
  a0D a0' - a0 a0D' = 2i/pi (the dual cycle enters the bilinear reversed).
"""
from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import NamedTuple

from . import dunham
from .errors import DomainError, PoleError
from .series import PolyB, PolySeries

__all__ = [
    "ActionValue",
    "ActionSeries",
    "action_leading",
    "action_leading_derivative",
    "action_higher",
    "action_series",
    "wronskian_defect",
    "picard_fuchs_residual",
    "operator_a1",
    "operator_a2",
    "barrier_top_a0",
]

def action_leading(u: float) -> tuple[float, complex]:
    """(a0, a0D) at energy u; u >= -1, valid below and above the barrier."""
    from .elliptic import ellip_KE

    if u < -1:
        raise DomainError("energy below the bottom of the band spectrum")
    if u <= 1:
        m = (1 + u) / 2
        # At the endpoints the diverging K is multiplied by a vanishing
        # factor; the limits are finite and taken explicitly.
        if u == 1:
            return 4 / math.pi, complex(0.0, 0.0)
        if u == -1:
            return 0.0, complex(0, 4 / math.pi)
        K, E = ellip_KE(m)
        a0 = 4 / math.pi * (E - (1 - u) / 2 * K)
        Kd, Ed = ellip_KE(1 - m)
        a0d = complex(0, 4 / math.pi * (Ed - (1 + u) / 2 * Kd))
        return a0, a0d
    # Above the barrier: reciprocal-parameter continuation keeps a0 real
    # and a0D purely imaginary with positive imaginary part.
    mu = 2 / (1 + u)
    K, E = ellip_KE(mu)
    a0 = 2 * math.sqrt(2) / math.pi * math.sqrt(1 + u) * E
    md = (u - 1) / (u + 1)
    Kd, Ed = ellip_KE(md)
    a0d = complex(0, 4 / math.pi * math.sqrt((u + 1) / 2) * (Kd - Ed))
    return a0, a0d


def action_leading_derivative(u: float) -> tuple[float, complex]:
    """(da0/du, da0D/du) from the elliptic derivative identities."""
    from .elliptic import ellip_dE_dm, ellip_dK_dm, ellip_KE

    if u <= -1:
        raise DomainError("need u > -1")
    if u < 1:
        # a0' = K(m)/pi; a0D = (4i/pi) g(m') with g' = K/2 and dm'/du = -1/2.
        m = (1 + u) / 2
        K, _E = ellip_KE(m)
        Kd, _Ed = ellip_KE(1 - m)
        return K / math.pi, complex(0, -Kd / math.pi)
    if u == 1:
        raise PoleError("da0/du diverges logarithmically at the barrier top")
    # d/du of the continued forms: da0/du = sqrt(mu) K(mu) / pi, mu = 2/(1+u).
    mu = 2 / (1 + u)
    K, _E = ellip_KE(mu)
    da0 = math.sqrt(mu) * K / math.pi
    # Im a0D = (4/pi) sqrt((u+1)/2) (K(md) - E(md)), md = (u-1)/(u+1).
    md = (u - 1) / (u + 1)
    Kd, Ed = ellip_KE(md)
    dmd = 2 / (u + 1) ** 2
    dIm = 4 / math.pi * (
        (Kd - Ed) / (2 * math.sqrt(2 * (u + 1)))
        + math.sqrt((u + 1) / 2) * (ellip_dK_dm(md) - ellip_dE_dm(md)) * dmd
    )
    return da0, complex(0, dIm)


def _a1_closed(u: float) -> float:
    from .elliptic import ellip_KE

    if not -1 < u < 1:
        raise PoleError("a1 closed form has (1-u^2) poles; need -1 < u < 1")
    m = (1 + u) / 2
    K, E = ellip_KE(m)
    return ((1 - u) * K + 2 * u * E) / (48 * math.pi * (1 - u * u))


def _a2_closed(u: float) -> float:
    from .elliptic import ellip_KE

    if not -1 < u < 1:
        raise PoleError("a2 closed form has (1-u^2) poles; need -1 < u < 1")
    m = (1 + u) / 2
    K, E = ellip_KE(m)
    num = (1 - u) * (4 * u**3 + 93 * u**2 - 60 * u + 75) * K + 2 * (
        4 * u**4 - 153 * u**2 - 75
    ) * E
    return -num / (46080 * math.pi * (1 - u * u) ** 3)


def action_higher(u: float, n: int) -> float:
    """a_n(u) for n in {1, 2} from the closed elliptic forms."""
    if n == 1:
        return _a1_closed(u)
    if n == 2:
        return _a2_closed(u)
    raise DomainError("closed forms implemented for n = 1, 2 only; use action_series")


def action_higher_dual(u: float, n: int) -> complex:
    """a_n^D(u) = i a_n(-u): the dual cycle is the u -> -u continuation."""
    if n == 0:
        return action_leading(u)[1]
    return complex(0, action_higher(-u, n))


class ActionValue(NamedTuple):
    """WKB cycle data at one energy: a = [a0, a1, ...], aD = duals."""

    u: float
    a: list[float]
    aD: list[complex]

    @property
    def n_max(self) -> int:
        return len(self.a) - 1


def action_value(u: float, n_max: int = 2) -> ActionValue:
    a0, a0d = action_leading(u)
    a = [a0] + [action_higher(u, n) for n in range(1, n_max + 1)]
    aD = [a0d] + [action_higher_dual(u, n) for n in range(1, n_max + 1)]
    return ActionValue(u=u, a=a, aD=aD)


class ActionSeries:
    """Region expansion of one WKB order.

    region "well": series in (u+1), exact rationals.
    region "high": dict h -> coeff meaning sum coeff * (2u)^(h/2).
    region "top": leading barrier-top behavior (see ``barrier_top_a0``).
    """

    def __init__(self, region: str, n: int, well: PolySeries | None = None,
                 high: dict[int, Q] | None = None):
        self.region = region
        self.n = n
        self.well = well
        self.high = {} if high is None else high

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"ActionSeries({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def eval_well(self, u: float) -> float:
        return self.well(u + 1.0)

    def eval_high(self, u: float) -> float:
        return sum(float(c) * (2 * u) ** (h / 2) for h, c in self.high.items())


def action_series(region: str, n: int, order: int) -> ActionSeries:
    """Exact region expansion of a_n; ``order`` counts kept terms."""
    if n < 0 or order < 0:
        raise DomainError(f"WKB order n >= 0 and order >= 0 required, got n={n}, order={order}")
    if region == "well":
        coeffs = dunham.well_actions(n, order)[n]
        ser = PolySeries("u+1", order, [PolyB.const(c) for c in coeffs])
        return ActionSeries(region="well", n=n, well=ser)
    if region == "high":
        table = dunham.high_actions(n, order)[n]
        return ActionSeries(region="high", n=n, high=table)
    raise DomainError(f"unsupported region {region!r}")


def wronskian_defect(u: float) -> complex:
    """a0D a0' - a0 a0D' - 2i/pi, which vanishes by the Legendre relation.

    Note the orientation: with Im a0D >= 0 (this module's convention) the
    dual cycle enters the Wronskian bilinear with reversed sign relative
    to the ordering a0 a0D' - a0D a0'.
    """
    if not -1 < u < 1:
        raise DomainError("Wronskian check needs -1 < u < 1")
    a0, a0d = action_leading(u)
    da0, da0d = action_leading_derivative(u)
    return a0d * da0 - a0 * da0d - complex(0, 2 / math.pi)


def picard_fuchs_residual(u: float, h: float = 1e-4, dual: bool = False,
                          dps: int = 30) -> float:
    """Finite-difference residual of y'' = y / (4 (1 - u^2)).

    Second differences at h = 1e-4 sit below the double-precision noise
    floor, so the three evaluations run on the extended-precision tier.
    """
    if not -1 < u < 1:
        raise DomainError("need -1 < u < 1")
    import mpmath

    from .elliptic import ellip_KE

    with mpmath.workdps(dps):
        uu, hh = mpmath.mpf(u), mpmath.mpf(h)

        def y(x):
            m = (1 + x) / 2
            K, E = ellip_KE(m, dps=dps)
            Kd, Ed = ellip_KE(1 - m, dps=dps)
            if dual:
                return 4 / mpmath.pi * (Ed - (1 + x) / 2 * Kd)
            return 4 / mpmath.pi * (E - (1 - x) / 2 * K)

        # Fourth-order stencil: the (1-u^2)^-3 growth of y'''' near the edges
        # would otherwise dominate the residual at h = 1e-4.
        second = (
            -y(uu + 2 * hh) + 16 * y(uu + hh) - 30 * y(uu)
            + 16 * y(uu - hh) - y(uu - 2 * hh)
        ) / (12 * hh * hh)
        return float(second - y(uu) / (4 * (1 - uu * uu)))


def _poly_diff(series: PolySeries, k: int) -> PolySeries:
    out = series
    for _ in range(k):
        out = out.derivative_var()
    return out


def operator_a1(a0_well: PolySeries) -> PolySeries:
    """(1/48) (2u d^2/du^2 + d/du) applied to a well-region a0 series.

    The series variable is v = u + 1, so u = v - 1 and d/du = d/dv.
    """
    d1 = _poly_diff(a0_well, 1)
    d2 = _poly_diff(a0_well, 2)
    n = d2.order
    two_u = PolySeries(d2.var, n, [PolyB.const(-2), PolyB.const(2)])  # 2(v-1)
    return (two_u * d2 + d1.truncate(n)) / 48


def operator_a2(a0_well: PolySeries) -> PolySeries:
    """(1/(2^9 * 45)) (28 u^2 d^4 + 120 u d^3 + 75 d^2) on a well a0 series."""
    d2 = _poly_diff(a0_well, 2)
    d3 = _poly_diff(a0_well, 3)
    d4 = _poly_diff(a0_well, 4)
    n = d4.order
    u_pol = PolySeries(d4.var, n, [PolyB.const(-1), PolyB.const(1)])
    u2_pol = u_pol * u_pol
    out = u2_pol * d4 * 28 + u_pol * d3.truncate(n) * 120 + d2.truncate(n) * 75
    return out / (512 * 45)


def barrier_top_a0(u: float) -> float:
    """Leading barrier-top behavior 4/pi + (u-1)/(2 pi) [ln(32/(u-1)) + 1].

    Valid for u slightly above 1; for u slightly below use |u-1| with the
    same logarithm (the printed leading form).
    """
    du = u - 1.0
    if du == 0:
        return 4 / math.pi
    return 4 / math.pi + du / (2 * math.pi) * (math.log(abs(32 / du)) + 1)
