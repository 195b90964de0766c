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

* Below the barrier the shift x -> x + pi, u -> -u exchanges the cycles:
  a0D(u) = i a0(-u), and the higher dual actions, in the same orientation,
  are a_k^D(u) = i (-1)^k a_k(-u).  The sign (-1)^k is the one the P/NP
  relation of the quantization functions needs (tests/test_actions.py).

* K and E take the parameter m = k^2, and the closed forms take them from
  one double-precision arithmetic-geometric mean, ``_ellip_KE``.
"""
from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, PoleError
from .series import PolyB, PolySeries

__all__ = [
    "action_leading",
    "action_leading_derivative",
    "action_higher",
    "wronskian_defect",
    "operator_a1",
    "operator_a2",
    "barrier_top_a0",
]

_EPS = 2.0 ** -52


def _ellip_KE(m) -> tuple[float, float]:
    """(K(m), E(m)) by one arithmetic-geometric-mean iteration, in double
    precision; m is the parameter k^2, not the modulus k.

    K diverges at m = 1; that call raises PoleError.
    """
    if not 0 <= m <= 1:
        raise DomainError(f"parameter m={m} outside [0, 1]")
    if m == 1:
        raise PoleError("K(m) diverges logarithmically at m = 1")
    m = float(m)
    a, b = 1.0, math.sqrt(1.0 - m)
    c = math.sqrt(m)
    csum = c * c / 2  # running sum of 2^(n-1) c_n^2
    pow2 = 1.0
    for _ in range(300):
        a, b, c = (a + b) / 2, math.sqrt(a * b), (a - b) / 2
        pow2 *= 2
        csum += pow2 / 2 * c * c
        if abs(c) <= _EPS * abs(a):
            break
    else:
        raise ConvergenceError("AGM failed to converge")
    K = math.pi / (2 * a)
    return K, K * (1.0 - csum)


def action_leading(u: float) -> tuple[float, complex]:
    """(a0, a0D) at energy u; u >= -1, valid below and above the barrier."""
    if not -1 <= u < math.inf:
        raise DomainError(f"need finite u >= -1, the bottom of the band spectrum; got {u!r}")
    if u <= 1:
        m = (1 + u) / 2
        # At the endpoints the diverging K is multiplied by a vanishing
        # factor; the limits are finite and taken explicitly.
        if u == 1:
            return 4 / math.pi, complex(0.0, 0.0)
        if u == -1:
            return 0.0, complex(0, 4 / math.pi)
        K, E = _ellip_KE(m)
        a0 = 4 / math.pi * (E - (1 - u) / 2 * K)
        Kd, Ed = _ellip_KE(1 - m)
        a0d = complex(0, 4 / math.pi * (Ed - (1 + u) / 2 * Kd))
        return a0, a0d
    # Above the barrier: reciprocal-parameter continuation keeps a0 real
    # and a0D purely imaginary with positive imaginary part.
    mu = 2 / (1 + u)
    K, E = _ellip_KE(mu)
    a0 = 2 * math.sqrt(2) / math.pi * math.sqrt(1 + u) * E
    md = (u - 1) / (u + 1)
    Kd, Ed = _ellip_KE(md)
    a0d = complex(0, 4 / math.pi * math.sqrt((u + 1) / 2) * (Kd - Ed))
    return a0, a0d


def action_leading_derivative(u: float) -> tuple[float, complex]:
    """(da0/du, da0D/du) from the elliptic derivative identities."""
    if not -1 < u < math.inf:
        raise DomainError(f"need finite u > -1, got {u!r}")
    if u < 1:
        # a0' = K(m)/pi; a0D = (4i/pi) g(m') with g' = K/2 and dm'/du = -1/2.
        m = (1 + u) / 2
        K, _E = _ellip_KE(m)
        Kd, _Ed = _ellip_KE(1 - m)
        return K / math.pi, complex(0, -Kd / math.pi)
    if u == 1:
        raise PoleError("da0/du diverges logarithmically at the barrier top")
    # d/du of the continued forms: da0/du = sqrt(mu) K(mu) / pi, mu = 2/(1+u).
    mu = 2 / (1 + u)
    K, _E = _ellip_KE(mu)
    da0 = math.sqrt(mu) * K / math.pi
    # Im a0D = (4/pi) sqrt((u+1)/2) (K(md) - E(md)), md = (u-1)/(u+1); with
    # d/dm (K - E) = E/(2(1-m)) and dmd/du = 2/(u+1)^2 the E terms cancel.
    Kd, _Ed = _ellip_KE((u - 1) / (u + 1))
    return da0, complex(0, math.sqrt(2) * Kd / (math.pi * math.sqrt(u + 1)))


def action_higher(u: float, n: int) -> float:
    """a_n(u) for n in {1, 2} from the closed elliptic forms, -1 < u < 1."""
    if n not in (1, 2):
        raise DomainError(
            "closed forms implemented for n = 1, 2 only; use dunham.well_action_series"
        )
    if not -1 < u < 1:
        raise PoleError(f"a{n} closed form has (1-u^2) poles; need -1 < u < 1")
    K, E = _ellip_KE((1 + u) / 2)
    if n == 1:
        return ((1 - u) * K + 2 * u * E) / (48 * math.pi * (1 - u * u))
    num = (1 - u) * (4 * u**3 + 93 * u**2 - 60 * u + 75) * K + 2 * (
        4 * u**4 - 153 * u**2 - 75
    ) * E
    return -num / (46080 * math.pi * (1 - u * u) ** 3)


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
    if not math.isfinite(u):
        raise DomainError(f"finite u required, got {u!r}")
    du = u - 1.0
    if du == 0:
        return 4 / math.pi
    return 4 / math.pi + du / (2 * math.pi) * (math.log(abs(32 / du)) + 1)
