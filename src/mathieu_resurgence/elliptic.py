"""Complete elliptic integrals in double precision.

Convention: everywhere the *parameter* m = k^2, matching the (1 +- u)/2
arguments used throughout the action formulas.  Mixing up m and k is the
classic bug, so: ``ellip_K(m)`` is K(k) with k = sqrt(m).

Every value is a float from one arithmetic-geometric-mean iteration; the
callers that need more digits take ``mpmath.ellipk``/``ellipe`` instead.
"""
from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "ellip_K",
    "ellip_E",
    "ellip_KE",
    "ellip_dK_dm",
    "ellip_dE_dm",
    "legendre_defect",
    "ellip_K_series",
    "ellip_E_series",
]

_EPS = 2.0 ** -52


def _check_m(m, lo_open: bool = False, hi_open: bool = False) -> None:
    if not 0 <= m <= 1:
        raise DomainError(f"parameter m={m} outside [0, 1]")
    if lo_open and m == 0:
        raise DomainError("m = 0 endpoint excluded here")
    if hi_open and m == 1:
        raise DomainError("m = 1 endpoint excluded here")


def ellip_KE(m) -> tuple[float, float]:
    """(K(m), E(m)) by one arithmetic-geometric-mean iteration.

    K diverges at m = 1; that call raises PoleError.  E(1) = 1 exactly.
    """
    _check_m(m)
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


def ellip_K(m) -> float:
    return ellip_KE(m)[0]


def ellip_E(m) -> float:
    if m == 1:
        return 1.0
    return ellip_KE(m)[1]


def ellip_dK_dm(m) -> float:
    """dK/dm = (E - (1-m) K) / (2 m (1-m)), 0 < m < 1."""
    _check_m(m, lo_open=True, hi_open=True)
    m = float(m)
    K, E = ellip_KE(m)
    return (E - (1 - m) * K) / (2 * m * (1 - m))


def ellip_dE_dm(m) -> float:
    """dE/dm = (E - K) / (2 m), 0 < m < 1."""
    _check_m(m, lo_open=True, hi_open=True)
    m = float(m)
    K, E = ellip_KE(m)
    return (E - K) / (2 * m)


def legendre_defect(m) -> float:
    """E K' + E' K - K K' - pi/2 with K' = K(1-m); identically zero."""
    _check_m(m, lo_open=True, hi_open=True)
    m = float(m)
    K, E = ellip_KE(m)
    Kp, Ep = ellip_KE(1 - m)
    return E * Kp + Ep * K - K * Kp - math.pi / 2


def ellip_K_series(m) -> float:
    """Maclaurin evaluation of K(m); an independent oracle for the AGM route."""
    _check_m(m, hi_open=True)
    m = float(m)
    term = 1.0
    total = 1.0
    n = 0
    while True:
        n += 1
        ratio = (2 * n - 1) / (2.0 * n)
        term *= ratio * ratio * m
        total += term
        if term < 1e-18 * total:
            break
        if n > 20_000:
            raise ConvergenceError("K Maclaurin series too slow; m too close to 1")
    return math.pi / 2 * total


def ellip_E_series(m) -> float:
    """Maclaurin evaluation of E(m)."""
    _check_m(m)
    m = float(m)
    term = 1.0
    total = 1.0
    n = 0
    while True:
        n += 1
        ratio = (2 * n - 1) / (2.0 * n)
        term *= ratio * ratio * m
        total -= term / (2 * n - 1)
        if term < 1e-18:
            break
        if n > 20_000:
            raise ConvergenceError("E Maclaurin series too slow")
    return math.pi / 2 * total
