"""Complete elliptic integrals and Jacobi elliptic functions.

Convention: everywhere the *parameter* m = k^2, matching the (1 +- u)/2
arguments used throughout the action formulas.  Mixing up m and k is the
classic bug, so: ``ellip_K(m)`` is K(k) with k = sqrt(m).

Two precision tiers share one code path: the default is double precision
(math module); passing ``dps`` runs the same algorithms under mpmath at
that many significant digits, which the large-order fits and the
exponentially narrow widths need.
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
    "jacobi_sn_cn_dn",
    "jacobi_sd",
    "ellip_K_series",
    "ellip_E_series",
]


class _FloatOps:
    pi = math.pi
    eps = 2.0 ** -52
    convert = staticmethod(float)
    sqrt = staticmethod(math.sqrt)
    sin = staticmethod(math.sin)
    cos = staticmethod(math.cos)
    tanh = staticmethod(math.tanh)
    cosh = staticmethod(math.cosh)
    asin = staticmethod(math.asin)


class _MpOps:
    """mpmath backend; caller must hold the working precision context.

    The functions are bound per instance, not in the class body, so that
    importing this module does not import mpmath.
    """

    def __init__(self):
        import mpmath

        self.pi = +mpmath.pi
        self.eps = mpmath.mpf(2) ** (8 - mpmath.mp.prec)
        self.convert = mpmath.mpf
        self.sqrt = mpmath.sqrt
        self.sin = mpmath.sin
        self.cos = mpmath.cos
        self.tanh = mpmath.tanh
        self.cosh = mpmath.cosh
        self.asin = mpmath.asin


def _dispatch(kernel, dps, *args):
    if dps is None:
        return kernel(_FloatOps(), *args)
    import mpmath

    with mpmath.workdps(dps):
        return kernel(_MpOps(), *args)


def _check_m(m, lo_open: bool = False, hi_open: bool = False) -> None:
    if m < 0 or m > 1:
        raise DomainError(f"parameter m={m} outside [0, 1]")
    if lo_open and m == 0:
        raise DomainError("m = 0 endpoint excluded here")
    if hi_open and m == 1:
        raise DomainError("m = 1 endpoint excluded here")


def _ke_kernel(ox, m):
    one = ox.convert(1)
    m = ox.convert(m)
    a, b = one, ox.sqrt(one - m)
    c = ox.sqrt(m)
    csum = c * c / 2  # running sum of 2^(n-1) c_n^2
    pow2 = one
    for _ in range(300):
        a, b, c = (a + b) / 2, ox.sqrt(a * b), (a - b) / 2
        pow2 *= 2
        csum += pow2 / 2 * c * c
        if abs(c) <= ox.eps * abs(a):
            break
    else:
        raise ConvergenceError("AGM failed to converge")
    K = ox.pi / (2 * a)
    return K, K * (one - csum)


def ellip_KE(m, dps: int | None = None):
    """(K(m), E(m)) by one arithmetic-geometric-mean iteration.

    K diverges at m = 1; that call raises PoleError.  E(1) = 1 exactly.
    """
    _check_m(m)
    if m == 1:
        raise PoleError("K(m) diverges logarithmically at m = 1")
    return _dispatch(_ke_kernel, dps, m)


def ellip_K(m, dps: int | None = None):
    return ellip_KE(m, dps)[0]


def ellip_E(m, dps: int | None = None):
    if m == 1:
        if dps is None:
            return 1.0
        import mpmath

        return mpmath.mpf(1)
    return ellip_KE(m, dps)[1]


def _dk_kernel(ox, m):
    m = ox.convert(m)
    K, E = _ke_kernel(ox, m)
    return (E - (1 - m) * K) / (2 * m * (1 - m))


def ellip_dK_dm(m, dps: int | None = None):
    """dK/dm = (E - (1-m) K) / (2 m (1-m)), 0 < m < 1."""
    _check_m(m, lo_open=True, hi_open=True)
    return _dispatch(_dk_kernel, dps, m)


def _de_kernel(ox, m):
    m = ox.convert(m)
    K, E = _ke_kernel(ox, m)
    return (E - K) / (2 * m)


def ellip_dE_dm(m, dps: int | None = None):
    """dE/dm = (E - K) / (2 m), 0 < m < 1."""
    _check_m(m, lo_open=True, hi_open=True)
    return _dispatch(_de_kernel, dps, m)


def _legendre_kernel(ox, m):
    m = ox.convert(m)
    K, E = _ke_kernel(ox, m)
    Kp, Ep = _ke_kernel(ox, 1 - m)
    return E * Kp + Ep * K - K * Kp - ox.pi / 2


def legendre_defect(m, dps: int | None = None):
    """E K' + E' K - K K' - pi/2 with K' = K(1-m); identically zero."""
    _check_m(m, lo_open=True, hi_open=True)
    return _dispatch(_legendre_kernel, dps, m)


def _sncndn_kernel(ox, u, m):
    u = ox.convert(u)
    m = ox.convert(m)
    one = ox.convert(1)
    if m == 0:
        return ox.sin(u), ox.cos(u), one
    if m == 1:
        sech = 1 / ox.cosh(u)
        return ox.tanh(u), sech, sech
    a = [one]
    b = [ox.sqrt(one - m)]
    c = [ox.sqrt(m)]
    while abs(c[-1]) > ox.eps * abs(a[-1]):
        an, bn, cn_ = (a[-1] + b[-1]) / 2, ox.sqrt(a[-1] * b[-1]), (a[-1] - b[-1]) / 2
        a.append(an)
        b.append(bn)
        c.append(cn_)
        if len(a) > 300:
            raise ConvergenceError("Landen/AGM failed to converge")
    n = len(a) - 1
    # Descending Landen: phi_{k-1} = (phi_k + asin(c_k/a_k sin phi_k)) / 2.
    phi = (2 ** n) * a[n] * u
    phi1 = phi
    for k in range(n, 0, -1):
        phi_prev = (phi + ox.asin(c[k] / a[k] * ox.sin(phi))) / 2
        phi1, phi = phi, phi_prev
    sn = ox.sin(phi)
    cn = ox.cos(phi)
    dn = cn / ox.cos(phi1 - phi)
    return sn, cn, dn


def jacobi_sn_cn_dn(u, m, dps: int | None = None):
    """(sn, cn, dn)(u | m) for real u via the descending Landen / AGM scheme."""
    _check_m(m)
    return _dispatch(_sncndn_kernel, dps, u, m)


def jacobi_sd(z, m, dps: int | None = None):
    """sd(z | m) = sn/dn for z real, or purely imaginary (returned complex).

    The imaginary case uses sd(i y | m) = i sd(y | 1 - m).
    """
    if isinstance(z, complex):
        if z.imag == 0:
            z = z.real
        elif z.real == 0:
            inner = jacobi_sd(z.imag, 1 - m, dps)
            return complex(0, float(inner))
        else:
            raise DomainError("jacobi_sd supports real or purely imaginary z only")
    sn, _cn, dn = jacobi_sn_cn_dn(z, m, dps)
    if abs(dn) < 1e-300:
        raise PoleError("sd pole: dn vanished")
    return sn / dn


def ellip_K_series(m, tol: float = 1e-18, max_terms: int = 20000) -> float:
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
        if term < tol * total:
            break
        if n > max_terms:
            raise ConvergenceError("K Maclaurin series too slow; m too close to 1")
    return math.pi / 2 * total


def ellip_E_series(m, tol: float = 1e-18, max_terms: int = 20000) -> float:
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
        if term < tol:
            break
        if n > max_terms:
            raise ConvergenceError("E Maclaurin series too slow")
    return math.pi / 2 * total
