"""Non-perturbative spectral quantities: the one-instanton fluctuation
series, band and gap widths, the single width formula valid on both sides
of the barrier, barrier-top scalings, and large-order growth predictions.
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction as Q
from typing import Callable, NamedTuple

from . import spectral
from .errors import DomainError, RegimeWarning, StructureError, require_positive
from .series import PolyB, PolySeries

__all__ = [
    "WidthEstimate",
    "p_inst",
    "p_inst_from_zjj",
    "band_width",
    "gap_width",
    "general_width_leading",
    "barrier_top",
    "large_order_prediction",
    "INSTANTON_ACTION",
]

INSTANTON_ACTION = 8  # sqrt(2) * integral of sqrt(1 + cos x) over a period


class WidthEstimate(NamedTuple):
    hbar: float
    N: int
    kind: str  # "band" | "gap"
    leading: float
    with_fluctuations: float
    order_used: int


def _in_double_range(what: str, direct: Callable[[], float], log_value: float) -> float:
    """``direct()`` where it is a finite positive double, else the same
    quantity as exp(log_value): the factorials and powers of the direct
    form leave the double range at large N long before their quotient does.
    DomainError when the quantity itself is not a positive finite double."""
    try:
        value = direct()
    except OverflowError:
        value = math.inf
    if 0 < value < math.inf:
        return value
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not 0 < value < math.inf:
        raise DomainError(f"{what} e^{log_value:.1f} outside the double range")
    return value


def p_inst(order: int, u_series: PolySeries | None = None) -> PolySeries:
    """One-instanton fluctuation series from perturbation theory alone:

        P = (1/hbar) (du/dN) exp[ S int_0^hbar dh/h^3 (du/dN - h + B h^2/S) ]

    with S = 8 and B = N + 1/2.  The bracket must be O(h^3); if it is not,
    the supplied series is not the band-location series and we refuse.
    Normalized so P(0) = 1.
    """
    if order < 0:
        raise DomainError(f"order >= 0 required, got {order}")
    S = INSTANTON_ACTION
    up = u_series if u_series is not None else spectral.u_pert(order + 2)
    if up.order < order + 2:
        raise DomainError("u_pert needed to two orders beyond the request")
    dudN = up.derivative_B()
    # bracket = du/dN - hbar + B hbar^2 / S, coefficients of hbar^n
    bracket = [PolyB() for _ in range(up.order + 1)]
    for n in range(up.order + 1):
        bracket[n] = dudN[n]
    bracket[1] = bracket[1] - PolyB.const(1)
    bracket[2] = bracket[2] + PolyB((0, Q(1, S)))
    if not (bracket[0].is_zero() and bracket[1].is_zero() and bracket[2].is_zero()):
        raise StructureError(
            "integrand bracket not O(hbar^3): input is not a consistent "
            "perturbative band-location series"
        )
    # S * int dh h^(n-3) = S c_n h^(n-2)/(n-2) for n >= 3
    expo = [PolyB() for _ in range(order + 1)]
    for n in range(3, up.order + 1):
        k = n - 2
        if k <= order:
            expo[k] = bracket[n] * Q(S, n - 2)
    expo_series = PolySeries("hbar", order, expo)
    pref = [dudN[n + 1] for n in range(order + 1)]  # du/dN / hbar
    pref_series = PolySeries("hbar", order, pref)
    return pref_series * expo_series.exp()


def p_inst_from_zjj(order: int) -> PolySeries:
    """Independent route: P = (dE/dB) exp(-(A - 16/hbar)/2) from the
    quantization functions; must agree with ``p_inst`` identically."""
    z = spectral.zjj_construct(order + 1)
    dEdB = z.E_of_B.derivative_B().truncate(order)
    half_A = z.A_of_B.truncate(order) / 2
    return dEdB * (-half_A).exp()


def band_width(hbar: float, N: int, order: int = 4) -> WidthEstimate:
    """Weak-coupling band width

        4 hbar/sqrt(2 pi) (1/N!) (32/hbar)^(N+1/2) e^(-8/hbar) P(hbar, N).

    The half-splitting of the band about its perturbative center is half
    of this.  The prefactor is anchored to the numerical oracle (both the
    Fourier-matrix and monodromy routes) and to the equivalent form
    sqrt(2/pi) 2^(4N+4) (2/hbar)^(N-1/2) e^(-8/hbar); printed width
    formulas in the literature differ among themselves by a factor 2 and
    the smaller normalization does not match the actual spectrum.
    """
    if N < 0:
        raise DomainError("band label N >= 0 required")
    require_positive("hbar", hbar)
    if N * hbar > 1.0:
        warnings.warn(
            f"band_width outside its regime: N*hbar = {N * hbar:.3g} not << 1",
            RegimeWarning,
            stacklevel=2,
        )
    B = Q(2 * N + 1, 2)
    lead = _in_double_range(
        "band width",
        lambda: 4 * hbar / math.sqrt(2 * math.pi) / math.factorial(N)
        * (32 / hbar) ** (N + 0.5) * math.exp(-INSTANTON_ACTION / hbar),
        math.log(4 * hbar / math.sqrt(2 * math.pi)) - math.lgamma(N + 1)
        + (N + 0.5) * math.log(32 / hbar) - INSTANTON_ACTION / hbar,
    )
    P = p_inst(order)
    with_fluctuations = lead * float(P(hbar, B))
    if not math.isfinite(with_fluctuations):
        raise DomainError(f"band width with fluctuations not finite at hbar={hbar!r}, N={N}")
    return WidthEstimate(
        hbar=hbar, N=N, kind="band", leading=lead,
        with_fluctuations=with_fluctuations, order_used=order,
    )


def gap_width(hbar: float, N: int) -> WidthEstimate:
    """Strong-coupling gap width

        (hbar^2/4) (2/hbar)^(2N) / (2^(N-1) (N-1)!)^2,

    with the Stirling form (N hbar^2 / 2 pi) (e/(N hbar))^(2N) reported as
    the companion estimate for large N.
    """
    if N < 1:
        raise DomainError("no gap below the first band in this labeling")
    require_positive("hbar", hbar)
    if N * hbar < 1.0:
        warnings.warn(
            f"gap_width outside its regime: N*hbar = {N * hbar:.3g} not >> 1",
            RegimeWarning,
            stacklevel=2,
        )
    exact_pref = _in_double_range(
        "gap width",
        lambda: hbar * hbar / 4 * (2 / hbar) ** (2 * N)
        / (2 ** (N - 1) * math.factorial(N - 1)) ** 2,
        2 * math.log(hbar / 2) + 2 * N * math.log(2 / hbar)
        - 2 * ((N - 1) * math.log(2) + math.lgamma(N)),
    )
    stirling = _in_double_range(
        "Stirling gap width",
        lambda: N * hbar * hbar / (2 * math.pi) * (math.e / (N * hbar)) ** (2 * N),
        math.log(N * hbar * hbar / (2 * math.pi)) + 2 * N * (1 - math.log(N * hbar)),
    )
    return WidthEstimate(
        hbar=hbar, N=N, kind="gap", leading=exact_pref,
        with_fluctuations=stirling, order_used=0,
    )


def general_width_leading(hbar: float, u: float) -> float:
    """(hbar/pi) (du/da0) exp(-(2 pi/hbar) Im a0D): the leading width of the
    band (below the barrier) or gap (above) whose location is u.

    Near |u| = 1 the exponent is O(1) -- the instanton-condensation window
    -- and a warning is attached since the one-instanton formula is then
    uncontrolled.
    """
    from . import actions

    if u == 1 or u == -1:
        raise DomainError("width formula singular exactly at |u| = 1")
    da0, _ = actions.action_leading_derivative(u)
    _, a0d = actions.action_leading(u)
    expo = 2 * math.pi / hbar * a0d.imag
    if expo < 2.0:
        warnings.warn(
            "instanton condensation region: single-instanton width is "
            f"uncontrolled (2 pi Im a0D / hbar = {expo:.3f})",
            RegimeWarning,
            stacklevel=2,
        )
    return hbar / math.pi / da0 * math.exp(-expo)


def barrier_top(hbar: float) -> dict:
    """Characteristic band/gap labels and splitting at the barrier top:

    band center N + 1/2 = 8/(pi hbar), gap center N = 8/(pi hbar),
    edges N +- 1/4 = 8/(pi hbar), and u = 1 +- pi hbar/16.
    """
    require_positive("hbar", hbar)
    x = 8 / (math.pi * hbar)
    return {
        "N_band_center": x - 0.5,
        "N_gap_center": x,
        "N_edges": (x - 0.25, x + 0.25),
        "u_split": (1 - math.pi * hbar / 16, 1 + math.pi * hbar / 16),
        "Q_of_edge": lambda N, sign: math.pi ** 2 / 16 * (N + sign * 0.25) ** 2,
    }


def large_order_prediction(N: int, n: int, dps: int = 30):
    """Asymptotic perturbative coefficient

        u_n(N) ~ -(2^(2N) / (pi N!^2)) Gamma(n + 2N + 1) / 16^(n + 2N + 1).
    """
    import mpmath

    with mpmath.workdps(dps):
        return (
            -mpmath.mpf(2) ** (2 * N)
            / (mpmath.pi * mpmath.factorial(N) ** 2)
            * mpmath.gamma(n + 2 * N + 1)
            / mpmath.mpf(16) ** (n + 2 * N + 1)
        )
