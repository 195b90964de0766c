"""Non-perturbative spectral quantities: the one-instanton fluctuation
series, band and gap widths, the single width formula valid on both sides
of the barrier, and large-order growth predictions.
"""
from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple

from .errors import DomainError, RegimeWarning, StructureError, require_positive

# `spectral`, `series` and `fractions` are imported inside the functions
# that use them, so that a gap width loads none of them

__all__ = [
    "WidthEstimate",
    "p_inst",
    "band_width",
    "gap_width",
    "general_width_leading",
    "large_order_prediction",
    "INSTANTON_ACTION",
]

INSTANTON_ACTION = 8  # sqrt(2) * integral of sqrt(1 + cos x) over a period


class WidthEstimate(NamedTuple):
    leading: float
    with_fluctuations: float


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
    from fractions import Fraction as Q

    from . import spectral
    from .series import PolyB, PolySeries

    if order < 0:
        raise DomainError(f"order >= 0 required, got {order}")
    S = INSTANTON_ACTION
    up = u_series if u_series is not None else spectral.bs_invert_weak(order + 2)
    if up.order < order + 2:
        raise DomainError("u_series needed to two orders beyond the request")
    dudN = up.derivative_B()
    # the bracket du/dN - hbar + B hbar^2 / S shares du/dN's coefficients of
    # hbar^n from n = 3 on, and must vanish below
    if dudN[0] or dudN[1] != 1 or dudN[2] != PolyB((0, Q(-1, S))):
        raise StructureError(
            "integrand bracket not O(hbar^3): input is not a consistent "
            "perturbative band-location series"
        )
    # S * int dh h^(n-3) = S c_n h^(n-2)/(n-2) for n >= 3
    expo = [PolyB()] + [dudN[k + 2] * Q(S, k) for k in range(1, order + 1)]
    expo_series = PolySeries("hbar", order, expo)
    pref = [dudN[n + 1] for n in range(order + 1)]  # du/dN / hbar
    pref_series = PolySeries("hbar", order, pref)
    return pref_series * expo_series.exp()


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
    from fractions import Fraction

    B = Fraction(2 * N + 1, 2)
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
    return WidthEstimate(leading=lead, with_fluctuations=with_fluctuations)


def gap_width(hbar: float, N: int) -> WidthEstimate:
    """Strong-coupling gap width

        (hbar^2/4) (2/hbar)^(2N) / (2^(N-1) (N-1)!)^2,

    with the Stirling form (N hbar^2 / 2 pi) (e/(N hbar))^(2N) reported as
    the companion estimate for large N.  The first correction to this
    leading term is the factor 1 + beta_1/hbar^4 of ``alphabeta_extract``,
    beta_1 = -4(N+2)/(N^2-1)^2 for N >= 2.  A RegimeWarning is raised below
    the barrier top, N hbar <= 2 sqrt(2), and above it wherever
    |beta_1|/hbar^4 > 0.05; the second names that value.
    """
    if N < 1:
        raise DomainError("no gap below the first band in this labeling")
    require_positive("hbar", hbar)
    if N * hbar <= 2 * math.sqrt(2):
        warnings.warn(
            f"gap_width outside its regime, below the barrier: N*hbar = {N * hbar:.3g} <= 2 sqrt(2)",
            RegimeWarning,
            stacklevel=2,
        )
    elif N >= 2:
        # divided one hbar at a time: no power of hbar underflows to a zero divisor
        shift = 4 * (N + 2) / (N * N - 1) ** 2 / hbar / hbar / hbar / hbar
        if shift > 0.05:
            warnings.warn(
                f"gap_width leading term off by its first correction: "
                f"4(N+2)/((N^2-1)^2 hbar^4) = {shift:.3g} > 0.05",
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
    return WidthEstimate(leading=exact_pref, with_fluctuations=stirling)


def general_width_leading(hbar: float, u: float) -> float:
    """(hbar/pi) (du/da0) exp(-(2 pi/hbar) Im a0D): the leading width of the
    band (below the barrier) or gap (above) whose location is u.

    Near |u| = 1 the exponent is O(1) -- the instanton-condensation window
    -- and a warning is attached since the one-instanton formula is then
    uncontrolled.
    """
    from . import actions

    require_positive("hbar", hbar)
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


def large_order_prediction(N: int, n: int) -> float:
    """Schematic large-order form of the perturbative coefficient,

        u_n(N) ~ -(2^(2N) / (pi N!^2)) Gamma(n + 2N + 1) / 16^(n + 2N + 1).

    Only its growth ratio u_{n+1}/u_n -> (n + 2N + 1)/16 is reliable: the
    absolute prefactor is off, and more so as N grows.  The exact u_50 of
    ``benderwu.rs_series`` is 9.71, 2.02e3 and 3.72e5 times this value at
    N = 0, 1 and 2.  The value is a float, one rounding of a ratio of
    integers, with pi to 30 digits.
    """
    if N < 0 or n < 0:
        raise DomainError(f"need N >= 0 and n >= 0, got N={N}, n={n}")
    num = 4 ** N * math.factorial(n + 2 * N) * 10 ** 29
    den = math.factorial(N) ** 2 * 16 ** (n + 2 * N + 1) * 314159265358979323846264338328
    try:
        value = num / den
    except OverflowError:
        value = math.inf
    if not 0 < value < math.inf:
        raise DomainError(f"u_{n}({N}) lies outside the double range")
    return -value
