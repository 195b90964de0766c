"""Exact Taylor expansion of sd^2 = (sn/dn)^2, the elliptic well.

w = sd^2(z | m) solves

    w'' = 2 + 4(2m-1) w - 6m(1-m) w^2,   w(0) = w'(0) = 0,

the derivative of (w')^2 = 4w (1 + (2m-1) w - m(1-m) w^2).  w is even,
and with m = p/q and C_j = c_{2j} (2j)! q^(j-1) the equation reads

    C_1 = 2,
    C_{j+1} = 4(2p-q) C_j - 6p(q-p) sum_{i=1}^{j-1} C(2j, 2i) C_i C_{j-i},

a recursion on Python integers.  No series is multiplied or inverted, and
no floating point enters.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import comb

from .errors import DomainError, require_integer

__all__ = ["sd_squared_taylor"]


def sd_squared_taylor(order: int, m) -> list[Q]:
    """The Taylor coefficients c_0..c_order of sd^2(z | m) about z = 0, at a
    rational m (an int or a Fraction)."""
    order = require_integer("truncation order", order, 0)
    if not isinstance(m, (int, Q)):
        raise DomainError(f"m must be an int or a Fraction, got {type(m).__name__}")
    m = Q(m)
    p, q = m.numerator, m.denominator
    lin, quad = 4 * (2 * p - q), 6 * p * (q - p)
    C = [0, 2]  # C_0 = 0 since w(0) = 0
    for j in range(1, order // 2):
        conv = sum(comb(2 * j, 2 * i) * C[i] * C[j - i] for i in range(1, j))
        C.append(lin * C[j] - quad * conv)
    out = [Q(0)] * (order + 1)
    fact = 1  # (2j)!
    for j in range(1, order // 2 + 1):
        fact *= (2 * j - 1) * 2 * j
        out[2 * j] = Q(C[j], fact * q ** (j - 1))
    return out
