"""Classical theta series as truncated q-expansions.

Four kinds are provided:

    phi(q)        = 1 + 2*sum(q^(k^2), k >= 1)          coefficient 2 at squares
    phi(-q)       = 1 + 2*sum((-1)^k q^(k^2), k >= 1)   alternating signs
    psi(q)        = sum(q^(t(t+1)/2), t >= 0)           1 at triangular numbers
    theta_+(q)    = sum(q^(k^2), k >= 1)                1 at positive squares

together with a self-check of the 2-dissection
phi(q) = phi(q^4) + 2q psi(q^8) and its -q variant.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .qseries import CoefficientRing, IdentityCheck, Series, compare, series_from_terms


class ThetaKind(Enum):
    PHI_PLUS = "phi"
    PHI_MINUS = "phi-minus"
    PSI = "psi"
    POSITIVE_SQUARES = "positive-squares"


def theta_terms(kind: ThetaKind, order: int) -> list[tuple[int, int]]:
    """Sparse (exponent, coefficient) support of a theta series below order:
    t(t+1)/2 < order holds for t < (isqrt(8 order - 7) + 1) // 2, and
    k^2 < order for k <= isqrt(order - 1)."""
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive int, got {order!r}")
    if kind is ThetaKind.PSI:
        return [(t * (t + 1) // 2, 1) for t in range((math.isqrt(8 * int(order) - 7) + 1) // 2)]
    if kind not in (ThetaKind.PHI_PLUS, ThetaKind.PHI_MINUS, ThetaKind.POSITIVE_SQUARES):
        raise ValueError(f"unknown theta kind {kind!r}")
    # k = 0 gives 1 (no term for theta_+); k >= 1 gives 2, 2 (-1)^k or 1
    c, sign = {ThetaKind.PHI_PLUS: (2, 1), ThetaKind.PHI_MINUS: (2, -1)}.get(kind, (1, 1))
    first = int(kind is ThetaKind.POSITIVE_SQUARES)
    return [(k * k, c * sign**k if k else 1) for k in range(first, math.isqrt(order - 1) + 1)]


def theta_series(kind: ThetaKind, ring: CoefficientRing, order: int) -> Series:
    return series_from_terms(ring, order, theta_terms(kind, order))


def check_two_dissection(
    order: int,
    phi_plus: Series | None = None,
    phi_minus: Series | None = None,
) -> list[IdentityCheck]:
    """Verify phi(+/-q) = phi(q^4) +/- 2q psi(q^8) through the given order.

    The right-hand sides are always rebuilt from scratch; the left-hand
    series may be injected (e.g. deliberately corrupted) so callers can
    confirm the check actually detects a wrong coefficient.  A failed
    identity is reported via ``first_difference``, not raised.
    """
    if phi_plus is None:
        phi_plus = theta_series(ThetaKind.PHI_PLUS, CoefficientRing(), order)
    if phi_minus is None:
        phi_minus = theta_series(ThetaKind.PHI_MINUS, CoefficientRing(), order)
    ring = phi_plus.ring
    phi_q4 = theta_series(ThetaKind.PHI_PLUS, ring, order).substitute_power(4)
    # 2q psi(q^8) = sum(2 q^(8e+1)) over psi's exponents e, on its sparse support
    support = [(8 * e + 1, 2) for e, _ in theta_terms(ThetaKind.PSI, order) if 8 * e + 1 < order]
    shifted = series_from_terms(ring, order, support)
    return [
        compare("phi(q) = phi(q^4) + 2q psi(q^8)", phi_plus, phi_q4 + shifted),
        compare("phi(-q) = phi(q^4) - 2q psi(q^8)", phi_minus, phi_q4 - shifted),
    ]
