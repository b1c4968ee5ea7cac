"""Half-integral-weight Hecke operator T(l^2) acting on q-expansions.

For f = sum a(n) q^n of weight k/2 (k odd) with level N divisible by 4 and
an odd prime l not dividing N, the image T(l^2) f has coefficients

    b(n) = a(l^2 n)
         + legendre((-1)^((k-1)/2) * n, l) * l^((k-3)/2) * a(n)
         + l^(k-2) * a(n / l^2)

with a(n / l^2) taken as 0 unless l^2 divides n.  At k = 3 (weight 3/2)
this reduces to b(n) = a(l^2 n) + legendre(-n, l) a(n) + l a(n / l^2);
phi(q)^3 and phi(-q)^3 are eigenforms with eigenvalue l + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qseries import CoefficientRing, Series, _wide


def is_odd_prime(p: int) -> bool:
    """Primality by trial division; intended for small moduli."""
    if not isinstance(p, (int, np.integer)) or p < 3 or p % 2 == 0:
        return False
    p = int(p)
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def legendre(a: int, ell: int) -> int:
    """Legendre symbol (a | ell) in {-1, 0, 1} by Euler's criterion."""
    if not is_odd_prime(ell):
        raise ValueError(f"legendre symbol needs an odd prime, got {ell}")
    a = int(a) % ell
    if a == 0:
        return 0
    r = pow(a, (ell - 1) // 2, ell)
    return 1 if r == 1 else -1


@dataclass(frozen=True)
class HeckeParams:
    """Operator data: weight numerator k (odd), level N (4 | N), prime l."""

    k: int
    N: int
    ell: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, (int, np.integer)) or self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"weight numerator k must be a positive odd int, got {self.k}")
        if not isinstance(self.N, (int, np.integer)) or self.N < 4 or self.N % 4 != 0:
            raise ValueError(f"level N must be a positive multiple of 4, got {self.N}")
        if not is_odd_prime(self.ell):
            raise ValueError(f"l must be an odd prime, got {self.ell}")
        if self.N % self.ell == 0:
            raise ValueError(f"l = {self.ell} must not divide N = {self.N}")
        for name in ("k", "N", "ell"):  # Python ints: powers of l must not wrap
            object.__setattr__(self, name, int(getattr(self, name)))


def _ell_power(ell: int, e: int, ring: CoefficientRing) -> int:
    if e >= 0:
        return ring.reduce(ell**e)
    if ring.is_exact:
        raise ValueError(
            f"weight numerator gives exponent {e} on l; l^{e} is not an "
            "integer, so the operator needs a residue ring with gcd(l, m) = 1"
        )
    m = ring.modulus
    if math.gcd(ell, m) != 1:
        raise ValueError(f"l = {ell} is not invertible modulo {m}")
    return pow(pow(ell, -1, m), -e, m)


def hecke_apply(f: Series, params: HeckeParams) -> Series:
    """Apply T(l^2); the result has order floor((f.order - 1) / l^2) + 1."""
    ell = params.ell
    l2 = ell * ell
    if f.order < l2:
        raise ValueError(
            f"input order {f.order} < l^2 = {l2}: no output coefficient "
            "is fully determined"
        )
    out_order = (f.order - 1) // l2 + 1
    twist = (-1) ** ((params.k - 1) // 2)
    chi = np.resize(np.array([legendre(twist * r, ell) for r in range(ell)]), out_order)
    # Over Z/m the residues are read as int64 and the powers of l are
    # reduced, so each b(n) stays below m + 2m^2 < 2^63.  Over ZZ the
    # coefficients are Python ints, and chi multiplies them before any power
    # of l does: chi * l^e alone would be int64 and could overflow.
    p_mid = _ell_power(ell, (params.k - 3) // 2, f.ring)
    p_low = _ell_power(ell, params.k - 2, f.ring)
    a = _wide(f.coeffs)
    b = a[::l2] + chi * a[:out_order] * p_mid  # a(l^2 n) and the twist
    low = b[::l2]  # the n divisible by l^2
    low += a[: len(low)] * p_low
    return Series._of(f.ring, b)


@dataclass(frozen=True)
class EigenReport:
    """Result of testing T(l^2) f == lambda f on a truncated expansion."""

    ell: int
    eigenvalue: int
    order: int
    first_failure: int | None

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    def to_json_dict(self) -> dict:
        out = {
            "ell": self.ell,
            "lambda": self.eigenvalue,
            "order": self.order,
            "pass": self.ok,
        }
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        return out


def eigenform_check(f: Series, params: HeckeParams, eigenvalue: int) -> EigenReport:
    """Compare T(l^2) f against eigenvalue * f coefficientwise."""
    image = hecke_apply(f, params)
    expected = f.truncate(image.order).scalar_mul(eigenvalue)
    return EigenReport(
        ell=params.ell,
        eigenvalue=eigenvalue,
        order=image.order,
        first_failure=image.first_difference(expected),
    )


def dim_half_integral(k: int) -> int:
    """Dimension 1 + floor(k/4) of the relevant weight-k/2 eigenspace."""
    if not isinstance(k, (int, np.integer)) or k < 1 or k % 2 == 0:
        raise ValueError(f"k must be a positive odd int, got {k!r}")
    return 1 + int(k) // 4


@dataclass(frozen=True)
class CoefficientIdentity:
    """Both sides of the weight-3/2 coefficient recursion at one n."""

    n: int
    ell: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def hecke_coefficient_identity(n: int, ell: int, a) -> CoefficientIdentity:
    """Evaluate a(l^2 n) + legendre(-n, l) a(n) + l a(n/l^2) vs (l+1) a(n).

    ``a`` is a Series or an indexable sequence of exact coefficients (of
    phi(-q)^3 in the intended use) covering exponents through l^2 * n.
    """
    if not is_odd_prime(ell):
        raise ValueError(f"l must be an odd prime, got {ell}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    coeffs = a.coeffs if isinstance(a, Series) else a
    need = ell * ell * n
    if len(coeffs) <= need:
        raise ValueError(
            f"coefficient table of length {len(coeffs)} too short; "
            f"need length >= {need + 1} for l^2 n = {need}"
        )

    def at(i: int) -> int:
        return int(coeffs[i])

    lhs = at(ell * ell * n) + legendre(-n, ell) * at(n)
    if n % (ell * ell) == 0:
        lhs += ell * at(n // (ell * ell))
    rhs = (ell + 1) * at(n)
    return CoefficientIdentity(n=n, ell=ell, lhs=lhs, rhs=rhs)
