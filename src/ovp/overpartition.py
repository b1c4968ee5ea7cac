"""Overpartition numbers pbar(n) by several independent methods.

An overpartition is a partition in which the first occurrence of each
distinct part may be overlined, so pbar(0..5) = 1, 2, 4, 8, 14, 24.  The
generating function is

    sum(pbar(n) q^n) = prod((1 + q^k) / (1 - q^k)) = 1 / phi(-q),

which yields two production routes (series inversion of phi(-q), and
incremental Euler-factor multiplication), a direct combinatorial count for
small n, and the exact 2-adic expansion

    sum(pbar(n) q^n) = 1 + sum(2^k * sum((-1)^(n+k) c_k(n) q^n), k >= 1)

where c_k(n) counts ordered representations of n as a sum of k positive
squares.  Truncating at k = 2 gives pbar(n) mod 8 for n >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qseries import CoefficientRing, Series, series_from_terms
from .squares import SquaresTable
from .theta import ThetaKind, theta_terms


class Method:
    """Canonical names of the table construction methods."""

    THETA_INVERSION = "theta-inversion"
    EULER_PRODUCT = "euler-product"
    ENUMERATION = "enumeration"
    TWO_ADIC = "two-adic"
    ALL = (THETA_INVERSION, EULER_PRODUCT, ENUMERATION, TWO_ADIC)


_METHOD_ALIASES = {
    "theta": Method.THETA_INVERSION,
    "euler": Method.EULER_PRODUCT,
    "enum": Method.ENUMERATION,
    "2adic": Method.TWO_ADIC,
}

ENUMERATION_LIMIT = 64


def canonical_method(method: str) -> str:
    name = _METHOD_ALIASES.get(method, method)
    if name not in Method.ALL:
        raise ValueError(
            f"unknown method {method!r}; expected one of {', '.join(Method.ALL)}"
        )
    return name


@dataclass(frozen=True, eq=False)
class CoeffTable:
    """A named coefficient table with provenance metadata.

    ``values[n]`` is the n-th coefficient; ``value(n)`` additionally maps
    negative arguments to 0 (the standard convention for pbar).  ``values``
    is laid out as ``Series.coeffs``, one read-only vector: of dtype object
    holding Python ints over ZZ; over Z/m of canonical residues, in narrow
    unsigned words for m <= 2^16 (one byte each mod 120) and int64 above.
    Widen narrow words (``.astype(np.int64)``) before signed arithmetic,
    since under numpy 2 ``-2 * values`` raises on an unsigned dtype.
    ``nonzero`` keeps, per power of two M, the sorted n with values[n] % M
    != 0 that ``congruence.verify`` builds, for as long as the table lives;
    ``residues`` keeps, per modulus M, the residues mod M that it reads from
    an exact table.
    """

    name: str
    method: str
    ring: CoefficientRing
    values: np.ndarray
    meta: dict = field(default_factory=dict)
    nonzero: dict = field(default_factory=dict, init=False, repr=False)
    residues: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", Series(self.ring, self.values).coeffs)

    @property
    def length(self) -> int:
        return len(self.values)

    def value(self, n: int) -> int:
        if n < 0:
            return 0
        if n >= self.length:
            raise ValueError(
                f"table '{self.name}' holds {self.length} values; "
                f"index {n} requires length >= {n + 1}"
            )
        return int(self.values[n])

    def as_series(self) -> Series:
        return Series(self.ring, self.values)

    def payload_bytes(self) -> bytes:
        if self.ring.is_exact:
            return self.as_series().to_json().encode()
        return self.as_series().to_bytes()

    def content_hash(self) -> str:
        import hashlib  # loads OpenSSL: only callers that hash pay for it

        return hashlib.sha256(self.payload_bytes()).hexdigest()


def overpartition_table(
    ring: CoefficientRing, length: int, method: str = Method.THETA_INVERSION
) -> CoeffTable:
    """Table of pbar(0), ..., pbar(length - 1) in the given ring.

    theta-inversion is the production route (O(length * log(length)) mod m);
    euler-product is quadratic and meant for cross-validation; enumeration
    is capped at length 64; two-adic evaluates the exact 2-adic expansion
    with big integers and is also quadratic.
    """
    if not isinstance(length, (int, np.integer)) or length < 1:
        raise ValueError(f"length must be a positive int, got {length!r}")
    length = int(length)
    method = canonical_method(method)
    if method == Method.THETA_INVERSION:
        terms = theta_terms(ThetaKind.PHI_MINUS, length)
        # mod m the inversion keeps phi(-q)'s terms, and this series, bound
        # to no name, is freed with its vector once they are read
        values = series_from_terms(ring, length, terms).invert().coeffs
    elif method == Method.EULER_PRODUCT:
        values = _euler_values(length, ring.modulus)
    elif method == Method.ENUMERATION:
        if length > ENUMERATION_LIMIT:
            raise ValueError(
                f"enumeration is limited to length <= {ENUMERATION_LIMIT}, "
                f"got {length}"
            )
        values = _enumeration_values(length)
    else:  # two-adic
        values = _two_adic_values(length)
    return CoeffTable(name="pbar", method=method, ring=ring, values=values)


# -- euler product -----------------------------------------------------------


def _euler_values(length: int, m: int | None) -> np.ndarray:
    """Multiply factor by factor: *(1 + q^k), then /(1 - q^k), a cumulative
    sum with stride k.  Mod m in int64, reduced once per factor, which is
    exact while 2 m length < 2^63; over ZZ (m None) the same slices run on
    Python ints in an object vector."""
    dtype = object if m is None else np.int64
    c = np.zeros(length, dtype=dtype)
    c[0] = 1
    for k in range(1, length):
        c[k:] = c[k:] + c[: length - k]
        rows = -(-length // k)
        buf = np.zeros(rows * k, dtype=dtype)
        buf[:length] = c
        mat = buf.reshape(rows, k)
        np.cumsum(mat, axis=0, out=mat)
        c = buf[:length] if m is None else buf[:length] % m
    return c


# -- direct enumeration ------------------------------------------------------


def _enumeration_values(length: int) -> list[int]:
    # count(n, k): overpartitions of n with parts <= k; a part used j >= 1
    # times contributes a factor 2 for the optional overline on its first
    # occurrence.
    @lru_cache(maxsize=None)
    def count(n: int, largest: int) -> int:
        if n == 0:
            return 1
        if largest == 0:
            return 0
        total = count(n, largest - 1)
        rem = n - largest
        while rem >= 0:
            total += 2 * count(rem, largest - 1)
            rem -= largest
        return total

    values = [count(n, n) for n in range(length)]
    count.cache_clear()
    return values


# -- exact 2-adic expansion --------------------------------------------------


def _two_adic_values(length: int) -> np.ndarray:
    # acc[n] = 1[n == 0] + sum over k of (-1)^(n+k) 2^k c_k(n); row k of the
    # c table is streamed by convolving with theta_+ and never stored whole.
    # Rows hold big integers in object vectors; row k is zero below k, so
    # each product with theta_+ skips that head, as the generic one cannot.
    squares = [a * a for a in range(1, math.isqrt(max(length - 1, 0)) + 1)]
    acc = np.zeros(length, dtype=object)
    acc[0] = 1
    row = np.zeros(length, dtype=object)
    row[squares] = 1
    for k in range(1, length):
        # sign (-1)^(n+k) is + when n has the parity of k
        acc[k::2] += row[k::2] << k
        acc[k + 1 :: 2] -= row[k + 1 :: 2] << k
        # next row: c_(k+1)(n) = sum(c_k(n - s)) over squares s
        row, prev = np.zeros(length, dtype=object), row
        for s in squares:
            row[k + s :] += prev[k : length - s]
    return acc


def two_adic_value(n: int, table: SquaresTable) -> int:
    """Evaluate sum(2^k (-1)^(n+k) c_k(n), k = 1..n) from an exact table.

    For n >= 1 this equals pbar(n) exactly; terms with k > n vanish since
    n cannot be a sum of more than n positive squares.  Rejects n = 0,
    where the expansion contributes only the constant term 1.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    n = int(n)
    if table.k_max < n:
        raise ValueError(f"table k_max {table.k_max} < n; need k_max >= {n}")
    if table.order <= n:
        raise ValueError(f"table order {table.order} <= n; need order >= {n + 1}")
    total = 0
    for k in range(1, n + 1):
        c = table.value(k, n)
        if c:
            term = c << k
            total += term if (n + k) % 2 == 0 else -term
    return total


# -- mod 8 truncation --------------------------------------------------------


def mod8_truncation(n: int) -> int:
    """pbar(n) mod 8 for n >= 1 from the k <= 2 terms of the expansion:

        pbar(n) == (-1)^n (-2 c_1(n) + 4 c_2(n))  (mod 8).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    n = int(n)
    r = math.isqrt(n)
    r1 = 1 if r * r == n else 0
    r2 = 0
    a = 1
    while a * a < n:
        b2 = n - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            r2 += 1
        a += 1
    return ((-1) ** n * (-2 * r1 + 4 * r2)) % 8


def mod8_residues(length: int) -> np.ndarray:
    """Vector of the mod-8 truncation for all n < length (entry 0 is 1), in
    closed form: c_2(n) is odd exactly at n = 2 a^2, where (a, a) is its one
    representation fixed by the swap, so the truncation is 2 at odd squares,
    6 at even squares, 4 at twice the squares and 0 elsewhere."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    out = np.zeros(length, dtype=np.int64)
    k = np.arange(1, math.isqrt(length - 1) + 1)
    out[k * k] = 6 - 4 * (k % 2)
    out[2 * k[: math.isqrt((length - 1) // 2)] ** 2] = 4  # the a with 2 a^2 < length
    out[0] = 1
    return out
