"""Counts of representations as ordered sums of positive squares.

c_k(n) counts tuples (a_1, ..., a_k) of positive integers with
a_1^2 + ... + a_k^2 = n; order matters, so c_2(5) = 2 from (1,2) and (2,1).
Row k of the table is the coefficient vector of theta_+(q)^k, where
theta_+(q) = sum(q^(a^2), a >= 1) is ``ThetaKind.POSITIVE_SQUARES`` of
theta.py.  Row k + 1 is the ZZ series product of row k and theta_+, a
shift-and-add over the sqrt(order) terms of theta_+ in the narrowest signed
dtype that holds its Cauchy bound, and on Python ints beyond int64 (see
qseries._shift_add).  ``c2_array`` counts lattice points instead, as an
independent check of row 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np

from .qseries import ZZ, IdentityCheck
from .theta import ThetaKind, theta_series, theta_terms


@dataclass(frozen=True)
class SquaresTable:
    """Exact table of c_k(n) for 1 <= k <= k_max and 0 <= n < order."""

    k_max: int
    order: int
    rows: tuple[tuple[int, ...], ...] = field(repr=False)

    def value(self, k: int, n: int) -> int:
        """c_k(n); n < 0 returns 0, k outside [1, k_max] is an error."""
        row = self.row(k)
        if n < 0:
            return 0
        if n >= self.order:
            raise ValueError(f"n = {n} outside table order {self.order}")
        return row[n]

    def row(self, k: int) -> tuple[int, ...]:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be in [1, {self.k_max}], got {k}")
        return self.rows[k - 1]

    def lines(self, sep: str = ",") -> Iterator[str]:
        """The header ``n,c1,...,ck`` and one line ``n,c_1(n),...`` per n,
        with fields joined by ``sep``."""
        yield sep.join(["n"] + [f"c{k}" for k in range(1, self.k_max + 1)])
        for n, cells in enumerate(zip(*self.rows)):
            yield sep.join(map(str, (n, *cells)))

    def write_csv(self, fp: IO[str]) -> None:
        fp.writelines(line + "\n" for line in self.lines())


def squares_table(k_max: int, order: int) -> SquaresTable:
    """Build c_k(n) for all k <= k_max, n < order: row k + 1 is row k times
    theta_+, an exact product of ZZ series."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    theta = theta_series(ThetaKind.POSITIVE_SQUARES, ZZ, order)
    row = theta
    rows = [tuple(theta.coeffs)]
    for _ in range(k_max - 1):
        row = row * theta
        rows.append(tuple(row.coeffs))
    return SquaresTable(k_max=k_max, order=order, rows=tuple(rows))


def c1_array(order: int) -> np.ndarray:
    """c_1(n) for n < order as int64: 1 at positive squares, else 0."""
    out = np.zeros(order, dtype=np.int64)
    out[[s for s, _ in theta_terms(ThetaKind.POSITIVE_SQUARES, order)]] = 1
    return out


def c2_array(order: int) -> np.ndarray:
    """c_2(n) for n < order as int64, via direct lattice enumeration."""
    out = np.zeros(order, dtype=np.int64)
    amax = math.isqrt(max(order - 1, 0))
    for a in range(1, amax + 1):
        rem = order - a * a
        if rem <= 1:
            break
        b = np.arange(1, math.isqrt(rem - 1) + 1, dtype=np.int64)
        np.add.at(out, a * a + b * b, 1)
    return out


def c1_c2_quadruple_check(order: int) -> list[IdentityCheck]:
    """Check c_1(n) = c_1(4n) and c_2(n) = c_2(4n) for 1 <= n < order.

    Dividing each square in a representation of 4n by 4 gives the bijection;
    the check recomputes both sides from tables of length 4*order.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    big = 4 * order
    checks = []
    for name, arr in (("c1(n) = c1(4n)", c1_array(big)), ("c2(n) = c2(4n)", c2_array(big))):
        n = np.arange(1, order, dtype=np.int64)
        bad = np.nonzero(arr[n] != arr[4 * n])[0]
        first = int(n[bad[0]]) if bad.size else None
        checks.append(IdentityCheck(name=name, order=order, first_difference=first))
    return checks
