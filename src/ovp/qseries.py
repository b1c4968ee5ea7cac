"""Truncated formal power series over ZZ or Z/m.

A series is a dense coefficient vector of a fixed truncation order T,
representing sum(c[n] * q^n for n < T), held in one read-only 1-D numpy
vector: of dtype object holding Python ints (arbitrary precision) over ZZ;
of ``residue_dtype(m)`` holding canonical residues over Z/m, the narrowest
unsigned word for m <= 2^16 (one byte mod 120) and int64 above.  Sums,
differences, negation, scalar products and reindexing are one numpy
expression for both rings; residues are widened to int64 for the signed
ones, for the duration of the operation only (``_wide``).  Dense products
and inversion mod m run in ``modfft``; other products share one kernel.
All operations truncate at the smaller operand order.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable

import numpy as np

from . import modfft

_MAGIC = b"QS01"
_HEADER_SIZE = 21  # magic, ring tag, modulus and order
_RING_TAG_MOD = 1
_MAX_MODULUS = 1 << 31


@dataclass(frozen=True)
class CoefficientRing:
    """Either ZZ (modulus None) or Z/m for 2 <= m < 2**31; a numpy integer
    modulus is stored as a Python int."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        m = self.modulus
        if m is None:
            return
        if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
            raise TypeError(f"modulus must be an int, got {m!r}")
        m = int(m)
        object.__setattr__(self, "modulus", m)
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        if m >= _MAX_MODULUS:
            raise ValueError(f"modulus must be < 2**31, got {m}")

    @property
    def is_exact(self) -> bool:
        return self.modulus is None

    def reduce(self, value: int) -> int:
        return int(value) if self.modulus is None else int(value) % self.modulus

    def __str__(self) -> str:
        return "ZZ" if self.modulus is None else f"Z/{self.modulus}"


ZZ = CoefficientRing()


def mod_ring(m: int) -> CoefficientRing:
    return CoefficientRing(m)


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of comparing two series (or coefficient sequences).

    ``first_difference`` is the smallest exponent where the two sides
    disagree, or None when they agree through ``order``.
    """

    name: str
    order: int
    first_difference: int | None

    @property
    def ok(self) -> bool:
        return self.first_difference is None

    def to_dict(self) -> dict:
        out = {"name": self.name, "order": self.order, "pass": self.ok}
        if self.first_difference is not None:
            out["first_difference"] = self.first_difference
        return out


def residue_dtype(m: int) -> np.dtype:
    """dtype of residues mod m in memory: the narrowest unsigned word for
    m <= 2^16; int64 above, where callers of wide tables (library checks)
    do signed arithmetic on the residues directly."""
    return np.dtype(np.min_scalar_type(m - 1) if m <= 1 << 16 else np.int64)


def _residue_vector(coeffs, m: int) -> np.ndarray:
    """Canonical residues of integer coefficients mod m, as a read-only
    vector of ``residue_dtype(m)``.  Input already of that dtype and in
    [0, m) is not copied: the result is a read-only view of it."""
    arr = np.asarray(coeffs)
    if arr.dtype == object or arr.dtype.kind not in "iu":
        arr = np.array([int(c) % m for c in coeffs], dtype=np.int64)
    elif arr.size and ((arr.dtype.kind == "i" and int(arr.min()) < 0) or int(arr.max()) >= m):
        # unsigned words are never negative; uint64 values past 2^63 would wrap as int64
        wide = np.uint64 if arr.dtype.kind == "u" else np.int64
        arr = modfft.remainder(arr.astype(wide), m)
    arr = arr.astype(residue_dtype(m), copy=False).view()
    arr.flags.writeable = False
    return arr


def _wide(a: np.ndarray) -> np.ndarray:
    """Residues as int64: room for the sums, differences and products of
    two residues below 2^31 that the ring operations form.  Exact (object)
    vectors are returned unchanged, so their arithmetic stays in Python
    ints."""
    return a if a.dtype == object else a.astype(np.int64, copy=False)


class Series:
    """Truncated power series with ring-aware arithmetic.

    Equality compares coefficients up to the minimum of the two orders and
    requires identical rings; ``first_difference`` gives the exponent of the
    earliest mismatch for diagnostic reporting.  A residue vector passed in
    that already has the layout is kept as a read-only view, not copied.
    Exact coefficients passed in go through ``int()``; the results of
    ``Series``' own arithmetic are built by ``_of``, which skips that.
    """

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring: CoefficientRing, coeffs) -> None:
        if not isinstance(ring, CoefficientRing):
            raise TypeError(f"ring must be a CoefficientRing, got {ring!r}")
        object.__setattr__(self, "ring", ring)
        if ring.is_exact:
            data = np.fromiter(map(int, coeffs), dtype=object)
            data.flags.writeable = False
        else:
            data = _residue_vector(coeffs, ring.modulus)
        object.__setattr__(self, "_coeffs", data)

    @classmethod
    def _of(cls, ring: CoefficientRing, coeffs) -> "Series":
        """Series of coefficients this package's arithmetic computed.  Over
        ZZ they are Python ints already (a list, or an object vector that
        is not written to again), so the vector is only frozen, with no
        ``int()`` per entry; over Z/m the constructor reduces them as
        usual."""
        if not ring.is_exact:
            return cls(ring, coeffs)
        data = np.asarray(coeffs, dtype=object)
        data.flags.writeable = False
        series = cls.__new__(cls)
        object.__setattr__(series, "ring", ring)
        object.__setattr__(series, "_coeffs", data)
        return series

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- basic accessors -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs)

    @property
    def coeffs(self):
        """Read-only coefficient vector: dtype object holding Python ints
        over ZZ; canonical residues of ``residue_dtype(m)`` over Z/m, which
        is unsigned for m <= 2^16: widen it before signed arithmetic, since
        under numpy 2 ``-2 * coeffs`` raises on an unsigned dtype."""
        return self._coeffs

    def coefficient(self, n: int) -> int:
        if not 0 <= n < self.order:
            raise IndexError(f"exponent {n} outside [0, {self.order})")
        return int(self._coeffs[n])

    def nonzero_terms(self) -> list[tuple[int, int]]:
        idx = np.flatnonzero(self._coeffs)
        return list(zip(idx.tolist(), self._coeffs[idx].tolist()))

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(int(c)) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series({self.ring}, order={self.order}, [{head}{tail}])"

    # -- comparison ------------------------------------------------------

    def first_difference(self, other: "Series") -> int | None:
        """Smallest exponent where self and other differ, None if equal.

        Comparison runs through min(self.order, other.order); rings must
        match exactly.
        """
        if not isinstance(other, Series):
            raise TypeError("can only compare against another Series")
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        n = min(self.order, other.order)
        bad = np.flatnonzero(self._coeffs[:n] != other._coeffs[:n])
        return int(bad[0]) if bad.size else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.first_difference(other) is None

    __hash__ = None  # prefix equality is not hashable-consistent

    # -- ring arithmetic -------------------------------------------------

    def _binary_check(self, other: "Series") -> int:
        if not isinstance(other, Series):
            raise TypeError(f"expected Series, got {type(other).__name__}")
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        return min(self.order, other.order)

    def __add__(self, other: "Series") -> "Series":
        n = self._binary_check(other)
        return Series._of(self.ring, _wide(self._coeffs[:n]) + other._coeffs[:n])

    def __sub__(self, other: "Series") -> "Series":
        n = self._binary_check(other)
        return Series._of(self.ring, _wide(self._coeffs[:n]) - other._coeffs[:n])

    def __neg__(self) -> "Series":
        return Series._of(self.ring, -_wide(self._coeffs))

    def scalar_mul(self, c: int) -> "Series":
        # Over Z/m both factors are residues below 2^31, so products stay
        # below 2^62.
        return Series._of(self.ring, _wide(self._coeffs) * self.ring.reduce(c))

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            return self.scalar_mul(int(other))
        n = self._binary_check(other)
        data = _mul(self._coeffs, other._coeffs, n, self.ring.modulus)
        return Series._of(self.ring, data)

    def __rmul__(self, other):
        if isinstance(other, (int, np.integer)):
            return self.scalar_mul(int(other))
        return NotImplemented

    def __pow__(self, e: int) -> "Series":
        if not isinstance(e, (int, np.integer)) or e < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {e!r}")
        result = None
        base = self
        e = int(e)
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return one(self.ring, self.order) if result is None else result

    # -- inversion -------------------------------------------------------

    def invert(self) -> "Series":
        """Multiplicative inverse to the same truncation order.

        The constant term must be a unit: +/-1 over ZZ, coprime to m over
        Z/m.  Over ZZ the cost is O(T * nnz) in the number of nonzero terms
        of self; over Z/m it is O(T log T), by Newton iteration with exact
        float64 FFT products.  The call drops its own reference to self
        once the terms are read, so a series no caller holds is freed
        before the steps run.
        """
        if self.order == 0:
            raise ValueError("cannot invert a series of order 0")
        ring, a0, T = self.ring, int(self._coeffs[0]), self.order
        if ring.is_exact:
            if a0 not in (1, -1):
                raise ValueError(
                    f"constant term {a0} is not a unit in ZZ (need +1 or -1)"
                )
            # r[0] = a0 and r[n] = -sum(a0 * c * r[n - e]) over the terms
            # c q^e of self with 0 < e <= n, since 1/a0 = a0
            kernel = [(e, a0 * c) for e, c in self.nonzero_terms() if e > 0]
            del self
            r = [a0] + [0] * (T - 1)
            for n in range(1, T):
                s = 0
                for e, c in kernel:
                    if e > n:
                        break
                    s -= c * r[n - e]
                r[n] = s
            return Series._of(ring, r)
        # run holds none of a sparse vector (phi(-q)'s; see ``modfft.inverse``)
        run = modfft.inverse(self._coeffs, ring.modulus, self._coeffs.dtype)
        del self
        return Series._of(ring, run())

    # -- reindexing ------------------------------------------------------

    def substitute_power(self, d: int) -> "Series":
        """Return f(q^d) truncated to the same order."""
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"power must be a positive int, got {d!r}")
        d = int(d)
        data = np.zeros(self.order, dtype=self._coeffs.dtype)
        data[::d] = self._coeffs[: len(data[::d])]
        return Series._of(self.ring, data)

    def extract_progression(self, d: int, r: int) -> "Series":
        """Series of coefficients on the progression d*n + r.

        Result order is ceil((order - r) / d); coefficient n of the result
        is coefficient d*n + r of self.
        """
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"step must be a positive int, got {d!r}")
        if not isinstance(r, (int, np.integer)) or not 0 <= r < d:
            raise ValueError(f"residue must satisfy 0 <= r < {d}, got {r!r}")
        return Series._of(self.ring, self._coeffs[int(r) :: int(d)])

    def truncate(self, order: int) -> "Series":
        if not 0 <= order <= self.order:
            raise ValueError(f"truncation order {order} outside [0, {self.order}]")
        return Series._of(self.ring, self._coeffs[:order])

    def reduce_mod(self, m: int) -> "Series":
        """Map coefficients into Z/m.

        Defined for exact series and for residue series whose modulus is a
        multiple of m (the reduction is then a well-defined ring map).
        """
        target = CoefficientRing(m)
        if not self.ring.is_exact and self.ring.modulus % m != 0:
            raise ValueError(
                f"cannot reduce Z/{self.ring.modulus} series mod {m}: "
                f"{m} does not divide {self.ring.modulus}"
            )
        return Series(target, self._coeffs)  # the constructor reduces mod m

    # -- serialization ---------------------------------------------------

    def _json_head(self) -> dict:
        if self.ring.is_exact:
            return {"ring": "exact", "order": self.order}
        return {"ring": "mod", "modulus": self.ring.modulus, "order": self.order}

    def to_json_dict(self) -> dict:
        if self.ring.is_exact:
            coeffs = [str(c) for c in self._coeffs]
        else:
            coeffs = self._coeffs.tolist()
        return {**self._json_head(), "coeffs": coeffs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Series":
        obj = json.loads(text)
        kind = obj.get("ring")
        order = int(obj["order"])
        coeffs = obj["coeffs"]
        if len(coeffs) != order:
            raise ValueError(
                f"order field {order} does not match {len(coeffs)} coefficients"
            )
        if kind == "exact":
            return cls(ZZ, [int(c) for c in coeffs])
        if kind == "mod":
            return cls(CoefficientRing(int(obj["modulus"])), [int(c) for c in coeffs])
        raise ValueError(f"unknown ring tag {kind!r}")

    def to_bytes(self) -> bytes:
        """Binary form of a residue series: magic, ring tag, modulus, order,
        then one narrowest unsigned little-endian word per canonical residue
        (1, 2 or 4 bytes, so the width follows from the header).  Exact
        series have none, since coefficients may exceed 64 bits; they
        serialize through JSON."""
        if self.ring.is_exact:
            raise ValueError("exact series have no binary form; use to_json")
        m = self.ring.modulus
        words = np.ascontiguousarray(self._coeffs, dtype=_word(m))
        header = _MAGIC + struct.pack("<BQQ", _RING_TAG_MOD, m, len(words))
        return b"".join((header, words.data))

    @classmethod
    def from_bytes(cls, data: bytes | memoryview) -> "Series":
        """Series of a binary form (bytes, or a memoryview of them).  Words
        that are already the in-memory layout stay a read-only view of
        ``data``; they are copied only to widen them or to reduce words
        >= m."""
        if data[:4] != _MAGIC:
            raise ValueError(f"bad magic {bytes(data[:4])!r}, expected {_MAGIC!r}")
        if len(data) < _HEADER_SIZE:
            raise ValueError(
                f"payload holds {len(data)} bytes, "
                f"shorter than the {_HEADER_SIZE}-byte header"
            )
        tag, modulus, order = struct.unpack_from("<BQQ", data, 4)
        if tag != _RING_TAG_MOD:
            raise ValueError(f"unknown ring tag {tag}")
        ring = CoefficientRing(int(modulus))
        word = _word(ring.modulus)
        size = len(data) - _HEADER_SIZE
        if size != word.itemsize * order:
            raise ValueError(
                f"payload holds {size // word.itemsize} words, header promises {order}"
            )
        return cls(ring, np.frombuffer(data, dtype=word, count=order, offset=_HEADER_SIZE))


def _word(m: int) -> np.dtype:
    """Little-endian unsigned word of the binary form for residues mod m."""
    return np.dtype(np.min_scalar_type(m - 1)).newbyteorder("<")


def write_coeffs(fp: IO[str], series: Series, fmt: str, **extra) -> None:
    """Write the coefficients of ``series`` to ``fp`` one block at a time.

    ``fmt`` is "text" (comma-separated on one line), "csv" (``n,value`` rows
    under that header) or "json" (the ``extra`` fields, then
    ``to_json_dict()``, as ``json.dumps(..., indent=2)`` would write them).
    Text and JSON end without a newline.  The vector is converted to Python
    ints 4096 coefficients at a time, never all at once.
    """
    coeffs = series.coeffs
    blocks = (coeffs[i : i + 4096].tolist() for i in range(0, len(coeffs), 4096))
    if fmt == "csv":
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["n", "value"])
        writer.writerows(enumerate(chain.from_iterable(blocks)))
        return
    head, tail, sep, item = "", "", ",", str
    if fmt == "json":
        text = json.dumps({**extra, **series._json_head(), "coeffs": []}, indent=2)
        if not series.order:
            fp.write(text)
            return
        head, tail = text.rsplit("[]", 1)
        head, tail, sep = head + "[\n    ", "\n  ]" + tail, ",\n    "
        if series.ring.is_exact:
            item = '"{}"'.format
    elif fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    fp.write(head)
    for i, block in enumerate(blocks):
        fp.write((sep if i else "") + sep.join(map(item, block)))
    fp.write(tail)


# -- construction ----------------------------------------------------------


def series_from_terms(
    ring: CoefficientRing, order: int, terms: Iterable[tuple[int, int]]
) -> Series:
    """Build a series of the given order from sparse (exponent, value) terms.

    Exponents must be distinct and lie in [0, order).
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive int, got {order!r}")
    data = np.zeros(order, dtype=object if ring.is_exact else residue_dtype(ring.modulus))
    seen = set()
    for e, c in terms:
        e = int(e)
        if not 0 <= e < order:
            raise ValueError(f"exponent {e} outside [0, {order})")
        if e in seen:
            raise ValueError(f"duplicate exponent {e}")
        seen.add(e)
        data[e] = ring.reduce(c)
    return Series._of(ring, data)


def zero(ring: CoefficientRing, order: int) -> Series:
    return Series(ring, [0] * order)


def one(ring: CoefficientRing, order: int) -> Series:
    return Series(ring, [1] + [0] * (order - 1)) if order else Series(ring, [])


def compare(name: str, a: Series, b: Series) -> IdentityCheck:
    """Package a prefix comparison of two series as an IdentityCheck."""
    return IdentityCheck(
        name=name,
        order=min(a.order, b.order),
        first_difference=a.first_difference(b),
    )


# -- multiplication kernels -------------------------------------------------


def _mul(a: np.ndarray, b: np.ndarray, n: int, m: int | None) -> np.ndarray:
    """Product of the coefficient vectors a and b through n terms, over ZZ
    (m None) or mod m: ``_shift_add`` over ZZ, and mod m when an operand
    has at most 4 isqrt(n) nonzeros; else ``modfft.product``.  Each
    operand's nonzeros are counted once (a square's once in all), and the
    sparser operand goes first, as ``_shift_add`` expects.
    """
    square = a is b
    a = a[:n]
    b = a if square else b[:n]
    nnz_a = int(np.count_nonzero(a))
    nnz_b = nnz_a if square else int(np.count_nonzero(b))
    if nnz_b < nnz_a:
        a, b, nnz_a, nnz_b = b, a, nnz_b, nnz_a
    if m is None or nnz_a <= 4 * math.isqrt(n):
        return _shift_add(a, b, n, m)
    return modfft.product(a, b, nnz_a, nnz_b, m, residue_dtype(m))


def _shift_add(a: np.ndarray, b: np.ndarray, n: int, m: int | None) -> np.ndarray:
    """Product of the n-term vectors a and b by shift-and-add over the
    terms of a, which the caller passes as the sparser one: object vectors
    over ZZ (m None), canonical residues mod m.

    Its terms, centred into (-m/2, m/2] mod m, are grouped by coefficient
    c, and one slice of c * b, formed once per group, is added per term.
    Each partial sum adds distinct products c * b[j], so it lies within the
    Cauchy bound B = sum |c| * max |b|, as do every c and b[j] when B > 0:
    the accumulator is the narrowest signed dtype holding B (and m, for the
    final remainder).  Past int64 it is Python ints over ZZ, and int64 mod m
    reduced every ``stride`` terms: from residues, sums stay below
    m + stride * cmax * max|b| <= 2^63, and stride >= 1 as cmax <= m/2 and
    max|b| < m < 2^31.  B = 0 returns before any c * b, which numpy 2
    rejects for a Python int c too wide for b's dtype.
    """
    exps = np.flatnonzero(a).tolist()
    by_coeff: dict[int, list[int]] = {}
    for e, c in zip(exps, a[exps].tolist()):
        if m is not None and c > m // 2:
            c -= m
        by_coeff.setdefault(c, []).append(e)
    bmax = int(np.abs(b).max(initial=0))
    bound = sum(abs(c) * len(es) for c, es in by_coeff.items()) * bmax
    if not bound:
        return np.zeros(n, dtype=object if m is None else np.int8)
    acc = np.min_scalar_type(-max(bound, m or 0) - 1)
    stride = None
    if acc == object and m is not None:
        acc = np.dtype(np.int64)
        stride = ((1 << 63) - m) // (max(map(abs, by_coeff)) * bmax)
    b = b.astype(acc, copy=False)
    out = np.zeros(n, dtype=acc)
    i = 0
    for c, es in by_coeff.items():
        cb = c * b
        for e in es:
            out[e:] += cb[: n - e]
            i += 1
            if i == stride:
                out = modfft.remainder(out, m)
                i = 0
    return out.astype(object, copy=False) if m is None else modfft.remainder(out, m)
