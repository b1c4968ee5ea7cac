"""Residue vectors mod m < 2^31 in numpy words: ``remainder``, and the
exact float64 FFT kernel behind two calls, ``product`` (of two residue
vectors) and ``inverse`` (of a power series, by Newton iteration).
``_limb_plan`` splits residues into limbs narrow enough that every rounded
convolution is the integer one, ``_FourStep`` lays out each transform and
its thread split, and ``_FFTProduct`` holds the spectra.  Nothing here
imports from the rest of the package: callers pass the output dtype.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable

import numpy as np


def remainder(words: np.ndarray, m: int) -> np.ndarray:
    """words % m, as words - (words // m) m (floor division, so negative
    words too), in a new contiguous array of their dtype, which must hold
    m.  numpy's ``%`` divides word by word, while ``//`` by a scalar is
    vectorised over contiguous words, so strided words are copied first."""
    m = words.dtype.type(m)
    if not words.flags.c_contiguous:
        words = words.copy()
    q = words // m
    q *= m
    return np.subtract(words, q, out=q)


def _fft_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, the sizes pocketfft transforms fastest."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            size = p << (-(-n // p) - 1).bit_length()
            if size < best:
                best = size
            p *= 3
        p5 *= 5
    return best


def _limb_plan(m: int, size: int, *operands: tuple[int, int]) -> tuple[int, list[int]]:
    """Limb width w and a limb count per operand that make every cyclic
    product mod m of two of the operands, of length N = ``size``, exact (a
    square passes its operand twice).

    Each operand is given by its measured bound (h, nnz): the largest
    |residue| it holds, centred into [-m/2, m/2], and its number of
    nonzeros.  Split into c = ceil((bits(h) + 1) / w) balanced limbs of w
    bits, so that h < 2^(cw-1), every limb has |limb| <= min(h, 2^(w-1)),
    and it is nonzero only where the operand is: a limb vector has 2-norm
    at most min(h, 2^(w-1)) sqrt(nnz).  For a radix-2 complex FFT
    convolution of x and y in float64, Percival (Math. Comp. 72, 2003)
    bounds the error by ||x|| ||y|| ((1+e)^(3n) (1+e sqrt(5))^(3n+1)
    (1+b)^(3n) - 1) for n = log2 N, unit roundoff e = 2^-53 and twiddle
    error b <= e: below 15 n e ||x|| ||y||.  An output of the product of
    operands with cx and cy limbs sums at most min(cx, cy) limb
    convolutions, so min(cx, cy) ||x_limb|| ||y_limb|| ceil(log2 N) <= 2^48
    would keep every error below 15/32, and rounding would recover the
    integer convolution.

    That proof covers radix-2 complex transforms only.  numpy's pocketfft
    runs real transforms with radix-2, 3, 4 and 5 passes on the 5-smooth
    sizes of ``_fft_len``, whose butterflies and twiddles carry other error
    constants.  The plan therefore holds min(cx, cy) ||x_limb|| ||y_limb||
    ceil(log2 N) <= 2^46, compared squared in integers, a factor 4 below
    the radix-2 limit (error bound 15/128 there); exactness of the
    transforms actually run rests on that reserve and on the tests against
    exact integer products.

    From ``_FOUR_STEP_MIN`` = 2^16 on, each transform is the four-step one
    of ``_FourStep``: sub-transforms of N1 and N2 points, ceil(log2 N1) +
    ceil(log2 N2) <= ceil(log2 N) + 1 stages of the same passes, and one
    multiply by a twiddle U[.] V[.] between them.  Each table entry is the
    cos and sin of an angle in [-pi, pi] with relative error below 3e, so
    it lies within 11e of its root, and the product U V and the multiply
    by it leave each twiddled value within 26e of exact: less than two
    stages of the bound's 15e.  The bound then reads as for ceil(log2 N) +
    3 stages, and since ceil(log2 N) >= 16 on that path, that is at most
    19/16 of what the plan charges: the reserve left is still above 3.  On
    random operands at the one-limb boundary the largest distance from an
    integer before rounding was about 1e-5 on both paths, the four-step one
    no larger.  Running each transform in place in its spectrum slot adds
    no multiply to that count: every source, a loaded vector, its nonzero
    terms or a slot's own parts, goes through the same exact limb split a
    column block at a time, and is transformed from the same values with
    zero rows after them; stage 1 skips only the columns of a sparse
    operand, whose spectra are exactly zero; and the second product of a
    Newton step reads e where the first left it, whole grid rows from its
    indices, with no phase multiplied into its spectrum.  By Cauchy-Schwarz
    a rounded limb convolution is then an integer below 2^46 in magnitude,
    well inside the |x| < 2^51 that ``_centre`` needs to reduce it mod m
    exactly.

    The limb counts change only at the widths ceil(B / c), B = bits(h) + 1,
    and between two of those a narrower width has the same counts and
    smaller norms.  So the plan tries those widths, widest first: the first
    that meets the bound gives every operand its fewest limbs, each as
    narrow as that count allows.  An operand with small entries is one limb
    whatever its neighbours need: phi(-q), whose entries are 1 and +-2, at
    every w >= 3, and its about sqrt(N) nonzeros give it a norm near
    2 N^(1/4), far below that of a dense operand's limbs.
    """
    lg = max(1, (size - 1).bit_length())
    bits = [h.bit_length() + 1 for h, _ in operands]
    for w in sorted({-(-b // c) for b in bits for c in range(1, b + 1)}, reverse=True):
        counts = [-(-b // w) for b in bits]
        norms2 = [min(h, 1 << (w - 1)) ** 2 * int(nnz) for h, nnz in operands]
        if all(
            (min(counts[i], counts[j]) * lg) ** 2 * norms2[i] * norms2[j] <= 1 << 92
            for i in range(len(operands))
            for j in range(i + 1, len(operands))
        ):
            return w, counts
    raise ValueError(f"no exact float64 FFT product mod {m} at size {size}")


def _centred_max(x: np.ndarray, m: int) -> int:
    """Largest |c| over the canonical residues x mod m, centred into
    [-m/2, m/2], widened ``_CHUNK`` entries at a time: an int64 copy of a
    dense f of T bytes would hold 8 T."""
    best = 0
    for i in range(0, len(x), _CHUNK):
        c = x[i : i + _CHUNK].astype(np.int64)
        best = max(best, int(np.minimum(c, m - c).max()))
    return best


def _centre(x: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """Integer-valued floats x, |x| < 2^51, reduced into [-m/2, m/2] into
    the float64 array out of the shape of x, which is returned.

    x - m rint(x fl(1/m)) is exact.  The product x fl(1/m) has relative
    error below 2^-52, so for |x| < 2^51 it lies within 1/(2m) of x/m, and
    1/(2m) is the least distance from x/m to a half-integer unless x/m is
    one.  Such a tie may round either way; both sides give |residue| = m/2.
    """
    q = np.multiply(x, 1 / m, out=out)
    np.rint(q, out=q)
    q *= m
    return np.subtract(x, q, out=q)


def _canonical(x: np.ndarray, m: int) -> np.ndarray:
    """Canonical residues in [0, m) of residues x in [-m/2, m/2], in place,
    by adding m times the mask x < 0: five times faster than a masked add."""
    x += (x < 0) * float(m)
    return x


# Transforms of fewer points are one plain rfft (N1 = 1), in one thread:
# below this size the four-step layout and the second thread did not pay.
_FOUR_STEP_MIN = 1 << 16
# Floats in the temporary of one column block of a four-step transform, and
# entries in one chunk of an elementwise pass: what a thread holds at once.
_CHUNK = 1 << 15
# The four-step stages and the elementwise passes around them split into
# one piece per CPU this process may run on, at most two, the most they
# were measured with; on one CPU every piece runs in the calling thread.
_THREADS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_POOL = None
_POOL_LOCK = threading.Lock()


def _parallel(fn, n: int, parts: int) -> None:
    """Run fn(lo, hi) over ``parts`` contiguous pieces that cover range(n):
    the first in this thread, the rest on a pool made at the first call
    that needs it.  numpy's FFTs and ufuncs release the GIL, so the pieces
    run at once, and each writes only its own slice.  It returns, or
    raises, only once every piece has ended."""
    global _POOL
    if parts <= 1:
        fn(0, n)
        return
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor  # 13 ms to import

            _POOL = ThreadPoolExecutor(parts - 1, thread_name_prefix="ovp-fft")
    cuts = [n * i // parts for i in range(parts + 1)]
    jobs = [_POOL.submit(fn, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        fn(cuts[0], cuts[1])
    finally:
        for job in jobs:
            job.result()


def _fft_split(size: int) -> tuple[int, int]:
    """(N1, N2) with N1 N2 = size, the shape of the four-step transform of
    ``size`` points: N2 the largest divisor of size at most sqrt(size),
    odd or even, and N1 = size / N2; (1, size) below ``_FOUR_STEP_MIN``.
    On the 5-smooth sizes of ``_fft_len`` N2 <= N1 <= 5 N2."""
    if size < _FOUR_STEP_MIN:
        return 1, size
    n2 = math.isqrt(size)
    while size % n2:
        n2 -= 1
    return size // n2, n2


def _roots(size: int, rows: np.ndarray, cols: int, parts: int) -> np.ndarray:
    """The table w^(r c), r in ``rows``, c < cols, of w = exp(-2 pi i /
    size), the root of numpy's forward transform.  Each exponent is reduced
    into (-size/2, size/2], so every angle lies in [-pi, pi]; the rows are
    split between ``parts`` threads."""
    roots = np.empty((len(rows), cols), dtype=np.complex128)

    def fill(lo: int, hi: int) -> None:
        e = rows[lo:hi, None] * np.arange(cols) % size
        e[e > size // 2] -= size
        angle = e * (-2 * math.pi / size)
        np.cos(angle, out=roots[lo:hi].real)  # half the time of np.exp(1j * angle)
        np.sin(angle, out=roots[lo:hi].imag)

    _parallel(fill, len(rows), parts)
    return roots


class _FourStep:
    """The real DFT of N = N1 N2 points in the four-step layout (Bailey,
    J. Supercomputing 4, 1990), split between ``_THREADS`` threads.

    Real x is read as the (N2, N1) grid X[a, b] = x[a N1 + b], and its
    spectrum y is kept as the (N2 // 2 + 1, N1) array S[c, d] = y[c + N2 d]:
    1. a batched rfft of length N2 down the columns of X, into S;
    2. a multiply of S[c, b] by the twiddle w^(c b), w = exp(-2 pi i / N);
    3. a batched complex fft of length N1 along the rows of S.
    Those frequencies, c <= N2 / 2, hold the half spectrum that real data
    needs, and the inverse runs the same stages in reverse with w^-(c b).
    The kernel only multiplies spectra pointwise, so S stays in this order
    and no transpose is made.  Every 1-D transform is short and fits in
    cache, where one rfft of 10^6 points streams 8 MB per radix pass.

    Stage 1 and its inverse run over blocks of ``cols`` columns, about
    ``_CHUNK`` floats, through a temporary of one block per thread, so
    each block reads and writes only its own columns of S, and no array of
    N floats is made where N1 > 1.  A forward transform runs on every
    column, or only on the columns a caller names (the rest of S is then
    zeros), with each block of its grid put in the temporary by a loader;
    an inverse one keeps only the grid rows r0..r1-1 that its caller
    reads, as rows 0..r1-r0-1 of the real parts of S, where a later
    forward transform can load them from.

    The twiddles come from two small tables, w^(c b) = U[c // B][b]
    V[c % B][b]; stages 2 and 3 run over blocks of B rows, each thread
    forming the twiddles of its block in a buffer of B rows.  Tables and
    two buffers hold R / B + 3 B rows of N1 entries for R = N2 // 2 + 1
    rows of S, least at B = sqrt(R / 3), so B = ``step`` is max(16,
    isqrt(R // 3)): 16 at 10^6 (R = 451, 1.4 MB), 36 at 10^8 (R = 4097,
    44 MB); below 16 rows the calls per block cost more.  Blocks divide
    between threads by count, so their rows differ by at most B; columns
    divide between threads too.  Below ``_FOUR_STEP_MIN`` N1 = 1: stage 1
    is one plain rfft, and there is nothing to twiddle.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.n1, self.n2 = _fft_split(size)
        self.rows = self.n2 // 2 + 1
        self.spec_len = self.rows * self.n1
        self.cols = min(self.n1, max(1, _CHUNK // self.n2))
        self.parts = _THREADS if self.n1 > 1 else 1
        if self.n1 > 1:
            self.step = max(16, math.isqrt(self.rows // 3))
            self.u = _roots(size, np.arange(0, self.rows, self.step), self.n1, self.parts)
            self.v = _roots(size, np.arange(self.step), self.n1, self.parts)

    def _twiddled_blocks(self, spec: np.ndarray, stage) -> None:
        """stage(r, block, twiddle) on each block of B rows of S from row r,
        with the twiddles w^(c b) of those rows in a buffer of the thread."""
        step = self.step

        def blocks(lo: int, hi: int) -> None:
            twiddle = np.empty((step, self.n1), dtype=np.complex128)
            for j in range(lo, hi):
                block = spec[j * step : (j + 1) * step]
                tw = np.multiply(self.v[: len(block)], self.u[j], out=twiddle[: len(block)])
                stage(j * step, block, tw)

        _parallel(blocks, len(self.u), self.parts)

    def forward(self, specs: list[np.ndarray], rows: int, load, held=None) -> None:
        """The spectra of grids into the (N2 // 2 + 1, N1) arrays ``specs``.
        Stage 1 runs on the sorted columns ``held``, or on every column when
        ``held`` is None; the other columns of S are zeros.  ``load(i, j,
        x)`` fills x, a (len(specs), rows, j - i) view of the thread's
        temporary, with the first rows of the grids' columns i..j-1 of that
        list, the later rows being zeros.  Each thread's blocks stop at the
        end of its range of columns.  Where N1 > 1 the temporary holds all
        N2 rows, those past ``rows`` zeroed once (rfft's own padding took
        1.7 to 2 times as long); at N1 = 1 only ``rows``, as N2 rows pass
        glibc's mmap threshold from 2^14 points on (a fifth slower)."""
        n2, step = self.n2, self.cols

        def columns(lo: int, hi: int) -> None:
            first, last = (lo, hi) if held is None else map(int, held.searchsorted((lo, hi)))
            if last - first < hi - lo:
                for spec in specs:
                    spec[:, lo:hi] = 0
            x = np.empty((len(specs), n2 if self.n1 > 1 else rows, step))
            x[:, rows:] = 0
            for i in range(first, last, step):
                j = min(i + step, last)
                c, d = (i, j) if held is None else (int(held[i]), int(held[j - 1]) + 1)
                load(i, j, x[:, :rows, : j - i])
                for spec, grid in zip(specs, x[:, :, : j - i]):
                    if d - c == j - i:
                        np.fft.rfft(grid, n2, axis=0, out=spec[:, c:d])
                    else:
                        spec[:, held[i:j]] = np.fft.rfft(grid, n2, axis=0)

        _parallel(columns, self.n1, self.parts)
        if self.n1 > 1:

            def stage(r: int, block: np.ndarray, twiddle: np.ndarray) -> None:
                block *= twiddle
                np.fft.fft(block, axis=1, out=block)

            for spec in specs:
                self._twiddled_blocks(spec, stage)

    def inverse(self, spec: np.ndarray, rows: tuple[int, int], fill, reduce) -> None:
        """In place, grid rows r0..r1-1 of the spectrum that ``fill(lo, hi)``
        first writes, entries lo..hi-1 of spec flattened, one block of rows
        at a time, so that each is still in cache when it is transformed.
        ``reduce(x, out, lo, hi)`` gets those rows of columns lo..hi-1 in a
        temporary x, which it may overwrite, and writes what is kept to the
        temporary out, which goes to the real parts of rows 0..r1-r0-1 of
        those columns.  The caller checks that r1 - r0 <= N2 // 2 + 1."""
        r0, r1 = rows
        if self.n1 > 1:

            def stage(r: int, block: np.ndarray, twiddle: np.ndarray) -> None:
                fill(r * self.n1, r * self.n1 + block.size)
                np.fft.ifft(block, axis=1, out=block)
                block *= np.conjugate(twiddle, out=twiddle)

            self._twiddled_blocks(spec, stage)
        else:
            fill(0, self.spec_len)

        def columns(lo: int, hi: int) -> None:
            # a block's columns, then what is kept of them: elementwise
            # passes on real parts in place took two to three times as long
            x = np.empty((self.n2 + r1 - r0, self.cols))
            for c in range(lo, hi, self.cols):
                d = min(c + self.cols, hi)
                block, out = x[: self.n2, : d - c], x[self.n2 :, : d - c]
                np.fft.irfft(spec[:, c:d], self.n2, axis=0, out=block)
                reduce(block[r0:r1], out, c, d)
                np.copyto(spec[: r1 - r0, c:d].real, out)

        _parallel(columns, self.n1, self.parts)


class _FFTProduct:
    """Exact cyclic products mod m through the transforms of ``_FourStep``,
    each in place in its spectrum slot.

    It holds two slots of spectra, (l0, l1) = ``limbs`` of them, in one
    block sized for the largest spectrum of the transform sizes ``sizes``
    (N1 (N2 // 2 + 1) entries, at most N / 2 + N1), and the twiddle tables
    of one size at a time: no float buffer.  Each slot records its
    operand's limb count.  Integer operands are read straight from their
    vectors, or from their nonzero terms, a column block at a time, and may
    be a whole transform long; ``product`` leaves its output in the real
    parts of slot 0, in the grid layout of ``_FourStep``, where the next
    forward transform of that slot reads it.  Every output a step reads is
    at most about half a transform long, so it fits there, as ``spectra``
    and ``product`` check.  The caller sets the limb width ``w`` from
    ``_limb_plan`` before it fills the slots.  Residues stay centred into
    [-m/2, m/2] between transforms, each rounded inverse transform reduced
    by ``_centre``, and become canonical (``residues``) only where they
    leave, ``_CHUNK`` entries at a time, split between threads as the
    transforms are.
    """

    def __init__(self, m: int, sizes: list[int], limbs: tuple[int, int]) -> None:
        self.m = m
        self.w = 0
        cap = max((n1 * (n2 // 2 + 1) for n1, n2 in map(_fft_split, sizes)), default=1)
        block = np.empty((sum(limbs), cap), dtype=np.complex128)
        self.slots = (block[: limbs[0]], block[limbs[0] :])
        self.limbs = [0, 0]
        self.plan = None

    def _plan(self, size: int) -> _FourStep:
        if self.plan is None or self.plan.size != size:
            self.plan = None  # free the old tables before the new are built
            self.plan = _FourStep(size)
        return self.plan

    def spectra(
        self, size: int, slot: int, limbs: int, lo: int, hi: int,
        x: np.ndarray | None = None, terms: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Put the spectra of centred residues at positions lo..hi-1, split
        into ``limbs`` limbs of w bits, in ``slot`` (lo = 0 for the first
        two sources):
        - with ``terms``, sorted positions below hi and their canonical
          residues, of those terms: stage 1 runs only on the columns that
          hold one, built from the terms, and nothing of length hi is read;
        - else with x, of the canonical residues x[:hi], loaded as whole
          grid rows, up to all N2;
        - else of those the slot's real parts hold, as ``product`` leaves
          them, with the positions below lo and from hi to the end of its
          grid row first zeroed; they fill at most N2 // 2 + 1 rows.
        The caller passes terms where they are few (``inverse``):
        at N1 = 1 loading x[:hi] took less time.
        """
        plan = self._plan(size)
        n1, m, radix = plan.n1, self.m, float(1 << self.w)
        rows = -(-hi // n1)
        fit = plan.rows if x is None and terms is None else plan.n2
        if rows > fit:
            raise ValueError(f"{rows} grid rows exceed the {fit} that fit")
        self.limbs[slot] = limbs
        specs = [spec[: plan.spec_len].reshape(plan.rows, n1) for spec in self.slots[slot][:limbs]]
        held = None
        if terms is not None:
            exps, values = terms
            row, col = np.divmod(exps, n1)
            order = col.argsort()
            row, col = row[order], col[order]
            centred = values[order].astype(np.float64)
            centred -= (centred > m // 2) * float(m)
            counts = np.bincount(col, minlength=n1)
            held = counts.nonzero()[0]
            # where each held column's terms end, and each term's place in held
            ends, place = counts[held].cumsum(), held.searchsorted(col)

            def fill(i: int, j: int, block: np.ndarray) -> None:
                t0, t1 = int(ends[i - 1]) if i else 0, int(ends[j - 1])
                block.fill(0)
                block[row[t0:t1], place[t0:t1] - i] = centred[t0:t1]

        elif x is not None:
            full = hi // n1
            whole = x[: full * n1].reshape(full, n1)
            if full < rows:
                tail = np.zeros(n1, dtype=x.dtype)
                tail[: hi - full * n1] = x[full * n1 : hi]

            def fill(i: int, j: int, block: np.ndarray) -> None:
                block[:full] = whole[:, i:j]
                if full < rows:
                    block[full] = tail[i:j]
                block -= (block > m // 2) * float(m)

        else:
            source = specs[0][:rows].real
            flat = source.reshape(-1)
            if lo:
                flat[:lo] = 0
            if hi < flat.size:
                flat[hi:] = 0

            def fill(i: int, j: int, block: np.ndarray) -> None:
                np.copyto(block, source[:, i:j])

        def load(i: int, j: int, digits: np.ndarray) -> None:
            fill(i, j, digits[0])
            # limb i keeps y - radix rint(y / radix) and the next limbs split
            # rint(y / radix), each step exact: radix is a power of 2
            for y, high in zip(digits, digits[1:]):
                y /= radix
                np.rint(y, out=high)
                y -= high
                y *= radix

        plan.forward(specs, rows, load, held)

    def product(self, b: int, size: int, lo: int, hi: int) -> np.ndarray:
        """Coefficients lo..hi-1 of the cyclic product of slots 0 and b.

        They are left as float residues centred into [-m/2, m/2] in the
        real parts of slot 0, grid rows lo // N1 to ceil(hi / N1) from its
        first row, and returned as that view, valid until the slot is next
        written.  Slot b is kept.  Slots of ca and cb limbs take ca + cb - 1
        inverse transforms, one per power of 2^w, combined by Horner's rule
        in 2^w; each step stays below 2^63.  The transform for the power k
        of 2^w runs in the spectrum of limb k of slot 0, its last use, and
        for k >= ca in one of min(2, cb - 1) more spectra of slot 0, in
        turn: the running sum sits in the real parts of the one before.

        The rows fit in a slot when hi <= N and hi - lo <= lo, as in a
        Newton step (and for lo = 0, hi <= (N + 1) / 2, as in ``product``
        of two vectors).  With lo = r0 N1 + s, s < N1, and R = N2 // 2 + 1 rows: if 2 lo <=
        N, ceil(hi / N1) - r0 <= r0 + ceil(2 s / N1), which exceeds R only
        if r0 = N2 // 2 and 2 s > N1, that is only if lo > N / 2; and if
        2 lo > N, r0 >= N2 // 2 and ceil(hi / N1) <= N2.
        """
        plan = self._plan(size)
        n1, m, ca, cb = plan.n1, self.m, self.limbs[0], self.limbs[b]
        r0, r1 = lo // n1, -(-hi // n1)
        if r1 - r0 > plan.rows:
            raise ValueError(f"{r1 - r0} grid rows exceed the {plan.rows} of a slot")
        spec_a, spec_b = self.slots[0], self.slots[b]
        if len(spec_a) < ca + min(2, cb - 1):
            raise ValueError("slot 0 has no spectrum free for the product")
        scale = pow(2, self.w, m)
        prev = None
        for k in reversed(range(ca + cb - 1)):
            # the pair (k, 0) first, while limb k of slot 0 is still unread
            pairs = [(i, k - i) for i in range(min(k, ca - 1), max(0, k - cb + 1) - 1, -1)]
            dst = spec_a[k if k < ca else ca + (k - ca) % 2]

            def fill(s: int, e: int, pairs=pairs, dst=dst) -> None:
                (i, j), *rest = pairs
                np.multiply(spec_a[i, s:e], spec_b[j, s:e], out=dst[s:e])
                for i, j in rest:
                    dst[s:e] += spec_a[i, s:e] * spec_b[j, s:e]

            def reduce(x: np.ndarray, out: np.ndarray, s: int, e: int, k=k, prev=prev) -> None:
                np.rint(x, out=x)
                if prev is None:
                    _centre(x, m, out)
                    return
                # |x| < 2^46 and the sum so far is a residue below 2^31
                acc = prev[: len(x), s:e].real.astype(np.int64)
                acc *= scale
                acc += x.astype(np.int64)
                out[...] = remainder(acc, m)
                if k == 0:
                    out -= (out > m // 2) * float(m)

            prev = dst[: plan.spec_len].reshape(plan.rows, n1)
            plan.inverse(prev, (r0, r1), fill, reduce)
        return spec_a[0, : (r1 - r0) * n1].real[lo - r0 * n1 : hi - r0 * n1]

    def residues(self, x: np.ndarray, out: np.ndarray, negate: bool = False) -> None:
        """Canonical residues of the centred floats x (of -x with
        ``negate``) into the integer vector out."""
        m = self.m

        def canonical(lo: int, hi: int) -> None:
            for s in range(lo, hi, _CHUNK):
                e = min(s + _CHUNK, hi)
                part = np.negative(x[s:e]) if negate else x[s:e].copy()
                out[s:e] = _canonical(part, m)

        _parallel(canonical, len(x), self.plan.parts)


def product(a: np.ndarray, b: np.ndarray, nnz_a: int, nnz_b: int, m: int, dtype) -> np.ndarray:
    """Product mod m of the canonical residue vectors a and b, both n long,
    through n terms, as a new vector of ``dtype``; nnz_a and nnz_b are their
    nonzero counts, and a square passes one vector twice.  The limb
    plan of their largest centred residues and counts makes it exact."""
    n = len(a)
    square = a is b
    size = _fft_len(2 * n - 1)
    bound_a = (_centred_max(a, m), nnz_a)
    bound_b = bound_a if square else (_centred_max(b, m), nnz_b)
    w, (ca, cb) = _limb_plan(m, size, bound_a, bound_b)
    # a product reads the limbs of slot b after it has spent those of slot
    # 0, so only a one-limb square runs in one slot
    shared = square and ca == 1
    kernel = _FFTProduct(m, [size], (ca + min(2, cb - 1), 0 if shared else cb))
    kernel.w = w
    kernel.spectra(size, 0, ca, 0, n, a)
    if not shared:
        kernel.spectra(size, 1, cb, 0, n, b)
    out = np.empty(n, dtype=dtype)
    kernel.residues(kernel.product(0 if shared else 1, size, 0, n), out)
    return out


def inverse(f: np.ndarray, m: int, dtype) -> Callable[[], np.ndarray]:
    """Inverse mod m of the residue vector f, whose constant term must be a
    unit, in two phases, so that ``Series.invert`` can let go of the
    series' vector between them: this call reads f and returns the
    Newton iteration, a function of no arguments that holds only what its
    steps read of f and returns the inverse as a new vector of ``dtype``.

    Newton iteration (Brent & Kung, J. ACM 25, 1978) lifts g = 1/f from
    mod q^k to mod q^k2, k2 <= 2k, by g <- g - q^k g e for e = [f g]_{k..k2}.
    Both products are middle products (Hanrot, Quercia & Zimmermann, 2004)
    of cyclic products of size N >= k2 that share the spectrum of g, and
    neither needs a float buffer.  The first, f g, wraps only onto
    coefficients below k.  Its outputs e stay where ``_FFTProduct.product``
    leaves them, from s = k mod N1 on in the real parts of f's slot (grid
    row k // N1 moves to the first row).  So the second product is g times
    q^s e: of its k2 + s - 1 terms, those past N wrap onto indices below s,
    as k2 <= N, and its outputs s..s + k2 - k - 1 are g e through k2 - k
    terms, the new terms negated.

    A four-step step (N1 > 1) whose f has at most 4 isqrt(k2) nonzeros
    below k2 (the sparse rule of ``qseries._mul``) gives ``spectra`` f's
    terms there, and its column stage runs only on the columns that hold
    one; every other step loads f[:k2] as whole rows.  So the iteration
    holds f's positions and values only if some step reads them, and keeps
    of f itself only the head that rows are loaded from: for phi(-q),
    which passes the rule at every four-step step, the terms and f below
    the last k2 of a one-column step (under 2^16 entries), and none of its
    T entries; a dense f is kept whole, with no positions.

    Each step plans its limbs from its own lengths and f's largest term, so
    early steps take fewer limbs than the last and phi(-q) takes one: a step
    whose g takes three (mod a prime near 2^31, T up to about 2 * 10^6) runs
    15 transforms where limbs sized for the worst case ran 19.
    """
    a0 = int(f[0])
    d = math.gcd(a0, m)
    if d != 1:
        raise ValueError(
            f"constant term {a0} is not invertible modulo {m}: gcd({a0}, {m}) = {d}"
        )
    T = len(f)
    lengths = [T]
    while lengths[-1] > 1:
        lengths.append((lengths[-1] + 1) // 2)
    lengths.reverse()
    # A step from k to k2 lifts g of k terms, with the j nonzeros of f below
    # k2 and e = [f g]_{k..k2} of k2 - k terms; g and e are dense.  The
    # spectra are one block for the most limbs a step takes: at 10^6 mod 120
    # one 8 MB array per slot made the transforms 20% slower than one block.
    steps = [(k, k2, int(np.count_nonzero(f[:k2]))) for k, k2 in zip(lengths, lengths[1:])]
    sizes = [_fft_len(k2) for _, k2, _ in steps]
    sparse = [
        _fft_split(size)[0] > 1 and j <= 4 * math.isqrt(k2)
        for (_, k2, j), size in zip(steps, sizes)
    ]
    exps = values = None
    if any(sparse):
        exps = np.flatnonzero(f)
        values = f[exps]
    f_max = _centred_max(f if values is None else values, m)
    head = max((k2 for (_, k2, _), terms in zip(steps, sparse) if not terms), default=0)
    if head < T:
        f = f[:head].copy()
    plans = [
        _limb_plan(m, size, (m // 2, k), (f_max, j), (m // 2, k2 - k))
        for (k, k2, j), size in zip(steps, sizes)
    ]
    # slot 0 takes f and then e, with the spectra the products spend beyond
    # them; slot 1 holds g through both products
    slot0 = max((max(cf, ce) + min(2, cg - 1) for _, (cg, cf, ce) in plans), default=1)
    slot1 = max((cg for _, (cg, _, _) in plans), default=1)

    def run() -> np.ndarray:
        g = np.empty(T, dtype=dtype)
        g[0] = pow(a0, -1, m)
        kernel = _FFTProduct(m, sizes, (slot0, slot1))
        for (k, k2, j), (w, (cg, cf, ce)), size, terms in zip(steps, plans, sizes, sparse):
            kernel.w = w
            kernel.spectra(size, 1, cg, 0, k, g[:k])
            kernel.spectra(size, 0, cf, 0, k2, f, (exps[:j], values[:j]) if terms else None)
            kernel.product(1, size, k, k2)
            s = k % kernel.plan.n1
            kernel.spectra(size, 0, ce, s, s + k2 - k)
            kernel.residues(kernel.product(1, size, s, s + k2 - k), g[k:k2], negate=True)
        return g

    return run
