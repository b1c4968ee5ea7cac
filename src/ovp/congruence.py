"""Registry of overpartition congruences and machinery to verify them.

Each family states a relation between pbar values along arithmetic
progressions, for example

    pbar(40n + 35) == 0                        (mod 40)
    pbar(5n)       == (-1)^n pbar(20n)         (mod 5)
    pbar(4^k 5 l^2 n) == 0                     (mod 5)   for primes
                         l == 3 (mod 5) and legendre(-n, l) = -1.

A family is pure data: a left argument map A(n) = base * factors * (step*n
+ offset), a relation pbar(A(n)) == c(n) pbar(B(n)) + legendre(n, p)
pbar(A(n)) with c periodic in n and either term optional, parameter axes
(power exponents, primes filtered by congruence conditions, finite residue
choices), and an optional side condition on n.  verify() sweeps every
parameter assignment and every n keeping all referenced arguments within a
budget, and reports counterexamples instead of raising.  A case can fail
only where some argument has pbar nonzero mod the family modulus M, so for
M a power of two (the twelve families mod 4 or 8, 95.8% of the cases) an
assignment with no side condition reads only the preimages of the table's
sparse set of such arguments, when that set times the number of maps is
smaller than the progression; a family's preimages are read in one
gathered pass.  Every other assignment reads strided views.  At budget
4*10^6 the 29-family sweep of a freshly loaded table takes about 12 ms
(2-vCPU Xeon VM).

Also here: the two-level dissection chain relating pbar(5n) mod 5 to theta
products, and zero-density reports for pbar modulo powers of 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Generator, Iterable, Iterator

import numpy as np

from .hecke import is_odd_prime, legendre
from .modfft import remainder
from .overpartition import CoeffTable, Method, overpartition_table
from .qseries import IdentityCheck, Series, compare, mod_ring
from .theta import ThetaKind, theta_series

# -- family description ------------------------------------------------------


@dataclass(frozen=True)
class AxisFactor:
    """One multiplicative factor of an argument map, driven by an axis.

    With ``base`` set the factor is base**value; otherwise it is
    value**power (used for prime axes, e.g. l^2).
    """

    axis: str
    base: int | None = None
    power: int = 1

    def evaluate(self, params: dict[str, int]) -> int:
        v = params[self.axis]
        return self.base**v if self.base is not None else v**self.power


@dataclass(frozen=True)
class ArgMap:
    """Argument map A(n) = base * (axis factors) * (step * n + offset)."""

    base: int = 1
    step: int = 1
    offset: int = 0
    offset_axis: str | None = None
    factors: tuple[AxisFactor, ...] = ()

    def scale(self, params: dict[str, int]) -> int:
        s = self.base
        for f in self.factors:
            s *= f.evaluate(params)
        return s

    def offset_value(self, params: dict[str, int]) -> int:
        return params[self.offset_axis] if self.offset_axis else self.offset

    def evaluate(self, n, params: dict[str, int]):
        return self.scale(params) * (self.step * n + self.offset_value(params))


@dataclass(frozen=True)
class PowerAxis:
    """Nonnegative integer exponent, enumerated 0, 1, ... within budget."""

    name: str


@dataclass(frozen=True)
class PrimeAxis:
    """Odd primes p with p % mod in residues, ascending within budget."""

    name: str
    mod: int
    residues: tuple[int, ...]


@dataclass(frozen=True)
class ChoiceAxis:
    """A fixed finite set of values."""

    name: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class SideCondition:
    """Keep the n with legendre(-n, l) in ``values``, for l the prime on
    ``axis``: (-1,) keeps the n with -n a nonresidue mod l, (1, -1) the n
    coprime to l, and (0,) the multiples of l."""

    axis: str
    values: tuple[int, ...] = (-1,)


@dataclass(frozen=True)
class Relation:
    """Right-hand side of a family, with B the ``rhs`` map:

        pbar(A(n)) == factor[n % len(factor)] * pbar(B(n))
                      + legendre(n, prime) * pbar(A(n))

    The B term is absent when ``rhs`` is None and the Legendre term when
    ``prime`` is None; with both absent, pbar(A(n)) == 0.  So (-1)^n is
    ``factor=(1, -1)``, and the Hecke split is ``prime=5``.
    """

    rhs: ArgMap | None = None
    factor: tuple[int, ...] = (1,)
    prime: int | None = None


@dataclass(frozen=True)
class CongruenceFamily:
    id: str
    statement: str
    modulus: int
    lhs: ArgMap
    relation: Relation = Relation()
    axes: tuple = ()
    side: SideCondition | None = None
    n_start: int = 0

    def arg_maps(self) -> list[ArgMap]:
        maps = [self.lhs]
        if self.relation.rhs is not None:
            maps.append(self.relation.rhs)
        return maps


# -- verification report -----------------------------------------------------


@dataclass
class VerifyReport:
    family_id: str
    statement: str
    n_min: int
    n_max: int
    max_argument: int
    cases: int
    violations: int
    counterexamples: list[tuple[int, int, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    @property
    def vacuous(self) -> bool:
        """True when the budget left no case to check; not a failure."""
        return self.cases == 0

    def to_json_dict(self) -> dict:
        return {
            "family": self.family_id,
            "anchor": self.statement,
            "range": {
                "n_min": self.n_min,
                "n_max": self.n_max,
                "max_argument": self.max_argument,
            },
            "cases": self.cases,
            "pass": self.ok,
            "vacuous": self.vacuous,
            "violations": self.violations,
            "counterexamples": [
                {"n": n, "arg": arg, "lhs": lhs, "rhs": rhs}
                for (n, arg, lhs, rhs) in self.counterexamples
            ],
        }


# -- parameter sweeps --------------------------------------------------------


def _primes_where(mod: int, residues: tuple[int, ...]) -> Iterator[int]:
    """Odd primes p with p % mod in residues, ascending.

    A residue coprime to mod admits infinitely many (Dirichlet); any other
    admits only divisors of mod.  An axis admitting none is rejected.
    """
    infinite = any(math.gcd(r, mod) == 1 for r in residues if 0 <= r < mod)
    odd = itertools.count(3, 2) if infinite else range(3, mod + 1, 2)
    # the residue test first: it spares most trial divisions
    if not infinite and not any(is_odd_prime(p) for p in odd if p % mod in residues):
        raise ValueError(f"prime axis p % {mod} in {residues} admits no odd prime")
    return (p for p in odd if p % mod in residues and is_odd_prime(p))


def _last_n(family: CongruenceFamily, params: dict[str, int], budget: int) -> int:
    """The largest n at which every map of this assignment stays within
    budget."""
    return min(
        (budget // m.scale(params) - m.offset_value(params)) // m.step
        for m in family.arg_maps()
    )


def _axis_values(axis) -> Iterable[int]:
    """Values of an axis in sweep order: 0, 1, ... for a power axis, the
    admitted primes ascending for a prime axis, the choices sorted."""
    if isinstance(axis, PowerAxis):
        return itertools.count()
    if isinstance(axis, PrimeAxis):
        return _primes_where(axis.mod, axis.residues)
    return sorted(axis.values)


def _axis_assignments(
    family: CongruenceFamily, axes: tuple, partial: dict[str, int], budget: int
) -> Generator[dict[str, int], None, bool]:
    """Every assignment of ``axes`` extending ``partial`` that fits the
    budget, and then whether there was one.  An assignment fits when some
    n checks a nontrivial argument within budget: n = 0 when the lhs offset
    is positive, else n = 1 (an offset of 0 starts n at 1).  Power and prime
    values only grow the arguments, so such an axis stops at its first value
    under which nothing fits; a choice axis tries all of its values."""
    if not axes:
        n_min = 0 if family.lhs.offset_value(partial) > 0 else 1
        fits = _last_n(family, partial, budget) >= n_min
        if fits:
            yield dict(partial)
        return fits
    axis, rest = axes[0], axes[1:]
    any_fit = False
    for v in _axis_values(axis):
        partial[axis.name] = v
        fits = yield from _axis_assignments(family, rest, partial, budget)
        any_fit |= fits
        if not fits and not isinstance(axis, ChoiceAxis):
            break
    del partial[axis.name]
    return any_fit


# -- verification ------------------------------------------------------------


def _residues(table: CoeffTable, modulus: int) -> tuple[np.ndarray, int]:
    """Narrow residues of the table mod some m that ``modulus`` divides, and m.
    An exact table is reduced mod ``modulus`` once, and the vector is kept on
    it: a sweep of 29 families at length 20,001 spent 75 of 94.6 ms
    reducing the same table again for every family."""
    if table.ring.is_exact:
        memo = table.residues
        if modulus not in memo:
            memo[modulus] = Series(mod_ring(modulus), table.values).coeffs
        return memo[modulus], modulus
    if table.ring.modulus % modulus != 0:
        raise ValueError(
            f"table modulus {table.ring.modulus} does not cover family "
            f"modulus {modulus}"
        )
    return table.values, table.ring.modulus


# Elements per block of the gathered pass and of the scan for S_M: an int64
# temporary holds 512 KB.
_GATHER_BLOCK = 1 << 16
# Counterexamples a report lists, the first by (assignment, n).
_COUNTEREXAMPLES = 16


def _reduce(words: np.ndarray, m: int, M: int) -> np.ndarray:
    """Residues mod M of residues mod m.  When M == m they need no
    reduction, and ``remainder`` would raise: M need not fit the words'
    dtype (m = 256 in uint8)."""
    return words if m == M else remainder(words, M)


def _read(res, m: int, M: int, start: int, stride: int, count: int) -> np.ndarray:
    """pbar(start + stride * i) mod M for i < count, from a strided view of
    the residues mod m."""
    return _reduce(res[start : start + stride * count : stride], m, M)


def _nonzero_set(table: CoeffTable, res: np.ndarray, M: int) -> np.ndarray | None:
    """S_M, the sorted n < len(res) with res[n] % M != 0, for M a power of
    two, kept on the table; None when it would take more bytes than
    ``res``, as on a random table.  It is derived from a kept S_M' when M
    divides M', or else built in one pass in blocks of ``_GATHER_BLOCK``,
    so temporaries stay below 1 MB: ``np.flatnonzero`` reads a bool mask,
    as it took 0.6 ms on one at 4*10^6 against 6.1 ms on the narrow words."""
    memo = table.nonzero
    if M in memo:
        return memo[M]
    memo[M] = None
    for k, wider in memo.items():
        if wider is not None and k % M == 0:
            memo[M] = wider[(res[wider] & (M - 1)) != 0]
            return memo[M]
    limit = res.nbytes // np.dtype(np.intp).itemsize
    mask = np.empty(min(_GATHER_BLOCK, len(res)), dtype=bool)
    found, size = [], 0
    for lo in range(0, len(res), _GATHER_BLOCK):
        block = res[lo : lo + _GATHER_BLOCK]
        hit = np.flatnonzero(np.not_equal(block & (M - 1), 0, out=mask[: len(block)]))
        size += len(hit)
        if size > limit:
            return None
        found.append(hit + lo)
    memo[M] = np.concatenate(found)
    return memo[M]


def _preimages(S: np.ndarray, rows: list[tuple], span: int) -> np.ndarray:
    """Keys r * span + i, sorted and distinct, of the offsets i < count at
    which some argument start + stride * i of row r = (starts, strides,
    count) lies in S: the union of S's preimages under each row's maps.
    The (row, map) pairs of one stride share a pass over S that looks each
    element's residue up among their starts; starts that collide mod the
    stride take another pass.  A pass reads S in blocks of
    ``_GATHER_BLOCK`` elements."""
    passes: dict[int, list[dict]] = {}
    for r, (starts, strides, count) in enumerate(rows):
        for b, a in zip(starts, strides):
            layers = passes.setdefault(a, [])
            layer = next((layer for layer in layers if b % a not in layer), None)
            if layer is None:
                layers.append(layer := {})
            layer[b % a] = (r, b, b + a * (count - 1))
    keys = [np.empty(0, dtype=np.int64)]
    for a, layers in passes.items():
        for layer in layers:
            residues = np.array(sorted(layer))
            row, first, last = np.array([layer[c] for c in residues.tolist()]).T
            lo, hi = np.searchsorted(S, (first.min(), last.max() + 1)).tolist()
            for at in range(lo, hi, _GATHER_BLOCK):
                x = S[at : min(hi, at + _GATHER_BLOCK)]
                c = remainder(x, a)
                k = np.searchsorted(residues, c).clip(max=len(residues) - 1)
                hit = residues[k] == c
                k, x = k[hit], x[hit]
                ok = (x >= first[k]) & (x <= last[k])
                k, x = k[ok], x[ok]
                keys.append(row[k] * span + (x - first[k]) // a)
    return np.unique(np.concatenate(keys))


def _periodic(pattern: np.ndarray, n0: int, count: int) -> np.ndarray:
    """pattern[(n0 + i) % p] for i < count, where p = len(pattern), as a
    tiling with no index vector."""
    shift = n0 % len(pattern)
    reps = -(-(shift + count) // len(pattern))
    return np.tile(pattern, reps)[shift : shift + count]


def _side_masks(primes: list[int], values: tuple) -> tuple:
    """A side condition's masks, end to end: for each distinct prime p of
    ``primes``, the mask over n % p of the n with legendre(-n, p) in
    ``values``; and per entry of ``primes`` the offset of its prime's mask.
    All primes share one pass: a table per prime took about 20 us, and
    pbar-4k-5l2-mod5 meets 40 primes in 96 assignments at 4*10^6."""
    sizes = np.array(sorted(set(primes)))
    starts = np.cumsum(sizes) - sizes
    offsets = dict(zip(sizes.tolist(), starts.tolist()))
    base = np.repeat(starts, sizes)
    mod = np.repeat(sizes, sizes)
    r = np.arange(len(base)) - base
    symbol = np.full(len(base), -1, dtype=np.int8)  # legendre(r, p)
    symbol[base + r * r % mod] = 1
    symbol[starts] = 0
    # by the symbol of -r, so that -1 reads the last entry
    kept_symbols = np.array([s in values for s in (0, 1, -1)])
    return kept_symbols[symbol[np.where(r, base + mod - r, base)]], [offsets[p] for p in primes]


def _mismatch(words, M: int, dtype, factor, chi, phase):
    """Where the relation fails, and its right side, given the words read
    mod M of each map (lhs first) and ``phase(pattern)``, the entries
    pattern[n % len(pattern)] at the n read.  With no right side the
    relation fails where the lhs is nonzero."""
    lhs = words[0]
    if factor is None and chi is None:
        return lhs, None
    rhs = 0
    if factor is not None:
        rhs = words[1].astype(dtype)
        rhs *= factor[0] if len(factor) == 1 else phase(factor)
    if chi is not None:
        # uint64 times int64 words would give float64
        rhs = rhs + phase(chi) * lhs.astype(dtype, copy=False)
    rhs = remainder(rhs, M)
    return lhs != rhs, rhs


def _gathered_blocks(rows: list[tuple], S: np.ndarray):
    """The gathered pass over the S_M preimages of these rows, in blocks of
    about ``_GATHER_BLOCK`` elements, in (row, offset) order.  A block is
    (ids, i, args): the row id and the offset i of each element, and per map
    the arguments start + stride * i it reads."""
    span = max(count for *_, count in rows)
    keys = _preimages(S, rows, span)
    firsts, strides = (np.array([row[f] for row in rows]).T for f in (0, 1))
    for at in range(0, len(keys), _GATHER_BLOCK):
        ids, i = np.divmod(keys[at : at + _GATHER_BLOCK], span)
        yield ids, i, [first[ids] + stride[ids] * i for first, stride in zip(firsts, strides)]


def verify(
    family: CongruenceFamily,
    table: CoeffTable,
    budget: int | None = None,
) -> VerifyReport:
    """Sweep all parameters and n of a family with arguments <= budget.

    The table must cover every index up to the budget; its ring must be
    exact or a residue ring whose modulus the family modulus divides.

    Every relation holds at an n whose arguments are all == 0 (mod M): both
    sides are then 0, as the factor and the Legendre symbol only multiply
    pbar values.  So a case can fail only where some argument lies in S_M,
    the arguments at which pbar is nonzero mod M.  For M a power of two S_M
    is kept per table (``_nonzero_set``), and it is sparse: by the k <= 2
    truncation of the 2-adic expansion, pbar(n) mod 8 is nonzero only at
    n = 0, squares and twice squares, about 1.7 sqrt(T) of T.

    Cases, n_max and max_argument are arithmetic per assignment, or read
    from its mask of kept n under a side condition.  With no side condition,
    an assignment of ``count`` offsets is read at the preimages of S_M under
    its maps when len(S_M) * len(maps) < count; one gathered pass reads pbar
    at start + stride * i for every such (assignment, offset) of the family
    at once.  Every other assignment reads strided views.  Reports are the
    same whichever way an assignment is read.
    """
    if budget is None:
        budget = table.length - 1
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if table.length <= budget:
        raise ValueError(
            f"budget {budget} requires table length >= {budget + 1}, "
            f"table has {table.length}"
        )
    M = family.modulus
    res, m = _residues(table, M)
    rel = family.relation
    side = family.side
    n0 = family.n_start
    maps = family.arg_maps()
    nonzero = _nonzero_set(table, res, M) if side is None and M & (M - 1) == 0 else None
    # the factor and the symbol are taken mod M, so with pbar(B(n)) read mod
    # M the rhs is unsigned, where % is faster than on mixed signs, and below
    # 2 (M - 1)^2 (M = 65536 needs uint64, not uint32)
    dtype = np.min_scalar_type(2 * M * M)
    factor = chi = None
    if rel.rhs is not None:
        factor = np.array([c % M for c in rel.factor], dtype=dtype)
    if rel.prime is not None:
        chi = np.array([legendre(r, rel.prime) % M for r in range(rel.prime)], dtype=dtype)

    # (assignment, starts, strides, count, side prime) per assignment
    todo = []
    for index, params in enumerate(_axis_assignments(family, tuple(family.axes), {}, budget)):
        scales = [amap.scale(params) for amap in maps]
        offsets = [amap.offset_value(params) for amap in maps]
        count = 1 - n0 + _last_n(family, params, budget)
        if count >= 1:
            starts = [s * (amap.step * n0 + o) for amap, s, o in zip(maps, scales, offsets)]
            strides = [s * amap.step for amap, s in zip(maps, scales)]
            todo.append((index, starts, strides, count, params[side.axis] if side else None))
    if side is not None and todo:
        masks, mask_at = _side_masks([a[4] for a in todo], side.values)

    cases = 0
    violations = 0
    n_max_seen = 0
    arg_max_seen = 0
    # (assignment, n, arg, lhs, rhs): the first _COUNTEREXAMPLES of each
    # strided assignment and of each gathered block
    found: list[tuple[int, int, int, int, int]] = []
    gathered: list[int] = []  # assignment of each row
    rows: list[tuple[list[int], list[int], int]] = []  # (starts, strides, count)
    for k, (index, starts, strides, count, p) in enumerate(todo):
        last, kept = count - 1, count
        if p is not None:
            keep = _periodic(masks[mask_at[k] : mask_at[k] + p], n0, count)
            kept = int(np.count_nonzero(keep))
            if not kept:
                continue
            last -= int(np.argmax(keep[::-1]))
        cases += kept
        n_max_seen = max(n_max_seen, n0 + last)
        arg_max_seen = max(arg_max_seen, *(b + a * last for b, a in zip(starts, strides)))

        if nonzero is not None and len(nonzero) * len(maps) < count:
            gathered.append(index)
            rows.append((starts, strides, count))
            continue
        words = [_read(res, m, M, b, a, count) for b, a in zip(starts, strides)]
        bad, rhs = _mismatch(
            words, M, dtype, factor, chi, lambda pattern: _periodic(pattern, n0, count)
        )
        if p is not None:
            bad = np.logical_and(bad, keep)
        hits = int(np.count_nonzero(bad))
        if hits:
            violations += hits
            for j in np.flatnonzero(bad)[:_COUNTEREXAMPLES].tolist():
                rhs_j = 0 if rhs is None else int(rhs[j])
                found.append((index, n0 + j, starts[0] + strides[0] * j, int(words[0][j]), rhs_j))

    for ids, i, args in _gathered_blocks(rows, nonzero) if rows else ():
        ns = n0 + i
        words = [_reduce(res[a], m, M) for a in args]
        bad, rhs = _mismatch(words, M, dtype, factor, chi, lambda pat: pat[ns % len(pat)])
        hits = np.flatnonzero(bad)
        violations += len(hits)
        hits = hits[:_COUNTEREXAMPLES]
        for j, n in zip(hits.tolist(), ns[hits].tolist()):
            rhs_j = 0 if rhs is None else int(rhs[j])
            found.append((gathered[ids[j]], n, int(args[0][j]), int(words[0][j]), rhs_j))
    found.sort()
    return VerifyReport(
        family_id=family.id,
        statement=family.statement,
        n_min=n0,
        n_max=n_max_seen,
        max_argument=arg_max_seen,
        cases=cases,
        violations=violations,
        counterexamples=[c[1:] for c in found[:_COUNTEREXAMPLES]],
    )


# -- the registry ------------------------------------------------------------


def _nonresidues(p: int) -> tuple[int, ...]:
    return tuple(r for r in range(1, p) if legendre(r, p) == -1)


def registry() -> list[CongruenceFamily]:
    """All congruence families this package verifies mechanically."""
    fams: list[CongruenceFamily] = [
        CongruenceFamily(
            id="pbar-4n3-mod8",
            statement="pbar(4n + 3) == 0 (mod 8)",
            modulus=8,
            lhs=ArgMap(step=4, offset=3),
        ),
        CongruenceFamily(
            id="pbar-40n35-mod40",
            statement="pbar(40n + 35) == 0 (mod 40)",
            modulus=40,
            lhs=ArgMap(step=40, offset=35),
        ),
        CongruenceFamily(
            id="pbar-40n35-mod5",
            statement="pbar(40n + 35) == 0 (mod 5)",
            modulus=5,
            lhs=ArgMap(step=40, offset=35),
        ),
        CongruenceFamily(
            id="pbar-9a-27n18-mod12",
            statement="pbar(9^a (27n + 18)) == 0 (mod 12)",
            modulus=12,
            lhs=ArgMap(step=27, offset=18, factors=(AxisFactor("a", base=9),)),
            axes=(PowerAxis("a"),),
        ),
    ]
    for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        m = 8 if ell % 8 in (1, 7) else 4
        fams.append(
            CongruenceFamily(
                id=f"nonresidue-{ell}",
                statement=(
                    f"pbar({ell}n + r) == 0 (mod {m}) "
                    f"for every quadratic nonresidue r mod {ell}"
                ),
                modulus=m,
                lhs=ArgMap(step=ell, offset_axis="r"),
                axes=(ChoiceAxis("r", _nonresidues(ell)),),
            )
        )
    fams += [
        CongruenceFamily(
            id="pbar-5n-vs-20n-mod5",
            statement="pbar(5n) == (-1)^n pbar(20n) (mod 5)",
            modulus=5,
            lhs=ArgMap(step=5),
            relation=Relation(rhs=ArgMap(step=20), factor=(1, -1)),
        ),
        CongruenceFamily(
            id="pbar-n-vs-4n-mod8",
            statement="pbar(n) == (-1)^n pbar(4n) (mod 8)",
            modulus=8,
            lhs=ArgMap(step=1),
            relation=Relation(rhs=ArgMap(step=4), factor=(1, -1)),
        ),
        CongruenceFamily(
            id="pbar-4k-40n35-mod40",
            statement="pbar(4^k (40n + 35)) == 0 (mod 40)",
            modulus=40,
            lhs=ArgMap(step=40, offset=35, factors=(AxisFactor("k", base=4),)),
            axes=(PowerAxis("k"),),
        ),
        CongruenceFamily(
            id="pbar-4k-5l2-mod5",
            statement=(
                "pbar(4^k 5 l^2 n) == 0 (mod 5) for primes l == 3 (mod 5) "
                "and n with legendre(-n, l) = -1"
            ),
            modulus=5,
            lhs=ArgMap(
                base=5,
                factors=(AxisFactor("k", base=4), AxisFactor("l", power=2)),
            ),
            axes=(PrimeAxis("l", mod=5, residues=(3,)), PowerAxis("k")),
            side=SideCondition(axis="l", values=(-1,)),
        ),
        CongruenceFamily(
            id="pbar-25n-vs-625n-mod5",
            statement="pbar(25n) == pbar(625n) (mod 5)",
            modulus=5,
            lhs=ArgMap(step=25),
            relation=Relation(rhs=ArgMap(step=625)),
        ),
        CongruenceFamily(
            id="pbar-4k-5odd-5n1-mod5",
            statement="pbar(4^k 5^(2i+3) (5n +/- 1)) == 0 (mod 5)",
            modulus=5,
            lhs=ArgMap(
                base=125,
                step=5,
                offset_axis="r",
                factors=(AxisFactor("k", base=4), AxisFactor("i", base=25)),
            ),
            axes=(PowerAxis("k"), PowerAxis("i"), ChoiceAxis("r", (1, 4))),
        ),
        CongruenceFamily(
            id="pbar-125-5n1-mod5",
            statement="pbar(125 (5n +/- 1)) == 0 (mod 5)",
            modulus=5,
            lhs=ArgMap(base=125, step=5, offset_axis="r"),
            axes=(ChoiceAxis("r", (1, 4)),),
        ),
        CongruenceFamily(
            id="pbar-500-5n1-mod5",
            statement="pbar(500 (5n +/- 1)) == 0 (mod 5)",
            modulus=5,
            lhs=ArgMap(base=500, step=5, offset_axis="r"),
            axes=(ChoiceAxis("r", (1, 4)),),
        ),
        CongruenceFamily(
            id="pbar-45-3n1-mod5",
            statement="pbar(45 (3n + 1)) == 0 (mod 5)",
            modulus=5,
            lhs=ArgMap(base=45, step=3, offset=1),
        ),
        CongruenceFamily(
            id="pbar-180-3n1-mod5",
            statement="pbar(180 (3n + 1)) == 0 (mod 5)",
            modulus=5,
            lhs=ArgMap(base=180, step=3, offset=1),
        ),
        CongruenceFamily(
            id="pbar-845-13n-mod5",
            statement=(
                "pbar(845 (13n + r)) == 0 (mod 5) "
                "for r in {2, 5, 6, 7, 8, 11} (nonresidues of 13)"
            ),
            modulus=5,
            lhs=ArgMap(base=845, step=13, offset_axis="r"),
            axes=(ChoiceAxis("r", (2, 5, 6, 7, 8, 11)),),
        ),
        CongruenceFamily(
            id="treneer-5l3-mod5",
            statement=(
                "pbar(5 l^3 n) == 0 (mod 5) for primes l == 4 (mod 5) "
                "and n coprime to l"
            ),
            modulus=5,
            lhs=ArgMap(base=5, factors=(AxisFactor("l", power=3),)),
            axes=(PrimeAxis("l", mod=5, residues=(4,)),),
            side=SideCondition(axis="l", values=(1, -1)),
        ),
        CongruenceFamily(
            id="lovejoy-osburn-3l3-mod3",
            statement=(
                "pbar(3 l^3 n) == 0 (mod 3) for odd primes l == 2 (mod 3) "
                "and n coprime to l"
            ),
            modulus=3,
            lhs=ArgMap(base=3, factors=(AxisFactor("l", power=3),)),
            axes=(PrimeAxis("l", mod=3, residues=(2,)),),
            side=SideCondition(axis="l", values=(1, -1)),
        ),
        CongruenceFamily(
            id="pbar-5-5n2-scaled-mod5",
            statement="pbar(5 (5n +/- 2)) == 3 pbar(5^(2i+3) (5n +/- 2)) (mod 5)",
            modulus=5,
            lhs=ArgMap(base=5, step=5, offset_axis="r"),
            relation=Relation(
                rhs=ArgMap(
                    base=125, step=5, offset_axis="r", factors=(AxisFactor("i", base=25),)
                ),
                factor=(3,),
            ),
            axes=(PowerAxis("i"), ChoiceAxis("r", (2, 3))),
        ),
        CongruenceFamily(
            id="pbar-5n-hecke-split-mod5",
            statement="pbar(5n) == pbar(125n) + legendre(n, 5) pbar(5n) (mod 5)",
            modulus=5,
            lhs=ArgMap(step=5),
            relation=Relation(rhs=ArgMap(step=125), prime=5),
        ),
    ]
    return fams


def planted_false_family() -> CongruenceFamily:
    """Deliberately false control: pbar(5n) == 0 (mod 5) fails at n = 1."""
    return CongruenceFamily(
        id="planted-false",
        statement="pbar(5n) == 0 (mod 5) [false control]",
        modulus=5,
        lhs=ArgMap(step=5),
        n_start=1,
    )


def family_by_id(fid: str) -> CongruenceFamily:
    families = {fam.id: fam for fam in [*registry(), planted_false_family()]}
    if fid not in families:
        raise KeyError(f"unknown family id {fid!r}; valid ids: {', '.join(families)}")
    return families[fid]


# -- dissection chain --------------------------------------------------------


_SIDE_NAMES = ("phi^3", "phi^2 psi(q^2)", "phi psi(q^2)^2", "psi(q^2)^3")
_FIRST_SIGNS = (1, -1, 2, -3)
_SECOND_SIGNS = (1, 1, 2, 3)


def _chain_sides(order: int) -> list[Series]:
    """The chain's sides mod 5 at length 4 * order: phi^3, phi^2 psi2,
    phi psi2^2 and psi2^3, where psi2 = psi(q^2)."""
    ring = mod_ring(5)
    t1 = 4 * order
    phi = theta_series(ThetaKind.PHI_PLUS, ring, t1)
    psi2 = theta_series(ThetaKind.PSI, ring, t1).substitute_power(2)
    phi2 = phi * phi
    psi2sq = psi2 * psi2
    return [phi2 * phi, phi2 * psi2, phi * psi2sq, psi2sq * psi2]


def verify_dissection_chain(
    order: int, table: CoeffTable | None = None
) -> list[IdentityCheck]:
    """Check the two-level mod-5 dissection of pbar(5n) against theta sides.

    Nine identities: pbar(5n) == phi(-q)^3 (mod 5) as series; the four
    progressions pbar(20n + 5i) against (phi^3, -phi^2 psi2, 2 phi psi2^2,
    -3 psi2^3); and the four progressions pbar(4(20n + 5i)) against
    (phi^3, +phi^2 psi2, 2 phi psi2^2, +3 psi2^3), where psi2 = psi(q^2).
    Needs pbar values through argument 80 * order - 1.

    The first identity is the next four read together, with no product at
    length 16 * order: by the 2-dissection phi(-q) = phi(q^4) - 2q psi(q^8),
    the class i mod 4 of phi(-q)^3 is (1, -6, 12, -8)[i] times the i-th side
    at q^4, and those factors are the first signs mod 5.  So it fails where
    one of them does, first at the least 4 * (first difference) + i.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    need = 80 * order
    if table is None:
        table = overpartition_table(mod_ring(5), need, Method.THETA_INVERSION)
    res, m = _residues(table, 5)
    if table.length < need:
        raise ValueError(
            f"chain at order {order} needs pbar through argument {need - 1}; "
            f"table has length {table.length}"
        )
    p5 = Series(mod_ring(5), _read(res, m, 5, 0, 5, 16 * order))  # pbar(5n), n < 16 * order
    sides = _chain_sides(order)
    levels = ((5, p5, _FIRST_SIGNS), (20, p5.extract_progression(4, 0), _SECOND_SIGNS))
    checks = [
        compare(
            f"pbar({4 * step}n + {step * i}) == {c} {_SIDE_NAMES[i]} (mod 5)",
            p.extract_progression(4, i),
            sides[i].scalar_mul(c),
        )
        for step, p, signs in levels
        for i, c in enumerate(signs)
    ]
    first = [4 * c.first_difference + i for i, c in enumerate(checks[:4]) if not c.ok]
    name = "pbar(5n) == phi(-q)^3 (mod 5)"
    return [IdentityCheck(name, p5.order, min(first, default=None)), *checks]


# -- density -----------------------------------------------------------------


def density_report(
    modulus: int, limit: int, table: CoeffTable | None = None
) -> float:
    """Fraction of 1 <= n <= limit with pbar(n) == 0 (mod modulus)."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if table is None:
        table = overpartition_table(mod_ring(modulus), limit + 1, Method.THETA_INVERSION)
    if table.length < limit + 1:
        raise ValueError(
            f"limit {limit} requires table length >= {limit + 1}, "
            f"table has {table.length}"
        )
    res, m = _residues(table, modulus)
    zeros = limit - np.count_nonzero(_read(res, m, modulus, 1, 1, limit))
    return float(zeros / limit)
