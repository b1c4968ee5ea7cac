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
M a power of two (the twelve families mod 4 or 8, 95.8% of the cases) it
reads only the preimages of the table's sparse set of such arguments, when
that set times the number of maps is smaller than the progression; other
families read strided views.  At budget 4*10^6 the 29-family sweep takes
about 19 ms, against 45 ms reading every case (2-vCPU Xeon VM).

Also here: the two-level dissection chain relating pbar(5n) mod 5 to theta
products, and zero-density reports for pbar modulo powers of 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .hecke import _legendre_table, is_odd_prime, legendre
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
    modulus: int
    budget: int
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
    if not infinite and not any(p % mod in residues for p in odd if is_odd_prime(p)):
        raise ValueError(f"prime axis p % {mod} in {residues} admits no odd prime")
    return (p for p in odd if is_odd_prime(p) and p % mod in residues)


def _min_arg(family: CongruenceFamily, params: dict[str, int]) -> int:
    """Smallest nontrivially checked argument under this assignment.

    Uses n = 0 when the lhs offset is positive (the n = 0 case already
    reads a nontrivial pbar value) and n = 1 otherwise, and takes the
    largest argument over all referenced maps since every map must stay
    within budget for an n to be checkable.
    """
    n0 = 0 if family.lhs.offset_value(params) > 0 else 1
    return max(m.evaluate(n0, params) for m in family.arg_maps())


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
) -> Iterator[dict[str, int]]:
    if not axes:
        if _min_arg(family, partial) <= budget:
            yield dict(partial)
        return
    axis, rest = axes[0], axes[1:]
    for v in _axis_values(axis):
        partial[axis.name] = v
        if _fits_with_minimal_rest(family, rest, partial, budget):
            yield from _axis_assignments(family, rest, partial, budget)
        elif not isinstance(axis, ChoiceAxis):
            break  # power and prime values only grow the arguments
    del partial[axis.name]


def _fits_with_minimal_rest(
    family: CongruenceFamily, rest: tuple, partial: dict[str, int], budget: int
) -> bool:
    filled = dict(partial)
    for axis in rest:
        filled[axis.name] = next(iter(_axis_values(axis)))
    return _min_arg(family, filled) <= budget


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


def _read(res, m: int, M: int, amap: ArgMap, params: dict, n0: int, count: int, at=None):
    """pbar(A(n)) mod M, n0 <= n < n0 + count, from a strided view of the
    residues mod m; only at the offsets ``at`` (n - n0) when given.  When
    M == m the view needs no reduction, and ``% M`` would raise: M need not
    fit the residues' dtype (m = 256 in uint8).  For M a power of two,
    ``& (M - 1)`` replaces ``% M``, which is about four times slower on
    narrow words."""
    start = amap.evaluate(n0, params)
    stride = amap.scale(params) * amap.step
    view = res[start : start + stride * (count - 1) + 1 : stride]
    if at is not None:
        view = view[at]
    if m == M:
        return view
    return view & (M - 1) if M & (M - 1) == 0 else view % M


def _nonzero_set(table: CoeffTable, res: np.ndarray, M: int) -> np.ndarray | None:
    """S_M, the sorted n < len(res) with res[n] % M != 0, for M a power of
    two, kept on the table; None when it would take more bytes than
    ``res``, as on a random table.  It is derived from a kept S_M' when M
    divides M', or else built in one pass in blocks of 2^16, so temporaries
    stay below 1 MB: ``np.flatnonzero`` reads a bool mask, as it took 0.6 ms
    on one at 4*10^6 against 6.1 ms on the narrow words."""
    memo = table.nonzero
    if M in memo:
        return memo[M]
    memo[M] = None
    for k, wider in memo.items():
        if wider is not None and k % M == 0:
            memo[M] = wider[(res[wider] & (M - 1)) != 0]
            return memo[M]
    limit, step = res.nbytes // np.dtype(np.intp).itemsize, 1 << 16
    mask = np.empty(min(step, len(res)), dtype=bool)
    found, size = [], 0
    for lo in range(0, len(res), step):
        block = res[lo : lo + step]
        hit = np.flatnonzero(np.not_equal(block & (M - 1), 0, out=mask[: len(block)]))
        size += len(hit)
        if size > limit:
            return None
        found.append(hit + lo)
    memo[M] = np.concatenate(found)
    return memo[M]


def _candidates(S: np.ndarray, maps: list[ArgMap], params: dict, n0: int, count: int):
    """The sorted offsets i < count at which some map's argument A(n0 + i)
    lies in S: the union of S's preimages under the argument maps."""
    parts = []
    for amap in maps:
        a = amap.scale(params) * amap.step
        b = amap.evaluate(n0, params)
        lo, hi = np.searchsorted(S, b), np.searchsorted(S, b + a * (count - 1), "right")
        d = S[lo:hi] - b
        parts.append(d[d % a == 0] // a)
    return np.unique(np.concatenate(parts))


def _periodic(pattern: np.ndarray, n0: int, count: int, at=None) -> np.ndarray:
    """pattern[(n0 + i) % p] for i < count, where p = len(pattern), as a
    tiling with no index vector; or only for the offsets i in ``at``."""
    if at is not None:
        return pattern[(n0 + at) % len(pattern)]
    shift = n0 % len(pattern)
    reps = -(-(shift + count) // len(pattern))
    return np.tile(pattern, reps)[shift : shift + count]


def verify(
    family: CongruenceFamily,
    table: CoeffTable,
    budget: int | None = None,
    max_counterexamples: int = 16,
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
    n = 0, squares and twice squares, about 1.7 sqrt(T) of T.  An
    assignment of ``count`` offsets then reads only the preimages of S_M
    under its maps when len(S_M) * len(maps) < count, and strided views of
    every offset otherwise.  Reports are the same either way.
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
    nonzero = _nonzero_set(table, res, M) if M & (M - 1) == 0 else None
    keeps: dict[int, np.ndarray] = {}
    if side is not None:
        # indexed by the symbol, so -1 reads the last entry
        kept_symbols = np.array([s in side.values for s in (0, 1, -1)])
    # the factor and the symbol are taken mod M, so with pbar(B(n)) read mod
    # M the rhs is unsigned, where % is faster than on mixed signs, and below
    # 2 (M - 1)^2 (M = 65536 needs uint64, not uint32)
    rhs_dtype = np.min_scalar_type(2 * M * M)
    factor = np.array([c % M for c in rel.factor], dtype=rhs_dtype)
    chi = None
    if rel.prime is not None:
        chi = (_legendre_table(rel.prime, negate=False) % M).astype(rhs_dtype)

    cases = 0
    violations = 0
    n_max_seen = 0
    arg_max_seen = 0
    counterexamples: list[tuple[int, int, int, int]] = []

    for params in _axis_assignments(family, tuple(family.axes), {}, budget):
        count = 1 - n0 + min(
            (budget // amap.scale(params) - amap.offset_value(params)) // amap.step
            for amap in maps
        )
        if count < 1:
            continue

        keep = None
        last = count - 1
        if side is not None:
            p = params[side.axis]
            if p not in keeps:
                keeps[p] = kept_symbols[_legendre_table(p, negate=True)]
            keep = _periodic(keeps[p], n0, count)
            kept = int(np.count_nonzero(keep))
            if not kept:
                continue
            last -= int(np.argmax(keep[::-1]))
            cases += kept
        else:
            cases += count

        # offsets i = n - n0 to read: all of them, or the preimages of S_M
        at = None
        if nonzero is not None and len(nonzero) * len(maps) < count:
            at = _candidates(nonzero, maps, params, n0, count)
        lhs = _read(res, m, M, family.lhs, params, n0, count, at)
        rhs = None
        if rel.rhs is not None or chi is not None:
            rhs = 0
            if rel.rhs is not None:
                rhs = _read(res, m, M, rel.rhs, params, n0, count, at).astype(rhs_dtype)
                rhs *= _periodic(factor, n0, count, at)
            if chi is not None:
                # uint64 times int64 words would give float64
                rhs = rhs + _periodic(chi, n0, count, at) * lhs.astype(rhs_dtype, copy=False)
            rhs %= M
        bad = lhs if rhs is None else lhs != rhs
        if keep is not None:
            bad = np.logical_and(bad, keep if at is None else keep[at])

        n_max_seen = max(n_max_seen, n0 + last)
        args = [amap.evaluate(n0 + last, params) for amap in maps]
        arg_max_seen = max(arg_max_seen, *args)
        found = int(np.count_nonzero(bad))
        if found:
            violations += found
            room = max(0, max_counterexamples - len(counterexamples))
            for j in np.flatnonzero(bad)[:room].tolist():
                i = j if at is None else int(at[j])
                arg = family.lhs.evaluate(n0 + i, params)
                rhs_j = 0 if rhs is None else int(rhs[j])
                counterexamples.append((n0 + i, arg, int(lhs[j]), rhs_j))
    return VerifyReport(
        family_id=family.id,
        statement=family.statement,
        modulus=M,
        budget=budget,
        n_min=n0,
        n_max=n_max_seen,
        max_argument=arg_max_seen,
        cases=cases,
        violations=violations,
        counterexamples=counterexamples,
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
    if fid == "planted-false":
        return planted_false_family()
    for fam in registry():
        if fam.id == fid:
            return fam
    valid = ", ".join([f.id for f in registry()] + ["planted-false"])
    raise KeyError(f"unknown family id {fid!r}; valid ids: {valid}")


# -- dissection chain --------------------------------------------------------


def verify_dissection_chain(
    order: int, table: CoeffTable | None = None
) -> list[IdentityCheck]:
    """Check the two-level mod-5 dissection of pbar(5n) against theta sides.

    Nine identities: pbar(5n) == phi(-q)^3 (mod 5) as series; the four
    progressions pbar(20n + 5i) against (phi^3, -phi^2 psi2, 2 phi psi2^2,
    -3 psi2^3); and the four progressions pbar(4(20n + 5i)) against
    (phi^3, +phi^2 psi2, 2 phi psi2^2, +3 psi2^3), where psi2 = psi(q^2).
    Needs pbar values through argument 80 * order - 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    need = 80 * order
    if table is None:
        table = overpartition_table(mod_ring(5), need, Method.THETA_INVERSION)
    res, _ = _residues(table, 5)
    if table.length < need:
        raise ValueError(
            f"chain at order {order} needs pbar through argument {need - 1}; "
            f"table has length {table.length}"
        )
    ring = mod_ring(5)
    p5 = Series(ring, res[:need:5])  # pbar(5n) for n < 16 * order

    checks = [
        compare(
            "pbar(5n) == phi(-q)^3 (mod 5)",
            p5,
            theta_series(ThetaKind.PHI_MINUS, ring, 16 * order) ** 3,
        )
    ]

    t1 = 4 * order
    phi = theta_series(ThetaKind.PHI_PLUS, ring, t1)
    psi2 = theta_series(ThetaKind.PSI, ring, t1).substitute_power(2)
    phi2 = phi * phi
    psi2sq = psi2 * psi2
    base = [phi2 * phi, phi2 * psi2, phi * psi2sq, psi2sq * psi2]
    side_names = ["phi^3", "phi^2 psi(q^2)", "phi psi(q^2)^2", "psi(q^2)^3"]

    first_signs = (1, -1, 2, -3)
    second_signs = (1, 1, 2, 3)
    for i in range(4):
        checks.append(
            compare(
                f"pbar(20n + {5 * i}) == {first_signs[i]} {side_names[i]} (mod 5)",
                p5.extract_progression(4, i),
                base[i].scalar_mul(first_signs[i]),
            )
        )
    p20 = p5.extract_progression(4, 0)
    for i in range(4):
        checks.append(
            compare(
                f"pbar(80n + {20 * i}) == {second_signs[i]} {side_names[i]} (mod 5)",
                p20.extract_progression(4, i),
                base[i].scalar_mul(second_signs[i]),
            )
        )
    return checks


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
    amap = ArgMap(offset=1)
    zeros = limit - np.count_nonzero(_read(res, m, modulus, amap, {}, 0, limit))
    return float(zeros / limit)
