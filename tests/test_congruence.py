"""Congruence registry, sweep machinery, dissection chain, density reports."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from ovp import ZZ, Method, Series, congruence, mod_ring, overpartition_table
from ovp.congruence import (
    ArgMap,
    AxisFactor,
    ChoiceAxis,
    CongruenceFamily,
    PowerAxis,
    PrimeAxis,
    Relation,
    SideCondition,
    VerifyReport,
    _axis_assignments,
    _chain_sides,
    _nonzero_set,
    _preimages,
    _primes_where,
    _side_masks,
    density_report,
    family_by_id,
    planted_false_family,
    registry,
    verify,
    verify_dissection_chain,
)
from ovp.hecke import is_odd_prime, legendre
from ovp.overpartition import CoeffTable
from ovp.theta import ThetaKind, theta_series

@pytest.fixture(scope="module")
def table_mod120():
    # 120 = lcm of every family modulus (8, 40, 5, 12, 3)
    return overpartition_table(mod_ring(120), 10**4 + 1, Method.THETA_INVERSION)


# -- registry shape -----------------------------------------------------------


def test_registry_is_well_formed():
    fams = registry()
    assert len(fams) == 29
    ids = [f.id for f in fams]
    assert len(set(ids)) == len(ids)
    for fam in fams:
        assert fam.modulus in (3, 4, 5, 8, 12, 40)
        assert fam.statement
        assert fam.n_start == 0
        rel = fam.relation
        assert rel.factor and all(type(c) is int for c in rel.factor)
        # every registry factor and Legendre term comes with a right map
        if rel.rhs is None:
            assert rel.factor == (1,) and rel.prime is None
        assert rel.prime is None or is_odd_prime(rel.prime)
        if fam.side is not None:
            assert fam.side.values and set(fam.side.values) <= {-1, 0, 1}
            assert fam.side.axis in {a.name for a in fam.axes if isinstance(a, PrimeAxis)}


def test_family_by_id():
    for fam in registry():
        assert family_by_id(fam.id).id == fam.id
    assert family_by_id("planted-false").id == "planted-false"
    with pytest.raises(KeyError, match="pbar-4n3-mod8"):
        family_by_id("no-such-family")


def test_argument_maps():
    amap = ArgMap(base=5, step=3, offset=1, factors=(AxisFactor("k", base=4),))
    assert amap.evaluate(2, {"k": 2}) == 5 * 16 * 7
    assert amap.evaluate(0, {"k": 0}) == 5
    prime_map = ArgMap(base=5, factors=(AxisFactor("l", power=2),))
    assert prime_map.evaluate(3, {"l": 7}) == 5 * 49 * 3
    choice = ArgMap(step=13, offset_axis="r")
    assert choice.evaluate(2, {"r": 11}) == 37


# -- sweeps --------------------------------------------------------------------


def test_every_family_passes_small_budget(table_mod120):
    for fam in registry():
        report = verify(fam, table_mod120, budget=10**4)
        assert report.ok, (fam.id, report.counterexamples[:3])


def _reference_verify(family, table, budget, max_counterexamples=16):
    """verify() as a pure-Python loop over n through the family's ArgMaps."""
    M = family.modulus
    rel, side = family.relation, family.side
    maps = family.arg_maps()
    cases = violations = n_max = arg_max = 0
    counterexamples = []
    for params in _axis_assignments(family, tuple(family.axes), {}, budget):
        n = family.n_start
        while all(amap.evaluate(n, params) <= budget for amap in maps):
            n, this_n = n + 1, n
            if side is not None and legendre(-this_n, params[side.axis]) not in side.values:
                continue
            args = [amap.evaluate(this_n, params) for amap in maps]
            lhs = int(table.values[args[0]]) % M
            rhs = 0
            if rel.rhs is not None:
                rhs += rel.factor[this_n % len(rel.factor)] * int(table.values[args[1]])
            if rel.prime is not None:
                rhs += legendre(this_n, rel.prime) * lhs
            rhs %= M
            cases += 1
            n_max = max(n_max, this_n)
            arg_max = max(arg_max, *args)
            if lhs != rhs:
                violations += 1
                if len(counterexamples) < max_counterexamples:
                    counterexamples.append((this_n, args[0], lhs, rhs))
    return VerifyReport(
        family_id=family.id,
        statement=family.statement,
        n_min=family.n_start,
        n_max=n_max,
        max_argument=arg_max,
        cases=cases,
        violations=violations,
        counterexamples=counterexamples,
    )


SWEEP_FAMILIES = registry() + [
    planted_false_family(),
    CongruenceFamily(
        id="equal-negated-from-2",
        statement="pbar(5n) == -pbar(25n) (mod 5), n >= 2 [mostly false]",
        modulus=5,
        lhs=ArgMap(step=5),
        relation=Relation(rhs=ArgMap(step=25), factor=(-1,)),
        n_start=2,
    ),
    CongruenceFamily(
        id="alternating-from-3",
        statement="pbar(n) == (-1)^n pbar(4n) (mod 8), n >= 3",
        modulus=8,
        lhs=ArgMap(step=1),
        relation=Relation(rhs=ArgMap(step=4), factor=(1, -1)),
        n_start=3,
    ),
    CongruenceFamily(
        id="legendre-plus-from-7",
        statement="pbar(5 l^2 n) == 0 (mod 5), l == 3 (mod 5), legendre(-n, l) = 1, n >= 7",
        modulus=5,
        lhs=ArgMap(base=5, factors=(AxisFactor("l", power=2),)),
        axes=(PrimeAxis("l", mod=5, residues=(3,)),),
        side=SideCondition(axis="l", values=(1,)),
        n_start=7,
    ),
    CongruenceFamily(
        id="split-from-4",
        statement="pbar(3n + 1) == pbar(7n + 2) + legendre(n, 7) pbar(3n + 1) (mod 3), n >= 4",
        modulus=3,
        lhs=ArgMap(step=3, offset=1),
        relation=Relation(rhs=ArgMap(step=7, offset=2), prime=7),
        n_start=4,
    ),
    CongruenceFamily(
        id="coprime-mod8",
        statement="pbar(l n + 1) == 0 (mod 8), primes l == 2 (mod 3), n coprime to l",
        modulus=8,
        lhs=ArgMap(offset=1, factors=(AxisFactor("l", power=1),)),
        axes=(PrimeAxis("l", mod=3, residues=(2,)),),
        side=SideCondition(axis="l", values=(1, -1)),
    ),
    CongruenceFamily(
        id="split-mod8-from-5",
        statement="pbar(2n + 1) == pbar(3n) + legendre(n, 7) pbar(2n + 1) (mod 8), n >= 5",
        modulus=8,
        lhs=ArgMap(step=2, offset=1),
        relation=Relation(rhs=ArgMap(step=3), prime=7),
        n_start=5,
    ),
    CongruenceFamily(
        id="scaled-mod12",
        statement="pbar(2n) == 7 pbar(6n + 1) (mod 12), n >= 1",
        modulus=12,
        lhs=ArgMap(step=2),
        relation=Relation(rhs=ArgMap(step=6, offset=1), factor=(7,)),
        n_start=1,
    ),
    CongruenceFamily(
        id="alternating-split-mod8-from-3",
        statement=(
            "pbar(2n + 1) == (-1)^n 3 pbar(5n) + legendre(n, 5) pbar(2n + 1) (mod 8), "
            "n >= 3 [false]"
        ),
        modulus=8,
        lhs=ArgMap(step=2, offset=1),
        relation=Relation(rhs=ArgMap(step=5), factor=(3, -3), prime=5),
        n_start=3,
    ),
    CongruenceFamily(
        id="period-3-from-2",
        statement="pbar(5n) == c(n) pbar(20n) (mod 5), c(n) = (1, -1, 2)[n % 3], n >= 2 [false]",
        modulus=5,
        lhs=ArgMap(step=5),
        relation=Relation(rhs=ArgMap(step=20), factor=(1, -1, 2)),
        n_start=2,
    ),
    CongruenceFamily(
        id="multiples-of-l-from-1",
        statement="pbar(3 l n) == 0 (mod 3), primes l == 2 (mod 3), l | n, n >= 1 [false]",
        modulus=3,
        lhs=ArgMap(base=3, factors=(AxisFactor("l", power=1),)),
        axes=(PrimeAxis("l", mod=3, residues=(2,)),),
        side=SideCondition(axis="l", values=(0,)),
        n_start=1,
    ),
]


@pytest.mark.parametrize("budget", (1, 79, 257, 1237, 4999))
def test_sweep_matches_reference_loop(budget, pbar_exact, table_mod120, pbar_big):
    for table in (pbar_exact, table_mod120, pbar_big):
        for fam in SWEEP_FAMILIES:
            want = _reference_verify(fam, table, budget)
            assert verify(fam, table, budget=budget) == want, (fam.id, table.ring)


def _corrupted(table, kind):
    """A copy of a mod-120 table with values changed at arguments below 5001.

    "any": 60 arguments, each moved by a random nonzero residue;
    "mod8": 4 arguments in each nonresidue-l progression, each moved by 15k
    (0 < k < 8), which changes it mod 8, and mod 4 unless k = 4, but never
    mod 3 or 5; "words": every value a random residue, so S_8 and S_4 are
    dense.
    """
    rng = np.random.default_rng(120)
    values = np.array(table.values)
    if kind == "words":
        values = rng.integers(0, 120, size=len(values), dtype=np.uint8)
    elif kind == "any":
        hits = rng.choice(np.arange(1, 5001), size=60, replace=False)
        values[hits] = (values[hits] + rng.integers(1, 120, size=60)) % 120
    else:
        for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            progression = [x for x in range(1, 5001) if legendre(x, ell) == -1]
            hits = rng.choice(progression, size=4, replace=False)
            values[hits] = (values[hits] + 15 * rng.integers(1, 8, size=4)) % 120
    return CoeffTable("pbar", "corrupted", mod_ring(120), values)


def test_sweep_matches_reference_loop_on_corrupted_table(table_mod120, monkeypatch):
    # An assignment is read at its S_M preimages in the gathered pass or in
    # strided views; blocks of 64 and of 5 split the gathered pass many
    # times, so its counterexample caps are met across blocks.
    reads = collections.Counter()
    blocks, read = congruence._gathered_blocks, congruence._read

    def gathered(rows, S):
        reads.update(sparse=len(rows))
        return blocks(rows, S)

    monkeypatch.setattr(congruence, "_gathered_blocks", gathered)
    monkeypatch.setattr(congruence, "_read", lambda *a: reads.update(strided=1) or read(*a))
    nonresidue = {f"nonresidue-{ell}" for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)}
    for kind in ("any", "mod8", "words"):
        corrupted = _corrupted(table_mod120, kind)
        failing = set()
        reads.clear()
        for fam in SWEEP_FAMILIES:
            want = _reference_verify(fam, corrupted, 5000, 16)
            for block in (1 << 16, 64, 5):
                monkeypatch.setattr(congruence, "_GATHER_BLOCK", block)
                for cap in (0, 3, 16):
                    monkeypatch.setattr(congruence, "_COUNTEREXAMPLES", cap)
                    capped = dataclasses.replace(want, counterexamples=want.counterexamples[:cap])
                    got = verify(fam, corrupted, 5000)
                    assert got == capped, (kind, fam.id, block, cap)
            if not want.ok:
                failing.add(fam.id)
        assert reads["strided"]
        if kind == "words":
            # the nonzero sets would outgrow the table: no read is sparse
            assert corrupted.nonzero == {8: None, 4: None}
            assert not reads["sparse"]
        else:
            assert corrupted.nonzero[8] is not None
            assert reads["sparse"]
        if kind == "any":
            assert len(failing) >= 20
        if kind == "mod8":
            # a change by 15k is seen mod 4 or 8, never mod 3 or 5
            assert len(failing & nonresidue) >= 8
            false = {f.id for f in SWEEP_FAMILIES if not verify(f, table_mod120, 5000).ok}
            assert failing - false <= {f.id for f in SWEEP_FAMILIES if f.modulus % 4 == 0}


def test_preimages_are_the_offsets_whose_arguments_lie_in_the_nonzero_set(monkeypatch):
    rng = np.random.default_rng(8)
    # rows of (starts, strides, count): two maps of one row share a stride
    # and a start mod it, and so do two rows, so some take a second pass;
    # the rows of residues 0, 1, 2 and 3 mod 4 share one pass, though their
    # ranges differ
    rows = [
        ([3, 7], [4, 4], 200),
        ([11], [7], 140),
        ([7], [4], 57),
        ([96, 5], [24, 1], 1),
        ([0, 2], [2, 3], 90),
        ([1], [4], 30),
        ([2, 9], [4, 7], 190),
        ([404], [4], 50),
    ]
    top = max(
        b + a * (count - 1) for starts, strides, count in rows for b, a in zip(starts, strides)
    )
    span = max(count for _, _, count in rows)
    for density in (0.02, 0.3):
        S = np.flatnonzero(rng.random(top + 1) < density)
        S = np.union1d(S, [96, 3 + 4 * 199])
        members = set(S.tolist())
        want = [
            r * span + i
            for r, (starts, strides, count) in enumerate(rows)
            for i in range(count)
            if any(b + a * i in members for b, a in zip(starts, strides))
        ]
        for block in (1 << 16, 3):
            monkeypatch.setattr(congruence, "_GATHER_BLOCK", block)
            assert _preimages(S, rows, span).tolist() == want, (density, block)


@pytest.mark.parametrize("block", (1 << 16, 40))
def test_side_cases_count_the_kept_n(block, monkeypatch):
    # per assignment (p, count) from n0: the mask of prime p against the
    # scalar symbol, and the n0 <= n < n0 + count its tiling keeps against a
    # loop; all primes share one pass, whatever the gathered pass's block
    monkeypatch.setattr(congruence, "_GATHER_BLOCK", block)
    rng = np.random.default_rng(5)
    primes = [3, 5, 7, 13, 31, 3, 13, 97, 11, 61]
    for values in ((-1,), (1, -1), (0,), (1,)):
        masks, at = _side_masks(primes, values)
        for n0 in (0, 1, 7, 40):
            counts = rng.integers(1, 300, size=len(primes)).tolist()
            for p, count, a in zip(primes, counts, at):
                want = [legendre(-n, p) in values for n in range(p)]
                assert masks[a : a + p].tolist() == want
                keep = congruence._periodic(masks[a : a + p], n0, count)
                ns = [n for n in range(n0, n0 + count) if want[n % p]]
                assert (n0 + np.flatnonzero(keep)).tolist() == ns, (values, n0, p, count)


def test_strided_read_of_no_offsets_is_empty(table_mod120):
    # count - 1 steps from the start would slice res[0 : -4 : 5], nearly the
    # whole progression, at count = 0
    res = table_mod120.values
    assert congruence._read(res, 120, 5, 0, 5, 0).size == 0
    for start, stride, count in ((0, 5, 1), (3, 5, 7), (1, 1, 40), (2, 8, 1250)):
        want = [int(res[start + stride * i]) % 5 for i in range(count)]
        assert congruence._read(res, 120, 5, start, stride, count).tolist() == want


def test_nonzero_sets_mod_8_and_4_are_squares_and_twice_squares():
    # pbar(n) == (-1)^n (-2 c_1(n) + 4 c_2(n)) (mod 8) for n >= 1, and c_2(n)
    # is odd exactly when n = 2 a^2, so only n = 0, a^2 and 2 a^2 are nonzero
    # mod 8, and mod 4 only n = 0 and a^2
    table = overpartition_table(mod_ring(120), 10**5 + 1)
    squares = {a * a for a in range(317)}
    twice = {2 * a * a for a in range(224)}
    s8 = _nonzero_set(table, table.values, 8)
    assert s8.tolist() == sorted(squares | twice)
    s4 = _nonzero_set(table, table.values, 4)  # derived from s8
    assert s4.tolist() == sorted(squares)
    fresh = CoeffTable("pbar", "copy", mod_ring(120), table.values)
    assert np.array_equal(_nonzero_set(fresh, fresh.values, 4), s4)


def test_an_exact_table_is_reduced_once_per_modulus(monkeypatch, pbar_exact):
    # two sweeps of every family and the chain reduce a fresh exact table
    # once per distinct modulus, and report as the residue table does
    table = CoeffTable("pbar", "copy", ZZ, pbar_exact.values)
    reduced = []
    series = congruence.Series

    def spy(ring, coeffs):
        if coeffs is table.values:
            reduced.append(ring.modulus)
        return series(ring, coeffs)

    monkeypatch.setattr(congruence, "Series", spy)
    families = registry()
    budget = table.length - 1
    for _ in range(2):
        reports = [verify(family, table, budget) for family in families]
        assert all(check.ok for check in verify_dissection_chain(50, table))
    moduli = {family.modulus for family in families} | {5}
    assert sorted(reduced) == sorted(moduli)
    mod120 = overpartition_table(mod_ring(120), table.length)
    assert reports == [verify(family, mod120, budget) for family in families]


@pytest.mark.parametrize("m", (256, 65536, 2**31 - 1))
def test_sweep_family_modulus_equal_to_a_full_word_table(m, pbar_exact):
    # residues mod 256 fill uint8 (mod 65536, uint16); m itself does not fit.
    # Mod 2^31 - 1 the residues are int64 and the rhs sums reach 2^63.
    table = overpartition_table(mod_ring(m), 3000)
    families = [
        CongruenceFamily(
            id=f"zero-mod{m}",
            statement=f"pbar(2n + 1) == 0 (mod {m}) [false]",
            modulus=m,
            lhs=ArgMap(step=2, offset=1),
        ),
        CongruenceFamily(
            id=f"alternating-mod{m}",
            statement=f"pbar(n) == (-1)^n pbar(2n) (mod {m}) [false]",
            modulus=m,
            lhs=ArgMap(step=1),
            relation=Relation(rhs=ArgMap(step=2), factor=(1, -1)),
        ),
        CongruenceFamily(
            id=f"split-mod{m}",
            statement=f"pbar(2n + 1) == c(n) pbar(3n) + legendre(n, 7) pbar(2n + 1) (mod {m})",
            modulus=m,
            lhs=ArgMap(step=2, offset=1),
            relation=Relation(rhs=ArgMap(step=3), factor=(1, -1, 5), prime=7),
            n_start=500,  # where the first counterexamples read wide residues
        ),
    ]
    for fam in families:
        for t in (table, pbar_exact):
            want = _reference_verify(fam, t, 2999)
            assert verify(fam, t, 2999) == want, (fam.id, t.ring)
        assert not want.ok
    for fam in registry():  # moduli 4 and 8 divide m
        if m % fam.modulus == 0:
            assert verify(fam, table, 2999) == _reference_verify(fam, table, 2999)


def test_sweep_temporaries_stay_narrow(pbar_big):
    tracemalloc.start()
    try:
        report = verify(family_by_id("pbar-n-vs-4n-mod8"), pbar_big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.cases == 250_001
    # lhs and rhs each hold 250,001 values; an int64 rhs alone takes 2 MB
    assert peak < 2 * 10**6, peak


def test_legendre_table_matches_symbol():
    # the one vector table of the symbol: each mask of _side_masks, per value
    for p in filter(is_odd_prime, range(3, 200)):
        for s in (1, -1, 0):
            masks, at = _side_masks([p], (s,))
            want = [legendre(-r, p) == s for r in range(p)]
            assert at == [0] and masks.tolist() == want, (p, s)


def test_axis_assignment_budgets():
    fam = family_by_id("pbar-4k-40n35-mod40")
    assignments = list(_axis_assignments(fam, tuple(fam.axes), {}, 10**4))
    # 4^k * 35 <= 10^4 allows k = 0..4
    assert [a["k"] for a in assignments] == [0, 1, 2, 3, 4]

    fam = family_by_id("pbar-4k-5l2-mod5")
    pairs = {
        (a["l"], a["k"])
        for a in _axis_assignments(fam, tuple(fam.axes), {}, 10**5)
    }
    assert {(3, 0), (3, 1), (13, 0)} <= pairs
    assert all(p % 5 == 3 for (p, _) in pairs)

    fam = family_by_id("pbar-845-13n-mod5")
    rs = [a["r"] for a in _axis_assignments(fam, tuple(fam.axes), {}, 10**5)]
    assert rs == [2, 5, 6, 7, 8, 11]


def test_offset_zero_choice_does_not_hide_later_assignments(table_mod120):
    # pbar(4^k (5n + r)) for r in {0, 1}: at k = 3 and budget 100 the choice
    # r = 0 fits no n >= 1, yet r = 1 fits n = 0 (argument 64)
    fam = CongruenceFamily(
        id="offset-zero-choice",
        statement="pbar(4^k (5n + r)) for r in {0, 1}",
        modulus=5,
        lhs=ArgMap(step=5, offset_axis="r", factors=(AxisFactor("k", base=4),)),
        axes=(PowerAxis("k"), ChoiceAxis("r", (0, 1))),
    )
    budget = 100
    assignments = list(_axis_assignments(fam, tuple(fam.axes), {}, budget))
    assert {"k": 3, "r": 1} in assignments
    # every n >= 0 within budget of every (k, r) with a nonzero argument there
    cases = 0
    for k in range(8):
        for r in (0, 1):
            args = [4**k * (5 * n + r) for n in range(budget + 1)]
            args = [a for a in args if a <= budget]
            if any(args):
                cases += len(args)
    assert cases == 57
    assert verify(fam, table_mod120, budget).cases == cases


def test_prime_axis_scans_terminate():
    assert list(itertools.islice(_primes_where(4, (3,)), 4)) == [3, 7, 11, 19]
    # only the prime 5 is 0 mod 5, so the scan ends after it
    assert list(_primes_where(5, (0,))) == [5]
    with pytest.raises(ValueError, match="admits no odd prime"):
        _primes_where(4, (0,))
    fam = family_by_id("pbar-4k-5l2-mod5")
    axes = (PrimeAxis("l", mod=4, residues=(0, 2)),) + tuple(fam.axes[1:])
    with pytest.raises(ValueError, match="admits no odd prime"):
        list(_axis_assignments(fam, axes, {}, 10**4))


def test_alternating_relation_counts(pbar_big):
    report = verify(family_by_id("pbar-5n-vs-20n-mod5"), pbar_big, budget=10**5)
    assert report.ok
    # n is capped by the rhs map: 20n <= 10^5
    assert report.cases == 5001
    assert report.n_max == 5000
    assert report.max_argument == 10**5


def test_equal_relation_counts(pbar_big):
    report = verify(family_by_id("pbar-25n-vs-625n-mod5"), pbar_big, budget=10**5)
    assert report.ok and report.cases == 161 and report.n_max == 160


def test_scaled_and_split_relations(pbar_big):
    for fid in ("pbar-5-5n2-scaled-mod5", "pbar-5n-hecke-split-mod5"):
        report = verify(family_by_id(fid), pbar_big, budget=10**5)
        assert report.ok and report.cases > 0, fid


def test_constant_factor_is_applied(table_mod120):
    # pbar(25n) == pbar(625n) (mod 5), so a factor of 3 fails wherever
    # pbar(25n) is nonzero mod 5, first at n = 0 where both sides read pbar(0)
    fam = CongruenceFamily(
        id="x",
        statement="pbar(25n) == 3 pbar(625n) (mod 5) [false]",
        modulus=5,
        lhs=ArgMap(step=25),
        relation=Relation(rhs=ArgMap(step=625), factor=(3,)),
    )
    report = verify(fam, table_mod120, budget=10**4)
    assert not report.ok
    assert report.counterexamples[0] == (0, 0, 1, 3)


def test_planted_false_family_is_rejected(table_mod120):
    report = verify(planted_false_family(), table_mod120, budget=10**4)
    assert not report.ok
    assert report.violations == 1319
    assert report.cases == 2000
    assert report.counterexamples[0] == (1, 5, 4, 0)
    assert len(report.counterexamples) == congruence._COUNTEREXAMPLES == 16


def test_fourfold_composition_mod8(pbar_big):
    # applying pbar(n) == (-1)^n pbar(4n) (mod 8) twice: since 4n is even,
    # pbar(n) == (-1)^n pbar(16n) (mod 8)
    arr = np.asarray(pbar_big.values)
    n = np.arange(62501, dtype=np.int64)
    lhs = arr[n] % 8
    rhs16 = arr[16 * n] % 8
    rhs = np.where(n % 2 == 0, rhs16, (-rhs16) % 8)
    assert np.array_equal(lhs, rhs)


def test_verify_argument_validation(table_mod120):
    fam = family_by_id("pbar-4n3-mod8")
    with pytest.raises(ValueError, match="budget"):
        verify(fam, table_mod120, budget=0)
    with pytest.raises(ValueError, match="table length"):
        verify(fam, table_mod120, budget=10**5)
    t8 = overpartition_table(mod_ring(8), 1001)
    with pytest.raises(ValueError, match="does not cover"):
        verify(family_by_id("pbar-40n35-mod5"), t8, budget=1000)


def test_report_json_schema(table_mod120):
    report = verify(planted_false_family(), table_mod120, budget=5000)
    payload = report.to_json_dict()
    assert set(payload) == {
        "family", "anchor", "range", "cases", "pass", "vacuous", "violations",
        "counterexamples",
    }
    assert payload["family"] == "planted-false"
    assert payload["pass"] is False
    assert payload["vacuous"] is False
    assert payload["range"]["max_argument"] <= 5000
    assert payload["range"]["n_min"] == 1  # planted-false sweeps from n = 1
    first = payload["counterexamples"][0]
    assert first == {"n": 1, "arg": 5, "lhs": 4, "rhs": 0}

    ok = verify(family_by_id("pbar-4n3-mod8"), table_mod120, budget=5000)
    assert ok.to_json_dict()["counterexamples"] == []
    assert ok.to_json_dict()["range"]["n_min"] == 0


def test_custom_family_with_nonzero_start(table_mod120):
    fam = CongruenceFamily(
        id="x", statement="x", modulus=5, lhs=ArgMap(step=5), n_start=3
    )
    report = verify(fam, table_mod120, budget=1000)
    assert report.counterexamples[0][0] == 3  # sweep really starts at n = 3
    assert report.n_min == 3


# -- dissection chain ------------------------------------------------------------


def test_dissection_chain_small_order():
    checks = verify_dissection_chain(30)
    assert len(checks) == 9
    assert all(c.ok for c in checks)
    names = [c.name for c in checks]
    assert names[0] == "pbar(5n) == phi(-q)^3 (mod 5)"
    assert "pbar(20n + 5)" in names[2]
    assert "pbar(80n + 60)" in names[8]


@pytest.mark.parametrize("order", (1, 7, 100, 2500))
def test_chain_cube_is_the_interleaved_signed_sides(order):
    # identity 1 reads phi(-q)^3 from the 2-dissection, not from a cube
    sides = _chain_sides(order)
    cube = np.empty(16 * order, dtype=np.int64)
    for i, c in enumerate((1, -1, 2, -3)):
        assert sides[i].order == 4 * order
        cube[i::4] = sides[i].scalar_mul(c).coeffs
    want = theta_series(ThetaKind.PHI_MINUS, mod_ring(5), 16 * order) ** 3
    assert want.order == 16 * order
    assert Series(mod_ring(5), cube) == want


@pytest.mark.parametrize(
    "arg, failing",
    [
        (205, {
            "pbar(5n) == phi(-q)^3 (mod 5)": 41,
            "pbar(20n + 5) == -1 phi^2 psi(q^2) (mod 5)": 10,
        }),
        (280, {
            "pbar(5n) == phi(-q)^3 (mod 5)": 56,
            "pbar(20n + 0) == 1 phi^3 (mod 5)": 14,
            "pbar(80n + 40) == 2 phi psi(q^2)^2 (mod 5)": 3,
        }),
    ],
)
def test_dissection_chain_fails_where_its_progressions_do(table_mod120, arg, failing):
    # +24 changes pbar(arg) mod 5 only; identity 1 fails at arg / 5, as do
    # the progressions through arg at their own exponents
    values = table_mod120.values[:8000].copy()
    values[arg] = (int(values[arg]) + 24) % 120
    table = CoeffTable("pbar", "corrupted", mod_ring(120), values)
    checks = verify_dissection_chain(100, table)
    assert len(checks) == 9
    assert {c.name: c.first_difference for c in checks if not c.ok} == failing


def test_dissection_chain_with_provided_table(pbar_big):
    checks = verify_dissection_chain(100, pbar_big)
    assert all(c.ok for c in checks)


def test_dissection_chain_table_validation():
    t = overpartition_table(mod_ring(5), 2399)
    with pytest.raises(ValueError, match="chain at order"):
        verify_dissection_chain(30, t)
    with pytest.raises(ValueError):
        verify_dissection_chain(0)
    # a numpy integer order is an order like any other
    assert verify_dissection_chain(np.int64(2)) == verify_dissection_chain(2)


# -- density ----------------------------------------------------------------------


def test_density_report_against_exact_count():
    exact = overpartition_table(ZZ, 1001, Method.EULER_PRODUCT)
    assert density_report(64, 1000, exact) == 262 / 1000
    assert density_report(128, 1000, exact) == 88 / 1000
    # the mod-128 zero set is a subset of the mod-64 zero set
    assert density_report(128, 1000, exact) <= density_report(64, 1000, exact)


def test_density_report_self_builds_table():
    frac = density_report(8, 500)
    exact = overpartition_table(ZZ, 501, Method.EULER_PRODUCT)
    manual = sum(1 for n in range(1, 501) if exact.value(n) % 8 == 0) / 500
    assert frac == manual


def test_density_report_validation(pbar_big):
    with pytest.raises(ValueError):
        density_report(1, 100)
    with pytest.raises(ValueError):
        density_report(8, 0)
    with pytest.raises(ValueError, match="requires table length"):
        density_report(8, 100, overpartition_table(mod_ring(8), 50))
    # a covering residue table works even when its modulus is larger
    assert 0.0 <= density_report(64, 1000, pbar_big) <= 1.0
