"""Headline guarantees of the package, one test per numbered claim.

Each test prints a single PASS/FAIL line (with wall time) directly to the
terminal, bypassing pytest's capture, so a full run leaves a visible
scoreboard.  Only the full registry sweep asserts a runtime bound; the
other timings are informational.

 1. The four overpartition counting methods agree (exact, n < 5000).
 2. The power-of-two expansion over square counts is exactly pbar(n),
    1 <= n <= 2000.
 3. The exponent-parity split of phi holds through order 10^4.
 4. pbar(5n) matches the cube of phi(-q) coefficientwise mod 5 through
    order 2 * 10^5, every n with 5n <= 10^6.
 5. phi(q)^3 and phi(-q)^3 are T(l^2)-eigenforms with eigenvalue l + 1
    for l in {3, 5, 7, 11, 13} at order 10^4, exact integers.
 6. The weight-3/2 coefficient recursion holds for l in {3, 5, 7} and
    every n with l^2 n < 5000.
 7. Every registry family passes a sweep with arguments up to 10^6,
    with the documented parameter coverage, in under 60 seconds.
 8. All eight progression extractions of the mod-5 dissection chain hold
    through order >= 2500.
 9. Negative controls: a planted false family is rejected at n = 1 and a
    corrupted theta coefficient is pinpointed at its exponent.
10. Zero-density fractions mod 64 and mod 128 increase monotonically
    across sweep sizes 10^3, 10^4, 10^5 (no fixed threshold asserted).
"""

from __future__ import annotations

import time

import numpy as np

from ovp import (
    ZZ,
    HeckeParams,
    Method,
    Series,
    ThetaKind,
    check_two_dissection,
    density_report,
    eigenform_check,
    hecke_coefficient_identity,
    mod_ring,
    overpartition_table,
    planted_false_family,
    registry,
    theta_series,
    verify,
    verify_dissection_chain,
)
from ovp.congruence import _axis_assignments, family_by_id

BIG_BUDGET = 10**6


def _scoreboard(capsys, index: int, ok: bool, elapsed: float, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {index}: {mark} ({elapsed:.1f}s){suffix}")


def test_acceptance_01_counting_methods_agree(capsys, pbar_exact):
    t0 = time.perf_counter()
    euler = overpartition_table(ZZ, 5000, Method.EULER_PRODUCT)
    ok = tuple(euler.values) == tuple(pbar_exact.values)
    enum = overpartition_table(ZZ, 31, Method.ENUMERATION)
    ok = ok and tuple(enum.values) == tuple(pbar_exact.values[:31])
    _scoreboard(capsys, 1, ok, time.perf_counter() - t0, "n < 5000 exact")
    assert ok


def test_acceptance_02_power_of_two_expansion_exact(capsys, pbar_exact):
    t0 = time.perf_counter()
    two_adic = overpartition_table(ZZ, 2001, Method.TWO_ADIC)
    bad = [n for n in range(2001) if two_adic.value(n) != pbar_exact.value(n)]
    _scoreboard(capsys, 2, not bad, time.perf_counter() - t0, "1 <= n <= 2000")
    assert not bad, bad[:5]


def test_acceptance_03_theta_parity_split(capsys):
    t0 = time.perf_counter()
    checks = check_two_dissection(10**4)
    ok = len(checks) == 2 and all(c.ok for c in checks)
    _scoreboard(capsys, 3, ok, time.perf_counter() - t0, "order 10^4")
    assert ok, [c.to_dict() for c in checks]


def test_acceptance_04_pbar_multiples_of_five_match_theta_cube(capsys, pbar_big):
    t0 = time.perf_counter()
    order = 2 * 10**5
    arr = np.asarray(pbar_big.values)
    lhs = Series(mod_ring(5), arr[::5][:order] % 5)
    rhs = theta_series(ThetaKind.PHI_MINUS, mod_ring(5), order) ** 3
    diff = lhs.first_difference(rhs)
    ok = diff is None and lhs.order == order
    _scoreboard(capsys, 4, ok, time.perf_counter() - t0, "order 2*10^5 mod 5")
    assert ok, f"first difference at q^{diff}"


def test_acceptance_05_theta_cubes_are_eigenforms(capsys, phi_cubed, phi_minus_cubed):
    t0 = time.perf_counter()
    reports = []
    for ell in (3, 5, 7, 11, 13):
        params = HeckeParams(k=3, N=16, ell=ell)
        for f in (phi_cubed, phi_minus_cubed):
            reports.append(eigenform_check(f, params, ell + 1))
    ok = len(reports) == 10 and all(r.ok for r in reports)
    _scoreboard(
        capsys, 5, ok, time.perf_counter() - t0, "l in {3,5,7,11,13}, order 10^4"
    )
    assert ok, [r.to_json_dict() for r in reports if not r.ok]


def test_acceptance_06_coefficient_recursion(capsys, phi_minus_cubed):
    t0 = time.perf_counter()
    cases = []
    for ell in (3, 5, 7):
        n = 0
        while ell * ell * n < 5000:
            cases.append(hecke_coefficient_identity(n, ell, phi_minus_cubed))
            n += 1
    ok = len(cases) == 859 and all(c.ok for c in cases)
    _scoreboard(
        capsys, 6, ok, time.perf_counter() - t0, f"{len(cases)} cases, l in {{3,5,7}}"
    )
    assert ok, [c for c in cases if not c.ok][:5]


def test_acceptance_07_registry_sweep_to_one_million(capsys):
    t0 = time.perf_counter()
    # 1920 covers every family modulus; built inside the timed region so
    # the reported time is the full from-scratch cost of the sweep
    table = overpartition_table(mod_ring(1920), BIG_BUDGET + 1, Method.THETA_INVERSION)
    reports = [verify(fam, table, budget=BIG_BUDGET) for fam in registry()]
    elapsed = time.perf_counter() - t0

    ok = len(reports) == 29 and all(r.ok and r.cases > 0 for r in reports)

    fam = family_by_id("pbar-4k-40n35-mod40")
    ks = {a["k"] for a in _axis_assignments(fam, tuple(fam.axes), {}, BIG_BUDGET)}
    ok = ok and {0, 1, 2} <= ks

    fam = family_by_id("pbar-4k-5l2-mod5")
    pairs = {
        (a["l"], a["k"]) for a in _axis_assignments(fam, tuple(fam.axes), {}, BIG_BUDGET)
    }
    ok = ok and {(3, 0), (3, 1), (13, 0)} <= pairs

    fam = family_by_id("pbar-4k-5odd-5n1-mod5")
    kis = {
        (a["k"], a["i"]) for a in _axis_assignments(fam, tuple(fam.axes), {}, BIG_BUDGET)
    }
    ok = ok and {(0, 0), (1, 0)} <= kis

    fam = family_by_id("pbar-845-13n-mod5")
    rs = sorted(a["r"] for a in _axis_assignments(fam, tuple(fam.axes), {}, BIG_BUDGET))
    ok = ok and rs == [2, 5, 6, 7, 8, 11]

    total_cases = sum(r.cases for r in reports)
    ok = ok and elapsed < 60.0
    _scoreboard(
        capsys, 7, ok, elapsed, f"29 families, {total_cases} cases, args <= 10^6"
    )
    assert all(r.ok for r in reports), [
        (r.family_id, r.counterexamples[:2]) for r in reports if not r.ok
    ]
    assert all(r.cases > 0 for r in reports)
    assert {0, 1, 2} <= ks
    assert {(3, 0), (3, 1), (13, 0)} <= pairs
    assert {(0, 0), (1, 0)} <= kis
    assert rs == [2, 5, 6, 7, 8, 11]
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_acceptance_08_dissection_chain(capsys, pbar_big):
    t0 = time.perf_counter()
    checks = verify_dissection_chain(2500, pbar_big)
    extractions = checks[1:]
    ok = (
        len(extractions) == 8
        and all(c.ok for c in checks)
        and all(c.order >= 2500 for c in extractions)
    )
    _scoreboard(
        capsys, 8, ok, time.perf_counter() - t0, "8 extractions, order >= 2500"
    )
    assert ok, [c.to_dict() for c in checks if not c.ok]


def test_acceptance_09_negative_controls(capsys, pbar_big):
    t0 = time.perf_counter()
    planted = verify(planted_false_family(), pbar_big, budget=10**4)
    planted_ok = (not planted.ok) and planted.counterexamples[0] == (1, 5, 4, 0)

    good = theta_series(ThetaKind.PHI_PLUS, ZZ, 10**4)
    data = list(good.coeffs)
    data[81] += 1
    corrupted = check_two_dissection(10**4, phi_plus=Series(ZZ, data))
    corrupt_ok = (not corrupted[0].ok) and corrupted[0].first_difference == 81

    ok = planted_ok and corrupt_ok
    _scoreboard(
        capsys, 9, ok, time.perf_counter() - t0,
        "planted family rejected at n=1; corruption located at q^81",
    )
    assert planted_ok, planted.to_json_dict()
    assert corrupt_ok, corrupted[0].to_dict()


def test_acceptance_10_zero_density_trend(capsys, pbar_big):
    t0 = time.perf_counter()
    limits = (10**3, 10**4, 10**5)
    fractions = {
        m: [density_report(m, limit, pbar_big) for limit in limits]
        for m in (64, 128)
    }
    ok = True
    for m in (64, 128):
        seq = fractions[m]
        ok = ok and all(a <= b for a, b in zip(seq, seq[1:]))
    ok = ok and all(fractions[128][i] <= fractions[64][i] for i in range(len(limits)))
    detail = "; ".join(
        f"mod {m}: " + "/".join(f"{x:.3f}" for x in fractions[m]) for m in (64, 128)
    )
    _scoreboard(capsys, 10, ok, time.perf_counter() - t0, detail)
    assert ok, fractions
