"""Overpartition counts: four independent methods against oracles.

The brute-force oracle enumerates ordinary partitions and weights each by
2^(number of distinct parts), one factor 2 per part whose first occurrence
may be overlined.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from ovp import ZZ, Method, mod_ring, overpartition_table, squares_table, two_adic_value
from ovp.overpartition import (
    ENUMERATION_LIMIT,
    CoeffTable,
    canonical_method,
    mod8_residues,
    mod8_truncation,
)
from ovp.qseries import write_coeffs

PBAR_FIRST_11 = (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232)


def _brute_overpartition(n: int) -> int:
    def rec(remaining: int, max_part: int, distinct: int) -> int:
        if remaining == 0:
            return 2**distinct
        total = 0
        for part in range(min(remaining, max_part), 0, -1):
            used = part
            while used <= remaining:
                total += rec(remaining - used, part - 1, distinct + 1)
                used += part
        return total

    return rec(n, n, 0)


# -- method agreement ---------------------------------------------------------


@pytest.mark.parametrize("method", Method.ALL)
def test_first_values_every_method(method):
    table = overpartition_table(ZZ, 11, method)
    assert tuple(table.values) == PBAR_FIRST_11
    assert table.method == method


def test_matches_brute_force_oracle():
    table = overpartition_table(ZZ, 13, Method.THETA_INVERSION)
    for n in range(13):
        assert table.value(n) == _brute_overpartition(n), n


def test_methods_agree_exactly_at_enumeration_limit():
    tables = [overpartition_table(ZZ, ENUMERATION_LIMIT, m) for m in Method.ALL]
    for other in tables[1:]:
        assert tuple(other.values) == tuple(tables[0].values)


@pytest.mark.parametrize("modulus", (8, 40, 998244353))
def test_theta_and_euler_agree_in_residue_rings(modulus):
    ring = mod_ring(modulus)
    a = overpartition_table(ring, 2000, Method.THETA_INVERSION)
    b = overpartition_table(ring, 2000, Method.EULER_PRODUCT)
    assert list(a.values) == list(b.values)


def test_residue_table_is_reduction_of_exact():
    exact = overpartition_table(ZZ, 300, Method.EULER_PRODUCT)
    mod = overpartition_table(mod_ring(40), 300, Method.EULER_PRODUCT)
    assert list(mod.values) == [v % 40 for v in exact.values]


def test_two_adic_residues_where_pbar_passes_int64():
    # the largest exact value lies in [2^63, 2^64) for these lengths
    exact = overpartition_table(ZZ, 300).values
    window = [n + 1 for n, v in enumerate(exact) if 2**63 <= v < 2**64]
    assert window
    ring = mod_ring(120)
    for length in (window[0], window[-1]):
        table = overpartition_table(ring, length, Method.TWO_ADIC)
        assert list(table.values) == [v % 120 for v in exact[:length]], length


def test_method_names_and_aliases():
    assert canonical_method("theta") == Method.THETA_INVERSION
    assert canonical_method("euler") == Method.EULER_PRODUCT
    assert canonical_method("enum") == Method.ENUMERATION
    assert canonical_method("2adic") == Method.TWO_ADIC
    assert canonical_method(Method.TWO_ADIC) == Method.TWO_ADIC
    with pytest.raises(ValueError, match="unknown method"):
        canonical_method("bogus")


def test_enumeration_is_capped():
    with pytest.raises(ValueError, match="limited to length"):
        overpartition_table(ZZ, ENUMERATION_LIMIT + 1, Method.ENUMERATION)


def test_length_validation():
    with pytest.raises(ValueError):
        overpartition_table(ZZ, 0)
    with pytest.raises(ValueError):
        overpartition_table(ZZ, -5)


# -- the table object ---------------------------------------------------------


def test_table_value_conventions():
    table = overpartition_table(ZZ, 10)
    assert table.value(-1) == 0
    assert table.value(-100) == 0
    assert table.value(4) == 14
    assert table.length == 10
    with pytest.raises(ValueError, match="holds 10 values; index 10"):
        table.value(10)


def test_table_as_series_and_hash():
    a = overpartition_table(ZZ, 50, Method.THETA_INVERSION)
    b = overpartition_table(ZZ, 50, Method.EULER_PRODUCT)
    assert a.as_series() == b.as_series()
    # content hash depends on values and ring only, so equal tables from
    # different methods collide (that is the point of content addressing)
    assert a.content_hash() == b.content_hash()
    c = overpartition_table(mod_ring(8), 50)
    assert c.content_hash() != a.content_hash()
    assert len(a.content_hash()) == 64


def test_table_residues_are_narrow_and_read_only():
    table = overpartition_table(mod_ring(1920), 500)
    res = table.values
    assert res.dtype == np.uint16 and not res.flags.writeable
    assert res.tolist() == [v % 1920 for v in overpartition_table(ZZ, 500).values]
    for method in (Method.EULER_PRODUCT, Method.ENUMERATION, Method.TWO_ADIC):
        other = overpartition_table(mod_ring(120), 40, method)
        assert other.values.dtype == np.uint8
    assert overpartition_table(mod_ring(120), 5).values.dtype == np.uint8
    # 4-byte residues stay int64, so callers of wide tables keep signed arithmetic
    wide = overpartition_table(mod_ring(2**31 - 1), 5)
    assert wide.values.dtype == np.int64
    assert not wide.values.flags.writeable
    raw = CoeffTable("pbar", "raw", mod_ring(8), np.array([-1, 9, 3]))
    assert raw.values.tolist() == [7, 1, 3]
    assert raw.values.dtype == np.uint8


def test_table_write_csv():
    table = overpartition_table(ZZ, 5)
    buf = io.StringIO()
    write_coeffs(buf, table.as_series(), "csv")
    assert buf.getvalue() == "n,value\n0,1\n1,2\n2,4\n3,8\n4,14\n"


# -- the exact power-of-two expansion -----------------------------------------


def test_two_adic_value_matches_exact_counts():
    table = squares_table(40, 41)
    exact = overpartition_table(ZZ, 41, Method.EULER_PRODUCT)
    for n in range(1, 41):
        assert two_adic_value(n, table) == exact.value(n), n


def test_two_adic_value_at_four():
    # 4 = 2^2 (one square) and 4 = 1+1+1+1 (four squares); no way with
    # two or three positive squares, so the sum is -2*1 + 16*1 = 14
    table = squares_table(4, 5)
    assert table.value(1, 4) == 1
    assert table.value(2, 4) == 0
    assert table.value(3, 4) == 0
    assert table.value(4, 4) == 1
    assert two_adic_value(4, table) == 14


def test_two_adic_value_argument_checks():
    table = squares_table(5, 6)
    with pytest.raises(ValueError):
        two_adic_value(0, table)
    with pytest.raises(ValueError, match="k_max"):
        two_adic_value(6, squares_table(5, 10))
    with pytest.raises(ValueError, match="order"):
        two_adic_value(5, squares_table(5, 5))


# -- mod 8 truncation ----------------------------------------------------------


def test_mod8_truncation_matches_table():
    exact = overpartition_table(ZZ, 501, Method.EULER_PRODUCT)
    for n in range(1, 501):
        assert mod8_truncation(n) == exact.value(n) % 8, n
    with pytest.raises(ValueError):
        mod8_truncation(0)


def test_mod8_residue_vector_sweep(pbar_big):
    # every n <= 10^6, against the shared mod-1920 table
    fast = mod8_residues(pbar_big.length)
    assert np.array_equal(fast, pbar_big.values % 8)
    assert fast[0] == 1


def test_mod8_residues_match_scalar_form():
    vec = mod8_residues(301)
    for n in range(1, 301):
        assert int(vec[n]) == mod8_truncation(n)
    with pytest.raises(ValueError):
        mod8_residues(0)
