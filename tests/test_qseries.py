"""Core series arithmetic: ring axioms, inversion, reindexing, serialization.

Frozen values come from independent computations: representation counts of
integers as sums of squares (for theta powers) and the overpartition
numbers 1, 2, 4, 8, 14, 24, ... (OEIS A015128 values recomputed by hand
methods) for the inversion oracle.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from ovp import (
    ZZ,
    CoefficientRing,
    HeckeParams,
    Series,
    hecke_apply,
    mod_ring,
    modfft,
    overpartition_table,
    overpartition,
    qseries,
    series_from_terms,
)
from ovp.qseries import IdentityCheck, compare, one, write_coeffs, zero
from ovp.theta import ThetaKind, theta_series

PBAR_FIRST_11 = (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232)

RINGS = (ZZ, mod_ring(2), mod_ring(97), mod_ring(360), mod_ring(2**31 - 1))


def _random_series(rng: random.Random, ring: CoefficientRing, order: int, unit=False):
    if ring.is_exact:
        data = [rng.randrange(-9, 10) for _ in range(order)]
        if unit:
            data[0] = rng.choice((1, -1))
    else:
        m = ring.modulus
        data = [rng.randrange(m) for _ in range(order)]
        if unit:
            u = rng.randrange(1, m)
            while math.gcd(u, m) != 1:
                u = rng.randrange(1, m)
            data[0] = u
    return Series(ring, data)


# -- construction and accessors ----------------------------------------------


def test_ring_validation():
    assert ZZ.is_exact
    assert not mod_ring(5).is_exact
    assert str(mod_ring(5)) == "Z/5"
    assert str(ZZ) == "ZZ"
    with pytest.raises(ValueError):
        CoefficientRing(1)
    with pytest.raises(ValueError):
        CoefficientRing(2**31)
    with pytest.raises(TypeError):
        CoefficientRing(5.0)
    for ring in (120, None, "Z/120"):
        with pytest.raises(TypeError, match="must be a CoefficientRing"):
            Series(ring, [1, 2])


@pytest.mark.parametrize("m", [np.int64(120), np.uint16(120), np.int32(2**31 - 1)])
def test_ring_accepts_numpy_integer_moduli(m):
    ring = mod_ring(m)
    assert ring == mod_ring(int(m)) and hash(ring) == hash(mod_ring(int(m)))
    assert type(ring.modulus) is int and str(ring) == f"Z/{int(m)}"
    assert Series(ring, [int(m) + 7]).coeffs.tolist() == [7]


@pytest.mark.parametrize("m", [True, np.float64(120), 120.0, "120", np.array([120])])
def test_ring_rejects_non_integer_moduli(m):
    with pytest.raises(TypeError):
        mod_ring(m)


def test_series_from_terms_and_accessors():
    f = series_from_terms(ZZ, 10, [(0, 1), (3, -4), (7, 2)])
    assert f.order == 10
    assert f.coefficient(3) == -4
    assert f.nnz == 3
    assert f.nonzero_terms() == [(0, 1), (3, -4), (7, 2)]
    with pytest.raises(IndexError):
        f.coefficient(10)
    with pytest.raises(IndexError):
        f.coefficient(-1)
    with pytest.raises(ValueError):
        series_from_terms(ZZ, 10, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        series_from_terms(ZZ, 10, [(10, 1)])
    with pytest.raises(ValueError):
        series_from_terms(ZZ, 0, [])


def test_mod_series_stores_canonical_residues():
    f = Series(mod_ring(7), [-1, 13, 7])
    assert list(f.coeffs) == [6, 6, 0]
    with pytest.raises(ValueError):
        f.coeffs[0] = 3  # read-only


def test_mod_series_reduces_values_past_int64():
    # numpy reads non-negative lists below 2^64 as uint64, which must not
    # wrap through int64 on reduction
    ring = mod_ring(120)
    assert list(Series(ring, [1, 2**63 + 5]).coeffs) == [1, (2**63 + 5) % 120]
    big = [2**63, 2**63 + 5, 2**64 - 1]
    assert list(Series(ring, big).coeffs) == [v % 120 for v in big]
    words = np.array(big, dtype=np.uint64)
    assert list(Series(ring, words).coeffs) == [v % 120 for v in big]


@pytest.mark.parametrize(
    "m, dtype", [(120, np.uint8), (1920, np.uint16), (2**31 - 1, np.int64)]
)
def test_mod_series_share_the_table_layout(m, dtype):
    # one read-only residue vector, whichever operation built the series
    ring = mod_ring(m)
    f = theta_series(ThetaKind.PHI_MINUS, ring, 300)
    g = Series(ring, [1, -1, 2] * 100)
    built = [
        f, g, f + g, f - g, -f, f.scalar_mul(-3), f * g, f * f, f.invert(),
        f.substitute_power(3), f.extract_progression(4, 1), f.truncate(7),
        Series.from_bytes(g.to_bytes()), Series.from_json(g.to_json()),
        g.reduce_mod(m), Series(ZZ, range(-9, 9)).reduce_mod(m),
    ]
    for h in built:
        assert h.coeffs.dtype == dtype and not h.coeffs.flags.writeable
    assert overpartition_table(ring, 50).values.dtype == dtype


def test_exact_series_share_one_layout():
    # one read-only object vector of Python ints, whichever operation built
    # the series; numpy integer input is converted too
    f = theta_series(ThetaKind.PHI_MINUS, ZZ, 300)
    g = Series(ZZ, np.array([1, -1, 2] * 100, dtype=np.int64))
    built = [
        f, g, f + g, f - g, -f, f.scalar_mul(-3), f * g, f * f, f.invert(),
        f.substitute_power(3), f.extract_progression(4, 1), f.truncate(7),
        Series.from_json(g.to_json()), series_from_terms(ZZ, 9, [(2, np.int64(5))]),
    ]
    for h in built:
        assert h.coeffs.dtype == object and not h.coeffs.flags.writeable
        assert all(type(c) is int for c in h.coeffs)
    for method in ("theta-inversion", "euler-product", "enumeration", "two-adic"):
        values = overpartition_table(ZZ, 50, method).values
        assert values.dtype == object and not values.flags.writeable
        assert all(type(c) is int for c in values)


def test_narrow_residue_arithmetic_does_not_wrap():
    # residues mod 200 are uint8: each result passes 255 or goes below 0 on
    # the way, and would wrap in the narrow word
    ring = mod_ring(200)
    a = Series(ring, [199, 3, 1])
    b = Series(ring, [199, 5, 0])
    assert a.coeffs.dtype == np.uint8
    assert list((a + b).coeffs) == [198, 8, 1]
    assert list((a - b).coeffs) == [0, 198, 1]
    assert list((-a).coeffs) == [1, 197, 199]
    assert list(a.scalar_mul(199).coeffs) == [1, 197, 199]


def test_repr_shows_ring_order_and_first_eight_coefficients():
    assert repr(Series(ZZ, range(10))) == "Series(ZZ, order=10, [0, 1, 2, 3, 4, 5, 6, 7, ...])"
    assert repr(Series(mod_ring(7), [1, 9, 3])) == "Series(Z/7, order=3, [1, 2, 3])"


def test_series_is_immutable():
    f = Series(ZZ, [1, 2])
    with pytest.raises(AttributeError):
        f.order = 5


# -- frozen multiplication / inversion oracles --------------------------------


def test_phi_squared_counts_two_square_representations():
    # n = a^2 + b^2 over all integer pairs: 1, 4, 4, 0, 4 for n = 0..4
    phi = theta_series(ThetaKind.PHI_PLUS, ZZ, 5)
    assert tuple((phi * phi).coeffs) == (1, 4, 4, 0, 4)


def test_phi_minus_cubed_leading_coefficients():
    # (-1)^n * (number of integer triples with a^2+b^2+c^2 = n)
    cube = theta_series(ThetaKind.PHI_MINUS, ZZ, 6) ** 3
    assert tuple(cube.coeffs) == (1, -6, 12, -8, 6, -24)
    assert list(cube.reduce_mod(5).coeffs[:4]) == [1, 4, 2, 2]


def test_invert_phi_minus_yields_overpartition_numbers():
    inv = theta_series(ThetaKind.PHI_MINUS, ZZ, 11).invert()
    assert tuple(inv.coeffs) == PBAR_FIRST_11
    inv8 = theta_series(ThetaKind.PHI_MINUS, mod_ring(8), 11).invert()
    assert list(inv8.coeffs) == [v % 8 for v in PBAR_FIRST_11]


# -- ring axioms on random series ---------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_ring_axioms_random(ring):
    rng = random.Random(1234)
    for _ in range(25):
        order = rng.randrange(1, 64)
        a = _random_series(rng, ring, order)
        b = _random_series(rng, ring, order)
        c = _random_series(rng, ring, order)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == zero(ring, order)
        assert a + (-a) == zero(ring, order)
        assert a * one(ring, order) == a
        assert a * zero(ring, order) == zero(ring, order)
        assert a.scalar_mul(3) == a * 3 == a + a + a
        assert 2 * a == a + a


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_pow_matches_repeated_multiplication(ring):
    rng = random.Random(99)
    a = _random_series(rng, ring, 40)
    acc = one(ring, 40)
    for e in range(5):
        assert a**e == acc
        acc = acc * a
    assert a**0 == one(ring, 40)
    with pytest.raises(ValueError):
        a**-1


# -- inversion ----------------------------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_invert_round_trip_random(ring):
    rng = random.Random(271828)
    for _ in range(100):
        order = rng.randrange(1, 40)
        f = _random_series(rng, ring, order, unit=True)
        assert f * f.invert() == one(ring, order)
        assert f.invert().invert() == f


def test_invert_blocked_path_round_trip():
    # order 10^4 takes fourteen Newton steps; the last lifts 5000
    # coefficients through cyclic products of size 10^4
    rng = random.Random(5)
    f = _random_series(rng, mod_ring(97), 10000, unit=True)
    assert f * f.invert() == one(mod_ring(97), 10000)


def test_invert_rejects_non_units():
    with pytest.raises(ValueError):
        Series(ZZ, [2, 1]).invert()
    with pytest.raises(ValueError):
        Series(ZZ, [0, 1]).invert()
    with pytest.raises(ValueError, match=r"gcd\(2, 6\) = 2"):
        Series(mod_ring(6), [2, 1]).invert()
    with pytest.raises(ValueError):
        Series(ZZ, []).invert()


@pytest.mark.parametrize(
    "m", (2, 8, 97, 120, 1920, 46337, 65521, 998244353, 2**31 - 1)
)
def test_newton_inversion_matches_exact_reduction(m):
    # orders 2^k - 1, 2^k and 2^k + 1 take different Newton step sequences,
    # 10007 ends with a step from 5004; the wide moduli take several limbs
    rng = random.Random(31415)
    T = 10007
    exponents = sorted(rng.sample(range(1, T), 60))
    terms = [(0, -1)] + [(e, rng.choice((-3, -2, -1, 1, 2, 3))) for e in exponents]
    f = series_from_terms(ZZ, T, terms)
    exact = f.invert()
    fm = f.reduce_mod(m)
    for order in (1, 2, 3, 255, 256, 257, 4095, 4096, 4097, T):
        assert fm.truncate(order).invert() == exact.truncate(order).reduce_mod(m)


def _phi_minus_residual(values, m: int) -> np.ndarray:
    """values * phi(-q) mod m through len(values), one shifted add per term
    2 (-1)^k q^(k^2) of phi(-q)."""
    T = len(values)
    # every sum holds at most 2 isqrt(T) + 1 terms below 2m in magnitude
    dtype = np.int32 if 2 * m * (2 * math.isqrt(T) + 1) < 2**31 else np.int64
    g = np.asarray(values, dtype=dtype)
    g2 = 2 * g
    out = g.copy()
    k = 1
    while k * k < T:
        if k % 2:
            out[k * k :] -= g2[: T - k * k]
        else:
            out[k * k :] += g2[: T - k * k]
        k += 1
    return out % m


def _assert_inverts_phi_minus(table):
    residual = _phi_minus_residual(table.values, table.ring.modulus)
    assert residual[0] == 1
    assert not residual[1:].any(), int(np.flatnonzero(residual[1:])[0]) + 1


@pytest.fixture(scope="module")
def pbar_mod120_long():
    return overpartition_table(mod_ring(120), 10**6 + 1)


def test_pbar_mod120_certificate_through_full_length(pbar_mod120_long):
    _assert_inverts_phi_minus(pbar_mod120_long)


def test_pbar_big_certificate_through_full_length(pbar_big):
    _assert_inverts_phi_minus(pbar_big)


@pytest.fixture
def limb_plans(monkeypatch):
    """Every (w, counts) that ``_limb_plan`` returns while the test runs."""
    plans = []
    plan = modfft._limb_plan

    def spy(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(modfft, "_limb_plan", spy)
    return plans


@pytest.mark.parametrize("m", [2**31 - 1, 998244353])
def test_wide_pbar_certificate_through_full_length(m, limb_plans):
    _assert_inverts_phi_minus(overpartition_table(mod_ring(m), 3 * 10**4))
    # the last Newton steps split g and e into several limbs, phi(-q) is
    # always one, and no step takes more than 15 transforms
    cg, cf, ce = limb_plans[-1][1]
    assert cg > 1 and ce > 1
    assert all(counts[1] == 1 for _, counts in limb_plans)
    assert max(3 * cg + 2 * cf + 2 * ce - 2 for _, (cg, cf, ce) in limb_plans) <= 15


# sha256 of the QS01 payload of pbar where the earlier worst-case limb plan
# took more limbs than the operands need: two limbs mod 1920 from length
# about 3.5 * 10^6, three modulo the wide primes; recorded under that plan
PBAR_LIMB_SHA256 = {
    (1920, 3_600_001): "d84205db32cbe004373dbcaedadec5252d19d4e8ab203eba5eae5df9beeb87eb",
    (998244353, 3 * 10**4): "1771a20812a9422412ddd268351b9a304c4e898efaca5d35fabb7f5012287c82",
    (2**31 - 1, 3 * 10**4): "5a86ca3087d6da4b649545dc8382e081802e908dc04833228f8da19d17a45b67",
}


@pytest.mark.parametrize("m, length", sorted(PBAR_LIMB_SHA256))
def test_pbar_payload_digests_across_limb_plans_are_pinned(m, length):
    table = overpartition_table(mod_ring(m), length)
    assert table.content_hash() == PBAR_LIMB_SHA256[m, length]


def _product_mod_python(a, b, n: int, m: int) -> list[int]:
    """(a * b mod q^n) mod m in Python ints.  Both residue vectors are
    packed into slots of one integer each (Kronecker substitution), so one
    big-int product holds every coefficient.  Each is below n (m - 1)^2,
    and a slot has the fewest whole bytes that hold that bound, so no slot
    carries into the next."""
    width = -(-(n * (m - 1) ** 2).bit_length() // 8)
    keep = min(width, 8)

    def pack(x) -> int:
        slots = np.zeros((n, width), dtype=np.uint8)
        le = np.asarray(x[:n], dtype="<u8").view(np.uint8).reshape(n, 8)
        slots[:, :keep] = le[:, :keep]
        return int.from_bytes(slots.tobytes(), "little")

    prod = (pack(a) * pack(b)).to_bytes(2 * n * width, "little")
    return [int.from_bytes(prod[i * width : (i + 1) * width], "little") % m for i in range(n)]


def _dense_residues(rng: random.Random, n: int, h: int, m: int) -> np.ndarray:
    """n nonzero residues mod m whose centred values lie in [-h, h] and
    reach h in magnitude."""
    values = [rng.choice((-1, 1)) * rng.randrange(1, h + 1) for _ in range(n)]
    values[rng.randrange(n)] = h
    return np.array([v % m for v in values], dtype=np.int64)


# Products through 8192 terms run transforms of size 16384, ceil(log2) 14:
# two operands of 8192 nonzeros with |centred residue| <= h are one limb
# while 14 h^2 8192 <= 2^46.
LIMB_N = 8192
LIMB_H1 = math.isqrt(2**46 // (14 * LIMB_N))


@pytest.mark.parametrize("m", [5, 120, 1920, 65521, 998244353, 2**31 - 1])
def test_dense_products_at_the_one_limb_boundary(m, limb_plans):
    # just inside the one-limb region, and just outside it where residues
    # mod m reach that far; below 65521 every residue is inside
    rng = random.Random(m)
    ring, n = mod_ring(m), LIMB_N
    size = modfft._fft_len(2 * n - 1)
    assert (size - 1).bit_length() == 14
    cases = [(min(m // 2, LIMB_H1), [1, 1])]
    if LIMB_H1 < m // 2:
        cases.append((LIMB_H1 + 1, [2, 2]))
    for h, counts in cases:
        a, b = (_dense_residues(rng, n, h, m) for _ in range(2))
        limb_plans.clear()
        got = Series(ring, a) * Series(ring, b)
        assert [c for _, c in limb_plans] == [counts]
        assert got.coeffs.tolist() == _product_mod_python(a, b, n, m)
    # the same boundary in the nonzero count, at the widest residues mod m
    h = m // 2
    n1 = 2**46 // (14 * h * h)
    assert modfft._limb_plan(m, size, (h, n1), (h, n1))[1] == [1, 1]
    assert min(modfft._limb_plan(m, size, (h, n1 + 1), (h, n1 + 1))[1]) > 1


def test_limb_plan_refuses_operands_no_width_makes_exact():
    # entries up to 2^30 with 10 nonzeros each take two limbs; with 10^40
    # each, even one-bit limbs leave a norm product far above 2^92
    m, size = 2**31 - 1, 1 << 20
    assert modfft._limb_plan(m, size, (2**30, 10), (2**30, 10))[1] == [2, 2]
    with pytest.raises(ValueError, match="no exact float64 FFT product"):
        modfft._limb_plan(m, size, (2**30, 10**40), (2**30, 10**40))


# Products through 32768 terms run transforms of size 65536 = 256 * 256, the
# smallest size on the four-step path, ceil(log2) 16.
FOUR_STEP_N = 32768
FOUR_STEP_H1 = math.isqrt(2**46 // (16 * FOUR_STEP_N))


@pytest.mark.parametrize("m", [120, 2**31 - 1])
def test_dense_products_at_the_one_limb_boundary_on_the_four_step_path(m, limb_plans):
    # the boundary of the test above at the four-step sizes: just inside
    # the one-limb region, and just outside it, in two limbs
    rng = random.Random(m)
    ring, n = mod_ring(m), FOUR_STEP_N
    size = modfft._fft_len(2 * n - 1)
    assert size == modfft._FOUR_STEP_MIN
    assert modfft._fft_split(size) == (256, 256)
    cases = [(min(m // 2, FOUR_STEP_H1), [1, 1])]
    if FOUR_STEP_H1 < m // 2:
        cases.append((FOUR_STEP_H1 + 1, [2, 2]))
    for h, counts in cases:
        a, b = (_dense_residues(rng, n, h, m) for _ in range(2))
        limb_plans.clear()
        got = Series(ring, a) * Series(ring, b)
        assert [c for _, c in limb_plans] == [counts]
        assert got.coeffs.tolist() == _product_mod_python(a, b, n, m)


def test_wide_inversion_through_multi_limb_four_step_transforms(limb_plans):
    # the last two Newton steps, at sizes 101250 and 202500, run the
    # four-step transforms with g and e in three limbs
    m, T = 2**31 - 1, 2 * 10**5 + 1
    _assert_inverts_phi_minus(overpartition_table(mod_ring(m), T))
    for k2, (_, counts) in zip((T // 2 + 1, T), limb_plans[-2:]):
        assert modfft._fft_split(modfft._fft_len(k2))[0] > 1
        assert counts == [3, 1, 3]


@pytest.mark.parametrize("m", [120, 2**31 - 1])
def test_dense_series_inverts_through_whole_rows(m):
    # a dense f is loaded as whole grid rows at every Newton step, up to
    # all N2 rows of the four-step grids of the last two
    T = 2 * 10**5 + 1
    coeffs = np.random.default_rng(m).integers(0, m, T)
    coeffs[0] = 1
    f = Series(mod_ring(m), coeffs)
    assert modfft._fft_split(modfft._fft_len(T // 2 + 1))[0] > 1
    assert f * f.invert() == one(mod_ring(m), T)


def _smooth_sizes(limit: int) -> list[int]:
    """Every 5-smooth integer up to limit: the outputs of ``_fft_len`` on
    1..limit."""
    sizes, p2 = [], 1
    while p2 <= limit:
        p3 = p2
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                sizes.append(p5)
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return sorted(sizes)


def test_every_transform_size_splits():
    # the sizes of every Newton step up to length 10^7 and of every product
    # up to 5 * 10^6 terms, odd ones included: an odd size has no even
    # factor to split off
    sizes = _smooth_sizes(10**7)
    assert [modfft._fft_len(n) for n in (1, 7, 97, 65537, 10**6 + 1)] == [
        1, 8, 100, 65610, 1012500,
    ]
    assert all(modfft._fft_len(size) == size for size in sizes)
    odd = 0
    for size in sizes:
        n1, n2 = modfft._fft_split(size)
        assert n1 * n2 == size
        if size < modfft._FOUR_STEP_MIN:
            assert n1 == 1
        else:
            assert 2 <= n2 <= n1 <= 5 * n2
            odd += size % 2
        assert modfft._FFTProduct(2, [size], (1, 0)).slots[0].shape == (1, n1 * (n2 // 2 + 1))
    assert odd > 20


# transform sizes with N1 = 1 (even and odd N2) and N1 > 1: 256 x 256,
# 625 x 125, 375 x 270 and 729 x 243
TRANSFORM_SIZES = [4096, 3375, 65536, 78125, 101250, 177147]


def _loader(x: np.ndarray, plan):
    """The grid rows of the real vector x, zero-padded to whole rows, and a
    ``_FourStep.forward`` loader of them."""
    rows = -(-len(x) // plan.n1)
    grid = np.zeros(rows * plan.n1)
    grid[: len(x)] = x
    grid = grid.reshape(rows, plan.n1)
    return rows, lambda i, j, temp: np.copyto(temp[0], grid[:, i:j])


def _spectrum_in_four_step_order(x: np.ndarray, plan) -> np.ndarray:
    """S[c, d] = y[c + N2 d] for the DFT y of x, from np.fft.rfft and
    y[N - j] = conj(y[j])."""
    y = np.fft.rfft(x, plan.size)
    c, d = np.ogrid[: plan.rows, : plan.n1]
    j = c + plan.n2 * d
    half = y[np.minimum(j, plan.size - j)]
    return np.where(j <= plan.size // 2, half, np.conj(half))


@pytest.mark.parametrize("size", TRANSFORM_SIZES)
def test_four_step_spectrum_is_numpys_in_its_order(size):
    # the spectrum of a grid loaded a column block at a time; an inverse
    # keeps the grid rows asked for in the real parts of the spectrum, as
    # many as it has rows
    plan = modfft._FourStep(size)
    x = np.random.default_rng(size).standard_normal(size)
    want = _spectrum_in_four_step_order(x, plan)
    grid = x.reshape(plan.n2, plan.n1)
    for r0, r1 in ((0, plan.rows), (plan.n2 - plan.rows, plan.n2), (3, 5)):
        spec = np.empty((plan.rows, plan.n1), dtype=np.complex128)
        plan.forward([spec], *_loader(x, plan))
        assert np.abs(spec - want).max() < 1e-12 * np.abs(want).max()
        plan.inverse(spec, (r0, r1), lambda lo, hi: None, lambda x, out, lo, hi: np.copyto(out, x))
        assert np.abs(spec[: r1 - r0].real - grid[r0:r1]).max() < 1e-12


@pytest.mark.parametrize("size", TRANSFORM_SIZES)
def test_nonzero_column_spectrum_is_the_dense_one(size, monkeypatch):
    # phi(-q), and as many terms at random positions as the inversion passes
    # as terms, whose columns are then nearly all held, in one limb mod 120
    # and three mod 2^31 - 1: stage 1 on the held columns alone, built from
    # the positions and their values with no vector of the operand, gives
    # the spectra of whole rows bit for bit, with one column (N1 = 1) too
    plan = modfft._FourStep(size)
    rng = np.random.default_rng(size)
    forward, held = modfft._FourStep.forward, []

    def spy(self, specs, rows, load, cols=None):
        held.append(cols)
        forward(self, specs, rows, load, cols)

    monkeypatch.setattr(modfft._FourStep, "forward", spy)
    for m, w, limbs in ((120, 7, 1), (2**31 - 1, 12, 3)):
        phi = theta_series(ThetaKind.PHI_MINUS, mod_ring(m), size).coeffs
        scattered = np.zeros(size, np.int64)
        nnz = 4 * math.isqrt(size)
        scattered[rng.choice(size, nnz, replace=False)] = rng.integers(1, m, nnz)
        for x in (phi, scattered):
            exps = np.flatnonzero(x)
            spectra = []
            for source in ({"x": x}, {"terms": (exps, x[exps])}):
                kernel = modfft._FFTProduct(m, [size], (limbs, 0))
                kernel.w = w
                kernel.slots[0][:] = np.nan
                kernel.spectra(size, 0, limbs, 0, size, **source)
                spectra.append(kernel.slots[0][:, : plan.spec_len])
            assert np.array_equal(*spectra)
            assert held.pop(0) is None
            cols = held.pop()
            if plan.n1 == 1:
                assert cols.tolist() == [0]
            else:
                assert len(cols) < (plan.n1 // 2 if x is phi else plan.n1)


def test_each_held_column_is_loaded_and_transformed_once(monkeypatch):
    # 375 x 270 points in blocks of 121 columns, split between two threads
    # at column 187: the first thread's second block stops there
    monkeypatch.setattr(modfft, "_THREADS", 2)
    plan = modfft._FourStep(101250)
    assert (plan.n1, plan.cols, plan.parts) == (375, 121, 2)
    held = np.sort(np.random.default_rng(0).choice(plan.n1, 280, replace=False))
    loaded, transformed = [], []
    rfft = np.fft.rfft

    def load(i: int, j: int, temp: np.ndarray) -> None:
        loaded.extend(held[i:j].tolist())
        temp.fill(1)

    def counted(grid, *args, **kwargs):
        transformed.append(grid.shape[1])
        return rfft(grid, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    plan.forward([np.empty((plan.rows, plan.n1), np.complex128)], plan.n2, load, held)
    assert sorted(loaded) == held.tolist()
    assert sum(transformed) == len(held)


# the four-step sizes of a mod-120 inversion at budget 10^6, with 161, 203,
# 338 and 451 rows of spectrum, and its last size at budget 10^8 (4097 rows)
BUDGET_GRIDS = [128000, 253125, 506250, 1012500, 100663296]


@pytest.mark.parametrize("size", BUDGET_GRIDS)
def test_twiddle_blocks_take_no_more_than_blocks_of_64_rows(size, monkeypatch):
    # U, V and one block of B rows per thread against the same with B = 64,
    # read from the shapes of the tables: the roots are not computed
    monkeypatch.setattr(modfft, "_THREADS", 2)
    monkeypatch.setattr(
        modfft, "_roots", lambda size, rows, cols, parts: np.empty((len(rows), cols), complex)
    )
    plan = modfft._FourStep(size)
    assert plan.parts == 2 and len(plan.v) == plan.step
    assert len(plan.u) == -(-plan.rows // plan.step)
    rows = len(plan.u) + len(plan.v) + plan.parts * plan.step
    assert rows <= -(-plan.rows // 64) + 64 + plan.parts * 64
    assert plan.step == (16 if size < 10**8 else 36)


@pytest.mark.parametrize("size", BUDGET_GRIDS[:-1])
def test_two_threads_take_rows_to_within_one_block(size, monkeypatch):
    # stages 2 and 3 split their blocks of B rows between the threads by
    # count; with 64 rows 451 split 256 / 195 and 161 split 64 / 97
    monkeypatch.setattr(modfft, "_THREADS", 2)
    plan = modfft._FourStep(size)
    rows: dict[int, int] = {}
    lock = threading.Lock()

    def stage(r: int, block: np.ndarray, twiddle: np.ndarray) -> None:
        with lock:
            rows[threading.get_ident()] = rows.get(threading.get_ident(), 0) + len(block)

    plan._twiddled_blocks(np.zeros((plan.rows, plan.n1), complex), stage)
    assert len(rows) == 2 and sum(rows.values()) == plan.rows
    assert abs(rows.popitem()[1] - rows.popitem()[1]) <= plan.step <= 16


@pytest.mark.parametrize("m", [120, 2**31 - 1])
@pytest.mark.parametrize("size", TRANSFORM_SIZES)
def test_product_at_an_offset_is_the_product(m, size):
    # the second product of a Newton step: e at s = k mod N1 in the real
    # parts of its slot, where the first product leaves e = [f g]_{k..k2},
    # times g; outputs s..s + k2 - k - 1 are g e with no wrap, also at k2 = N
    # (``_mul``, the reference, is itself checked against exact products)
    rng = np.random.default_rng(size)
    n1 = modfft._fft_split(size)[0]
    for k2 in (size, size - 1 - size // 3):
        k = -(-k2 // 2)
        g, e = (rng.integers(0, m, n) for n in (k, k2 - k))
        s = k % n1
        w, (cg, ce) = modfft._limb_plan(m, size, (m // 2, k), (m // 2, k2 - k))
        kernel = modfft._FFTProduct(m, [size], (ce + min(2, cg - 1), cg))
        kernel.w = w
        kernel.spectra(size, 1, cg, 0, k, g)
        rows = -(-(s + k2 - k) // n1)
        flat = kernel.slots[0][0, : rows * n1].real
        flat[:] = np.nan  # spectra must zero what lies outside e
        flat[s : s + k2 - k] = np.where(e > m // 2, e - m, e)
        kernel.spectra(size, 0, ce, s, s + k2 - k)
        got = np.empty(k2 - k, dtype=np.int64)
        kernel.residues(kernel.product(1, size, s, s + k2 - k), got)
        # the same product from index 0, as ``_mul`` makes it
        padded = np.append(e, np.zeros(2 * k - k2, e.dtype))
        want = Series(mod_ring(m), g) * Series(mod_ring(m), padded)
        assert np.array_equal(got, want.coeffs[: k2 - k])


def test_outputs_fit_in_a_slot_and_the_check_holds():
    # every Newton step k -> k2 = 2k - 1 or 2k up to 10^6 reads at most
    # N2 // 2 + 1 grid rows, as the bound in ``product`` proves; one more
    # row is refused, in a slot's own parts and in a product; a loaded
    # operand goes through a temporary and may take all N2 rows
    sizes = np.array(_smooth_sizes(2 * 10**6))
    k2 = np.arange(2, 10**6 + 1)
    size = sizes[np.searchsorted(sizes, k2)]
    splits = {int(n): modfft._fft_split(int(n)) for n in np.unique(size)}
    n1 = np.array([splits[int(n)][0] for n in size])
    n2 = np.array([splits[int(n)][1] for n in size])
    k = -(-k2 // 2)
    assert (-(-k2 // n1) - k // n1 <= n2 // 2 + 1).all()
    size = modfft._FOUR_STEP_MIN
    plan = modfft._FourStep(size)
    kernel = modfft._FFTProduct(120, [size], (1, 1))
    kernel.w = 7
    with pytest.raises(ValueError, match="grid rows exceed"):
        kernel.spectra(size, 0, 1, 0, size + 1, np.zeros(size + 1, np.uint8))
    kernel.spectra(size, 0, 1, 0, size, np.zeros(size, np.uint8))
    with pytest.raises(ValueError, match="grid rows exceed"):
        kernel.spectra(size, 0, 1, 0, plan.rows * plan.n1 + 1)
    kernel.spectra(size, 0, 1, 0, plan.rows * plan.n1)
    kernel.spectra(size, 1, 1, 0, 1, np.ones(1, np.uint8))
    with pytest.raises(ValueError, match="grid rows exceed"):
        kernel.product(1, size, 0, plan.rows * plan.n1 + 1)


def test_product_refuses_a_slot_0_with_no_spectrum_free():
    # a one-limb slot 0 against a two-limb slot 1 runs two inverse
    # transforms, and the second needs a spectrum of slot 0 beyond its limb
    m, size, n = 120, 64, 32
    x = np.arange(n, dtype=np.uint8) % m
    for spare, fits in ((0, False), (1, True)):
        kernel = modfft._FFTProduct(m, [size], (1 + spare, 2))
        kernel.w = 4
        kernel.spectra(size, 0, 1, 0, n, x)
        kernel.spectra(size, 1, 2, 0, n, x)
        if fits:
            got = np.empty(n, dtype=np.int64)
            kernel.residues(kernel.product(1, size, 0, n), got)
            want = Series(mod_ring(m), x) * Series(mod_ring(m), x)
            assert got.tolist() == want.coeffs.tolist()
        else:
            with pytest.raises(ValueError, match="no spectrum free"):
                kernel.product(1, size, 0, n)


def _traced_peak(fn) -> int:
    fn()  # numpy's FFT plans and the thread pool are made outside the trace
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inversion_peak_bytes_per_coefficient():
    # phi(-q) mod 120 at 2 * 10^5 + 1, whose last two Newton steps are
    # four-step transforms.  With a float buffer beside the spectra the
    # inversion peaked at about 33 B per coefficient (33.8 here, 32.8 at
    # 3 * 10^5 + 7); with none, 26.0 on two threads and 22.9 on one; with
    # twiddle blocks of 16 rows instead of 64, 24.9.
    T = 2 * 10**5 + 1
    f = theta_series(ThetaKind.PHI_MINUS, mod_ring(120), T).coeffs
    assert _traced_peak(lambda: modfft.inverse(f, 120, np.uint8)()) <= 25.5 * T


def test_table_peak_bytes_per_coefficient():
    # the same inversion with phi(-q) built inside the trace, as
    # ``overpartition_table`` does: 27.1 B per coefficient with twiddle
    # blocks of 64 rows and phi(-q)'s vector held through the inversion,
    # 25.7 with blocks of 16, and 25.0 with the vector freed once its terms
    # are read.  The table build holds no reference to the series, and
    # ``Series.invert`` drops its own once the terms are read.
    T = 2 * 10**5 + 1
    assert _traced_peak(lambda: overpartition_table(mod_ring(120), T)) <= 25.4 * T


def _dead_as_steps_start(monkeypatch, refs) -> list[bool]:
    """Whether the vector of the last weakref in refs is dead as each
    Newton iteration of ``modfft.inverse`` starts its steps."""
    dead, inverse = [], modfft.inverse

    def iteration(f, m, dtype):
        run = inverse(f, m, dtype)

        def steps():
            dead.append(refs[-1]() is None)
            return run()

        return steps

    monkeypatch.setattr(modfft, "inverse", iteration)
    return dead


def test_table_build_frees_phi_minus_before_the_newton_steps(monkeypatch):
    # a weakref to the vector of the phi(-q) the table build makes, read as
    # the Newton steps start: the vector is dead by then.  (Below 2^16
    # entries every step loads f as whole rows, so the steps keep it.)
    refs = []
    build = overpartition.series_from_terms

    def built(*args):
        series = build(*args)
        refs.append(weakref.ref(series.coeffs))
        return series

    monkeypatch.setattr(overpartition, "series_from_terms", built)
    dead = _dead_as_steps_start(monkeypatch, refs)
    table = overpartition_table(mod_ring(120), 2 * 10**5 + 1)
    assert table.values[:11].tolist() == [v % 120 for v in PBAR_FIRST_11]
    assert dead == [True]


@pytest.mark.parametrize("ring", (ZZ, mod_ring(120)), ids=str)
def test_consumed_series_hands_its_vector_over(ring, monkeypatch):
    # a series its caller holds keeps its order and coefficients through
    # ``invert``; mod m the vector of one that no caller holds is dead as
    # the Newton steps start, and that of a held one is not
    T = 3000 if ring.is_exact else 2 * 10**5 + 1
    refs = []
    dead = _dead_as_steps_start(monkeypatch, refs)

    def phi_minus():
        series = theta_series(ThetaKind.PHI_MINUS, ring, T)
        refs.append(weakref.ref(series.coeffs))
        return series

    f = phi_minus()
    before = f.coeffs.copy()
    inverse = f.invert()
    assert f.order == T and np.array_equal(f.coeffs, before)
    assert inverse * f == one(ring, T)
    # bound to a name: inside an assert the temporary would stay alive
    inverse = phi_minus().invert()
    assert inverse * f == one(ring, T)
    assert dead == ([] if ring.is_exact else [False, True])


def test_dense_inversion_keeps_no_positions():
    # a random dense f mod 120 at 2 * 10^5 + 1 is loaded as rows at every
    # step: the inversion holds no vector of its T nonzero positions (8 B
    # per coefficient) and no int64 copy of f.  It peaked at 33.9 B per
    # coefficient while it held both (with twiddle blocks of 64 rows), and
    # at 24.7 without.
    T = 2 * 10**5 + 1
    coeffs = np.random.default_rng(7).integers(0, 120, T)
    coeffs[0] = 1
    f = Series(mod_ring(120), coeffs).coeffs
    assert _traced_peak(lambda: modfft.inverse(f, 120, np.uint8)()) <= 25.5 * T


def test_dense_product_peak_bytes_per_coefficient():
    # a dense product mod 120 through 10^5 terms, a four-step transform of
    # 200000 = 500 * 400 points: 67.5 B per term with the float buffer,
    # 51.5 on two threads and 45.1 on one with none, 48.0 with twiddle
    # blocks of 16 rows instead of 64
    n = 10**5
    rng = np.random.default_rng(5)
    a, b = (Series(mod_ring(120), rng.integers(0, 120, n)) for _ in range(2))
    assert modfft._fft_split(modfft._fft_len(2 * n - 1))[0] > 1
    assert _traced_peak(lambda: a * b) <= 49 * n


def test_one_thread_gives_the_same_bits(monkeypatch):
    # a machine with one CPU splits no stage; tables and products agree
    # with the two-thread split to the byte
    m, n = 998244353, FOUR_STEP_N
    rng = random.Random(1)
    a, b = (Series(mod_ring(m), _dense_residues(rng, n, m // 2, m)) for _ in range(2))
    runs = []
    for threads in (1, 2):
        monkeypatch.setattr(modfft, "_THREADS", threads)
        table = overpartition_table(mod_ring(120), 10**5 + 1)
        runs.append((table.content_hash(), (a * b).coeffs.tobytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == PBAR_MOD120_SHA256[10**5 + 1]


def test_concurrent_products_share_the_pool(monkeypatch):
    # more callers than CPUs, switching as often as the interpreter allows:
    # every product still equals the one made alone, so no piece of one
    # kernel's split lands in another's buffers
    monkeypatch.setattr(modfft, "_THREADS", 2)
    m, n = 998244353, FOUR_STEP_N
    rng = random.Random(2)
    ring = mod_ring(m)
    operands = [
        [Series(ring, _dense_residues(rng, n, m // 2, m)) for _ in range(2)] for _ in range(4)
    ]
    want = [(a * b).coeffs.tobytes() for a, b in operands]
    got = [[] for _ in operands]

    def work(i: int) -> None:
        a, b = operands[i]
        for _ in range(3):
            got[i].append((a * b).coeffs.tobytes())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(operands))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 3 for w in want]


def test_multi_limb_square_is_exact(limb_plans):
    # a square of several limbs loads its operand into both slots, since a
    # product spends the limbs of one slot while it still reads the other
    m, n = 2**31 - 1, LIMB_N
    a = _dense_residues(random.Random(4), n, m // 2, m)
    square = Series(mod_ring(m), a)
    assert (square * square).coeffs.tolist() == _product_mod_python(a, a, n, m)
    assert [c for _, c in limb_plans] == [[3, 3]]


def test_dense_product_of_small_and_wide_residues(limb_plans):
    # entries |c| <= 3, as in theta series, stay one limb beside residues
    # mod 2^31 - 1 that take two, in either slot
    m, n = 2**31 - 1, LIMB_N
    rng = random.Random(3)
    small = _dense_residues(rng, n, 3, m)
    wide = _dense_residues(rng, n, m // 2, m)
    want = _product_mod_python(small, wide, n, m)
    ring = mod_ring(m)
    assert (Series(ring, small) * Series(ring, wide)).coeffs.tolist() == want
    assert (Series(ring, wide) * Series(ring, small)).coeffs.tolist() == want
    assert [c for _, c in limb_plans] == [[1, 2], [2, 1]]


# sha256 of the QS01 payload of pbar mod 120: the kernels may change, the
# table's bytes may not
PBAR_MOD120_SHA256 = {
    2: "a14bbd2bba923b501afa34afa71d52289d91b423fa70c0c4d29116ec7455e55f",
    3: "73336ee91cf9e3416a9556edde6989f10ca95063628502bd0d35f97a978ecbde",
    1001: "47af54ae7971b27d708b30c042b86dd2b364abfe9a7d991f9c825df3aded4db0",
    65537: "aa5babd626f819db5dbeaeb57b183f87db4f171efaecf924a54b6530f61cabb0",
    10**5 + 1: "0619fb967a602902ca01c6f465fa7784343e762ac8f8ed453e883aa75b51850f",
    10**6 + 1: "881bd70f8b9cca173faed396fa768e68e3837e0e1ab2fd11d87b869feaa0e2d7",
}


@pytest.mark.parametrize("length", sorted(PBAR_MOD120_SHA256))
def test_pbar_mod120_payload_digests_are_pinned(length, pbar_mod120_long):
    if length == pbar_mod120_long.length:
        table = pbar_mod120_long
    else:
        table = overpartition_table(mod_ring(120), length)
    assert table.content_hash() == PBAR_MOD120_SHA256[length]


@pytest.mark.parametrize("m", [2, 3, 5, 120, 1920, 65521, 2**31 - 1])
def test_centre_and_canonical_match_python_remainder(m):
    # multiples of m, ties m t +- m/2 (exact for even m), values around
    # them, the plan's limit 2^46 - 1 and the proven limit 2^51 - 1
    edges = (2**46 - 1, 2**51 - 1)
    values = [0, 1, -1] + [s * e for e in edges for s in (1, -1)]
    for t in (0, 1, 2, 3, 7, 1000, (2**46 - 1) // m - 1, (2**51 - 1) // m - 1):
        for s in (1, -1):
            base = s * m * t
            values += [base, base + m // 2, base - m // 2]
            values += [base + m // 2 + 1, base - m // 2 - 1, base + 1, base - 1]
    x = np.array(values, dtype=np.float64)
    assert [int(v) for v in x] == values
    centred = modfft._centre(x, m, np.empty(len(values)))
    assert np.abs(centred).max() <= m / 2
    assert [int(c) % m for c in centred] == [v % m for v in values]
    canonical = modfft._canonical(centred, m)
    assert [int(c) for c in canonical] == [v % m for v in values]


# -- multiplication kernel agreement ------------------------------------------


def test_mul_mod_matches_exact_reduction():
    # dense orders run the FFT product; entries of at most 9 in magnitude
    # are one limb in every ring (the boundary tests above take several)
    rng = random.Random(777)
    for order in (1, 2, 50, 300, 2000, 5000):
        ea = _random_series(rng, ZZ, order)
        eb = _random_series(rng, ZZ, order)
        exact = ea * eb
        for m in (8, 97, 2**31 - 1):
            assert ea.reduce_mod(m) * eb.reduce_mod(m) == exact.reduce_mod(m)


def test_mul_sparse_operand_matches_dense():
    # theta series are sparse enough to trigger the shift-and-add path
    rng = random.Random(42)
    m = 97
    dense = _random_series(rng, mod_ring(m), 3000)
    sparse = theta_series(ThetaKind.PHI_PLUS, mod_ring(m), 3000)
    exact = theta_series(ThetaKind.PHI_PLUS, ZZ, 3000) * Series(
        ZZ, [int(c) for c in dense.coeffs]
    )
    assert sparse * dense == exact.reduce_mod(m)


def _shift_add_reference(a, b, n: int) -> list[int]:
    """Product through n terms with Python ints, one term of a at a time."""
    out = [0] * n
    for e, c in enumerate(a[:n]):
        for j, v in enumerate(b[: n - e]):
            out[e + j] += int(c) * int(v)
    return out


def _sparse(rng: random.Random, order: int, nnz: int, values) -> list[int]:
    data = [0] * order
    for e in rng.sample(range(order), nnz):
        data[e] = rng.choice(values)
    return data


def _exact_product(a, b, n: int) -> list[int]:
    """``_shift_add`` over ZZ of two integer sequences through n terms, as
    a list."""
    a, b = (np.array(x[:n], dtype=object) for x in (a, b))
    return qseries._shift_add(a, b, n, None).tolist()


def test_mul_exact_matches_reference_int64_side():
    rng = random.Random(2024)
    for order, nnz in ((1, 1), (7, 3), (200, 5), (600, 40), (600, 600)):
        for scale in (1, 10**6, 2**32):
            a = _sparse(rng, order, nnz, [s * rng.randrange(1, 9) for s in (scale, -scale)])
            b = [rng.randrange(-(2**16), 2**16) for _ in range(order)]
            assert sum(map(abs, a)) * max(map(abs, b)) < 2**63
            for n in (order, max(1, order // 3)):
                want = _shift_add_reference(a, b, n)
                assert _exact_product(a, b, n) == want
                assert _exact_product(b, a, n) == want
    assert _exact_product((0, 0, 0), (5, -6, 7), 3) == [0, 0, 0]
    # a bound of 0 returns before 2^200 meets a narrow dtype
    assert _exact_product((2**200, 0), (0, 0), 2) == [0, 0]


def test_mul_exact_matches_reference_object_side():
    rng = random.Random(7)
    big = [s * rng.randrange(2**62, 2**70) for s in (1, -1) for _ in range(20)]
    a = _sparse(rng, 300, 12, big)
    b = [rng.choice(big + [0, 1, -1]) for _ in range(300)]
    assert _exact_product(a, b, 300) == _shift_add_reference(a, b, 300)
    pbar = overpartition_table(ZZ, 400).values  # pbar(399) > 2^63
    assert pbar[-1] >= 2**63
    theta = theta_series(ThetaKind.PHI_MINUS, ZZ, 400).coeffs
    for x, y in ((pbar, pbar), (theta, pbar), (pbar, a + [0] * 100)):
        assert _exact_product(x, y, 400) == _shift_add_reference(x, y, 400)
    assert (Series(ZZ, pbar) * theta_series(ThetaKind.PHI_MINUS, ZZ, 400)) == one(ZZ, 400)


class _ZerosDtypeSpy:
    """Stands in for numpy inside qseries and records the dtype of np.zeros."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        self.dtypes.append(np.dtype(dtype))
        return np.zeros(shape, dtype=dtype)


@pytest.mark.parametrize(
    "a, b, dtype",
    [
        # sum |a| = 7, max |b| = (2^63 - 1) / 7: the bound is 2^63 - 1
        ((3, -4), ((2**63 - 1) // 7, -((2**63 - 1) // 7)), np.int64),
        ((4, 0, -3), ((2**63 - 1) // 7, (2**63 - 1) // 7, 5), np.int64),
        # sum |a| = 2, max |b| = 2^62: the bound is 2^63, one past int64
        ((1, 1), (2**62, 2**62), object),
        ((-1, -1), (2**62, 2**62), object),
        # the narrower maxima, each met exactly and passed by one
        ((100, -27), (1, -1), np.int8),  # 127 * 1
        ((1, 1), (64, -64), np.int16),  # 2 * 64 = 128
        ((7, -24), (-1057, 1057), np.int16),  # 31 * 1057 = 2^15 - 1
        ((1, -1), (2**14, -(2**14)), np.int32),  # 2 * 2^14 = 2^15
        ((2**31 - 1, 0), (1, -1), np.int32),  # (2^31 - 1) * 1
        ((2**16, 0), (2**15, -(2**15)), np.int64),  # 2^16 * 2^15 = 2^31
    ],
)
def test_mul_exact_dtype_switches_at_the_int64_bound(monkeypatch, a, b, dtype):
    spy = _ZerosDtypeSpy()
    monkeypatch.setattr(qseries, "np", spy)
    n = len(a)
    assert _exact_product(a, b, n) == _shift_add_reference(a, b, n)
    assert spy.dtypes == [np.dtype(dtype)]


@pytest.mark.parametrize("m", [2**31 - 1, 998244353])
def test_mul_mod_sparse_branch_matches_exact_reduction(m):
    # 60 sparse terms against 4 * isqrt(500) = 88 take the shift-and-add
    # branch.  Terms near +-m/2 against dense residues m - 1 make each step
    # add about m^2 / 2 in magnitude, so the bound passes 2^63 and the sums
    # cross several reduction strides (every 4 terms mod 2^31 - 1, every 18
    # mod 998244353).
    rng = random.Random(m)
    order, nnz = 500, 60
    half = (m - 1) // 2
    dense = [m - 1] * order
    cases = [
        _sparse(rng, order, nnz, [half]),  # all +(m - 1)/2 once centred
        _sparse(rng, order, nnz, [half + 1]),  # all -(m - 1)/2 once centred
        _sparse(rng, order, nnz, [half - 1, half, half + 1, half + 2, 1, m - 1]),
    ]
    assert nnz <= 4 * math.isqrt(order)
    for sparse in cases:
        want = [v % m for v in _shift_add_reference(sparse, dense, order)]
        got = Series(mod_ring(m), sparse) * Series(mod_ring(m), dense)
        assert got.coeffs.tolist() == want
        got = Series(mod_ring(m), dense) * Series(mod_ring(m), sparse)
        assert got.coeffs.tolist() == want


@pytest.mark.parametrize(
    "m, coeffs, dtype",
    [
        # B = sum |c| * max |b| over the coefficients centred into
        # (-m/2, m/2], against max |b| = m - 1; the accumulator also holds m
        (151, (72, 79, 1), np.int16),  # 145 * 150 = 21750
        (151, (79, 79, 79), np.int16),  # 216 * 150 = 32400
        (128, (51, 77, 3, 51, 51), np.int16),  # 207 * 127 = 26289
        (49981, (8593, 41388, 1, 2, 8593), np.int32),  # 25782 * 49980
        (65536, (4681,) * 7, np.int32),  # 32767 * 65535 = 2^31 - 98302
        # each maximum met exactly and passed by one
        (127, (1,), np.int8),  # B = 126, m = 127 = 2^7 - 1
        (65, (64, 1), np.int16),  # 2 * 64 = 128
        (128, (1,), np.int16),  # B = 127, but m = 2^7
        (4682, (3, 4678), np.int16),  # 7 * 4681 = 2^15 - 1
        (129, (64, 65, 64, 65), np.int32),  # 256 * 128 = 2^15
        (2**31 - 1, (1,), np.int32),  # B = 2^31 - 2, m = 2^31 - 1
        (65537, (32768,), np.int64),  # 2^15 * 2^16 = 2^31
        # past int64: 5 (2^30 - 1)(2^31 - 2) > 2^63, reduced every 4 terms
        (2**31 - 1, (2**30 - 1,) * 5, np.int64),
    ],
)
def test_mul_mod_sparse_accumulator_switches_at_its_bound(monkeypatch, m, coeffs, dtype):
    n = 64
    sparse = [0] * n
    for e, c in zip((0, 5, 9, 30, 31, 47, 63), coeffs):
        sparse[e] = c
    dense = [m - 1 - (7 * j) % 5 for j in range(n)]  # residues near -1
    assert len(coeffs) <= 4 * math.isqrt(n)
    want = [v % m for v in _shift_add_reference(sparse, dense, n)]
    a = np.array(sparse, dtype=np.int64)
    b = np.array(dense, dtype=np.int64)
    spy = _ZerosDtypeSpy()
    monkeypatch.setattr(qseries, "np", spy)
    assert qseries._mul(a, b, n, m).tolist() == want
    assert qseries._mul(b, a, n, m).tolist() == want
    assert spy.dtypes == [np.dtype(dtype)] * 2


@pytest.mark.parametrize("m", [2**31 - 1, 998244353])
def test_mul_mod_sparse_accumulator_is_int64_for_wide_primes(monkeypatch, m):
    # phi(-q) mod m through 3000: sum |c| = 109 against max |b| near m,
    # so B > 2^31
    n = 3000
    phi = theta_series(ThetaKind.PHI_MINUS, mod_ring(m), n)
    dense = _random_series(random.Random(m), mod_ring(m), n)
    exact = theta_series(ThetaKind.PHI_MINUS, ZZ, n) * Series(ZZ, dense.coeffs.tolist())
    want = exact.reduce_mod(m)
    spy = _ZerosDtypeSpy()
    monkeypatch.setattr(qseries, "np", spy)
    got = qseries._mul(phi.coeffs, dense.coeffs, n, m)
    assert spy.dtypes == [np.dtype(np.int64)]
    assert got.tolist() == want.coeffs.tolist()


def test_mul_truncates_to_min_order():
    a = Series(ZZ, [1, 1, 1, 1, 1])
    b = Series(ZZ, [1, 1])
    assert (a * b).order == 2
    assert tuple((a * b).coeffs) == (1, 2)
    assert (a + b).order == 2


def test_binary_ops_reject_ring_mismatch():
    a = Series(ZZ, [1, 2])
    b = Series(mod_ring(5), [1, 2])
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a.first_difference(b)):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(TypeError):
        a + 3
    with pytest.raises(TypeError):
        a.first_difference([1, 2])
    # an int scales from the left, a float is refused
    assert (2 * a).coeffs.tolist() == (np.int64(2) * a).coeffs.tolist() == [2, 4]
    assert a.__rmul__(1.5) is NotImplemented
    with pytest.raises(TypeError):
        1.5 * a
    # equality is False across rings, and left to the other operand for a
    # non-Series
    assert a != b
    assert a.__eq__([1, 2]) is NotImplemented and a != [1, 2]


# -- reindexing ----------------------------------------------------------------


@pytest.mark.parametrize("ring", (ZZ, mod_ring(11)), ids=str)
def test_substitute_then_extract_recovers_series(ring):
    rng = random.Random(2024)
    f = _random_series(rng, ring, 41)
    for d in range(1, 9):
        g = f.substitute_power(d)
        head = f.truncate(-((f.order) // -d))
        assert g.extract_progression(d, 0) == head
        for r in range(1, d):
            part = g.extract_progression(d, r)
            assert part == zero(ring, part.order)


def test_extract_progression_partitions_all_coefficients():
    rng = random.Random(7)
    f = _random_series(rng, ZZ, 97)
    d = 4
    parts = [f.extract_progression(d, r) for r in range(d)]
    assert sum(p.order for p in parts) == f.order
    for n in range(f.order):
        assert parts[n % d].coefficient(n // d) == f.coefficient(n)


def test_extract_progression_order_formula():
    f = Series(ZZ, range(10))
    assert f.extract_progression(3, 0).order == 4   # 0, 3, 6, 9
    assert f.extract_progression(3, 1).order == 3   # 1, 4, 7
    assert f.extract_progression(3, 2).order == 3   # 2, 5, 8
    assert tuple(f.extract_progression(3, 1).coeffs) == (1, 4, 7)
    with pytest.raises(ValueError):
        f.extract_progression(0, 0)
    with pytest.raises(ValueError):
        f.extract_progression(3, 3)
    with pytest.raises(ValueError):
        f.substitute_power(0)


def test_truncate_bounds():
    f = Series(ZZ, [1, 2, 3])
    assert f.truncate(2) == Series(ZZ, [1, 2])
    assert f.truncate(0).order == 0
    with pytest.raises(ValueError):
        f.truncate(4)


# -- ring reduction -------------------------------------------------------------


def test_reduce_mod_commutes_with_arithmetic():
    rng = random.Random(55)
    a = _random_series(rng, ZZ, 50)
    b = _random_series(rng, ZZ, 50)
    for m in (5, 8, 40):
        assert (a + b).reduce_mod(m) == a.reduce_mod(m) + b.reduce_mod(m)
        assert (a * b).reduce_mod(m) == a.reduce_mod(m) * b.reduce_mod(m)
        assert (a**3).reduce_mod(m) == a.reduce_mod(m) ** 3


def test_reduce_mod_between_residue_rings():
    rng = random.Random(56)
    e = _random_series(rng, ZZ, 30)
    f = e.reduce_mod(360)
    assert f.reduce_mod(12) == e.reduce_mod(12)
    assert f.reduce_mod(5) == e.reduce_mod(5)
    with pytest.raises(ValueError, match="does not divide"):
        f.reduce_mod(7)


# -- comparison and reporting ----------------------------------------------------


def test_first_difference_prefix_semantics():
    a = Series(ZZ, [1, 2, 3, 4])
    b = Series(ZZ, [1, 2, 3])
    assert a.first_difference(b) is None
    assert a == b
    c = Series(ZZ, [1, 2, 9, 4])
    assert a.first_difference(c) == 2
    assert a != c
    m1 = Series(mod_ring(7), [1, 2, 3])
    m2 = Series(mod_ring(7), [1, 5, 3])
    assert m1.first_difference(m2) == 1


def test_compare_packages_identity_check():
    a = Series(ZZ, [1, 2, 3, 4])
    b = Series(ZZ, [1, 2, 3])
    chk = compare("prefix", a, b)
    assert chk.ok and chk.order == 3 and chk.name == "prefix"
    assert chk.to_dict() == {"name": "prefix", "order": 3, "pass": True}
    bad = compare("mismatch", a, Series(ZZ, [1, 9]))
    assert not bad.ok
    assert bad.to_dict()["first_difference"] == 1
    assert IdentityCheck("x", 5, None).ok


# -- serialization ----------------------------------------------------------------


def test_json_round_trip_exact_big_integers():
    f = Series(ZZ, [1, -(2**200), 3**100])
    g = Series.from_json(f.to_json())
    assert g.ring == ZZ and tuple(g.coeffs) == tuple(f.coeffs)
    payload = json.loads(f.to_json())
    assert payload["ring"] == "exact"
    assert payload["coeffs"][1] == str(-(2**200))


def test_json_round_trip_mod():
    f = Series(mod_ring(40), [1, 39, 14, 0])
    g = Series.from_json(f.to_json())
    assert g.ring == mod_ring(40) and list(g.coeffs) == list(f.coeffs)


def test_json_rejects_malformed():
    with pytest.raises(ValueError, match="does not match"):
        Series.from_json('{"ring": "exact", "order": 3, "coeffs": ["1"]}')
    with pytest.raises(ValueError, match="ring tag"):
        Series.from_json('{"ring": "float", "order": 1, "coeffs": [1]}')


def test_exact_results_hold_python_ints_past_int64():
    # results of exact arithmetic are frozen as built, with no int() per
    # entry, so their entries past 2^63 must still be Python ints
    rng = random.Random(63)
    a = [rng.choice((1, -1)) * rng.randrange(2**63, 2**100) for _ in range(300)]
    f = Series(ZZ, a)
    phi = theta_series(ThetaKind.PHI_MINUS, ZZ, 300)
    built = [
        f + phi, f - phi, -f, f.scalar_mul(2**64 + 13), f * phi, phi * f,
        f.substitute_power(3), f.extract_progression(7, 5), f.truncate(9),
        hecke_apply(f, HeckeParams(k=5, N=16, ell=3)),
        theta_series(ThetaKind.PHI_MINUS, ZZ, 400).invert(),  # pbar(399) > 2^63
    ]
    for h in built:
        assert h.coeffs.dtype == object and not h.coeffs.flags.writeable
        assert all(type(c) is int for c in h.coeffs)
        assert max(map(abs, h.coeffs)) >= 2**63
    assert (f * phi).coeffs.tolist() == _shift_add_reference(a, phi.coeffs, 300)


def test_exact_operations_match_python_ints_past_int64():
    # magnitudes in [2^63, 2^200]: any cast of an exact vector to int64
    # would wrap or raise
    rng = random.Random(64)
    a = [rng.choice((1, -1)) * rng.randrange(2**63, 2**200 + 1) for _ in range(300)]
    b = [rng.choice((1, -1)) * rng.randrange(2**63, 2**200 + 1) for _ in range(250)]
    f, g = Series(ZZ, a), Series(ZZ, b)
    c = 2**64 + 13
    assert list((f + g).coeffs) == [x + y for x, y in zip(a, b)]
    assert list((f - g).coeffs) == [x - y for x, y in zip(a, b)]
    assert list((-f).coeffs) == [-x for x in a]
    assert list(f.scalar_mul(c).coeffs) == [c * x for x in a]
    assert list(f.scalar_mul(-c).coeffs) == [-c * x for x in a]
    assert list(f.substitute_power(3).coeffs) == [
        a[e // 3] if e % 3 == 0 else 0 for e in range(300)
    ]
    assert list(f.extract_progression(7, 5).coeffs) == a[5::7]
    assert [f.coefficient(n) for n in range(300)] == a
    # a difference of 2^64 leaves the low 64 bits equal
    moved = list(a)
    moved[123] += 2**64
    assert f.first_difference(Series(ZZ, moved)) == 123
    assert f.first_difference(Series(ZZ, a[:123])) is None
    buf = io.StringIO()
    write_coeffs(buf, f, "text")
    assert buf.getvalue() == ",".join(map(str, a))
    buf = io.StringIO()
    write_coeffs(buf, f, "json", name="big")
    assert json.loads(buf.getvalue()) == {
        "name": "big",
        "ring": "exact",
        "order": 300,
        "coeffs": [str(x) for x in a],
    }


@pytest.mark.parametrize(
    "series",
    [
        Series(ZZ, [1, -(2**70), 0] * 3000),
        Series(mod_ring(120), range(9000)),
        Series(mod_ring(7), []),
        Series(ZZ, []),
    ],
)
def test_write_coeffs_matches_whole_output(series):
    # 9000 coefficients span three of the writer's blocks
    extra = {"name": "pbar[5n+1]", "method": "theta-inversion"}
    buf = io.StringIO()
    write_coeffs(buf, series, "json", **extra)
    assert buf.getvalue() == json.dumps({**extra, **series.to_json_dict()}, indent=2)
    buf = io.StringIO()
    write_coeffs(buf, series, "text")
    assert buf.getvalue() == ",".join(str(int(c)) for c in series.coeffs)
    buf = io.StringIO()
    write_coeffs(buf, series, "csv")
    rows = "".join(f"{n},{int(c)}\n" for n, c in enumerate(series.coeffs))
    assert buf.getvalue() == "n,value\n" + rows
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        write_coeffs(io.StringIO(), series, "xml")


def test_bytes_round_trip_mod():
    rng = random.Random(8)
    f = _random_series(rng, mod_ring(1920), 257)
    blob = f.to_bytes()
    assert blob[:4] == b"QS01"
    g = Series.from_bytes(blob)
    assert g == f and g.ring == f.ring and g.order == f.order


@pytest.mark.parametrize(
    "modulus, width",
    [(2, 1), (120, 1), (256, 1), (257, 2), (1920, 2), (65536, 2), (65537, 4), (2**31 - 1, 4)],
)
def test_bytes_use_narrowest_word(modulus, width):
    rng = random.Random(modulus)
    f = _random_series(rng, mod_ring(modulus), 101)
    f = f + series_from_terms(f.ring, 101, [(100, modulus - 1 - f.coefficient(100))])
    blob = f.to_bytes()
    assert len(blob) == 21 + width * 101
    g = Series.from_bytes(blob)
    assert g == f and g.coefficient(100) == modulus - 1


def test_bytes_rejects_exact_and_malformed():
    with pytest.raises(ValueError, match="no binary form"):
        Series(ZZ, [1]).to_bytes()
    blob = Series(mod_ring(5), [1, 2, 3]).to_bytes()
    with pytest.raises(ValueError, match="magic"):
        Series.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="payload holds"):
        Series.from_bytes(blob[:-8])
    with pytest.raises(ValueError, match="21-byte header"):
        Series.from_bytes(b"QS01" + bytes(5))
    with pytest.raises(ValueError, match="payload holds 2 words"):
        Series.from_bytes(blob[:-1])
    with pytest.raises(ValueError, match="unknown ring tag 2"):
        Series.from_bytes(blob[:4] + bytes([2]) + blob[5:])
