"""Half-integral-weight Hecke operator, Legendre symbol, eigenform checks."""

from __future__ import annotations

import random

import numpy as np
import pytest

from ovp import (
    ZZ,
    HeckeParams,
    Series,
    dim_half_integral,
    eigenform_check,
    hecke_apply,
    hecke_coefficient_identity,
    legendre,
    mod_ring,
)
from ovp.hecke import is_odd_prime

ELLS = (3, 5, 7, 11, 13)


# -- legendre symbol ------------------------------------------------------------


def test_legendre_frozen_values():
    assert legendre(-1, 5) == 1
    assert legendre(2, 5) == -1
    assert legendre(0, 7) == 0
    assert legendre(14, 7) == 0
    assert legendre(-1, 3) == -1
    assert legendre(-1, 7) == -1
    assert legendre(-1, 13) == 1
    assert legendre(3, 13) == 1
    assert legendre(2, 13) == -1


@pytest.mark.parametrize("ell", ELLS)
def test_legendre_against_square_counting(ell):
    squares = {a * a % ell for a in range(1, ell)}
    for a in range(2 * ell):
        expected = 0 if a % ell == 0 else (1 if a % ell in squares else -1)
        assert legendre(a, ell) == expected
        assert legendre(a - 3 * ell, ell) == expected  # periodicity


@pytest.mark.parametrize("ell", ELLS)
def test_legendre_is_multiplicative(ell):
    rng = random.Random(1000 + ell)
    for _ in range(500):
        a = rng.randrange(-10**6, 10**6)
        b = rng.randrange(-10**6, 10**6)
        assert legendre(a * b, ell) == legendre(a, ell) * legendre(b, ell)


@pytest.mark.parametrize("bad", (1, 2, 9, 15, -7))
def test_legendre_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError, match="odd prime"):
        legendre(3, bad)


def test_is_odd_prime_against_sieve():
    limit = 1000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(-2, limit):
        assert is_odd_prime(n) == (n >= 3 and n % 2 == 1 and sieve[n])
    assert is_odd_prime(7919)
    assert not is_odd_prime(7917)
    assert not is_odd_prime(2)


# -- operator parameters ----------------------------------------------------------


def test_params_validation():
    HeckeParams(k=3, N=16, ell=5)  # valid
    with pytest.raises(ValueError, match="odd"):
        HeckeParams(k=2, N=16, ell=5)
    with pytest.raises(ValueError):
        HeckeParams(k=-3, N=16, ell=5)
    with pytest.raises(ValueError, match="multiple of 4"):
        HeckeParams(k=3, N=10, ell=5)
    with pytest.raises(ValueError, match="odd prime"):
        HeckeParams(k=3, N=16, ell=9)
    with pytest.raises(ValueError, match="must not divide"):
        HeckeParams(k=3, N=12, ell=3)
    # numpy integers are accepted and stored as Python ints
    params = HeckeParams(k=np.int64(3), N=np.int64(16), ell=np.int64(5))
    assert params == HeckeParams(k=3, N=16, ell=5)
    assert all(type(v) is int for v in (params.k, params.N, params.ell))
    with pytest.raises(ValueError, match="odd"):
        HeckeParams(k=np.int64(2), N=16, ell=5)


# -- operator action ----------------------------------------------------------------


def _manual_apply(f: Series, k: int, ell: int) -> list[int]:
    l2 = ell * ell
    out = []
    for n in range((f.order - 1) // l2 + 1):
        b = f.coefficient(l2 * n)
        chi = legendre((-1) ** ((k - 1) // 2) * n, ell)
        b += chi * ell ** ((k - 3) // 2) * f.coefficient(n)
        if n % l2 == 0:
            b += ell ** (k - 2) * f.coefficient(n // l2)
        out.append(b)
    return out


@pytest.mark.parametrize("k", (3, 5, 7))
@pytest.mark.parametrize("ell", (3, 5))
def test_apply_matches_direct_formula(k, ell):
    rng = random.Random(17 * k + ell)
    f = Series(ZZ, [rng.randrange(-50, 50) for _ in range(400)])
    image = hecke_apply(f, HeckeParams(k=k, N=16, ell=ell))
    assert list(image.coeffs) == _manual_apply(f, k, ell)
    # residues near 2^31 times l^(k - 2) pass 2^63 at k = 45
    m = 2**31 - 1
    for weight in (k, 45):
        exact = hecke_apply(f, HeckeParams(k=weight, N=16, ell=ell))
        assert list(exact.coeffs) == _manual_apply(f, weight, ell)
        image = hecke_apply(f.reduce_mod(m), HeckeParams(k=weight, N=16, ell=ell))
        assert list(image.coeffs) == [b % m for b in _manual_apply(f, weight, ell)]


def test_apply_at_high_weight_keeps_python_ints():
    # l^((k - 3)/2) = 31^19 and l^(k - 2) = 31^39 are far past 2^63; numpy
    # integer parameters must give the same exact image
    rng = random.Random(41)
    f = Series(ZZ, [rng.randrange(-(2**70), 2**70) for _ in range(3000)])
    want = _manual_apply(f, 41, 31)
    for k, N, ell in ((41, 16, 31), (np.int64(41), np.int64(16), np.int64(31))):
        image = hecke_apply(f, HeckeParams(k=k, N=N, ell=ell))
        assert list(image.coeffs) == want


@pytest.mark.parametrize("ell", (3, 5))
def test_apply_on_narrow_residues_matches_exact_image(ell, phi_cubed):
    # residues mod 200 are uint8; the operator's signed sums must neither
    # wrap nor raise on them
    f = phi_cubed.truncate(3000)
    params = HeckeParams(k=3, N=16, ell=ell)
    narrow = f.reduce_mod(200)
    assert narrow.coeffs.dtype.itemsize == 1
    assert hecke_apply(narrow, params) == hecke_apply(f, params).reduce_mod(200)


def test_apply_output_order_and_minimum_input():
    f = Series(mod_ring(97), range(100))
    image = hecke_apply(f, HeckeParams(k=3, N=16, ell=3))
    assert image.order == (100 - 1) // 9 + 1
    with pytest.raises(ValueError, match="no output coefficient"):
        hecke_apply(Series(ZZ, range(8)), HeckeParams(k=3, N=16, ell=3))


def test_apply_is_linear():
    rng = random.Random(88)
    ring = mod_ring(97)
    params = HeckeParams(k=3, N=16, ell=3)
    f = Series(ring, [rng.randrange(97) for _ in range(200)])
    g = Series(ring, [rng.randrange(97) for _ in range(200)])
    assert hecke_apply(f + g, params) == hecke_apply(f, params) + hecke_apply(g, params)
    assert hecke_apply(f.scalar_mul(7), params) == hecke_apply(f, params).scalar_mul(7)


def test_weight_one_needs_invertible_ell():
    f = Series(ZZ, range(25))
    with pytest.raises(ValueError, match="residue ring"):
        hecke_apply(f, HeckeParams(k=1, N=16, ell=5))
    with pytest.raises(ValueError, match="not invertible"):
        hecke_apply(Series(mod_ring(9), range(25)), HeckeParams(k=1, N=16, ell=3))
    # with gcd(l, m) = 1 the negative powers of l reduce consistently
    m = 25
    fm = Series(mod_ring(m), range(30))
    image = hecke_apply(fm, HeckeParams(k=1, N=16, ell=3))
    inv3 = pow(3, -1, m)
    expected = []
    for n in range(len(image.coeffs)):
        b = fm.coefficient(9 * n) + legendre(n, 3) * inv3 * fm.coefficient(n)
        if n % 9 == 0:
            b += inv3 * fm.coefficient(n // 9)
        expected.append(b % m)
    assert list(image.coeffs) == expected


# -- eigenforms -----------------------------------------------------------------


@pytest.mark.parametrize("ell", ELLS)
def test_theta_cubes_are_eigenforms(ell, phi_cubed, phi_minus_cubed):
    params = HeckeParams(k=3, N=16, ell=ell)
    for f in (phi_cubed.truncate(2500), phi_minus_cubed.truncate(2500)):
        report = eigenform_check(f, params, ell + 1)
        assert report.ok
        assert report.eigenvalue == ell + 1
        assert report.order == (2500 - 1) // (ell * ell) + 1
        assert report.to_json_dict() == {
            "ell": ell,
            "lambda": ell + 1,
            "order": report.order,
            "pass": True,
        }


def test_wrong_eigenvalue_is_rejected_at_the_constant_term(phi_cubed):
    report = eigenform_check(
        phi_cubed.truncate(100), HeckeParams(k=3, N=16, ell=3), 5
    )
    assert not report.ok
    # b(0) = a(0) + l a(0) = l + 1 = 4, but 5 * a(0) = 5
    assert report.first_failure == 0
    assert report.to_json_dict()["first_failure"] == 0


def test_random_series_is_not_an_eigenform():
    rng = random.Random(3)
    f = Series(ZZ, [1] + [rng.randrange(1, 9) for _ in range(99)])
    report = eigenform_check(f, HeckeParams(k=3, N=16, ell=3), 4)
    assert not report.ok


# -- coefficient recursion ---------------------------------------------------------


def test_coefficient_identity_on_eigenform(phi_minus_cubed):
    for ell in (3, 5, 7):
        for n in range(0, 120):
            case = hecke_coefficient_identity(n, ell, phi_minus_cubed)
            assert case.ok, (ell, n, case)
            assert case.lhs == case.rhs


def test_coefficient_identity_accepts_sequences():
    # a(n) = coefficients of phi(-q)^3: 1, -6, 12, -8, 6, -24, 24, 0, 12, -30
    seq = (1, -6, 12, -8, 6, -24, 24, 0, 12, -30)
    case = hecke_coefficient_identity(1, 3, seq)
    # lhs = a(9) + legendre(-1, 3) a(1) = -30 + (-1)(-6) = -24 = 4 a(1) = rhs
    assert case.lhs == -24 and case.rhs == -24 and case.ok
    broken = (1, -6, 12, -8, 6, -24, 24, 0, 12, 99)
    bad = hecke_coefficient_identity(1, 3, broken)
    assert bad.lhs == 105 and bad.rhs == -24 and not bad.ok


def test_coefficient_identity_argument_checks(phi_minus_cubed):
    with pytest.raises(ValueError, match="too short"):
        hecke_coefficient_identity(2, 3, (1, -6, 12))
    with pytest.raises(ValueError, match="odd prime"):
        hecke_coefficient_identity(1, 4, phi_minus_cubed)
    with pytest.raises(ValueError):
        hecke_coefficient_identity(-1, 3, phi_minus_cubed)


# -- dimension count ------------------------------------------------------------


def test_dimension_formula():
    assert [dim_half_integral(k) for k in (1, 3, 5, 7, 9, 11, 13)] == [
        1, 1, 2, 2, 3, 3, 4,
    ]
    with pytest.raises(ValueError):
        dim_half_integral(2)
    with pytest.raises(ValueError):
        dim_half_integral(0)
    with pytest.raises(ValueError):
        dim_half_integral(-3)
