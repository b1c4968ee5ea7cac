"""Theta series: coefficient laws, sparsity, and the exponent-parity split."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ovp import ZZ, Series, ThetaKind, check_two_dissection, mod_ring, theta_series
from ovp.theta import theta_terms


def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def _is_triangular(n: int) -> bool:
    # n = t(t+1)/2  <=>  8n + 1 is a perfect square
    return _is_square(8 * n + 1)


@pytest.mark.parametrize("order", (1, 2, 50, 500))
def test_phi_coefficients(order):
    f = theta_series(ThetaKind.PHI_PLUS, ZZ, order)
    for n in range(order):
        expected = 1 if n == 0 else (2 if _is_square(n) else 0)
        assert f.coefficient(n) == expected


@pytest.mark.parametrize("order", (1, 2, 50, 500))
def test_phi_minus_coefficients(order):
    f = theta_series(ThetaKind.PHI_MINUS, ZZ, order)
    for n in range(order):
        if n == 0:
            expected = 1
        elif _is_square(n):
            expected = 2 * (-1) ** math.isqrt(n)
        else:
            expected = 0
        assert f.coefficient(n) == expected


@pytest.mark.parametrize("order", (1, 2, 50, 500))
def test_psi_coefficients(order):
    f = theta_series(ThetaKind.PSI, ZZ, order)
    for n in range(order):
        assert f.coefficient(n) == (1 if _is_triangular(n) else 0)


@pytest.mark.parametrize("order", (1, 2, 50, 500))
def test_positive_squares_coefficients(order):
    f = theta_series(ThetaKind.POSITIVE_SQUARES, ZZ, order)
    for n in range(order):
        assert f.coefficient(n) == (1 if n > 0 and _is_square(n) else 0)


def test_phi_support_size():
    # 1 + floor(sqrt(T - 1)) nonzero terms below order T
    for T in (1, 2, 10, 100, 10**4, 10**4 + 1):
        f = theta_series(ThetaKind.PHI_PLUS, ZZ, T)
        assert f.nnz == 1 + math.isqrt(T - 1)


def _theta_terms_by_loops(kind: ThetaKind, order: int) -> list[tuple[int, int]]:
    if kind is ThetaKind.PSI:
        terms, t = [], 0
        while t * (t + 1) // 2 < order:
            terms.append((t * (t + 1) // 2, 1))
            t += 1
        return terms
    terms = [] if kind is ThetaKind.POSITIVE_SQUARES else [(0, 1)]
    k = 1
    while k * k < order:
        c = {ThetaKind.PHI_PLUS: 2, ThetaKind.PHI_MINUS: 2 * (-1) ** k}.get(kind, 1)
        terms.append((k * k, c))
        k += 1
    return terms


def test_theta_terms_match_their_definition():
    # every order to 3000, 10^6 + 1, and the orders about those whose last
    # index is a square or a triangular number
    edges = [k * k for k in (999, 1000, 9999)] + [t * (t + 1) // 2 for t in (1413, 1414, 9999)]
    boundaries = {e + d for e in edges for d in (0, 1, 2)}
    for order in [*range(1, 3001), 10**6 + 1, *sorted(boundaries)]:
        for kind in ThetaKind:
            assert theta_terms(kind, order) == _theta_terms_by_loops(kind, order), (kind, order)
    with pytest.raises(ValueError, match="unknown theta kind"):
        theta_terms("phi", 10)


def test_theta_terms_validation():
    with pytest.raises(ValueError):
        theta_terms(ThetaKind.PSI, 0)
    with pytest.raises(ValueError):
        theta_terms(ThetaKind.PSI, -3)
    with pytest.raises(ValueError):
        theta_terms(ThetaKind.PSI, np.int64(0))
    # numpy integer orders are accepted like Python ints
    assert theta_terms(ThetaKind.PSI, np.int64(50)) == theta_terms(ThetaKind.PSI, 50)
    assert theta_series(ThetaKind.PHI_MINUS, ZZ, np.int32(50)) == theta_series(
        ThetaKind.PHI_MINUS, ZZ, 50
    )
    assert all(c.ok for c in check_two_dissection(np.int64(100)))


def test_mod_ring_construction_matches_reduction():
    for kind in ThetaKind:
        exact = theta_series(kind, ZZ, 200)
        direct = theta_series(kind, mod_ring(5), 200)
        assert direct == exact.reduce_mod(5)


def test_two_dissection_holds_to_ten_thousand():
    checks = check_two_dissection(10**4)
    assert [c.name for c in checks] == [
        "phi(q) = phi(q^4) + 2q psi(q^8)",
        "phi(-q) = phi(q^4) - 2q psi(q^8)",
    ]
    assert all(c.ok for c in checks)
    assert all(c.order == 10**4 for c in checks)


def test_two_dissection_small_orders():
    for order in (1, 2, 3, 9, 10):
        assert all(c.ok for c in check_two_dissection(order))


def test_two_dissection_detects_corruption():
    order = 200
    good = theta_series(ThetaKind.PHI_PLUS, ZZ, order)
    data = list(good.coeffs)
    data[81] += 1
    corrupt = Series(ZZ, data)
    checks = check_two_dissection(order, phi_plus=corrupt)
    assert not checks[0].ok and checks[0].first_difference == 81
    assert checks[1].ok  # the untouched side still passes

    good_minus = theta_series(ThetaKind.PHI_MINUS, ZZ, order)
    data = list(good_minus.coeffs)
    data[49] = 0
    checks = check_two_dissection(order, phi_minus=Series(ZZ, data))
    assert checks[0].ok
    assert not checks[1].ok and checks[1].first_difference == 49


def test_phi_times_phi_minus_is_phi_minus_q2_squared():
    order = 4000
    lhs = theta_series(ThetaKind.PHI_PLUS, ZZ, order) * theta_series(
        ThetaKind.PHI_MINUS, ZZ, order
    )
    rhs = theta_series(ThetaKind.PHI_MINUS, ZZ, order).substitute_power(2) ** 2
    assert lhs == rhs
