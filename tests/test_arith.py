"""Exact integer and rational helpers, checked against brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhk.arith import (
    IDENTITY4,
    det_adjugate,
    euler_phi,
    kernel_mod,
    matrix4,
    minus_one_power_exists,
    multiplicative_order,
    transpose_rows,
)
from conftest import A_EX_ROWS, build
from oracles import cofactor_det_adjugate, inverse, mat_mul


def test_matrix4_validation():
    with pytest.raises(ValueError):
        matrix4(((1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 1, 1)))
    with pytest.raises(ValueError):
        matrix4(((1, 2, 3, 4),) * 3)
    with pytest.raises(ValueError):
        matrix4(((1.0, 2, 3, 4), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(ValueError):
        matrix4(((True, 2, 3, 4), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_transpose_and_products():
    a = matrix4(((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 6, 1), (0, 0, 0, 7)))
    at = transpose_rows(a)
    assert at[0] == (2, 0, 0, 0)
    assert transpose_rows(at) == a
    assert mat_mul(a, IDENTITY4) == a


def test_euler_phi_golden():
    assert euler_phi(1) == 1
    assert euler_phi(8) == 4
    assert euler_phi(168) == 48
    with pytest.raises(ValueError):
        euler_phi(0)


def test_euler_phi_against_sieve():
    limit = 10_000
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    for n in range(1, limit + 1):
        assert euler_phi(n) == phi[n], n


def test_euler_phi_against_brute_count():
    for n in (1, 2, 12, 97, 168, 360, 1009):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_multiplicative_order_golden():
    assert multiplicative_order(3, 8) == 2
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(5, 168) == 6
    assert multiplicative_order(10, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 8)


def test_multiplicative_order_is_minimal():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(2, 400)
        p = rng.randint(1, 10_000)
        if gcd(p, m) != 1:
            continue
        f = multiplicative_order(p, m)
        assert pow(p, f, m) == 1
        assert all(pow(p, e, m) != 1 for e in range(1, f))


def test_minus_one_power_exists():
    assert minus_one_power_exists(23, 8)  # 23 = -1 mod 8
    assert not minus_one_power_exists(5, 8)
    assert minus_one_power_exists(3, 7)  # 3^3 = 27 = -1 mod 7
    assert minus_one_power_exists(5, 2)
    assert minus_one_power_exists(9, 1)


def test_minus_one_power_brute():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 120)
        p = rng.randint(1, 1000)
        if gcd(p, m) != 1:
            continue
        brute = any(pow(p, e, m) == m - 1 or m <= 2 for e in range(1, m + 1))
        assert minus_one_power_exists(p, m) == brute


def _random_matrix(rng):
    return tuple(tuple(rng.randint(-6, 6) for _ in range(4)) for _ in range(4))


def test_det_adjugate_identity_property():
    rng = random.Random(42)
    checked = 0
    while checked < 1000:
        a = _random_matrix(rng)
        det, adj = det_adjugate(a)
        prod = mat_mul(a, adj)
        expect = tuple(
            tuple(det if i == j else 0 for j in range(4)) for i in range(4)
        )
        assert prod == expect
        assert mat_mul(adj, a) == expect
        checked += 1


def test_det_matches_permutation_expansion():
    def perm_det(a):
        from itertools import permutations

        total = 0
        for sigma in permutations(range(4)):
            sign = 1
            for i in range(4):
                for j in range(i + 1, 4):
                    if sigma[i] > sigma[j]:
                        sign = -sign
            term = sign
            for i in range(4):
                term *= a[i][sigma[i]]
            total += term
        return total

    rng = random.Random(3)
    for _ in range(200):
        a = _random_matrix(rng)
        det, _ = det_adjugate(a)
        assert det == perm_det(a)


_big = st.integers(min_value=-(10**6), max_value=10**6)
_matrices = st.tuples(*[st.tuples(_big, _big, _big, _big)] * 4)


@settings(max_examples=500, deadline=None)
@given(a=_matrices, shape=st.sampled_from(["as drawn", "repeated row", "zero column", "row combination"]))
def test_det_adjugate_matches_cofactor_expansion(a, shape):
    """The complementary-minor formula against cofactor expansion, singular
    matrices included: a repeated row, a zero column, a row that is a
    combination of two others."""
    if shape == "repeated row":
        a = (a[0], a[1], a[2], a[1])
    elif shape == "zero column":
        a = tuple((r[0], r[1], 0, r[3]) for r in a)
    elif shape == "row combination":
        a = (a[0], a[1], a[2], tuple(x - 2 * y for x, y in zip(a[0], a[2])))
    det, adj = det_adjugate(a)
    assert (det, adj) == cofactor_det_adjugate(a)
    if shape != "as drawn":
        assert det == 0


def test_delsarte_inverse_exact():
    a = A_EX_ROWS
    inv = inverse(build(a))
    assert inv[0] == (
        Fraction(1, 2),
        Fraction(-1, 4),
        Fraction(1, 24),
        Fraction(-1, 168),
    )
    prod = [
        [sum(Fraction(a[i][k]) * inv[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]
    assert all(prod[i][j] == (1 if i == j else 0) for i in range(4) for j in range(4))


def _kernel_by_enumeration(rows, d):
    return {
        x
        for x in product(range(d), repeat=4)
        if all(sum(r[i] * x[i] for i in range(4)) % d == 0 for r in rows)
    }


def _span(gens, d):
    span = {(0, 0, 0, 0)}
    frontier = list(span)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b in zip(x, g))
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def _assert_kernel(rows, d):
    gens = kernel_mod(rows, d)
    assert len(gens) <= 4
    assert all(len(g) == 4 and any(g) and all(0 <= c < d for c in g) for g in gens)
    assert _span(gens, d) == _kernel_by_enumeration(rows, d)


_entries = st.integers(min_value=-20, max_value=20)
_rows = st.lists(st.tuples(_entries, _entries, _entries, _entries), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    rows=_rows,
    d=st.integers(min_value=1, max_value=8),
    shape=st.sampled_from(["as drawn", "zero row", "duplicate row", "sum of rows"]),
)
def test_kernel_mod_against_enumeration(rows, d, shape):
    rows = list(rows)
    if shape == "zero row":
        rows[-1] = (0, 0, 0, 0)
    elif shape == "duplicate row":
        rows.append(rows[0])
    elif shape == "sum of rows":  # rank-deficient
        rows.append(tuple(a - 3 * b for a, b in zip(rows[0], rows[-1])))
    _assert_kernel(rows, d)


@pytest.mark.parametrize(
    "rows, d",
    [
        ([(1, 2, 3, 4)], 1),
        ([(0, 0, 0, 0)], 6),
        ([(2, 4, 0, 6), (2, 4, 0, 6)], 8),
        ([(1, 1, 0, 0), (0, 1, 1, 0), (1, 2, 1, 0)], 6),
        ([(6, 0, 0, 0), (0, 4, 0, 0), (0, 0, 3, 0), (0, 0, 0, 8)], 8),
        ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 7),
    ],
)
def test_kernel_mod_edge_cases(rows, d):
    _assert_kernel(rows, d)


def test_kernel_mod_without_rows_is_everything():
    assert _span(kernel_mod([], 4), 4) == set(product(range(4), repeat=4))
    assert kernel_mod([], 1) == ()


def test_kernel_mod_rejects_bad_input():
    with pytest.raises(ValueError):
        kernel_mod([(1, 0, 0, 0)], 0)
    with pytest.raises(ValueError):
        kernel_mod([(1, 0, 0)], 5)
