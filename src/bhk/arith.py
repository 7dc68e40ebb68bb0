"""Exact integer primitives: 4x4 matrix coercion and transposition,
determinants and adjugates, totients, multiplicative orders, and solutions of
linear congruences mod d. Integers only: no rationals, no floating point."""

from __future__ import annotations

from math import gcd
from typing import Sequence

Vector4 = tuple[int, int, int, int]
Matrix4 = tuple[Vector4, Vector4, Vector4, Vector4]

IDENTITY4: Matrix4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def matrix4(rows: Sequence[Sequence[int]]) -> Matrix4:
    """Coerce a nested sequence into a canonical 4x4 integer tuple."""
    if len(rows) != 4:
        raise ValueError(f"expected 4 rows, got {len(rows)}")
    out = []
    for i, row in enumerate(rows):
        if len(row) != 4:
            raise ValueError(f"row {i} has {len(row)} entries, expected 4")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry ({i},{j}) is {v!r}, expected an integer")
        out.append(tuple(row))
    return tuple(out)


def transpose_rows(a: Matrix4) -> Matrix4:
    """Transpose of a 4x4 tuple matrix."""
    return tuple(zip(*a))


def euler_phi(n: int) -> int:
    """Euler totient of a positive integer, by trial-division factorization."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    result = n
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        result -= result // rest
    return result


def multiplicative_order(p: int, m: int) -> int:
    """Least f >= 1 with p^f = 1 mod m; requires gcd(p, m) = 1 and m >= 1."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if gcd(p, m) != 1:
        raise ValueError(f"{p} is not a unit mod {m}")
    x = p % m
    f = 1
    target = 1 % m
    while x != target:
        x = x * p % m
        f += 1
    return f


def minus_one_power_exists(p: int, m: int) -> bool:
    """Whether some power of p is congruent to -1 mod m. True whenever m <= 2."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if gcd(p, m) != 1:
        raise ValueError(f"{p} is not a unit mod {m}")
    if m <= 2:
        return True
    x = p % m
    for _ in range(multiplicative_order(p, m)):
        if x == m - 1:
            return True
        x = x * p % m
    return False


def det_adjugate(a: Matrix4) -> tuple[int, Matrix4]:
    """Determinant and adjugate by Laplace expansion along rows 0-1: each is a
    signed sum of products of a 2x2 minor s of rows 0-1 with the complementary
    2x2 minor c of rows 2-3, or of one entry with such a minor, so twelve
    minors give all of it, in integers. The identity A adj = adj A = det I is
    checked where the adjugate is used, in `build_delsarte`, as A B = B A = d I
    for B = d adj / det."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = a
    # s_jk and c_jk: the minors of rows 0-1 and of rows 2-3 on columns j, k.
    s01 = a00 * a11 - a10 * a01
    s02 = a00 * a12 - a10 * a02
    s03 = a00 * a13 - a10 * a03
    s12 = a01 * a12 - a11 * a02
    s13 = a01 * a13 - a11 * a03
    s23 = a02 * a13 - a12 * a03
    c01 = a20 * a31 - a30 * a21
    c02 = a20 * a32 - a30 * a22
    c03 = a20 * a33 - a30 * a23
    c12 = a21 * a32 - a31 * a22
    c13 = a21 * a33 - a31 * a23
    c23 = a22 * a33 - a32 * a23
    det = s01 * c23 - s02 * c13 + s03 * c12 + s12 * c03 - s13 * c02 + s23 * c01
    adj = (
        (
            a11 * c23 - a12 * c13 + a13 * c12,
            -a01 * c23 + a02 * c13 - a03 * c12,
            a31 * s23 - a32 * s13 + a33 * s12,
            -a21 * s23 + a22 * s13 - a23 * s12,
        ),
        (
            -a10 * c23 + a12 * c03 - a13 * c02,
            a00 * c23 - a02 * c03 + a03 * c02,
            -a30 * s23 + a32 * s03 - a33 * s02,
            a20 * s23 - a22 * s03 + a23 * s02,
        ),
        (
            a10 * c13 - a11 * c03 + a13 * c01,
            -a00 * c13 + a01 * c03 - a03 * c01,
            a30 * s13 - a31 * s03 + a33 * s01,
            -a20 * s13 + a21 * s03 - a23 * s01,
        ),
        (
            -a10 * c12 + a11 * c02 - a12 * c01,
            a00 * c12 - a01 * c02 + a02 * c01,
            -a30 * s12 + a31 * s02 - a32 * s01,
            a20 * s12 - a21 * s02 + a22 * s01,
        ),
    )
    return det, adj


def kernel_mod(rows: Sequence[Sequence[int]], d: int) -> tuple[Vector4, ...]:
    """Generators of {x in (Z/d)^4 : r . x = 0 mod d for every row r}.

    The rows are diagonalized by unimodular integer row and column operations
    (Smith normal form without the divisibility chain), the column operations
    kept in V, so that U R V = diag(s). Since U is invertible, R x = 0 mod d
    exactly when y = V^(-1) x has s_i y_i = 0 mod d for each i, so the columns
    of V scaled by d / gcd(d, s_i) generate the solutions. Returns at most four
    generators, none of them zero.
    """
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    a = [[x % d for x in r] for r in rows]
    if any(len(r) != 4 for r in a):
        raise ValueError("every row needs 4 entries")
    v = [list(r) for r in IDENTITY4]
    diag = [0, 0, 0, 0]
    for t in range(4):
        while True:
            entries = [(abs(a[i][j]), i, j) for i in range(t, len(a)) for j in range(t, 4) if a[i][j]]
            if not entries:
                break
            _, i, j = min(entries)
            a[t], a[i] = a[i], a[t]
            for r in (*a, *v):
                r[t], r[j] = r[j], r[t]
            p = a[t][t]
            for i in range(t + 1, len(a)):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, 4):
                q = a[t][j] // p
                for r in (*a, *v):
                    r[j] -= q * r[t]
            if not any(a[i][t] for i in range(t + 1, len(a))) and not any(a[t][t + 1 :]):
                diag[t] = p
                break
    gens = []
    for k in range(4):
        step = d // gcd(d, diag[k])
        col = tuple(v[i][k] * step % d for i in range(4))
        if any(col):
            gens.append(col)
    return tuple(gens)
