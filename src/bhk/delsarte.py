"""Weighted Delsarte matrices: validation, weight systems, the exponent d,
and the integral matrix B = d A^(-1)."""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Sequence

from .arith import Matrix4, Vector4, det_adjugate, matrix4, transpose_rows
from .errors import (
    CharDividesDet,
    InternalCheckError,
    NegativeEntry,
    NonpositiveWeight,
    RowWithoutZero,
    SingularMatrix,
)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base above (Sorenson and Webster, 2015).
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the 13 prime bases 2..41, exact for
    n < _PRIME_TEST_BOUND; ValueError at or above it."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"{n} is too large for an exact primality test (limit {_PRIME_TEST_BOUND})")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _PRIME_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _CharacteristicFields(NamedTuple):
    p: int = 0


class Characteristic(_CharacteristicFields):
    """Base field characteristic: zero or a prime below _PRIME_TEST_BOUND."""

    __slots__ = ()

    def __new__(cls, p: int = 0):
        if p != 0 and not is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it; checked like a new one
        return cls(*iterable)

    @property
    def positive(self) -> bool:
        return self.p > 0


class DelsarteMatrix(NamedTuple):
    """A validated matrix of exponents together with its cached derived data.

    weights q and degree h satisfy A q = h (1,1,1,1) with gcd(q) = 1; the
    exponent d is the least positive integer making B = d A^(-1) integral.
    """

    matrix: Matrix4
    det: int
    adjugate: Matrix4
    weights: Vector4
    degree: int
    exponent: int
    b_matrix: Matrix4


def build_delsarte(rows: Sequence[Sequence[int]], char: Characteristic) -> DelsarteMatrix:
    """Validate a candidate exponent matrix and compute its derived data.

    Checks, in order: shape, nonnegativity, a zero in every row, nonzero
    determinant, characteristic coprime to the determinant, positive weights.
    """
    m = matrix4(rows)
    _check_rows(m)
    return _derive(m, *det_adjugate(m), char)


def _check_rows(m: Matrix4) -> None:
    """NegativeEntry, then RowWithoutZero, each naming the first offending
    entry or row in row-major order, found only once the check has failed."""
    if min(map(min, m)) < 0:
        i, j = next((i, j) for i in range(4) for j in range(4) if m[i][j] < 0)
        raise NegativeEntry(f"entry ({i},{j}) = {m[i][j]} is negative")
    for i, row in enumerate(m):
        if 0 not in row:
            raise RowWithoutZero(f"row {i} = {row} has no zero entry")


def _derive(m: Matrix4, det: int, adj: Matrix4, char: Characteristic) -> DelsarteMatrix:
    """The derived data of checked rows from their determinant and adjugate."""
    if det == 0:
        raise SingularMatrix("determinant is zero")
    if char.positive and det % char.p == 0:
        raise CharDividesDet(f"characteristic {char.p} divides det = {det}")

    # A^(-1) (1,1,1,1) = r / det for r the row sums of adj, so q = r h / det
    # with h the least common denominator |det| / gcd(det, r).
    r = [sum(row) for row in adj]
    for i, ri in enumerate(r):
        if ri * det <= 0:
            raise NonpositiveWeight(f"weight {i} is {'zero' if ri == 0 else 'negative'}, expected positive")
    h = abs(det) // gcd(det, *r)
    q = tuple(ri * h // det for ri in r)
    if gcd(*q) != 1:
        raise InternalCheckError(f"weight normalization failed: q = {q}")

    d = lcm(*[abs(det) // gcd(det, x) for row in adj for x in row])
    b = tuple([tuple([d * x // det for x in row]) for row in adj])
    _check_construction(m, det, q, h, d, b)
    return DelsarteMatrix(
        matrix=m, det=det, adjugate=adj, weights=q, degree=h, exponent=d, b_matrix=b
    )


def _check_construction(m, det, q, h, d, b):
    """Construction-time assertions: A B = B A = d I, A q = h 1, h | d | |det| | d^4.

    As B = d adj / det, the first is the adjugate identity A adj = adj A = det I,
    checked here and nowhere else, on the 16 entries of each product in
    row-major order against d I flattened."""
    scaled_identity = [d, 0, 0, 0, 0, d, 0, 0, 0, 0, d, 0, 0, 0, 0, d]
    m_cols, b_cols = transpose_rows(m), transpose_rows(b)
    ab = [r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for r0, r1, r2, r3 in m for c0, c1, c2, c3 in b_cols]
    ba = [r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for r0, r1, r2, r3 in b for c0, c1, c2, c3 in m_cols]
    if ab != scaled_identity or ba != scaled_identity:
        raise InternalCheckError("A B = B A = d I failed")
    q0, q1, q2, q3 = q
    if any(r0 * q0 + r1 * q1 + r2 * q2 + r3 * q3 != h for r0, r1, r2, r3 in m):
        raise InternalCheckError("A q = h (1,1,1,1) failed")
    if d % h != 0 or abs(det) % d != 0 or d**4 % abs(det) != 0:
        raise InternalCheckError(f"divisibility chain h | d | |det| | d^4 failed: {h}, {d}, {det}")


def is_calabi_yau(m: DelsarteMatrix) -> bool:
    """Whether the degree equals the weight sum; cross-checked against the
    inverse-entry sum being 1, tested exactly as adjugate-entry sum = det."""
    by_weights = m.degree == sum(m.weights)
    by_inverse = sum(x for row in m.adjugate for x in row) == m.det
    if by_weights != by_inverse:
        raise InternalCheckError("Calabi-Yau criteria disagree")
    return by_weights


def transpose(m: DelsarteMatrix, char: Characteristic) -> DelsarteMatrix:
    """The transposed matrix A^T, validated as `build_delsarte` validates rows;
    errors propagate. Its determinant and adjugate are det(A) and adj(A)^T,
    taken from A instead of a second cofactor expansion: the identity check
    A^T B^T = B^T A^T = d I in `_check_construction` catches a wrong one."""
    mt = transpose_rows(m.matrix)
    _check_rows(mt)
    return _derive(mt, m.det, transpose_rows(m.adjugate), char)
