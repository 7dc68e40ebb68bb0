"""Weighted Delsarte matrices: validation, weight systems, the exponent d,
and the integral matrix B = d A^(-1)."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Sequence

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


@dataclass(frozen=True)
class Characteristic:
    """Base field characteristic: zero or a prime below _PRIME_TEST_BOUND."""

    p: int = 0

    def __post_init__(self):
        if self.p != 0 and not is_prime(self.p):
            raise ValueError(f"characteristic must be 0 or prime, got {self.p}")

    @property
    def positive(self) -> bool:
        return self.p > 0


@dataclass(frozen=True)
class DelsarteMatrix:
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
    for i in range(4):
        for j in range(4):
            if m[i][j] < 0:
                raise NegativeEntry(f"entry ({i},{j}) = {m[i][j]} is negative")
    for i in range(4):
        if all(v != 0 for v in m[i]):
            raise RowWithoutZero(f"row {i} = {m[i]} has no zero entry")
    det, adj = det_adjugate(m)
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

    d = lcm(*[abs(det) // gcd(det, adj[i][j]) for i in range(4) for j in range(4)])
    b = tuple(tuple(d * adj[i][j] // det for j in range(4)) for i in range(4))
    _check_construction(m, det, q, h, d, b)
    return DelsarteMatrix(
        matrix=m, det=det, adjugate=adj, weights=q, degree=h, exponent=d, b_matrix=b
    )


def _check_construction(m, det, q, h, d, b):
    """Construction-time assertions: A B = B A = d I, A q = h 1, h | d | |det| | d^4.

    As B = d adj / det, the first is the adjugate identity A adj = adj A = det I,
    checked here and nowhere else."""
    for i in range(4):
        for j in range(4):
            ab = sum(m[i][k] * b[k][j] for k in range(4))
            ba = sum(b[i][k] * m[k][j] for k in range(4))
            want = d if i == j else 0
            if ab != want or ba != want:
                raise InternalCheckError("A B = B A = d I failed")
    if any(sum(m[i][j] * q[j] for j in range(4)) != h for i in range(4)):
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
    """The transposed matrix, validated from scratch; errors propagate."""
    return build_delsarte(transpose_rows(m.matrix), char)
