"""Exact integer primitives: 4x4 matrix coercion and transposition,
determinants and adjugates, totients, multiplicative orders, the primes up to
a bound, and solutions of linear congruences mod d. Integers only: no
rationals, no floating point. Also `Record`, the tuple base of the package's
result records."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from math import gcd, isqrt

Vector4 = tuple[int, int, int, int]
Matrix4 = tuple[Vector4, Vector4, Vector4, Vector4]

IDENTITY4: Matrix4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class Record(tuple):
    """A tuple with named fields. A subclass lists them in `_fields`, the
    defaults of trailing ones in `_field_defaults`, and reads field i through
    `property(itemgetter(i))`; it is built from the fields by position or by
    name. Each record is a plain class statement: `typing.NamedTuple` and
    `collections.namedtuple` build every class with an `eval`, which cost
    more than the rest of the package's import. A build by name costs
    several times one by position, so the package builds by position."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _field_defaults: dict = {}

    def __new__(cls, *values, **named):
        fields = cls._fields
        if named or len(values) != len(fields):
            rest = fields[len(values) :]
            if len(values) > len(fields) or named.keys() - rest:
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
            try:
                values += tuple(map({**cls._field_defaults, **named}.__getitem__, rest))
            except KeyError as err:
                raise TypeError(f"{cls.__name__}() is missing the field {err.args[0]!r}") from None
        return tuple.__new__(cls, values)

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, self))


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


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n in increasing order, by the sieve of Eratosthenes;
    none when n < 2."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


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


def kernel_mod(s: Sequence[int], d: int) -> tuple[Vector4, ...]:
    """Generators of {x in (Z/d)^4 : s . x = 0 mod d} for one row s of four
    entries and d >= 1.

    Euclid's algorithm on the columns reduces s to s V = (g, 0, 0, 0), the
    unimodular column operations kept in V. Since V is invertible, s . x = 0
    mod d exactly when y = V^(-1) x has g y_0 = 0 mod d, so column 0 of V
    scaled by d / gcd(d, g) and the other three columns generate the
    solutions. Returns at most four generators, none of them zero.
    """
    a = [x % d for x in s]
    v = [list(r) for r in IDENTITY4]
    while any(a[1:]):
        t = min((j for j in range(4) if a[j]), key=a.__getitem__)
        a[0], a[t] = a[t], a[0]
        for r in v:
            r[0], r[t] = r[t], r[0]
        for j in range(1, 4):
            q = a[j] // a[0]
            a[j] -= q * a[0]
            for r in v:
                r[j] -= q * r[0]
    steps = (d // gcd(d, a[0]), 1, 1, 1)
    gens = [tuple(r[k] * steps[k] % d for r in v) for k in range(4)]
    return tuple(g for g in gens if any(g))
