"""Test oracles: library results recomputed straight from their definitions.

Each oracle takes its inputs through public `bhk` names (matrices, groups,
number-theory helpers) and builds its own sets with the breadth-first
closure below, so it shares no group-building or set-building code with the
library functions it checks. They are slow on purpose: plain loops over
every element, kept small enough for the small catalog.

Two kinds of reference code are not oracles in that sense. The library's
two set-level Picard routes, run on one group (`transcendental_set` and
`transcendental_set_orbits`), assemble the routes from the library's own
partition, so that tests can run each route on any group; the commands run
them only inside `picard.transcendental_sets`. And the matrix layer's
checks as they were written before they were made one pass each
(`reference_build_delsarte` and the functions under it), and the atomic
decomposition as it was written in three steps (`reference_atomic_decomposition`),
which the equivalence tests compare the library against.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

import bhk.picard as picard
from bhk import (
    Atom,
    Characteristic,
    DelsarteMatrix,
    SymmetrySubgroup,
    det_adjugate,
    matrix4,
    multiplicative_order,
)
from bhk.errors import (
    CharDividesD,
    CharDividesDet,
    InternalCheckError,
    NegativeEntry,
    NonpositiveWeight,
    RowWithoutZero,
    SingularMatrix,
)

ZERO = (0, 0, 0, 0)


def transpose_rows(a) -> tuple:
    """Transpose of a 4x4 tuple matrix."""
    return tuple(zip(*a))


def reference_closure(modulus, gens) -> set:
    """Breadth-first closure of the generators under addition mod the modulus."""
    gens = [tuple(c % modulus for c in g) for g in gens]
    seen = {ZERO}
    frontier = [ZERO]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % modulus for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def greedy_generators(modulus, elements) -> tuple:
    """The generators the library reports for a group: its elements in sorted
    order, keeping each one outside the closure of those kept before it."""
    gens: list = []
    covered = {ZERO}
    for c in sorted(elements):
        if c not in covered:
            gens.append(c)
            covered = reference_closure(modulus, gens)
    return tuple(gens)


def pairing(m, a, b) -> int:
    """The residue a A b^T mod d^2, summed entry by entry. On a in Aut(A^T)
    and b in Aut(A) it does not depend on the lifts of a and b."""
    d = m.exponent
    return sum(a[i] * m.matrix[i][j] * b[j] for i in range(4) for j in range(4)) % (d * d)


def age(d: int, coords) -> int:
    """The age of an element with every coordinate nonzero mod d and
    coordinate sum 0 mod d: the sum of its coordinates reduced to [0, d),
    over d."""
    reduced = [c % d for c in coords]
    if 0 in reduced or sum(reduced) % d:
        raise ValueError(f"{tuple(coords)} has no age mod {d}")
    return sum(reduced) // d


def aut_group(m) -> SymmetrySubgroup:
    """The kernel Aut(A) = {a : A a = 0 mod d}, closed from the columns of
    B = d A^(-1), which it reports as its generators."""
    d = m.exponent
    cols = [tuple(m.b_matrix[i][j] % d for i in range(4)) for j in range(4)]
    elements = tuple(sorted(reference_closure(d, cols)))
    return SymmetrySubgroup(d, elements, tuple(dict.fromkeys(c for c in cols if c != ZERO)))


def sl_subgroup(aut) -> SymmetrySubgroup:
    """The coordinate-sum-zero subgroup SL of a kernel, by filtering its elements."""
    d = aut.modulus
    elements = tuple(e for e in aut.elements if sum(e) % d == 0)
    return SymmetrySubgroup(d, elements, greedy_generators(d, elements))


def mat_mul(a, b) -> tuple:
    """Exact integer matrix product of two 4x4 matrices."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4))


def _minor3(a, skip_row: int, skip_col: int) -> int:
    r = [a[i] for i in range(4) if i != skip_row]
    m = [[r[i][j] for j in range(4) if j != skip_col] for i in range(3)]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def cofactor_det_adjugate(a) -> tuple:
    """(det, adj) of a 4x4 integer matrix by cofactor expansion: adj is the
    transpose of the cofactor matrix, det the expansion along row 0."""
    cof = [[(-1) ** (i + j) * _minor3(a, i, j) for j in range(4)] for i in range(4)]
    det = sum(a[0][j] * cof[0][j] for j in range(4))
    return det, tuple(tuple(cof[j][i] for j in range(4)) for i in range(4))


def inverse(m) -> tuple:
    """The exact inverse A^(-1) = adj / det, as Fractions."""
    return tuple(tuple(Fraction(m.adjugate[i][j], m.det) for j in range(4)) for i in range(4))


@lru_cache(maxsize=2)
def _transposed_kernel(d, b_matrix) -> frozenset:
    """Aut(A^T), closed from the columns of its B matrix; kept for the two
    sides last asked for, which a test filters for several groups in turn."""
    return frozenset(reference_closure(d, [tuple(b_matrix[i][j] for i in range(4)) for j in range(4)]))


def dual_by_filter(m, mt, generators) -> tuple[tuple, tuple]:
    """(sorted elements, generators) of the dual group straight from its
    definition: every element a of Aut(A^T) with a A g = 0 mod d^2 for every
    generator g of the group. Aut(A^T) is closed from the columns of
    d (A^T)^(-1), the B matrix of the transpose."""
    d = m.exponent
    coords = [
        a
        for a in _transposed_kernel(d, mt.b_matrix)
        if all(
            sum(a[i] * m.matrix[i][j] * g[j] for i in range(4) for j in range(4)) % (d * d) == 0
            for g in generators
        )
    ]
    return tuple(sorted(coords)), greedy_generators(d, coords)


def lattice_by_joins(j_group, sl) -> set:
    """Every group between J and SL as a frozenset of elements: saturate under
    joins with single elements, each join closed from its generators by
    breadth-first search."""
    d = sl.modulus
    start = j_group.generators
    known = {frozenset(reference_closure(d, start)): start}
    frontier = list(known.items())
    while frontier:
        elements, gens = frontier.pop()
        for e in sl.elements:
            if e in elements:
                continue
            joined = gens + (e,)
            key = frozenset(reference_closure(d, joined))
            if key not in known:
                known[key] = joined
                frontier.append((key, joined))
    return set(known)


def state_space_dimension(weights, h, elements) -> Fraction:
    """Vafa's dimension of the orbifold state space of the Landau-Ginzburg
    model of weights q_i and degree h under the diagonal group of the given
    elements (coordinates, 0 where an element fixes a variable):

        (1/|G|) sum over g, k in G of the product over the i with g_i = 0
        of h/q_i - 1 if k_i = 0, else -1.

    For the BHK pairs of K3 surfaces it is 24, the Euler number of a K3
    (Chiodo-Ruan, 2011). It reads no group structure and nothing of `bhk`;
    elements are counted by their zero pattern, so the double sum runs over
    at most 16 x 16 patterns. h/q_i is a fraction off Fermat atoms."""
    patterns = Counter(tuple(c == 0 for c in g) for g in elements)
    fixed_dims = [Fraction(h, q) - 1 for q in weights]
    total = Fraction(0)
    for g_zero, g_count in patterns.items():
        for k_zero, k_count in patterns.items():
            term = Fraction(g_count * k_count)
            for i, fixed in enumerate(g_zero):
                if fixed:
                    term *= fixed_dims[i] if k_zero[i] else -1
            total += term
    return total / sum(patterns.values())


def _units(d: int) -> list[int]:
    return [t for t in range(1, d) if gcd(t, d) == 1]


def _scaled(coords, t: int, d: int):
    return tuple(t * c % d for c in coords)


def transcendental_set_by_element(group, char: Characteristic) -> tuple:
    """Aged elements that fail the average-age-two test, straight from the
    definition, with the test run on every element, in sorted order.

    Characteristic zero keeps a when some unit multiple t a has age != 2.
    Characteristic p keeps a when for some unit t the ages over the p-power
    orbit of t a do not sum to twice the orbit-walk length f = ord(p mod d).
    """
    d = group.modulus
    if char.positive and d % char.p == 0:
        raise CharDividesD(f"characteristic {char.p} divides the exponent {d}")
    lookup = {e: age(d, e) for e in group.elements if 0 not in e}
    units = _units(d)
    out = []
    if not char.positive:
        for a in lookup:
            if any(lookup[_scaled(a, t, d)] != 2 for t in units):
                out.append(a)
        return tuple(out)
    f = multiplicative_order(char.p, d)
    powers = [pow(char.p, j, d) for j in range(f)]
    for a in lookup:
        for t in units:
            total = sum(lookup[_scaled(a, t * pj, d)] for pj in powers)
            if total != 2 * f:
                out.append(a)
                break
    return tuple(out)


def transcendental_set(group, char: Characteristic) -> tuple:
    """The direct route's transcendental set of one group: the aged elements,
    sorted, that fail the average-age-two test, decided once per unit orbit
    (`picard._direct_route`), under the unit u of the characteristic."""
    d = group.modulus
    return picard._direct_route(*picard._unit_orbits(group), picard._powers(picard._unit(char, d), d), d)


def transcendental_set_orbits(group, char: Characteristic) -> tuple:
    """The same set via orbits: the union of the unit orbits that pass
    `picard._orbit_contributes`, sorted."""
    d = group.modulus
    return picard._orbit_route(*picard._unit_orbits(group), picard._unit(char, d), d)


# The matrix layer's checks as written before each became one pass, kept
# verbatim: `build_delsarte` and `transpose` must raise what these raise, or
# return what these return, and `smoothness._triple_gcds_ok` and
# `_pair_supports_ok` must agree with `triple_gcds_ok` and `pair_supports_ok`.


def reference_build_delsarte(rows, char: Characteristic) -> DelsarteMatrix:
    """`build_delsarte` through the reference checks below."""
    m = matrix4(rows)
    _check_rows(m)
    return _derive(m, *det_adjugate(m), char)


def reference_transpose(m: DelsarteMatrix, char: Characteristic) -> DelsarteMatrix:
    """`transpose` through the reference checks below."""
    mt = transpose_rows(m.matrix)
    _check_rows(mt)
    return _derive(mt, m.det, transpose_rows(m.adjugate), char)


def _check_rows(m: Matrix4) -> None:
    for i in range(4):
        for j in range(4):
            if m[i][j] < 0:
                raise NegativeEntry(f"entry ({i},{j}) = {m[i][j]} is negative")
    for i in range(4):
        if all(v != 0 for v in m[i]):
            raise RowWithoutZero(f"row {i} = {m[i]} has no zero entry")


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
    m_cols, b_cols = transpose_rows(m), transpose_rows(b)
    for i in range(4):
        for j in range(4):
            ab = sum(map(mul, m[i], b_cols[j]))
            ba = sum(map(mul, b[i], m_cols[j]))
            want = d if i == j else 0
            if ab != want or ba != want:
                raise InternalCheckError("A B = B A = d I failed")
    if any(sum(map(mul, row, q)) != h for row in m):
        raise InternalCheckError("A q = h (1,1,1,1) failed")
    if d % h != 0 or abs(det) % d != 0 or d**4 % abs(det) != 0:
        raise InternalCheckError(f"divisibility chain h | d | |det| | d^4 failed: {h}, {d}, {det}")


def triple_gcds_ok(q) -> bool:
    idx = range(4)
    return all(
        gcd(q[i], gcd(q[j], q[k])) == 1
        for i in idx
        for j in idx
        for k in idx
        if i < j < k
    )


def pair_supports_ok(m: DelsarteMatrix) -> bool:
    q = m.weights
    for i in range(4):
        for j in range(i + 1, 4):
            if gcd(q[i], q[j]) > 1:
                covered = any(
                    all(row[k] == 0 for k in range(4) if k not in (i, j))
                    for row in m.matrix
                )
                if not covered:
                    return False
    return True


# The atomic decomposition as written before it became one walk, kept verbatim
# but for returning None where it raised: `smoothness.atomic_decomposition`
# must return what `reference_atomic_decomposition` returns.


def _row_shape(row) -> tuple[int, int | None] | None:
    """The row's own variable and its successor, or None.

    A row is y_v^e (no successor) or y_v^e y_w with e >= 2 (successor w); v
    is its own variable. Any other row, including y_v y_w, has none.
    """
    support = [j for j in range(4) if row[j] != 0]
    if len(support) == 1:
        return support[0], None
    if len(support) == 2:
        for v, w in (support, support[::-1]):
            if row[v] >= 2 and row[w] == 1:
                return v, w
    return None


def _assemble(succ, exps):
    """Split a successor map with in-degree at most one into atoms, or None."""
    indeg = {v: 0 for v in range(4)}
    for v, w in succ.items():
        if w is not None:
            indeg[w] += 1
    if any(c > 1 for c in indeg.values()):
        return None
    atoms: list[Atom] = []
    seen: set[int] = set()
    for v in range(4):
        if indeg[v] == 0 and v not in seen:
            path = [v]
            seen.add(v)
            while succ[path[-1]] is not None:
                path.append(succ[path[-1]])
                seen.add(path[-1])
            kind = "fermat" if len(path) == 1 else "chain"
            atoms.append(Atom(kind, tuple(path), tuple(exps[x] for x in path)))
    for v in range(4):
        if v not in seen:
            cycle = [v]
            seen.add(v)
            while succ[cycle[-1]] not in (None, v):
                cycle.append(succ[cycle[-1]])
                seen.add(cycle[-1])
            start = cycle.index(min(cycle))
            cycle = cycle[start:] + cycle[:start]
            atoms.append(Atom("loop", tuple(cycle), tuple(exps[x] for x in cycle)))
    return tuple(sorted(atoms, key=lambda atom: min(atom.variables)))


def reference_atomic_decomposition(m) -> tuple[Atom, ...] | None:
    """Decompose the rows into disjoint Fermat, chain, and loop atoms covering
    all four variables, sorted by least variable, or None.

    Each row has at most one own variable, so the rows fix the only candidate
    row-to-variable bijection; None when there is none or its successor map
    does not split into atoms.
    """
    shapes = [_row_shape(row) for row in m.matrix]
    if None not in shapes and len({v for v, _ in shapes}) == 4:
        exps = {v: row[v] for (v, _), row in zip(shapes, m.matrix)}
        result = _assemble(dict(shapes), exps)
        if result is not None:
            return result
    return None
