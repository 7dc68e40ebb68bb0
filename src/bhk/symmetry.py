"""Diagonal symmetry groups as subgroups of (Z/d)^4 in additive notation:
membership tests for the kernel Aut and its coordinate-sum-zero subgroup SL,
SL itself from a one-row solve that never enumerates Aut (the one solve of
the package; the dual groups are filtered from SL of A^T), the
grading element j, and enumeration of the groups between J and SL, on the
cosets of J, by joining each coset representative in turn to every group
found so far. An element is a plain
tuple of four coordinates reduced to [0, d), and a group is the frozenset
of its elements. J is listed directly as the multiples k j, 0 <= k < h,
as j has order h. Every other group is built by one primitive, the join
G + <g> of a subgroup with one element, on elements or on the cosets of J.
On elements it steps the multiples k g until one lies in G, then adds every
coset G + k g in one pass. J keeps j as its generator, SL the solve's
generators that enlarged it, and a generated group the ones it was given;
any other group's generators are a greedy walk over its sorted elements,
which knows the group's order and so stops at the pick that spans it,
without building that last join."""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set
from functools import cached_property
from itertools import compress
from math import gcd
from operator import mul

from .arith import kernel_mod
from .delsarte import DelsarteMatrix, is_calabi_yau
from .errors import InternalCheckError, SemanticError, TooLarge

Coords = tuple[int, int, int, int]
ZERO: Coords = (0, 0, 0, 0)

# The most elements of a group any command enumerates. The largest SL of an
# invertible K3 matrix has 72 elements, so only inputs outside that family,
# such as ones that are not quasi-smooth, come near it.
MAX_GROUP_ORDER = 10_000


def _multiples(modulus: int, group: Set[Coords], g: Coords) -> list[Coords]:
    """g, 2 g, ..., (n - 1) g for a subgroup G and a reduced g, each stepped
    from the one before by adding g, where n is the order of g modulo G: the
    first k with k g in G."""
    g0, g1, g2, g3 = g
    out = []
    k = g
    while k not in group:
        out.append(k)
        k0, k1, k2, k3 = k
        k = ((k0 + g0) % modulus, (k1 + g1) % modulus, (k2 + g2) % modulus, (k3 + g3) % modulus)
    return out


def _join(modulus: int, group: Set[Coords], multiples: list[Coords]) -> set[Coords]:
    """G + <g> for a subgroup G, given the multiples k g outside G of a
    reduced g (`_multiples`): G and its cosets G + k g, all added in one
    pass."""
    out = set(group)
    out.update(
        [
            ((x0 + k0) % modulus, (x1 + k1) % modulus, (x2 + k2) % modulus, (x3 + k3) % modulus)
            for k0, k1, k2, k3 in multiples
            for x0, x1, x2, x3 in group
        ]
    )
    return out


def _span(
    modulus: int, gens: Iterable[Coords], order: int | None = None
) -> tuple[set[Coords], tuple[Coords, ...]]:
    """(G, U): G is the subgroup generated by the reduced generators, and U
    those of them that enlarged it, as each is joined to the group S of those
    before it unless it already lies in it. Over a group's sorted elements U
    is the greedy walk that picks its reported generators. Given the order of
    the group the generators span, the walk stops at the pick g with
    |S| n = order, n the order of g modulo S, as S + <g> is then the whole
    group: g ends U, and that last join is not built, so G is S."""
    group = {ZERO}
    used = []
    for g in gens:
        if g not in group:
            used.append(g)
            multiples = _multiples(modulus, group, g)
            if len(group) * (len(multiples) + 1) == order:
                break
            group = _join(modulus, group, multiples)
    return group, tuple(used)


class SymmetrySubgroup(frozenset):
    """A subgroup of (Z/d)^4: the frozenset of its elements, coordinate
    tuples reduced to [0, d), with its modulus.

    Equality, hashing, membership and inclusion (`<=`) are the set's, so two
    descriptions of the same subgroup compare equal regardless of their
    generators, and of their modulus. `elements` (sorted) and `generators`
    (the given ones, or else the greedy walk over `elements`) are computed
    when first read. The groups of `enumerate_intermediate` are given their
    `elements` and `covers`; on any other group `covers` is None.
    """

    covers: tuple[SymmetrySubgroup, Coords] | None = None

    def __new__(cls, modulus: int, elements: Iterable[Coords], generators: Iterable[Coords] | None = None):
        group = super().__new__(cls, elements)
        group.modulus = modulus
        if generators is not None:
            group.generators = tuple(generators)
        return group

    @property
    def order(self) -> int:
        return len(self)

    @cached_property
    def elements(self) -> tuple[Coords, ...]:
        return tuple(sorted(self))

    @cached_property
    def generators(self) -> tuple[Coords, ...]:
        return _span(self.modulus, self.elements, len(self))[1]


def subgroup_generated(modulus: int, gens: Iterable[Sequence[int]]) -> SymmetrySubgroup:
    """Subgroup generated by the given coordinate sequences, taken mod the modulus."""
    reduced = []
    for g in gens:
        if len(g) != 4:
            raise ValueError(f"generator {tuple(g)} does not have 4 coordinates")
        reduced.append(tuple(x % modulus for x in g))
    kept = tuple(c for c in reduced if c != ZERO)
    return SymmetrySubgroup(modulus, _span(modulus, reduced)[0], kept)


def in_kernel(rows: Sequence[Sequence[int]], d: int, coords: Sequence[int]) -> bool:
    """Whether r . g = 0 mod d for every row r: g lies in Aut(A) when the rows
    are those of A, and in Aut(A^T) when they are its columns."""
    c0, c1, c2, c3 = coords
    for r0, r1, r2, r3 in rows:
        if (r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3) % d:
            return False
    return True


def in_sl(m: DelsarteMatrix, coords: Sequence[int]) -> bool:
    """Whether g has 4 coordinates, A g = 0 and the coordinate sum of g is 0, both mod d."""
    return len(coords) == 4 and sum(coords) % m.exponent == 0 and in_kernel(m.matrix, m.exponent, coords)


def check_sl_order(m: DelsarteMatrix) -> tuple[list[int], int]:
    """(s, n): s holds the column sums of B, so that the point B x of Aut has
    coordinate sum s . x, and n = d / gcd(d, s) is the number of values s . x
    takes on Aut, so |SL| = |det| / n. Raises TooLarge when that order exceeds
    MAX_GROUP_ORDER. Every group between J and SL lies in SL, so this bounds
    each of them before any is enumerated."""
    d, b = m.exponent, m.b_matrix
    s = [sum(col) for col in zip(*b)]
    index = d // gcd(d, *s)
    order = abs(m.det) // index
    if order > MAX_GROUP_ORDER:
        raise TooLarge(f"SL has {order} elements, more than the limit {MAX_GROUP_ORDER}")
    return s, index


def sl_group(m: DelsarteMatrix) -> SymmetrySubgroup:
    """SL(A), the coordinate-sum-zero part of Aut(A), without enumerating Aut.

    Every point of Aut is B x mod d for some x in (Z/d)^4, with coordinate
    sum s . x, where s holds the column sums of B. So SL is the image under
    x -> B x mod d of the generators that `kernel_mod` gives of the solutions
    of s . x = 0 mod d, and the group they span, whose `generators` are
    those of them that enlarged it (`_span`). Its order is bounded before
    it is built (`check_sl_order`), and cross-checked on every call: each
    generator lies in SL, and |SL| d / gcd(d, s) = |det|, since s . x takes
    d / gcd(d, s) values on Aut.
    """
    d, b = m.exponent, m.b_matrix
    s, index = check_sl_order(m)
    gens = [tuple([sum(map(mul, row, x)) % d for row in b]) for x in kernel_mod(s, d)]
    sl = SymmetrySubgroup(d, *_span(d, gens))
    if not all(in_sl(m, g) for g in gens):
        raise InternalCheckError("an SL generator is outside the coordinate-sum-zero kernel")
    if sl.order * index != abs(m.det):
        raise InternalCheckError(
            f"|SL| d / gcd(d, s) = {sl.order} * {index} differs from |det| = {abs(m.det)}"
        )
    return sl


def j_element(m: DelsarteMatrix) -> Coords:
    """The grading element (d/h) q mod d; defined for Calabi-Yau matrices,
    SemanticError otherwise. Checked to have order h and coordinate sum 0 mod d."""
    if not is_calabi_yau(m):
        raise SemanticError("grading element requires a Calabi-Yau matrix")
    d, h = m.exponent, m.degree
    j = tuple(d // h * qi % d for qi in m.weights)
    if d // gcd(d, *j) != h or sum(j) % d != 0:
        raise InternalCheckError(f"grading element {j} fails its order or sum check")
    return j


def j_subgroup(m: DelsarteMatrix) -> SymmetrySubgroup:
    """Cyclic group generated by the grading element j: its multiples k j
    for 0 <= k < h, as `j_element` checks that j has order h."""
    j = j_element(m)
    d = m.exponent
    j0, j1, j2, j3 = j
    return SymmetrySubgroup(d, [(k * j0 % d, k * j1 % d, k * j2 % d, k * j3 % d) for k in range(m.degree)], (j,))


def _join_cosets(row: Sequence[int], group: frozenset[int]) -> frozenset[int]:
    """H + <q> for a subgroup H of SL/J, given as its coset numbers, and
    the coset q + J whose addition is `row`: `_join` on cosets, each step
    one lookup per coset."""
    out = set(group)
    coset = list(group)
    while True:
        coset = [row[c] for c in coset]
        if coset[0] in group:
            return frozenset(out)
        out.update(coset)


def enumerate_intermediate(j_group: SymmetrySubgroup, sl: SymmetrySubgroup) -> list[SymmetrySubgroup]:
    """All subgroups G with J <= G <= SL, ordered by size then element list.

    One pass over SL's sorted elements numbers the cosets of J: each element
    not yet numbered starts the next coset, its translates by J, so each
    coset is numbered in the order of its least element, its representative
    q, and J, the coset of 0, is 0. The walk runs on SL/J, each coset by its
    number. It joins each representative q in turn to every group found so
    far, adding q by one row, coset -> coset + q. After q_1, ..., q_k the
    groups found are the J + <S> for S a subset of them, so after all of
    them they are every G, as G is J + <S> for S the representatives in G.
    Each group is lifted to its elements once, by filtering SL's sorted
    elements by coset number, so it keeps them, already sorted, as its
    `elements`. Each G but J has `covers`, a pair (H, q) with G = H + <q>,
    where H is a largest group returned below G and q the least element of
    G outside it. Nothing lies strictly between H and G, so G/H has prime
    order and any such q generates it.

    Cross-checked on every call: the cosets have |J| elements each and
    cover SL.
    """
    if not j_group <= sl:
        raise ValueError("J is not contained in SL")
    d = sl.modulus
    index: dict[Coords, int] = {}
    position = []
    reps = []
    for x in sl.elements:
        if x not in index:
            x0, x1, x2, x3 = x
            translates = [((x0 + j0) % d, (x1 + j1) % d, (x2 + j2) % d, (x3 + j3) % d) for j0, j1, j2, j3 in j_group]
            index.update(dict.fromkeys(translates, len(reps)))
            reps.append(x)
        position.append(index[x])
    if len(reps) * j_group.order != sl.order:
        raise InternalCheckError(f"{len(reps)} cosets of J of {j_group.order} elements each, |SL| = {sl.order}")
    found = {frozenset([0])}
    for i, (q0, q1, q2, q3) in enumerate(reps[1:], 1):
        row = [index[(x0 + q0) % d, (x1 + q1) % d, (x2 + q2) % d, (x3 + q3) % d] for x0, x1, x2, x3 in reps]
        for group in list(found):
            if i not in group:
                found.add(_join_cosets(row, group))
    by_size = sorted(found, key=len)
    lifted: dict[frozenset[int], SymmetrySubgroup] = {}
    for k, key in enumerate(by_size):
        elements = tuple(compress(sl.elements, map(key.__contains__, position)))
        group = lifted[key] = SymmetrySubgroup(d, elements)
        group.elements = elements
        if k:
            below = max((h for h in by_size[:k] if h < key), key=len)
            group.covers = (lifted[below], reps[min(key - below)])
    return sorted(lifted.values(), key=lambda g: (g.order, g.elements))
