"""Diagonal symmetry groups as subgroups of (Z/d)^4 in additive notation:
membership tests for the kernel Aut and its coordinate-sum-zero subgroup SL,
SL itself from a Smith-normal-form solve that never enumerates Aut, the
grading element j, and enumeration of the groups between J and SL, by one
join per cyclic subgroup of SL/J. An element is a plain tuple of four
coordinates reduced to [0, d), and a group is the sorted tuple of its
elements. Every group is built by one primitive, the join G + <g> of a
subgroup with one element."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import AbstractSet, Iterable, Sequence

from .arith import euler_phi, kernel_mod
from .delsarte import DelsarteMatrix, is_calabi_yau
from .errors import InternalCheckError

Coords = tuple[int, int, int, int]
ZERO: Coords = (0, 0, 0, 0)


def _join(modulus: int, group: AbstractSet[Coords], g: Coords) -> set[Coords]:
    """G + <g> for a subgroup G: the union of the cosets G + k g for k = 0, 1,
    ... up to the first k with k g in G."""
    step = tuple(c % modulus for c in g)
    out = set(group)
    shift = step
    while shift not in group:
        out.update(
            (
                (x[0] + shift[0]) % modulus,
                (x[1] + shift[1]) % modulus,
                (x[2] + shift[2]) % modulus,
                (x[3] + shift[3]) % modulus,
            )
            for x in group
        )
        shift = tuple((a + b) % modulus for a, b in zip(shift, step))
    return out


def _closure(modulus: int, gens: Iterable[Coords]) -> set[Coords]:
    """Closure of the generators under addition mod the modulus."""
    group = {ZERO}
    for g in gens:
        group = _join(modulus, group, g)
    return group


@dataclass(frozen=True, eq=False)
class SymmetrySubgroup:
    """A subgroup of (Z/d)^4: its elements as a sorted tuple of coordinate
    tuples reduced to [0, d), and generators in the same form.

    Equality and hashing use the modulus and the elements only, so two
    descriptions of the same subgroup compare equal regardless of the
    generators used. A frozenset of the elements is the membership index.
    """

    modulus: int
    elements: tuple[Coords, ...]
    generators: tuple[Coords, ...]
    order: int
    _element_set: frozenset[Coords] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_element_set", frozenset(self.elements))

    def __contains__(self, g: Coords) -> bool:
        return g in self._element_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetrySubgroup):
            return NotImplemented
        return self.modulus == other.modulus and self._element_set == other._element_set

    def __hash__(self) -> int:
        return hash((self.modulus, self._element_set))

    def is_subgroup_of(self, other: "SymmetrySubgroup") -> bool:
        return self.modulus == other.modulus and self._element_set <= other._element_set


def _greedy_generators(modulus: int, coords_sorted: Sequence[Coords]) -> tuple[Coords, ...]:
    gens: list[Coords] = []
    covered = {ZERO}
    for c in coords_sorted:
        if c not in covered:
            gens.append(c)
            covered = _join(modulus, covered, c)
    return tuple(gens)


def _from_coords(modulus: int, coords: Iterable[Coords], generators=None) -> SymmetrySubgroup:
    elements = tuple(sorted(set(coords) | {ZERO}))
    if generators is None:
        generators = _greedy_generators(modulus, elements)
    return SymmetrySubgroup(modulus, elements, tuple(generators), len(elements))


def subgroup_generated(modulus: int, gens: Iterable[Sequence[int]]) -> SymmetrySubgroup:
    """Subgroup generated by the given coordinate sequences, taken mod the modulus."""
    reduced = []
    for g in gens:
        if len(g) != 4:
            raise ValueError(f"generator {tuple(g)} does not have 4 coordinates")
        reduced.append(tuple(x % modulus for x in g))
    kept = tuple(c for c in reduced if c != ZERO)
    return _from_coords(modulus, _closure(modulus, reduced), generators=kept)


def in_kernel(rows: Sequence[Sequence[int]], d: int, coords: Sequence[int]) -> bool:
    """Whether r . g = 0 mod d for every row r: g lies in Aut(A) when the rows
    are those of A, and in Aut(A^T) when they are its columns."""
    return all(sum(r[j] * coords[j] for j in range(4)) % d == 0 for r in rows)


def in_sl(m: DelsarteMatrix, coords: Sequence[int]) -> bool:
    """Whether g has 4 coordinates, A g = 0 and the coordinate sum of g is 0, both mod d."""
    return len(coords) == 4 and sum(coords) % m.exponent == 0 and in_kernel(m.matrix, m.exponent, coords)


def sl_group(m: DelsarteMatrix) -> SymmetrySubgroup:
    """SL(A), the coordinate-sum-zero part of Aut(A), without enumerating Aut.

    Every point of Aut is B x mod d for some x in (Z/d)^4, with coordinate
    sum s . x, where s holds the column sums of B. So SL is the image under
    x -> B x mod d of the solutions of s . x = 0 mod d, which `kernel_mod`
    solves. Cross-checked on every call: each generator lies in SL, and
    |SL| d / gcd(d, s) = |det|, since s . x takes d / gcd(d, s) values on Aut.
    """
    d, b = m.exponent, m.b_matrix
    s = [sum(b[i][j] for i in range(4)) for j in range(4)]
    gens = [tuple(sum(b[i][j] * x[j] for j in range(4)) % d for i in range(4)) for x in kernel_mod([s], d)]
    if not all(in_sl(m, g) for g in gens):
        raise InternalCheckError("an SL generator is outside the coordinate-sum-zero kernel")
    sl = _from_coords(d, _closure(d, gens))
    index = d // gcd(d, *s)
    if sl.order * index != abs(m.det):
        raise InternalCheckError(
            f"|SL| d / gcd(d, s) = {sl.order} * {index} differs from |det| = {abs(m.det)}"
        )
    return sl


def j_element(m: DelsarteMatrix) -> Coords:
    """The grading element (d/h) q mod d; defined for Calabi-Yau matrices.
    Checked to have order h and coordinate sum 0 mod d."""
    if not is_calabi_yau(m):
        raise ValueError("grading element requires a Calabi-Yau matrix")
    d, h = m.exponent, m.degree
    j = tuple(d // h * qi % d for qi in m.weights)
    if d // gcd(d, *j) != h or sum(j) % d != 0:
        raise InternalCheckError(f"grading element {j} fails its order or sum check")
    return j


def j_subgroup(m: DelsarteMatrix) -> SymmetrySubgroup:
    """Cyclic group generated by the grading element."""
    return subgroup_generated(m.exponent, [j_element(m)])


def _generating_cosets(modulus: int, j_group: SymmetrySubgroup, e: Coords) -> tuple[int, set[Coords]]:
    """(n, C): n is the order of e mod J, and C the elements that generate
    J + <e> mod J, i.e. the cosets k e + J with gcd(k, n) = 1."""
    multiples = [ZERO]
    k_e = e
    while k_e not in j_group:
        multiples.append(k_e)
        k_e = tuple((a + b) % modulus for a, b in zip(k_e, e))
    n = len(multiples)
    cosets = {
        tuple((a + b) % modulus for a, b in zip(multiples[k], x))
        for k in range(1, n)
        if gcd(k, n) == 1
        for x in j_group.elements
    }
    return n, cosets


def enumerate_intermediate(j_group: SymmetrySubgroup, sl: SymmetrySubgroup) -> list[SymmetrySubgroup]:
    """All subgroups G with J <= G <= SL, ordered by size then element list.

    Joins one representative e per cyclic subgroup J + <e> of SL/J to every
    group found so far: walking SL in sorted order, each unmarked e is a
    representative and marks the elements that generate J + <e> mod J (only
    those: J + <2e> needs its own representative). After representatives
    r_1, ..., r_k the groups found are the J + <S> for S a subset of them, so
    after all of them they are every G, as G is the sum of the J + <e> over
    its elements e, each equal to J + <r> for a representative r in G.
    Cross-checked on every call: the generator classes partition SL minus J,
    so |J| + sum over r of |J| phi(n_r) = |SL|.
    """
    if not j_group.is_subgroup_of(sl):
        raise ValueError("J is not contained in SL")
    d = sl.modulus
    known = {frozenset(j_group.elements)}
    marked = set(j_group.elements)
    covered = j_group.order
    for e in sl.elements:
        if e in marked:
            continue
        n, cosets = _generating_cosets(d, j_group, e)
        marked |= cosets
        covered += j_group.order * euler_phi(n)
        known.update([frozenset(_join(d, g, e)) for g in known if e not in g])
    if covered != sl.order:
        raise InternalCheckError(
            f"generator classes of SL/J cover {covered} elements, |SL| = {sl.order}"
        )
    groups = [_from_coords(d, coords) for coords in known]
    groups.sort(key=lambda g: (g.order, g.elements))
    return groups
