"""Diagonal symmetry groups as subgroups of (Z/d)^4 in additive notation:
the full kernel Aut, its coordinate-sum-zero subgroup SL (from its definition,
or from a Smith-normal-form solve that never enumerates Aut), the grading
element j, and enumeration of the groups between J and SL. Every group is
built by one primitive, the join G + <g> of a subgroup with one element."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import AbstractSet, Iterable, Sequence

from .arith import Vector4, kernel_mod
from .delsarte import DelsarteMatrix, is_calabi_yau
from .errors import InternalCheckError

Coords = tuple[int, int, int, int]


@dataclass(frozen=True, order=True)
class GroupElement:
    """An element of (Z/d)^4 with coordinates reduced to [0, d)."""

    modulus: int
    coords: Coords

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if len(self.coords) != 4:
            raise ValueError(f"expected 4 coordinates, got {len(self.coords)}")
        object.__setattr__(self, "coords", tuple(c % self.modulus for c in self.coords))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same(other)
        return GroupElement(self.modulus, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.modulus, tuple(-c for c in self.coords))

    def scale(self, t: int) -> "GroupElement":
        return GroupElement(self.modulus, tuple(t * c for c in self.coords))

    def coordinate_sum(self) -> int:
        return sum(self.coords) % self.modulus

    def _check_same(self, other: "GroupElement"):
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")


def element_order(g: GroupElement) -> int:
    """Order of g in (Z/d)^4."""
    return g.modulus // gcd(g.modulus, *g.coords)


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
    group = {(0, 0, 0, 0)}
    for g in gens:
        group = _join(modulus, group, g)
    return group


@dataclass(frozen=True, eq=False)
class SymmetrySubgroup:
    """A subgroup of (Z/d)^4 stored as its full sorted element list.

    Equality and hashing use the element list only, so two descriptions of the
    same subgroup compare equal regardless of the generators used.
    """

    modulus: int
    elements: tuple[GroupElement, ...]
    generators: tuple[GroupElement, ...]
    order: int
    _element_set: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_element_set", frozenset(e.coords for e in self.elements))

    def __contains__(self, g: GroupElement) -> bool:
        return g.modulus == self.modulus and g.coords in self._element_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetrySubgroup):
            return NotImplemented
        return self.modulus == other.modulus and self._element_set == other._element_set

    def __hash__(self) -> int:
        return hash((self.modulus, self._element_set))

    def is_subgroup_of(self, other: "SymmetrySubgroup") -> bool:
        return self.modulus == other.modulus and self._element_set <= other._element_set

    def coord_set(self) -> frozenset:
        return self._element_set


def _greedy_generators(modulus: int, coords_sorted: Sequence[Coords]) -> tuple[Coords, ...]:
    gens: list[Coords] = []
    covered = {(0, 0, 0, 0)}
    for c in coords_sorted:
        if c not in covered:
            gens.append(c)
            covered = _join(modulus, covered, c)
    return tuple(gens)


def _from_coords(modulus: int, coords: Iterable[Coords], generators=None) -> SymmetrySubgroup:
    sorted_coords = sorted(set(coords) | {(0, 0, 0, 0)})
    if generators is None:
        generators = _greedy_generators(modulus, sorted_coords)
    return SymmetrySubgroup(
        modulus=modulus,
        elements=tuple(GroupElement(modulus, c) for c in sorted_coords),
        generators=tuple(GroupElement(modulus, g) for g in generators),
        order=len(sorted_coords),
    )


def subgroup_generated(modulus: int, gens: Iterable[GroupElement | Coords]) -> SymmetrySubgroup:
    """Subgroup generated by the given elements."""
    coords = [g.coords if isinstance(g, GroupElement) else tuple(g) for g in gens]
    for c in coords:
        if len(c) != 4:
            raise ValueError(f"generator {c} does not have 4 coordinates")
    normalized = [tuple(x % modulus for x in c) for c in coords]
    kept = tuple(c for c in normalized if c != (0, 0, 0, 0))
    return _from_coords(modulus, _closure(modulus, normalized), generators=kept)


def aut_group(m: DelsarteMatrix) -> SymmetrySubgroup:
    """The kernel {a : A a = 0 mod d}, generated by the columns of B = d A^(-1)."""
    d = m.exponent
    cols = [tuple(m.b_matrix[i][j] % d for i in range(4)) for j in range(4)]
    elements = _closure(d, cols)
    if len(elements) != abs(m.det):
        raise InternalCheckError(
            f"kernel order {len(elements)} differs from |det| = {abs(m.det)}"
        )
    kept = tuple(dict.fromkeys(c for c in cols if c != (0, 0, 0, 0)))
    return _from_coords(d, elements, generators=kept)


def sl_subgroup(aut: SymmetrySubgroup) -> SymmetrySubgroup:
    """Coordinate-sum-zero subgroup of the kernel."""
    coords = [e.coords for e in aut.elements if sum(e.coords) % aut.modulus == 0]
    return _from_coords(aut.modulus, coords)


def in_sl(m: DelsarteMatrix, coords: Sequence[int]) -> bool:
    """Whether A g = 0 and the coordinate sum of g is 0, both mod d."""
    d = m.exponent
    return sum(coords) % d == 0 and all(
        sum(row[j] * coords[j] for j in range(4)) % d == 0 for row in m.matrix
    )


def sl_group(m: DelsarteMatrix) -> SymmetrySubgroup:
    """SL(A), equal to sl_subgroup(aut_group(m)) but without enumerating Aut.

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


def j_element(m: DelsarteMatrix) -> GroupElement:
    """The grading element (d/h) q; defined for Calabi-Yau matrices."""
    if not is_calabi_yau(m):
        raise ValueError("grading element requires a Calabi-Yau matrix")
    step = m.exponent // m.degree
    j = GroupElement(m.exponent, tuple(step * qi for qi in m.weights))
    if element_order(j) != m.degree or j.coordinate_sum() != 0:
        raise InternalCheckError(f"grading element {j.coords} fails its order or sum check")
    return j


def j_subgroup(m: DelsarteMatrix) -> SymmetrySubgroup:
    """Cyclic group generated by the grading element."""
    return subgroup_generated(m.exponent, [j_element(m)])


def enumerate_intermediate(j_group: SymmetrySubgroup, sl: SymmetrySubgroup) -> list[SymmetrySubgroup]:
    """All subgroups G with J <= G <= SL, ordered by size then element list.

    Joins each element of SL in turn to every group found so far: after the
    elements e_1, ..., e_k the groups found are the J + <S> for S a subset of
    them, so after all of SL they are every G, as G = J + <G>.
    """
    if not j_group.is_subgroup_of(sl):
        raise ValueError("J is not contained in SL")
    d = sl.modulus
    known = {j_group.coord_set()}
    for e in sl.elements:
        known.update([frozenset(_join(d, g, e.coords)) for g in known if e.coords not in g])
    groups = [_from_coords(d, coords) for coords in known]
    groups.sort(key=lambda g: (g.order, tuple(e.coords for e in g.elements)))
    return groups
