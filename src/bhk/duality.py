"""BHK pairs, the mod d^2 pairing between the two kernels, dual groups,
and construction of the transposed (mirror) pair. A Workspace is the one
way to build them: `Workspace(rows, char, g)` gives `.pair`, `.dual(g)`,
`.mirror` and `.lattice`, each built once per input. A dual group is taken
only of a G with J <= G, and is read from one known dual and filtered:
duality reverses inclusion, so G^T is the part of the dual of J, which is
SL of A^T, that pairs to zero with the generators of G outside J. Each
lattice dual but J's is filtered from a smaller group's dual. Every
pairing of each filter is one batched product, a . (A b) mod d^2 for a
list of elements a against one A b."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .arith import Record, transpose_rows
from .delsarte import DelsarteMatrix, build_delsarte, transpose
from .errors import (
    InternalCheckError,
    MirrorNotAdequate,
    NotAdequate,
    SemanticError,
)
from .smoothness import adequacy
from .symmetry import (
    SymmetrySubgroup,
    check_sl_order,
    enumerate_intermediate,
    in_kernel,
    in_sl,
    j_subgroup,
    sl_group,
    subgroup_generated,
)


class BhkPair(Record):
    """A validated (matrix, group) pair at a fixed characteristic. Its
    fields are a DelsarteMatrix, a SymmetrySubgroup, a Characteristic and the
    pair's AdequacyReport."""

    __slots__ = ()
    _fields = ("matrix", "group", "char", "adequacy")


class MirrorPair(Record):
    """A pair (A, G) and its mirror (A^T, G^T), each a BhkPair."""

    __slots__ = ()
    _fields = ("primal", "mirror")


def _image(matrix, b) -> tuple[int, ...]:
    """A b, the column that any a pairs with as a . (A b)."""
    b0, b1, b2, b3 = b
    return tuple([r0 * b0 + r1 * b1 + r2 * b2 + r3 * b3 for r0, r1, r2, r3 in matrix])


def _pairings(d: int, elements: Iterable[Sequence[int]], image: Sequence[int]) -> list[int]:
    """a A b mod d^2 for each a of the elements, in their order, given
    image = A b from `_image`: the one pairing product of the package."""
    i0, i1, i2, i3 = image
    d2 = d * d
    return [(a0 * i0 + a1 * i1 + a2 * i2 + a3 * i3) % d2 for a0, a1, a2, a3 in elements]


def _annihilator(d: int, group: SymmetrySubgroup, images: Iterable[Sequence[int]]) -> SymmetrySubgroup:
    """The elements a of a subgroup of Aut(A^T) with a A e = 0 mod d^2 for
    each of the images A e, filtered one image at a time: for the dual H^T
    of H, the dual of H + <e, ...>."""
    kept: Iterable[Sequence[int]] = group
    for image in images:
        kept = [a for a, v in zip(kept, _pairings(d, kept, image)) if not v]
    return SymmetrySubgroup(d, kept)


class _Side:
    """One side of the pair: a matrix and its groups SL (solved from the
    matrix, never enumerating Aut) and J, each built on first use and kept."""

    def __init__(self, matrix: DelsarteMatrix):
        self.matrix = matrix

    @cached_property
    def sl(self) -> SymmetrySubgroup:
        return sl_group(self.matrix)

    @cached_property
    def j(self) -> SymmetrySubgroup:
        return j_subgroup(self.matrix)

    @cached_property
    def sl_order(self) -> int:
        """|SL|, counted by `check_sl_order` without building SL, which
        raises TooLarge above the enumeration limit; `sl_group` checks it
        against SL wherever SL is built."""
        return abs(self.matrix.det) // check_sl_order(self.matrix)[1]


class Workspace:
    """Every object derived from one input, each built on first use and at most once.

    It holds one characteristic and both sides of the pair: `primal` (A) and
    `transpose` (A^T), each with its matrix, SL and J, one side when A^T
    equals A, decided before A^T is derived; the resolved group G; the
    `pair`, whose adequacy report is built only when it is read, and the
    `mirror` pair; and the dual groups, memoized by group. `matrix` is rows,
    validated at the workspace's characteristic on first use; `group` is
    "J", "SL", or a tuple of generator coordinates, the three forms a
    document gives, and TypeError for anything else.
    """

    def __init__(self, matrix, char: Characteristic, group="J"):
        if group not in ("J", "SL") and not isinstance(group, tuple):
            raise TypeError(f"group must be 'J', 'SL' or a tuple of generators, got {type(group).__name__}")
        self.char = char
        self._matrix = matrix
        self._group_spec = group
        self._duals: dict[SymmetrySubgroup, SymmetrySubgroup] = {}

    @cached_property
    def primal(self) -> _Side:
        return _Side(build_delsarte(self._matrix, self.char))

    @cached_property
    def transpose(self) -> _Side:
        """A^T, validated on first use; the primal side itself when A^T
        equals A, compared before A^T is derived, so a symmetric A has one
        SL and one J and is not derived or checked a second time: A^T = A
        and adj(A)^T = adj(A), so every check of A^T is one A has passed."""
        m = self.primal.matrix
        if transpose_rows(m.matrix) == m.matrix:
            return self.primal
        return _Side(transpose(m, self.char))

    @cached_property
    def group(self) -> SymmetrySubgroup:
        """G from its description, checked to satisfy J <= G <= SL on a
        Calabi-Yau matrix. |SL| is bounded first, as J, SL and G all lie in
        SL. G <= SL is decided without building SL, by `in_sl` on the
        generators of G (before any group beyond J is built), and trivially
        for SL. G = SL is SL's elements without the solve's generators, so
        its reported generators are the greedy walk over those elements."""
        spec = self._group_spec
        m = self.primal.matrix
        self.primal.sl_order  # raises TooLarge when SL, and so G, is over the limit
        jg = self.primal.j
        if spec == "SL":
            sl = self.primal.sl
            group = SymmetrySubgroup(sl.modulus, sl)
            group.elements = sl.elements
            return group
        for g in jg.generators if spec == "J" else spec:
            coords = tuple(x % m.exponent for x in g)
            if not in_sl(m, coords):
                raise SemanticError(f"generator {list(coords)} is outside the coordinate-sum-zero kernel")
        group = jg if spec == "J" else subgroup_generated(m.exponent, spec)
        if not jg <= group:
            raise SemanticError("group does not contain the grading element")
        return group

    @cached_property
    def pair(self) -> BhkPair:
        """The pair (A, G), with its adequacy report attached."""
        m, group = self.primal.matrix, self.group
        return BhkPair(m, group, self.char, adequacy(m, group, self.char))

    def dual(self, group: SymmetrySubgroup) -> SymmetrySubgroup:
        """Annihilator of a subgroup G of Aut(A) with J <= G inside Aut(A^T),
        under the pairing; SemanticError for a G without J.

        G^T is read from the dual of J, which is SL of A^T, by `_annihilated`,
        as the part of it that pairs to zero with the generators of G outside
        J: duality reverses inclusion, so G^T lies in the dual of any subgroup
        of G. A j = d 1, so a A j = d (sum of a) mod d^2, and a pairs to zero
        with j exactly when its coordinate sum is 0 mod d. That identity is
        checked on the grading element J is built from (InternalCheckError
        otherwise).

        Cross-checked on every call: G has the exponent as its modulus
        (SemanticError otherwise), and each generator of G lies in Aut(A),
        tested first; SL of A^T has `sl_group`'s own checks, and G^T those
        of `_annihilated`. A^T is validated first, so an invalid transpose is
        reported as the input error it is. G^T needs no bound of its own: it
        lies in SL of A^T, which `sl_group` bounds before building it.
        """
        m = self.primal.matrix
        if group.modulus != m.exponent:  # before the memo, as groups compare by their elements alone
            raise SemanticError(f"group modulus {group.modulus} does not match the exponent {m.exponent}")
        if group in self._duals:
            return self._duals[group]
        self.transpose.matrix  # raises the input error of an invalid A^T
        d = m.exponent
        if not all(in_kernel(m.matrix, d, g) for g in group.generators):
            raise InternalCheckError("a group generator is outside the kernel Aut(A)")
        j = self.primal.j
        if not j <= group:
            raise SemanticError("group does not contain the grading element")
        if _image(m.matrix, j.generators[0]) != (d, d, d, d):
            raise InternalCheckError("A j differs from d (1,1,1,1), so the dual of J is not SL of A^T")
        elements = [g for g in group.generators if g not in j]
        dual = self._annihilated(self.transpose.sl, group, elements)
        self._duals[group] = dual
        return dual

    def _annihilated(
        self, dual: SymmetrySubgroup, group: SymmetrySubgroup, elements: Iterable[Sequence[int]]
    ) -> SymmetrySubgroup:
        """G^T for G = H + <elements>, given the dual H^T of H: the part of
        H^T that pairs to zero with each of the elements, by `_annihilator`.
        Every dual the workspace builds is filtered here, and checked: |G|
        |G^T| = |det|, as the pairing is perfect, which fails when the filter
        skips an element that G needs beyond H; and, when G is SL, G^T = J of
        the transpose (InternalCheckError otherwise). G is taken to be SL,
        without building SL, when |G| is the counted |SL|, which raises
        TooLarge as `group` does and is read first, and `in_sl` holds for each
        generator of G, as `group` decides G <= SL."""
        m = self.primal.matrix
        dual = _annihilator(m.exponent, dual, [_image(m.matrix, e) for e in elements])
        if group.order * dual.order != abs(m.det):
            raise InternalCheckError(f"|G| |G^T| = {group.order} * {dual.order} differs from |det| = {abs(m.det)}")
        is_sl = group.order == self.primal.sl_order and all(in_sl(m, g) for g in group.generators)
        if is_sl and dual != self.transpose.j:
            raise InternalCheckError("the dual of SL differs from J of the transpose")
        return dual

    @cached_property
    def lattice(self) -> list[tuple[SymmetrySubgroup, SymmetrySubgroup]]:
        """(G, G^T) for every G with J <= G <= SL, in the order of
        `enumerate_intermediate`, which starts with J.

        A^T is validated first, so an invalid transpose is reported before
        the lattice is enumerated. The dual of J is read by `dual`. Every
        other G is H + <e> for the pair (H, e) it `covers`, with H before
        it, and its dual is derived from H^T by `_annihilated`, as the part
        of H^T that pairs to zero with e, and checked there. Cross-checked on
        every call: J <= G <= SL, and G -> G^T is injective and reverses
        inclusion.
        """
        self.transpose.matrix  # raises the input error of an invalid A^T
        j, sl = self.primal.j, self.primal.sl
        duals: dict[SymmetrySubgroup, SymmetrySubgroup] = {}
        for group in enumerate_intermediate(j, sl):
            if not j <= group <= sl:
                raise InternalCheckError("an intermediate group escaped the J..SL window")
            if group.covers is None:
                duals[group] = self.dual(group)
            else:
                h, e = group.covers
                duals[group] = self._annihilated(duals[h], group, [e])
        lattice = list(duals.items())
        if len(set(duals.values())) != len(lattice):
            raise InternalCheckError("G -> G^T is not injective on the intermediate groups")
        for i, (g, g_dual) in enumerate(lattice):  # a group lies only in groups after it
            for h, h_dual in lattice[i + 1 :]:
                if g <= h and not h_dual <= g_dual:
                    raise InternalCheckError("G -> G^T does not reverse inclusion on the intermediate groups")
        return lattice

    @cached_property
    def mirror(self) -> MirrorPair:
        """The transposed pair (A^T, G^T); both sides must be adequate."""
        pair = self.pair
        if not pair.adequacy.verdict:
            raise NotAdequate(
                f"pair is not adequate: {'; '.join(pair.adequacy.diagnostics)}",
                report=pair.adequacy,
            )
        mt = self.transpose.matrix
        dual = self.dual(pair.group)
        if not self.transpose.j <= dual <= self.transpose.sl:
            raise InternalCheckError("dual group escaped the J..SL window of the transpose")
        report = adequacy(mt, dual, self.char)
        if not report.verdict:
            raise MirrorNotAdequate(
                f"transposed pair is not adequate: {'; '.join(report.diagnostics)}",
                report=report,
            )
        return MirrorPair(pair, BhkPair(mt, dual, self.char, report))
