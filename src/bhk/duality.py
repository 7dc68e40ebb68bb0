"""BHK pairs, the mod d^2 pairing between the two kernels, dual groups,
and construction of the transposed (mirror) pair. A Workspace is the one
way to build them: `Workspace(m, char, g)` gives `.pair`, `.dual(g)`, `.mirror`
and `.lattice`, each built once per input. Every dual group is read from one
known dual and filtered: duality reverses inclusion, so for J <= G the dual
G^T is the part of the dual of J, which is SL of A^T, that pairs to zero
with the generators of G outside J; for any other G it is the part of
Aut(A^T) that pairs to zero with every generator of G. Each lattice dual but
J's is filtered from a smaller group's dual. Every pairing, of `pairing` and
of each filter, is one batched product, a . (A b) mod d^2 for a list of
elements a against one A b."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .arith import transpose_rows
from .delsarte import Characteristic, DelsarteMatrix, build_delsarte, transpose
from .errors import (
    InternalCheckError,
    MirrorNotAdequate,
    NotAdequate,
    SemanticError,
)
from .smoothness import AdequacyReport, adequacy
from .symmetry import (
    SymmetrySubgroup,
    check_order,
    check_sl_order,
    enumerate_intermediate,
    in_kernel,
    in_sl,
    j_subgroup,
    sl_group,
    subgroup_generated,
)


class BhkPair(NamedTuple):
    """A validated (matrix, group) pair at a fixed characteristic."""

    matrix: DelsarteMatrix
    group: SymmetrySubgroup
    char: Characteristic
    adequacy: AdequacyReport


class MirrorPair(NamedTuple):
    primal: BhkPair
    mirror: BhkPair


def pairing(m: DelsarteMatrix, a: Sequence[int], b: Sequence[int]) -> int:
    """The residue a A b^t mod d^2, using the canonical lifts in [0, d) of a and b.

    a must annihilate the columns of A and b its rows, else ValueError.
    """
    d = m.exponent
    a = tuple(c % d for c in a)
    b = tuple(c % d for c in b)
    if not in_kernel(transpose_rows(m.matrix), d, a):
        raise ValueError(f"{a} is not in the transposed kernel")
    if not in_kernel(m.matrix, d, b):
        raise ValueError(f"{b} is not in the kernel")
    return _pairings(d, [a], _image(m.matrix, b))[0]


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


def _check_modulus(m: DelsarteMatrix, group: SymmetrySubgroup) -> None:
    if group.modulus != m.exponent:
        raise SemanticError(f"group modulus {group.modulus} does not match the exponent {m.exponent}")


class Workspace:
    """Every object derived from one input, each built on first use and at most once.

    It holds one characteristic and both sides of the pair: `primal` (A) and
    `transpose` (A^T), each with its matrix, SL and J, one side when A^T
    equals A, decided before A^T is derived; the resolved group G; the
    `pair`, whose adequacy report is built only when it is read, and the
    `mirror` pair; and the dual groups, memoized by group. `matrix` is rows
    (validated on first use) or a built DelsarteMatrix; `group` is "J",
    "SL", generator coordinates, or a SymmetrySubgroup.
    """

    def __init__(self, matrix, char: Characteristic, group="J"):
        self.char = char
        self._matrix = matrix
        self._group_spec = group
        self._duals: dict[SymmetrySubgroup, SymmetrySubgroup] = {}

    @cached_property
    def primal(self) -> _Side:
        m = self._matrix
        return _Side(m if isinstance(m, DelsarteMatrix) else build_delsarte(m, self.char))

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
        Calabi-Yau matrix. A given SymmetrySubgroup must have the exponent as
        its modulus. |SL| is bounded first, as J, SL and G all lie in SL. G <=
        SL is decided without building SL, by `in_sl` on the generators of G
        (before any group beyond J is built), and trivially for SL."""
        spec = self._group_spec
        m = self.primal.matrix
        given = isinstance(spec, SymmetrySubgroup)
        if given:
            _check_modulus(m, spec)
        self.primal.sl_order  # raises TooLarge when SL, and so G, is over the limit
        try:
            jg = self.primal.j
        except ValueError as err:
            raise SemanticError(str(err)) from err
        if spec == "SL":
            return self.primal.sl
        for g in jg.generators if spec == "J" else spec.generators if given else spec:
            coords = tuple(x % m.exponent for x in g)
            if not in_sl(m, coords):
                raise SemanticError(f"generator {list(coords)} is outside the coordinate-sum-zero kernel")
        group = jg if spec == "J" else spec if given else subgroup_generated(m.exponent, spec)
        if not jg <= group:
            raise SemanticError("group does not contain the grading element")
        return group

    @cached_property
    def pair(self) -> BhkPair:
        """The pair (A, G), with its adequacy report attached."""
        m, group = self.primal.matrix, self.group
        return BhkPair(matrix=m, group=group, char=self.char, adequacy=adequacy(m, group, self.char))

    def dual(self, group: SymmetrySubgroup) -> SymmetrySubgroup:
        """Annihilator of a subgroup G of Aut(A) inside Aut(A^T), under the pairing.

        G^T is read from a known dual by `_annihilated`, as the part of it
        that pairs to zero with some generators of G; duality reverses
        inclusion, so G^T lies in the dual of any subgroup of G. For J <= G
        the known dual is that of J, which is SL of A^T: A j = d 1, so
        a A j = d (sum of a) mod d^2, and a pairs to zero with j exactly when
        its coordinate sum is 0 mod d. That identity is checked on the
        grading element J is built from (InternalCheckError otherwise), and
        the dual of J is filtered by the generators of G outside J.
        Otherwise the known dual is Aut(A^T), the dual of the trivial group,
        spanned by the rows of B = d A^(-1) and bounded first, filtered by
        every generator of G; only the library passes such a G.

        Cross-checked on every call: G has the exponent as its modulus
        (SemanticError otherwise), and each generator of G lies in Aut(A),
        tested first; |G| |G^T| = |det| (`_annihilated`), and SL of A^T has
        `sl_group`'s own checks. As the pairing is perfect, these pin G^T
        down. A^T is validated first, so an invalid transpose is reported as
        the input error it is.
        """
        m = self.primal.matrix
        _check_modulus(m, group)  # before the memo, as groups compare by their elements alone
        if group in self._duals:
            return self._duals[group]
        self.transpose.matrix  # raises the input error of an invalid A^T
        d = m.exponent
        if not all(in_kernel(m.matrix, d, g) for g in group.generators):
            raise InternalCheckError("a group generator is outside the kernel Aut(A)")
        check_order(abs(m.det) // group.order, "the dual group")
        try:
            j = self.primal.j
        except ValueError:  # no grading element: not a Calabi-Yau matrix
            j = None
        if j is not None and j <= group:
            if _image(m.matrix, j.generators[0]) != (d, d, d, d):
                raise InternalCheckError("A j differs from d (1,1,1,1), so the dual of J is not SL of A^T")
            known, elements = self.transpose.sl, [g for g in group.generators if g not in j]
        else:
            check_order(abs(m.det), "Aut(A^T)")
            known, elements = subgroup_generated(d, m.b_matrix), group.generators
        dual = self._duals[group] = self._annihilated(known, group.order, elements)
        return dual

    def _annihilated(self, dual: SymmetrySubgroup, order: int, elements: Iterable[Sequence[int]]) -> SymmetrySubgroup:
        """The part of the dual H^T of some H that pairs to zero with each of
        the elements, which is the dual of H + <elements>, of the given order,
        by `_annihilator`. |G| |G^T| = |det| is checked, as the pairing is
        perfect, which fails when the filter skips an element that G needs
        beyond H."""
        m = self.primal.matrix
        dual = _annihilator(m.exponent, dual, [_image(m.matrix, e) for e in elements])
        if order * dual.order != abs(m.det):
            raise InternalCheckError(f"|G| |G^T| = {order} * {dual.order} differs from |det| = {abs(m.det)}")
        return dual

    @cached_property
    def lattice(self) -> list[tuple[SymmetrySubgroup, SymmetrySubgroup]]:
        """(G, G^T) for every G with J <= G <= SL, in the order of
        `enumerate_intermediate`, which starts with J.

        A^T is validated first, so an invalid transpose is reported before
        the lattice is enumerated. The dual of J is read by `dual`. Every
        other G is H + <e> for the pair (H, e) it `covers`, with H before
        it, and its dual is derived from H^T by `_annihilated`: the part of
        H^T that pairs to zero with e. Cross-checked on every call: J <= G
        <= SL, and |G| |G^T| = |det| for each derived dual, which a dual
        missing the pairing test with e would fail.
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
                duals[group] = self._annihilated(duals[h], group.order, [e])
        return list(duals.items())

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
        mirror = BhkPair(matrix=mt, group=dual, char=self.char, adequacy=report)
        return MirrorPair(primal=pair, mirror=mirror)
