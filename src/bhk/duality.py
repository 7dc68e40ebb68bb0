"""BHK pairs, the mod d^2 pairing between the two kernels, dual groups,
and construction of the transposed (mirror) pair. A Workspace is the one
way to build them: `Workspace(m, char, g)` gives `.pair`, `.dual(g)`, `.mirror`
and `.lattice`, each built once per input. One Smith-normal-form solve per
input gives the dual of J, shared with SL of A^T; duality reverses
inclusion, so the dual of every G above J, of `.dual` and of the lattice, is
derived from a known dual as the part of it that pairs to zero with some
elements of G. Every pairing, of `pairing`, of the checks of a solved dual
and of each derived dual, is one batched product, a . (A b) mod d^2 for a
list of elements a against one A b."""

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
    solved_span,
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


def _check_dual_order(m: DelsarteMatrix, order: int, dual: SymmetrySubgroup) -> None:
    """|G| |G^T| = |det|, as the pairing is perfect."""
    if order * dual.order != abs(m.det):
        raise InternalCheckError(f"|G| |G^T| = {order} * {dual.order} differs from |det| = {abs(m.det)}")


class _Side:
    """One side of the pair: a matrix and its groups SL (solved from the
    matrix, never enumerating Aut) and J, each built on first use from the
    matrix builder and kept. SL is solved through `solves`, the memo of
    `solved_span` that the side shares with the other side and the dual
    groups; it holds results only, never the Workspace, so a finished
    Workspace is freed by reference counting alone."""

    def __init__(self, build_matrix, solves: dict):
        self._build_matrix = build_matrix
        self._solves = solves

    @cached_property
    def matrix(self) -> DelsarteMatrix:
        return self._build_matrix()

    @cached_property
    def sl(self) -> SymmetrySubgroup:
        return sl_group(self.matrix, self._solves)

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
    `transpose` (A^T), each with its matrix, SL and J; the resolved
    group G; the validated `pair` and `mirror` pair; and the dual groups,
    memoized by group. SL of A^T and the dual of J are one solve: the row
    sums of B = d A^(-1) are B 1 = (d/h) q = j, so SL of A^T solves j . x = 0
    and maps x to x B, as the dual of J does; `solved_span` keeps that
    result, and `sl_group` and `dual` each run their own checks on it.
    `matrix` is rows (validated on first use) or a built DelsarteMatrix;
    `group` is "J", "SL", generator coordinates, or a SymmetrySubgroup.
    """

    def __init__(self, matrix, char: Characteristic, group="J"):
        self.char = char
        self._group_spec = group
        self._solves: dict = {}
        if isinstance(matrix, DelsarteMatrix):
            primal = _Side(lambda: matrix, self._solves)
        else:
            primal = _Side(lambda: build_delsarte(matrix, char), self._solves)
        self.primal = primal
        self.transpose = _Side(lambda: transpose(primal.matrix, char), self._solves)
        self._duals: dict[SymmetrySubgroup, SymmetrySubgroup] = {}

    @cached_property
    def group(self) -> SymmetrySubgroup:
        """G from its description. |SL| is bounded first, as J, SL and G all
        lie in SL. G <= SL is decided on what G is resolved from, without
        building SL: `in_sl` on j for J, on each generator (before any group
        beyond J is built) for generators, and trivially for SL."""
        spec = self._group_spec
        if isinstance(spec, SymmetrySubgroup):
            return spec
        m = self.primal.matrix
        self.primal.sl_order  # raises TooLarge when SL, and so G, is over the limit
        try:
            jg = self.primal.j
        except ValueError as err:
            raise SemanticError(str(err)) from err
        if spec == "SL":
            return self.primal.sl
        for g in jg.generators if spec == "J" else spec:
            coords = tuple(x % m.exponent for x in g)
            if not in_sl(m, coords):
                raise SemanticError(f"generator {list(coords)} is outside the coordinate-sum-zero kernel")
        return jg if spec == "J" else subgroup_generated(m.exponent, spec)

    def check(self, group: SymmetrySubgroup, in_sl_known: bool = False) -> None:
        """Raise SemanticError unless J <= group <= SL on a Calabi-Yau matrix.
        G <= SL is tested against SL, built for it, unless `in_sl_known`."""
        m = self.primal.matrix
        if group.modulus != m.exponent:
            raise SemanticError(
                f"group modulus {group.modulus} does not match the exponent {m.exponent}"
            )
        try:
            j = self.primal.j  # defined exactly on Calabi-Yau matrices
        except ValueError:
            message = f"weights {m.weights} sum to {sum(m.weights)}, degree is {m.degree}"
            raise SemanticError(message) from None
        if not j <= group:
            raise SemanticError("group does not contain the grading element")
        if not in_sl_known and not group <= self.primal.sl:
            raise SemanticError("group is not contained in the coordinate-sum-zero kernel")

    @cached_property
    def pair(self) -> BhkPair:
        """The pair (A, G), checked and with its adequacy report attached. A
        G resolved from a document is known to lie in SL (`group`), so SL is
        built only for a G given as a SymmetrySubgroup."""
        m, group = self.primal.matrix, self.group
        self.check(group, in_sl_known=not isinstance(self._group_spec, SymmetrySubgroup))
        return BhkPair(matrix=m, group=group, char=self.char, adequacy=adequacy(m, group, self.char))

    def dual(self, group: SymmetrySubgroup) -> SymmetrySubgroup:
        """Annihilator of a subgroup G of Aut(A) inside Aut(A^T), under the pairing.

        The dual of J is solved, and every G with J < G has G^T inside it, as
        duality reverses inclusion: G^T is the part of the dual of J that pairs
        to zero with each generator of G (`_annihilated`), and is solved for
        nothing. A G that does not contain J is solved for as J is.

        The rows of B = d A^(-1) generate Aut(A^T), so every a in it is x B mod d
        for some x, and for g in Aut(A), pairing(x B, g) = x B A g = d (x . g)
        mod d^2. So a solved G^T is the image under x -> x B mod d of the
        solutions of x . g = 0 mod d over the generators g of G, solved by
        `solved_span` without enumerating Aut(A^T); for J, the solve is SL of
        A^T's. Cross-checked on every call: each generator of G lies in Aut(A),
        tested first; a solved G^T is checked on the solutions that enlarged it
        as it was spanned, which generate it: each lies in Aut(A^T) and pairs to
        zero with each generator of G; and |G| |G^T| = |det|. As the pairing is
        perfect, these together pin G^T down. A derived G^T lies in the checked
        dual of J, and pairs to zero with G by construction. A^T is validated
        first, so an invalid transpose is reported as the input error it is.
        """
        return self._dual(group)

    def _dual(self, group: SymmetrySubgroup) -> SymmetrySubgroup:
        """`dual`, which derivations call to read the dual of J."""
        if group in self._duals:
            return self._duals[group]
        self.transpose.matrix  # raises the input error of an invalid A^T
        m = self.primal.matrix
        d = m.exponent
        if not all(in_kernel(m.matrix, d, g) for g in group.generators):
            raise InternalCheckError("a group generator is outside the kernel Aut(A)")
        check_order(abs(m.det) // group.order, "the dual group")
        try:
            j = self.primal.j
        except ValueError:  # no grading element: not a Calabi-Yau matrix
            j = None
        if j is not None and j < group:
            dual = self._annihilated(self._dual(j), group.order, group.generators)
        else:
            dual, _, used = solved_span(d, group.generators, transpose_rows(m.b_matrix), self._solves)
            columns = transpose_rows(m.matrix)
            if not all(in_kernel(columns, d, a) for a in used):
                raise InternalCheckError("a dual generator is outside the transposed kernel Aut(A^T)")
            if any(any(_pairings(d, used, _image(m.matrix, g))) for g in group.generators):
                raise InternalCheckError("a dual generator pairs nontrivially with the group")
            _check_dual_order(m, group.order, dual)
        self._duals[group] = dual
        return dual

    def _annihilated(self, dual: SymmetrySubgroup, order: int, elements: Iterable[Sequence[int]]) -> SymmetrySubgroup:
        """The part of the dual H^T of some H that pairs to zero with each of
        the elements, which is the dual of H + <elements>, of the given order,
        by `_annihilator`. |G| |G^T| = |det| is checked, which fails when
        the filter skips an element that G needs beyond H."""
        m = self.primal.matrix
        dual = _annihilator(m.exponent, dual, [_image(m.matrix, e) for e in elements])
        _check_dual_order(m, order, dual)
        return dual

    @cached_property
    def lattice(self) -> list[tuple[SymmetrySubgroup, SymmetrySubgroup]]:
        """(G, G^T) for every G with J <= G <= SL, in the order of
        `enumerate_intermediate`, which starts with J.

        A^T is validated first, so an invalid transpose is reported before
        the lattice is enumerated. The dual of J is the one `dual` solve,
        with all of its checks. Every other G is H + <e> for the pair (H, e)
        it `covers`, with H before it, and its dual is derived from H^T by
        `_annihilated`: the part of H^T that pairs to zero with e. Cross-checked
        on every call: J <= G <= SL (`check`), and |G| |G^T| = |det| for each
        derived dual, which a dual missing the pairing test with e would fail.
        """
        self.transpose.matrix  # raises the input error of an invalid A^T
        duals: dict[SymmetrySubgroup, SymmetrySubgroup] = {}
        for group in enumerate_intermediate(self.primal.j, self.primal.sl):
            self.check(group)
            if group.covers is None:
                duals[group] = self._dual(group)
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
        group = pair.group
        # a G equal to J is solved over j, the solve SL^T shares
        dual = self.dual(self.primal.j if group == self.primal.j else group)
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
