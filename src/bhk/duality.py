"""BHK pairs, the mod d^2 pairing between the two kernels, dual groups,
and construction of the transposed (mirror) pair. A Workspace is the one
way to build them: `Workspace(m, char, g)` gives `.pair`, `.dual(g)` and
`.mirror`, each built once per input."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .arith import kernel_mod, transpose_rows
from .delsarte import Characteristic, DelsarteMatrix, build_delsarte, is_calabi_yau, transpose
from .errors import (
    InternalCheckError,
    MirrorNotAdequate,
    NotAdequate,
    SemanticError,
)
from .smoothness import AdequacyReport, adequacy
from .symmetry import (
    SymmetrySubgroup,
    _closure,
    _from_coords,
    in_kernel,
    in_sl,
    j_subgroup,
    sl_group,
    subgroup_generated,
)


@dataclass(frozen=True)
class BhkPair:
    """A validated (matrix, group) pair at a fixed characteristic."""

    matrix: DelsarteMatrix
    group: SymmetrySubgroup
    char: Characteristic
    adequacy: AdequacyReport


@dataclass(frozen=True)
class MirrorPair:
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
    return _raw_pairing(m.matrix, d, a, b)


def _raw_pairing(matrix, d, a, b) -> int:
    total = 0
    for i in range(4):
        for j in range(4):
            total += a[i] * matrix[i][j] * b[j]
    return total % (d * d)


class _Side:
    """One side of the pair: a matrix, whether it is Calabi-Yau, and its
    groups SL (solved from the matrix, never enumerating Aut) and J, each
    built on first use from the matrix builder and kept."""

    def __init__(self, build_matrix):
        self._build_matrix = build_matrix

    @cached_property
    def matrix(self) -> DelsarteMatrix:
        return self._build_matrix()

    @cached_property
    def sl(self) -> SymmetrySubgroup:
        return sl_group(self.matrix)

    @cached_property
    def calabi_yau(self) -> bool:
        return is_calabi_yau(self.matrix)

    @cached_property
    def j(self) -> SymmetrySubgroup:
        return j_subgroup(self.matrix)


class Workspace:
    """Every object derived from one input, each built on first use and at most once.

    It holds one characteristic and both sides of the pair: `primal` (A) and
    `transpose` (A^T), each with its matrix, SL and J; the resolved
    group G; the validated `pair` and `mirror` pair; and the dual groups,
    memoized by group. `matrix` is rows (validated on first use) or a built
    DelsarteMatrix; `group` is "J", "SL", generator coordinates, or a
    SymmetrySubgroup.
    """

    def __init__(self, matrix, char: Characteristic, group="J"):
        self.char = char
        self._group_spec = group
        if isinstance(matrix, DelsarteMatrix):
            primal = _Side(lambda: matrix)
        else:
            primal = _Side(lambda: build_delsarte(matrix, char))
        self.primal = primal
        self.transpose = _Side(lambda: transpose(primal.matrix, char))
        self._duals: dict[SymmetrySubgroup, SymmetrySubgroup] = {}

    @cached_property
    def group(self) -> SymmetrySubgroup:
        """G from its description; generators must lie in SL, which is tested
        on each generator before any group beyond J is built."""
        spec = self._group_spec
        if isinstance(spec, SymmetrySubgroup):
            return spec
        try:
            jg = self.primal.j
        except ValueError as err:
            raise SemanticError(str(err)) from err
        if spec == "J":
            return jg
        if spec == "SL":
            return self.primal.sl
        m = self.primal.matrix
        for g in spec:
            coords = tuple(x % m.exponent for x in g)
            if not in_sl(m, coords):
                raise SemanticError(f"generator {list(coords)} is outside the coordinate-sum-zero kernel")
        return subgroup_generated(m.exponent, spec)

    def check(self, group: SymmetrySubgroup) -> None:
        """Raise SemanticError unless J <= group <= SL on a Calabi-Yau matrix."""
        m = self.primal.matrix
        if group.modulus != m.exponent:
            raise SemanticError(
                f"group modulus {group.modulus} does not match the exponent {m.exponent}"
            )
        if not self.primal.calabi_yau:
            raise SemanticError(f"weights {m.weights} sum to {sum(m.weights)}, degree is {m.degree}")
        if not self.primal.j.is_subgroup_of(group):
            raise SemanticError("group does not contain the grading element")
        if not group.is_subgroup_of(self.primal.sl):
            raise SemanticError("group is not contained in the coordinate-sum-zero kernel")

    @cached_property
    def pair(self) -> BhkPair:
        """The pair (A, G), checked and with its adequacy report attached."""
        m, group = self.primal.matrix, self.group
        self.check(group)
        return BhkPair(matrix=m, group=group, char=self.char, adequacy=adequacy(m, group, self.char))

    def dual(self, group: SymmetrySubgroup) -> SymmetrySubgroup:
        """Annihilator of a subgroup G of Aut(A) inside Aut(A^T), under the pairing.

        The rows of B = d A^(-1) generate Aut(A^T), so every a in it is x B mod d
        for some x, and for g in Aut(A), pairing(x B, g) = x B A g = d (x . g)
        mod d^2. So G^T is the image under x -> x B mod d of the solutions of
        x . g = 0 mod d over the generators g of G, solved by `kernel_mod`
        without enumerating Aut(A^T). Cross-checked on every call: each
        generator of G^T lies in Aut(A^T) and each generator of G in Aut(A),
        each tested once; each generator of G^T pairs to zero with each
        generator of G; and |G| |G^T| = |det|. As the pairing is perfect, these
        together pin G^T down. A^T is validated first, so an invalid transpose
        is reported as the input error it is.
        """
        if group not in self._duals:
            self.transpose.matrix  # raises the input error of an invalid A^T
            m = self.primal.matrix
            d, b = m.exponent, m.b_matrix
            xs = kernel_mod(group.generators, d)
            gens = [tuple(sum(x[i] * b[i][j] for i in range(4)) % d for j in range(4)) for x in xs]
            dual = _from_coords(d, _closure(d, gens))
            if not all(in_kernel(transpose_rows(m.matrix), d, a) for a in dual.generators):
                raise InternalCheckError("a dual generator is outside the transposed kernel Aut(A^T)")
            if not all(in_kernel(m.matrix, d, g) for g in group.generators):
                raise InternalCheckError("a group generator is outside the kernel Aut(A)")
            if any(_raw_pairing(m.matrix, d, a, g) for a in dual.generators for g in group.generators):
                raise InternalCheckError("a dual generator pairs nontrivially with the group")
            if group.order * dual.order != abs(m.det):
                raise InternalCheckError(
                    f"|G| |G^T| = {group.order} * {dual.order} differs from |det| = {abs(m.det)}"
                )
            self._duals[group] = dual
        return self._duals[group]

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
        if not self.transpose.j.is_subgroup_of(dual) or not dual.is_subgroup_of(self.transpose.sl):
            raise InternalCheckError("dual group escaped the J..SL window of the transpose")
        report = adequacy(mt, dual, self.char)
        if not report.verdict:
            raise MirrorNotAdequate(
                f"transposed pair is not adequate: {'; '.join(report.diagnostics)}",
                report=report,
            )
        mirror = BhkPair(matrix=mt, group=dual, char=self.char, adequacy=report)
        return MirrorPair(primal=pair, mirror=mirror)
