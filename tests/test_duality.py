"""The mod d^2 pairing, dual groups, and mirror pair construction."""

from __future__ import annotations

import pytest

from bhk import (
    Characteristic,
    SymmetrySubgroup,
    j_element,
    j_subgroup,
    subgroup_generated,
    transpose,
)
from bhk.duality import Workspace, _image, _pairings
from bhk.symmetry import enumerate_intermediate
from bhk.errors import CharDividesDet, InternalCheckError, MirrorNotAdequate, NotAdequate, SemanticError, TooLarge
from conftest import A_EX_ROWS, A_F_ROWS, CHAR0, NONCY_LOOP_ROWS, build, cy_catalog_small
from oracles import aut_group, dual_by_filter, pairing, sl_subgroup, state_space_dimension
from test_smoothness import CY_NOT_QS_ROWS


def _workspace(m, group_name="J", p=0):
    group = "J" if group_name == "J" else sl_subgroup(aut_group(m)).generators
    return Workspace(m.matrix, Characteristic(p), group)


def test_make_pair_rejects_modulus_mismatch(a_ex, a_f):
    """Generators carry no modulus: those of J on the Fermat quartic, read
    mod 168 on the chain, lie outside SL."""
    with pytest.raises(SemanticError, match=r"generator \[1, 1, 1, 1\] is outside"):
        Workspace(a_ex.matrix, CHAR0, j_subgroup(a_f).generators).pair


def test_make_pair_rejects_non_calabi_yau():
    m = build(NONCY_LOOP_ROWS)
    group = subgroup_generated(m.exponent, [(1, 14, 0, 0)])
    with pytest.raises(SemanticError):
        Workspace(m.matrix, CHAR0, group.generators).pair


def test_make_pair_rejects_group_without_grading_element(a_ex):
    """An element of order 3 in SL spans a group inside SL without J."""
    sl = sl_subgroup(aut_group(a_ex))
    no_j = next(e for e in sl.elements if any(e) and all(3 * c % a_ex.exponent == 0 for c in e))
    with pytest.raises(SemanticError, match="group does not contain the grading element"):
        Workspace(a_ex.matrix, CHAR0, (no_j,)).pair


def test_make_pair_rejects_group_outside_sl(a_ex):
    with pytest.raises(SemanticError):
        Workspace(a_ex.matrix, CHAR0, aut_group(a_ex).generators).pair


def test_workspace_rejects_generator_outside_sl_before_building_sl(a_ex):
    ws = Workspace(A_EX_ROWS, CHAR0, ((48, 72, 24, 24), (1, 0, 0, 0)))
    with pytest.raises(SemanticError, match=r"generator \[1, 0, 0, 0\] is outside"):
        ws.group
    assert "sl" not in vars(ws.primal)
    with pytest.raises(SemanticError, match=r"generator \[48, 72, 48\] is outside"):
        Workspace(A_EX_ROWS, CHAR0, ((48, 72, 48),)).group  # three coordinates summing to 0 mod d
    assert Workspace(A_EX_ROWS, CHAR0, ((48, 72, 24, 24), (0, 0, 0, 0))).group.order == 7


def test_workspace_rejects_a_given_group_outside_sl_before_building_sl(a_ex):
    """The generators of Aut(A) are checked by `in_sl`, so SL is never
    built for them."""
    ws = Workspace(A_EX_ROWS, CHAR0, aut_group(a_ex).generators)
    with pytest.raises(SemanticError, match="is outside the coordinate-sum-zero kernel"):
        ws.pair
    assert "sl" not in vars(ws.primal)


def test_make_pair_attaches_adequacy(a_ex):
    pair = _workspace(a_ex).pair
    assert pair.adequacy.verdict
    assert pair.group.order == 7
    assert pair.char.p == 0


def _paired(m, a, b) -> int:
    """The library's a A b^T mod d^2, the batched product on one element,
    checked against the oracle's value from the definition."""
    [value] = _pairings(m.exponent, [a], _image(m.matrix, b))
    assert value == pairing(m, a, b)
    return value


def test_pairing_annihilates_grading_elements(a_ex):
    jt = j_element(transpose(a_ex, CHAR0))
    j = j_element(a_ex)
    assert _paired(a_ex, jt, j) == 0


def test_pairing_bilinearity(a_ex):
    aut_t = aut_group(transpose(a_ex, CHAR0))
    aut = aut_group(a_ex)
    a = aut_t.elements[5]
    b1, b2 = aut.elements[7], aut.elements[11]
    d2 = a_ex.exponent ** 2
    lhs = _paired(a_ex, a, [x + y for x, y in zip(b1, b2)])
    rhs = (_paired(a_ex, a, b1) + _paired(a_ex, a, b2)) % d2
    assert lhs == rhs


def test_dual_group_goldens(a_ex, a_f, loop_m, mixed_m):
    for m, j_dual_order, sl_dual_order in (
        (a_ex, 24, 8),
        (a_f, 64, 4),
        (loop_m, 20, 4),
        (mixed_m, 48, 12),
    ):
        mt = transpose(m, CHAR0)
        ws_j, ws_sl = _workspace(m, "J"), _workspace(m, "SL")
        dual_of_j = ws_j.dual(ws_j.pair.group)
        dual_of_sl = ws_sl.dual(ws_sl.pair.group)
        assert dual_of_j.order == j_dual_order
        assert dual_of_sl.order == sl_dual_order
        assert dual_of_j == sl_subgroup(aut_group(mt))
        assert dual_of_sl == j_subgroup(mt)


def test_dual_order_product_is_det(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m):
        for name in ("J", "SL"):
            ws = _workspace(m, name)
            assert ws.pair.group.order * ws.dual(ws.pair.group).order == abs(m.det)


def test_mirror_pair_golden(a_ex):
    mp = _workspace(a_ex, "J").mirror
    assert mp.primal.matrix.weights == (2, 3, 1, 1)
    assert mp.mirror.matrix.weights == (4, 2, 1, 1)
    assert mp.mirror.matrix.degree == 8
    assert mp.mirror.group.order == 24
    assert mp.mirror.adequacy.verdict


def test_mirror_pair_requires_adequate_primal():
    m = build(CY_NOT_QS_ROWS)
    ws = Workspace(m.matrix, CHAR0, "J")
    pair = ws.pair
    assert not pair.adequacy.verdict
    with pytest.raises(NotAdequate) as exc:
        ws.mirror
    assert exc.value.report is pair.adequacy
    assert not exc.value.report.quasi_smooth


def test_mirror_pair_reports_inadequate_mirror(a_ex, monkeypatch):
    """The mirror-side adequacy gate, driven by a stubbed verdict."""
    import bhk.duality as duality

    real = duality.adequacy
    primal_report = real(a_ex, None, CHAR0)

    def doctored(m, group, char):
        report = real(m, group, char)
        if m.matrix != a_ex.matrix:  # only the transpose is doctored
            return type(report)(
                quasi_smooth=report.quasi_smooth,
                well_formed=False,
                weight_triple_gcd_ok=report.weight_triple_gcd_ok,
                char_ok=report.char_ok,
                verdict=False,
                diagnostics=report.diagnostics,
            )
        return report

    monkeypatch.setattr(duality, "adequacy", doctored)
    with pytest.raises(MirrorNotAdequate) as exc:
        Workspace(a_ex.matrix, CHAR0, "J").mirror
    assert not exc.value.report.well_formed
    assert primal_report.verdict  # the primal side really is adequate


def test_mirror_pair_positive_characteristic(a_ex):
    mp = _workspace(a_ex, "J", p=5).mirror
    assert mp.mirror.char.p == 5
    assert mp.mirror.adequacy.verdict


def test_double_dual_returns_group(a_ex, mixed_m):
    for m in (a_ex, mixed_m):
        for name in ("J", "SL"):
            ws = _workspace(m, name)
            dual = ws.dual(ws.pair.group)
            ws_t = Workspace(transpose(m, CHAR0).matrix, CHAR0, dual.generators)
            back = ws_t.dual(ws_t.pair.group)
            assert back == ws.pair.group


def _assert_duals_match_filter(m):
    """Each dual of the lattice, derived from the dual of the group it
    covers, equals `dual` in a workspace where only the dual of J is known,
    and that equals the filter over Aut(A^T); so do the duals of SL and of a
    group given by generators, each in its own workspace."""
    ws = Workspace(m.matrix, CHAR0)
    solver = Workspace(m.matrix, CHAR0)
    lattice = ws.lattice
    assert [g for g, _ in lattice] == enumerate_intermediate(ws.primal.j, ws.primal.sl)
    mt = ws.transpose.matrix
    for group, derived in lattice:
        got = solver.dual(group)
        assert derived == got
        assert (got.elements, got.generators) == dual_by_filter(m, mt, group.generators)
    sl_ws = Workspace(m.matrix, CHAR0, "SL")
    assert sl_ws.dual(sl_ws.group).elements == dual_by_filter(m, mt, ws.primal.sl.generators)[0]
    # j and the largest element of SL, as a document would give them
    generators = (j_element(m), ws.primal.sl.elements[-1])
    gens_ws = Workspace(m.matrix, CHAR0, generators)
    assert gens_ws.dual(gens_ws.group).elements == dual_by_filter(m, mt, generators)[0]


def test_dual_matches_filter_on_fixtures(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m):
        _assert_duals_match_filter(m)


def test_dual_matches_filter_on_small_catalog():
    for m in cy_catalog_small():
        for side in (m, transpose(m, CHAR0)):
            _assert_duals_match_filter(side)


def test_lattice_order_identity_catches_a_derivation_skipping_the_pairing_test(a_f, monkeypatch):
    """Keeping all of H^T as the dual of H + <e> gives |G| |G^T| = 2 |det| or more."""
    import bhk.duality as duality

    monkeypatch.setattr(duality, "_annihilator", lambda d, group, image: group)
    with pytest.raises(InternalCheckError, match="differs from"):
        Workspace(a_f.matrix, CHAR0).lattice


def test_dual_of_trivial_and_full_groups(a_ex, a_f, loop_m, mixed_m):
    """Only a group that contains J has a dual: the trivial group is
    rejected, and the dual of Aut(A), read from SL of A^T, is trivial."""
    for m in (a_ex, a_f, loop_m, mixed_m):
        ws = Workspace(m.matrix, CHAR0)
        with pytest.raises(SemanticError, match="group does not contain the grading element"):
            ws.dual(subgroup_generated(m.exponent, []))
        assert ws.dual(aut_group(ws.primal.matrix)).order == 1


def test_dual_is_bounded_before_it_is_built(a_ex, monkeypatch):
    """G^T lies in SL of A^T, the dual of J, whose order |det| / |J| is
    bounded before it is solved, so a dual above the enumeration limit is
    rejected without building it."""
    import bhk.symmetry as symmetry

    j = j_subgroup(a_ex)
    monkeypatch.setattr(symmetry, "MAX_GROUP_ORDER", 20)
    monkeypatch.setattr(symmetry, "kernel_mod", None)  # never reached
    with pytest.raises(TooLarge, match="SL has 24 elements"):
        Workspace(a_ex.matrix, CHAR0).dual(j)


def test_workspace_builds_its_matrix_from_rows_at_its_characteristic():
    """A built matrix is not taken as it is, so it cannot skip the check of
    the workspace's characteristic against det(A): on the Fermat quartic,
    2 divides det = 256, and no lattice is returned."""
    fermat = build(A_F_ROWS)
    with pytest.raises(ValueError, match="expected 4 rows"):
        Workspace(fermat, Characteristic(2)).lattice
    with pytest.raises(CharDividesDet, match="characteristic 2 divides det = 256"):
        Workspace(fermat.matrix, Characteristic(2)).lattice


def test_dual_cross_checks_catch_a_wrong_solve(a_f, monkeypatch):
    """Every dual of a group above J is filtered from SL of the transpose,
    which is the one solve, so a wrong solve is caught by `sl_group`'s own
    checks, also when a larger group's dual is asked for: a solve over the
    row (1, 3, 0, 0) in place of the column sums (1, 1, 1, 1) of B gives a
    generator outside SL, and a solve with no solutions gives too small an
    SL."""
    import bhk.symmetry as symmetry

    j = j_subgroup(a_f)
    groups = enumerate_intermediate(j, sl_subgroup(aut_group(a_f)))
    above = groups[-1]
    real = symmetry.kernel_mod
    monkeypatch.setattr(symmetry, "kernel_mod", lambda s, d: real((1, 3, 0, 0), d))
    for group in (j, above):
        with pytest.raises(InternalCheckError, match="an SL generator is outside the coordinate-sum-zero kernel"):
            Workspace(a_f.matrix, CHAR0).dual(group)
    monkeypatch.setattr(symmetry, "kernel_mod", lambda s, d: ())
    for group in (j, above):
        with pytest.raises(InternalCheckError, match=r"\|SL\| d / gcd\(d, s\) = 1 \* 4 differs from"):
            Workspace(a_f.matrix, CHAR0).dual(group)


def test_derived_dual_order_identity_catches_a_filter_skipping_a_generator(a_f, monkeypatch):
    """The part of the dual of J that pairs to zero with all but the last
    generator of G is the dual of a smaller group, so |G| |G^T| > |det|; the
    lattice passes one element per derivation, and skipping it keeps H^T."""
    import bhk.duality as duality

    real = duality.Workspace._annihilated
    monkeypatch.setattr(
        duality.Workspace, "_annihilated", lambda ws, dual, order, elements: real(ws, dual, order, list(elements)[:-1])
    )
    ws = Workspace(a_f.matrix, CHAR0, ((1, 1, 1, 1), (0, 0, 2, 2)))
    with pytest.raises(InternalCheckError, match="differs from"):
        ws.dual(ws.group)
    with pytest.raises(InternalCheckError, match="differs from"):
        Workspace(a_f.matrix, CHAR0).lattice


@pytest.mark.parametrize("rows", [A_EX_ROWS, ((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 42))])
def test_dual_checks_each_generator_in_its_kernel(rows):
    """J + <(1,0,0,0)> is not in Aut(A): the kernel check names it before the order check runs."""
    m = build(rows)
    group = subgroup_generated(m.exponent, [j_element(m), (1, 0, 0, 0)])
    with pytest.raises(InternalCheckError, match="outside the kernel Aut"):
        Workspace(rows, CHAR0).dual(group)


def test_dual_checks_each_dual_generator_in_the_transposed_kernel(a_ex, monkeypatch):
    """A span of SL of the transpose that takes in (1, 0, 0, 0), outside
    Aut(A^T), is too large for `sl_group`'s order check, whether the dual of
    J or of a group above it is asked for."""
    import bhk.symmetry as symmetry

    j = j_subgroup(a_ex)
    above = enumerate_intermediate(j, sl_subgroup(aut_group(a_ex)))[-1]
    assert j < above and above.generators
    real = symmetry._span
    monkeypatch.setattr(symmetry, "_span", lambda d, gens: real(d, [*gens, (1, 0, 0, 0)]))
    for group in (j, above):
        with pytest.raises(InternalCheckError, match=r"\|SL\| d / gcd\(d, s\) = \d+ \* \d+ differs from"):
            Workspace(a_ex.matrix, CHAR0).dual(group)


def test_dual_rejects_a_group_of_another_modulus(a_ex):
    """A subgroup of (Z/84)^4 or (Z/336)^4 is no subgroup of Aut(A) on the
    chain, whose exponent is 168: an input error, raised before any check
    of the group's elements, and before the memo of duals, where J's
    elements under any modulus equal the J already asked for."""
    ws = Workspace(a_ex.matrix, CHAR0)
    j = j_subgroup(a_ex)
    assert ws.dual(j).order == 24
    for modulus in (84, 336):
        for group in (
            subgroup_generated(modulus, [(48, 72, 24, 24)]),
            subgroup_generated(modulus, []),
            SymmetrySubgroup(modulus, j),
        ):
            with pytest.raises(SemanticError, match=f"group modulus {modulus} does not match the exponent 168"):
                ws.dual(group)


def test_symmetric_matrix_has_one_side():
    """A = A^T on diag(2, 3, 7, 42), so the transpose is the primal side and
    SL is one solve; the chain is not symmetric."""
    ws = Workspace(((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 42)), CHAR0)
    assert ws.transpose is ws.primal
    chain = Workspace(A_EX_ROWS, CHAR0)
    assert chain.transpose is not chain.primal
    assert chain.transpose.matrix.matrix == tuple(zip(*A_EX_ROWS))


def test_every_lattice_pair_has_the_state_space_of_a_k3(catalog):
    """Every G between J and SL on A, and its dual on A^T, gives the orbifold
    state space of dimension 24, the Euler number of a K3, over both sides
    of the catalog: an independent check of each group `enumerate_intermediate`
    lists and of each dual `Workspace.lattice` derives from it."""
    for m in catalog:
        ws = Workspace(m.matrix, CHAR0, "J")
        primal, mirror = ws.primal.matrix, ws.transpose.matrix
        for group, dual in ws.lattice:
            assert state_space_dimension(primal.weights, primal.degree, group) == 24, (m.matrix, group.generators)
            assert state_space_dimension(mirror.weights, mirror.degree, dual) == 24, (m.matrix, dual.generators)
