"""The mod d^2 pairing, dual groups, and mirror pair construction."""

from __future__ import annotations

import pytest

from bhk import (
    Characteristic,
    j_element,
    j_subgroup,
    pairing,
    subgroup_generated,
    transpose,
)
from bhk.duality import Workspace
from bhk.symmetry import enumerate_intermediate
from bhk.errors import InternalCheckError, MirrorNotAdequate, NotAdequate, SemanticError
from conftest import A_EX_ROWS, CHAR0, NONCY_LOOP_ROWS, build, cy_catalog_small
from oracles import aut_group, dual_by_filter, sl_subgroup
from test_smoothness import CY_NOT_QS_ROWS


def _workspace(m, group_name="J", p=0):
    group = j_subgroup(m) if group_name == "J" else sl_subgroup(aut_group(m))
    return Workspace(m, Characteristic(p), group)


def test_make_pair_rejects_modulus_mismatch(a_ex, a_f):
    with pytest.raises(SemanticError):
        Workspace(a_ex, CHAR0, j_subgroup(a_f)).pair


def test_make_pair_rejects_non_calabi_yau():
    m = build(NONCY_LOOP_ROWS)
    group = subgroup_generated(m.exponent, [(1, 14, 0, 0)])
    with pytest.raises(SemanticError):
        Workspace(m, CHAR0, group).pair


def test_make_pair_rejects_group_without_grading_element(a_ex):
    aut = aut_group(a_ex)
    no_j = next(e for e in aut.elements if sum(e) % a_ex.exponent != 0)
    with pytest.raises(SemanticError):
        Workspace(a_ex, CHAR0, subgroup_generated(168, [no_j])).pair


def test_make_pair_rejects_group_outside_sl(a_ex):
    with pytest.raises(SemanticError):
        Workspace(a_ex, CHAR0, aut_group(a_ex)).pair


def test_workspace_rejects_generator_outside_sl_before_building_sl(a_ex):
    ws = Workspace(A_EX_ROWS, CHAR0, ((48, 72, 24, 24), (1, 0, 0, 0)))
    with pytest.raises(SemanticError, match=r"generator \[1, 0, 0, 0\] is outside"):
        ws.group
    assert "sl" not in vars(ws.primal)
    with pytest.raises(SemanticError, match=r"generator \[48, 72, 48\] is outside"):
        Workspace(A_EX_ROWS, CHAR0, ((48, 72, 48),)).group  # three coordinates summing to 0 mod d
    assert Workspace(A_EX_ROWS, CHAR0, ((48, 72, 24, 24), (0, 0, 0, 0))).group.order == 7


def test_make_pair_attaches_adequacy(a_ex):
    pair = _workspace(a_ex).pair
    assert pair.adequacy.verdict
    assert pair.group.order == 7
    assert pair.char.p == 0


def test_pairing_annihilates_grading_elements(a_ex):
    jt = j_element(transpose(a_ex, CHAR0))
    j = j_element(a_ex)
    assert pairing(a_ex, jt, j) == 0


def test_pairing_bilinearity(a_ex):
    aut_t = aut_group(transpose(a_ex, CHAR0))
    aut = aut_group(a_ex)
    a = aut_t.elements[5]
    b1, b2 = aut.elements[7], aut.elements[11]
    d2 = a_ex.exponent ** 2
    lhs = pairing(a_ex, a, [x + y for x, y in zip(b1, b2)])
    rhs = (pairing(a_ex, a, b1) + pairing(a_ex, a, b2)) % d2
    assert lhs == rhs


def test_pairing_rejects_non_kernel_arguments(a_ex):
    jt = j_element(transpose(a_ex, CHAR0))
    j = j_element(a_ex)
    with pytest.raises(ValueError):
        pairing(a_ex, (1, 0, 0, 0), j)
    with pytest.raises(ValueError):
        pairing(a_ex, jt, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        pairing(a_ex, jt, (1 + 168, 0, 0, 0))


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
    ws = Workspace(m, CHAR0, j_subgroup(m))
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
        Workspace(a_ex, CHAR0, j_subgroup(a_ex)).mirror
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
            ws_t = Workspace(transpose(m, CHAR0), CHAR0, dual)
            back = ws_t.dual(ws_t.pair.group)
            assert back == ws.pair.group


def _assert_duals_match_filter(m):
    ws = Workspace(m, CHAR0)
    for group in enumerate_intermediate(ws.primal.j, ws.primal.sl):
        got = ws.dual(group)
        assert (got.elements, got.generators) == dual_by_filter(m, ws.transpose.matrix, group.generators)


def test_dual_matches_filter_on_fixtures(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m):
        _assert_duals_match_filter(m)


def test_dual_matches_filter_on_small_catalog():
    for m in cy_catalog_small():
        _assert_duals_match_filter(m)


def test_dual_of_trivial_and_full_groups(a_ex):
    ws = Workspace(a_ex, CHAR0)
    trivial = subgroup_generated(a_ex.exponent, [])
    assert ws.dual(trivial) == aut_group(ws.transpose.matrix)
    assert ws.dual(aut_group(ws.primal.matrix)).order == 1


def test_dual_cross_checks_catch_a_wrong_solve(a_f, monkeypatch):
    import bhk.duality as duality

    groups = enumerate_intermediate(j_subgroup(a_f), sl_subgroup(aut_group(a_f)))
    group, other = next((g, h) for g in groups for h in groups if g != h and g.order == h.order)
    real = duality.kernel_mod
    wrong_rows = other.generators
    monkeypatch.setattr(duality, "kernel_mod", lambda rows, d: real(wrong_rows, d))
    with pytest.raises(InternalCheckError, match="pairs nontrivially"):
        Workspace(a_f, CHAR0).dual(group)
    monkeypatch.setattr(duality, "kernel_mod", lambda rows, d: ())
    with pytest.raises(InternalCheckError, match="differs from"):
        Workspace(a_f, CHAR0).dual(group)


@pytest.mark.parametrize("rows", [A_EX_ROWS, ((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 42))])
def test_dual_checks_each_generator_in_its_kernel(rows):
    """<(1,0,0,0)> is not in Aut(A): the kernel check names it before the order check runs."""
    m = build(rows)
    with pytest.raises(InternalCheckError, match="outside the kernel Aut"):
        Workspace(m, CHAR0).dual(subgroup_generated(m.exponent, [(1, 0, 0, 0)]))


def test_dual_checks_each_dual_generator_in_the_transposed_kernel(a_ex, monkeypatch):
    import bhk.duality as duality

    real = duality._closure
    monkeypatch.setattr(duality, "_closure", lambda d, gens: real(d, [*gens, (1, 0, 0, 0)]))
    with pytest.raises(InternalCheckError, match="outside the transposed kernel"):
        Workspace(a_ex, CHAR0).dual(j_subgroup(a_ex))
