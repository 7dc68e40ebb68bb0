"""The mod d^2 pairing, dual groups, and mirror pair construction."""

from __future__ import annotations

import pytest

from bhk import (
    Characteristic,
    aut_group,
    dual_group,
    j_element,
    j_subgroup,
    make_pair,
    mirror_pair,
    pairing,
    sl_subgroup,
    subgroup_generated,
    transpose,
)
from bhk.duality import BhkPair, Workspace
from bhk.symmetry import _from_coords, enumerate_intermediate
from bhk.errors import InternalCheckError, MirrorNotAdequate, NotAdequate, SemanticError
from conftest import A_EX_ROWS, CHAR0, NONCY_LOOP_ROWS, build, cy_catalog_small
from test_smoothness import CY_NOT_QS_ROWS


def _pair(m, group_name="J", p=0):
    char = Characteristic(p)
    group = j_subgroup(m) if group_name == "J" else sl_subgroup(aut_group(m))
    return make_pair(m, group, char)


def test_make_pair_rejects_modulus_mismatch(a_ex, a_f):
    with pytest.raises(SemanticError):
        make_pair(a_ex, j_subgroup(a_f), CHAR0)


def test_make_pair_rejects_non_calabi_yau():
    m = build(NONCY_LOOP_ROWS)
    group = subgroup_generated(m.exponent, [(1, 14, 0, 0)])
    with pytest.raises(SemanticError):
        make_pair(m, group, CHAR0)


def test_make_pair_rejects_group_without_grading_element(a_ex):
    aut = aut_group(a_ex)
    no_j = next(e for e in aut.elements if sum(e) % a_ex.exponent != 0)
    with pytest.raises(SemanticError):
        make_pair(a_ex, subgroup_generated(168, [no_j]), CHAR0)


def test_make_pair_rejects_group_outside_sl(a_ex):
    with pytest.raises(SemanticError):
        make_pair(a_ex, aut_group(a_ex), CHAR0)


def test_workspace_rejects_generator_outside_sl_before_building_sl(a_ex):
    ws = Workspace(A_EX_ROWS, CHAR0, ((48, 72, 24, 24), (1, 0, 0, 0)))
    with pytest.raises(SemanticError, match=r"generator \[1, 0, 0, 0\] is outside"):
        ws.group
    assert "sl" not in vars(ws.primal)
    with pytest.raises(SemanticError, match=r"generator \[48, 72, 48\] is outside"):
        Workspace(A_EX_ROWS, CHAR0, ((48, 72, 48),)).group  # three coordinates summing to 0 mod d
    assert Workspace(A_EX_ROWS, CHAR0, ((48, 72, 24, 24), (0, 0, 0, 0))).group.order == 7


def test_make_pair_attaches_adequacy(a_ex):
    pair = _pair(a_ex)
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
        dual_of_j = dual_group(_pair(m, "J"))
        dual_of_sl = dual_group(_pair(m, "SL"))
        assert dual_of_j.order == j_dual_order
        assert dual_of_sl.order == sl_dual_order
        assert dual_of_j == sl_subgroup(aut_group(mt))
        assert dual_of_sl == j_subgroup(mt)


def test_dual_order_product_is_det(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m):
        for name in ("J", "SL"):
            pair = _pair(m, name)
            assert pair.group.order * dual_group(pair).order == abs(m.det)


def test_mirror_pair_golden(a_ex):
    mp = mirror_pair(_pair(a_ex, "J"))
    assert mp.primal.matrix.weights == (2, 3, 1, 1)
    assert mp.mirror.matrix.weights == (4, 2, 1, 1)
    assert mp.mirror.matrix.degree == 8
    assert mp.mirror.group.order == 24
    assert mp.mirror.adequacy.verdict


def test_mirror_pair_requires_adequate_primal():
    m = build(CY_NOT_QS_ROWS)
    pair = make_pair(m, j_subgroup(m), CHAR0)
    assert not pair.adequacy.verdict
    with pytest.raises(NotAdequate) as exc:
        mirror_pair(pair)
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
    pair = make_pair(a_ex, j_subgroup(a_ex), CHAR0)
    with pytest.raises(MirrorNotAdequate) as exc:
        mirror_pair(pair)
    assert not exc.value.report.well_formed
    assert primal_report.verdict  # the primal side really is adequate


def test_mirror_pair_positive_characteristic(a_ex):
    mp = mirror_pair(_pair(a_ex, "J", p=5))
    assert mp.mirror.char.p == 5
    assert mp.mirror.adequacy.verdict


def test_double_dual_returns_group(a_ex, mixed_m):
    for m in (a_ex, mixed_m):
        for name in ("J", "SL"):
            pair = _pair(m, name)
            dual = dual_group(pair)
            mt = transpose(m, CHAR0)
            back = dual_group(make_pair(mt, dual, CHAR0))
            assert back == pair.group


def _dual_by_filter(ws, group):
    """The dual group straight from its definition: every element of Aut(A^T)
    that pairs to zero with every generator of the group."""
    m = ws.primal.matrix
    coords = [
        a
        for a in aut_group(ws.transpose.matrix).elements
        if all(pairing(m, a, g) == 0 for g in group.generators)
    ]
    return _from_coords(m.exponent, coords)


def _assert_duals_match_filter(m):
    ws = Workspace(m, CHAR0)
    for group in enumerate_intermediate(ws.primal.j, ws.primal.sl):
        want = _dual_by_filter(ws, group)
        got = ws.dual(group)
        assert got == want
        assert got.generators == want.generators


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
