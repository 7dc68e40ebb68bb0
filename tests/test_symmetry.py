"""Kernel symmetry groups, the grading element, and the subgroup lattice,
cross-checked against brute-force kernels and an independent lattice search."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhk import (
    GroupElement,
    aut_group,
    element_order,
    enumerate_intermediate,
    j_element,
    j_subgroup,
    sl_group,
    sl_subgroup,
    subgroup_generated,
    transpose,
)
from bhk.errors import InternalCheckError
from bhk.symmetry import _closure
from conftest import A_EX_ROWS, CHAR0, LOOP_ROWS, MIXED_ROWS, NONCY_LOOP_ROWS, build, cy_catalog_small


def test_element_normalization():
    g = GroupElement(7, (8, -1, 0, 14))
    assert g.coords == (1, 6, 0, 0)
    assert (-g).coords == (6, 1, 0, 0)
    assert (g + g).coords == (2, 5, 0, 0)
    assert g.scale(3).coords == (3, 4, 0, 0)
    assert g.coordinate_sum() == 0
    assert element_order(GroupElement(12, (1, 0, 0, 0))) == 12
    assert element_order(GroupElement(12, (0, 0, 0, 0))) == 1
    assert element_order(GroupElement(12, (4, 6, 0, 0))) == 6


def test_element_validation():
    with pytest.raises(ValueError):
        GroupElement(0, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        GroupElement(5, (1, 2, 3))
    with pytest.raises(ValueError):
        GroupElement(5, (1, 1, 0, 0)) + GroupElement(7, (1, 1, 0, 0))


def test_aut_orders(a_ex, a_f, loop_m, mixed_m):
    for m, order in ((a_ex, 168), (a_f, 256), (loop_m, 80), (mixed_m, 192)):
        aut = aut_group(m)
        assert aut.order == order == abs(m.det)
        assert aut.modulus == m.exponent


def test_aut_is_kernel(a_ex):
    d = a_ex.exponent
    for e in aut_group(a_ex).elements:
        for i in range(4):
            assert sum(a_ex.matrix[i][j] * e.coords[j] for j in range(4)) % d == 0


def test_aut_matches_brute_force_kernel(a_f, mixed_m):
    for m in (a_f, mixed_m):
        d = m.exponent
        brute = {
            c
            for c in product(range(d), repeat=4)
            if all(
                sum(m.matrix[i][j] * c[j] for j in range(4)) % d == 0 for i in range(4)
            )
        }
        assert aut_group(m).coord_set() == brute


def test_sl_orders(a_ex, a_f, loop_m, mixed_m):
    for m, order in ((a_ex, 21), (a_f, 64), (loop_m, 20), (mixed_m, 16)):
        sl = sl_subgroup(aut_group(m))
        assert sl.order == order
        assert sl.is_subgroup_of(aut_group(m))
        assert all(e.coordinate_sum() == 0 for e in sl.elements)


def _assert_sl_group_matches_definition(m):
    for side in (m, transpose(m, CHAR0)):
        got, want = sl_group(side), sl_subgroup(aut_group(side))
        assert got.elements == want.elements
        assert got.generators == want.generators


def test_sl_group_matches_definition_on_fixtures(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m, build(((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 42)))):
        _assert_sl_group_matches_definition(m)


def test_sl_group_matches_definition_on_small_catalog():
    for m in cy_catalog_small():
        _assert_sl_group_matches_definition(m)


def test_sl_group_cross_checks_catch_a_wrong_solve(a_f, monkeypatch):
    import bhk.symmetry as symmetry

    real = symmetry.kernel_mod
    monkeypatch.setattr(symmetry, "kernel_mod", lambda rows, d: real(rows, d)[:-1])
    with pytest.raises(InternalCheckError, match="differs from"):
        sl_group(a_f)
    monkeypatch.setattr(symmetry, "kernel_mod", lambda rows, d: (*real(rows, d), (1, 0, 0, 0)))
    with pytest.raises(InternalCheckError, match="outside"):
        sl_group(a_f)


def test_grading_element_goldens(a_ex, a_f, loop_m, mixed_m):
    from bhk import transpose
    from conftest import CHAR0

    assert j_element(a_ex).coords == (48, 72, 24, 24)
    assert element_order(j_element(a_ex)) == 7
    assert j_element(a_f).coords == (1, 1, 1, 1)
    assert j_element(loop_m).coords == (20, 20, 20, 20)
    assert j_element(mixed_m).coords == (3, 3, 3, 3)
    jt = j_element(transpose(a_ex, CHAR0))
    assert jt.coords == (84, 42, 21, 21)
    assert element_order(jt) == 8


def test_grading_element_in_sl(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m):
        sl = sl_subgroup(aut_group(m))
        assert j_element(m) in sl
        assert j_subgroup(m).order == m.degree
        assert j_subgroup(m).is_subgroup_of(sl)


def test_grading_element_needs_calabi_yau():
    with pytest.raises(ValueError):
        j_element(build(NONCY_LOOP_ROWS))


def test_subgroup_equality_ignores_generators(a_ex):
    j = j_element(a_ex)
    g1 = subgroup_generated(a_ex.exponent, [j])
    g2 = subgroup_generated(a_ex.exponent, [j.scale(2), j.scale(3)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1.order == 7


def test_subgroup_membership_checks_modulus(a_ex):
    sl = sl_subgroup(aut_group(a_ex))
    assert GroupElement(168, (48, 72, 24, 24)) in sl
    assert GroupElement(84, (48, 72, 24, 24)) not in sl


def test_generators_regenerate(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m):
        for g in (aut_group(m), sl_subgroup(aut_group(m))):
            assert subgroup_generated(m.exponent, g.generators) == g


def test_intermediate_lattice_goldens(a_ex, a_f, loop_m, mixed_m):
    def orders(m):
        lattice = enumerate_intermediate(j_subgroup(m), sl_subgroup(aut_group(m)))
        return [g.order for g in lattice]

    assert orders(a_ex) == [7, 21]
    assert orders(loop_m) == [4, 20]
    af_orders = orders(a_f)
    assert len(af_orders) == 15
    assert af_orders == [4, 8, 8, 8] + [16] * 7 + [32] * 3 + [64]


def test_intermediate_lattice_bounds(a_f):
    j = j_subgroup(a_f)
    sl = sl_subgroup(aut_group(a_f))
    lattice = enumerate_intermediate(j, sl)
    assert lattice[0] == j
    assert lattice[-1] == sl
    for g in lattice:
        assert j.is_subgroup_of(g)
        assert g.is_subgroup_of(sl)


def _reference_closure(modulus, gens):
    """Breadth-first closure of the generators under addition mod the modulus."""
    gens = [tuple(c % modulus for c in g) for g in gens]
    zero = (0, 0, 0, 0)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % modulus for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closure_matches_breadth_first_reference(data):
    d = data.draw(st.integers(1, 12))
    coord = st.integers(-2 * d, 2 * d)
    element = st.one_of(st.just((0, 0, 0, 0)), st.tuples(coord, coord, coord, coord))
    gens = data.draw(st.lists(element, max_size=5))
    if gens and data.draw(st.booleans()):
        gens[-1] = gens[0]
    assert _closure(d, gens) == _reference_closure(d, gens)


def _lattice_by_joins(j_group, sl):
    """Independent oracle: saturate under joins with single elements, each
    join closed from its generators by breadth-first search."""
    d = sl.modulus
    start = tuple(g.coords for g in j_group.generators)
    known = {frozenset(_reference_closure(d, start)): start}
    frontier = list(known.items())
    while frontier:
        elements, gens = frontier.pop()
        for e in sl.elements:
            if e.coords in elements:
                continue
            joined = gens + (e.coords,)
            key = frozenset(_reference_closure(d, joined))
            if key not in known:
                known[key] = joined
                frontier.append((key, joined))
    return set(known)


def test_intermediate_lattice_against_join_oracle(a_ex, a_f, loop_m, mixed_m):
    catalog_sides = [side for m in cy_catalog_small() for side in (m, transpose(m, CHAR0))]
    for m in (a_ex, a_f, loop_m, mixed_m, *catalog_sides):
        j = j_subgroup(m)
        sl = sl_subgroup(aut_group(m))
        lattice = enumerate_intermediate(j, sl)
        assert {g.coord_set() for g in lattice} == _lattice_by_joins(j, sl)


def test_intermediate_requires_containment(a_ex, a_f):
    with pytest.raises(ValueError):
        enumerate_intermediate(j_subgroup(a_ex), sl_subgroup(aut_group(a_f)))


def test_catalog_aut_order_is_det(catalog_small):
    for m in catalog_small[:60]:
        assert aut_group(m).order == abs(m.det)
