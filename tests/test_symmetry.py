"""Kernel symmetry groups, the grading element, and the subgroup lattice,
cross-checked against brute-force kernels and an independent lattice search."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bhk import (
    SymmetrySubgroup,
    Workspace,
    enumerate_intermediate,
    j_element,
    j_subgroup,
    sl_group,
    subgroup_generated,
    transpose,
)
from bhk.errors import InternalCheckError, SemanticError, TooLarge
from bhk.symmetry import _join, _multiples, _span
from conftest import A_EX_ROWS, CHAR0, NONCY_LOOP_ROWS, build, cy_catalog_small
from oracles import aut_group, greedy_generators, lattice_by_joins, reference_closure, sl_subgroup


def test_aut_orders(a_ex, a_f, loop_m, mixed_m):
    for m, order in ((a_ex, 168), (a_f, 256), (loop_m, 80), (mixed_m, 192)):
        aut = aut_group(m)
        assert aut.order == order == abs(m.det)
        assert aut.modulus == m.exponent


def test_aut_is_kernel(a_ex):
    d = a_ex.exponent
    for e in aut_group(a_ex).elements:
        for i in range(4):
            assert sum(a_ex.matrix[i][j] * e[j] for j in range(4)) % d == 0


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
        assert aut_group(m).elements == tuple(sorted(brute))


def test_sl_orders(a_ex, a_f, loop_m, mixed_m):
    for m, order in ((a_ex, 21), (a_f, 64), (loop_m, 20), (mixed_m, 16)):
        sl = sl_subgroup(aut_group(m))
        assert sl.order == order
        assert sl <= aut_group(m)
        assert all(sum(e) % m.exponent == 0 for e in sl.elements)


def _assert_sl_group_matches_definition(m):
    """SL from the solve has the elements of the filtered kernel, and its
    generators, the solve's own, lie in SL and close to it."""
    for side in (m, transpose(m, CHAR0)):
        got, want = sl_group(side), sl_subgroup(aut_group(side))
        assert got.elements == want.elements
        assert all(g in want for g in got.generators)
        assert reference_closure(side.exponent, got.generators) == want


def test_sl_group_matches_definition_on_fixtures(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m, build(((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 42)))):
        _assert_sl_group_matches_definition(m)


def test_sl_group_matches_definition_on_small_catalog():
    for m in cy_catalog_small():
        _assert_sl_group_matches_definition(m)


def test_sl_group_cross_checks_catch_a_wrong_solve(a_f, monkeypatch):
    import bhk.symmetry as symmetry

    real = symmetry.kernel_mod
    monkeypatch.setattr(symmetry, "kernel_mod", lambda s, d: real(s, d)[:-1])
    with pytest.raises(InternalCheckError, match="differs from"):
        sl_group(a_f)
    monkeypatch.setattr(symmetry, "kernel_mod", lambda s, d: (*real(s, d), (1, 0, 0, 0)))
    with pytest.raises(InternalCheckError, match="outside"):
        sl_group(a_f)


def test_sl_group_is_bounded_before_it_is_built(monkeypatch):
    """|SL| = |det| gcd(d, s) / d is checked against the limit before the
    solve: 480^2 elements here, on rows that are Calabi-Yau but not
    quasi-smooth."""
    import bhk.symmetry as symmetry

    monkeypatch.setattr(symmetry, "kernel_mod", None)  # never reached
    with pytest.raises(TooLarge, match="SL has 230400 elements"):
        sl_group(build([[480, 0, 0, 0], [0, 480, 0, 0], [0, 0, 480, 0], [3, 0, 0, 1]]))


def test_grading_element_goldens(a_ex, a_f, loop_m, mixed_m):
    assert j_element(a_ex) == (48, 72, 24, 24)
    assert j_subgroup(a_ex).order == 7
    assert j_element(a_f) == (1, 1, 1, 1)
    assert j_element(loop_m) == (20, 20, 20, 20)
    assert j_element(mixed_m) == (3, 3, 3, 3)
    mt = transpose(a_ex, CHAR0)
    assert j_element(mt) == (84, 42, 21, 21)
    assert j_subgroup(mt).order == 8


def test_grading_element_in_sl(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m):
        sl = sl_subgroup(aut_group(m))
        assert j_element(m) in sl
        assert j_subgroup(m).order == m.degree
        assert j_subgroup(m) <= sl


def test_grading_element_needs_calabi_yau():
    with pytest.raises(SemanticError, match="grading element requires a Calabi-Yau matrix"):
        j_element(build(NONCY_LOOP_ROWS))


def test_subgroup_equality_ignores_generators(a_ex):
    j = j_element(a_ex)
    g1 = subgroup_generated(a_ex.exponent, [j])
    g2 = subgroup_generated(a_ex.exponent, [[2 * c for c in j], [3 * c for c in j]])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1.order == 7


def test_subgroup_generated_needs_four_coordinates():
    with pytest.raises(ValueError, match="4 coordinates"):
        subgroup_generated(5, [(1, 2, 3)])


def test_subgroup_membership_checks_modulus(a_ex, monkeypatch):
    import bhk.duality as duality

    sl = sl_subgroup(aut_group(a_ex))
    assert (48, 72, 24, 24) in sl
    assert (48 + 168, 72, 24, 24) not in sl  # members are reduced mod d
    # a group compares as its element set, so the workspace takes none: a
    # subgroup of (Z/84)^4 is refused before any group is built from it
    spec = subgroup_generated(84, [(48, 72, 24, 24)])
    built = []
    monkeypatch.setattr(duality, "subgroup_generated", lambda *args: built.append(args))
    with pytest.raises(TypeError, match="tuple of generators, got SymmetrySubgroup"):
        Workspace(A_EX_ROWS, CHAR0, spec).pair
    assert built == []


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
        assert j <= g <= sl


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closure_matches_breadth_first_reference(data):
    d = data.draw(st.integers(1, 12))
    coord = st.integers(-2 * d, 2 * d)
    element = st.one_of(st.just((0, 0, 0, 0)), st.tuples(coord, coord, coord, coord))
    gens = data.draw(st.lists(element, max_size=5))
    if gens and data.draw(st.booleans()):
        gens[-1] = gens[0]
    reference = reference_closure(d, gens)
    reduced = [tuple(c % d for c in g) for g in gens]
    spanned, used = _span(d, reduced)
    assert spanned == reference
    assert reference_closure(d, used) == reference
    assert all(u not in reference_closure(d, used[:i]) for i, u in enumerate(used))
    assert _span(d, sorted(reference))[1] == greedy_generators(d, reference)
    group = subgroup_generated(d, gens)
    assert group.elements == tuple(sorted(reference))
    assert group.order == len(reference)
    assert group.generators == tuple(g for g in reduced if g != (0, 0, 0, 0))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_join_matches_breadth_first_closure(data):
    """G + <g> is the closure of G and g, for G a random nontrivial subgroup
    and g reduced, often an element of G; G itself is left as it was."""
    d = data.draw(st.integers(2, 12))
    coord = st.integers(0, d - 1)
    element = st.tuples(coord, coord, coord, coord)
    gens = data.draw(st.lists(element.filter(any), min_size=1, max_size=3))
    group = reference_closure(d, gens)
    g = data.draw(st.one_of(st.sampled_from(sorted(group)), element))
    assert _join(d, group, _multiples(d, group, g)) == reference_closure(d, [*gens, g])
    assert group == reference_closure(d, gens)


def test_generators_match_greedy_oracle_on_small_catalog_lattices():
    """The walk that stops at the pick spanning the group reports what the
    oracle's walk, which closes every prefix, reports, on every group
    between J and SL of both sides of the small catalog."""
    for m in cy_catalog_small():
        for side in (m, transpose(m, CHAR0)):
            for g in enumerate_intermediate(j_subgroup(side), sl_group(side)):
                assert g.generators == greedy_generators(side.exponent, g.elements)


def test_intermediate_lattice_against_join_oracle(a_ex, a_f, loop_m, mixed_m):
    catalog_sides = [side for m in cy_catalog_small() for side in (m, transpose(m, CHAR0))]
    for m in (a_ex, a_f, loop_m, mixed_m, *catalog_sides):
        j = j_subgroup(m)
        sl = sl_subgroup(aut_group(m))
        lattice = enumerate_intermediate(j, sl)
        assert {frozenset(g.elements) for g in lattice} == lattice_by_joins(j, sl)
        _assert_covers(lattice)


def _assert_covers(lattice):
    """J covers nothing; every other G covers (H, q) with H in the lattice,
    G the closure of H and q, and no group strictly between H and G."""
    assert lattice[0].covers is None
    for g in lattice[1:]:
        h, q = g.covers
        assert h in lattice and q in g and q not in h
        assert reference_closure(g.modulus, [*h.generators, q]) == g
        assert not any(h < k < g for k in lattice)


def _quotient_case(d):
    coords = st.tuples(*[st.integers(0, d - 1)] * 4)
    multiplier = st.one_of(st.just(0), st.integers(0, d - 1))  # 0 often, so J is often smaller than SL
    return st.tuples(st.just(d), st.lists(st.tuples(coords, multiplier), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 12).flatmap(_quotient_case))
# SL/J = (Z/2)^3, once with J trivial and once with J of order 2
@example(case=(2, [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0)]))
@example(case=(2, [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0), ((1, 1, 1, 1), 1)]))
# SL/J = Z/6 x Z/2, once with J trivial and once with J of order 2
@example(case=(6, [((1, 0, 0, 0), 0), ((0, 3, 0, 0), 0)]))
@example(case=(12, [((1, 0, 0, 0), 6), ((0, 6, 0, 0), 0)]))
def test_intermediate_lattice_on_random_quotients(case):
    """SL from 1-4 random generators, J from multiples k g of them (k = 0
    drops g), so SL/J ranges over quotients the catalog lacks."""
    d, drawn = case
    sl = subgroup_generated(d, [g for g, _ in drawn])
    assume(sl.order <= 64)
    j = subgroup_generated(d, [tuple(k * c for c in g) for g, k in drawn])
    lattice = enumerate_intermediate(j, sl)
    assert {frozenset(g.elements) for g in lattice} == lattice_by_joins(j, sl)
    assert [(g.order, g.elements) for g in lattice] == sorted((g.order, g.elements) for g in lattice)
    _assert_covers(lattice)


def test_coset_count_check_catches_a_lost_coset(a_ex, a_f, loop_m, mixed_m):
    """A J with one nonzero element dropped lies in SL but is no group: its
    translates no longer split SL into cosets of |J| elements each."""
    for m in (a_ex, a_f, loop_m, mixed_m):
        j, sl = j_subgroup(m), sl_group(m)
        for e in j - {(0, 0, 0, 0)}:
            with pytest.raises(InternalCheckError, match="cosets of J"):
                enumerate_intermediate(SymmetrySubgroup(j.modulus, j - {e}), sl)


def test_intermediate_groups_keep_the_sorted_elements_of_sl(a_f):
    """Each group is filtered from SL's sorted elements, which it keeps as
    its element list, so no group is sorted again."""
    for g in enumerate_intermediate(j_subgroup(a_f), sl_group(a_f)):
        assert vars(g)["elements"] == tuple(sorted(g))


def test_intermediate_requires_containment(a_ex, a_f):
    with pytest.raises(ValueError):
        enumerate_intermediate(j_subgroup(a_ex), sl_subgroup(aut_group(a_f)))


def test_catalog_aut_order_is_det(catalog_small):
    for m in catalog_small[:60]:
        assert aut_group(m).order == abs(m.det)
