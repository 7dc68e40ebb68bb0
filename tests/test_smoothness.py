"""Atomic shape decomposition, well-formedness, and adequacy reports."""

from __future__ import annotations

import random

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhk.smoothness as smoothness
from bhk import Atom, Characteristic, adequacy
from bhk.smoothness import atomic_decomposition
from bhk.errors import NotInvertiblePotential
from conftest import (
    A_EX_ROWS,
    A_F_ROWS,
    CHAR0,
    LOOP_ROWS,
    MIXED_ROWS,
    NONCY_LOOP_ROWS,
    build,
)
from oracles import pair_supports_ok, triple_gcds_ok

# Calabi-Yau but not quasi-smooth: the first row mixes three variables.
CY_NOT_QS_ROWS = ((2, 1, 1, 0), (0, 2, 1, 0), (0, 0, 3, 1), (0, 0, 1, 4))
# Quasi-smooth loop whose weights (2,1,2,1) share a factor on an unsupported pair.
WF_FAIL_LOOP_ROWS = ((2, 1, 0, 0), (0, 3, 1, 0), (0, 0, 2, 1), (1, 0, 0, 3))
# Weights (9,9,5,3): the triple (9,9,3) shares the factor 3.
TRIPLE_FAIL_ROWS = ((1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 3, 1), (0, 0, 0, 6))


def test_chain_decomposition():
    atoms = atomic_decomposition(build(A_EX_ROWS))
    assert atoms == (Atom("chain", (0, 1, 2, 3), (2, 2, 6, 7)),)
    assert {v for atom in atoms for v in atom.variables} == {0, 1, 2, 3}


def test_fermat_decomposition():
    atoms = atomic_decomposition(build(A_F_ROWS))
    assert atoms == tuple(Atom("fermat", (v,), (4,)) for v in range(4))


def test_loop_decomposition():
    assert atomic_decomposition(build(LOOP_ROWS)) == (Atom("loop", (0, 1, 2, 3), (3, 3, 3, 3)),)
    assert atomic_decomposition(build(NONCY_LOOP_ROWS)) == (Atom("loop", (0, 1, 2, 3), (2, 2, 2, 2)),)


def test_mixed_decomposition():
    assert atomic_decomposition(build(MIXED_ROWS)) == (
        Atom("chain", (0, 1), (3, 4)),
        Atom("fermat", (2,), (4,)),
        Atom("fermat", (3,), (4,)),
    )


def test_two_small_loops():
    rows = ((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2))
    assert atomic_decomposition(build(rows)) == (
        Atom("loop", (0, 1), (2, 2)),
        Atom("loop", (2, 3), (2, 2)),
    )


def test_decomposition_is_row_order_invariant():
    rng = random.Random(5)
    expected = atomic_decomposition(build(A_EX_ROWS))
    for _ in range(10):
        rows = list(A_EX_ROWS)
        rng.shuffle(rows)
        assert atomic_decomposition(build(tuple(rows))) == expected


def test_loop_starts_at_least_variable():
    rows = (LOOP_ROWS[2], LOOP_ROWS[0], LOOP_ROWS[3], LOOP_ROWS[1])
    assert atomic_decomposition(build(rows))[0].variables[0] == 0


def test_not_invertible_rejected():
    m = build(CY_NOT_QS_ROWS)
    assert not adequacy(m, None, CHAR0).quasi_smooth
    with pytest.raises(NotInvertiblePotential):
        atomic_decomposition(m)


def test_exponent_one_pair_never_matches():
    # x0 * x1 with both exponents one is ambiguous and rejected.
    rows = ((1, 1, 0, 0), (0, 2, 1, 0), (0, 0, 6, 1), (0, 0, 0, 7))
    assert not adequacy(build(rows), None, CHAR0).quasi_smooth


def test_well_formed_goldens():
    for rows, expected in (
        (A_EX_ROWS, True),
        (A_F_ROWS, True),
        (LOOP_ROWS, True),
        (MIXED_ROWS, True),
        (WF_FAIL_LOOP_ROWS, False),
        (TRIPLE_FAIL_ROWS, False),
    ):
        assert adequacy(build(rows), None, CHAR0).well_formed is expected


def test_adequacy_report_flags():
    rep = adequacy(build(WF_FAIL_LOOP_ROWS), None, CHAR0)
    assert rep.quasi_smooth
    assert not rep.well_formed
    assert rep.weight_triple_gcd_ok  # only the pair criterion fails
    assert not rep.verdict

    rep3 = adequacy(build(TRIPLE_FAIL_ROWS), None, CHAR0)
    assert not rep3.weight_triple_gcd_ok
    assert not rep3.well_formed

    full = adequacy(build(A_EX_ROWS), None, CHAR0)
    assert full.quasi_smooth and full.well_formed and full.char_ok and full.verdict


def test_adequacy_always_carries_audit_flag():
    for rows in (A_EX_ROWS, WF_FAIL_LOOP_ROWS, TRIPLE_FAIL_ROWS):
        rep = adequacy(build(rows), None, CHAR0)
        assert any("audit borderline weight systems" in s for s in rep.diagnostics)


def test_adequacy_positive_characteristic():
    ok = adequacy(build(A_EX_ROWS, 5), None, Characteristic(5))
    assert ok.char_ok and ok.verdict

    # det = 35 is odd so the build passes, but 2 divides the weight 2.
    bad = adequacy(build(WF_FAIL_LOOP_ROWS, 2), None, Characteristic(2))
    assert not bad.char_ok
    assert any("divides a weight" in s for s in bad.diagnostics)


def test_adequacy_mentions_group_order(a_ex):
    from bhk import j_subgroup

    rep = adequacy(a_ex, j_subgroup(a_ex), CHAR0)
    assert any("group order 7" in s for s in rep.diagnostics)


def test_catalog_is_adequate(catalog):
    for m in catalog:
        rep = adequacy(m, None, CHAR0)
        assert rep.verdict, m.matrix


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    weights=st.lists(st.one_of(st.integers(1, 12), st.integers(-2, 60)), min_size=4, max_size=4),
    rows=st.lists(st.lists(st.one_of(st.just(0), st.integers(-2, 60)), min_size=4, max_size=4), min_size=4, max_size=4),
)
def test_weight_checks_match_the_reference_checks(weights, rows):
    """The triple-gcd and line-support tests, each written over the four
    triples and the six pairs, agree with the loops over all index choices."""
    m = SimpleNamespace(weights=tuple(weights), matrix=tuple(map(tuple, rows)))
    assert smoothness._triple_gcds_ok(weights) == triple_gcds_ok(weights)
    assert smoothness._pair_supports_ok(m) == pair_supports_ok(m)
