"""Atomic shape decomposition, well-formedness, and adequacy reports."""

from __future__ import annotations

import random
import time
from itertools import permutations, product
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import bhk.smoothness as smoothness
from bhk import Atom, Characteristic, adequacy
from bhk.smoothness import atomic_decomposition
from conftest import (
    A_EX_ROWS,
    A_F_ROWS,
    CHAR0,
    LOOP_ROWS,
    MIXED_ROWS,
    NONCY_LOOP_ROWS,
    build,
)
from oracles import pair_supports_ok, reference_atomic_decomposition, triple_gcds_ok

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
    assert atomic_decomposition(m) is None


def _shaped_row(v, w, e, f) -> tuple:
    """y_v^e, or y_v^e y_w^f when w is not None."""
    row = [0, 0, 0, 0]
    row[v] = e
    if w is not None:
        row[w] = f
    return tuple(row)


def test_decomposition_matches_the_reference_on_every_row_shape():
    """Every set of four rows, each with an own variable v and a successor w
    (None or another variable), so own variables and successors may repeat:
    16^4 = 65,536 sets. A seeded draw gives each row its own exponent from
    {1, 2, 3, 5} and its successor's from {1, 1, 1, 2}. The one-walk
    decomposition equals the three-step reference, in the drawn row order and
    shuffled."""
    shapes = [(v, w) for v in range(4) for w in (None, *(x for x in range(4) if x != v))]
    # each shape's 16 rows, indexed by four bits: two pick e, two pick f
    rows_of = [
        [_shaped_row(v, w, (1, 2, 3, 5)[k & 3], (1, 1, 1, 2)[k >> 2]) for k in range(16)] for v, w in shapes
    ]
    orders = list(permutations(range(4)))
    rng = random.Random(25)
    started = time.perf_counter()
    count = 0
    for picks in product(range(16), repeat=4):
        bits = rng.getrandbits(16)
        rows = tuple(rows_of[s][bits >> 4 * i & 15] for i, s in enumerate(picks))
        expected = reference_atomic_decomposition(SimpleNamespace(matrix=rows))
        assert atomic_decomposition(SimpleNamespace(matrix=rows)) == expected, rows
        shuffled = tuple(rows[i] for i in rng.choice(orders))
        assert atomic_decomposition(SimpleNamespace(matrix=shuffled)) == expected, shuffled
        count += expected is not None
    assert 0 < count < 65536
    assert time.perf_counter() - started < 3.0


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
