"""Randomized invariant suites, each run on at least 500 generated cases.

The generators draw from a searched catalog of Calabi-Yau matrices plus random
subgroups between J and SL, and from random atomic structures for invariants
that do not need the Calabi-Yau condition.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bhk import (
    Characteristic,
    Workspace,
    j_element,
    j_subgroup,
    subgroup_generated,
    transpose,
)
from bhk.arith import euler_phi, minus_one_power_exists
from bhk.delsarte import build_delsarte
from bhk.duality import _image, _pairings
from bhk.picard import aged_elements
from conftest import CHAR0, aged, cy_catalog_small, primes_below, random_valid_rows
from oracles import aut_group, pairing, sl_subgroup, transcendental_set

SUITE_CASES = 500

suite_settings = settings(
    max_examples=SUITE_CASES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# Executed-case tally per suite, so each suite can check that its invariant
# really ran on at least SUITE_CASES generated inputs.
CASE_COUNTS: dict[str, int] = {}


def _count(name: str) -> None:
    CASE_COUNTS[name] = CASE_COUNTS.get(name, 0) + 1


def floored(suite):
    """The suite as a test that also fails when it executed fewer than
    SUITE_CASES cases, as tallied by its own _count calls."""

    def test():
        CASE_COUNTS[suite.__name__] = 0
        suite()
        executed = CASE_COUNTS[suite.__name__]
        assert executed >= SUITE_CASES, f"{suite.__name__} executed {executed} < {SUITE_CASES} cases"

    test.__name__, test.floor = suite.__name__, SUITE_CASES
    return test


_SMALL = cy_catalog_small()
_PRIMES = primes_below(100)


@lru_cache(maxsize=None)
def _aut(m):
    return aut_group(m)


@lru_cache(maxsize=None)
def _sl(m):
    return sl_subgroup(_aut(m))


@lru_cache(maxsize=None)
def _transpose(m):
    return transpose(m, CHAR0)


matrices = st.sampled_from(_SMALL)


@st.composite
def cy_pairs(draw):
    """A catalog matrix plus a random group between J and SL."""
    m = draw(matrices)
    sl = _sl(m)
    extra = draw(st.lists(st.sampled_from(sl.elements), max_size=2))
    group = subgroup_generated(m.exponent, [j_element(m), *extra])
    return m, group


@st.composite
def valid_rows(draw):
    """Rows of a random valid, not necessarily Calabi-Yau, matrix."""
    rng_seed = draw(st.integers(0, 2**32 - 1))
    import random

    return random_valid_rows(random.Random(rng_seed))


@st.composite
def aged_coords(draw):
    """A modulus and coordinates with nonzero entries and zero coordinate sum."""
    d = draw(st.integers(2, 60))
    c = [draw(st.integers(1, d - 1)) for _ in range(3)]
    last = (-sum(c)) % d
    assume(last != 0)
    return d, (c[0], c[1], c[2], last)


@floored
@suite_settings
@given(aged_coords())
def test_suite_age_range_and_negation(case):
    _count("test_suite_age_range_and_negation")
    d, g = case
    a = aged(d, g)
    assert a in (1, 2, 3)
    assert aged(d, [-c for c in g]) == 4 - a


@floored
@suite_settings
@given(valid_rows())
def test_suite_kernel_order_is_det(rows):
    _count("test_suite_kernel_order_is_det")
    m = build_delsarte(rows, CHAR0)
    assert aut_group(m).order == abs(m.det)


@floored
@suite_settings
@given(valid_rows())
def test_suite_divisibility_chain(rows):
    _count("test_suite_divisibility_chain")
    m = build_delsarte(rows, CHAR0)
    assert m.exponent % m.degree == 0
    assert abs(m.det) % m.exponent == 0
    assert m.exponent**4 % abs(m.det) == 0


@floored
@suite_settings
@given(cy_pairs())
def test_suite_double_dual_is_identity(case):
    _count("test_suite_double_dual_is_identity")
    m, group = case
    ws = Workspace(m.matrix, CHAR0, group.generators)
    dual = ws.dual(ws.pair.group)
    assert group.order * dual.order == abs(m.det)
    ws_t = Workspace(_transpose(m).matrix, CHAR0, dual.generators)
    back = ws_t.dual(ws_t.pair.group)
    assert back == group


@floored
@suite_settings
@given(matrices, st.booleans())
def test_suite_dual_of_j_is_transposed_sl(m, from_sl):
    _count("test_suite_dual_of_j_is_transposed_sl")
    mt = _transpose(m)
    ws = Workspace(m.matrix, CHAR0, _sl(m).generators if from_sl else "J")
    assert ws.dual(ws.pair.group) == (j_subgroup(mt) if from_sl else _sl(mt))


@floored
@suite_settings
@given(matrices, st.data())
def test_suite_pairing_is_lift_independent(m, data):
    _count("test_suite_pairing_is_lift_independent")
    aut_t = _aut(_transpose(m))
    aut = _aut(m)
    a = data.draw(st.sampled_from(aut_t.elements))
    b = data.draw(st.sampled_from(aut.elements))
    d = m.exponent
    [value] = _pairings(d, [a], _image(m.matrix, b))
    assert value == pairing(m, a, b)
    shift_a = data.draw(st.tuples(*[st.integers(0, 3)] * 4))
    shift_b = data.draw(st.tuples(*[st.integers(0, 3)] * 4))
    lifted_a = tuple(c + t * d for c, t in zip(a, shift_a))
    lifted_b = tuple(c + t * d for c, t in zip(b, shift_b))
    assert _pairings(d, [lifted_a], _image(m.matrix, lifted_b)) == [value]
    assert pairing(m, lifted_a, lifted_b) == value


@floored
@suite_settings
@given(cy_pairs())
def test_suite_transcendental_char0_structure(case):
    _count("test_suite_transcendental_char0_structure")
    m, group = case
    j = j_element(m)
    h = m.degree
    d = m.exponent
    expected = tuple(sorted(tuple(n * c % d for c in j) for n in range(1, h) if gcd(n, h) == 1))
    got = transcendental_set(group, CHAR0)
    assert got == expected
    assert len(got) == euler_phi(h)


@floored
@suite_settings
@given(cy_pairs(), st.sampled_from(_PRIMES))
def test_suite_transcendental_dichotomy(case, p):
    m, group = case
    assume(m.exponent % p != 0)
    _count("test_suite_transcendental_dichotomy")
    base = transcendental_set(group, CHAR0)
    s = transcendental_set(group, Characteristic(p))
    assert s == () or s == base
    assert (s == ()) == minus_one_power_exists(p, m.degree)


@floored
@suite_settings
@given(cy_pairs())
def test_suite_exactly_one_age_one(case):
    _count("test_suite_exactly_one_age_one")
    m, group = case
    census = [c for c, a in aged_elements(group).items() if a == 1]
    assert census == [j_element(m)]
    ws = Workspace(m.matrix, CHAR0, group.generators)
    dual = ws.dual(ws.pair.group)
    mirror_census = [c for c, a in aged_elements(dual).items() if a == 1]
    assert mirror_census == [j_element(_transpose(m))]


ALL_SUITES = (
    test_suite_age_range_and_negation,
    test_suite_kernel_order_is_det,
    test_suite_divisibility_chain,
    test_suite_double_dual_is_identity,
    test_suite_dual_of_j_is_transposed_sl,
    test_suite_pairing_is_lift_independent,
    test_suite_transcendental_char0_structure,
    test_suite_transcendental_dichotomy,
    test_suite_exactly_one_age_one,
)
