"""Test oracles: library results recomputed straight from their definitions.

Each oracle takes its inputs through public `bhk` names (matrices, groups,
ages, number-theory helpers) and builds its own sets with the breadth-first
closure below, so it shares no group-building or set-building code with the
library functions it checks. They are slow on purpose: plain loops over
every element, kept small enough for the small catalog.
"""

from __future__ import annotations

from math import gcd

from bhk import AgedElement, Characteristic, aged_elements, multiplicative_order
from bhk.errors import CharDividesD

ZERO = (0, 0, 0, 0)


def reference_closure(modulus, gens) -> set:
    """Breadth-first closure of the generators under addition mod the modulus."""
    gens = [tuple(c % modulus for c in g) for g in gens]
    seen = {ZERO}
    frontier = [ZERO]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % modulus for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def greedy_generators(modulus, elements) -> tuple:
    """The generators the library reports for a group: its elements in sorted
    order, keeping each one outside the closure of those kept before it."""
    gens: list = []
    covered = {ZERO}
    for c in sorted(elements):
        if c not in covered:
            gens.append(c)
            covered = reference_closure(modulus, gens)
    return tuple(gens)


def dual_by_filter(m, mt, generators) -> tuple[tuple, tuple]:
    """(sorted elements, generators) of the dual group straight from its
    definition: every element a of Aut(A^T) with a A g = 0 mod d^2 for every
    generator g of the group. Aut(A^T) is closed from the columns of
    d (A^T)^(-1), the B matrix of the transpose."""
    d = m.exponent
    cols = [tuple(mt.b_matrix[i][j] for i in range(4)) for j in range(4)]
    coords = [
        a
        for a in reference_closure(d, cols)
        if all(
            sum(a[i] * m.matrix[i][j] * g[j] for i in range(4) for j in range(4)) % (d * d) == 0
            for g in generators
        )
    ]
    return tuple(sorted(coords)), greedy_generators(d, coords)


def lattice_by_joins(j_group, sl) -> set:
    """Every group between J and SL as a frozenset of elements: saturate under
    joins with single elements, each join closed from its generators by
    breadth-first search."""
    d = sl.modulus
    start = j_group.generators
    known = {frozenset(reference_closure(d, start)): start}
    frontier = list(known.items())
    while frontier:
        elements, gens = frontier.pop()
        for e in sl.elements:
            if e in elements:
                continue
            joined = gens + (e,)
            key = frozenset(reference_closure(d, joined))
            if key not in known:
                known[key] = joined
                frontier.append((key, joined))
    return set(known)


def _units(d: int) -> list[int]:
    return [t for t in range(1, d) if gcd(t, d) == 1]


def _scaled(coords, t: int, d: int):
    return tuple(t * c % d for c in coords)


def transcendental_set_by_element(group, char: Characteristic) -> tuple[AgedElement, ...]:
    """Aged elements that fail the average-age-two test, straight from the
    definition, with the test run on every element.

    Characteristic zero keeps a when some unit multiple t a has age != 2.
    Characteristic p keeps a when for some unit t the ages over the p-power
    orbit of t a do not sum to twice the orbit-walk length f = ord(p mod d).
    """
    d = group.modulus
    if char.positive and d % char.p == 0:
        raise CharDividesD(f"characteristic {char.p} divides the exponent {d}")
    aged = aged_elements(group)
    lookup = dict(aged)
    units = _units(d)
    out = []
    if not char.positive:
        for a in aged:
            if any(lookup[_scaled(a.coords, t, d)] != 2 for t in units):
                out.append(a)
        return tuple(out)
    f = multiplicative_order(char.p, d)
    powers = [pow(char.p, j, d) for j in range(f)]
    for a in aged:
        for t in units:
            total = sum(lookup[_scaled(a.coords, t * pj, d)] for pj in powers)
            if total != 2 * f:
                out.append(a)
                break
    return tuple(out)
