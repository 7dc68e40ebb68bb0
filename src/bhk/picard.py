"""Geometric Picard numbers by three routes: the closed-form totient formula,
Kelly's formula (counting the direct route's transcendental set), and the
orbit route. `transcendental_sets` is the one place where set-level routes
are compared: each side's direct set must equal, element for element, the
orbit route's set and the grading route's set (the unit multiples of the
grading element that the paper's theorem predicts for every group,
`grading_set`). `picard_report` then compares the closed form with 22 minus
the set sizes. Any disagreement raises MethodMismatch. The grading route is a
set-level check, not a Picard method, so it is not among the `methods` of a
PicardReport. The direct and orbit routes read one partition of the aged
elements into unit orbits, `_unit_orbits`, built once per side, and run their
own test on each orbit. A fault in that partition would move both routes'
sets alike, so they could still agree with each other; the grading route,
built from j and h alone, shares no code with the partition and catches it.

The characteristic enters once, as the unit u = p mod d by which Frobenius
acts on the characters (`_unit`), u = 1 in characteristic zero: every route,
the grading set and the closed form run one code path on u."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from math import gcd
from operator import itemgetter

from .arith import Record, euler_phi, minus_one_power_exists, multiplicative_order
from .delsarte import Characteristic, DelsarteMatrix
from .duality import MirrorPair
from .errors import CharDividesD, InternalCheckError, MethodMismatch
from .symmetry import Coords, SymmetrySubgroup, j_element


def aged_elements(group: SymmetrySubgroup) -> dict[Coords, int]:
    """The age table of a group: its elements with all coordinates nonzero,
    each mapped to its age, in the group's (sorted) element order.

    Built in one pass: each element's coordinate sum is tested once, and
    for an element with no zero coordinate, the age is that sum over d (its
    coordinates are already reduced). Every group read here lies in SL or
    SL of A^T, so an element with a coordinate sum other than 0 mod d is
    InternalCheckError.
    """
    d = group.modulus
    ages = {}
    for e in group.elements:
        total = sum(e)
        if total % d:
            raise InternalCheckError(f"element {e} has coordinate sum {total % d} mod {d}")
        if 0 not in e:
            ages[e] = total // d
    return ages


def _unit(char: Characteristic, d: int) -> int:
    """u = p mod d in characteristic p, 1 in characteristic zero;
    CharDividesD when p divides d."""
    p = char.p
    if p and d % p == 0:
        raise CharDividesD(f"characteristic {p} divides the exponent {d}")
    return p % d if p else 1


def _powers(u: int, d: int) -> list[int]:
    """u^j mod d for j below f = ord(u mod d); [1] at u = 1."""
    return [pow(u, j, d) for j in range(multiplicative_order(u, d))]


def _unit_orbits(group: SymmetrySubgroup) -> tuple[dict[Coords, int], list[list[Coords]]]:
    """The aged elements as a coordinates -> age table in the group's element
    order, and their partition into unit orbits {t a : gcd(t, d) = 1}. The
    orbit of a of order n lists t a for t over the units mod n, onto which the
    units mod d reduce, so each of its elements appears once."""
    d = group.modulus
    ages = aged_elements(group)
    units: dict[int, list[int]] = {}
    orbits: list[list[Coords]] = []
    seen: set[Coords] = set()
    for a in ages:
        if a in seen:
            continue
        n = d // gcd(d, *a)
        if n not in units:
            units[n] = [t for t in range(1, n) if gcd(t, n) == 1]
        a0, a1, a2, a3 = a
        orbit = [(t * a0 % d, t * a1 % d, t * a2 % d, t * a3 % d) for t in units[n]]
        orbits.append(orbit)
        seen.update(orbit)
    return ages, orbits


def _direct_contributes(orbit: list[Coords], ages: Mapping[Coords, int], powers: Sequence[int], d: int) -> bool:
    """The direct route's test on one unit orbit: for some element c, the ages
    of u^j c over the powers u^j do not sum to twice their number. That sum is
    the same for every element of a coset c <u>, so one element per coset is
    tested; at u = 1 each coset is {c}, and the test reads age(c) != 2."""
    rest = set(orbit)
    while rest:
        c0, c1, c2, c3 = rest.pop()
        coset = [(pj * c0 % d, pj * c1 % d, pj * c2 % d, pj * c3 % d) for pj in powers]
        if sum(ages[c] for c in coset) != 2 * len(powers):
            return True
        rest.difference_update(coset)
    return False


def _direct_route(
    ages: Mapping[Coords, int], orbits: list[list[Coords]], powers: Sequence[int], d: int
) -> tuple[Coords, ...]:
    """The transcendental set: the aged elements, sorted, of the orbits that
    pass `_direct_contributes`, the average-age-two test.

    It keeps a when for some unit t the ages over the u-power orbit of t a do
    not sum to twice the orbit-walk length f = ord(u mod d); at u = 1, when
    some unit multiple t a has age != 2. The test ranges over every unit t, so
    its verdict is the same on the whole unit orbit {t a}, which it keeps or
    drops as one.
    """
    return tuple(sorted(c for orbit in orbits if _direct_contributes(orbit, ages, powers, d) for c in orbit))


def _orbit_contributes(orbit: list[Coords], ages: Mapping[Coords, int], u: int, d: int) -> bool:
    """The orbit route's test on one unit orbit: some u-power suborbit
    {u^k c} has unequal counts of age-one and age-three elements. At u = 1
    each suborbit is {c}, so the test reads "some age is 1 or 3", which is
    "some age is 1": the orbit holds -c with every c, and age(-c) = 4 - age(c)."""
    rest = set(orbit)
    while rest:
        c = first = rest.pop()
        sub_ages = []
        while True:
            sub_ages.append(ages[c])
            c0, c1, c2, c3 = c
            c = (u * c0 % d, u * c1 % d, u * c2 % d, u * c3 % d)
            if c == first:
                break
            rest.discard(c)
        if sub_ages.count(1) != sub_ages.count(3):
            return True
    return False


def _orbit_route(ages: Mapping[Coords, int], orbits: list[list[Coords]], u: int, d: int) -> tuple[Coords, ...]:
    """The elements, sorted, of the orbits that pass `_orbit_contributes`."""
    return tuple(sorted(c for orbit in orbits if _orbit_contributes(orbit, ages, u, d) for c in orbit))


def transcendental_sets(mp: MirrorPair) -> tuple[tuple[Coords, ...], tuple[Coords, ...]]:
    """(set in the dual group, set in the group) by the direct route, each
    checked element for element against the grading route (the set of G^T
    against grading_set(A^T), the set of G against grading_set(A)) and against
    the orbit route on the same group. Both routes on a group read one unit-orbit
    partition, built once per side. Both sides have the same d, so one unit u
    serves both."""
    d = mp.primal.group.modulus
    u = _unit(mp.primal.char, d)
    powers = _powers(u, d)
    sets = []
    for side, name in ((mp.mirror, "dual group"), (mp.primal, "group")):
        ages, orbits = _unit_orbits(side.group)
        direct = _direct_route(ages, orbits, powers, d)
        for route, found in (
            ("grading", grading_set(side.matrix, u)),
            ("orbit", _orbit_route(ages, orbits, u, d)),
        ):
            if found != direct:
                raise MethodMismatch(
                    f"in the {name}, the direct route found {len(direct)} elements"
                    f" and the {route} route {len(found)}"
                )
        sets.append(direct)
    return sets[0], sets[1]


def _closed_rho(u: int, h: int) -> int:
    """rho of a side of degree h under the unit u: 22 (supersingular) when
    some power of u is -1 mod h, else 22 - phi(h). At u = 1 no power is -1
    mod h, since h >= 4 for a K3 surface."""
    return 22 if minus_one_power_exists(u, h) else 22 - euler_phi(h)


def picard_closed_form(mp: MirrorPair) -> tuple[int, int]:
    """(rho primal, rho mirror) from the degrees alone: `_closed_rho` of the
    unit u at h_T and at h; 22 - phi(h_T) and 22 - phi(h) at u = 1."""
    u = _unit(mp.primal.char, mp.primal.matrix.exponent)
    return _closed_rho(u, mp.mirror.matrix.degree), _closed_rho(u, mp.primal.matrix.degree)


def grading_set(m: DelsarteMatrix, u: int) -> tuple[Coords, ...]:
    """The transcendental set the paper's theorem predicts under the unit u
    for every group between J and SL of a Calabi-Yau matrix, as sorted
    coordinates: empty when some power of u is -1 mod the degree h, else
    {k j : gcd(k, h) = 1}, for j the grading element. Built from j and h
    alone, enumerating no group; SemanticError (from j) at every u when the
    matrix is not Calabi-Yau.
    """
    d, h = m.exponent, m.degree
    j0, j1, j2, j3 = j_element(m)
    if minus_one_power_exists(u, h):
        return ()
    units = [k for k in range(1, h) if gcd(k, h) == 1]
    return tuple(sorted((k * j0 % d, k * j1 % d, k * j2 % d, k * j3 % d) for k in units))


class PicardReport(Record):
    """The Picard numbers of a pair and its mirror, each route's
    (rho_primal, rho_mirror) in `methods`, and the sizes of the two
    transcendental sets."""

    __slots__ = ()
    _fields = ("rho_primal", "rho_mirror", "methods", "set_sizes", "characteristic")
    rho_primal = property(itemgetter(0))  # int
    rho_mirror = property(itemgetter(1))  # int
    methods = property(itemgetter(2))  # Mapping[str, tuple[int, int]]
    set_sizes = property(itemgetter(3))  # tuple[int, int]
    characteristic = property(itemgetter(4))  # int


def picard_report(mp: MirrorPair) -> PicardReport:
    """Run all three methods, insist they agree, and bound-check the result.

    Each side's transcendental set is computed once and checked against the
    orbit and grading routes (see transcendental_sets); Kelly's formula counts
    it, and so gives the orbit route's count too. The closed form must equal
    that count.
    """
    sets = transcendental_sets(mp)
    counted = (22 - len(sets[0]), 22 - len(sets[1]))
    values = {"closed_form": picard_closed_form(mp), "kelly": counted, "orbit": counted}
    if values["closed_form"] != counted:
        raise MethodMismatch(f"methods disagree: {values}")
    for rho in counted:
        if not 0 <= rho <= 22:
            raise InternalCheckError(f"rho = {rho} is outside [0, 22]")
    return PicardReport(*counted, values, (len(sets[0]), len(sets[1])), mp.primal.char.p)


class ScanRow(Record):
    """The closed-form Picard numbers of a pair and its mirror at one prime,
    from its residues mod the two degrees."""

    __slots__ = ()
    _fields = (
        "prime",
        "residue_primal",
        "residue_mirror",
        "rho_primal",
        "rho_mirror",
        "supersingular_primal",
        "supersingular_mirror",
    )
    prime = property(itemgetter(0))  # int
    residue_primal = property(itemgetter(1))  # int
    residue_mirror = property(itemgetter(2))  # int
    rho_primal = property(itemgetter(3))  # int
    rho_mirror = property(itemgetter(4))  # int
    supersingular_primal = property(itemgetter(5))  # bool
    supersingular_mirror = property(itemgetter(6))  # bool


class ScanReport(Record):
    """A prime scan: one row per prime scanned, the primes skipped with their
    reasons, and the residues at which each side is supersingular."""

    __slots__ = ()
    _fields = (
        "degree",
        "mirror_degree",
        "rows",
        "skipped",
        "supersingular_primal_residues",
        "supersingular_mirror_residues",
    )
    degree = property(itemgetter(0))  # int
    mirror_degree = property(itemgetter(1))  # int
    rows = property(itemgetter(2))  # tuple[ScanRow, ...]
    skipped = property(itemgetter(3))  # tuple[tuple[int, str], ...]
    supersingular_primal_residues = property(itemgetter(4))  # tuple[int, ...]
    supersingular_mirror_residues = property(itemgetter(5))  # tuple[int, ...]


def _supersingular_residues(m: int) -> tuple[int, ...]:
    return tuple(
        r for r in range(1, max(m, 2)) if gcd(r, m) == 1 and minus_one_power_exists(r, m)
    )


def prime_scan(mp: MirrorPair, primes) -> ScanReport:
    """Closed-form Picard numbers for each prime, with skipped primes listed.

    A prime is skipped when it divides the exponent d or any weight on either
    side, since the pair is not adequate there. Any other p is its own unit u,
    and `_closed_rho` reads u only mod the degree, so it is evaluated once
    per pair of residues (p mod h_T, p mod h).
    """
    m = mp.primal.matrix
    mt = mp.mirror.matrix
    h, h_t = m.degree, mt.degree
    rows = []
    skipped = []
    closed: dict[tuple[int, int], tuple[int, int]] = {}
    for p in sorted(set(primes)):
        if m.exponent % p == 0:
            skipped.append((p, f"divides the exponent {m.exponent}"))
            continue
        if any(q % p == 0 for q in m.weights) or any(q % p == 0 for q in mt.weights):
            skipped.append((p, "divides a weight"))
            continue
        residues = (p % h_t, p % h)
        if residues not in closed:
            closed[residues] = (_closed_rho(residues[0], h_t), _closed_rho(residues[1], h))
        rho_primal, rho_mirror = closed[residues]
        rows.append(ScanRow(p, *residues, rho_primal, rho_mirror, rho_primal == 22, rho_mirror == 22))
    return ScanReport(
        h, h_t, tuple(rows), tuple(skipped), _supersingular_residues(h_t), _supersingular_residues(h)
    )
