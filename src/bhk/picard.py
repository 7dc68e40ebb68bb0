"""Geometric Picard numbers by three routes: the closed-form totient formula,
Kelly's formula (counting the direct route's transcendental set), and the
orbit route. `transcendental_sets` is the one place where set-level routes
are compared: each side's direct set must equal, element for element, the
orbit route's set and the grading route's set (the unit multiples of the
grading element that the paper's theorem predicts for every group,
`grading_set`). `picard_report` then compares the closed form with 22 minus
the set sizes. Any disagreement raises MethodMismatch. The grading route is a
set-level check, not a Picard method, so it is not among the `methods` of a
PicardReport. The direct and orbit routes each build the same partition of
the aged elements into unit orbits, `_unit_orbits`, and run their own test on
each orbit; the grading route, built from j and h alone, shares no code with
that partition and would catch a fault in it."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, NamedTuple, Sequence

from .arith import euler_phi, minus_one_power_exists, multiplicative_order
from .delsarte import Characteristic, DelsarteMatrix
from .duality import MirrorPair
from .errors import (
    CharDividesD,
    HNotInMd,
    InternalCheckError,
    MethodMismatch,
    NonintegralAge,
    ZeroCoordinate,
)
from .symmetry import Coords, SymmetrySubgroup, j_element


class AgedElement(NamedTuple):
    """A group element with every coordinate nonzero, and its age."""

    coords: Coords
    age: int


def age(d: int, coords: Sequence[int]) -> int:
    """Sum of the coordinates reduced to [0, d), divided by d.

    Defined only for elements with every coordinate nonzero whose coordinate
    sum is divisible by d; the value then lands in {1, 2, 3}.
    """
    reduced = tuple(c % d for c in coords)
    if 0 in reduced:
        raise ZeroCoordinate(f"{reduced} has a zero coordinate mod {d}")
    total = sum(reduced)
    if total % d != 0:
        raise NonintegralAge(f"coordinate sum {total} of {reduced} is not divisible by {d}")
    return total // d


def aged_elements(group: SymmetrySubgroup) -> tuple[AgedElement, ...]:
    """Elements of the group with all coordinates nonzero, with their ages,
    in the group's (sorted) element order.

    The group must lie in the coordinate-sum-zero part of (Z/d)^4.
    """
    d = group.modulus
    for e in group.elements:
        if sum(e) % d != 0:
            raise HNotInMd(f"element {e} has coordinate sum {sum(e) % d} mod {d}")
    return tuple(AgedElement(e, age(d, e)) for e in group.elements if 0 not in e)


def _units(d: int) -> list[int]:
    return [t for t in range(1, d) if gcd(t, d) == 1]


def _scaled(coords, t: int, d: int):
    return tuple(t * c % d for c in coords)


def _check_char(char: Characteristic, d: int) -> None:
    if char.positive and d % char.p == 0:
        raise CharDividesD(f"characteristic {char.p} divides the exponent {d}")


def _unit_orbits(group: SymmetrySubgroup) -> tuple[dict[Coords, int], list[set[Coords]]]:
    """The aged elements as a coordinates -> age table in the group's element
    order, and their partition into unit orbits {t a : gcd(t, d) = 1}."""
    d = group.modulus
    ages = dict(aged_elements(group))
    units = _units(d)
    orbits: list[set[Coords]] = []
    seen: set[Coords] = set()
    for a in ages:
        if a not in seen:
            orbits.append({_scaled(a, t, d) for t in units})
            seen |= orbits[-1]
    return ages, orbits


def transcendental_set(group: SymmetrySubgroup, char: Characteristic) -> tuple[AgedElement, ...]:
    """Aged elements that fail the average-age-two test, once per unit orbit.

    Characteristic zero keeps a when some unit multiple t a has age != 2.
    Characteristic p keeps a when for some unit t the ages over the p-power
    orbit of t a do not sum to twice the orbit-walk length f = ord(p mod d).
    The test ranges over every unit t, so its verdict is the same on the whole
    unit orbit {t a}, which it keeps or drops as one.
    """
    d = group.modulus
    _check_char(char, d)
    powers = [1]
    if char.positive:
        powers = [pow(char.p, j, d) for j in range(multiplicative_order(char.p, d))]
    ages, orbits = _unit_orbits(group)
    kept: set[Coords] = set()
    for orbit in orbits:
        if any(sum(ages[_scaled(c, pj, d)] for pj in powers) != 2 * len(powers) for c in orbit):
            kept |= orbit
    return tuple(AgedElement(c, a) for c, a in ages.items() if c in kept)


def _orbit_contributes(orbit: set[Coords], ages: Mapping[Coords, int], char: Characteristic, d: int) -> bool:
    """The orbit route's test on one unit orbit. Characteristic zero: the
    orbit holds an age-one element. Characteristic p: some p-power suborbit
    {p^k c} has unequal counts of age-one and age-three elements."""
    if not char.positive:
        return any(ages[c] == 1 for c in orbit)
    rest = set(orbit)
    while rest:
        suborbit = [rest.pop()]
        c = _scaled(suborbit[0], char.p, d)
        while c != suborbit[0]:
            suborbit.append(c)
            c = _scaled(c, char.p, d)
        rest.difference_update(suborbit)
        sub_ages = [ages[c] for c in suborbit]
        if sub_ages.count(1) != sub_ages.count(3):
            return True
    return False


def transcendental_set_orbits(group: SymmetrySubgroup, char: Characteristic) -> tuple[AgedElement, ...]:
    """The same set via orbits: the union of the unit orbits that pass
    `_orbit_contributes`, sorted."""
    d = group.modulus
    _check_char(char, d)
    ages, orbits = _unit_orbits(group)
    picked = sorted(c for orbit in orbits if _orbit_contributes(orbit, ages, char, d) for c in orbit)
    return tuple(AgedElement(c, ages[c]) for c in picked)


def transcendental_sets(mp: MirrorPair) -> tuple[tuple[AgedElement, ...], tuple[AgedElement, ...]]:
    """(set in the dual group, set in the group) by the direct route, each
    checked element for element against the grading route (the set of G^T
    against grading_set(A^T), the set of G against grading_set(A)) and against
    the orbit route on the same group."""
    char = mp.primal.char
    sets = []
    for side, name in ((mp.mirror, "dual group"), (mp.primal, "group")):
        direct = transcendental_set(side.group, char)
        coords = tuple(a.coords for a in direct)
        for route, found in (
            ("grading", grading_set(side.matrix, char)),
            ("orbit", tuple(a.coords for a in transcendental_set_orbits(side.group, char))),
        ):
            if found != coords:
                raise MethodMismatch(
                    f"in the {name}, the direct route found {len(direct)} elements"
                    f" and the {route} route {len(found)}"
                )
        sets.append(direct)
    return sets[0], sets[1]


def _closed_rho(p: int, h: int) -> int:
    """rho of a side whose transcendental set has phi(h) elements in
    characteristic zero: 22 (supersingular) when p > 0 and some power of p is
    -1 mod h, else 22 - phi(h)."""
    return 22 if p and minus_one_power_exists(p, h) else 22 - euler_phi(h)


def picard_closed_form(mp: MirrorPair) -> tuple[int, int]:
    """(rho primal, rho mirror) from the degrees alone.

    Characteristic zero gives 22 - phi(h_T) and 22 - phi(h). In positive
    characteristic the surface is supersingular (rho = 22) exactly when some
    power of p is -1 mod the relevant degree.
    """
    p = mp.primal.char.p
    return _closed_rho(p, mp.mirror.matrix.degree), _closed_rho(p, mp.primal.matrix.degree)


def grading_set(m: DelsarteMatrix, char: Characteristic) -> tuple[Coords, ...]:
    """The transcendental set the paper's theorem predicts for every group
    between J and SL of a Calabi-Yau matrix, as sorted coordinates.

    In characteristic zero it is {k j : gcd(k, h) = 1}, for j the grading
    element and h the degree; in characteristic p it is empty when some power
    of p is -1 mod h, and the same set otherwise. Built from j and h alone,
    enumerating no group.
    """
    d, h = m.exponent, m.degree
    _check_char(char, d)
    if char.positive and minus_one_power_exists(char.p, h):
        return ()
    j = j_element(m)
    return tuple(sorted(_scaled(j, k, d) for k in range(1, h) if gcd(k, h) == 1))


@dataclass(frozen=True)
class PicardReport:
    rho_primal: int
    rho_mirror: int
    methods: Mapping[str, tuple[int, int]]
    set_sizes: tuple[int, int]
    characteristic: int


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
    return PicardReport(
        rho_primal=counted[0],
        rho_mirror=counted[1],
        methods=values,
        set_sizes=(len(sets[0]), len(sets[1])),
        characteristic=mp.primal.char.p,
    )


@dataclass(frozen=True)
class ScanRow:
    prime: int
    residue_primal: int
    residue_mirror: int
    rho_primal: int
    rho_mirror: int
    supersingular_primal: bool
    supersingular_mirror: bool


@dataclass(frozen=True)
class ScanReport:
    degree: int
    mirror_degree: int
    rows: tuple[ScanRow, ...]
    skipped: tuple[tuple[int, str], ...]
    supersingular_primal_residues: tuple[int, ...]
    supersingular_mirror_residues: tuple[int, ...]


def _supersingular_residues(m: int) -> tuple[int, ...]:
    return tuple(
        r for r in range(1, max(m, 2)) if gcd(r, m) == 1 and minus_one_power_exists(r, m)
    )


def prime_scan(mp: MirrorPair, primes) -> ScanReport:
    """Closed-form Picard numbers for each prime, with skipped primes listed.

    A prime is skipped when it divides the exponent d or any weight on either
    side, since the pair is not adequate there.
    """
    m = mp.primal.matrix
    mt = mp.mirror.matrix
    h, h_t = m.degree, mt.degree
    rows = []
    skipped = []
    for p in sorted(set(primes)):
        if m.exponent % p == 0:
            skipped.append((p, f"divides the exponent {m.exponent}"))
            continue
        if any(q % p == 0 for q in m.weights) or any(q % p == 0 for q in mt.weights):
            skipped.append((p, "divides a weight"))
            continue
        rho_primal, rho_mirror = _closed_rho(p, h_t), _closed_rho(p, h)
        rows.append(
            ScanRow(
                prime=p,
                residue_primal=p % h_t,
                residue_mirror=p % h,
                rho_primal=rho_primal,
                rho_mirror=rho_mirror,
                supersingular_primal=rho_primal == 22,
                supersingular_mirror=rho_mirror == 22,
            )
        )
    return ScanReport(
        degree=h,
        mirror_degree=h_t,
        rows=tuple(rows),
        skipped=tuple(skipped),
        supersingular_primal_residues=_supersingular_residues(h_t),
        supersingular_mirror_residues=_supersingular_residues(h),
    )
