"""Geometric Picard numbers by three routes: raw set counting, orbit
decomposition, and the closed-form totient formula. The routes cross-check
each other; disagreement raises MethodMismatch."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, NamedTuple, Sequence

from .arith import euler_phi, minus_one_power_exists, multiplicative_order
from .delsarte import Characteristic
from .duality import MirrorPair
from .errors import (
    CharDividesD,
    HNotInMd,
    InternalCheckError,
    MethodMismatch,
    NonintegralAge,
    ZeroCoordinate,
)
from .symmetry import Coords, SymmetrySubgroup


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


def age_one_census(group: SymmetrySubgroup) -> tuple[AgedElement, ...]:
    """The age-one elements among the aged elements of the group."""
    return tuple(a for a in aged_elements(group) if a.age == 1)


def _units(d: int) -> list[int]:
    return [t for t in range(1, d) if gcd(t, d) == 1]


def _scaled(coords, t: int, d: int):
    return tuple(t * c % d for c in coords)


def _check_char(char: Characteristic, d: int) -> None:
    if char.positive and d % char.p == 0:
        raise CharDividesD(f"characteristic {char.p} divides the exponent {d}")


def transcendental_set(group: SymmetrySubgroup, char: Characteristic) -> tuple[AgedElement, ...]:
    """Aged elements that fail the average-age-two test, straight from the definition.

    Characteristic zero keeps a when some unit multiple t a has age != 2.
    Characteristic p keeps a when for some unit t the ages over the p-power
    orbit of t a do not sum to twice the orbit-walk length f = ord(p mod d).
    """
    d = group.modulus
    _check_char(char, d)
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


@dataclass(frozen=True)
class OrbitDecomposition:
    """Unit-multiplication orbits of the aged elements, with the p-power
    suborbits of each orbit when the characteristic is positive."""

    ambient: tuple[AgedElement, ...]
    u_orbits: tuple[tuple[AgedElement, ...], ...]
    p_suborbits: tuple[tuple[tuple[AgedElement, ...], ...], ...] | None


def orbit_decomposition(group: SymmetrySubgroup, char: Characteristic) -> OrbitDecomposition:
    """Partition the aged elements into unit orbits (and p-power suborbits)."""
    d = group.modulus
    _check_char(char, d)
    aged = aged_elements(group)
    lookup = dict(aged)
    units = _units(d)
    seen = set()
    orbits = []
    for a in aged:
        if a.coords in seen:
            continue
        coords_orbit = sorted({_scaled(a.coords, t, d) for t in units})
        seen.update(coords_orbit)
        orbits.append(tuple(AgedElement(c, lookup[c]) for c in coords_orbit))
    orbits.sort()
    suborbits = None
    if char.positive:
        suborbits = tuple(_p_suborbits(orbit, char.p, d, lookup) for orbit in orbits)
    return OrbitDecomposition(ambient=aged, u_orbits=tuple(orbits), p_suborbits=suborbits)


def _p_suborbits(orbit, p: int, d: int, lookup) -> tuple:
    remaining = {a.coords for a in orbit}
    subs = []
    while remaining:
        start = min(remaining)
        cycle = []
        c = start
        while c not in cycle:
            cycle.append(c)
            c = _scaled(c, p, d)
        remaining.difference_update(cycle)
        subs.append(tuple(AgedElement(c, lookup[c]) for c in sorted(cycle)))
    return tuple(subs)


def transcendental_set_orbits(
    group: SymmetrySubgroup, char: Characteristic, direct: tuple[AgedElement, ...] | None = None
) -> tuple[AgedElement, ...]:
    """The same set via orbits, always cross-checked against the direct route.

    Characteristic zero: a unit orbit contributes when it contains an age-one
    element. Characteristic p: a unit orbit contributes when some p-power
    suborbit has unequal counts of age-one and age-three elements. `direct` is
    the set transcendental_set(group, char) when already computed.
    """
    dec = orbit_decomposition(group, char)
    picked = []
    if not char.positive:
        for orbit in dec.u_orbits:
            if any(a.age == 1 for a in orbit):
                picked.extend(orbit)
    else:
        for orbit, subs in zip(dec.u_orbits, dec.p_suborbits):
            unbalanced = any(
                sum(1 for a in sub if a.age == 1) != sum(1 for a in sub if a.age == 3)
                for sub in subs
            )
            if unbalanced:
                picked.extend(orbit)
    result = tuple(sorted(picked))
    if direct is None:
        direct = transcendental_set(group, char)
    if result != direct:
        raise MethodMismatch(
            f"orbit route found {len(result)} elements, direct route {len(direct)}"
        )
    return result


TranscendentalSets = tuple[tuple[AgedElement, ...], tuple[AgedElement, ...]]


def transcendental_sets(mp: MirrorPair) -> TranscendentalSets:
    """(set in the dual group, set in the group) by the direct route."""
    char = mp.primal.char
    return transcendental_set(mp.mirror.group, char), transcendental_set(mp.primal.group, char)


def picard_by_counting(mp: MirrorPair, sets: TranscendentalSets | None = None) -> tuple[int, int]:
    """(rho primal, rho mirror) = 22 minus the defect-set sizes, direct route.

    `sets` is transcendental_sets(mp) when already computed.
    """
    dual_set, group_set = transcendental_sets(mp) if sets is None else sets
    return 22 - len(dual_set), 22 - len(group_set)


def picard_by_orbits(mp: MirrorPair, sets: TranscendentalSets | None = None) -> tuple[int, int]:
    """(rho primal, rho mirror) via the orbit route, each side's set checked
    against the direct one (`sets`, computed when not given)."""
    dual_set, group_set = transcendental_sets(mp) if sets is None else sets
    char = mp.primal.char
    dual_count = len(transcendental_set_orbits(mp.mirror.group, char, dual_set))
    group_count = len(transcendental_set_orbits(mp.primal.group, char, group_set))
    return 22 - dual_count, 22 - group_count


def picard_closed_form(mp: MirrorPair) -> tuple[int, int]:
    """(rho primal, rho mirror) from the degrees alone.

    Characteristic zero gives 22 - phi(h_T) and 22 - phi(h). In positive
    characteristic the surface is supersingular (rho = 22) exactly when some
    power of p is -1 mod the relevant degree.
    """
    h = mp.primal.matrix.degree
    h_t = mp.mirror.matrix.degree
    p = mp.primal.char.p
    if p == 0:
        return 22 - euler_phi(h_t), 22 - euler_phi(h)
    primal = 22 if minus_one_power_exists(p, h_t) else 22 - euler_phi(h_t)
    mirror = 22 if minus_one_power_exists(p, h) else 22 - euler_phi(h)
    return primal, mirror


@dataclass(frozen=True)
class PicardReport:
    rho_primal: int
    rho_mirror: int
    methods: Mapping[str, tuple[int, int]]
    set_sizes: tuple[int, int]
    characteristic: int


def picard_report(mp: MirrorPair) -> PicardReport:
    """Run all three methods, insist they agree, and bound-check the result.

    Each side's transcendental set is computed once: the counting route
    reads it and the orbit route must reproduce it.
    """
    closed = picard_closed_form(mp)
    sets = transcendental_sets(mp)
    values = {
        "closed_form": closed,
        "kelly": picard_by_counting(mp, sets),
        "orbit": picard_by_orbits(mp, sets),
    }
    distinct = set(values.values())
    if len(distinct) != 1:
        raise MethodMismatch(f"methods disagree: {values}")
    rho_primal, rho_mirror = values["kelly"]
    for rho in (rho_primal, rho_mirror):
        if not 0 <= rho <= 22:
            raise InternalCheckError(f"rho = {rho} is outside [0, 22]")
    return PicardReport(
        rho_primal=rho_primal,
        rho_mirror=rho_mirror,
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
        ss_primal = minus_one_power_exists(p, h_t)
        ss_mirror = minus_one_power_exists(p, h)
        rows.append(
            ScanRow(
                prime=p,
                residue_primal=p % h_t,
                residue_mirror=p % h,
                rho_primal=22 if ss_primal else 22 - euler_phi(h_t),
                rho_mirror=22 if ss_mirror else 22 - euler_phi(h),
                supersingular_primal=ss_primal,
                supersingular_mirror=ss_mirror,
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
