"""Ages, transcendental (defect) sets by both routes, the three Picard
methods, and the prime scan, against frozen independently computed values."""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import pytest

import bhk.picard as picard
from bhk import (
    Characteristic,
    Workspace,
    enumerate_intermediate,
    j_element,
    j_subgroup,
    picard_report,
    prime_scan,
    sl_group,
    subgroup_generated,
    transpose,
)
from bhk.errors import CharDividesD, InternalCheckError, MethodMismatch, SemanticError
from bhk.picard import aged_elements, grading_set
from conftest import CHAR0, aged, build, cy_catalog, cy_catalog_small, primes_below
from oracles import (
    aut_group,
    sl_subgroup,
    transcendental_set,
    transcendental_set_by_element,
    transcendental_set_orbits,
)


# d = 56, and the mirror weights are (14, 7, 4, 3): a prime that divides a
# weight but not the exponent.
WEIGHT_SKIP_ROWS = ((2, 0, 0, 0), (0, 4, 0, 0), (0, 0, 7, 1), (0, 0, 0, 8))


def _mirror(m, group_name="J", p=0):
    char = Characteristic(p)
    group = "J" if group_name == "J" else sl_subgroup(aut_group(m)).generators
    return Workspace(m.matrix, char, group).mirror


def test_age_goldens(a_ex):
    j = j_element(a_ex)
    assert aged(168, j) == 1
    assert aged(168, [-c for c in j]) == 3
    assert aged(4, (1, 1, 3, 3)) == 2
    assert aged(4, (3, 3, 3, 3)) == 3
    assert aged(4, (-3, 5, 7, -1)) == 2  # coordinates are reduced mod d first


def test_age_negation_symmetry(a_ex):
    for coords, a in aged_elements(sl_subgroup(aut_group(a_ex))).items():
        assert aged(a_ex.exponent, [-c for c in coords]) == 4 - a


def test_aged_element_counts(a_ex, a_f):
    mt = transpose(a_ex, CHAR0)
    assert len(aged_elements(j_subgroup(a_ex))) == 6
    assert len(aged_elements(sl_subgroup(aut_group(a_ex)))) == 18
    assert len(aged_elements(sl_subgroup(aut_group(mt)))) == 12
    assert len(aged_elements(j_subgroup(mt))) == 4
    assert len(aged_elements(sl_subgroup(aut_group(a_f)))) == 21


def test_aged_elements_need_zero_sums(a_ex):
    """Every group the age table reads lies in SL or SL of A^T, each checked
    where it is built, so an element off SL is a fault, not bad input."""
    aut = aut_group(a_ex)
    bad = next(e for e in aut.elements if sum(e) % a_ex.exponent != 0)
    with pytest.raises(InternalCheckError, match="coordinate sum"):
        aged_elements(subgroup_generated(168, [bad]))


def test_age_one_census_unique(a_ex, a_f):
    def census(group):
        return [c for c, a in aged_elements(group).items() if a == 1]

    assert census(j_subgroup(a_ex)) == [(48, 72, 24, 24)]
    assert census(sl_subgroup(aut_group(a_ex))) == [(48, 72, 24, 24)]
    mt = transpose(a_ex, CHAR0)
    assert census(sl_subgroup(aut_group(mt))) == [(84, 42, 21, 21)]
    assert census(sl_subgroup(aut_group(a_f))) == [(1, 1, 1, 1)]


def test_transcendental_set_char0_goldens(a_ex, a_f):
    mt = transpose(a_ex, CHAR0)
    assert len(transcendental_set(j_subgroup(a_ex), CHAR0)) == 6
    assert len(transcendental_set(sl_subgroup(aut_group(a_ex)), CHAR0)) == 6
    assert len(transcendental_set(sl_subgroup(aut_group(mt)), CHAR0)) == 4
    assert len(transcendental_set(j_subgroup(mt), CHAR0)) == 4
    f_set = transcendental_set(sl_subgroup(aut_group(a_f)), CHAR0)
    assert f_set == ((1, 1, 1, 1), (3, 3, 3, 3))


def test_transcendental_set_is_unit_multiples_of_grading(a_ex):
    j = j_element(a_ex)
    expected = tuple(sorted(tuple(n * c % 168 for c in j) for n in range(1, 7)))
    assert transcendental_set(j_subgroup(a_ex), CHAR0) == expected


def test_transcendental_set_positive_characteristic(a_ex):
    j = j_subgroup(a_ex)
    base = transcendental_set(j, CHAR0)
    # 5^3 = -1 mod 7, so the mirror side goes supersingular at p = 5.
    assert transcendental_set(j, Characteristic(5)) == ()
    # 11 has no power equal to -1 mod 7: the set is unchanged.
    assert transcendental_set(j, Characteristic(11)) == base


def test_transcendental_dichotomy(a_ex, a_f):
    for m in (a_ex, a_f):
        sl = sl_subgroup(aut_group(m))
        base = transcendental_set(sl, CHAR0)
        for p in primes_below(60):
            if m.exponent % p == 0:
                continue
            s = transcendental_set(sl, Characteristic(p))
            assert s == () or s == base


def test_transcendental_set_checks_characteristic(a_ex):
    with pytest.raises(CharDividesD):
        transcendental_set(j_subgroup(a_ex), Characteristic(2))


def test_orbit_route_agrees(a_ex, a_f, loop_m, mixed_m):
    for m in (a_ex, a_f, loop_m, mixed_m):
        for group in (j_subgroup(m), sl_subgroup(aut_group(m))):
            for p in (0, 5, 11, 13):
                if p and m.exponent % p == 0:
                    continue
                char = Characteristic(p)
                assert transcendental_set_orbits(group, char) == transcendental_set(
                    group, char
                )


def test_orbit_decomposition_partitions(a_ex):
    """The unit orbits both group routes read partition the aged elements,
    each listing its elements once and equal to the set of unit multiples mod
    d of each of them; the age table follows the group's element order."""
    sl = sl_subgroup(aut_group(a_ex))
    ages, orbits = picard._unit_orbits(sl)
    aged = aged_elements(sl)
    assert list(ages.items()) == list(aged.items())
    assert sum(len(o) for o in orbits) == len(aged)
    assert set().union(*orbits) == set(ages)
    units = [t for t in range(1, 168) if t % 2 and t % 3 and t % 7]
    for orbit in orbits:
        assert len(set(orbit)) == len(orbit)
        for c in orbit:
            assert {tuple(t * x % 168 for x in c) for t in units} == set(orbit)


def test_method_mismatch_on_corrupted_age(a_f, monkeypatch):
    """Flipping one age in the age table both routes read makes the routes
    disagree and trips the cross-check."""
    real_table = picard.aged_elements

    def corrupted(group):
        ages = real_table(group)
        if group.modulus == 4 and (1, 1, 3, 3) in ages:
            ages[(1, 1, 3, 3)] = 3
        return ages

    monkeypatch.setattr(picard, "aged_elements", corrupted)
    mp = _mirror(a_f, "SL")
    with pytest.raises(MethodMismatch):
        picard_report(mp).methods


def test_unit_goldens():
    """The characteristic enters the Picard layer as u = p mod d, u = 1 in
    characteristic zero, and CharDividesD when p divides d."""
    assert picard._unit(CHAR0, 168) == 1
    assert picard._unit(Characteristic(5), 168) == 5
    assert picard._unit(Characteristic(173), 168) == 5
    with pytest.raises(CharDividesD):
        picard._unit(Characteristic(7), 168)
    assert picard._powers(1, 168) == [1]
    assert picard._powers(5, 168) == [1, 5, 25, 125, 121, 101]


def test_grading_set_goldens(a_ex):
    mt = transpose(a_ex, CHAR0)
    j, jt = j_element(a_ex), j_element(mt)
    assert grading_set(a_ex, 1) == tuple(sorted(tuple(k * c % 168 for c in j) for k in range(1, 7)))
    assert grading_set(mt, 1) == tuple(sorted(tuple(k * c % 168 for c in jt) for k in (1, 3, 5, 7)))
    # 5^3 = -1 mod 7 empties the set of A; no power of 5 is -1 mod 8.
    assert grading_set(a_ex, 5) == ()
    assert grading_set(mt, 5) == grading_set(mt, 1)


def test_grading_set_needs_calabi_yau_at_every_unit():
    """diag(12, 12, 12, 12) has weights 1 and degree 12, so it is not
    Calabi-Yau; 11 = -1 mod 12 would empty the set, but the grading element
    is read first, at u = 11 as at u = 1."""
    m = build([[12, 0, 0, 0], [0, 12, 0, 0], [0, 0, 12, 0], [0, 0, 0, 12]])
    for u in (11, 1):
        with pytest.raises(SemanticError, match="Calabi-Yau"):
            grading_set(m, u)


def test_transcendental_set_matches_definition_and_grading_on_small_catalog():
    """Every group between J and SL of every small-catalog matrix, in each
    characteristic of {0, 5, 7, 11, 13} not dividing d: the per-orbit direct
    route equals the per-element definition and the grading route's set."""
    cases = 0
    for m in cy_catalog_small():
        groups = enumerate_intermediate(j_subgroup(m), sl_group(m))
        for p in (0, 5, 7, 11, 13):
            if p and m.exponent % p == 0:
                continue
            char = Characteristic(p)
            expected = grading_set(m, picard._unit(char, m.exponent))
            for group in groups:
                got = transcendental_set(group, char)
                assert got == transcendental_set_by_element(group, char)
                assert got == expected
                cases += 1
    assert cases >= 1900


def test_grading_route_catches_a_direct_route_on_p_power_orbits(a_ex, monkeypatch):
    """The unit-orbit partition the direct and orbit routes share, corrupted
    into p-power orbits {p^k a} (single elements in characteristic 0): both
    routes then decide per p-power orbit and agree with each other, so the
    grading route, built from j and h alone, is what must catch it."""
    real = picard._unit_orbits

    def p_power_orbits(p):
        def partition(group):
            ages, _ = real(group)
            d, orbits, seen = group.modulus, [], set()
            for a in ages:
                if a not in seen:
                    orbits.append(sorted({tuple(pow(p, k, d) * c % d for c in a) for k in range(d)}))
                    seen.update(orbits[-1])
            return ages, orbits

        return partition

    for p in (0, 17):  # at p = 11 and 13 the p-power orbits give the same sets here
        monkeypatch.setattr(picard, "_unit_orbits", p_power_orbits(p or 1))
        with pytest.raises(MethodMismatch, match="grading route"):
            picard_report(_mirror(a_ex, "SL", p))


def test_grading_route_catches_a_direct_route_testing_one_element_per_orbit(a_ex, monkeypatch):
    """The direct route may test one element per coset c <p> of a unit orbit,
    where its p-power age sum is constant, but not one per orbit: run on each
    orbit's first element (and its p-power coset) alone, it keeps too few
    orbits, and the grading route catches it. In characteristic p that needs
    an orbit with a coset whose age sum is 2 f, as at p = 11 on the rows
    below."""
    real = picard._direct_contributes

    def first_element_only(orbit, ages, powers, d):
        return real(orbit[:1], ages, powers, d)

    monkeypatch.setattr(picard, "_direct_contributes", first_element_only)
    for rows, p in ((a_ex.matrix, 0), ([[2, 0, 0, 0], [0, 6, 1, 0], [0, 0, 5, 1], [0, 0, 0, 5]], 11)):
        with pytest.raises(MethodMismatch, match="grading route"):
            picard_report(Workspace(rows, Characteristic(p), "SL").mirror)


def test_direct_route_catches_a_grading_route_missing_a_unit(a_ex, monkeypatch):
    real = picard.grading_set

    def without_minus_j(m, u):
        minus_j = tuple(-c % m.exponent for c in j_element(m))
        return tuple(c for c in real(m, u) if c != minus_j)

    monkeypatch.setattr(picard, "grading_set", without_minus_j)
    for p in (0, 11):
        with pytest.raises(MethodMismatch, match="grading route"):
            picard_report(_mirror(a_ex, "J", p))


def flip_age_one_flags(monkeypatch) -> None:
    """Doctor the orbit route's own per-orbit test, not the unit-orbit
    partition it shares with the direct route: the test reads each age-one
    flag flipped (ages 1 -> 2 and others -> 1), as if it read age != 1."""
    real = picard._orbit_contributes

    def flipped(orbit, ages, u, d):
        return real(orbit, {c: 2 if a == 1 else 1 for c, a in ages.items()}, u, d)

    monkeypatch.setattr(picard, "_orbit_contributes", flipped)


def test_direct_route_catches_an_orbit_route_with_its_age_one_test_flipped(a_ex, monkeypatch):
    flip_age_one_flags(monkeypatch)
    with pytest.raises(MethodMismatch, match="orbit route"):
        picard_report(_mirror(a_ex, "SL"))


def test_closed_form_is_checked_against_the_set_sizes(a_ex, monkeypatch):
    """A closed form that miscounts phi(h) by one disagrees with 22 minus the
    sizes of the cross-checked transcendental sets."""
    real = picard.euler_phi
    monkeypatch.setattr(picard, "euler_phi", lambda n: real(n) - 1)
    with pytest.raises(MethodMismatch, match="methods disagree"):
        picard_report(_mirror(a_ex, "J"))


def test_picard_char0_goldens(a_ex, a_f, loop_m, mixed_m):
    for m, name, expected in (
        (a_ex, "J", (18, 16)),
        (a_ex, "SL", (18, 16)),
        (a_f, "J", (20, 20)),
        (a_f, "SL", (20, 20)),
        (loop_m, "J", (20, 20)),
        (mixed_m, "J", (18, 20)),
    ):
        methods = picard_report(_mirror(m, name)).methods
        assert methods["kelly"] == expected
        assert methods["orbit"] == expected
        assert methods["closed_form"] == expected


def test_picard_positive_characteristic_goldens(a_ex):
    for p, expected in ((5, (18, 22)), (11, (18, 16)), (13, (18, 22)), (47, (22, 22))):
        methods = picard_report(_mirror(a_ex, "J", p)).methods
        assert methods["kelly"] == expected
        assert methods["closed_form"] == expected


def test_picard_report_golden(a_ex):
    rep = picard_report(_mirror(a_ex, "J"))
    assert (rep.rho_primal, rep.rho_mirror) == (18, 16)
    assert rep.set_sizes == (4, 6)
    assert rep.characteristic == 0
    assert set(rep.methods) == {"closed_form", "kelly", "orbit"}
    assert set(rep.methods.values()) == {(18, 16)}


def test_prime_scan_goldens(a_ex):
    mp = _mirror(a_ex, "J")
    report = prime_scan(mp, primes_below(20))
    assert report.degree == 7
    assert report.mirror_degree == 8
    assert [(r.prime, r.rho_primal, r.rho_mirror) for r in report.rows] == [
        (5, 18, 22),
        (11, 18, 16),
        (13, 18, 22),
        (17, 18, 22),
        (19, 18, 22),
    ]
    assert [p for p, _ in report.skipped] == [2, 3, 7]
    assert all(reason == "divides the exponent 168" for _, reason in report.skipped)
    assert report.supersingular_primal_residues == (7,)
    assert report.supersingular_mirror_residues == (3, 5, 6)
    # 3 divides the mirror weight 3 of (14, 7, 4, 3) but not d = 56
    report = prime_scan(_mirror(build(WEIGHT_SKIP_ROWS), "J"), primes_below(31))
    assert (report.degree, report.mirror_degree) == (8, 28)
    assert report.skipped == ((2, "divides the exponent 56"), (3, "divides a weight"), (7, "divides the exponent 56"))
    assert [(r.prime, r.rho_primal, r.rho_mirror) for r in report.rows] == [
        (5, 10, 18),
        (11, 10, 18),
        (13, 10, 18),
        (17, 10, 18),
        (19, 22, 18),
        (23, 10, 22),
        (29, 10, 18),
    ]


def test_prime_scan_matches_full_reports(a_ex):
    for m in (a_ex, build(WEIGHT_SKIP_ROWS)):
        report = prime_scan(_mirror(m, "J"), primes_below(40))
        for row in report.rows:
            mp = _mirror(m, "J", row.prime)
            assert picard_report(mp).rho_primal == row.rho_primal
            assert picard_report(mp).rho_mirror == row.rho_mirror
            assert row.supersingular_primal == (row.rho_primal == 22)
            assert row.supersingular_mirror == (row.rho_mirror == 22)


def test_supersingular_residue_tables():
    from bhk.picard import _supersingular_residues

    assert _supersingular_residues(8) == (7,)
    assert _supersingular_residues(7) == (3, 5, 6)
    assert _supersingular_residues(4) == (3,)
    assert _supersingular_residues(12) == (11,)
    # Degenerate moduli: every unit works since -1 = 1 there.
    assert _supersingular_residues(1) == (1,)
    assert _supersingular_residues(2) == (1,)


@lru_cache(maxsize=None)
def _unit_classes(d: int) -> tuple[tuple[int, ...], ...]:
    """The units mod d grouped by the cyclic subgroup of (Z/d)^x each one
    generates, in increasing order. Every prime p not dividing d has p mod d
    in exactly one class, and the Picard routes read p only through the
    subgroup <p mod d>. Each subgroup is walked here, not read from
    `picard._powers`."""
    classes: dict[frozenset, list[int]] = {}
    for v in range(1, d):
        if gcd(v, d) == 1:
            subgroup, x = {1}, v
            while x not in subgroup:
                subgroup.add(x)
                x = x * v % d
            classes.setdefault(frozenset(subgroup), []).append(v)
    return tuple(tuple(c) for c in classes.values())


def _unit_class_disagreements(m, group: str) -> tuple[int, list[str]]:
    """The check behind `bhk scan`'s residue lists, on one matrix and group:
    each side's unit-orbit partition is built once, and for the least unit u
    of each class the direct route must equal the orbit route and
    `grading_set(side, u)`, 22 minus the set sizes must equal the closed form
    `_closed_rho(u, h)` of each side, and rho = 22 exactly when v mod h lies
    in `_supersingular_residues(h)`, for every unit v of the class. Returns
    the number of classes and each disagreement found."""
    mp = Workspace(m.matrix, CHAR0, group).mirror
    d = m.exponent
    sides = [(side.matrix, *picard._unit_orbits(side.group)) for side in (mp.mirror, mp.primal)]
    degrees = [side.matrix.degree for side in (mp.mirror, mp.primal)]
    residues = [picard._supersingular_residues(h) for h in degrees]
    classes = _unit_classes(d)
    found = []
    for cls in classes:
        u = cls[0]
        rhos = []
        for matrix, ages, orbits in sides:
            direct = picard._direct_route(ages, orbits, picard._powers(u, d), d)
            if direct != picard._orbit_route(ages, orbits, u, d) or direct != grading_set(matrix, u):
                found.append(f"{m.matrix} {group} u={u}: the routes disagree in degree {matrix.degree}")
            rhos.append(22 - len(direct))
        for rho, h, listed in zip(rhos, degrees, residues):
            if rho != picard._closed_rho(u, h):
                found.append(f"{m.matrix} {group} u={u}: rho {rho} but closed form {picard._closed_rho(u, h)}")
            if any((v % h in listed) != (rho == 22) for v in cls):
                found.append(f"{m.matrix} {group} u={u}: residues mod {h} {listed} but rho {rho}")
    return len(classes), found


def test_scan_residue_lists_hold_over_every_unit_class():
    """Every catalog matrix with G in {J, SL}: one run of the routes per
    cyclic subgroup <u> of (Z/d)^x covers every prime that does not divide d,
    so `bhk scan`'s rows and residue lists are checked for every such prime."""
    classes, found = 0, []
    for m in cy_catalog():
        for group in ("J", "SL"):
            n, bad = _unit_class_disagreements(m, group)
            classes += n
            found += bad
    assert found == []
    assert classes >= 6000


def test_unit_class_check_catches_a_residue_doctored_in_minus_one_power_exists(a_ex, monkeypatch):
    """Flipping minus_one_power_exists at any one residue r mod h or h_T (7
    and 8 on the chain) moves the grading set, the closed form or the
    residue list of some class away from the direct route."""
    real = picard.minus_one_power_exists

    def flipped_at(h, r):
        return lambda u, n: real(u, n) != (n == h and u % n == r)

    for h in (7, 8):
        for r in (r for r in range(1, h) if gcd(r, h) == 1):
            monkeypatch.setattr(picard, "minus_one_power_exists", flipped_at(h, r))
            assert _unit_class_disagreements(a_ex, "J")[1], (h, r)


def test_unit_class_check_catches_powers_stuck_at_one(a_ex, monkeypatch):
    """A `_powers` that returns [1] for every u runs the characteristic-zero
    test in every class, which the orbit route, walking u itself, refutes."""
    monkeypatch.setattr(picard, "_powers", lambda u, d: [1])
    assert _unit_class_disagreements(a_ex, "J")[1]
