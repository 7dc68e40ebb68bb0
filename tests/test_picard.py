"""Ages, transcendental (defect) sets by both routes, the three Picard
methods, and the prime scan, against frozen independently computed values."""

from __future__ import annotations

import pytest

import bhk.picard as picard
from bhk import (
    Characteristic,
    Workspace,
    age,
    aged_elements,
    enumerate_intermediate,
    grading_set,
    j_element,
    j_subgroup,
    picard_report,
    prime_scan,
    sl_group,
    subgroup_generated,
    transpose,
)
from bhk.errors import (
    CharDividesD,
    HNotInMd,
    MethodMismatch,
    NonintegralAge,
    ZeroCoordinate,
)
from conftest import CHAR0, cy_catalog_small, primes_below
from oracles import (
    aut_group,
    sl_subgroup,
    transcendental_set,
    transcendental_set_by_element,
    transcendental_set_orbits,
)


def _mirror(m, group_name="J", p=0):
    char = Characteristic(p)
    group = j_subgroup(m) if group_name == "J" else sl_subgroup(aut_group(m))
    return Workspace(m, char, group).mirror


def test_age_goldens(a_ex):
    j = j_element(a_ex)
    assert age(168, j) == 1
    assert age(168, [-c for c in j]) == 3
    assert age(4, (1, 1, 3, 3)) == 2
    assert age(4, (3, 3, 3, 3)) == 3
    assert age(4, (-3, 5, 7, -1)) == 2  # coordinates are reduced mod d first


def test_age_negation_symmetry(a_ex):
    for coords, a in aged_elements(sl_subgroup(aut_group(a_ex))).items():
        assert age(a_ex.exponent, [-c for c in coords]) == 4 - a


def test_age_rejects_zero_coordinate():
    with pytest.raises(ZeroCoordinate):
        age(4, (0, 1, 1, 2))


def test_age_rejects_nonintegral_sum():
    with pytest.raises(NonintegralAge):
        age(4, (1, 1, 1, 2))


def test_aged_element_counts(a_ex, a_f):
    mt = transpose(a_ex, CHAR0)
    assert len(aged_elements(j_subgroup(a_ex))) == 6
    assert len(aged_elements(sl_subgroup(aut_group(a_ex)))) == 18
    assert len(aged_elements(sl_subgroup(aut_group(mt)))) == 12
    assert len(aged_elements(j_subgroup(mt))) == 4
    assert len(aged_elements(sl_subgroup(aut_group(a_f)))) == 21


def test_aged_elements_need_zero_sums(a_ex):
    aut = aut_group(a_ex)
    bad = next(e for e in aut.elements if sum(e) % a_ex.exponent != 0)
    with pytest.raises(HNotInMd):
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
    assert [a.coords for a in f_set] == [(1, 1, 1, 1), (3, 3, 3, 3)]


def test_transcendental_set_is_unit_multiples_of_grading(a_ex):
    j = j_element(a_ex)
    expected = sorted(tuple(n * c % 168 for c in j) for n in range(1, 7))
    got = [a.coords for a in transcendental_set(j_subgroup(a_ex), CHAR0)]
    assert got == expected


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


def test_grading_set_goldens(a_ex):
    mt = transpose(a_ex, CHAR0)
    j, jt = j_element(a_ex), j_element(mt)
    assert grading_set(a_ex, CHAR0) == tuple(sorted(tuple(k * c % 168 for c in j) for k in range(1, 7)))
    assert grading_set(mt, CHAR0) == tuple(sorted(tuple(k * c % 168 for c in jt) for k in (1, 3, 5, 7)))
    # 5^3 = -1 mod 7 empties the set of A; no power of 5 is -1 mod 8.
    assert grading_set(a_ex, Characteristic(5)) == ()
    assert grading_set(mt, Characteristic(5)) == grading_set(mt, CHAR0)
    with pytest.raises(CharDividesD):
        grading_set(a_ex, Characteristic(7))


def test_transcendental_set_matches_definition_and_grading_on_small_catalog():
    """Every group between J and SL of every small-catalog matrix, in each
    characteristic of {0, 5, 7, 11, 13} not dividing d: the per-orbit direct
    route equals the per-element definition, and its coordinates are the
    grading route's set."""
    cases = 0
    for m in cy_catalog_small():
        groups = enumerate_intermediate(j_subgroup(m), sl_group(m))
        for p in (0, 5, 7, 11, 13):
            if p and m.exponent % p == 0:
                continue
            char = Characteristic(p)
            expected = grading_set(m, char)
            for group in groups:
                got = transcendental_set(group, char)
                assert got == transcendental_set_by_element(group, char)
                assert tuple(a.coords for a in got) == expected
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

    def without_minus_j(m, char):
        minus_j = tuple(-c % m.exponent for c in j_element(m))
        return tuple(c for c in real(m, char) if c != minus_j)

    monkeypatch.setattr(picard, "grading_set", without_minus_j)
    for p in (0, 11):
        with pytest.raises(MethodMismatch, match="grading route"):
            picard_report(_mirror(a_ex, "J", p))


def flip_age_one_flags(monkeypatch) -> None:
    """Doctor the orbit route's own per-orbit test, not the unit-orbit
    partition it shares with the direct route: the test reads each age-one
    flag flipped (ages 1 -> 2 and others -> 1), as if it read age != 1."""
    real = picard._orbit_contributes

    def flipped(orbit, ages, char, d):
        return real(orbit, {c: 2 if a == 1 else 1 for c, a in ages.items()}, char, d)

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


def test_prime_scan_matches_full_reports(a_ex):
    mp0 = _mirror(a_ex, "J")
    report = prime_scan(mp0, primes_below(40))
    for row in report.rows:
        mp = _mirror(a_ex, "J", row.prime)
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
