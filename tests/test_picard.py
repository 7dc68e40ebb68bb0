"""Ages, transcendental (defect) sets by both routes, the three Picard
methods, and the prime scan, against frozen independently computed values."""

from __future__ import annotations

import pytest

import bhk.picard as picard
from bhk import (
    Characteristic,
    age,
    age_one_census,
    aged_elements,
    aut_group,
    j_element,
    j_subgroup,
    make_pair,
    mirror_pair,
    orbit_decomposition,
    picard_by_counting,
    picard_by_orbits,
    picard_closed_form,
    picard_report,
    prime_scan,
    sl_subgroup,
    subgroup_generated,
    transcendental_set,
    transcendental_set_orbits,
    transpose,
)
from bhk.errors import (
    CharDividesD,
    HNotInMd,
    MethodMismatch,
    NonintegralAge,
    ZeroCoordinate,
)
from conftest import CHAR0, primes_below


def _mirror(m, group_name="J", p=0):
    char = Characteristic(p)
    group = j_subgroup(m) if group_name == "J" else sl_subgroup(aut_group(m))
    return mirror_pair(make_pair(m, group, char))


def test_age_goldens(a_ex):
    j = j_element(a_ex)
    assert age(168, j) == 1
    assert age(168, [-c for c in j]) == 3
    assert age(4, (1, 1, 3, 3)) == 2
    assert age(4, (3, 3, 3, 3)) == 3
    assert age(4, (-3, 5, 7, -1)) == 2  # coordinates are reduced mod d first


def test_age_negation_symmetry(a_ex):
    for e in aged_elements(sl_subgroup(aut_group(a_ex))):
        assert age(a_ex.exponent, [-c for c in e.coords]) == 4 - e.age


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
    j_census = age_one_census(j_subgroup(a_ex))
    assert [a.coords for a in j_census] == [(48, 72, 24, 24)]
    sl_census = age_one_census(sl_subgroup(aut_group(a_ex)))
    assert [a.coords for a in sl_census] == [(48, 72, 24, 24)]
    mt = transpose(a_ex, CHAR0)
    t_census = age_one_census(sl_subgroup(aut_group(mt)))
    assert [a.coords for a in t_census] == [(84, 42, 21, 21)]
    f_census = age_one_census(sl_subgroup(aut_group(a_f)))
    assert [a.coords for a in f_census] == [(1, 1, 1, 1)]


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
    sl = sl_subgroup(aut_group(a_ex))
    dec = orbit_decomposition(sl, Characteristic(5))
    aged = aged_elements(sl)
    assert sum(len(o) for o in dec.u_orbits) == len(aged) == len(dec.ambient)
    seen = set()
    for orbit in dec.u_orbits:
        for a in orbit:
            assert a.coords not in seen
            seen.add(a.coords)
    assert seen == {a.coords for a in aged}
    # p-power suborbits partition each orbit and are closed under scaling by p.
    for orbit, subs in zip(dec.u_orbits, dec.p_suborbits):
        assert sum(len(s) for s in subs) == len(orbit)
        for sub in subs:
            coords = {a.coords for a in sub}
            for c in coords:
                assert tuple(5 * x % 168 for x in c) in coords


def test_orbit_decomposition_char0_has_no_suborbits(a_ex):
    dec = orbit_decomposition(j_subgroup(a_ex), CHAR0)
    assert dec.p_suborbits is None


def test_method_mismatch_on_corrupted_age(a_f, monkeypatch):
    """Flipping one age makes the two routes disagree and trips the cross-check."""
    real_age = picard.age

    def corrupted(d, coords):
        if d == 4 and coords == (1, 1, 3, 3):
            return 3
        return real_age(d, coords)

    monkeypatch.setattr(picard, "age", corrupted)
    sl = sl_subgroup(aut_group(a_f))
    with pytest.raises(MethodMismatch):
        transcendental_set_orbits(sl, CHAR0)


def test_picard_char0_goldens(a_ex, a_f, loop_m, mixed_m):
    for m, name, expected in (
        (a_ex, "J", (18, 16)),
        (a_ex, "SL", (18, 16)),
        (a_f, "J", (20, 20)),
        (a_f, "SL", (20, 20)),
        (loop_m, "J", (20, 20)),
        (mixed_m, "J", (18, 20)),
    ):
        mp = _mirror(m, name)
        assert picard_by_counting(mp) == expected
        assert picard_by_orbits(mp) == expected
        assert picard_closed_form(mp) == expected


def test_picard_positive_characteristic_goldens(a_ex):
    for p, expected in ((5, (18, 22)), (11, (18, 16)), (13, (18, 22)), (47, (22, 22))):
        mp = _mirror(a_ex, "J", p)
        assert picard_by_counting(mp) == expected
        assert picard_closed_form(mp) == expected


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
