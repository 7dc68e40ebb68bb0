"""Acceptance gate: one test per shipped criterion, one pass/fail line each.

Criterion bodies use the public API end to end; the Fermat-quartic criterion
carries its own from-scratch oracle that recomputes everything directly from
the definitions without touching the library.
"""

from __future__ import annotations

import json
import time
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhk.cli as cli
import test_properties
from bhk import (
    Characteristic,
    Workspace,
    enumerate_intermediate,
    j_subgroup,
    picard_report,
)
from conftest import (
    A_EX_ROWS,
    A_F_ROWS,
    LOOP_ROWS,
    MIXED_ROWS,
    build,
    primes_below,
)
from oracles import aut_group, sl_subgroup


def _announce(name: str, body, budget: float | None = None) -> None:
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget")
    except BaseException:
        print(f"acceptance {name}: FAIL")
        raise
    print(f"acceptance {name}: PASS ({elapsed:.2f}s)")


def _group_of(m, name):
    return j_subgroup(m) if name == "J" else sl_subgroup(aut_group(m))


def _mirror(m, group_name, p=0):
    return Workspace(m.matrix, Characteristic(p), _group_of(m, group_name).generators).mirror


def test_criterion_1_golden_chain_example():
    def body():
        spec = cli.parse_input(
            json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "group": "J"})
        )
        doc, status = cli.run_command("picard", spec)
        assert status == cli.EXIT_OK
        assert doc["delsarte"]["weights"] == [2, 3, 1, 1]
        assert doc["delsarte"]["degree"] == 7
        assert doc["delsarte"]["exponent"] == 168
        assert doc["groups"]["aut_order"] == 168
        assert doc["groups"]["sl_order"] == 21
        assert doc["groups"]["j_order"] == 7
        assert doc["mirror"]["weights"] == [4, 2, 1, 1]
        assert doc["mirror"]["degree"] == 8
        assert doc["mirror"]["j_dual_order"] == 8
        assert doc["mirror"]["sl_dual_order"] == 24
        assert doc["mirror"]["dual_of_j_equals_mirror_sl"] is True
        assert doc["mirror"]["dual_of_sl_equals_mirror_j"] is True
        assert doc["picard"]["rho_primal"] == 18
        assert doc["picard"]["rho_mirror"] == 16
        assert all(
            entry == {"rho_primal": 18, "rho_mirror": 16}
            for entry in doc["picard"]["methods"].values()
        )

    _announce("criterion-1 chain-example golden run", body, budget=5.0)


def test_criterion_2_prime_scan_characterization():
    def body():
        spec = cli.parse_input(json.dumps({"matrix": [list(r) for r in A_EX_ROWS]}))
        doc, status = cli.run_command("scan", spec, primes_up_to=199)
        assert status == cli.EXIT_OK
        scan = doc["scan"]
        assert [s["prime"] for s in scan["skipped"]] == [2, 3, 7]
        expected_primes = [p for p in primes_below(200) if 168 % p != 0]
        assert [r["prime"] for r in scan["rows"]] == expected_primes
        for row in scan["rows"]:
            p = row["prime"]
            assert row["rho_primal"] == (22 if p % 8 == 7 else 18), p
            assert row["rho_mirror"] == (22 if p % 7 in (3, 5, 6) else 16), p
        # Spot-check the closed form against the two counting routes.
        for p in (5, 47, 191):
            mp = _mirror(build(A_EX_ROWS, p), "J", p)
            row = next(r for r in scan["rows"] if r["prime"] == p)
            rep = picard_report(mp)
            assert (rep.rho_primal, rep.rho_mirror) == (row["rho_primal"], row["rho_mirror"])

    _announce("criterion-2 prime scan p < 200", body, budget=30.0)


def test_criterion_3_three_method_agreement():
    def body():
        fixtures: list[tuple] = []
        for rows, group_names in (
            (A_EX_ROWS, ("J", "SL")),
            (LOOP_ROWS, ("J", "SL")),
            (MIXED_ROWS, ("J", "SL")),
        ):
            m = build(rows)
            for name in group_names:
                fixtures.append((m, _group_of(m, name)))
        a_f = build(A_F_ROWS)
        lattice = enumerate_intermediate(j_subgroup(a_f), sl_subgroup(aut_group(a_f)))
        assert len(lattice) == 15
        for g in lattice:
            fixtures.append((a_f, g))

        cases = 0
        for m, group in fixtures:
            chars = [0] + [p for p in primes_below(100) if m.exponent % p != 0]
            for p in chars:
                mp = Workspace(m.matrix, Characteristic(p), group.generators).mirror
                report = picard_report(mp)  # raises MethodMismatch on disagreement
                assert len(set(report.methods.values())) == 1
                cases += 1
        assert cases == 517, cases

    _announce("criterion-3 three-method agreement", body)


def test_criterion_4_property_suites():
    """The nine suites run once each, as tests collected from test_properties,
    where each fails on fewer than SUITE_CASES executed cases; this checks
    that wiring instead of running them again."""

    def body():
        suites = test_properties.ALL_SUITES
        assert len(suites) == 9
        for fn in suites:
            assert fn.__name__.startswith("test_") and getattr(test_properties, fn.__name__) is fn
            assert fn.floor == test_properties.SUITE_CASES >= 500

        @test_properties.floored
        @settings(max_examples=10, database=None, derandomize=True)
        @given(st.integers())
        def short(n):
            test_properties._count("short")

        with pytest.raises(AssertionError, match="short"):
            short()

    _announce("criterion-4 property suites (9 x >=500 cases)", body)


# ---------------------------------------------------------------------------
# Criterion 5: from-scratch oracle for the Fermat quartic. No library calls.


def _oracle_fermat_quartic_rho_primal(p: int) -> int:
    d = 4
    matrix = [[4 if i == j else 0 for j in range(4)] for i in range(4)]
    # Kernel of the matrix mod d, straight from the definition.
    kernel = [
        c
        for c in product(range(d), repeat=4)
        if all(sum(matrix[i][j] * c[j] for j in range(4)) % d == 0 for i in range(4))
    ]
    assert len(kernel) == 256
    # G = J = multiples of (1,1,1,1); the transpose is the same matrix.
    g_elements = [tuple(n % d for _ in range(4)) for n in range(4)]
    # Dual group: annihilator under the pairing a . (A b) mod d^2.
    def pair(a, b):
        return sum(a[i] * matrix[i][j] * b[j] for i in range(4) for j in range(4)) % (d * d)

    dual = [a for a in kernel if all(pair(a, g) == 0 for g in g_elements)]
    # Aged elements of the dual: nonzero coordinates, coordinate sum = 0 mod d.
    aged = {
        c: sum(c) // d
        for c in dual
        if all(x % d != 0 for x in c) and sum(c) % d == 0
    }
    units = [t for t in range(1, d) if gcd(t, d) == 1]
    if p == 0:
        defect = [
            c for c in aged
            if any(aged[tuple(t * x % d for x in c)] != 2 for t in units)
        ]
    else:
        f = 1
        power = p % d
        while power != 1:
            power = power * p % d
            f += 1
        powers = [pow(p, j, d) for j in range(f)]
        defect = [
            c
            for c in aged
            if any(
                sum(aged[tuple(t * pj * x % d for x in c)] for pj in powers) != 2 * f
                for t in units
            )
        ]
    return 22 - len(defect)


def test_criterion_5_fermat_quartic_ground_truth():
    def body():
        assert _oracle_fermat_quartic_rho_primal(0) == 20
        a_f = build(A_F_ROWS)
        for name, (rho_primal, _) in picard_report(_mirror(a_f, "J")).methods.items():
            assert rho_primal == 20, name
        for p in primes_below(100):
            if p == 2:
                continue
            truth = _oracle_fermat_quartic_rho_primal(p)
            assert truth == (22 if p % 4 == 3 else 20), p  # classical corroboration
            mp = _mirror(build(A_F_ROWS, p), "J", p)
            for name, (rho_primal, _) in picard_report(mp).methods.items():
                assert rho_primal == truth, (p, name)

    _announce("criterion-5 Fermat quartic vs from-scratch oracle", body)


def test_criterion_6_group_choice_irrelevant():
    def body():
        for p in (0, 5, 11, 13, 47):
            m = build(A_EX_ROWS, p)
            rho_j = picard_report(_mirror(m, "J", p))
            rho_sl = picard_report(_mirror(m, "SL", p))
            assert (rho_j.rho_primal, rho_j.rho_mirror) == (
                rho_sl.rho_primal,
                rho_sl.rho_mirror,
            )
        m0 = build(A_EX_ROWS)
        rep = picard_report(_mirror(m0, "J"))
        assert (rep.rho_primal, rep.rho_mirror) == (18, 16)

    _announce("criterion-6 rho independent of group choice", body)
