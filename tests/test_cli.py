"""Command line contract: input parsing, document shape, exit codes,
determinism, and batch processing."""

from __future__ import annotations

import ast
import errno
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import bhk.cli as cli
from bhk.delsarte import Characteristic
from bhk.duality import Workspace
from bhk.errors import InternalCheckError, ParseError, SemanticError, TooLarge
from bhk.picard import picard_report, prime_scan
from conftest import A_EX_ROWS, A_F_ROWS
from test_duality import doctor_duals, negate_second, repeat_a_dual, swap_two_duals
from test_picard import flip_age_one_flags
from test_smoothness import CY_NOT_QS_ROWS

A_EX_DOC = {"matrix": [list(r) for r in A_EX_ROWS], "group": "J", "characteristic": 0}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# parse_input


def test_parse_input_accepts_minimal():
    spec = cli.parse_input(json.dumps({"matrix": [list(r) for r in A_EX_ROWS]}))
    assert spec.matrix == A_EX_ROWS
    assert spec.group_spec == "J"
    assert spec.characteristic == 0


def test_parse_input_accepts_generators():
    doc = {
        "matrix": [list(r) for r in A_F_ROWS],
        "group": {"generators": [[1, 1, 1, 1], [0, 2, 0, 2]]},
        "characteristic": 3,
    }
    spec = cli.parse_input(json.dumps(doc))
    assert spec.group_spec == ((1, 1, 1, 1), (0, 2, 0, 2))
    assert spec.characteristic == 3


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2, 3]",
        json.dumps({"matrix": [[2, 1, 0, 0]] * 4, "extra": 1}),
        json.dumps({"group": "J"}),
        json.dumps({"matrix": [[2, 1, 0]] * 4}),
        json.dumps({"matrix": [[2, 1, 0, 0.5]] * 4}),
        json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "group": "j"}),
        json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "group": {"gens": []}}),
        json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "group": {"generators": []}}),
        json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "group": {"generators": [[1, 2]]}}),
        json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "group": {"generators": [[1, 2, 3, True]]}}),
        json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "group": 7}),
        json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "characteristic": -1}),
        json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "characteristic": True}),
        json.dumps({"matrix": [list(r) for r in A_EX_ROWS], "characteristic": "0"}),
    ],
)
def test_parse_input_rejects(text):
    with pytest.raises(ParseError):
        cli.parse_input(text)


# ---------------------------------------------------------------------------
# run_command


def test_validate_adequate():
    doc, status = cli.run_command("validate", cli.parse_input(json.dumps(A_EX_DOC)))
    assert status == cli.EXIT_OK
    assert doc["adequacy"]["verdict"] is True
    assert doc["input"]["matrix"] == A_EX_DOC["matrix"]


def test_validate_inadequate_exits_one():
    spec = cli.parse_input(json.dumps({"matrix": [list(r) for r in CY_NOT_QS_ROWS]}))
    doc, status = cli.run_command("validate", spec)
    assert status == cli.EXIT_INPUT
    assert doc["adequacy"]["verdict"] is False
    assert doc["adequacy"]["quasi_smooth"] is False


def test_analyze_reports_without_failing():
    spec = cli.parse_input(json.dumps({"matrix": [list(r) for r in CY_NOT_QS_ROWS]}))
    doc, status = cli.run_command("analyze", spec)
    assert status == cli.EXIT_OK
    assert doc["atoms"] is None
    assert doc["delsarte"]["det"] == 44


def test_analyze_golden():
    doc, status = cli.run_command("analyze", cli.parse_input(json.dumps(A_EX_DOC)))
    assert status == cli.EXIT_OK
    assert doc["delsarte"] == {
        "det": 168,
        "weights": [2, 3, 1, 1],
        "degree": 7,
        "exponent": 168,
        "b_matrix": doc["delsarte"]["b_matrix"],
    }
    assert doc["atoms"] == [
        {"kind": "chain", "variables": [0, 1, 2, 3], "exponents": [2, 2, 6, 7]}
    ]
    assert doc["groups"]["aut_order"] == 168
    assert doc["groups"]["sl_order"] == 21
    assert doc["groups"]["j_order"] == 7
    assert doc["groups"]["j"] == [48, 72, 24, 24]


def test_mirror_golden():
    doc, status = cli.run_command("mirror", cli.parse_input(json.dumps(A_EX_DOC)))
    assert status == cli.EXIT_OK
    mirror = doc["mirror"]
    assert mirror["weights"] == [4, 2, 1, 1]
    assert mirror["degree"] == 8
    assert mirror["j_dual_order"] == 8
    assert mirror["sl_dual_order"] == 24
    assert mirror["group_dual"]["order"] == 24
    assert mirror["dual_of_j_equals_mirror_sl"] is True
    assert mirror["dual_of_sl_equals_mirror_j"] is True
    assert mirror["adequacy"]["verdict"] is True


def test_picard_all_methods_golden():
    doc, status = cli.run_command("picard", cli.parse_input(json.dumps(A_EX_DOC)))
    assert status == cli.EXIT_OK
    picard = doc["picard"]
    assert picard["rho_primal"] == 18
    assert picard["rho_mirror"] == 16
    assert set(picard["methods"]) == {"closed_form", "kelly", "orbit"}
    for entry in picard["methods"].values():
        assert entry == {"rho_primal": 18, "rho_mirror": 16}
    assert picard["set_sizes"] == {"in_dual_group": 4, "in_group": 6}


@pytest.mark.parametrize("method,key", [("closed", "closed_form"), ("kelly", "kelly"), ("orbit", "orbit")])
def test_picard_single_method(method, key):
    doc, _ = cli.run_command(
        "picard", cli.parse_input(json.dumps(A_EX_DOC)), method=method
    )
    assert list(doc["picard"]["methods"]) == [key]
    assert doc["picard"]["rho_primal"] == 18
    if method == "closed":
        assert "set_sizes" not in doc["picard"]
    else:
        assert doc["picard"]["set_sizes"] == {"in_dual_group": 4, "in_group": 6}


def test_subgroups_golden():
    doc, status = cli.run_command("subgroups", cli.parse_input(json.dumps(A_EX_DOC)))
    assert status == cli.EXIT_OK
    assert doc["subgroups"]["count"] == 2
    assert [(g["order"], g["dual_order"]) for g in doc["subgroups"]["groups"]] == [
        (7, 24),
        (21, 8),
    ]


FERMAT_DOC = {"matrix": [list(r) for r in A_F_ROWS]}


def test_subgroups_duality_check_catches_a_repeated_dual(monkeypatch):
    """A filter that gives a group of order 8 the dual of another makes
    G -> G^T non-injective; every order identity still holds."""
    doctor_duals(monkeypatch, repeat_a_dual())
    with pytest.raises(InternalCheckError, match="not injective"):
        cli.run_command("subgroups", cli.parse_input(json.dumps(FERMAT_DOC)))


def test_subgroups_duality_check_catches_swapped_duals(monkeypatch):
    """Swapping the duals of two groups of order 8 keeps G -> G^T injective
    but no longer inclusion-reversing: a group of order 16 over one of them
    but not the other has a dual outside the swapped one."""
    doctor_duals(monkeypatch, swap_two_duals())
    with pytest.raises(InternalCheckError, match="reverse inclusion"):
        cli.run_command("subgroups", cli.parse_input(json.dumps(FERMAT_DOC)))


def test_subgroups_duality_check_requires_the_dual_of_sl_to_be_j_of_the_transpose(monkeypatch):
    """Negating the second coordinate is an automorphism of Aut(A^T) = (Z/4)^4
    for the Fermat quartic. Applied to every dual it keeps their orders, and
    G -> G^T injective and inclusion-reversing, but moves J^T = <(1,1,1,1)>
    to <(1,3,1,1)>; only the comparison with J of the transpose catches it."""
    doctor_duals(monkeypatch, negate_second, of_j=True)
    with pytest.raises(InternalCheckError, match="differs from J of the transpose"):
        cli.run_command("subgroups", cli.parse_input(json.dumps(FERMAT_DOC)))


def test_mirror_section_checks_its_printed_equalities(monkeypatch):
    """A filter that negates a coordinate of every dual above the dual of J
    keeps |G| |G^T| = |det| but moves the dual of SL off J of the transpose,
    which is an internal error, not a report. The dual of J is SL of the
    transpose filtered by no element, so it has no equality of its own to
    break."""
    doctor_duals(monkeypatch, negate_second)
    with pytest.raises(InternalCheckError, match="the dual of SL differs from J of the transpose"):
        cli.run_command("mirror", cli.parse_input(json.dumps(A_EX_DOC)))


def test_mirror_checks_the_grading_identity_behind_the_dual_of_j(tmp_path, capsys, monkeypatch):
    """The dual of J is read as SL of the transpose because A j = d (1,1,1,1).
    A grading element 3j on the Fermat quartic still has order 4 and
    coordinate sum 0 mod 4, and spans the same J, but A (3j) = 3d (1,1,1,1):
    `bhk mirror` must exit 2 on that check."""
    import bhk.symmetry as symmetry

    real = symmetry.j_element
    monkeypatch.setattr(symmetry, "j_element", lambda m: tuple(3 * x % m.exponent for x in real(m)))
    path = _write(tmp_path, "fermat.json", {"matrix": [list(r) for r in A_F_ROWS]})
    assert cli.main(["mirror", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["category"]) == ("InternalCheckError", "internal")
    assert "A j differs from d (1,1,1,1)" in err["message"]


def test_scan_golden_and_forces_characteristic_zero():
    doc_input = dict(A_EX_DOC, characteristic=11)
    doc, status = cli.run_command(
        "scan", cli.parse_input(json.dumps(doc_input)), primes_up_to=20
    )
    assert status == cli.EXIT_OK
    scan = doc["scan"]
    assert [(r["prime"], r["rho_primal"], r["rho_mirror"]) for r in scan["rows"]] == [
        (5, 18, 22),
        (11, 18, 16),
        (13, 18, 22),
        (17, 18, 22),
        (19, 18, 22),
    ]
    assert [s["prime"] for s in scan["skipped"]] == [2, 3, 7]
    assert scan["supersingular_primal_residues"] == [7]
    assert scan["supersingular_mirror_residues"] == [3, 5, 6]
    assert "p mod 8" in scan["characterization"]["primal"]
    assert "p mod 7" in scan["characterization"]["mirror"]


def test_custom_generators_resolve():
    doc_input = {
        "matrix": [list(r) for r in A_F_ROWS],
        "group": {"generators": [[1, 1, 1, 1]]},
    }
    doc, status = cli.run_command("picard", cli.parse_input(json.dumps(doc_input)))
    assert status == cli.EXIT_OK
    assert doc["groups"]["group_order"] == 4
    assert doc["picard"]["rho_primal"] == 20


def test_custom_generators_outside_sl_rejected():
    doc_input = {
        "matrix": [list(r) for r in A_F_ROWS],
        "group": {"generators": [[1, 0, 0, 0]]},
    }
    with pytest.raises(SemanticError):
        cli.run_command("validate", cli.parse_input(json.dumps(doc_input)))


def test_semantic_error_for_non_calabi_yau():
    doc_input = {"matrix": [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [1, 0, 0, 2]]}
    with pytest.raises(SemanticError):
        cli.run_command("validate", cli.parse_input(json.dumps(doc_input)))


# ---------------------------------------------------------------------------
# main() end to end


def test_kelly_method_runs_the_orbit_check(tmp_path, capsys, monkeypatch):
    flip_age_one_flags(monkeypatch)
    path = _write(tmp_path, "in.json", dict(A_EX_DOC, group="SL"))
    assert cli.main(["picard", path, "--method", "kelly"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "MethodMismatch"
    assert "orbit route" in err["message"]


def test_main_picard_golden(tmp_path, capsys):
    path = _write(tmp_path, "in.json", A_EX_DOC)
    assert cli.main(["picard", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["picard"]["rho_primal"] == 18
    assert doc["tool_version"] == cli.TOOL_VERSION


def test_main_output_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "in.json", A_EX_DOC)
    assert cli.main(["picard", path]) == 0
    first = capsys.readouterr().out
    assert cli.main(["picard", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == first


def test_main_text_format(tmp_path, capsys):
    path = _write(tmp_path, "in.json", A_EX_DOC)
    assert cli.main(["--format", "text", "analyze", path]) == 0
    out = capsys.readouterr().out
    assert "delsarte.det = 168" in out
    assert "groups.sl_order = 21" in out
    assert not out.lstrip().startswith("{")


def test_main_quiet_suppresses_output(tmp_path, capsys):
    path = _write(tmp_path, "in.json", A_EX_DOC)
    assert cli.main(["--quiet", "validate", path]) == 0
    assert capsys.readouterr().out == ""


def test_main_missing_file_exits_one(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "absent.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "ParseError"
    assert err["error"]["category"] == "input"


def test_main_input_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "in.json", dict(A_EX_DOC, characteristic=2))
    assert cli.main(["validate", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "CharDividesDet"
    assert err["error"]["category"] == "input"


def test_main_picard_at_a_large_prime(tmp_path, capsys):
    path = _write(tmp_path, "in.json", dict(A_EX_DOC, characteristic=10**16 + 61))
    start = time.perf_counter()
    assert cli.main(["picard", path]) == 0
    assert time.perf_counter() - start < 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["picard"]["rho_primal"], doc["picard"]["rho_mirror"]) == (18, 16)


def test_main_characteristic_beyond_the_primality_test(tmp_path, capsys):
    path = _write(tmp_path, "in.json", dict(A_EX_DOC, characteristic=3317044064679887385961981))
    assert cli.main(["picard", path]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "SemanticError"


def test_main_inadequate_validate_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"matrix": [list(r) for r in CY_NOT_QS_ROWS]})
    assert cli.main(["validate", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["adequacy"]["verdict"] is False


def test_main_internal_error_exits_two(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "in.json", A_EX_DOC)

    def explode(command, spec, **options):
        raise InternalCheckError("cross-check failed in a test double")

    monkeypatch.setattr(cli, "run_command", explode)
    assert cli.main(["picard", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "internal"


@pytest.mark.parametrize("raised", [ValueError, KeyError])
def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch, raised):
    """An exception that is not an InputError, raised by a stage for one
    document, is one internal error document with exit 2, never a traceback
    nor an input error; batch reports the other documents as before."""
    real = cli.picard_report

    def faulty(mp):
        if mp.primal.matrix.matrix == A_EX_ROWS:
            raise raised("a fault in a test double")
        return real(mp)

    monkeypatch.setattr(cli, "picard_report", faulty)
    path = _write(tmp_path, "chain.json", A_EX_DOC)
    assert cli.main(["picard", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    err = json.loads(line)["error"]
    assert (err["kind"], err["category"]) == (raised.__name__, "internal")

    _write(tmp_path, "fermat.json", {"matrix": [list(r) for r in A_F_ROWS]})
    _write(tmp_path, "zero.json", {"matrix": [[0] * 4] * 4})
    assert cli.main(["batch", str(tmp_path)]) == 2
    entries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(e["file"], e["status"]) for e in entries] == [
        ("chain.json", "error"),
        ("fermat.json", "ok"),
        ("zero.json", "error"),
    ]
    assert (entries[0]["error"]["kind"], entries[0]["error"]["category"]) == (raised.__name__, "internal")
    assert entries[2]["error"]["category"] == "input"


@pytest.mark.parametrize(
    "rows, kind",
    [
        ([[3, 0, 1, 1], [0, 2, 0, 1], [0, 0, 4, 1], [0, 0, 0, 6]], "RowWithoutZero"),
        ([[2, 0, 0, 0], [0, 6, 0, 0], [0, 2, 2, 2], [0, 0, 1, 6]], "NonpositiveWeight"),
    ],
)
def test_subgroups_rejects_invalid_transpose(tmp_path, capsys, rows, kind):
    """A Calabi-Yau matrix whose transpose fails validation is an input error,
    even though `subgroups` never needs the symmetry groups of the transpose."""
    path = _write(tmp_path, "in.json", {"matrix": rows})
    assert cli.main(["subgroups", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["kind"] == kind
    assert err["error"]["category"] == "input"


def test_subgroups_rejects_invalid_transpose_before_enumerating_the_lattice(tmp_path, capsys, monkeypatch):
    """Rows (96,0,0,0), (0,96,0,0), (0,0,96,0), (3,0,0,1) are Calabi-Yau, with
    |SL| = 9,216, and their transpose has a nonpositive weight. A^T is
    validated before the lattice of SL/J is enumerated."""
    import bhk.duality as duality

    real = duality.enumerate_intermediate
    enumerated = []
    monkeypatch.setattr(duality, "enumerate_intermediate", lambda j, sl: enumerated.append(sl) or real(j, sl))
    rows = [[96, 0, 0, 0], [0, 96, 0, 0], [0, 0, 96, 0], [3, 0, 0, 1]]
    path = _write(tmp_path, "in.json", {"matrix": rows})
    assert cli.main(["subgroups", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "NonpositiveWeight"
    assert enumerated == []


def test_main_scan(tmp_path, capsys):
    path = _write(tmp_path, "in.json", A_EX_DOC)
    assert cli.main(["scan", path, "--primes-up-to", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["scan"]["rows"]) == 5


def test_scan_rejects_range_above_limit_before_testing_primes(tmp_path, capsys):
    path = _write(tmp_path, "in.json", A_EX_DOC)
    n = cli.MAX_PRIMES_UP_TO + 1
    assert n == 10**6 + 1
    start = time.perf_counter()
    assert cli.main(["scan", path, "--primes-up-to", str(n)]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "SemanticError"
    assert err["message"] == f"--primes-up-to {n} exceeds the limit 1000000"


@pytest.mark.parametrize("n", [480, 5000])
def test_oversized_sl_is_rejected_before_any_group_is_built(tmp_path, capsys, n):
    """Rows (n,0,0,0), (0,n,0,0), (0,0,n,0), (3,0,0,1) are Calabi-Yau with
    |SL| = n^2 and |J| = n. SL is bounded from |det| and the column sums of
    B before J, SL or a user group is enumerated, so every command rejects
    them as TooLarge at once, whatever n is."""
    rows = [[n, 0, 0, 0], [0, n, 0, 0], [0, 0, n, 0], [3, 0, 0, 1]]
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=f"SL has {n * n} elements"):
        Workspace(rows, Characteristic(0)).pair
    assert time.perf_counter() - start < 0.010
    for group in ("J", "SL", {"generators": [[1, n - 1, 0, 0]]}):
        path = _write(tmp_path, "in.json", {"matrix": rows, "group": group})
        for command in ("validate", "analyze", "mirror", "subgroups", "picard"):
            assert cli.main([command, path]) == 1
            err = json.loads(capsys.readouterr().err)["error"]
            assert (err["kind"], err["category"]) == ("TooLarge", "input")


# ---------------------------------------------------------------------------
# batch


def test_batch_sorted_isolated(tmp_path, capsys):
    _write(tmp_path, "c_good.json", A_EX_DOC)
    _write(tmp_path, "a_bad_char.json", dict(A_EX_DOC, characteristic=2))
    (tmp_path / "b_broken.json").write_text("{nonsense")
    (tmp_path / "ignored.txt").write_text("not picked up")

    assert cli.main(["batch", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    entries = [json.loads(line) for line in lines]
    assert [e["file"] for e in entries] == [
        "a_bad_char.json",
        "b_broken.json",
        "c_good.json",
    ]
    assert entries[0]["status"] == "error"
    assert entries[0]["error"]["kind"] == "CharDividesDet"
    assert entries[1]["status"] == "error"
    assert entries[1]["error"]["kind"] == "ParseError"
    assert entries[2]["status"] == "ok"
    assert entries[2]["report"]["picard"]["rho_primal"] == 18


def test_batch_all_good_exits_zero(tmp_path, capsys):
    _write(tmp_path, "one.json", A_EX_DOC)
    _write(tmp_path, "two.json", {"matrix": [list(r) for r in A_F_ROWS], "group": "SL"})
    assert cli.main(["batch", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(l)["status"] for l in lines] == ["ok", "ok"]


def test_batch_writes_ndjson_in_either_format(tmp_path, capsys):
    _write(tmp_path, "one.json", A_EX_DOC)
    outputs = []
    for fmt in ("json", "text"):
        assert cli.main(["--format", fmt, "batch", str(tmp_path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_batch_out_file(tmp_path, capsys):
    _write(tmp_path, "one.json", A_EX_DOC)
    out = tmp_path / "results.ndjson"
    assert cli.main(["batch", str(tmp_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    # the output file sits in the scanned directory but is not *.json
    assert len(lines) == 1
    assert json.loads(lines[0])["file"] == "one.json"


def test_batch_does_not_read_its_own_out_file(tmp_path, capsys):
    """An --out file named *.json in the scanned directory exists on the
    second run, which must not truncate it and then parse it as a document."""
    _write(tmp_path, "one.json", A_EX_DOC)
    out = tmp_path / "out.json"
    for _ in range(2):
        assert cli.main(["batch", str(tmp_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["file"] == "one.json"


@pytest.mark.parametrize("target", ["missing/results.ndjson", "."])
def test_batch_unwritable_out_fails_before_any_document(tmp_path, capsys, monkeypatch, target):
    """A missing parent directory or a directory at --out is one error document."""
    _write(tmp_path, "one.json", A_EX_DOC)
    ran, real = [], cli.run_command
    monkeypatch.setattr(cli, "run_command", lambda *a, **k: ran.append(a) or real(*a, **k))
    assert cli.main(["batch", str(tmp_path), "--out", str(tmp_path / target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["category"] == "input"
    assert err["error"]["message"].startswith("cannot write ")
    assert ran == []


@pytest.mark.parametrize(
    "before, out",
    [([], ["--out", ""]), ([], ["--out="]), (["--quiet"], ["--out", ""])],
    ids=["--out ''", "--out=", "--quiet --out ''"],
)
def test_batch_empty_out_path_is_an_input_error(tmp_path, capsys, monkeypatch, before, out):
    """An empty --out is a path like any other, so its open fails before any
    document runs: one error document on stderr, nothing on stdout, exit 1,
    with or without --quiet."""
    _write(tmp_path, "one.json", A_EX_DOC)
    ran, real = [], cli.run_command
    monkeypatch.setattr(cli, "run_command", lambda *a, **k: ran.append(a) or real(*a, **k))
    assert cli.main([*before, "batch", str(tmp_path), *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "category": "input",
        "kind": "SemanticError",
        "message": "cannot write : No such file or directory",
    }
    assert ran == []


def test_batch_reports_unreadable_entry(tmp_path, capsys):
    """A directory named like a document is one error line; the other files still run."""
    _write(tmp_path, "a_good.json", A_EX_DOC)
    (tmp_path / "x.json").mkdir()
    assert cli.main(["batch", str(tmp_path)]) == 1
    entries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(e["file"], e["status"]) for e in entries] == [("a_good.json", "ok"), ("x.json", "error")]
    assert entries[1]["error"]["kind"] == "ParseError"
    assert entries[1]["error"]["category"] == "input"


def test_batch_lists_every_json_entry_by_name(tmp_path):
    """Every entry whose name ends in .json runs, in name order: dot-files, a
    bare .json, a name with a space, a directory and a broken symlink
    included, other suffixes and cases left out, and the output file left by
    an earlier run skipped."""
    for name in (".h.json", ".json", "a.json", "c d.json", "Y.JSON", "b.jsonx"):
        _write(tmp_path, name, A_EX_DOC)
    (tmp_path / "x.json").mkdir()
    (tmp_path / "br.json").symlink_to("missing")
    out = tmp_path / "out.json"
    out.write_text("left by an earlier run\n")
    assert cli.main(["batch", str(tmp_path), "--out", str(out)]) == 1
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(e["file"], e["status"]) for e in entries] == [
        (".h.json", "ok"),
        (".json", "ok"),
        ("a.json", "ok"),
        ("br.json", "error"),
        ("c d.json", "ok"),
        ("x.json", "error"),
    ]
    assert all(e["error"]["category"] == "input" for e in entries if e["status"] == "error")
    assert entries[3]["error"]["message"].startswith("[Errno 2] ")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_batch_reports_a_fifo_without_opening_it(tmp_path):
    """A FIFO named *.json would block its open until a writer came; it is one
    input error line, and the documents beside it still run. A child runs the
    batch, so a blocked open fails the test by its timeout."""
    _write(tmp_path, "a.json", A_EX_DOC)
    os.mkfifo(tmp_path / "p.json")
    out = tmp_path / "out.ndjson"
    proc = subprocess.run(
        [sys.executable, "-m", "bhk.cli", "batch", str(tmp_path), "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(e["file"], e["status"]) for e in entries] == [("a.json", "ok"), ("p.json", "error")]
    assert (entries[1]["error"]["kind"], entries[1]["error"]["category"]) == ("ParseError", "input")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_single_document_is_read_from_a_pipe(capsys):
    """Single-file commands still read pipes, as in `bhk picard <(...)`."""
    r, w = os.pipe()
    try:
        os.write(w, json.dumps(A_EX_DOC).encode())
        os.close(w)
        assert cli.main(["picard", f"/dev/fd/{r}"]) == 0
    finally:
        os.close(r)
    assert json.loads(capsys.readouterr().out)["picard"]["rho_primal"] == 18


@pytest.mark.parametrize("denied", [("scandir",), ("stat", "scandir")])
def test_batch_unlistable_directory_is_an_input_error(tmp_path, capsys, monkeypatch, denied):
    """A directory that cannot be listed, or not even stat'ed, is one input
    error, reported before the output file is opened. The denial is
    monkeypatched, so the test holds for a user who may read everything."""
    _write(tmp_path, "a.json", A_EX_DOC)
    target = str(tmp_path)

    def deny(real):
        def call(path, *args, **kwargs):
            if os.fspath(path) == target:
                raise PermissionError(errno.EACCES, "Permission denied", target)
            return real(path, *args, **kwargs)

        return call

    for name in denied:
        monkeypatch.setattr(os, name, deny(getattr(os, name)))
    out = tmp_path / "out.ndjson"
    assert cli.main(["batch", target, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["category"]) == ("SemanticError", "input")
    assert err["message"] == f"cannot list {target}: Permission denied"
    assert not out.exists()


def test_non_utf8_document_is_a_parse_error(tmp_path, capsys):
    (tmp_path / "in.json").write_bytes(b'{"matrix": "\xff"}')
    assert cli.main(["picard", str(tmp_path / "in.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "ParseError"
    assert cli.main(["batch", str(tmp_path)]) == 1
    [entry] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert entry["error"]["kind"] == "ParseError"


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    """An unclosed nesting, and closed ones 65, 1,000, 2,000 and 10,000
    deep, bare and as the matrix, are each a ParseError, exit 1, with one
    message on every Python version, whether the C scanner stops at its own
    depth limit, which depends on the version, or reads the value."""
    closed = ["[" * n + "]" * n for n in (65, 1_000, 2_000, 10_000)]
    for text in ["[" * 100000, *closed, *(f'{{"matrix": {nested}}}' for nested in closed)]:
        (tmp_path / "deep.json").write_text(text)
        assert cli.main(["picard", str(tmp_path / "deep.json")]) == 1, text[:20]
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ParseError", text[:20]
        assert err["error"]["message"] == "document nests deeper than 64 levels", text[:20]


def test_batch_isolates_deeply_nested_document(tmp_path, capsys):
    (tmp_path / "deep.json").write_text("[" * 100000)
    _write(tmp_path, "good.json", A_EX_DOC)
    assert cli.main(["batch", str(tmp_path)]) == 1
    entries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(e["file"], e["status"]) for e in entries] == [("deep.json", "error"), ("good.json", "ok")]
    assert entries[0]["error"]["kind"] == "ParseError"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"matrix": ', "Expecting value: line 1 column 12 (char 11)"),
        ("{} x", "Extra data: line 1 column 4 (char 3)"),
    ],
    ids=["no value", "extra data"],
)
def test_malformed_document_reports_the_json_error(tmp_path, capsys, text, message):
    """A document json cannot read is json.loads's error, word for word,
    alone on stderr with exit 1, and as its line in a batch."""
    (tmp_path / "bad.json").write_text(text)
    error = {"kind": "ParseError", "category": "input", "message": f"invalid JSON: {message}"}
    assert cli.main(["picard", str(tmp_path / "bad.json")]) == 1
    assert capsys.readouterr() == ("", json.dumps({"error": error}, sort_keys=True) + "\n")
    assert cli.main(["batch", str(tmp_path)]) == 1
    line = {"error": error, "file": "bad.json", "status": "error"}
    assert capsys.readouterr() == (json.dumps(line, sort_keys=True) + "\n", "")


LONG_INTEGER_DOC = '{"matrix": [[1%s, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}' % ("0" * 5000)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or not 0 < sys.get_int_max_str_digits() < 5000,
    reason="the interpreter converts 5,000-digit integers",
)
def test_integer_beyond_the_conversion_limit_is_a_parse_error(tmp_path, capsys):
    """json refuses an integer longer than the interpreter converts with a
    bare ValueError, which is reported as the ParseError it is."""
    (tmp_path / "long.json").write_text(LONG_INTEGER_DOC)
    assert cli.main(["picard", str(tmp_path / "long.json")]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["kind"], err["category"]) == ("ParseError", "input")
    assert err["message"].startswith("invalid JSON: ")
    _write(tmp_path, "good.json", A_EX_DOC)
    assert cli.main(["batch", str(tmp_path)]) == 1
    entries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(e["file"], e["status"]) for e in entries] == [("good.json", "ok"), ("long.json", "error")]
    assert entries[1]["error"]["kind"] == "ParseError"


def test_reading_a_small_document_allocates_no_large_buffer(tmp_path):
    """A document is read in reads of at most READ_CHUNK_BYTES, so a small
    one costs no buffer of MAX_DOCUMENT_BYTES."""
    path = _write(tmp_path, "in.json", A_EX_DOC)
    tracemalloc.start()
    try:
        text = cli._read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(text) == A_EX_DOC
    assert peak < 128 * 1024


def test_oversized_document_is_a_parse_error(tmp_path, capsys):
    """A document is read up to one byte past MAX_DOCUMENT_BYTES, and one
    that long is refused, however valid its text; one at the limit is read."""
    doc = json.dumps(A_EX_DOC)
    (tmp_path / "big.json").write_text(doc + " " * (cli.MAX_DOCUMENT_BYTES + 1 - len(doc)))
    assert cli.main(["picard", str(tmp_path / "big.json")]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "ParseError"
    assert f"larger than {cli.MAX_DOCUMENT_BYTES} bytes" in err["message"]
    (tmp_path / "big.json").write_text(doc + " " * (cli.MAX_DOCUMENT_BYTES - len(doc)))
    assert cli.main(["picard", str(tmp_path / "big.json")]) == 0
    capsys.readouterr()


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_batch_isolates_a_document_without_end(tmp_path, capsys):
    """x.json links to /dev/zero, which never ends: its read stops past the
    limit, and it is one error line among the others."""
    _write(tmp_path, "a_good.json", A_EX_DOC)
    (tmp_path / "x.json").symlink_to("/dev/zero")
    assert cli.main(["batch", str(tmp_path)]) == 1
    entries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(e["file"], e["status"]) for e in entries] == [("a_good.json", "ok"), ("x.json", "error")]
    assert entries[1]["error"]["kind"] == "ParseError"
    assert f"larger than {cli.MAX_DOCUMENT_BYTES} bytes" in entries[1]["error"]["message"]


def test_batch_missing_directory(tmp_path, capsys):
    """A missing path, a file and a symlink loop are each not a directory."""
    (tmp_path / "file.json").write_text("{}")
    (tmp_path / "loop").symlink_to("loop")
    for name in ("nowhere", "file.json", "loop"):
        target = str(tmp_path / name)
        assert cli.main(["batch", target]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["category"], err["message"]) == ("input", f"not a directory: {target}")


# ---------------------------------------------------------------------------
# command-line grammar

# argv, FILE standing for in.json and DIR naming a directory -> the call it
# reaches: run_command's command and options, or _run_batch's directory,
# --out file and --quiet
ACCEPTED = [
    (["picard", "FILE"], ("picard", {"method": "all"})),
    (["picard", "FILE", "--method", "closed"], ("picard", {"method": "closed"})),
    (["picard", "--method", "kelly", "FILE"], ("picard", {"method": "kelly"})),
    (["picard", "--method=orbit", "FILE"], ("picard", {"method": "orbit"})),
    (["picard", "FILE", "--method=closed"], ("picard", {"method": "closed"})),
    (["--format", "text", "--quiet", "picard", "FILE"], ("picard", {"method": "all"})),
    (["--format=text", "validate", "FILE"], ("validate", {})),
    (["analyze", "FILE"], ("analyze", {})),
    (["mirror", "FILE"], ("mirror", {})),
    (["subgroups", "FILE"], ("subgroups", {})),
    (["scan", "FILE", "--primes-up-to", "30"], ("scan", {"primes_up_to": 30})),
    (["scan", "--primes-up-to=30", "FILE"], ("scan", {"primes_up_to": 30})),
    (["picard", "--", "-in.json"], ("picard", {"method": "all"})),
    (["picard", "--method", "closed", "--", "-in.json"], ("picard", {"method": "closed"})),
    (["batch", "DIR"], ("DIR", None, False)),
    (["batch", "DIR", "--out", "out.ndjson"], ("DIR", "out.ndjson", False)),
    (["--quiet", "batch", "--out=out.ndjson", "DIR"], ("DIR", "out.ndjson", True)),
]

# argv -> the class of usage error it is
USAGE_ERRORS = [
    ([], "no command"),
    (["--quiet"], "no command"),
    (["frob", "FILE"], "unknown command"),
    (["picard", "FILE", "--bogus"], "unknown option"),
    (["picard", "--meth", "closed", "FILE"], "abbreviated option"),
    (["picard", "-in.json"], "dash-leading file without --"),
    (["picard"], "missing positional"),
    (["batch"], "missing positional"),
    (["batch", "--out", "out.ndjson"], "missing positional"),
    (["picard", "FILE", "FILE"], "extra positional"),
    (["picard", "FILE", "--method", "nope"], "bad choice"),
    (["--format", "xml", "picard", "FILE"], "bad choice"),
    (["picard", "FILE", "--method"], "option without its value"),
    (["--quiet=yes", "picard", "FILE"], "flag with a value"),
    (["scan", "FILE", "--primes-up-to", "x"], "non-integer --primes-up-to"),
    (["scan", "FILE", "--primes-up-to=3.5"], "non-integer --primes-up-to"),
    (["scan", "FILE"], "missing required option"),
    (["picard", "FILE", "--quiet"], "global option after the command"),
    (["picard", "FILE", "--format", "text"], "global option after the command"),
]


@pytest.fixture
def recorded(tmp_path, monkeypatch):
    """The calls main makes to run_command and _run_batch, with in.json and
    -in.json holding A_EX_DOC in the working directory, and DIR a directory."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "in.json", A_EX_DOC)
    _write(tmp_path, "-in.json", A_EX_DOC)
    (tmp_path / "DIR").mkdir()
    calls = []

    def run_command(command, spec, **options):
        calls.append((command, options, spec))
        return {"x": 1}, cli.EXIT_OK

    def run_batch(directory, out_path, quiet):
        calls.append((directory, out_path, quiet))
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "run_command", run_command)
    monkeypatch.setattr(cli, "_run_batch", run_batch)
    return calls


def _argv(argv: list[str]) -> list[str]:
    return ["in.json" if a == "FILE" else a for a in argv]


def _cases(table: list) -> list:
    return [pytest.param(*case, id=" ".join(case[0]) or "(none)") for case in table]


@pytest.mark.parametrize("argv, call", _cases(ACCEPTED))
def test_accepted_command_line_reaches_its_call(argv, call, recorded, capsys):
    assert cli.main(_argv(argv)) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    if "batch" in argv:
        assert recorded == [call]
    else:
        assert recorded == [(*call, cli.parse_input(json.dumps(A_EX_DOC)))]


@pytest.mark.parametrize("argv, kind", _cases(USAGE_ERRORS))
def test_usage_error_exits_2_with_a_usage_line(argv, kind, recorded, capsys):
    """A command line outside the grammar returns 2 from main, raises
    nothing, runs nothing, and writes a usage line and one error line to
    stderr and nothing to stdout."""
    assert cli.main(_argv(argv)) == cli.EXIT_USAGE, kind
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: bhk ")
    assert error.startswith("bhk: error: ")
    assert recorded == []


# argv -> the rows its help must have, each a line's first words
HELP = [
    (["--help"], [*cli._COMMANDS, "batch", "--format {json,text}", "--quiet"]),
    (["-h", "picard", "FILE"], [*cli._COMMANDS, "batch"]),
    (["picard", "--help"], ["FILE", "--method {closed,kelly,orbit,all}"]),
    (["scan", "FILE", "-h"], ["FILE", "--primes-up-to N"]),
    (["batch", "--help"], ["DIR", "--out FILE"]),
]


@pytest.mark.parametrize("argv, listed", _cases(HELP))
def test_help_lists_the_commands_and_options(argv, listed, recorded, capsys):
    """Help goes to stdout with exit 0, before anything runs: the program's
    lists every command of the table, a command's its operand and options."""
    assert cli.main(_argv(argv)) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: bhk ")
    lines = captured.out.splitlines()
    for term in listed:
        assert any(line.split()[:len(term.split())] == term.split() for line in lines), term
    assert recorded == []


# ---------------------------------------------------------------------------
# console entry point


PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def _child_env() -> dict:
    """The environment of a child that imports the same bhk as this process, installed or not."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))}


def test_console_entry_point(tmp_path):
    path = _write(tmp_path, "in.json", A_EX_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "bhk.cli", "--quiet", "picard", path],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["picard", "batch"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, command):
    """The reader of stdout has gone, as in `bhk picard c.json | head -c 300`:
    the read end of the pipe is closed before the child starts, so its first
    write to stdout fails, and the child exits 1 with nothing on stderr."""
    path = _write(tmp_path, "in.json", A_EX_DOC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bhk.cli", command, path if command == "picard" else str(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args", [("picard", "in.json"), ("batch", "."), ("batch", ".", "--out", "/dev/full")], ids=" ".join
)
def test_failed_write_is_one_error_document(tmp_path, args):
    """A write to stdout or to batch's `--out` that fails otherwise than on a
    closed pipe, here on a full disk, is one error document on stderr, exit
    1, as an unopenable `--out` is, and no traceback."""
    _write(tmp_path, "in.json", A_EX_DOC)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bhk.cli", *args],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            cwd=tmp_path,
            env=_child_env(),
        )
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    target = args[-1] if "--out" in args else "stdout"
    message = f"cannot write {target}: {os.strerror(errno.ENOSPC)}"
    assert json.loads(line) == {"error": {"kind": "SemanticError", "category": "input", "message": message}}


def _modules_after(statement: str) -> set[str]:
    """The modules loaded once a child run with -I -S has run the statement:
    no environment, no site-packages, so nothing but the statement imports anything."""
    code = f"import sys; sys.path.insert(0, {PACKAGE_ROOT!r}); {statement}; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _loaded_by_import(modules: set[str]) -> list[str]:
    """Those of the modules that `import bhk.cli` loads."""
    return sorted(modules & _modules_after("import bhk.cli"))


def test_import_loads_only_what_the_standard_modules_it_uses_load():
    """Beyond what its standard-library imports load themselves, `import
    bhk.cli` loads only bhk, `collections.abc` and `__future__`: the records
    are plain classes and the annotations strings, so neither `typing` nor
    `contextlib` is loaded. Computed by difference, so the set holds on every
    Python version."""
    stdlib = _modules_after("import _json, os, math, functools, itertools, operator, errno, stat")
    extra = _modules_after("import bhk.cli") - stdlib
    allowed = {"bhk", "collections.abc", "__future__"}
    unexpected = sorted(m for m in extra if m not in allowed and not m.startswith("bhk."))
    assert not unexpected, f"import bhk.cli also loads {', '.join(unexpected)}"


def test_import_loads_neither_dataclasses_nor_inspect():
    """Every command pays for `import bhk.cli` once; `dataclasses`, and the
    `inspect` it imports, cost more than the rest of that import together."""
    assert _loaded_by_import({"dataclasses", "inspect"}) == []


def test_import_loads_no_pathlib():
    """The batch listing is one os.scandir pass, so `import bhk.cli` loads
    neither `pathlib` nor the modules only it brings in."""
    assert _loaded_by_import({"pathlib", "fnmatch", "urllib.parse", "ipaddress"}) == []


def _loaded_by_commands(tmp_path, modules: set[str]) -> list[str]:
    """Those of the modules loaded once `bhk.cli` is imported and `main` has
    run `--quiet picard FILE`, `--quiet batch DIR` and `--help` on a valid
    document, each with exit status 0."""
    path = _write(tmp_path, "in.json", A_EX_DOC)
    argvs = [["--quiet", "picard", path], ["--quiet", "batch", str(tmp_path)], ["--help"]]
    statement = (
        "import os, bhk.cli; stdout = sys.stdout; sys.stdout = open(os.devnull, 'w'); "
        f"statuses = [bhk.cli.main(argv) for argv in {argvs!r}]; sys.stdout.close(); sys.stdout = stdout; "
        "assert statuses == [0, 0, 0], statuses"
    )
    loaded = _modules_after(statement)
    assert "bhk.cli" in loaded  # the child ran to its end: no SystemExit came out of main
    return sorted(modules & loaded)


def test_import_loads_no_argparse(tmp_path):
    """The command line is parsed from the command table, so neither
    importing `bhk.cli` nor running a command, a batch or the help loads
    `argparse`, or the `gettext` that only it brings in."""
    assert _loaded_by_commands(tmp_path, {"argparse", "gettext"}) == []


def test_import_loads_no_json(tmp_path):
    """Documents are read and lines written through `_json`, CPython's C
    accelerator of `json`, so neither importing `bhk.cli` nor running a
    command, a batch or the help on valid documents loads `json`, or the
    `re` and `enum` it brings in."""
    modules = {"json", "json.decoder", "json.encoder", "json.scanner", "re", "enum"}
    assert _loaded_by_commands(tmp_path, modules) == []


# ---------------------------------------------------------------------------
# records


def _records():
    ws = Workspace(A_EX_ROWS, Characteristic(0))
    mp = ws.mirror
    scan = prime_scan(mp, [5])
    return {
        "Characteristic": ws.char,
        "DelsarteMatrix": ws.primal.matrix,
        "AdequacyReport": ws.pair.adequacy,
        "BhkPair": ws.pair,
        "MirrorPair": mp,
        "PicardReport": picard_report(mp),
        "ScanRow": scan.rows[0],
        "ScanReport": scan,
        "InputSpec": cli.parse_input(json.dumps(A_EX_DOC)),
        "_Command": cli._COMMANDS["picard"],
        "_Option": cli._COMMANDS["picard"].options["--method"],
        "Atom": ws.pair.adequacy.atoms[0],
    }


# record -> its fields, in order, and their defaults
RECORD_FIELDS = {
    "DelsarteMatrix": (("matrix", "det", "adjugate", "weights", "degree", "exponent", "b_matrix"), {}),
    "Atom": (("kind", "variables", "exponents"), {}),
    "AdequacyReport": (
        ("quasi_smooth", "well_formed", "weight_triple_gcd_ok", "char_ok", "verdict", "diagnostics", "atoms"),
        {"atoms": None},
    ),
    "BhkPair": (("matrix", "group", "char", "adequacy"), {}),
    "MirrorPair": (("primal", "mirror"), {}),
    "PicardReport": (("rho_primal", "rho_mirror", "methods", "set_sizes", "characteristic"), {}),
    "ScanRow": (
        (
            "prime",
            "residue_primal",
            "residue_mirror",
            "rho_primal",
            "rho_mirror",
            "supersingular_primal",
            "supersingular_mirror",
        ),
        {},
    ),
    "ScanReport": (
        (
            "degree",
            "mirror_degree",
            "rows",
            "skipped",
            "supersingular_primal_residues",
            "supersingular_mirror_residues",
        ),
        {},
    ),
    "InputSpec": (("matrix", "group_spec", "characteristic"), {}),
    "_Command": (
        ("help", "sections", "characteristic", "status_from_verdict", "operand", "options"),
        {"characteristic": None, "status_from_verdict": False, "operand": "FILE", "options": {}},
    ),
    "_Option": (
        ("help", "value", "default", "required", "convert"),
        {"default": None, "required": False, "convert": str},
    ),
}

# record -> the first line of its docstring, for those documented before the
# records were plain classes
RECORD_DOCS = {
    "DelsarteMatrix": "A validated matrix of exponents together with its cached derived data.",
    "Atom": "One atomic shape over some of the four variables.",
    "BhkPair": "A validated (matrix, group) pair at a fixed characteristic.",
    "InputSpec": "Parsed input document: matrix rows, group selector, characteristic.",
}


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_records_are_tuples_of_their_fields(name):
    """Each record is a tuple equal to the plain tuple of its fields, in the
    order of `_fields`; it is built from them by position or by name, with
    its defaults; it has no instance `__dict__` and keeps its docstring."""
    record = _records()[name]
    cls = type(record)
    fields, defaults = RECORD_FIELDS[name]
    assert (cls._fields, cls._field_defaults) == (fields, defaults)
    values = tuple(getattr(record, f) for f in fields)
    assert isinstance(record, tuple)
    assert record == values and [*record] == list(values)
    assert cls(*values) == record == cls(**dict(zip(fields, values)))
    required = len(fields) - len(defaults)
    assert cls(*values[:required]) == (*values[:required], *defaults.values())
    assert not hasattr(record, "__dict__")
    assert "__doc__" in vars(cls) and cls.__doc__.strip()
    assert cls.__doc__.startswith(RECORD_DOCS.get(name, ""))


def test_records_reject_a_wrong_set_of_fields():
    """A record built with a field missing, unknown, given twice or beyond the last is a TypeError."""
    for build in (
        lambda: cli.InputSpec(A_EX_ROWS, "J"),
        lambda: cli.InputSpec(A_EX_ROWS, "J", 0, 1),
        lambda: cli.InputSpec(A_EX_ROWS, "J", characteristic=0, extra=1),
        lambda: cli.InputSpec(A_EX_ROWS, "J", 0, matrix=A_EX_ROWS),
    ):
        with pytest.raises(TypeError, match="InputSpec"):
            build()


def test_scan_row_as_dict():
    assert _records()["ScanRow"]._asdict() == {
        "prime": 5,
        "residue_primal": 5,
        "residue_mirror": 5,
        "rho_primal": 18,
        "rho_mirror": 22,
        "supersingular_primal": False,
        "supersingular_mirror": True,
    }
    assert list(_records()["ScanRow"]._asdict()) == list(RECORD_FIELDS["ScanRow"][0])


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_no_record_is_built_by_a_class_factory():
    """Every record is a plain class statement: `typing.NamedTuple` and
    `collections.namedtuple` build each class with an `eval` at import."""
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and "NamedTuple" in map(_name, node.bases):
                found.append(f"{path.name}: class {node.name}")
            elif isinstance(node, ast.Call) and _name(node.func) == "namedtuple":
                found.append(f"{path.name}:{node.lineno}: namedtuple()")
    assert found == []


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_immutable(name):
    """Fields cannot be set, nor new attributes added; Characteristic is an
    int whose fields are its two properties."""
    record = _records()[name]
    assert type(record).__name__ == name
    for field in getattr(record, "_fields", ("p", "positive")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None
