"""Command line contract: input parsing, document shape, exit codes,
determinism, and batch processing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bhk.cli as cli
from bhk.delsarte import Characteristic
from bhk.duality import Workspace
from bhk.errors import InternalCheckError, ParseError, SemanticError, TooLarge
from bhk.symmetry import SymmetrySubgroup
from bhk.picard import picard_report, prime_scan
from conftest import A_EX_ROWS, A_F_ROWS
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


def _doctor_lattice(monkeypatch, doctor) -> None:
    """Replace `Workspace.lattice` by doctor(ws, lattice) over the real one."""
    real = Workspace.lattice.func
    monkeypatch.setattr(Workspace, "lattice", property(lambda ws: doctor(ws, real(ws))))


def test_subgroups_duality_check_catches_a_repeated_dual(monkeypatch):
    """A lattice that gives SL the dual of J makes G -> G^T non-injective."""

    def repeated(ws, lattice):
        j_dual = lattice[0][1]
        return [(g, j_dual if g == ws.primal.sl else dual) for g, dual in lattice]

    _doctor_lattice(monkeypatch, repeated)
    with pytest.raises(InternalCheckError, match="not injective"):
        cli.run_command("subgroups", cli.parse_input(json.dumps(A_EX_DOC)))


def test_subgroups_duality_check_catches_swapped_duals(monkeypatch):
    """Giving J the dual of SL and SL the dual of J keeps G -> G^T injective but
    no longer inclusion-reversing."""

    def swapped(ws, lattice):
        duals = dict(lattice)
        j, sl = ws.primal.j, ws.primal.sl
        return [(g, duals[sl] if g == j else duals[j] if g == sl else dual) for g, dual in lattice]

    _doctor_lattice(monkeypatch, swapped)
    with pytest.raises(InternalCheckError, match="reverse inclusion"):
        cli.run_command("subgroups", cli.parse_input(json.dumps(A_EX_DOC)))


def test_subgroups_duality_check_requires_the_dual_of_sl_to_be_j_of_the_transpose(monkeypatch):
    """Negating the second coordinate is an automorphism of Aut(A^T) = (Z/4)^4
    for the Fermat quartic. Applied to every dual it keeps their orders, and
    G -> G^T injective and inclusion-reversing, but moves J^T = <(1,1,1,1)>
    to <(1,3,1,1)>; only the comparison with J of the transpose catches it."""

    def negated(ws, lattice):
        d = ws.primal.matrix.exponent

        def negate(group):
            return SymmetrySubgroup(d, [(a0, -a1 % d, a2, a3) for a0, a1, a2, a3 in group])

        return [(g, negate(dual)) for g, dual in lattice]

    _doctor_lattice(monkeypatch, negated)
    with pytest.raises(InternalCheckError, match="differs from J of the transpose"):
        cli.run_command("subgroups", cli.parse_input(json.dumps({"matrix": [list(r) for r in A_F_ROWS]})))


@pytest.mark.parametrize(
    "doctored, message",
    [
        ("J", "the dual of J differs from SL of the transpose"),
        ("SL", "the dual of SL differs from J of the transpose"),
    ],
)
def test_mirror_section_checks_its_printed_equalities(monkeypatch, doctored, message):
    """A dual solve that hands J the dual of SL, or SL the dual of J, turns
    one printed equality false, which is an internal error, not a report."""
    real = Workspace.dual

    def swapped(ws, g):
        j, sl = ws.primal.j, ws.primal.sl
        if doctored == "J" and g == j:
            return real(ws, sl)
        if doctored == "SL" and g == sl:
            return real(ws, j)
        return real(ws, g)

    monkeypatch.setattr(Workspace, "dual", swapped)
    with pytest.raises(InternalCheckError, match=message):
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


def test_batch_reports_unreadable_entry(tmp_path, capsys):
    """A directory named like a document is one error line; the other files still run."""
    _write(tmp_path, "a_good.json", A_EX_DOC)
    (tmp_path / "x.json").mkdir()
    assert cli.main(["batch", str(tmp_path)]) == 1
    entries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(e["file"], e["status"]) for e in entries] == [("a_good.json", "ok"), ("x.json", "error")]
    assert entries[1]["error"]["kind"] == "ParseError"
    assert entries[1]["error"]["category"] == "input"


def test_non_utf8_document_is_a_parse_error(tmp_path, capsys):
    (tmp_path / "in.json").write_bytes(b'{"matrix": "\xff"}')
    assert cli.main(["picard", str(tmp_path / "in.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "ParseError"
    assert cli.main(["batch", str(tmp_path)]) == 1
    [entry] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert entry["error"]["kind"] == "ParseError"


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    (tmp_path / "deep.json").write_text("[" * 100000)
    assert cli.main(["picard", str(tmp_path / "deep.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "ParseError"


def test_batch_isolates_deeply_nested_document(tmp_path, capsys):
    (tmp_path / "deep.json").write_text("[" * 100000)
    _write(tmp_path, "good.json", A_EX_DOC)
    assert cli.main(["batch", str(tmp_path)]) == 1
    entries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(e["file"], e["status"]) for e in entries] == [("deep.json", "error"), ("good.json", "ok")]
    assert entries[0]["error"]["kind"] == "ParseError"


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
    assert cli.main(["batch", str(tmp_path / "nowhere")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "input"


# ---------------------------------------------------------------------------
# console entry point


def test_console_entry_point(tmp_path):
    path = _write(tmp_path, "in.json", A_EX_DOC)
    # The child must import the same bhk as this process, installed or not.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "bhk.cli", "--quiet", "picard", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["picard", "batch"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, command):
    """The reader of stdout has gone, as in `bhk picard c.json | head -c 300`:
    the read end of the pipe is closed before the child starts, so its first
    write to stdout fails, and the child exits 1 with nothing on stderr."""
    path = _write(tmp_path, "in.json", A_EX_DOC)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bhk.cli", command, path if command == "picard" else str(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_import_loads_neither_dataclasses_nor_inspect():
    """Every command pays for `import bhk.cli` once; `dataclasses`, and the
    `inspect` it imports, cost more than the rest of that import together."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {package_root!r}); import bhk.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    # -I -S: no environment, no site-packages, so nothing but bhk imports anything
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_immutable(name):
    record = _records()[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
