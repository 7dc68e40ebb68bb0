"""Each derived object is built once per input. One CLI run is counted by
wrapping the stage functions at every binding inside the `bhk` package, so
calls made through a module's own import of a function are counted too. The
size of every group join is recorded as well: no command enumerates Aut, so
no join may reach |det| elements. Joins are also pinned by the elements
they build in all, and pairings by the elements passed through the one
batched pairing product. The transpose takes its determinant and
adjugate from A, and the direct and orbit routes read one unit-orbit
partition per group, so each of those is built once per side. Smith-normal-
form solves are counted too: SL of A^T is the dual of J. No
command builds SL to check a pair, or an adequacy report it does not print
or decide on, a symmetric A is not derived again as its own transpose, and
no Workspace outlives its run."""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

import bhk.cli as cli

# Stage function -> the module that defines it.
COUNTED = {
    "build_delsarte": "bhk.delsarte",
    "transpose": "bhk.delsarte",
    "is_calabi_yau": "bhk.delsarte",
    "det_adjugate": "bhk.arith",
    "aged_elements": "bhk.picard",
    "_direct_route": "bhk.picard",
    "_orbit_route": "bhk.picard",
    "grading_set": "bhk.picard",
    "_pairings": "bhk.duality",
    "atomic_decomposition": "bhk.smoothness",
    "_join": "bhk.symmetry",
}


def _counting(counts: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        result = fn(*args, **kwargs)
        if name == "_join":
            counts["largest join"] = max(counts["largest join"], len(result))
            counts["join elements"] += len(result)
        if name == "_pairings":
            counts["paired elements"] += len(result)
        return result

    return wrapper


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Calls per counted function, plus the element count of the largest
    join, the elements built by all joins and the elements paired."""
    counts: Counter = Counter()
    for name, home in COUNTED.items():
        original = getattr(sys.modules[home], name)
        wrapper = _counting(counts, name, original)
        for mod_name, module in list(sys.modules.items()):
            if (mod_name == "bhk" or mod_name.startswith("bhk.")) and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


def _run(tmp_path, capsys, command: str, doc: dict) -> None:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 0
    capsys.readouterr()


@pytest.fixture
def solves(monkeypatch) -> list:
    """The rows of every Smith-normal-form solve, in order: `sl_group` is the
    only solve, and every dual group is filtered from SL of the transpose."""
    import bhk.symmetry as symmetry

    real = symmetry.kernel_mod
    rows_solved: list = []
    monkeypatch.setattr(symmetry, "kernel_mod", lambda rows, d: rows_solved.append(rows) or real(rows, d))
    return rows_solved


CHAIN = {"matrix": [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 6, 1], [0, 0, 0, 7]], "group": "J"}


def test_picard_solves_sl_of_the_transpose_and_the_dual_of_j_once(tmp_path, capsys, calls, solves):
    """The row sums of B are j, so SL of A^T, which is the dual of J, is the
    solve over the rows (j); on the chain with J the other is SL of A. The
    dual of SL is filtered from the dual of J, not solved: each of the 24
    elements of the dual of J is paired once with the one generator of SL."""
    _run(tmp_path, capsys, "picard", CHAIN)
    j, j_t = (48, 72, 24, 24), (84, 42, 21, 21)
    assert len(solves) == 2
    assert solves.count((j,)) == 1
    assert solves.count((j_t,)) == 1  # SL of A: the column sums of B are j of A^T
    # the 24 elements of the dual of J against the generator of SL; the dual
    # of J is SL^T itself, filtered by no element
    assert calls["paired elements"] == 24
    assert calls["transpose"] == 1  # A != A^T
    assert calls["det_adjugate"] == 1  # A^T reuses det(A) and adj(A)
    assert calls["atomic_decomposition"] == 2  # one adequacy report per side


def test_picard_builds_each_object_once(tmp_path, capsys, calls, solves):
    # J = SL on this matrix, so the pair has a single dual group.
    doc = {"matrix": [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 7, 0], [0, 0, 0, 42]], "group": "SL"}
    _run(tmp_path, capsys, "picard", doc)
    # A = A^T, so the two sides are one, and SL of A, SL of A^T, the dual of
    # J and so of G = SL = J are one solve, over the rows (j)
    assert solves == [((21, 14, 6, 1),)]
    assert calls["build_delsarte"] == 1
    assert calls["det_adjugate"] == 1
    assert calls["transpose"] == 0  # A = A^T is seen before A^T is derived
    assert 0 < calls["largest join"] < 1764  # |det|: Aut is never enumerated
    # a solve's redundant generators are skipped, and SL of A^T, which is only
    # counted and compared, is never walked for generators
    assert calls["_join"] <= 15
    # each set-level route once per side, the direct and orbit routes from one
    # table of aged elements per side
    assert calls["_direct_route"] == 2
    assert calls["_orbit_route"] == 2
    assert calls["grading_set"] == 2
    assert calls["aged_elements"] == 2
    assert calls["paired elements"] == 0  # G = J: its dual is SL^T, filtered by no element
    assert calls["atomic_decomposition"] == 2  # the pair's report and the mirror's


def test_subgroups_builds_each_side_once(tmp_path, capsys, calls, solves):
    doc = {"matrix": [[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]], "group": "SL", "characteristic": 5}
    _run(tmp_path, capsys, "subgroups", doc)
    assert calls["build_delsarte"] <= 2
    assert 0 < calls["largest join"] < 256  # |det|: Aut is never enumerated
    assert calls["is_calabi_yau"] <= 2  # not once per intermediate group
    assert calls["transpose"] == 0  # A = A^T
    assert calls["atomic_decomposition"] == 0  # subgroups prints no adequacy report
    # the lattice is walked on the cosets of J, so element joins only build
    # SL, J, J^T, the dual of J and the printed generators, and each greedy
    # walk for generators stops at the pick that spans its group, without
    # building that last join
    assert calls["_join"] <= 27
    assert calls["join elements"] <= 202
    # SL is the one solve, and the dual of J is SL itself, as A = A^T; each
    # of the other 14 duals is the part of a largest smaller group's dual
    # that pairs to zero with one element
    assert solves == [((1, 1, 1, 1),)]  # over the generator of J
    assert calls["paired elements"] == 472


@pytest.mark.parametrize(
    "command, status, kind",
    [
        ("validate", 1, None),
        ("analyze", 0, None),
        ("subgroups", 1, "NonpositiveWeight"),
        ("picard", 1, "NotAdequate"),
        ("mirror", 1, "NotAdequate"),
    ],
)
def test_pair_check_builds_no_sl(tmp_path, capsys, monkeypatch, command, status, kind):
    """G <= SL is decided on the generators G is resolved from, and |SL| is
    printed from `check_sl_order`, so on rows whose SL has 9,216 elements
    (and whose transpose has a nonpositive weight) no command builds SL."""
    import bhk.duality as duality

    built = []
    real = duality.sl_group
    monkeypatch.setattr(duality, "sl_group", lambda m: built.append(m) or real(m))
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": [[96, 0, 0, 0], [0, 96, 0, 0], [0, 0, 96, 0], [3, 0, 0, 1]]}))
    assert cli.main([command, str(path)]) == status
    captured = capsys.readouterr()
    if kind is None:
        assert json.loads(captured.out)["adequacy"]["verdict"] is False
        if command == "analyze":
            assert json.loads(captured.out)["groups"]["sl_order"] == 9216
    else:
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["kind"] == kind
    assert built == []


def test_workspace_is_freed_without_the_cycle_collector(tmp_path, capsys, monkeypatch):
    """Nothing a Workspace builds refers back to it, so it is freed by
    reference counting as soon as a command returns; a cycle through it
    would keep every group of the run alive until the cycle collector ran."""
    import gc
    import weakref

    import bhk.duality as duality

    refs = []
    real_init = duality.Workspace.__init__

    def init(ws, *args, **kwargs):
        refs.append(weakref.ref(ws))
        real_init(ws, *args, **kwargs)

    monkeypatch.setattr(duality.Workspace, "__init__", init)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(CHAIN))
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert cli.main(["picard", str(path)]) == 0
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize(
    "rows, group",
    [
        ([[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]], ((1, 1, 1, 1), (0, 0, 2, 2))),
        (CHAIN["matrix"], "SL"),
    ],
)
def test_dual_above_j_solves_nothing(solves, rows, group):
    """Once the dual of J is solved, the dual of every G above J, in the
    lattice or given by generators, is derived from it without a solve."""
    from bhk import Characteristic, Workspace, enumerate_intermediate

    ws = Workspace(rows, Characteristic(0), group)
    j = ws.primal.j
    above = [g for g in enumerate_intermediate(j, ws.primal.sl) if g != j] + [ws.group]
    ws.dual(j)
    solves.clear()
    for g in above:
        ws.dual(g)
    assert solves == []
