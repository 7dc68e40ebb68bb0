"""Each derived object is built once per input. One CLI run is counted by
wrapping the stage functions at every binding inside the `bhk` package, so
calls made through a module's own import of a function are counted too. The
size of every group join is recorded as well: no command enumerates Aut, so
no join may reach |det| elements. The transpose takes its determinant and
adjugate from A, and the direct and orbit routes read one unit-orbit
partition per group, so each of those is built once per side."""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

import bhk.cli as cli

# Stage function -> the module that defines it.
COUNTED = {
    "build_delsarte": "bhk.delsarte",
    "is_calabi_yau": "bhk.delsarte",
    "det_adjugate": "bhk.arith",
    "aged_elements": "bhk.picard",
    "_direct_route": "bhk.picard",
    "_orbit_route": "bhk.picard",
    "grading_set": "bhk.picard",
    "_raw_pairing": "bhk.duality",
    "atomic_decomposition": "bhk.smoothness",
    "_join": "bhk.symmetry",
}


def _counting(counts: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        result = fn(*args, **kwargs)
        if name == "_join":
            counts["largest join"] = max(counts["largest join"], len(result))
        return result

    return wrapper


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Calls per counted function, plus the element count of the largest join."""
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


def test_picard_builds_each_object_once(tmp_path, capsys, calls):
    # J = SL on this matrix, so the pair has a single dual group.
    doc = {"matrix": [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 7, 0], [0, 0, 0, 42]], "group": "SL"}
    _run(tmp_path, capsys, "picard", doc)
    assert calls["build_delsarte"] == 1
    assert calls["det_adjugate"] == 1  # A^T reuses det(A) and adj(A)
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
    assert calls["_raw_pairing"] == 3  # each solved dual generator against each group generator
    assert calls["atomic_decomposition"] <= 2


def test_subgroups_builds_each_side_once(tmp_path, capsys, calls, monkeypatch):
    import bhk.duality as duality

    real = duality.kernel_mod
    solves = []
    monkeypatch.setattr(duality, "kernel_mod", lambda rows, d: solves.append(rows) or real(rows, d))
    doc = {"matrix": [[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]], "group": "SL", "characteristic": 5}
    _run(tmp_path, capsys, "subgroups", doc)
    assert calls["build_delsarte"] <= 2
    assert 0 < calls["largest join"] < 256  # |det|: Aut is never enumerated
    assert calls["is_calabi_yau"] <= 2  # not once per intermediate group
    # the lattice is walked on the cosets of J, so element joins only build
    # SL, J, J^T, the dual of J and the printed generators
    assert calls["_join"] <= 46
    # the dual of J is the one solve; each of the other 14 duals is the part
    # of a largest smaller group's dual that pairs to zero with one element
    assert solves == [((1, 1, 1, 1),)]  # over the generator of J
    assert calls["_raw_pairing"] == 475
