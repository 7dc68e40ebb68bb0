"""Each derived object is built once per input. One CLI run is counted by
wrapping the stage functions at every binding inside the `bhk` package, so
calls made through a module's own import of a function are counted too."""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

import bhk.cli as cli

# Stage function -> the module that defines it.
COUNTED = {
    "build_delsarte": "bhk.delsarte",
    "aut_group": "bhk.symmetry",
    "sl_subgroup": "bhk.symmetry",
    "is_calabi_yau": "bhk.delsarte",
    "transcendental_set": "bhk.picard",
    "transcendental_set_orbits": "bhk.picard",
    "grading_set": "bhk.picard",
    "pairing": "bhk.duality",
    "atomic_decomposition": "bhk.smoothness",
    "_join": "bhk.symmetry",
}


def _counting(counts: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def calls(monkeypatch) -> Counter:
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
    assert calls["build_delsarte"] <= 2
    assert calls["aut_group"] == 0
    assert calls["sl_subgroup"] == 0
    # each set-level route once per side
    assert calls["transcendental_set"] == 2
    assert calls["transcendental_set_orbits"] == 2
    assert calls["grading_set"] == 2
    assert calls["pairing"] <= 16
    assert calls["atomic_decomposition"] <= 2


def test_subgroups_builds_each_side_once(tmp_path, capsys, calls):
    doc = {"matrix": [[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]], "group": "SL", "characteristic": 5}
    _run(tmp_path, capsys, "subgroups", doc)
    assert calls["build_delsarte"] <= 2
    assert calls["aut_group"] == 0
    assert calls["sl_subgroup"] == 0
    assert calls["is_calabi_yau"] <= 2  # not once per intermediate group
    assert calls["_join"] <= 200  # one join per cyclic subgroup of SL/J, not per element of SL
