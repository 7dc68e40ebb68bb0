"""Workload generator: the seed picks each workload's documents and ops.

Every document comes from the universe frozen in `oracle.json.gz` (see
`freeze.py`), so each one has a recorded expected outcome. The seed chooses
the group and characteristic of each matrix's document, the mix of batch
documents and the order of everything. The same seed gives the same ops.

An op is one in-process `bhk.cli.main(argv)` call. `generate` returns the
files the ops read and, for each op, its argv and expected outcome.
"""

from __future__ import annotations

import gzip
import json
import random
from collections import defaultdict
from pathlib import Path

ORACLE = Path(__file__).with_name("oracle.json.gz")

BATCH_DIRS = 64
BATCH_VALID = 3  # valid documents per directory, next to one rejection
# The traced counter self-check: one `bhk picard` on this document.
SELFCHECK_DOC = {
    "matrix": [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 7, 0], [0, 0, 0, 42]],
    "group": "SL",
    "characteristic": 0,
}


def load_oracle() -> dict:
    with gzip.open(ORACLE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def render(report: dict) -> str:
    """The CLI's JSON stdout for a report: sorted keys, indent 2, one trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _balanced(rng: random.Random, entries: list[dict]) -> list[dict]:
    """One document per (matrix, characteristic), the groups rotated per matrix.

    Every seed covers every matrix in every characteristic it accepts, so
    the slow combinations (a small loop in characteristic 7 costs 30 times
    its characteristic-0 document) are in every pool. The seed picks each
    matrix's rotation offset over its group options and the order.
    """
    cells = defaultdict(list)
    for entry in entries:
        cells[entry["matrix"], entry["doc"]["characteristic"]].append(entry)
    picked = []
    previous = None
    for position, ((matrix, _), options) in enumerate(sorted(cells.items())):
        options.sort(key=lambda e: json.dumps(e["doc"]["group"], sort_keys=True))
        if matrix != previous:
            previous, offset = matrix, rng.randrange(len(options)) - position
        picked.append(options[(offset + position) % len(options)])
    rng.shuffle(picked)
    return picked


def _single_ops(command: str, entries: list[dict], work: Path, files: dict, stem: str) -> list[dict]:
    ops = []
    for i, entry in enumerate(entries):
        path = work / f"{stem}-{i:03d}.json"
        files[path] = json.dumps(entry["doc"])
        ops.append(
            {"argv": [command, str(path)], "docs": 1, "status": 0, "stdout": render(entry["report"])}
        )
    return ops


def _picard_single(oracle, rng, work, files):
    # Why: the full pipeline, one document per op, on matrices of every atomic
    # structure with |det| from tens to about 2,000, in characteristic 0 and
    # each good prime. The hot layer flips with the input: duality (dual group
    # and pairing) on large |det| in characteristic 0, the transcendental sets
    # in positive characteristic.
    return _single_ops("picard", _balanced(rng, oracle["picard"]), work, files, "picard")


def _subgroups_lattice(oracle, rng, work, files):
    # Why: `bhk subgroups` on matrices with at least one group strictly between
    # J and SL (the Fermat quartic has 15 in all). The work is
    # enumerate_intermediate plus one dual group per subgroup and no Picard
    # route runs, so a picard-only change must leave this workload unchanged.
    return _single_ops("subgroups", _balanced(rng, oracle["subgroups"]), work, files, "subgroups")


def _fill(directories: list[dict], entries: list[dict]) -> None:
    """Add entries in rounds of one per directory, heaviest entry to the lightest directory.

    Op cost then varies little between directories, so the median batch op
    does not hinge on how the seed happened to group the documents.
    """
    entries = sorted(entries, key=lambda e: e["cost_ms"], reverse=True)
    for start in range(0, len(entries), len(directories)):
        lightest = sorted(directories, key=lambda d: d["cost_ms"])
        for directory, entry in zip(lightest, entries[start : start + len(directories)]):
            directory["entries"].append(entry)
            directory["cost_ms"] += entry["cost_ms"]


def _batch_mixed(oracle, rng, work, files):
    # Why: `bhk batch DIR --out FILE` over three valid picard documents and one
    # rejection per directory, so the same layers also take the rejection
    # path and the NDJSON write path. Each of the eight rejection classes in
    # freeze.py appears BATCH_DIRS / 8 times per seed, including the non-Calabi-Yau
    # diag(12,12,12,12) that enumerates 20,736 elements before it is
    # rejected; a fail-fast change should move this workload and no other.
    # A directory named `x.json` is left out: at the commit that defined the
    # benchmark it aborts the whole batch, so every op would fail.
    valid = _balanced(rng, oracle["picard"])
    while len(valid) < BATCH_VALID * BATCH_DIRS:
        valid.append(rng.choice(valid))
    by_class = defaultdict(list)
    for entry in oracle["rejections"]:
        by_class[entry["class"]].append(entry)
    rejections = []
    for cls in sorted(by_class):
        rejections.extend(rng.choices(by_class[cls], k=BATCH_DIRS // len(by_class)))
    directories = [{"cost_ms": 0, "entries": []} for _ in range(BATCH_DIRS)]
    _fill(directories, valid[: BATCH_VALID * BATCH_DIRS])
    _fill(directories, rejections)
    rng.shuffle(directories)
    ops = []
    for i, chosen in enumerate(directories):
        directory = work / f"batch-{i:03d}"
        expected = {}
        for entry in chosen["entries"]:
            name = f"{rng.getrandbits(32):08x}.json"
            while name in expected:
                name = f"{rng.getrandbits(32):08x}.json"
            if "report" in entry:
                files[directory / name] = json.dumps(entry["doc"])
                line = {"file": name, "report": entry["report"], "status": "ok"}
                expected[name] = {"line": json.dumps(line, sort_keys=True)}
            else:
                files[directory / name] = entry["text"]
                expected[name] = {"category": entry["category"]}
        out = work / f"batch-{i:03d}.ndjson"
        ops.append(
            {
                "argv": ["batch", str(directory), "--out", str(out)],
                "docs": len(expected),
                "status": 1,  # every directory holds one rejection
                "out": str(out),
                "lines": [dict(expected[name], file=name) for name in sorted(expected)],
            }
        )
    return ops


WORKLOADS = {
    "picard-single": _picard_single,
    "subgroups-lattice": _subgroups_lattice,
    "batch-mixed": _batch_mixed,
}


def generate(workload: str, seed: int, work: Path) -> tuple[dict, list[dict], dict]:
    """Files to write, the ops of one workload, and the counter self-check op."""
    oracle = load_oracle()
    rng = random.Random(f"{workload}:{seed}")
    files: dict[Path, str] = {}
    ops = WORKLOADS[workload](oracle, rng, work, files)
    selfcheck = next(e for e in oracle["picard"] if e["doc"] == SELFCHECK_DOC)
    [check_op] = _single_ops("picard", [selfcheck], work, files, "selfcheck")
    return files, ops, check_op
