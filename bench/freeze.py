"""Freeze the benchmark's document universe and its correctness oracle.

    python3 bench/freeze.py

Enumerates the matrices and documents every workload draws from, runs each
document once through the CLI of the `bhk` found under `src/`, and writes
`bench/oracle.json.gz`. The file was written from the commit that defined
the benchmark, and the benchmark treats it as the expected output from then
on: a valid document must reproduce its report byte for byte, and a
rejection must end with its recorded exit status and error category.

Re-running this script replaces the oracle with the current program's
outputs, so run it only when a change to the expected output is intended.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
import tempfile
from itertools import product
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ORACLE = BENCH / "oracle.json.gz"

# Atomic structures (kind, size) covering four variables: the ten ways to
# split a four-variable invertible potential into Fermat, chain and loop atoms.
STRUCTURES = (
    (("fermat", 1), ("fermat", 1), ("fermat", 1), ("fermat", 1)),
    (("fermat", 1), ("fermat", 1), ("chain", 2)),
    (("fermat", 1), ("chain", 3)),
    (("chain", 2), ("chain", 2)),
    (("chain", 4),),
    (("fermat", 1), ("fermat", 1), ("loop", 2)),
    (("fermat", 1), ("loop", 3)),
    (("loop", 4),),
    (("loop", 2), ("loop", 2)),
    (("chain", 2), ("loop", 2)),
)
MAX_DET = 2100
PER_STRUCTURE = 5
GOOD_PRIME_CANDIDATES = (5, 7, 11, 13)
NONCY_FERMAT_N = 12  # diag(12,12,12,12): its rejection costs about a heavy valid document
README_CHAIN = ((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 6, 1), (0, 0, 0, 7))


def rows_for(structure, exponents) -> tuple:
    """Exponent matrix of the potential with the given atoms on consecutive variables."""
    rows = [[0, 0, 0, 0] for _ in range(4)]
    v = 0
    for kind, size in structure:
        for k in range(size):
            rows[v + k][v + k] = exponents[v + k]
            if kind == "chain" and k + 1 < size:
                rows[v + k][v + k + 1] = 1
            elif kind == "loop":
                rows[v + k][v + (k + 1) % size] = 1
        v += size
    return tuple(tuple(r) for r in rows)


def exponent_tuples(limit: int):
    """All 4-tuples of exponents >= 2 whose product is at most the limit."""
    for a in range(2, limit // 8 + 1):
        for b in range(2, limit // (4 * a) + 1):
            for c in range(2, limit // (2 * a * b) + 1):
                for d in range(2, limit // (a * b * c) + 1):
                    yield (a, b, c, d)


def cli_run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def adequate_matrices(bhk):
    """Calabi-Yau matrices, adequate on both sides in characteristic 0, by structure."""
    char0 = bhk.Characteristic(0)
    by_structure: dict[int, dict] = {}
    for si, structure in enumerate(STRUCTURES):
        found = by_structure.setdefault(si, {})
        for exps in exponent_tuples(MAX_DET + 100):
            rows = rows_for(structure, exps)
            # Fermat blocks commute, so sorted exponents name one matrix up to relabelling.
            key = tuple(sorted(exps)) if si == 0 else rows
            if key in found:
                continue
            try:
                m = bhk.build_delsarte(rows, char0)
                if abs(m.det) > MAX_DET or not bhk.is_calabi_yau(m):
                    continue
                if not bhk.adequacy(m, None, char0).verdict:
                    continue
                if not bhk.adequacy(bhk.transpose(m, char0), None, char0).verdict:
                    continue
            except bhk.BhkError:
                continue
            found[key] = (abs(m.det), rows)
    return {si: sorted(found.values()) for si, found in by_structure.items()}


def spread(items, k):
    """k items at evenly spaced ranks of a sorted list (all of them if fewer)."""
    n = len(items)
    return [items[i] for i in sorted({round(j * (n - 1) / (k - 1)) for j in range(k)})]


def group_options(bhk, rows):
    """J, SL and the middle group strictly between them, as document `group` values."""
    m = bhk.build_delsarte(rows, bhk.Characteristic(0))
    j, sl = bhk.j_subgroup(m), bhk.sl_subgroup(bhk.aut_group(m))
    options = ["J", "SL"]
    between = [g for g in bhk.enumerate_intermediate(j, sl) if g != j and g != sl]
    if between:
        middle = between[len(between) // 2]
        options.append({"generators": [list(g.coords) for g in middle.generators]})
    return options, len(between) + (2 if j != sl else 1)


def valid_documents(bhk, main, work: Path, command: str, matrices):
    """Every (matrix, group, characteristic) document that the command accepts, with its report.

    `cost_ms` is the op time measured here, once; the batch workload uses it
    only to balance its directories.
    """
    entries = []
    path = work / "doc.json"
    for index, (det, rows) in enumerate(matrices):
        groups, _ = group_options(bhk, rows)
        for group, char in product(groups, (0,) + GOOD_PRIME_CANDIDATES):
            doc = {"matrix": [list(r) for r in rows], "group": group, "characteristic": char}
            path.write_text(json.dumps(doc))
            start = perf_counter()
            status, out, _ = cli_run(main, [command, str(path)])
            cost_ms = round((perf_counter() - start) * 1000)
            if status == 0:
                report = json.loads(out)
                entries.append({"matrix": index, "doc": doc, "report": report, "cost_ms": cost_ms})
            elif char == 0:
                raise SystemExit(f"{command} rejects {doc} in characteristic 0")
    return entries


def rejection_documents(picard_matrices):
    """Documents of every rejection class the batch workload mixes in, as raw text."""
    docs = []

    def add(cls, value):
        docs.append({"class": cls, "text": value if isinstance(value, str) else json.dumps(value)})

    for index, (det, rows) in enumerate(picard_matrices):
        base = {"matrix": [list(r) for r in rows], "group": "J", "characteristic": 0}
        add("malformed-json", json.dumps(base)[:-1])
        add("unknown-key", dict(base, note="extra"))
        add("nonprime-char", dict(base, characteristic=(4, 9, 15, 25)[index % 4]))
        divisor = next(p for p in range(2, det + 1) if det % p == 0)
        add("char-divides-det", dict(base, characteristic=divisor))
        add("generator-outside-sl", dict(base, group={"generators": [[1, 0, 0, 0]]}))
    for a, b, c in product((2, 3, 4), repeat=3):
        add("singular", {"matrix": [[a, 1, 0, 0], [a, 1, 0, 0], [0, 0, b, 0], [0, 0, 0, c]]})
    return docs


def noncy_documents(bhk):
    """Non-Calabi-Yau loops and the large non-Calabi-Yau Fermat matrix."""
    docs = []
    loop = STRUCTURES[7]
    for exps in product((2, 3, 4), repeat=4):
        rows = rows_for(loop, exps)
        if not bhk.is_calabi_yau(bhk.build_delsarte(rows, bhk.Characteristic(0))):
            docs.append({"class": "noncy-loop", "text": json.dumps({"matrix": [list(r) for r in rows]})})
    n = NONCY_FERMAT_N
    fermat = [[n if i == j else 0 for j in range(4)] for i in range(4)]
    for char in (0, 5, 7, 11, 13):
        docs.append(
            {"class": "noncy-fermat", "text": json.dumps({"matrix": fermat, "characteristic": char})}
        )
    return docs


def check_rejections(main, work: Path, docs):
    """Time each rejection as one `bhk picard`, then record its error category
    from one `bhk batch` over all of them."""
    batch = work / "batch"
    batch.mkdir()
    for i, entry in enumerate(docs):
        path = batch / f"{i:05d}.json"
        path.write_text(entry["text"])
        start = perf_counter()
        status, _, _ = cli_run(main, ["picard", str(path)])
        entry["cost_ms"] = round((perf_counter() - start) * 1000)
        if status != 1:
            raise SystemExit(f"picard exits {status} on rejection {entry}")
    out = work / "out.ndjson"
    status, _, _ = cli_run(main, ["batch", str(batch), "--out", str(out)])
    lines = out.read_text().splitlines()
    if status != 1 or len(lines) != len(docs):
        raise SystemExit(f"rejection batch: status {status}, {len(lines)} lines for {len(docs)} docs")
    for entry, line in zip(docs, lines):
        result = json.loads(line)
        if result["status"] != "error":
            raise SystemExit(f"not rejected: {entry}")
        entry["category"] = result["error"]["category"]
        if entry["category"] != "input":
            raise SystemExit(f"rejected as {entry['category']}: {entry}")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import bhk
    from bhk.cli import main as cli_main

    by_structure = adequate_matrices(bhk)
    picard_matrices = [m for si in sorted(by_structure) for m in spread(by_structure[si], PER_STRUCTURE)]
    readme = bhk.build_delsarte(README_CHAIN, bhk.Characteristic(0))
    if README_CHAIN not in [rows for _, rows in picard_matrices]:
        picard_matrices.append((abs(readme.det), README_CHAIN))
    lattice_matrices = [
        (det, rows)
        for si in sorted(by_structure)
        for det, rows in by_structure[si]
        if group_options(bhk, rows)[1] >= 3
    ]
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        work = Path(tmp)
        oracle = {
            "picard": valid_documents(bhk, cli_main, work, "picard", picard_matrices),
            "subgroups": valid_documents(bhk, cli_main, work, "subgroups", lattice_matrices),
            "rejections": rejection_documents(picard_matrices) + noncy_documents(bhk),
        }
        check_rejections(cli_main, work, oracle["rejections"])
    with gzip.open(ORACLE, "wt", encoding="utf-8") as fh:
        json.dump(oracle, fh, sort_keys=True, separators=(",", ":"))
    print(
        f"{len(picard_matrices)} picard matrices, {len(oracle['picard'])} documents; "
        f"{len(lattice_matrices)} lattice matrices, {len(oracle['subgroups'])} documents; "
        f"{len(oracle['rejections'])} rejections -> {ORACLE.relative_to(ROOT)}"
    )


if __name__ == "__main__":
    main()
