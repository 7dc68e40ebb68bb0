"""Byte-for-byte CLI contract. Every command in both formats, on the five
conftest matrices and one Calabi-Yau matrix that is not quasi-smooth, with
groups J and SL in characteristics 0 and 5, replayed against the stdout,
stderr and exit status frozen in data/cli_golden.json.gz. Rejections
(non-Calabi-Yau matrix, characteristic 5 dividing the determinant, an
inadequate pair) are pinned the same way as reports.

The file is written by running this module as a script from the repository
root, only when an output change is intended:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
from pathlib import Path

import pytest

import bhk.cli as cli
from conftest import A_EX_ROWS, A_F_ROWS, LOOP_ROWS, MIXED_ROWS, NONCY_LOOP_ROWS
from test_smoothness import CY_NOT_QS_ROWS

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json.gz"
MATRICES = {
    "chain": A_EX_ROWS,
    "fermat": A_F_ROWS,
    "loop": LOOP_ROWS,
    "mixed": MIXED_ROWS,
    "noncy-loop": NONCY_LOOP_ROWS,
    "cy-not-qs": CY_NOT_QS_ROWS,
}
COMMANDS = (
    ("validate",),
    ("analyze",),
    ("mirror",),
    ("subgroups",),
    ("scan", "--primes-up-to", "30"),
    ("picard", "--method", "closed"),
    ("picard", "--method", "kelly"),
    ("picard", "--method", "orbit"),
    ("picard", "--method", "all"),
)
FILE = "{file}"  # stands for the input path in a stored argv


def documents() -> dict[str, dict]:
    return {
        f"{name}-{group}-{p}": {"matrix": [list(r) for r in rows], "group": group, "characteristic": p}
        for name, rows in MATRICES.items()
        for group in ("J", "SL")
        for p in (0, 5)
    }


def cases() -> list[dict]:
    """Every document under every command and format, then one batch over all documents."""
    out = []
    for doc_id, doc in documents().items():
        for command in COMMANDS:
            for fmt in ("json", "text"):
                argv = ["--format", fmt, command[0], FILE, *command[1:]]
                out.append({"id": f"{doc_id}-{'-'.join(command[::2])}-{fmt}", "doc": doc_id, "argv": argv})
    out.append({"id": "batch-all", "doc": None, "argv": ["batch", FILE]})
    return out


def replay(case: dict, workdir: Path) -> dict:
    """Run one case through `cli.main` in-process; its stdout, stderr and status."""
    docs = documents()
    if case["doc"] is None:
        target = workdir / "batch"
        target.mkdir()
        for doc_id, doc in docs.items():
            (target / f"{doc_id}.json").write_text(json.dumps(doc))
    else:
        target = workdir / "in.json"
        target.write_text(json.dumps(docs[case["doc"]]))
    argv = [str(target) if a == FILE else a for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return {case["id"]: case for case in json.load(fh)["cases"]}


@pytest.mark.parametrize("case", cases(), ids=lambda c: c["id"])
def test_cli_output_matches_golden(case, golden, tmp_path):
    want = golden[case["id"]]
    assert want["argv"] == case["argv"]
    got = replay(case, tmp_path)
    assert got == {k: want[k] for k in ("stdout", "stderr", "status")}


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(c["id"] for c in cases())


def _freeze() -> None:
    import tempfile

    frozen = []
    for case in cases():
        with tempfile.TemporaryDirectory() as tmp:
            frozen.append(dict(case, **replay(case, Path(tmp))))
    GOLDEN.parent.mkdir(exist_ok=True)
    body = json.dumps({"cases": frozen}, sort_keys=True, indent=1).encode()
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(body)
    print(f"wrote {len(frozen)} cases to {GOLDEN}")


if __name__ == "__main__":
    _freeze()
