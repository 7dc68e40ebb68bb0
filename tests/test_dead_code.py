"""Every function in `src/bhk` is entered by some command. The golden
corpus, then one `batch --out` run over a document whose group is given by
generators (the golden corpus has none), then the help of the program and of
a command and one usage error, go through `cli.main` under a profile hook
that records the code of each function entered. Every command first imports
the package, so a fresh `import bhk.cli` in a bare child interpreter runs
under the same hook, and the functions it enters, such as those that build
the record classes, count as entered too. Every function the package
defines must be among them, but for the listed exceptions."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import bhk
import bhk.cli as cli
from test_cli_golden import cases, replay

PACKAGE = Path(bhk.__file__).parent

# (module file, function) -> why no command enters it.
NEVER_ENTERED: dict[tuple[str, str], str] = {}

GENERATORS_DOC = {
    "matrix": [[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]],
    "group": {"generators": [[1, 1, 1, 1], [0, 0, 2, 2]]},
}


def _defined() -> dict[tuple[str, int], str]:
    """(module file, first line) -> name of every function defined in the
    package. The first line is that of the first decorator, as in the
    function's code object."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                out[path.name, first] = node.name
    return out


def _run_commands(workdir: Path) -> None:
    """The golden corpus, then `batch --out` over the generators document,
    then `--help`, `picard --help` and a `picard` without its file."""
    for i, case in enumerate(cases()):
        (workdir / str(i)).mkdir()
        replay(case, workdir / str(i))
    batch = workdir / "batch"
    batch.mkdir()
    (batch / "fermat8.json").write_text(json.dumps(GENERATORS_DOC))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["batch", str(batch), "--out", str(batch / "out.json")]) == cli.EXIT_OK
    assert json.loads((batch / "out.json").read_text())["status"] == "ok"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["--help"]) == cli.main(["picard", "--help"]) == cli.EXIT_OK
        assert cli.main(["picard"]) == cli.EXIT_USAGE


# Run by `python -I -S -c` with the directory holding the package as its
# argument: prints "file line" for each function of the package that a fresh
# `import bhk.cli` enters.
IMPORT_PROFILE = """
import sys
root = sys.argv[1]
sys.path.insert(0, root)
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
import bhk.cli
sys.setprofile(None)
for code in entered:
    if code.co_filename.startswith(root):
        print(code.co_filename, code.co_firstlineno)
"""


def _entered_by_import() -> set[tuple[str, int]]:
    """(module file, first line) of each function a fresh `import bhk.cli` enters."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_PROFILE, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (row.rpartition(" ") for row in proc.stdout.splitlines())
    return {(Path(file).name, int(line)) for file, _, line in rows}


def test_every_function_is_entered_by_a_command(tmp_path):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        _run_commands(tmp_path)
    finally:
        sys.setprofile(None)
    prefix = str(PACKAGE)
    seen = {(Path(c.co_filename).name, c.co_firstlineno) for c in entered if c.co_filename.startswith(prefix)}
    seen |= _entered_by_import()
    never = sorted((file, name) for (file, line), name in _defined().items() if (file, line) not in seen)
    assert never == sorted(NEVER_ENTERED)
