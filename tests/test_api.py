"""The public API: every exported name resolves, every exported function has
a reader, every imported name has a reader, no function re-imports a name
its module imports, and README's quick start runs and prints the values its
comments show."""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import re
from pathlib import Path

import bhk

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in bhk.__all__ if not hasattr(bhk, name)]
    assert missing == []


def _called_names(path: Path) -> set[str]:
    """Names called in a module, as `f(...)` or `x.f(...)`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return {f.id if isinstance(f, ast.Name) else f.attr for f in funcs if isinstance(f, (ast.Name, ast.Attribute))}


def test_every_exported_function_has_a_reader():
    """Each function in `bhk.__all__` is called from a `bhk` module other than
    its own; otherwise no command reads it and it should not be exported. A
    mention in README is no reader."""
    calls = {path.stem: _called_names(path) for path in Path(bhk.__file__).parent.glob("*.py")}
    unread = []
    for name in bhk.__all__:
        fn = getattr(bhk, name)
        if not inspect.isfunction(fn):
            continue
        home = fn.__module__.rsplit(".", 1)[-1]
        if not any(name in called for module, called in calls.items() if module != home):
            unread.append(name)
    assert unread == []


def _imported_names(node) -> set[str]:
    return {(alias.asname or alias.name).partition(".")[0] for alias in node.names}


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; a name listed in `__all__`
    counts as read, and `from __future__` imports are not names."""
    imported, read = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update(_imported_names(node))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_every_imported_name_is_read():
    """No module in `src/bhk` or `tests` imports a name it never reads."""
    paths = [*Path(bhk.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    unread = {path.name: names for path in sorted(paths) if (names := _unread_imports(path))}
    assert unread == {}


def _shadowing_reimports(source: str) -> list[str]:
    """`function: name` for each name a function imports again although its
    module already imports it at the top."""
    tree = ast.parse(source)
    top = set().union(*(_imported_names(n) for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found += [f"{fn.name}: {name}" for name in sorted(_imported_names(node) & top)]
    return found


def test_no_function_reimports_a_module_level_name():
    """No function in `src/bhk` or `tests` re-imports a name its module
    already imports at the top; the inner import would only shadow it."""
    paths = [*Path(bhk.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    found = {p.name: names for p in sorted(paths) if (names := _shadowing_reimports(p.read_text(encoding="utf-8")))}
    assert found == {}


def test_reimport_check_sees_a_shadowing_reimport():
    source = "from conftest import CHAR0\n\n\ndef test_x():\n    from conftest import CHAR0\n\n    return CHAR0\n"
    assert _shadowing_reimports(source) == ["test_x: CHAR0"]


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_comments():
    code = _quick_start()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert expected, "the quick start prints nothing"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_package_version_is_the_projects():
    """`bhk.__version__`, which reports print as `tool_version`, is the
    `[project]` version of pyproject.toml, read as text (3.10 has no tomllib)."""
    text = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
    [version] = re.findall(r'^version = "([^"]*)"$', project, re.MULTILINE)
    assert version == bhk.__version__
