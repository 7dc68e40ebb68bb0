"""The public API: every exported name resolves, and README's quick start
runs and prints the values its comments show."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import bhk

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in bhk.__all__ if not hasattr(bhk, name)]
    assert missing == []


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
