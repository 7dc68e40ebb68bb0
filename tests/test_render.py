"""The report writers against their references, which appear here only:
`--format json` against `json.dumps(doc, sort_keys=True, indent=2)`, and
`--format text` against the flattener that called `json.dumps` per leaf."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhk.cli as cli
from test_cli import A_EX_DOC, _write

# Strings that need escaping: quote, backslash, control characters, non-ASCII,
# astral characters (written as surrogate pairs) and lone surrogates.
_tricky = st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "→", "\U0001d49c", "\ud800", ""])
_strings = st.one_of(
    st.text(),
    st.text(st.characters(exclude_categories=())),
    st.lists(_tricky, max_size=6).map("".join),
)
_ints = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**64, 2**64 + 1, -(2**64), 10**30]),
)
_scalars = st.one_of(_strings, _ints, st.booleans(), st.none())
documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.one_of(st.booleans(), _ints), max_size=6),  # True beside 1
        st.dictionaries(_strings, inner, max_size=5),
    ),
    max_leaves=30,
)


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _reference_flatten(value, prefix: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(value, dict):
        for k in sorted(value):
            lines.extend(_reference_flatten(value[k], f"{prefix}{k}."))
    elif isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
        for i, x in enumerate(value):
            lines.extend(_reference_flatten(x, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix.rstrip('.')} = {json.dumps(value, sort_keys=True)}")
    return lines


@settings(max_examples=500, deadline=None)
@given(documents)
def test_writer_matches_json_dumps(doc):
    assert cli._render(doc, "json") == _reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
        [True, 1, False, 0, None, -1],
        [1, True, 0, False],
        {"big": [2**64, -(2**64) - 1, 10**40], "mixed": [1, True, "1", None]},
        {'"': "\\", "\x01": " ", "é": "\U0001f600", "b": "\ud83d"},
        {"z": 1, "a": 2, "M": 3, "": 4, "aa": 5},
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(doc):
    assert cli._render(doc, "json") == _reference(doc)


_foreign = st.sampled_from([1.5, 0.0, float("nan"), (1, 2), (), {1}, frozenset(), b"x"])


def _plant(doc, bad, data):
    """A copy of doc with bad placed at a drawn position: in a drawn
    container, or in place of the whole document."""
    if isinstance(doc, dict) and doc and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(doc)))
        return {**doc, key: _plant(doc[key], bad, data)}
    if isinstance(doc, list) and doc and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(doc) - 1))
        return [*doc[:i], _plant(doc[i], bad, data), *doc[i + 1 :]]
    if isinstance(doc, dict):
        return {**doc, data.draw(_strings): bad}
    if isinstance(doc, list):
        i = data.draw(st.integers(0, len(doc)))
        return [*doc[:i], bad, *doc[i:]]
    return bad


@settings(max_examples=300, deadline=None)
@given(documents, _foreign, st.data())
def test_writer_rejects_any_other_type(doc, bad, data):
    """A float, tuple, set or bytes anywhere raises TypeError, even where
    json.dumps would write a float or a tuple."""
    with pytest.raises(TypeError):
        cli._render(_plant(doc, bad, data), "json")


@settings(max_examples=500, deadline=None)
@given(documents)
def test_text_writer_matches_reference_flatten(doc):
    assert cli._render(doc, "text") == "\n".join(_reference_flatten(doc))


@settings(max_examples=300, deadline=None)
@given(documents, _foreign, st.data())
def test_text_writer_rejects_any_other_type(doc, bad, data):
    """A float, tuple, set or bytes anywhere raises TypeError in the text
    form too, where the reference would write a float or a tuple."""
    with pytest.raises(TypeError):
        cli._render(_plant(doc, bad, data), "text")


def test_writer_rejects_non_str_keys():
    with pytest.raises(TypeError):
        cli._render({"a": {1: 2}}, "json")


def test_json_format_never_calls_json_dumps_with_indent(tmp_path, capsys, monkeypatch):
    """The json-format path writes every report itself: a json.dumps call with
    indent set fails the run."""
    real = json.dumps

    def no_indent(obj, *args, **kwargs):
        assert kwargs.get("indent") is None, "json.dumps called with indent"
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", no_indent)
    path = _write(tmp_path, "in.json", A_EX_DOC)
    for command in ("validate", "analyze", "mirror", "subgroups", "picard"):
        assert cli.main([command, path]) == 0
        out = capsys.readouterr().out
        assert out == real(json.loads(out), sort_keys=True, indent=2) + "\n"
