"""The CLI's JSON reader and one-line writer against the functions they
stand in for: `cli._loads` against `json.loads`, and `cli._dumps` against
`json.dumps(value, sort_keys=True)`. Each must give the same value or text,
or raise the same exception class with the same message."""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhk.cli as cli
from test_render import _ints, _strings, documents


def _same(a, b) -> bool:
    """Equal values of the same types, so True differs from 1, and NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is float:
        return a == b or (a != a and b != b)
    return a == b


def _outcome(function, argument):
    try:
        return "value", function(argument)
    except (TypeError, ValueError, RecursionError) as err:
        return type(err), str(err)


def _assert_loads_matches(text: str) -> None:
    """The same outcome; and a text json.loads reads is read without it,
    which it parses again only to raise its error."""
    want = _outcome(json.loads, text)
    with mock.patch.object(json, "loads", wraps=json.loads) as fallback:
        got = _outcome(cli._loads, text)
    assert got[0] is want[0], (got, want)
    if want[0] == "value":
        assert _same(got[1], want[1]), (got, want)
        assert not fallback.called
    else:
        assert got[1] == want[1]


TEXTS = {
    "empty": "",
    "whitespace only": " \t\n\r ",
    "BOM": "\ufeff{}",
    "BOM after a space": " \ufeff{}",
    "trailing data": "{} x",
    "trailing CRLF": '{"a": 1}\r\n',
    "whitespace around": " \n[1, 2]\t ",
    "two values": "1 2",
    "no value after a key": '{"matrix": ',
    "NaN": "NaN",
    "Infinity": "Infinity",
    "-Infinity": "-Infinity",
    "constants in a list": "[NaN, Infinity, -Infinity, -0.0, 1e400]",
    "raw control character": '"a\x01b"',
    "bad escape": '"a\\qb"',
    "lone surrogate escape": '"\\ud800"',
    "surrogate pair and lone surrogate": '"\\ud83d\\ude00 \\ud800x"',
    "5,000-digit integer": "1" + "0" * 5000,
    "100,000 nested arrays": "[" * 100000,
    "duplicate keys": '{"a": 1, "b": 2, "a": 3}',
    "trailing comma": "[1,]",
    "missing colon": '{"a" 1}',
    "cut literal": "tru",
}


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS)
def test_loads_matches_json_loads(text):
    _assert_loads_matches(text)


_values = st.recursive(
    st.one_of(_strings, _ints, st.booleans(), st.none(), st.floats()),
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(_strings, inner, max_size=5)),
    max_leaves=20,
)
_whitespace = st.text(alphabet=" \t\n\r", max_size=3)


@st.composite
def json_texts(draw) -> str:
    """A value written by json.dumps in a drawn layout, between drawn JSON
    whitespace, sometimes followed by a character that is not whitespace."""
    text = json.dumps(
        draw(_values),
        indent=draw(st.sampled_from([None, 0, 2, "\t"])),
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([None, (",", ":"), (" , ", " : ")])),
    )
    return draw(_whitespace) + text + draw(_whitespace) + draw(st.sampled_from(["", "", "x", "]", "\ufeff", "0"]))


@settings(max_examples=400, deadline=None)
@given(json_texts())
def test_loads_matches_json_loads_on_drawn_texts(text):
    _assert_loads_matches(text)
    _assert_loads_matches(text[:-1])  # one character short: mostly a text without end


def _json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True)


_foreign = st.sampled_from([{1}, b"x", 1j, object])
_dumpable = st.recursive(
    st.one_of(_strings, _ints, st.booleans(), st.none(), st.floats()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(st.one_of(st.booleans(), _ints), max_size=6),  # True beside 1
        st.dictionaries(_strings, inner, max_size=5),
        st.dictionaries(st.one_of(_ints, st.booleans(), st.none()), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(documents, _dumpable))
def test_dumps_matches_json_dumps(value):
    assert _outcome(cli._dumps, value) == _outcome(_json_dumps, value)


@settings(max_examples=200, deadline=None)
@given(_dumpable, _foreign)
def test_dumps_raises_as_json_dumps_does(value, bad):
    """An object json cannot write, and a dict whose keys do not sort, raise
    json.dumps's exception with its message."""
    for planted in ([value, bad], {"k": bad, "v": value}, {1: value, "1": bad}):
        assert _outcome(cli._dumps, planted) == _outcome(_json_dumps, planted)


def test_dumps_refuses_a_circular_value_and_forgets_a_failed_one():
    loop: list = []
    loop.append(loop)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        cli._dumps(loop)
    failed = [{1}]
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        cli._dumps(failed)
    failed[0] = 1
    assert cli._dumps(failed) == "[1]"  # not refused as circular
