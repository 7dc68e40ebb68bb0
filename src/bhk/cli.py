"""Command line interface. One JSON report document per invocation, NDJSON for
batch; exit status 0 on success, 1 for input or adequacy errors, 2 when an
internal cross-check fails or any other exception is raised. Each command
computes only what its sections print: only the commands that print or
decide on adequacy build an adequacy report.

The command line is `bhk [--format json|text] [--quiet] COMMAND OPERAND`,
the operand a file, or for `batch` a directory. The two global options come
before the command; the command's own options come before or after its
operand, as `--name value` or `--name=value`, each name spelt in full (no
abbreviation such as `--meth`), and `--` ends the options, so an operand may
start with `-`. `-h` or `--help` prints the help of the program, or of the
command it follows, with exit status 0. A command line outside this grammar
is a usage error: a `usage:` line and `bhk: error: ...` on stderr, exit
status 2, and no JSON error document, which is written only for a document
that fails. The one table `_COMMANDS` drives both the parsing and the help.

JSON goes through CPython's `_json` accelerator rather than the `json`
package: documents are read by the C scanner `json.loads` runs (`_loads`),
error documents and batch lines are written by the C encoder of
`json.dumps(value, sort_keys=True)` (`_dumps`), and reports by `_render`,
which escapes strings with `_json`'s function. So importing this module or
running a command loads neither `json` nor the `re` and `enum` it imports;
`json` is imported only to raise the error of a document that fails to
parse."""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii, make_encoder, make_scanner
from collections.abc import Sequence
from errno import ELOOP, ENOENT, ENOTDIR
from stat import S_ISFIFO

from . import __version__ as TOOL_VERSION
from .arith import Record, matrix4, primes_up_to
from .delsarte import Characteristic, DelsarteMatrix
from .duality import MirrorPair, Workspace
from .errors import (
    InputError,
    InternalCheckError,
    ParseError,
    SemanticError,
)
from .picard import picard_closed_form, picard_report, prime_scan
from .smoothness import AdequacyReport, Atom

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 2

_ALLOWED_KEYS = {"matrix", "group", "characteristic"}

# Largest N for `scan --primes-up-to N`: the scan tests every integer up to N,
# and its answer depends only on p mod the two degrees, which the reported
# supersingular residues already state for every p.
MAX_PRIMES_UP_TO = 10**6

# Largest input document, in bytes: far above any real document (four rows,
# a few generators), and small enough that a file without end, such as
# /dev/zero, is rejected after a bounded read.
MAX_DOCUMENT_BYTES = 1 << 20

# Largest single read of a document: a read allocates its whole size first,
# so one read of MAX_DOCUMENT_BYTES + 1 cost a 1 MiB buffer per document.
READ_CHUNK_BYTES = 1 << 16


class InputSpec(Record):
    """Parsed input document: matrix rows, group selector, characteristic.
    The rows are a Matrix4, the selector a name or a tuple of generators, and
    the characteristic an int."""

    __slots__ = ()
    _fields = ("matrix", "group_spec", "characteristic")


class _LoadsDefaults:
    """The settings `json.loads` gives its C scanner, which reads them once."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}.__getitem__


_scan = make_scanner(_LoadsDefaults)

_JSON_WHITESPACE = " \t\n\r"


def _loads(text: str):
    """`json.loads(text)`: the value of a text holding one JSON value between
    JSON whitespace, read by the C scanner `json.loads` runs. Any other text,
    one without a value, with a byte order mark, or with more after its
    value, goes to `json.loads` itself, which raises its error; only then is
    `json` imported. An error inside a value comes from the scanner, as in
    `json.loads`."""
    start = len(text) - len(text.lstrip(_JSON_WHITESPACE))
    try:
        value, end = _scan(text, start)
    except StopIteration:  # no value at start
        pass
    else:
        if not text[end:].strip(_JSON_WHITESPACE):
            return value
    import json

    return json.loads(text)


def parse_input(text: str) -> InputSpec:
    """Parse one input document; strict about keys and shapes."""
    try:
        data = _loads(text)
    # the scanner raises RecursionError on deep nesting, and ValueError on an integer
    # longer than the interpreter converts (sys.get_int_max_str_digits)
    except (ValueError, RecursionError) as err:
        raise ParseError(f"invalid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _ALLOWED_KEYS)
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(unknown)}")
    if "matrix" not in data:
        raise ParseError("missing key: matrix")
    try:
        matrix = matrix4(data["matrix"])
    except (TypeError, ValueError) as err:
        raise ParseError(f"field 'matrix': {err}") from err

    group = data.get("group", "J")
    if isinstance(group, str):
        if group not in ("J", "SL"):
            raise ParseError(f"field 'group': expected 'J', 'SL', or generators, got {group!r}")
        group_spec: str | tuple = group
    elif isinstance(group, dict):
        extra = sorted(set(group) - {"generators"})
        if extra:
            raise ParseError(f"field 'group': unknown keys: {', '.join(extra)}")
        if "generators" not in group:
            raise ParseError("field 'group': missing key: generators")
        gens = group["generators"]
        if not isinstance(gens, list) or not gens:
            raise ParseError("field 'group.generators': expected a nonempty list")
        rows = []
        for i, g in enumerate(gens):
            if (
                not isinstance(g, list)
                or len(g) != 4
                or any(not isinstance(x, int) or isinstance(x, bool) for x in g)
            ):
                raise ParseError(f"field 'group.generators[{i}]': expected 4 integers")
            rows.append(tuple(g))
        group_spec = tuple(rows)
    else:
        raise ParseError(f"field 'group': expected a string or object, got {type(group).__name__}")

    char = data.get("characteristic", 0)
    if not isinstance(char, int) or isinstance(char, bool) or char < 0:
        raise ParseError(f"field 'characteristic': expected a nonnegative integer, got {char!r}")
    return InputSpec(matrix, group_spec, char)


def _echo(spec: InputSpec) -> dict:
    if isinstance(spec.group_spec, str):
        group = spec.group_spec
    else:
        group = {"generators": [list(g) for g in spec.group_spec]}
    return {
        "matrix": [list(r) for r in spec.matrix],
        "group": group,
        "characteristic": spec.characteristic,
    }


def _delsarte_section(m: DelsarteMatrix) -> dict:
    return {
        "det": m.det,
        "weights": list(m.weights),
        "degree": m.degree,
        "exponent": m.exponent,
        "b_matrix": [list(r) for r in m.b_matrix],
    }


def _atoms_section(atoms: tuple[Atom, ...] | None):
    if atoms is None:
        return None
    out = []
    for kind, variables, exponents in atoms:
        if kind == "fermat":
            out.append({"kind": kind, "variable": variables[0], "exponent": exponents[0]})
        else:
            out.append({"kind": kind, "variables": list(variables), "exponents": list(exponents)})
    return out


def _adequacy_section(report: AdequacyReport) -> dict:
    return {
        "quasi_smooth": report.quasi_smooth,
        "well_formed": report.well_formed,
        "weight_triple_gcd_ok": report.weight_triple_gcd_ok,
        "char_ok": report.char_ok,
        "verdict": report.verdict,
        "diagnostics": list(report.diagnostics),
    }


def _groups_section(ws: Workspace) -> dict:
    side, group = ws.primal, ws.group
    return {
        "aut_order": abs(side.matrix.det),
        "sl_order": side.sl_order,  # counted, not enumerated
        "j_order": side.j.order,
        "group_order": group.order,
        "j": list(side.j.generators[0]),
        "group_generators": [list(g) for g in group.generators],
    }


def _mirror_section(ws: Workspace) -> dict:
    mp = ws.mirror
    mt, slt, jt = ws.transpose.matrix, ws.transpose.sl, ws.transpose.j
    dual_of_j = ws.dual(ws.primal.j)
    dual_of_sl = ws.dual(ws.primal.sl)
    if dual_of_j != slt:
        raise InternalCheckError("the dual of J differs from SL of the transpose")
    if dual_of_sl != jt:
        raise InternalCheckError("the dual of SL differs from J of the transpose")
    return {
        "weights": list(mt.weights),
        "degree": mt.degree,
        "exponent": mt.exponent,
        "det": mt.det,
        "j_dual_order": jt.order,
        "sl_dual_order": slt.order,
        "group_dual": {
            "order": mp.mirror.group.order,
            "generators": [list(g) for g in mp.mirror.group.generators],
        },
        "dual_of_j_order": dual_of_j.order,
        "dual_of_sl_order": dual_of_sl.order,
        "dual_of_j_equals_mirror_sl": True,  # checked above
        "dual_of_sl_equals_mirror_j": True,
        "adequacy": _adequacy_section(mp.mirror.adequacy),
    }


def _picard_section(mp: MirrorPair, method: str) -> dict:
    """The closed form alone, or the cross-checked report's entry for one
    route (every entry for `all`)."""
    if method == "closed":
        methods, sizes = {"closed_form": picard_closed_form(mp)}, None
    else:
        report = picard_report(mp)
        methods, sizes = report.methods, report.set_sizes
        if method != "all":
            methods = {method: methods[method]}
    rho_primal, rho_mirror = next(iter(methods.values()))  # the routes agree
    doc = {
        "rho_primal": rho_primal,
        "rho_mirror": rho_mirror,
        "characteristic": mp.primal.char.p,
        "methods": {name: {"rho_primal": v[0], "rho_mirror": v[1]} for name, v in methods.items()},
    }
    if sizes is not None:
        doc["set_sizes"] = {"in_dual_group": sizes[0], "in_group": sizes[1]}
    return doc


def _scan_section(ws: Workspace, n: int) -> dict:
    if n > MAX_PRIMES_UP_TO:
        raise SemanticError(f"--primes-up-to {n} exceeds the limit {MAX_PRIMES_UP_TO}")
    report = prime_scan(ws.mirror, primes_up_to(n))
    return {
        "degree": report.degree,
        "mirror_degree": report.mirror_degree,
        "primes_up_to": n,
        "rows": [r._asdict() for r in report.rows],
        "skipped": [{"prime": p, "reason": reason} for p, reason in report.skipped],
        "supersingular_primal_residues": list(report.supersingular_primal_residues),
        "supersingular_mirror_residues": list(report.supersingular_mirror_residues),
        "characterization": {
            "primal": f"rho_primal = 22 exactly when p mod {report.mirror_degree} "
            f"lies in {sorted(report.supersingular_primal_residues)}",
            "mirror": f"rho_mirror = 22 exactly when p mod {report.degree} "
            f"lies in {sorted(report.supersingular_mirror_residues)}",
        },
    }


def _subgroups_section(ws: Workspace) -> dict:
    lattice = ws.lattice
    _check_duality(lattice, ws.transpose.j)
    entries = [
        {"order": g.order, "generators": [list(x) for x in g.generators], "dual_order": dual.order}
        for g, dual in lattice
    ]
    return {"count": len(entries), "groups": entries}


def _check_duality(lattice, transpose_j) -> None:
    """G -> G^T on the lattice [J, SL] ((G, G^T) pairs sorted by order, SL
    last) is injective and reverses inclusion, and the dual of SL is J of
    the transpose; InternalCheckError otherwise. A group lies only in groups
    after it."""
    duals = [dual for _, dual in lattice]
    if len(set(duals)) != len(duals):
        raise InternalCheckError("G -> G^T is not injective on the intermediate groups")
    for i, (g, g_dual) in enumerate(lattice):
        for h, h_dual in lattice[i + 1 :]:
            if g <= h and not h_dual <= g_dual:
                raise InternalCheckError("G -> G^T does not reverse inclusion on the intermediate groups")
    if duals[-1] != transpose_j:
        raise InternalCheckError(
            f"the dual of SL, of order {duals[-1].order}, differs from J of the transpose, "
            f"of order {transpose_j.order}"
        )


# Section name -> its content, from the workspace, the parsed input and the options.
_SECTIONS = {
    "input": lambda ws, spec, options: _echo(spec),
    "tool_version": lambda ws, spec, options: TOOL_VERSION,
    "delsarte": lambda ws, spec, options: _delsarte_section(ws.primal.matrix),
    "atoms": lambda ws, spec, options: _atoms_section(ws.pair.adequacy.atoms),
    "adequacy": lambda ws, spec, options: _adequacy_section(ws.pair.adequacy),
    "groups": lambda ws, spec, options: _groups_section(ws),
    "mirror": lambda ws, spec, options: _mirror_section(ws),
    "subgroups": lambda ws, spec, options: _subgroups_section(ws),
    "picard": lambda ws, spec, options: _picard_section(ws.mirror, options.get("method", "all")),
    "scan": lambda ws, spec, options: _scan_section(ws, options["primes_up_to"]),
}


class _Option(Record):
    """A command-line option `--name`: its help line, its value (the tuple of
    its choices, the name of a value that `convert` converts, or None for a
    flag, which takes no value and is True when given), its default, whether
    it must be given, and `convert`, str or int, which gives the value from
    its text."""

    __slots__ = ()
    _fields = ("help", "value", "default", "required", "convert")
    _field_defaults = {"default": None, "required": False, "convert": str}


_GLOBAL_OPTIONS = {
    "--format": _Option("output format (default: json)", ("json", "text"), "json"),
    "--quiet": _Option("suppress report output", None, False),
}


class _Command(Record):
    """A command: its help line, the tuple of sections it prints (None for
    batch, which prints one picard report per document of a directory), how
    it departs from the document and from exit status 0, the name of its
    operand, and its options by name, each an _Option. `characteristic`, an
    int or None, overrides the document's; `status_from_verdict`, a bool,
    makes exit status 1 when the pair is not adequate, read after the
    sections; `operand` is a key of _OPERANDS."""

    __slots__ = ()
    _fields = ("help", "sections", "characteristic", "status_from_verdict", "operand", "options")
    _field_defaults = {"characteristic": None, "status_from_verdict": False, "operand": "FILE", "options": {}}


_OPERANDS = {"FILE": "input JSON document", "DIR": "directory of input documents"}

_COMMANDS = {
    "validate": _Command("adequacy report for one input document", ("adequacy",), status_from_verdict=True),
    "analyze": _Command("matrix data, atomic shapes, and group orders", ("delsarte", "atoms", "adequacy", "groups")),
    "mirror": _Command("transposed matrix and dual group data", ("delsarte", "adequacy", "groups", "mirror")),
    "subgroups": _Command("all groups between J and SL with their duals", ("groups", "subgroups")),
    "picard": _Command(
        "Picard numbers of the pair and its mirror",
        ("delsarte", "atoms", "adequacy", "groups", "mirror", "picard"),
        options={
            "--method": _Option(
                "route to report: closed runs the closed form alone, the others every route cross-checked "
                "(default: all)",
                ("closed", "kelly", "orbit", "all"),
                "all",
            )
        },
    ),
    "scan": _Command(
        "closed-form Picard numbers over a prime range",
        ("delsarte", "scan"),
        characteristic=0,
        options={
            "--primes-up-to": _Option(f"scan primes p <= N (N <= {MAX_PRIMES_UP_TO})", "N", required=True, convert=int)
        },
    ),
    "batch": _Command(
        "process every *.json in a directory, NDJSON output",
        None,
        operand="DIR",
        options={"--out": _Option("write NDJSON here instead of stdout", "FILE")},
    ),
}


def run_command(command: str, spec: InputSpec, **options) -> tuple[dict, int]:
    """Execute one command against a parsed input; returns (document, exit status)."""
    cmd = _COMMANDS.get(command)
    if cmd is None or cmd.sections is None:
        raise ValueError(f"not a command on one document: {command}")
    try:
        char = Characteristic(spec.characteristic if cmd.characteristic is None else cmd.characteristic)
    except ValueError as err:
        raise SemanticError(str(err)) from err
    ws = Workspace(spec.matrix, char, spec.group_spec)
    # every section reads a validated G, so bad input fails first; the
    # adequacy report, which never raises, is built only by the sections and
    # the exit status that read it
    ws.group
    doc = {name: _SECTIONS[name](ws, spec, options) for name in ("input", "tool_version", *cmd.sections)}
    adequate = not cmd.status_from_verdict or ws.pair.adequacy.verdict
    return doc, EXIT_OK if adequate else EXIT_INPUT


# An InputError is reported with exit 1; any other exception raised for one
# document, a failed cross-check or a fault in the program, is an internal
# error with exit 2.
def _error_document(err: Exception) -> dict:
    category = "input" if isinstance(err, InputError) else "internal"
    return {"error": {"kind": type(err).__name__, "category": category, "message": str(err)}}


def _error_status(err: Exception) -> int:
    return EXIT_INPUT if isinstance(err, InputError) else EXIT_INTERNAL


def _report(err: Exception) -> int:
    """Write the error document to stderr; returns the exit status."""
    print(_dumps(_error_document(err)), file=sys.stderr)
    return _error_status(err)


def _render(doc: dict, fmt: str) -> str:
    """The report as text. The json format is the text of
    `json.dumps(doc, sort_keys=True, indent=2)`, written by `_write_json`
    instead: with `indent` set, `json.dumps` leaves CPython's C encoder for
    its pure-Python one, which cost more than any single stage of a small
    report, and it needs no import of `json`. The text format is the lines
    of `_flatten`. Each writer appends every piece of the text to one list,
    joined once here."""
    if fmt == "json":
        pieces: list[str] = []
        _write_json(doc, "\n", pieces)
        return "".join(pieces)
    lines: list[str] = []
    _flatten(doc, "", lines)
    return "\n".join(lines)


def _write_json(value, newline: str, pieces: list[str]) -> None:
    """Append the JSON text of a value to pieces, keys sorted, each level
    indented two spaces more than `newline`, the line break plus the
    enclosing indentation. Only the types the sections produce are written:
    dicts with str keys, lists, and the leaves of `_scalar`; any other type
    raises TypeError, as in `json.dumps`."""
    kind = type(value)
    if kind is dict:
        if not value:
            pieces.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            pieces.append(f"{opening}{encode_basestring_ascii(key)}: ")
            _write_json(value[key], inner, pieces)
            opening = "," + inner
        pieces.append(newline + "}")
    elif kind is list:
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        opening = "[" + inner
        for x in value:
            pieces.append(opening)
            _write_json(x, inner, pieces)
            opening = "," + inner
        pieces.append(newline + "]")
    else:
        pieces.append(_scalar(value))


def _scalar(value) -> str:
    """The JSON text of a str, int, bool or None, tested by exact type, so
    True stays `true` beside 1; any other type raises the TypeError of
    `json.dumps`, which is why `_dumps`'s encoder calls it for every object
    it cannot write. Strings go through `_json`'s escaping function, the one
    `json.dumps` uses."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _dumps(value) -> str:
    """`json.dumps(value, sort_keys=True)`, from the C encoder it runs, with
    its settings: markers, default, encoder, indent, key and item
    separators, sort_keys, skipkeys, allow_nan. Objects other than str,
    int, float, bool, None, lists, tuples and dicts go to `_scalar`, which
    raises json's TypeError. The encoder is built per call, as json.dumps
    builds it: its markers dict, which refuses a circular value, keeps the
    open containers of a failed write."""
    encode = make_encoder({}, _scalar, encode_basestring_ascii, None, ": ", ", ", True, False, True)
    return "".join(encode(value, 0))


def _flatten(value, prefix: str, lines: list[str]) -> None:
    """Append the `--format text` lines of a value to lines: one `path =
    leaf` line per scalar, dotted paths with dict keys sorted and list
    indices, a list of scalars written whole as `[a, b]`, and an empty dict
    writing nothing. Leaves are written as `_write_json` writes them."""
    kind = type(value)
    if kind is dict:
        for k in sorted(value):
            _flatten(value[k], f"{prefix}{k}.", lines)
    elif kind is list and any(type(x) in (dict, list) for x in value):
        for i, x in enumerate(value):
            _flatten(x, f"{prefix}{i}.", lines)
    elif kind is list:
        lines.append(f"{prefix.rstrip('.')} = [{', '.join(map(_scalar, value))}]")
    else:
        lines.append(f"{prefix.rstrip('.')} = {_scalar(value)}")


def _read(path) -> str:
    """A document's text, decoded as a text-mode read decodes it; unreadable
    files and files over MAX_DOCUMENT_BYTES are input errors. The file is
    read unbuffered, in reads of at most READ_CHUNK_BYTES, and at most one
    byte beyond the limit is read."""
    try:
        chunks, size = [], 0
        with open(path, "rb", buffering=0) as f:
            while size <= MAX_DOCUMENT_BYTES:
                chunk = f.read(min(READ_CHUNK_BYTES, MAX_DOCUMENT_BYTES + 1 - size))
                if not chunk:
                    break
                chunks.append(chunk)
                size += len(chunk)
        if size > MAX_DOCUMENT_BYTES:
            raise ParseError(f"{path}: document is larger than {MAX_DOCUMENT_BYTES} bytes")
        text = b"".join(chunks).decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(str(err)) from err
    return text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines


def _run_batch(directory: str, out_path: str | None, quiet: bool) -> int:
    """NDJSON, one line per entry named *.json, dot-files and directories
    included, in name order, whatever `--format` says. The output file is
    opened before any document runs, so an unwritable one fails first, and is
    never read as a document, even when it is a *.json in the directory. A
    FIFO, whose open would wait for a writer, is an input error, never opened."""
    try:
        with os.scandir(directory) as listing:
            entries = sorted((e for e in listing if e.name.endswith(".json")), key=lambda e: e.name)
    except OSError as err:
        if err.errno in (ENOENT, ENOTDIR, ELOOP):
            return _report(SemanticError(f"not a directory: {directory}"))
        return _report(SemanticError(f"cannot list {directory}: {err.strerror}"))
    try:
        out = open(out_path, "w") if out_path else None
    except OSError as err:
        return _report(SemanticError(f"cannot write {out_path}: {err.strerror}"))
    sink = out if out_path else None if quiet else sys.stdout
    written = os.fstat(out.fileno()) if out_path else None
    worst = EXIT_OK
    try:
        for entry in entries:
            try:
                stat = entry.stat()  # symlinks followed, kept by the entry
            except OSError:  # a broken symlink, whose read reports it
                stat = None
            if stat and written and os.path.samestat(stat, written):
                continue  # the output file, left among the documents by an earlier run
            try:
                if stat and S_ISFIFO(stat.st_mode):
                    raise ParseError(f"{entry.path}: is a FIFO, which batch does not open")
                doc, _ = run_command("picard", parse_input(_read(entry.path)))
                line = {"file": entry.name, "report": doc, "status": "ok"}
            except Exception as err:  # one document's failure, of any kind, is its line
                worst = max(worst, _error_status(err))
                line = {"file": entry.name, "status": "error", **_error_document(err)}
            if sink is not None:
                sink.write(_dumps(line) + "\n")
    finally:
        if out_path:
            out.close()
    return worst


class _Usage(Exception):
    """Ends `_parse` early: with a message, a usage error; without one, a
    request for help. `command` is the command named before it, None when
    none was."""

    def __init__(self, command: str | None, message: str | None = None):
        super().__init__(message)
        self.command = command
        self.message = message


def _parse(argv: Sequence[str]) -> tuple[dict, str, str, dict]:
    """(global options, command, operand, command options) of a command line,
    in the grammar the module docstring states. Each option is keyed by its
    name without the leading dashes, `-` read as `_`, and has its default
    when not given. Raises _Usage."""
    command = operand = None
    table = _GLOBAL_OPTIONS  # the options that may come next
    given = {}
    ended = False  # after `--`
    tokens = iter(argv)
    for token in tokens:
        if ended or token == "-" or token[:1] != "-":
            if command is None:
                if token not in _COMMANDS:
                    raise _Usage(None, f"invalid command: {token!r} (choose from {', '.join(_COMMANDS)})")
                command, table = token, _COMMANDS[token].options
            elif operand is None:
                operand = token
            else:
                raise _Usage(command, f"unrecognized arguments: {token}")
        elif token == "--":
            ended = True
        elif token in ("-h", "--help"):
            raise _Usage(command)
        else:
            name, eq, value = token.partition("=")
            option = table.get(name)
            if option is None:
                if command is not None and name in _GLOBAL_OPTIONS:
                    raise _Usage(command, f"{name} must come before the command")
                raise _Usage(command, f"unrecognized arguments: {token}")
            if option.value is None:
                if eq:
                    raise _Usage(command, f"argument {name}: takes no value")
                value = True
            elif not eq and (value := next(tokens, None)) is None:
                raise _Usage(command, f"argument {name}: expected one argument")
            elif type(option.value) is tuple and value not in option.value:
                choices = ", ".join(map(repr, option.value))
                raise _Usage(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
            else:
                try:
                    value = option.convert(value)
                except ValueError:
                    message = f"argument {name}: invalid {option.convert.__name__} value: {value!r}"
                    raise _Usage(command, message) from None
            given[name] = value
    if command is None:
        raise _Usage(None, "the following arguments are required: COMMAND")
    cmd = _COMMANDS[command]
    missing = [cmd.operand] if operand is None else []
    missing += [name for name, option in cmd.options.items() if option.required and name not in given]
    if missing:
        raise _Usage(command, f"the following arguments are required: {', '.join(missing)}")
    return _values(_GLOBAL_OPTIONS, given), command, operand, _values(cmd.options, given)


def _values(table: dict, given: dict) -> dict:
    return {name[2:].replace("-", "_"): given.get(name, option.default) for name, option in table.items()}


def _term(name: str, option: _Option) -> str:
    """An option as usage and help write it: `--name`, `--name N` or `--name {a,b}`."""
    value = option.value
    if value is None:
        return name
    return f"{name} {{{','.join(value)}}}" if type(value) is tuple else f"{name} {value}"


def _usage_line(command: str | None) -> str:
    if command is None:
        prog, options, operand = "bhk", _GLOBAL_OPTIONS, "COMMAND ..."
    else:
        cmd = _COMMANDS[command]
        prog, options, operand = f"bhk {command}", cmd.options, cmd.operand
    terms = [_term(name, o) if o.required else f"[{_term(name, o)}]" for name, o in options.items()]
    return " ".join(["usage:", prog, "[-h]", *terms, operand])


def _help(command: str | None) -> str:
    """The help of the program, or of one command: its usage line, its
    summary, its commands or operand, and its options."""
    if command is None:
        summary = "Validate BHK pairs, construct mirrors, and compute Picard numbers."
        heading, rows = "commands:", [(f"{n} {c.operand}", c.help) for n, c in _COMMANDS.items()]
        options = _GLOBAL_OPTIONS
    else:
        cmd = _COMMANDS[command]
        summary, heading, rows, options = cmd.help, "arguments:", [(cmd.operand, _OPERANDS[cmd.operand])], cmd.options
    option_rows = [("-h, --help", "show this help and exit"), *((_term(n, o), o.help) for n, o in options.items())]
    lines = [_usage_line(command), "", summary, "", heading, *_columns(rows), "", "options:", *_columns(option_rows)]
    if command is None:
        lines += ["", "Run `bhk COMMAND --help` for the options of a command."]
    return "\n".join(lines)


def _columns(rows: list[tuple[str, str]]) -> list[str]:
    """Help rows: each term and its text in two columns, the text on a line
    of its own after a term too long for its column."""
    return [f"  {term:<22}  {text}" if len(term) <= 22 else f"  {term}\n{'':26}{text}" for term, text in rows]


def _run_one(command: str, path: str, options: dict, settings: dict) -> int:
    try:
        doc, status = run_command(command, parse_input(_read(path)), **options)
    except Exception as err:  # reported as one error document, never a traceback
        return _report(err)
    if not settings["quiet"]:
        print(_render(doc, settings["format"]))
    return status


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; exit status 2 with a usage line on stderr when the
    command line is outside the grammar. Exit status 1 when the reader of
    stdout has gone, as in `bhk picard c.json | head -c 300`, and, with an
    error document on stderr, when a write to stdout or to batch's `--out`
    fails otherwise, as on a full disk. Stdout is flushed here so that its
    write fails inside the handler, which then points stdout at the null
    device, so the flush at shutdown cannot fail again."""
    try:
        settings, command, operand, options = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as usage:
        if usage.message is None:
            print(_help(usage.command))
            return EXIT_OK
        print(f"{_usage_line(usage.command)}\nbhk: error: {usage.message}", file=sys.stderr)
        return EXIT_USAGE
    out_path = options["out"] if command == "batch" else None
    try:
        if command == "batch":
            status = _run_batch(operand, out_path, settings["quiet"])
        else:
            status = _run_one(command, operand, options, settings)
        sys.stdout.flush()
    except OSError as err:  # a failed write: every other error is caught where it is raised
        if not out_path:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(err, BrokenPipeError):  # no reader left to tell
            return EXIT_INPUT
        return _report(SemanticError(f"cannot write {out_path or 'stdout'}: {err.strerror}"))
    return status


if __name__ == "__main__":
    sys.exit(main())
