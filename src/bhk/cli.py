"""Command line interface. One JSON report document per invocation, NDJSON for
batch; exit status 0 on success, 1 for input or adequacy errors, 2 when an
internal cross-check fails or any other exception is raised. Each command
computes only what its sections print: only the commands that print or
decide on adequacy build an adequacy report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, Sequence

from .arith import Matrix4, matrix4, primes_up_to
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

TOOL_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

_ALLOWED_KEYS = {"matrix", "group", "characteristic"}

# Largest N for `scan --primes-up-to N`: the scan tests every integer up to N,
# and its answer depends only on p mod the two degrees, which the reported
# supersingular residues already state for every p.
MAX_PRIMES_UP_TO = 10**6

# Largest input document, in bytes: far above any real document (four rows,
# a few generators), and small enough that a file without end, such as
# /dev/zero, is rejected after one bounded read.
MAX_DOCUMENT_BYTES = 1 << 20


class InputSpec(NamedTuple):
    """Parsed input document: matrix rows, group selector, characteristic."""

    matrix: Matrix4
    group_spec: str | tuple
    characteristic: int


def parse_input(text: str) -> InputSpec:
    """Parse one input document; strict about keys and shapes."""
    try:
        data = json.loads(text)
    # json raises RecursionError on deep nesting, and ValueError on an integer
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
    return InputSpec(matrix=matrix, group_spec=group_spec, characteristic=char)


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


class _Command(NamedTuple):
    help: str
    sections: tuple[str, ...]
    characteristic: int | None = None  # overrides the document's
    status_from_verdict: bool = False  # exit 1 when the pair is not adequate, read after the sections


_COMMANDS = {
    "validate": _Command("adequacy report for one input document", ("adequacy",), status_from_verdict=True),
    "analyze": _Command("matrix data, atomic shapes, and group orders", ("delsarte", "atoms", "adequacy", "groups")),
    "mirror": _Command("transposed matrix and dual group data", ("delsarte", "adequacy", "groups", "mirror")),
    "subgroups": _Command("all groups between J and SL with their duals", ("groups", "subgroups")),
    "picard": _Command(
        "Picard numbers of the pair and its mirror", ("delsarte", "atoms", "adequacy", "groups", "mirror", "picard")
    ),
    "scan": _Command("closed-form Picard numbers over a prime range", ("delsarte", "scan"), characteristic=0),
}
_OPTIONS = ("method", "primes_up_to")


def run_command(command: str, spec: InputSpec, **options) -> tuple[dict, int]:
    """Execute one command against a parsed input; returns (document, exit status)."""
    if command not in _COMMANDS:
        raise ValueError(f"unknown command: {command}")
    cmd = _COMMANDS[command]
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
    print(json.dumps(_error_document(err), sort_keys=True), file=sys.stderr)
    return _error_status(err)


def _render(doc: dict, fmt: str) -> str:
    """The report as text. The json format is the text of
    `json.dumps(doc, sort_keys=True, indent=2)`, written by `_write_json`
    instead: with `indent` set, `json.dumps` leaves CPython's C encoder for
    its pure-Python one, which cost more than any single stage of a small
    report. The text format is the lines of `_flatten`. Each writer appends
    every piece of the text to one list, joined once here."""
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
    True stays `true` beside 1; any other type raises TypeError. Strings go
    through the same escaping function `json.dumps` uses."""
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
    files and files over MAX_DOCUMENT_BYTES are input errors. At most one
    byte beyond the limit is read."""
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_DOCUMENT_BYTES + 1)
        if len(data) > MAX_DOCUMENT_BYTES:
            raise ParseError(f"{path}: document is larger than {MAX_DOCUMENT_BYTES} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(str(err)) from err
    return text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines


def _same_file(path, stat: os.stat_result) -> bool:
    """Whether the path names the file of the stat; False when it cannot be stat'ed."""
    try:
        return os.path.samestat(os.stat(path), stat)
    except OSError:
        return False


def _run_batch(directory: str, out_path: str | None, quiet: bool) -> int:
    """NDJSON, one line per file, whatever `--format` says. The output file is
    opened before any document runs, so an unwritable one fails first, and
    is never read as a document, even when it is a *.json in the directory."""
    base = Path(directory)
    if not base.is_dir():
        return _report(SemanticError(f"not a directory: {directory}"))
    paths = sorted(base.glob("*.json"), key=lambda p: p.name)
    try:
        out = open(out_path, "w") if out_path else nullcontext(None if quiet else sys.stdout)
    except OSError as err:
        return _report(SemanticError(f"cannot write {out_path}: {err.strerror}"))
    if out_path:  # an output file among the documents, left by an earlier run, is not one
        written = os.fstat(out.fileno())
        paths = [p for p in paths if not _same_file(p, written)]
    worst = EXIT_OK
    with out as sink:
        for path in paths:
            try:
                doc, _ = run_command("picard", parse_input(_read(path)))
                entry = {"file": path.name, "report": doc, "status": "ok"}
            except Exception as err:  # one document's failure, of any kind, is its line
                worst = max(worst, _error_status(err))
                entry = {"file": path.name, "status": "error", **_error_document(err)}
            if sink is not None:
                sink.write(json.dumps(entry, sort_keys=True) + "\n")
    return worst


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="bhk",
        description="Validate BHK pairs, construct mirrors, and compute Picard numbers.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json", help="output format")
    parser.add_argument("--quiet", action="store_true", help="suppress report output")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}
    for name, cmd in _COMMANDS.items():
        commands[name] = sub.add_parser(name, help=cmd.help)
        commands[name].add_argument("file", help="input JSON document")
    commands["picard"].add_argument(
        "--method",
        choices=("closed", "kelly", "orbit", "all"),
        default="all",
        help="route to report: closed runs the closed form alone, the others every route cross-checked (default: all)",
    )
    commands["scan"].add_argument(
        "--primes-up-to", type=int, required=True, metavar="N", help=f"scan primes p <= N (N <= {MAX_PRIMES_UP_TO})"
    )

    p = sub.add_parser("batch", help="process every *.json in a directory, NDJSON output")
    p.add_argument("directory", help="directory of input documents")
    p.add_argument("--out", default=None, metavar="FILE", help="write NDJSON here instead of stdout")
    return parser


def _run_one(args: argparse.Namespace) -> int:
    options = {k: v for k, v in vars(args).items() if k in _OPTIONS}
    try:
        doc, status = run_command(args.command, parse_input(_read(args.file)), **options)
    except Exception as err:  # reported as one error document, never a traceback
        return _report(err)
    if not args.quiet:
        print(_render(doc, args.format))
    return status


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; exit status 1 when the reader of stdout has gone, as
    in `bhk picard c.json | head -c 300`. Stdout is flushed here so that a
    closed pipe fails inside the handler, which then points stdout at the
    null device, so the flush at shutdown cannot fail again."""
    args = build_parser().parse_args(argv)
    try:
        status = _run_batch(args.directory, args.out, args.quiet) if args.command == "batch" else _run_one(args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return status


if __name__ == "__main__":
    sys.exit(main())
