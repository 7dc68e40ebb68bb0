"""Command line interface. One JSON report document per invocation, NDJSON for
batch; exit status 0 on success, 1 for input or adequacy errors, 2 when an
internal cross-check fails."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Sequence

from .arith import Matrix4, matrix4
from .delsarte import Characteristic, DelsarteMatrix, is_prime
from .duality import MirrorPair, Workspace
from .errors import (
    InputError,
    InternalCheckError,
    ParseError,
    SemanticError,
)
from .picard import (
    picard_by_counting,
    picard_by_orbits,
    picard_closed_form,
    picard_report,
    prime_scan,
    transcendental_sets,
)
from .smoothness import AdequacyReport, AtomicDecomposition, atom_parts
from .symmetry import enumerate_intermediate

TOOL_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

_ALLOWED_KEYS = {"matrix", "group", "characteristic"}


@dataclass(frozen=True)
class InputSpec:
    """Parsed input document: matrix rows, group selector, characteristic."""

    matrix: Matrix4
    group_spec: str | tuple
    characteristic: int


def parse_input(text: str) -> InputSpec:
    """Parse one input document; strict about keys and shapes."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:  # json raises RecursionError on deep nesting
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


def _atoms_section(dec: AtomicDecomposition | None):
    if dec is None:
        return None
    out = []
    for kind, variables, exponents in map(atom_parts, dec.atoms):
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
    side, group = ws.primal, ws.pair.group
    return {
        "aut_order": abs(side.matrix.det),
        "sl_order": side.sl.order,
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
        "dual_of_j_equals_mirror_sl": dual_of_j == slt,
        "dual_of_sl_equals_mirror_j": dual_of_sl == jt,
        "adequacy": _adequacy_section(mp.mirror.adequacy),
    }


def _picard_section(mp: MirrorPair, method: str) -> dict:
    """One route, or all three cross-checked; the counting routes share each side's set."""
    if method == "all":
        report = picard_report(mp)
        methods, sizes = report.methods, report.set_sizes
    elif method == "closed":
        methods, sizes = {"closed_form": picard_closed_form(mp)}, None
    else:
        sets = transcendental_sets(mp)
        route = picard_by_counting if method == "kelly" else picard_by_orbits
        methods, sizes = {method: route(mp, sets)}, (len(sets[0]), len(sets[1]))
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


def _scan_section(mp: MirrorPair, primes_up_to: int) -> dict:
    primes = [p for p in range(2, primes_up_to + 1) if is_prime(p)]
    report = prime_scan(mp, primes)
    return {
        "degree": report.degree,
        "mirror_degree": report.mirror_degree,
        "primes_up_to": primes_up_to,
        "rows": [
            {
                "prime": r.prime,
                "residue_primal": r.residue_primal,
                "residue_mirror": r.residue_mirror,
                "rho_primal": r.rho_primal,
                "rho_mirror": r.rho_mirror,
                "supersingular_primal": r.supersingular_primal,
                "supersingular_mirror": r.supersingular_mirror,
            }
            for r in report.rows
        ],
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
    entries = []
    for g in enumerate_intermediate(ws.primal.j, ws.primal.sl):
        ws.check(g)
        entries.append(
            {
                "order": g.order,
                "generators": [list(x) for x in g.generators],
                "dual_order": ws.dual(g).order,
            }
        )
    return {"count": len(entries), "groups": entries}


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
    "scan": lambda ws, spec, options: _scan_section(ws.mirror, options["primes_up_to"]),
}


@dataclass(frozen=True)
class _Command:
    help: str
    sections: tuple[str, ...]
    characteristic: int | None = None  # overrides the document's
    status_from_verdict: bool = False  # exit 1 when the pair is not adequate


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
    pair = ws.pair  # every section reads a validated pair, so bad input fails first
    doc = {name: _SECTIONS[name](ws, spec, options) for name in ("input", "tool_version", *cmd.sections)}
    adequate = pair.adequacy.verdict or not cmd.status_from_verdict
    return doc, EXIT_OK if adequate else EXIT_INPUT


# Errors a run reports as a document; internal ones exit 2, the rest 1.
_REPORTED = (InternalCheckError, InputError, ValueError)


def _error_document(err: Exception) -> dict:
    category = "internal" if isinstance(err, InternalCheckError) else "input"
    return {"error": {"kind": type(err).__name__, "category": category, "message": str(err)}}


def _error_status(err: Exception) -> int:
    return EXIT_INTERNAL if isinstance(err, InternalCheckError) else EXIT_INPUT


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2)
    return "\n".join(_flatten(doc))


def _flatten(value, prefix: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(value, dict):
        for k in sorted(value):
            lines.extend(_flatten(value[k], f"{prefix}{k}."))
    elif isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
        for i, x in enumerate(value):
            lines.extend(_flatten(x, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix.rstrip('.')} = {json.dumps(value, sort_keys=True)}")
    return lines


def _read(path) -> str:
    """A document's text; unreadable files are input errors."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(str(err)) from err


def _run_batch(directory: str, out_path: str | None, fmt: str, quiet: bool) -> int:
    base = Path(directory)
    if not base.is_dir():
        print(json.dumps(_error_document(SemanticError(f"not a directory: {directory}")), sort_keys=True), file=sys.stderr)
        return EXIT_INPUT
    lines = []
    worst = EXIT_OK
    for path in sorted(base.glob("*.json"), key=lambda p: p.name):
        try:
            doc, _ = run_command("picard", parse_input(_read(path)))
            entry = {"file": path.name, "report": doc, "status": "ok"}
        except _REPORTED as err:
            worst = max(worst, _error_status(err))
            entry = {"file": path.name, "status": "error", **_error_document(err)}
        lines.append(json.dumps(entry, sort_keys=True))
    body = "\n".join(lines) + ("\n" if lines else "")
    if out_path:
        Path(out_path).write_text(body)
    elif not quiet:
        sys.stdout.write(body)
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
        help="which computation route to use (default: all, cross-checked)",
    )
    commands["scan"].add_argument(
        "--primes-up-to", type=int, required=True, metavar="N", help="scan primes p <= N"
    )

    p = sub.add_parser("batch", help="process every *.json in a directory, NDJSON output")
    p.add_argument("directory", help="directory of input documents")
    p.add_argument("--out", default=None, metavar="FILE", help="write NDJSON here instead of stdout")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "batch":
        return _run_batch(args.directory, args.out, args.format, args.quiet)
    options = {k: v for k, v in vars(args).items() if k in _OPTIONS}
    try:
        doc, status = run_command(args.command, parse_input(_read(args.file)), **options)
    except _REPORTED as err:
        print(json.dumps(_error_document(err), sort_keys=True), file=sys.stderr)
        return _error_status(err)
    if not args.quiet:
        print(_render(doc, args.format))
    return status


if __name__ == "__main__":
    sys.exit(main())
