"""Quasi-smoothness via atomic shapes (Fermat, chain, loop), well-formedness,
and the combined adequacy verdict for a pair. An atom is one `Atom` tuple
(kind, variables, exponents), and a decomposition is a tuple of them."""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .delsarte import Characteristic, DelsarteMatrix
from .errors import NotInvertiblePotential


class Atom(NamedTuple):
    """One atomic shape over some of the four variables.

    `kind` is "fermat" (y^e, one variable), "chain" (y_0^{e_0} y_1 + ... +
    y_k^{e_k}, listed head to tail) or "loop" (y_0^{e_0} y_1 + ... + y_k^{e_k}
    y_0, listed from the least variable); `exponents` runs along `variables`.
    """

    kind: str
    variables: tuple[int, ...]
    exponents: tuple[int, ...]


class AdequacyReport(NamedTuple):
    quasi_smooth: bool
    well_formed: bool
    weight_triple_gcd_ok: bool
    char_ok: bool
    verdict: bool
    diagnostics: tuple[str, ...]
    atoms: tuple[Atom, ...] | None = None  # the decomposition behind quasi_smooth


def _row_shape(row) -> tuple[int, int | None] | None:
    """The row's own variable and its successor, or None.

    A row is y_v^e (no successor) or y_v^e y_w with e >= 2 (successor w); v
    is its own variable. Any other row, including y_v y_w, has none.
    """
    support = [j for j in range(4) if row[j] != 0]
    if len(support) == 1:
        return support[0], None
    if len(support) == 2:
        for v, w in (support, support[::-1]):
            if row[v] >= 2 and row[w] == 1:
                return v, w
    return None


def _assemble(succ, exps):
    """Split a successor map with in-degree at most one into atoms, or None."""
    indeg = {v: 0 for v in range(4)}
    for v, w in succ.items():
        if w is not None:
            indeg[w] += 1
    if any(c > 1 for c in indeg.values()):
        return None
    atoms: list[Atom] = []
    seen: set[int] = set()
    for v in range(4):
        if indeg[v] == 0 and v not in seen:
            path = [v]
            seen.add(v)
            while succ[path[-1]] is not None:
                path.append(succ[path[-1]])
                seen.add(path[-1])
            kind = "fermat" if len(path) == 1 else "chain"
            atoms.append(Atom(kind, tuple(path), tuple(exps[x] for x in path)))
    for v in range(4):
        if v not in seen:
            cycle = [v]
            seen.add(v)
            while succ[cycle[-1]] not in (None, v):
                cycle.append(succ[cycle[-1]])
                seen.add(cycle[-1])
            start = cycle.index(min(cycle))
            cycle = cycle[start:] + cycle[:start]
            atoms.append(Atom("loop", tuple(cycle), tuple(exps[x] for x in cycle)))
    return tuple(sorted(atoms, key=lambda atom: min(atom.variables)))


def atomic_decomposition(m: DelsarteMatrix) -> tuple[Atom, ...]:
    """Decompose the rows into disjoint Fermat, chain, and loop atoms covering
    all four variables, sorted by least variable.

    Each row has at most one own variable, so the rows fix the only candidate
    row-to-variable bijection; raises NotInvertiblePotential when there is
    none or its successor map does not split into atoms.
    """
    shapes = [_row_shape(row) for row in m.matrix]
    if None not in shapes and len({v for v, _ in shapes}) == 4:
        exps = {v: row[v] for (v, _), row in zip(shapes, m.matrix)}
        result = _assemble(dict(shapes), exps)
        if result is not None:
            return result
    raise NotInvertiblePotential(
        f"rows {m.matrix} do not decompose into Fermat, chain, and loop shapes"
    )


def _triple_gcds_ok(q) -> bool:
    q0, q1, q2, q3 = q
    return gcd(q0, q1, q2) == gcd(q0, q1, q3) == gcd(q0, q2, q3) == gcd(q1, q2, q3) == 1


# (i, j, k, l): the weight pair (i, j), and the two coordinates k, l a row
# must not involve to be supported on the coordinate line of i and j.
_PAIRS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))


def _pair_supports_ok(m: DelsarteMatrix) -> bool:
    """Whether every weight pair with a common factor has a row supported on
    its coordinate line."""
    q, rows = m.weights, m.matrix
    return all(
        gcd(q[i], q[j]) <= 1 or any(row[k] == 0 == row[l] for row in rows) for i, j, k, l in _PAIRS
    )


def adequacy(m: DelsarteMatrix, group, char: Characteristic) -> AdequacyReport:
    """Adequacy verdict: quasi-smooth, well-formed, and characteristic conditions.

    In positive characteristic p the verdict also needs p coprime to every
    weight and to the exponent d.
    """
    diagnostics: list[str] = []
    atoms = None
    try:
        atoms = atomic_decomposition(m)
        qs = True
        diagnostics.append(f"atomic shapes: {_describe_atoms(atoms)}")
    except NotInvertiblePotential as err:
        qs = False
        diagnostics.append(f"not quasi-smooth: {err}")

    triple_ok = _triple_gcds_ok(m.weights)
    wf = triple_ok and _pair_supports_ok(m)
    if not triple_ok:
        diagnostics.append(f"weight triple with common factor: q = {m.weights}")
    elif not wf:
        diagnostics.append(
            f"weight pair with common factor lacks a supporting coordinate line: q = {m.weights}"
        )
    diagnostics.append(
        "well-formedness decided by the combinatorial line-support criterion; "
        "audit borderline weight systems by hand"
    )

    if char.positive:
        bad_weight = any(qi % char.p == 0 for qi in m.weights)
        divides_d = m.exponent % char.p == 0
        char_ok = not bad_weight and not divides_d
        if bad_weight:
            diagnostics.append(f"characteristic {char.p} divides a weight of {m.weights}")
        if divides_d:
            diagnostics.append(f"characteristic {char.p} divides the exponent {m.exponent}")
    else:
        char_ok = True

    if group is not None:
        diagnostics.append(f"group order {group.order}")

    verdict = qs and wf and char_ok
    return AdequacyReport(
        quasi_smooth=qs,
        well_formed=wf,
        weight_triple_gcd_ok=triple_ok,
        char_ok=char_ok,
        verdict=verdict,
        diagnostics=tuple(diagnostics),
        atoms=atoms,
    )


def _describe_atoms(atoms: tuple[Atom, ...]) -> str:
    parts = []
    for kind, variables, exponents in atoms:
        body = ",".join(f"x{v}^{e}" for v, e in zip(variables, exponents))
        parts.append(f"{kind}({body})")
    return " + ".join(parts)
