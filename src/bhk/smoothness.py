"""Quasi-smoothness via atomic shapes (Fermat, chain, loop), well-formedness,
and the combined adequacy verdict for a pair. An atom is one `Atom` tuple
(kind, variables, exponents), and a decomposition is a tuple of them, or None
when the rows do not split into atoms."""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from .arith import Record
from .delsarte import Characteristic, DelsarteMatrix


class Atom(Record):
    """One atomic shape over some of the four variables.

    `kind` is "fermat" (y^e, one variable), "chain" (y_0^{e_0} y_1 + ... +
    y_k^{e_k}, listed head to tail) or "loop" (y_0^{e_0} y_1 + ... + y_k^{e_k}
    y_0, listed from the least variable); `exponents` runs along `variables`.
    """

    __slots__ = ()
    _fields = ("kind", "variables", "exponents")
    kind = property(itemgetter(0))  # str
    variables = property(itemgetter(1))  # tuple[int, ...]
    exponents = property(itemgetter(2))  # tuple[int, ...]


class AdequacyReport(Record):
    """The adequacy checks of a matrix at a characteristic, `verdict` their
    conjunction, and `diagnostics` the lines that describe them."""

    __slots__ = ()
    _fields = ("quasi_smooth", "well_formed", "weight_triple_gcd_ok", "char_ok", "verdict", "diagnostics", "atoms")
    _field_defaults = {"atoms": None}
    quasi_smooth = property(itemgetter(0))  # bool
    well_formed = property(itemgetter(1))  # bool
    weight_triple_gcd_ok = property(itemgetter(2))  # bool
    char_ok = property(itemgetter(3))  # bool
    verdict = property(itemgetter(4))  # bool
    diagnostics = property(itemgetter(5))  # tuple[str, ...]
    atoms = property(itemgetter(6))  # tuple[Atom, ...] | None: the decomposition behind quasi_smooth


def atomic_decomposition(m: DelsarteMatrix) -> tuple[Atom, ...] | None:
    """The rows as disjoint Fermat, chain, and loop atoms covering all four
    variables, sorted by least variable, or None when they are not.

    A row is y_v^e (own variable v, no successor) or y_v^e y_w with e >= 2
    (successor w); any other row, including y_v y_w, has no shape. The rows
    must own distinct variables and name distinct successors. Each variable no
    row names heads a chain (a Fermat atom if it has no successor); the
    variables left lie on loops, each walked from its least variable.
    """
    succ: dict[int, int | None] = {}
    exps: dict[int, int] = {}
    for row in m.matrix:
        support = [j for j in range(4) if row[j] != 0]
        if len(support) == 1:
            v, w = support[0], None
        elif len(support) == 2:
            v, w = support if row[support[1]] == 1 else support[::-1]
            if row[v] < 2 or row[w] != 1:
                return None
        else:
            return None
        succ[v], exps[v] = w, row[v]
    named = {w for w in succ.values() if w is not None}
    if len(succ) < 4 or len(named) < sum(w is not None for w in succ.values()):
        return None
    atoms: list[Atom] = []
    seen: set[int] = set()
    for start in sorted(range(4), key=named.__contains__):  # heads first, each part increasing
        if start in seen:
            continue
        path = [start]
        while succ[path[-1]] not in (None, start):
            path.append(succ[path[-1]])
        seen.update(path)
        kind = "loop" if start in named else "chain" if len(path) > 1 else "fermat"
        atoms.append(Atom(kind, tuple(path), tuple(exps[v] for v in path)))
    return tuple(sorted(atoms, key=lambda atom: min(atom.variables)))


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
    atoms = atomic_decomposition(m)
    qs = atoms is not None
    if qs:
        diagnostics.append(f"atomic shapes: {_describe_atoms(atoms)}")
    else:
        diagnostics.append(
            f"not quasi-smooth: rows {m.matrix} do not decompose into Fermat, chain, and loop shapes"
        )

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
    return AdequacyReport(qs, wf, triple_ok, char_ok, verdict, tuple(diagnostics), atoms)


def _describe_atoms(atoms: tuple[Atom, ...]) -> str:
    parts = []
    for kind, variables, exponents in atoms:
        body = ",".join(f"x{v}^{e}" for v, e in zip(variables, exponents))
        parts.append(f"{kind}({body})")
    return " + ".join(parts)
