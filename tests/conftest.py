"""Shared fixtures: example matrices, a searched Calabi-Yau catalog, and
random generators used by the property and acceptance suites."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

import pytest

from bhk import (
    Characteristic,
    DelsarteMatrix,
    adequacy,
    build_delsarte,
    is_calabi_yau,
    j_element,
    j_subgroup,
    sl_subgroup,
    subgroup_generated,
    transpose,
)
from bhk.symmetry import aut_group

CHAR0 = Characteristic(0)

A_EX_ROWS = ((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 6, 1), (0, 0, 0, 7))
A_F_ROWS = ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4))
LOOP_ROWS = ((3, 1, 0, 0), (0, 3, 1, 0), (0, 0, 3, 1), (1, 0, 0, 3))
MIXED_ROWS = ((3, 1, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4))
NONCY_LOOP_ROWS = ((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2))


def build(rows, p: int = 0) -> DelsarteMatrix:
    return build_delsarte(rows, Characteristic(p))


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n if n > 0 else bytearray()
    out = []
    for p in range(2, n):
        if sieve[p]:
            out.append(p)
            for k in range(p * p, n, p):
                sieve[k] = 0
    return out


# ---------------------------------------------------------------------------
# Catalog of Calabi-Yau matrices assembled from atomic templates.

_STRUCTURES = (
    (("fermat", 1), ("fermat", 1), ("fermat", 1), ("fermat", 1)),
    (("fermat", 1), ("fermat", 1), ("chain", 2)),
    (("fermat", 1), ("chain", 3)),
    (("chain", 2), ("chain", 2)),
    (("chain", 4),),
    (("fermat", 1), ("fermat", 1), ("loop", 2)),
    (("fermat", 1), ("loop", 3)),
    (("loop", 4),),
    (("loop", 2), ("loop", 2)),
    (("chain", 2), ("loop", 2)),
)


def rows_from_atoms(atoms) -> tuple:
    """Rows of the exponent matrix for a list of (kind, variables, exponents)."""
    rows = [[0, 0, 0, 0] for _ in range(4)]
    for kind, variables, exponents in atoms:
        k = len(variables)
        for idx, v in enumerate(variables):
            rows[v][v] = exponents[idx]
            if kind == "chain" and idx + 1 < k:
                rows[v][variables[idx + 1]] = 1
            elif kind == "loop":
                rows[v][variables[(idx + 1) % k]] = 1
    return tuple(tuple(r) for r in rows)


def _structure_atoms(structure, exponents):
    atoms = []
    v = 0
    pos = 0
    for kind, size in structure:
        variables = tuple(range(v, v + size))
        exps = tuple(exponents[pos : pos + size])
        atoms.append((kind if size > 1 else "fermat", variables, exps))
        v += size
        pos += size
    return atoms


@lru_cache(maxsize=None)
def cy_catalog(max_det: int = 2500, max_exponent: int = 8) -> tuple:
    """Calabi-Yau, quasi-smooth, well-formed matrices whose transposes are too."""
    found = {}
    for structure in _STRUCTURES:
        for exps in product(range(2, max_exponent + 1), repeat=4):
            rows = rows_from_atoms(_structure_atoms(structure, exps))
            if rows in found:
                continue
            try:
                m = build_delsarte(rows, CHAR0)
            except Exception:
                continue
            if abs(m.det) > max_det or not is_calabi_yau(m):
                continue
            if not adequacy(m, None, CHAR0).verdict:
                continue
            try:
                mt = transpose(m, CHAR0)
            except Exception:
                continue
            if not adequacy(mt, None, CHAR0).verdict:
                continue
            found[rows] = m
    extra = ((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 42))
    m = build_delsarte(extra, CHAR0)
    assert is_calabi_yau(m)
    found[extra] = m
    return tuple(found.values())


@lru_cache(maxsize=None)
def cy_catalog_small(max_det: int = 300) -> tuple:
    """The catalog entries small enough for heavy per-case group work."""
    return tuple(m for m in cy_catalog() if abs(m.det) <= max_det)


def random_group_between(rng: random.Random, m: DelsarteMatrix, extra: int = 2):
    """A random subgroup between J and SL: close J together with a few SL elements."""
    sl = sl_subgroup(aut_group(m))
    gens = [j_element(m)]
    for _ in range(rng.randint(0, extra)):
        gens.append(rng.choice(sl.elements))
    return subgroup_generated(m.exponent, gens)


def random_valid_rows(rng: random.Random, max_exponent: int = 6) -> tuple:
    """A random valid (not necessarily Calabi-Yau) matrix: random atomic
    structure, random exponents, random variable relabeling and row order."""
    structure = rng.choice(_STRUCTURES)
    exps = [rng.randint(2, max_exponent) for _ in range(4)]
    atoms = _structure_atoms(structure, exps)
    relabel = list(range(4))
    rng.shuffle(relabel)
    relabeled = [
        (kind, tuple(relabel[v] for v in variables), exponents)
        for kind, variables, exponents in atoms
    ]
    rows = list(rows_from_atoms(relabeled))
    rng.shuffle(rows)
    return tuple(rows)


@pytest.fixture(scope="session")
def a_ex():
    return build(A_EX_ROWS)


@pytest.fixture(scope="session")
def a_f():
    return build(A_F_ROWS)


@pytest.fixture(scope="session")
def loop_m():
    return build(LOOP_ROWS)


@pytest.fixture(scope="session")
def mixed_m():
    return build(MIXED_ROWS)


@pytest.fixture(scope="session")
def catalog():
    return cy_catalog()


@pytest.fixture(scope="session")
def catalog_small():
    return cy_catalog_small()
