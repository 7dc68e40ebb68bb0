"""Construction of weighted Delsarte data: weights, degree, exponent, and the
integral scaled inverse, against values frozen from independent computations."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhk.cli as cli
import bhk.delsarte as delsarte
import bhk.duality as duality

from bhk import Characteristic, build_delsarte, is_calabi_yau, j_element, transpose
from bhk.delsarte import is_prime
from bhk.arith import IDENTITY4, transpose_rows
from bhk.errors import (
    CharDividesDet,
    InternalCheckError,
    NegativeEntry,
    NonpositiveWeight,
    RowWithoutZero,
    SingularMatrix,
)
from conftest import A_EX_ROWS, A_F_ROWS, CHAR0, LOOP_ROWS, MIXED_ROWS, NONCY_LOOP_ROWS, build
from oracles import inverse, mat_mul, reference_build_delsarte, reference_transpose


def test_characteristic_validation():
    assert not Characteristic(0).positive
    assert Characteristic(7).positive
    # The last is the least strong pseudoprime to the bases 2, ..., 41, where
    # the primality test stops being exact, so it is rejected unanswered.
    for bad in (-1, 1, 4, 6, 9, 3317044064679887385961981):
        with pytest.raises(ValueError):
            Characteristic(bad)
        with pytest.raises(ValueError):
            Characteristic(7)._replace(p=bad)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _is_prime_by_trial_division(n) for n in range(10**5))


def test_is_prime_on_large_inputs():
    assert not is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    assert not is_prime(3825123056546413051)  # strong pseudoprime to the bases 2, ..., 23
    assert is_prime(10**16 + 61) and is_prime(10**18 + 3)
    assert Characteristic(10**18 + 3).positive


def test_chain_example_golden():
    m = build(A_EX_ROWS)
    assert m.det == 168
    assert m.weights == (2, 3, 1, 1)
    assert m.degree == 7
    assert m.exponent == 168
    assert m.b_matrix[0] == (84, -42, 7, -1)
    assert inverse(m)[0] == (
        Fraction(1, 2),
        Fraction(-1, 4),
        Fraction(1, 24),
        Fraction(-1, 168),
    )


def test_fermat_example_golden():
    m = build(A_F_ROWS)
    assert m.det == 256
    assert m.weights == (1, 1, 1, 1)
    assert m.degree == 4
    assert m.exponent == 4
    assert m.b_matrix == IDENTITY4


def test_loop_example_golden():
    m = build(LOOP_ROWS)
    assert m.det == 80
    assert m.weights == (1, 1, 1, 1)
    assert m.degree == 4
    assert m.exponent == 80


def test_mixed_example_golden():
    m = build(MIXED_ROWS)
    assert m.det == 192
    assert m.weights == (1, 1, 1, 1)
    assert m.degree == 4
    assert m.exponent == 12


def test_transpose_golden():
    mt = transpose(build(A_EX_ROWS), CHAR0)
    assert mt.det == 168
    assert mt.weights == (4, 2, 1, 1)
    assert mt.degree == 8
    assert mt.exponent == 168
    mixed_t = transpose(build(MIXED_ROWS), CHAR0)
    assert mixed_t.weights == (4, 2, 3, 3)
    assert mixed_t.degree == 12


def test_transpose_is_involution():
    for rows in (A_EX_ROWS, A_F_ROWS, LOOP_ROWS, MIXED_ROWS):
        m = build(rows)
        assert transpose(transpose(m, CHAR0), CHAR0).matrix == m.matrix


def test_b_matrix_identity():
    for rows in (A_EX_ROWS, A_F_ROWS, LOOP_ROWS, MIXED_ROWS, NONCY_LOOP_ROWS):
        m = build(rows)
        d = m.exponent
        scaled = tuple(tuple(d if i == j else 0 for j in range(4)) for i in range(4))
        assert mat_mul(m.matrix, m.b_matrix) == scaled
        assert mat_mul(m.b_matrix, m.matrix) == scaled


def test_identity_check_catches_a_wrong_adjugate_entry(tmp_path, capsys, monkeypatch):
    """One adjugate entry off by one still gives positive, coprime weights
    (49, 72, 24, 24) on the chain example, so A B = B A = d I, the only
    check of the adjugate, is what must catch it: as an internal error,
    exit status 2 on the command line."""
    real = delsarte.det_adjugate

    def off_by_one(a):
        det, adj = real(a)
        return det, ((adj[0][0] + 1, *adj[0][1:]), *adj[1:])

    monkeypatch.setattr(delsarte, "det_adjugate", off_by_one)
    with pytest.raises(InternalCheckError, match="A B = B A = d I"):
        build(A_EX_ROWS)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": A_EX_ROWS}))
    assert cli.main(["picard", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "InternalCheckError"


def test_identity_check_catches_a_transpose_given_the_untransposed_adjugate(tmp_path, capsys, monkeypatch):
    """`transpose` takes adj(A^T) = adj(A)^T from A instead of expanding A^T
    again. Handed adj(A) itself on the chain example, whose adjugate is not
    symmetric, it must fail A^T B^T = B^T A^T = d I: as an internal error,
    exit status 2 on the command line."""
    real = delsarte.transpose

    def untransposed_adjugate(m, char):
        return real(m._replace(adjugate=transpose_rows(m.adjugate)), char)

    with pytest.raises(InternalCheckError, match="A B = B A = d I"):
        untransposed_adjugate(build(A_EX_ROWS), CHAR0)
    monkeypatch.setattr(duality, "transpose", untransposed_adjugate)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": A_EX_ROWS}))
    assert cli.main(["picard", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "InternalCheckError"


def test_divisibility_chain_goldens():
    for rows in (A_EX_ROWS, A_F_ROWS, LOOP_ROWS, MIXED_ROWS, NONCY_LOOP_ROWS):
        m = build(rows)
        assert m.exponent % m.degree == 0
        assert abs(m.det) % m.exponent == 0
        assert m.exponent**4 % abs(m.det) == 0


def test_calabi_yau_detection():
    assert is_calabi_yau(build(A_EX_ROWS))
    assert is_calabi_yau(build(A_F_ROWS))
    assert is_calabi_yau(build(LOOP_ROWS))
    assert is_calabi_yau(build(MIXED_ROWS))
    assert not is_calabi_yau(build(NONCY_LOOP_ROWS))
    assert is_calabi_yau(
        build(((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 42)))
    )


def test_rejects_negative_entry():
    rows = ((2, -1, 0, 0), (0, 2, 1, 0), (0, 0, 6, 1), (0, 0, 0, 7))
    with pytest.raises(NegativeEntry):
        build(rows)


def test_rejects_row_without_zero():
    rows = ((1, 1, 1, 1), (0, 2, 1, 0), (0, 0, 6, 1), (0, 0, 0, 7))
    with pytest.raises(RowWithoutZero):
        build(rows)


def test_rejects_singular():
    rows = ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 6, 1), (0, 0, 0, 7))
    with pytest.raises(SingularMatrix):
        build(rows)


def test_rejects_characteristic_dividing_det():
    with pytest.raises(CharDividesDet):
        build(A_EX_ROWS, 2)
    with pytest.raises(CharDividesDet):
        build(A_EX_ROWS, 7)
    build(A_EX_ROWS, 5)  # 5 does not divide 168


def test_rejects_nonpositive_weight():
    rows = ((1, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 1), (0, 0, 1, 2))
    with pytest.raises(NonpositiveWeight):
        build(rows)


def test_rejects_malformed_shapes():
    with pytest.raises(ValueError):
        build(((1, 2, 3), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(ValueError):
        build_delsarte(
            ((1.5, 0, 0, 0), (0, 2, 1, 0), (0, 0, 6, 1), (0, 0, 0, 7)), CHAR0
        )


def test_weights_are_coprime_catalog(catalog):
    from math import gcd

    for m in catalog:
        assert gcd(gcd(m.weights[0], m.weights[1]), gcd(m.weights[2], m.weights[3])) == 1
        assert sum(m.weights) == m.degree  # Calabi-Yau catalog


def test_b_row_sums_are_the_grading_element(catalog_small):
    """B 1 = d A^(-1) 1 = (d/h) q = j, and 1 B = j of A^T, as integers, with no
    reduction mod d: so SL of A^T, the solutions of j . x = 0 mod d mapped to
    x B, is the dual of J, and the two are solved once."""
    for m in catalog_small:
        assert tuple(sum(row) for row in m.b_matrix) == j_element(m)
        assert tuple(sum(col) for col in zip(*m.b_matrix)) == j_element(transpose(m, CHAR0))


# 4x4 matrices with entries in [-2, 60], biased to 0: uniform ones, with
# half their entries 0, and near-diagonal ones, their off-diagonal entries
# mostly 0 or 1 and their rows shuffled, as most invertible matrices are.
ENTRIES = st.one_of(st.just(0), st.integers(-2, 60))
OFF_DIAGONAL = st.one_of(st.just(0), st.just(0), st.just(0), st.just(1), st.integers(-2, 60))
DIAGONAL = st.one_of(st.integers(2, 8), st.integers(2, 8), st.integers(-2, 60))
MATRICES = st.one_of(
    st.lists(st.lists(ENTRIES, min_size=4, max_size=4), min_size=4, max_size=4),
    st.tuples(
        *[st.tuples(*[DIAGONAL if i == j else OFF_DIAGONAL for j in range(4)]) for i in range(4)]
    ).flatmap(st.permutations),
)


def _outcome(build_fn, *args):
    """The record built, or the class and message of what was raised."""
    try:
        return build_fn(*args)
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(rows=MATRICES, p=st.sampled_from([0, 2, 3, 5, 7]))
def test_matrix_layer_matches_the_reference_checks(rows, p):
    """`build_delsarte` and `transpose` raise the same class and message as
    the checks written one entry at a time, or return equal records."""
    char = Characteristic(p)
    got = _outcome(build_delsarte, rows, char)
    assert got == _outcome(reference_build_delsarte, rows, char)
    if isinstance(got, delsarte.DelsarteMatrix):
        assert _outcome(transpose, got, char) == _outcome(reference_transpose, got, char)
