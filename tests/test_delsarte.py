"""Construction of weighted Delsarte data: weights, degree, exponent, and the
integral scaled inverse, against values frozen from independent computations."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import bhk.cli as cli
import bhk.delsarte as delsarte

from bhk import Characteristic, build_delsarte, is_calabi_yau, transpose
from bhk.delsarte import is_prime
from bhk.arith import IDENTITY4
from bhk.errors import (
    CharDividesDet,
    InternalCheckError,
    NegativeEntry,
    NonpositiveWeight,
    RowWithoutZero,
    SingularMatrix,
)
from conftest import A_EX_ROWS, A_F_ROWS, CHAR0, LOOP_ROWS, MIXED_ROWS, NONCY_LOOP_ROWS, build
from oracles import inverse, mat_mul


def test_characteristic_validation():
    assert not Characteristic(0).positive
    assert Characteristic(7).positive
    # The last is the least strong pseudoprime to the bases 2, ..., 41, where
    # the primality test stops being exact, so it is rejected unanswered.
    for bad in (-1, 1, 4, 6, 9, 3317044064679887385961981):
        with pytest.raises(ValueError):
            Characteristic(bad)


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
