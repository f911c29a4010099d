"""Exact quaternion arithmetic: algebra table, norms, wire strings."""

from fractions import Fraction

import pytest

from monokit.quaternion import (E1, E2, E3, ONE, Quaternion, ZERO, frac, frac_str,
                                parse_components, reduced)


def test_unit_table():
    assert E1 * E2 == E3
    assert E2 * E3 == E1
    assert E3 * E1 == E2
    assert E2 * E1 == -E3
    for e in (E1, E2, E3):
        assert e * e == -ONE
    for a in (E1, E2, E3):
        for b in (E1, E2, E3):
            assert a * b + b * a == (ZERO if a != b else Quaternion(-2, 0, 0, 0))


def test_arithmetic_is_exact():
    p = Quaternion(Fraction(1, 3), Fraction(-2, 7), 1, Fraction(5, 2))
    q = Quaternion(0, Fraction(4, 9), Fraction(-1, 6), 2)
    assert (p + q) - q == p
    assert p * (q + q) == p * q + p * q
    assert (p * q).conjugate() == q.conjugate() * p.conjugate()
    assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


def test_inverse_and_division():
    p = Quaternion(Fraction(3, 4), -1, Fraction(2, 5), Fraction(-7, 3))
    assert p * p.inverse() == ONE
    assert p.inverse() * p == ONE
    assert p / Fraction(1, 2) == p + p
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sc_vec_split():
    p = Quaternion(Fraction(1, 2), 3, -4, Fraction(5, 6))
    assert p.sc() == Fraction(1, 2)
    assert p + p.conjugate() == Quaternion(2 * p.sc(), 0, 0, 0)


def test_reduced_subspace():
    a = reduced(Fraction(1, 2), -3, Fraction(4, 7))
    assert a.is_reduced()
    assert not (E1 * E2).is_reduced()
    # the reduced span is not closed under multiplication
    b = reduced(0, 1, 1)
    assert not (a * b).is_reduced() or (a * b).d == 0


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(TypeError):
        Quaternion(1.0, 0, 0, 0)


def test_string_round_trip():
    assert frac_str(Fraction(-3, 7)) == "-3/7"
    assert frac_str(Fraction(2)) == "2/1"
    p = Quaternion(Fraction(1, 3), 0, Fraction(-5, 2), 4)
    assert p.to_strings() == ["1/3", "0/1", "-5/2", "4/1"]
    assert Quaternion(*(Fraction(*pq) for pq in parse_components(p.to_strings()))) == p


def test_hash_and_bool():
    assert hash(Quaternion(1, 2, 3, 4)) == hash(Quaternion(1, 2, 3, 4))
    assert not ZERO
    assert ONE
    assert Quaternion(Fraction(2, 2), 0, 0, 0) == ONE

