"""Field arithmetic of the Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from abch.scalars import QQi, render_coeff
from abch.model import parse_coeff

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=12
)
scalars = st.builds(QQi, rationals, rationals)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_conjugation_and_modulus(a):
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0


@given(scalars, scalars)
def test_division(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


@given(scalars)
def test_render_parse_round_trip(a):
    assert parse_coeff(render_coeff(a)) == a


def test_canonical_forms():
    assert render_coeff(QQi(3)) == "3"
    assert render_coeff(QQi(Fraction(-1, 2))) == "-1/2"
    assert render_coeff(QQi(0, 1)) == "i"
    assert render_coeff(QQi(0, -1)) == "-i"
    assert render_coeff(QQi(0, Fraction(3, 4))) == "3/4i"
    assert render_coeff(QQi(Fraction(1, 2), Fraction(3, 4))) == "(1/2 + 3/4i)"
    assert render_coeff(QQi(1, -1)) == "(1 - i)"
