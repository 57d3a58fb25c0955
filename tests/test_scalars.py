import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublat.exactlin import (
    GaussianRational,
    I_UNIT,
    MAX_LITERAL_DIGITS,
    ONE,
    ScalarParseError,
    ZERO,
    as_scalar,
    format_scalar,
    parse_scalar,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


PARSE_CASES = [
    ("0", gr(0)),
    ("1", gr(1)),
    ("-1", gr(-1)),
    ("1/2", gr(Fraction(1, 2))),
    ("-3/4", gr(Fraction(-3, 4))),
    ("i", gr(0, 1)),
    ("-i", gr(0, -1)),
    ("2i", gr(0, 2)),
    ("1/2i", gr(0, Fraction(1, 2))),
    ("-2/5i", gr(0, Fraction(-2, 5))),
    ("1+i", gr(1, 1)),
    ("1-i", gr(1, -1)),
    ("3/4-2/5i", gr(Fraction(3, 4), Fraction(-2, 5))),
    ("-1/2+7/3i", gr(Fraction(-1, 2), Fraction(7, 3))),
    ("2/4", gr(Fraction(1, 2))),
]


@pytest.mark.parametrize("text,expected", PARSE_CASES)
def test_parse_examples(text, expected):
    assert parse_scalar(text) == expected


FORMAT_CASES = [
    (gr(0), "0"),
    (gr(1), "1"),
    (gr(-2), "-2"),
    (gr(Fraction(1, 2)), "1/2"),
    (gr(0, 1), "i"),
    (gr(0, -1), "-i"),
    (gr(0, Fraction(1, 2)), "1/2i"),
    (gr(1, 1), "1+i"),
    (gr(1, -1), "1-i"),
    (gr(Fraction(3, 4), Fraction(-2, 5)), "3/4-2/5i"),
    (gr(Fraction(-1, 2), Fraction(7, 3)), "-1/2+7/3i"),
]


@pytest.mark.parametrize("value,expected", FORMAT_CASES)
def test_format_examples(value, expected):
    assert format_scalar(value) == expected


BAD_TEXT = [
    ("", 0),
    ("abc", 0),
    ("1//2", 2),
    ("1/", 2),
    ("1/0", 2),
    ("1+", 2),
    ("1+2", 3),
    ("1i2", 2),
    ("i+1", 1),
    ("1 + i", 1),
    ("--1", 1),
    ("1+ i", 2),
    # digits are ASCII 0-9 only: no superscripts, full-width or Arabic-Indic
    ("\u00b2", 0),
    ("1/\u00b2", 2),
    ("\uff13", 0),
    ("\u0663", 0),
]


@pytest.mark.parametrize("text,position", BAD_TEXT)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(text)
    assert err.value.position == position


def test_literals_longer_than_the_digit_limit_are_refused():
    nines = "9" * MAX_LITERAL_DIGITS
    assert parse_scalar(nines) == gr(int(nines))
    assert parse_scalar(f"1/{nines}i") == gr(0, Fraction(1, int(nines)))
    for text, position in ((nines + "9", 0), (f"1/{nines}9", 2), (f"1-{nines}9i", 2)):
        with pytest.raises(ScalarParseError, match=f"more than {MAX_LITERAL_DIGITS} digits") as e:
            parse_scalar(text)
        assert e.value.position == position


def test_round_trip_thousand_cases(rng, random_scalar):
    for _ in range(1000):
        z = random_scalar()
        assert parse_scalar(format_scalar(z)) == z


def test_exact_thirds():
    third = gr(Fraction(1, 3))
    assert third + third + third == ONE


def test_division_and_conjugation():
    z = gr(Fraction(3, 4), Fraction(-2, 5))
    assert z / z == ONE
    assert (ONE / I_UNIT) == gr(0, -1)
    assert z.conjugate().conjugate() == z
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_mixed_arithmetic_with_ints_and_fractions():
    z = gr(1, 2)
    assert z + 1 == gr(2, 2)
    assert 1 + z == gr(2, 2)
    assert z * Fraction(1, 2) == gr(Fraction(1, 2), 1)
    assert 2 - z == gr(1, -2)
    assert as_scalar("1/2-i") == gr(Fraction(1, 2), -1)


@pytest.mark.parametrize("real,imag,expected", [
    (3, -1, (Fraction(3), Fraction(-1))),
    (True, False, (Fraction(1), Fraction(0))),
    (Fraction(2, 4), Fraction(-6, 3), (Fraction(1, 2), Fraction(-2))),
    (Fraction(1, 3), 0, (Fraction(1, 3), Fraction(0))),
])
def test_parts_take_ints_bools_and_fractions(real, imag, expected):
    z = GaussianRational(real, imag)
    assert (z.real, z.imag) == expected
    assert type(z.real) is Fraction and type(z.imag) is Fraction


@pytest.mark.parametrize("part", [0.1, "1/2", None, 1j])
def test_parts_refuse_inexact_values(part):
    # the wording of as_scalar, which refuses the same values
    message = f"^cannot interpret {re.escape(repr(part))} as an exact scalar$"
    with pytest.raises(TypeError, match=message):
        GaussianRational(part)
    with pytest.raises(TypeError, match=message):
        GaussianRational(Fraction(1), part)
    if not isinstance(part, str):
        with pytest.raises(TypeError, match=message):
            as_scalar(part)


fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)
scalars_st = st.builds(GaussianRational, fractions_st, fractions_st)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scalars_st, scalars_st, scalars_st)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scalars_st)
def test_round_trip_property(z):
    assert parse_scalar(format_scalar(z)) == z


@settings(max_examples=100, derandomize=True, deadline=None)
@given(scalars_st, scalars_st)
def test_division_inverts_multiplication(a, b):
    if not b.is_zero():
        assert (a * b) / b == a
