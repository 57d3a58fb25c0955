import itertools
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublat.exactlin import (
    ExactMatrix,
    GaussianRational,
    I_UNIT,
    MAX_LITERAL_DIGITS,
    ONE,
    ScalarLike,
    ScalarParseError,
    ZERO,
    as_scalar,
    format_scalar,
    parse_scalar,
)
from sublat.subspace import Subspace, span


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


# The earlier grammar and formatter, which read each imaginary form in a
# branch of its own, kept verbatim as references for the current ones.


def _reference_parse_scalar(text: str) -> GaussianRational:
    """Parse canonical scalar text.

    Accepted forms: `[-]p[/q]`, `[-]p[/q](+|-)[r[/s]]i`, and the pure
    imaginary `[-][r[/s]]i`. An omitted imaginary coefficient means 1.
    Digits are ASCII 0-9, at most MAX_LITERAL_DIGITS to a literal. Raises
    ScalarParseError (with a position) on malformed text, a longer literal
    or a zero denominator.
    """
    s = text
    n = len(s)
    pos = 0

    def fail(message: str, at: int) -> None:
        raise ScalarParseError(message, at)

    def read_sign() -> int:
        nonlocal pos
        if pos < n and s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
            return sign
        return 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and "0" <= s[pos] <= "9":
            pos += 1
        if pos == start:
            fail("expected a digit", start)
        if pos - start > MAX_LITERAL_DIGITS:
            fail(f"more than {MAX_LITERAL_DIGITS} digits", start)
        return int(s[start:pos])

    def read_fraction() -> Fraction:
        nonlocal pos
        numerator = read_int()
        if pos < n and s[pos] == "/":
            pos += 1
            dstart = pos
            denominator = read_int()
            if denominator == 0:
                fail("zero denominator", dstart)
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    if n == 0:
        fail("empty scalar", 0)
    first_sign = read_sign()
    if pos < n and s[pos] == "i":
        pos += 1
        if pos != n:
            fail("trailing characters after 'i'", pos)
        return GaussianRational(Fraction(0), Fraction(first_sign))
    first = read_fraction()
    if pos == n:
        return GaussianRational(first_sign * first)
    if s[pos] == "i":
        pos += 1
        if pos != n:
            fail("trailing characters after 'i'", pos)
        return GaussianRational(Fraction(0), first_sign * first)
    if s[pos] not in "+-":
        fail("expected '+', '-' or 'i'", pos)
    second_sign = read_sign()
    if pos < n and s[pos] == "i":
        imag = Fraction(1)
        pos += 1
    else:
        imag = read_fraction()
        if pos >= n or s[pos] != "i":
            fail("expected 'i' after the imaginary part", pos)
        pos += 1
    if pos != n:
        fail("trailing characters after 'i'", pos)
    return GaussianRational(first_sign * first, second_sign * imag)


def _reference_format_scalar(value: ScalarLike) -> str:
    """Canonical text form; parse_scalar(format_scalar(z)) == z."""
    z = as_scalar(value)
    if z.imag == 0:
        return str(z.real)
    magnitude = abs(z.imag)
    body = "" if magnitude == 1 else str(magnitude)
    if z.real == 0:
        sign = "-" if z.imag < 0 else ""
        return f"{sign}{body}i"
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real}{sign}{body}i"


def _outcome(parse, text):
    """The parsed parts, or the error's message and position."""
    try:
        z = parse(text)
    except ScalarParseError as err:
        return str(err), err.position
    return z.real, z.imag


def test_parser_matches_reference_on_every_short_string():
    texts = ["".join(t) for k in range(6) for t in itertools.product("012/+-ix ", repeat=k)]
    assert len(texts) == 66430
    for text in texts:
        assert _outcome(parse_scalar, text) == _outcome(_reference_parse_scalar, text), text


def test_formatter_matches_reference(random_scalar):
    parts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]
    fixed = [gr(re, im) for re, im in itertools.product(parts, repeat=2)]
    for z in fixed + [random_scalar() for _ in range(1000)]:
        assert format_scalar(z) == _reference_format_scalar(z)


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


def _reference_op(op, a, b):
    """a op b on (re, im) pairs of Fractions, written out part by part."""
    (ar, ai), (br, bi) = a, b
    if op is operator.add:
        return ar + br, ai + bi
    if op is operator.sub:
        return ar - br, ai - bi
    if op is operator.mul:
        return ar * br - ai * bi, ar * bi + ai * br
    norm = br * br + bi * bi
    return (ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm


_OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("op", _OPERATORS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("operand", [3, Fraction(-2, 5)], ids=["int", "Fraction"])
def test_int_and_fraction_operands_work_on_either_side(op, operand):
    z = gr(Fraction(3, 4), Fraction(-2, 7))
    parts = (z.real, z.imag)
    other = (Fraction(operand), Fraction(0))
    for result, expected in ((op(z, operand), _reference_op(op, parts, other)),
                             (op(operand, z), _reference_op(op, other, parts))):
        assert type(result) is GaussianRational
        assert (result.real, result.imag) == expected


@pytest.mark.parametrize("op", _OPERATORS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("operand", [0.5, "1/2"], ids=["float", "str"])
def test_inexact_operands_raise_type_error_on_either_side(op, operand):
    z = gr(Fraction(3, 4), Fraction(-2, 7))
    with pytest.raises(TypeError):
        op(z, operand)
    with pytest.raises(TypeError):
        op(operand, z)


def test_repr_evaluates_back():
    z = gr(Fraction(1, 2), -1)
    assert repr(z) == "GaussianRational(real=Fraction(1, 2), imag=Fraction(-1, 1))"
    namespace = {"Fraction": Fraction, "GaussianRational": GaussianRational,
                 "ExactMatrix": ExactMatrix, "Subspace": Subspace}
    m = ExactMatrix.from_rows([[z, 0], ["i", Fraction(-3, 7)]])
    for x in (z, ZERO, I_UNIT, m, span([[1, "i"], [0, "1/2-i"]]), span([[2, "-i"]])):
        assert eval(repr(x), namespace) == x


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
