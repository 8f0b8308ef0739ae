import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sigmatail import magnitude as mg
from sigmatail.errors import DomainError, ParseError
from sigmatail.gauss import occurrence_days, occurrence_years, streak_probability
from sigmatail.magnitude import (
    Magnitude, ONE, ZERO, format_sci, from_real, from_sci, parse, pow_int,
)
from sigmatail.scales import compare_to_references, lottery_equivalent, order_gap

# frozen from a 60-digit log10 oracle
LOG10_4E_MINUS7 = -6.39794000867203761
LOG10_9345E_MINUS272 = -271.029420694285149


class TestFromReal:
    def test_one(self):
        assert from_real(1.0).log10_value == 0.0

    def test_zero(self):
        m = from_real(0.0)
        assert m.is_zero
        assert m == ZERO

    def test_small_decimal(self):
        assert from_real(0.0000004).log10_value == pytest.approx(LOG10_4E_MINUS7, abs=1e-14)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            from_real(bad)

    def test_rejects_non_numbers(self):
        with pytest.raises(DomainError):
            from_real("0.5")

    def test_int_beyond_float_range(self):
        with pytest.raises(DomainError, match="^value must be finite$"):
            from_real(10 ** 400)


class TestFromSci:
    def test_table_probability(self):
        m = from_sci(3.057, -138)
        assert m.log10_value == pytest.approx(math.log10(3.057) - 138, abs=1e-12)

    def test_unit(self):
        assert from_sci(1.0, 0) == ONE

    def test_period(self):
        m = from_sci(1.309, 135)
        assert m.log10_value == pytest.approx(math.log10(1.309) + 135, abs=1e-12)

    @pytest.mark.parametrize("mant", [0.0, 0.999, 10.0, -3.0, math.inf])
    def test_mantissa_range(self, mant):
        with pytest.raises(DomainError):
            from_sci(mant, 0)

    def test_exponent_cap(self):
        with pytest.raises(DomainError):
            from_sci(1.0, 10 ** 16)

    @pytest.mark.parametrize("exponent", [2.5, 3.0, True, "3", None])
    def test_exponent_must_be_int(self, exponent):
        with pytest.raises(DomainError, match="^exponent must be an integer$"):
            from_sci(1.0, exponent)

    @pytest.mark.parametrize("mant", [True, False])
    def test_bool_mantissa_rejected(self, mant):
        with pytest.raises(DomainError, match="^mantissa must be a finite real$"):
            from_sci(mant, 3)

    def test_int_mantissa_beyond_float_range(self):
        with pytest.raises(DomainError, match="^mantissa must be a finite real$"):
            from_sci(10 ** 400, 3)

    def test_int_mantissa_accepted(self):
        assert from_sci(2, 3) == from_real(2000.0)


class TestArithmetic:
    def test_square_of_percent_figure(self):
        sq = parse("3.057e-136") * parse("3.057e-136")
        assert format_sci(sq, 4) == "9.345e-272"

    def test_lottery_power_21(self):
        m = pow_int(from_real(4e-7), 21)
        assert format_sci(m, 4) == "4.398e-135"
        assert m.log10_value == pytest.approx(21 * LOG10_4E_MINUS7, rel=1e-15)

    def test_lottery_power_22(self):
        m = pow_int(from_real(4e-7), 22)
        assert format_sci(m, 5) == "1.7592e-141"

    def test_multiplicative_identity(self):
        x = parse("3.057e-138")
        assert x * from_real(1.0) == x

    def test_zero_absorbs(self):
        assert (ZERO * parse("1e300")).is_zero
        assert (ZERO / ONE).is_zero

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ONE / ZERO
        with pytest.raises(DomainError):
            ZERO / ZERO

    def test_pow_of_zero(self):
        assert pow_int(ZERO, 3).is_zero
        with pytest.raises(DomainError):
            pow_int(ZERO, 0)
        with pytest.raises(DomainError):
            pow_int(ZERO, -1)

    def test_pow_zero_exponent(self):
        assert pow_int(parse("5e-20"), 0) == ONE

    @pytest.mark.parametrize("log10_a, n", [
        (2.0, 10 ** 15), (2.0, 10 ** 308), (-6.5, 10 ** 308), (-6.5, 10 ** 309),
        (-6.5, -(10 ** 400)), (1e-300, 10 ** 316),
    ], ids=["past-cap", "to-inf", "to-minus-inf", "n-past-float", "negative-n", "tiny-base"])
    def test_pow_past_cap(self, log10_a, n):
        # |log10 a * n| > LOG10_CAP, overflowing a float product, or with an n
        # that no float holds: never zero, never a float error
        with pytest.raises(DomainError, match=r"^exponent out of supported range: \|log10\| = "):
            pow_int(Magnitude(log10_a), n)

    def test_pow_exact_for_any_n(self):
        assert pow_int(ONE, 10 ** 400) == ONE
        assert pow_int(ZERO, 10 ** 400).is_zero
        assert pow_int(Magnitude(1e-300), 10 ** 310) == Magnitude(1e10)
        assert pow_int(Magnitude(-2.0), -(10 ** 14)) == Magnitude(2e14)

    def test_pow_requires_integer(self):
        with pytest.raises(DomainError):
            pow_int(ONE, 2.5)

    def test_overflow_cap(self):
        big = Magnitude(9e14)
        with pytest.raises(DomainError, match="exponent out of supported range"):
            big * big
        with pytest.raises(DomainError, match="exponent out of supported range"):
            big / (ONE / big)

    def test_operators(self):
        a, b = from_real(2.0), from_real(8.0)
        assert (a * b).log10_value == pytest.approx(math.log10(16.0), abs=1e-15)
        assert (b / a).log10_value == pytest.approx(math.log10(4.0), abs=1e-15)


class TestCompare:
    def test_bracketing_order(self):
        hi = parse("4.3980e-135")
        mid = parse("3.057e-138")
        lo = parse("1.7592e-141")
        assert hi > mid
        assert mid > lo
        assert hi > mid > lo

    def test_equal(self):
        x = parse("3.057e-138")
        assert x == x and x <= x and x >= x
        assert not (x < x or x > x or x != x)

    def test_zero_below_everything(self):
        assert ZERO < parse("1e-900")
        assert ZERO == ZERO and not ZERO < ZERO

    def test_hashable(self):
        assert hash(parse("2e5")) == hash(parse("2e5"))
        assert len({ZERO, from_real(0.0), ONE}) == 2


class TestOperators:
    # pairs over zero/zero, zero/nonzero and nonzero values, including equal ones
    VALUES = [ZERO, from_real(0.0), Magnitude(-300.0), parse("3.057e-138"), ONE,
              from_real(1.0), Magnitude(1e14)]

    @staticmethod
    def _key(m):
        return (not m.is_zero, m.log10_value)

    @pytest.mark.parametrize("a", VALUES)
    @pytest.mark.parametrize("b", VALUES)
    def test_six_comparisons_follow_value_order(self, a, b):
        ka, kb = self._key(a), self._key(b)
        assert (a == b) == (ka == kb)
        assert (a != b) == (ka != kb)
        assert (a < b) == (ka < kb)
        assert (a <= b) == (ka <= kb)
        assert (a > b) == (ka > kb)
        assert (a >= b) == (ka >= kb)

    @pytest.mark.parametrize("op", [
        lambda m: m * 2.0, lambda m: 2.0 * m, lambda m: m / 2.0, lambda m: 2.0 / m,
        lambda m: m < 2.0, lambda m: m >= 2.0, lambda m: 2.0 < m,
        lambda m: m > 2.0, lambda m: m <= 2.0, lambda m: 2.0 > m, lambda m: 2.0 >= m,
    ])
    def test_float_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(from_real(3.0))

    def test_float_is_never_equal(self):
        assert from_real(1.0) != 1.0
        assert not from_real(1.0) == 1.0
        assert 1.0 != from_real(1.0)

    def test_zero_divided_is_zero(self):
        for divisor in (parse("1e-300"), Magnitude(9e14)):
            q = ZERO / divisor
            assert q == ZERO and q.is_zero

    @pytest.mark.parametrize("x", [ZERO, ONE, parse("1e-300")])
    def test_divide_by_zero_raises(self, x):
        with pytest.raises(DomainError, match="^division by zero$"):
            x / ZERO


class TestFormat:
    def test_unit(self):
        assert format_sci(from_real(1.0), 4) == "1.000e+0"

    def test_rounding_to_four_digits(self):
        assert format_sci(parse("5.2494e+20"), 4) == "5.249e+20"

    def test_mantissa_rollover(self):
        assert format_sci(from_real(9.9999), 4) == "1.000e+1"

    def test_single_digit(self):
        assert format_sci(parse("2.7e5"), 1) == "3e+5"

    def test_zero(self):
        assert ZERO.sci_parts() == (0.0, 0)
        assert format_sci(ZERO, 4) == "0.000e+0"
        assert parse(format_sci(ZERO, 4)).is_zero

    def test_negative_exponent_no_leading_zeros(self):
        assert format_sci(parse("3.057e-006"), 4) == "3.057e-6"

    def test_str_prints_six_digits(self):
        assert str(from_real(2.5)) == "2.50000e+0"

    @pytest.mark.parametrize("digits", [0, 18, -1, 3.5, True])
    def test_digit_bounds(self, digits):
        with pytest.raises(DomainError):
            format_sci(ONE, digits)


class TestParse:
    def test_scientific(self):
        assert parse("9.3450e-272").log10_value == pytest.approx(
            LOG10_9345E_MINUS272, abs=1e-12)

    def test_plain_decimal(self):
        assert parse("43.956").log10_value == pytest.approx(math.log10(43.956), abs=1e-15)

    def test_beyond_double_range(self):
        m = parse("3.057e-1000")
        assert m.log10_value == pytest.approx(math.log10(3.057) - 1000, abs=1e-10)
        assert parse("2e400").log10_value == pytest.approx(math.log10(2) + 400, abs=1e-10)

    def test_long_digit_string(self):
        assert parse("9" * 400).log10_value == pytest.approx(400.0, abs=1e-9)

    def test_zero_forms(self):
        for text in ["0", "0.0", "0e10", "0.000e+0"]:
            assert parse(text).is_zero

    @pytest.mark.parametrize("bad", ["", "abc", "1.2.3", "e5", "1e", "--1", "1 2"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_non_text(self):
        with pytest.raises(ParseError, match="^expected text, got float$"):
            parse(3.0)

    @pytest.mark.parametrize("text", ["\u0663e-5", "1e-\u0665", "\u00a03e-5", "3e-5\u2028"])
    def test_non_ascii_digits_and_spaces_rejected(self, text):
        # Arabic-Indic digits once parsed as ZERO: \d matched them but the
        # nonzero test did not
        with pytest.raises(ParseError):
            parse(text)

    def test_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            parse("-3e-5")

    def test_exponent_cap(self):
        with pytest.raises(DomainError):
            parse("1e9999999999999999")

    @pytest.mark.parametrize("text", ["1e" + "9" * 400, "2.5e-" + "9" * 400, "1e+" + "9" * 5000],
                             ids=["400-digits", "negative", "5000-digits"])
    def test_exponent_past_float_range(self, text):
        # exponents past the float range, the last past the 4,300 digits int() reads
        with pytest.raises(DomainError, match=r"^exponent out of supported range in '"):
            parse(text)

    def test_long_exponent_text(self):
        assert parse("0e" + "9" * 400).is_zero
        assert parse("0.0e-" + "9" * 5000).is_zero
        assert parse("5e+" + "0" * 5000 + "7").log10_value == math.log10(5.0) + 7


# parse() as it was with a regex: the oracle for its hand-written scanner
_NUMBER_RE = re.compile(r"^\s*([+-]?)(\d+(?:\.\d*)?|\.\d+)(?:[eE]([+-]?\d+))?\s*$", re.ASCII)


def _regex_parse(text):
    m = _NUMBER_RE.match(text)
    if not m:
        raise ParseError(f"not a number: {text!r}")
    sign, mant_text, exp_text = m.groups()
    if not any(c in "123456789" for c in mant_text):
        return ZERO
    if sign == "-":
        raise DomainError(f"negative values are not representable: {text!r}")
    mant = float(mant_text)
    if mant == 0.0 or math.isinf(mant):
        log10_mant = float(Decimal(mant_text).log10())
    else:
        log10_mant = math.log10(mant)
    value = log10_mant + (float(exp_text) if exp_text else 0.0)
    if abs(value) > mg.LOG10_CAP:
        raise DomainError(f"exponent out of supported range in {text!r}")
    return Magnitude(value)


def _outcome(parser, text):
    try:
        return parser(text)
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc)


# the grammar's own characters, the six ASCII blanks, and look-alikes it
# refuses: other ASCII separators, Unicode spaces, other scripts' digits, "²"
PARSE_ALPHABET = list("0123456789+-.eE \t\n\r\f\v") + [
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028",
    "\u0660", "\u0663", "\uff10", "\uff15", "\u00b2",
]


@settings(max_examples=3000)
@given(st.lists(st.sampled_from(PARSE_ALPHABET), max_size=14).map("".join))
@example("1.")
@example(".5")
@example("+.5e-3")
@example(" \t1e5\n")
@example("-0.0E+7")
@example("1e5\x1c")
@example("\x851")
@example("\u06635")
@example("1\u00b2")
@example("1e+")
@example("." + "9" * 400)
@example("1e" + "9" * 20)
def test_parse_matches_the_regex_grammar(text):
    assert _outcome(parse, text) == _outcome(_regex_parse, text)


class TestAsFloat:
    def test_round_trip(self):
        assert parse("3.057e-138").as_float() == pytest.approx(3.057e-138, rel=1e-13)
        assert ZERO.as_float() == 0.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            parse("1e400").as_float()
        with pytest.raises(DomainError):
            parse("1e-400").as_float()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_log10_rejected(value):
    with pytest.raises(DomainError, match="^log10 value must be finite$"):
        Magnitude(value)


@pytest.mark.parametrize("value", [-math.inf, np.float64(-math.inf)], ids=["float", "numpy"])
def test_minus_inf_log10_is_zero(value):
    m = Magnitude(value)
    assert m == ZERO and m.is_zero
    assert type(m.log10_value) is float and m.log10_value == -math.inf


@pytest.mark.parametrize("value", [10 ** 400, True, "1", np.int64(3)],
                         ids=["int-past-float", "bool", "str", "numpy-int"])
def test_non_real_log10_rejected(value):
    with pytest.raises(DomainError, match="^log10 value must be finite$"):
        Magnitude(value)


def test_int_and_numpy_float_log10_accepted():
    assert Magnitude(3) == Magnitude(3.0)
    assert Magnitude(np.float64(2.5)) == Magnitude(2.5)
    assert type(Magnitude(np.float64(2.5)).log10_value) is float


# ---------------------------------------------------------------------------
# properties

log10s = st.floats(min_value=-300.0, max_value=300.0)
positive_reals = st.floats(min_value=1e-300, max_value=1e300)


@given(positive_reals, positive_reals)
def test_mul_matches_real_arithmetic(a, b):
    direct = a * b
    if direct == 0.0 or math.isinf(direct):
        return
    got = (from_real(a) * from_real(b)).as_float()
    assert got == pytest.approx(direct, rel=1e-12)


@given(positive_reals, positive_reals)
def test_div_matches_real_arithmetic(a, b):
    direct = a / b
    if direct == 0.0 or math.isinf(direct):
        return
    got = (from_real(a) / from_real(b)).as_float()
    assert got == pytest.approx(direct, rel=1e-12)


@given(st.floats(min_value=1e-60, max_value=1e60), st.integers(min_value=-4, max_value=4))
def test_pow_int_matches_real_arithmetic(a, n):
    direct = float(a) ** n
    if direct == 0.0 or math.isinf(direct):
        return
    got = pow_int(from_real(a), n).as_float()
    assert got == pytest.approx(direct, rel=1e-12)


@given(log10s, st.integers(min_value=-10, max_value=10), st.integers(min_value=-10, max_value=10))
def test_pow_int_distributes_over_exponents(L, m, n):
    # exact equality is unattainable in a fixed-precision log domain; the
    # identity holds to ~1 ulp of the combined exponent
    a = Magnitude(L)
    if m == 0 and n == 0:
        return
    lhs = pow_int(a, m + n).log10_value
    rhs = (pow_int(a, m) * pow_int(a, n)).log10_value
    assert math.isclose(lhs, rhs, rel_tol=4e-15, abs_tol=1e-280)


@given(log10s, log10s, log10s)
def test_compare_antisymmetric_and_transitive(x, y, z):
    a, b, c = Magnitude(x), Magnitude(y), Magnitude(z)
    assert (a < b) == (b > a) and (a <= b) == (b >= a) and (a == b) == (b == a)
    trio = sorted([a, b, c])
    assert trio[0] <= trio[1] <= trio[2]
    if a <= b and b <= c:
        assert a <= c


magnitudes = st.one_of(st.just(ZERO), st.just(ONE),
                       st.floats(min_value=-mg.LOG10_CAP, max_value=mg.LOG10_CAP).map(Magnitude))


@given(magnitudes, st.integers(min_value=1, max_value=10 ** 6))
@example(ZERO, 1)
@example(Magnitude(-mg.LOG10_CAP), 10 ** 6)
def test_zero_is_log10_minus_inf(m, n):
    # the log10 round-trips for every value, zero included, and every way of
    # making zero gives the one value, which orders below every positive one
    assert Magnitude(m.log10_value) == m
    zeros = [from_real(0.0), parse("0"), ZERO * m, m * ZERO, pow_int(ZERO, n)]
    if not m.is_zero:
        zeros.append(ZERO / m)
        assert ZERO < m and ZERO <= m and m > ZERO and m >= ZERO
        assert not (m < ZERO or m <= ZERO or m == ZERO)
    for z in zeros:
        assert z == ZERO and z.is_zero and hash(z) == hash(ZERO)


@given(st.floats(min_value=-1000.0, max_value=1000.0), st.integers(min_value=14, max_value=17))
def test_format_parse_round_trip(L, digits):
    m = Magnitude(L)
    back = parse(format_sci(m, digits))
    assert abs(back.log10_value - m.log10_value) <= 1e-12


@pytest.mark.parametrize("call,message", [
    (lambda: pow_int(2.0, 3), "a must be a Magnitude"),
    (lambda: format_sci(0.5), "a must be a Magnitude"),
    (lambda: occurrence_days(0.5), "p must be a Magnitude"),
    (lambda: occurrence_years(0.5), "p must be a Magnitude"),
    (lambda: streak_probability(0.5, 2), "a must be a Magnitude"),
    (lambda: order_gap(ONE, 2.0), "b must be a Magnitude"),
    (lambda: compare_to_references(1e5), "years must be a Magnitude"),
    (lambda: lottery_equivalent(0.5), "p must be a Magnitude"),
    (lambda: lottery_equivalent(from_real(1e-6), 0.5), "model must be a LotteryModel"),
], ids=["pow_int", "format_sci", "occurrence_days", "occurrence_years", "streak_probability",
        "order_gap", "compare_to_references", "lottery_equivalent", "lottery_equivalent-model"])
def test_argument_of_the_wrong_type_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


_SYNTAX_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)


@settings(max_examples=500)
@given(st.lists(st.lists(st.sampled_from(PARSE_ALPHABET + ["_", "i", "n", "f", "a"]),
                         max_size=8).map("".join), max_size=6))
@example(["1", "2e5", "-.5"])
@example(["1", "2e5", "1e", "+3"])
@example(["inf", "nan", "1_0", "1"])
def test_read_numbers_matches_the_grammar_cell_by_cell(texts):
    # checked all at once, and one by one where one fails: the same values
    want = [float(t) if _SYNTAX_RE.fullmatch(t) else math.nan for t in texts]
    got = mg.read_numbers([t.encode() for t in texts])
    assert list(map(float.hex, got)) == list(map(float.hex, want))
