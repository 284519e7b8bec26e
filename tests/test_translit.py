"""Notation parsing and formatting, including the rejection contract."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sexagesimal import translit
from sexagesimal.core import ZERO, FloatingSex, SexNumber
from sexagesimal.translit import (
    DigitRangeError,
    ParseError,
    Transliteration,
    parse,
    to_number,
)


class TestParse:
    def test_mixed_number(self):
        t = parse("10,12;45")
        assert t.digits == (10, 12, 45)
        assert t.semicolon_index == 2
        assert t.raw == "10,12;45"

    def test_single_digit(self):
        t = parse("1")
        assert t.digits == (1,)
        assert t.semicolon_index is None

    def test_interior_zeros_are_kept(self):
        t = parse("0;0,0,45")
        assert t.digits == (0, 0, 0, 45)
        assert t.semicolon_index == 1

    def test_headless_fraction(self):
        t = parse(";45")
        assert t.digits == (45,)
        assert t.semicolon_index == 0

    def test_whitespace_tolerated(self):
        assert parse(" 10 , 12 ; 45 ").digits == (10, 12, 45)

    def test_zero(self):
        assert parse("0").digits == (0,)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("", 0),
            ("   ", 3),
            (";", 1),
            ("10;", 3),
            ("10,", 3),
            (",5", 0),
            ("10,,5", 3),
            ("1;2;3", 3),
            ("06", 0),
            ("0,5", 0),
            ("  0,5", 2),
            ("0,5;3", 0),
            ("abc", 0),
            ("1.5", 1),
            ("-5", 0),
            ("1,x", 2),
            ("10,12;45;", 8),
        ],
    )
    def test_malformed_inputs_report_positions(self, text, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text, value, position",
        [("60", 60, 0), ("1,75", 75, 2), ("123", 123, 0)],
    )
    def test_digit_range_errors(self, text, value, position):
        with pytest.raises(DigitRangeError) as info:
            parse(text)
        assert info.value.value == value
        assert info.value.position == position

    def test_unicode_digits_rejected(self):
        with pytest.raises(ParseError):
            parse("١٥")  # Arabic-Indic 15

    @given(st.text(max_size=30))
    def test_rejection_totality(self, text):
        # any input either parses or raises a positioned ParseError
        try:
            parse(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)


class TestTransliterationType:
    def test_direct_construction_validates(self):
        Transliteration((0, 6), 1, "0;6")
        with pytest.raises(ValueError):
            Transliteration((), None, "")
        with pytest.raises(ValueError):
            Transliteration((61,), None, "61")
        with pytest.raises(ValueError):
            Transliteration((0, 5), None, "0,5")
        with pytest.raises(ValueError):
            Transliteration((1, 2), 5, "bad index")


class TestToNumber:
    def test_integer(self):
        assert to_number(parse("40,51"), "absolute") == SexNumber(2451)

    def test_fraction(self):
        assert to_number(parse("0;15"), "absolute") == SexNumber(15, -1)

    def test_floating_single_digit(self):
        assert to_number(parse("0;6"), "floating") == FloatingSex(6)

    def test_floating_ignores_anchoring(self):
        assert to_number(parse("0;0,45"), "floating") == FloatingSex(45)
        assert to_number(parse("45"), "floating") == FloatingSex(45)

    def test_headless_fraction_value(self):
        assert to_number(parse(";45"), "absolute") == SexNumber(45, -1)

    def test_all_zero_has_no_floating_value(self):
        with pytest.raises(ValueError):
            to_number(parse("0;0"), "floating")
        assert to_number(parse("0;0"), "absolute") == ZERO

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            to_number(parse("1"), "anchored")


class TestFormat:
    def test_table_reciprocal_with_interior_zero(self):
        assert translit.format(SexNumber(20250, -4)) == "0;0,5,37,30"

    def test_zero(self):
        assert translit.format(ZERO) == "0"

    def test_floating_digits(self):
        assert translit.format(FloatingSex(1280)) == "21,20"

    def test_trailing_zero_places(self):
        assert translit.format(SexNumber(1, 2)) == "1,0,0"

    def test_mixed(self):
        assert translit.format(SexNumber(36765, -1)) == "10,12;45"

    def test_floating_style_on_anchored_value(self):
        assert translit.format(SexNumber(20250, -4), "floating") == "5,37,30"
        with pytest.raises(ValueError):
            translit.format(ZERO, "floating")

    def test_anchored_style_needs_anchored_value(self):
        with pytest.raises(TypeError):
            translit.format(FloatingSex(6), "anchored")

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            translit.format(FloatingSex(6), "cuneiform")


class TestRoundTrip:
    @given(st.builds(SexNumber, st.integers(0, 60**8), st.integers(-10, 10)))
    def test_absolute(self, x):
        assert to_number(parse(translit.format(x)), "absolute") == x

    @given(st.builds(FloatingSex, st.integers(1, 60**8)))
    def test_floating(self, x):
        assert to_number(parse(translit.format(x)), "floating") == x

    def test_table_corpus_reformats_byte_for_byte(self, golden_rows):
        for _, value_text, reciprocal_text in golden_rows:
            value = to_number(parse(value_text), "floating")
            assert translit.format(value) == value_text
            rec = to_number(parse(reciprocal_text), "absolute")
            assert translit.format(rec) == reciprocal_text
