"""Notation parsing and formatting, including the rejection contract."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
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

    @pytest.mark.parametrize(
        "text, position", [("7" * 5000, 0), ("1," + "7" * 5000, 2)], ids=["alone", "after-a-comma"]
    )
    def test_digit_past_the_int_text_limit(self, text, position):
        # int() of 5,000 figures exceeds the interpreter's default int/str limit.
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
            assert "digit of 5000 figures is out of range" in str(info.value)

    @pytest.mark.parametrize(
        "text, position", [("1" * 21, 0), ("1, " + "9" * 4000, 3)], ids=["21", "4000-after-a-comma"]
    )
    def test_long_digit_named_by_its_figures(self, text, position):
        figures = len(text) - position
        with pytest.raises(ParseError) as info:
            parse(text)
        assert type(info.value) is ParseError
        assert str(info.value) == (
            f"digit of {figures} figures is out of range 0..59 (column {position + 1})"
        )

    def test_twenty_figures_still_give_the_value(self):
        with pytest.raises(DigitRangeError) as info:
            parse("9" * 20)
        assert info.value.value == 10**20 - 1

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
        for bad in (60, 61, -1):
            with pytest.raises(ValueError, match=f"digit {bad} is out of range"):
                Transliteration((7, bad), None, "raw")
        with pytest.raises(ValueError):
            Transliteration((0, 5), None, "0,5")
        with pytest.raises(ValueError):
            Transliteration((1, 2), 5, "bad index")
        # Exact ints only: a float fails later in to_number, a bool reads as 1.
        for digits, semicolon_index in [((1.5, 2), None), ((True, 2), None), ((1, 2), True)]:
            with pytest.raises(TypeError, match="must be int"):
                Transliteration(digits, semicolon_index, "x")


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


def value_oracle(digits):
    value = 0
    for d in digits:
        value = value * 60 + d
    return value


def same_fields(a, b):
    fields = lambda x: [(type(getattr(x, n)), getattr(x, n)) for n in x.__slots__]
    return type(a) is type(b) and fields(a) == fields(b)


class TestToNumberAgreesWithTheChecks:
    """to_number skips the checks when the last digit is not zero; it must not matter."""

    @pytest.mark.parametrize(
        "text",
        ["1", "1,0", "1,0,0", "30,0", "0;30", "0;6", "0;0,45", ";0,45,0", "1;0", "59,59",
         "0", "0;0", "0;0,0", "10,12;45", "2,0;30,0"],
    )
    def test_explicit_cases(self, text):
        self.check(parse(text))

    @given(st.lists(st.integers(0, 59), min_size=1, max_size=200), st.data())
    def test_any_digits(self, digits, data):
        # Trailing zeros are common here: a third of the digits are zero.
        digits = [d if d % 3 else 0 for d in digits]
        si = data.draw(st.none() | st.integers(0, len(digits)))
        if digits[0] == 0 and len(digits) > 1 and si not in (0, 1):
            digits[0] = 1  # keep the leading-zero rule
        self.check(Transliteration(tuple(digits), si, "raw"))

    @staticmethod
    def check(t):
        value = value_oracle(t.digits)
        si = len(t.digits) if t.semicolon_index is None else t.semicolon_index
        assert same_fields(to_number(t, "absolute"), SexNumber(value, si - len(t.digits)))
        if value:
            assert same_fields(to_number(t, "floating"), FloatingSex(value))


class TestOneReadingRule:
    """to_number and the packed reader read every short numeral alike, or fail alike."""

    READINGS = ("floating", "absolute", "Floating")

    @staticmethod
    def reading_of(read, numeral, reading):
        try:
            return "text", translit.format(read(numeral, reading))
        except ValueError as exc:
            return "error", str(exc)

    def test_every_numeral_of_up_to_six_characters(self):
        texts = []
        for length in range(1, 7):
            for chars in itertools.product("0159,; ", repeat=length):
                text = "".join(chars)
                try:
                    numeral = parse(text)
                except ValueError:
                    continue
                for reading in self.READINGS:
                    expected = self.reading_of(to_number, numeral, reading)
                    assert self.reading_of(translit._Digits.read, numeral, reading) == expected, (
                        text, reading,
                    )
                texts.append(text)
        assert sum(" " not in text for text in texts) == 1692
        assert len(texts) > 1692


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
        assert translit.format(SexNumber(20250, -4).to_floating()) == "5,37,30"
        with pytest.raises(ValueError):
            translit.format(ZERO.to_floating())


def packed_cases():
    """(digits, exponent) pairs at the edges of the packed renderer."""
    heads = [[5], [45], [5, 7], [45, 7], [9, 10], [10, 9, 59]]  # one- and two-digit heads
    every_digit = [*range(1, 60), *range(60), 1]  # each of the 60 after a comma
    for digits in heads + [[1, 0, 0, 5], [59, 0, 30], [1, 0, 59, 0, 0, 1], every_digit]:
        n = len(digits)
        # Points after the digits (integers with trailing ,0), inside them, at
        # their start, and before it (pure fractions with 0;0, ahead).
        for exponent in (None, 3, 1, 0, -1, 1 - n, -n, -n - 1, -n - 3):
            yield digits, exponent


class TestFormatOfPackedDigits:
    """format of translit._Digits writes exactly what format of the value they denote writes.

    Both lay out their places through one helper, so each text is also
    checked against the digit-by-digit oracles, which share no code with it.
    """

    def test_zero(self):
        assert translit.format(translit._Digits(0, 0)) == translit.format(ZERO) == "0"

    @pytest.mark.parametrize(("digits", "exponent"), list(packed_cases()))
    def test_explicit_cases(self, digits, exponent):
        self.check(digits, exponent)

    @pytest.mark.parametrize(
        "length", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129]
    )
    def test_byte_and_word_boundaries(self, length):
        # Bytes of 8 bits against the interpreter's 30-bit int words: these
        # lengths end the digits at many different places inside a word.
        for fill, last in itertools.product([59, 10, 9, 0], [1, 9, 10, 30, 59]):
            digits = [last] + [fill] * (length - 2) + [last] if length > 1 else [last]
            for exponent in (None, 2, 0, -1, -length // 2, -length, -length - 2):
                self.check(digits, exponent)

    @given(
        st.lists(st.sampled_from([0, 0, 1, 9, 10, 30, 59]) | st.integers(0, 59),
                 min_size=1, max_size=300),
        st.data(),
    )
    def test_any_digits(self, digits, data):
        digits[0] = digits[0] or 1  # packed digits have no leading zero,
        digits[-1] = digits[-1] or 7  # and no trailing one
        exponent = data.draw(st.none() | st.integers(-len(digits) - 4, 4))
        self.check(digits, exponent)

    def test_a_byte_of_60_or_more_is_never_spelled_as_a_digit(self):
        assert translit.format(translit._Digits(int.from_bytes(bytes([1, 60, 255]), "big"))) == "1,ff,ff"

    @staticmethod
    def check(digits, exponent):
        mantissa = value_oracle(digits)
        value = FloatingSex(mantissa) if exponent is None else SexNumber(mantissa, exponent)
        packed = translit._Digits(int.from_bytes(bytes(digits), "big"), exponent)
        text = translit.format(packed)
        assert text == translit.format(value)
        assert text == (text_oracle(mantissa) if exponent is None else format_oracle(value))


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


def outcome(parser, text):
    """What a parser makes of text: the numeral, or the error's type, message and column."""
    try:
        return parser(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# Random numerals: tokens good and bad, joined by commas, maybe with a semicolon.
numeral_texts = st.builds(
    lambda tokens, cut: ",".join(tokens[:cut]) + (";" + ",".join(tokens[cut:]) if cut else ""),
    st.lists(
        st.sampled_from(["0", "1", "9", "10", "45", "59", "60", "05", "00", "", " 7", "x", "١"]),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 8),
)


def reference_scan(text):
    """A scanner that walks the text one character at a time: the reference."""

    def skip_blanks(i):
        while i < len(text) and text[i] in " \t":
            i += 1
        return i

    def scan_digits(i, out):
        while True:
            i = skip_blanks(i)
            start = i
            while i < len(text) and text[i] in "0123456789":
                i += 1
            if i == start:
                raise ParseError("expected a digit", start)
            token = text[start:i]
            if len(token) > 20 and token[0] == "0":  # named by its length, not its figures
                raise ParseError(f"zero-padded digit of {len(token)} figures", start)
            if len(token) > 1 and token[0] == "0":
                raise ParseError(f"zero-padded digit {token!r}", start)
            if len(token) > 20:  # named by its length, not its value
                raise ParseError(f"digit of {len(token)} figures is out of range 0..59", start)
            if int(token) >= 60:
                raise DigitRangeError(int(token), start)
            out.append(int(token))
            i = skip_blanks(i)
            if i < len(text) and text[i] == ",":
                i += 1
                continue
            return i

    digits, semicolon_index = [], None
    i = skip_blanks(0)
    if i == len(text):
        raise ParseError("empty numeral", i)
    if text[i] == ";":
        semicolon_index = 0
        i = scan_digits(i + 1, digits)
    else:
        i = scan_digits(i, digits)
        if i < len(text) and text[i] == ";":
            semicolon_index = len(digits)
            i = scan_digits(i + 1, digits)
    if i < len(text):
        if text[i] == ";":
            raise ParseError("more than one semicolon", i)
        raise ParseError(f"unexpected character {text[i]!r}", i)
    return Transliteration(tuple(digits), semicolon_index, text)


def long_numerals():
    """Numerals of 1,511 digits, spelled well and with one fault each."""
    rng = random.Random(1511)
    tokens = [str(rng.randrange(1, 60))] + [str(rng.randrange(60)) for _ in range(1510)]
    for fault in ["75", "05", "", "x", " 7 ", "1;2", "\t"]:
        yield ",".join(tokens[:1000] + [fault] + tokens[1001:])
    yield ",".join(["1 x"] + tokens[1:])  # in the first token
    yield ",".join(tokens[:-1] + ["60"])  # in the last token
    yield ",".join(tokens[:700]) + ";" + ",".join(tokens[700:-1] + ["7;8"])  # a second semicolon
    yield ",".join(tokens)
    yield " , ".join(tokens) + " "
    yield "\t,".join(tokens[:700]) + ";" + ",\t".join(tokens[700:])


class TestParseAgreesWithTheCharacterReference:
    """parse splits once and names faults from that split; reference_scan is the oracle."""

    @pytest.mark.parametrize(
        "text",
        ["05", "60", "0,5", ";0,45", "0;6", "1;2;3", ",5", ";", "", "  0,5", " 1 , 2 ; 3 ",
         "10,12;45", "0", "59,0", "1;", "1,,2", "١", "x", "-5", "1;2,60", "7;05", "1 2",
         "1,\t", "12,345", "1, 06", "00", "5,9,", "5, ,9", "59 ,59;59 , 0",
         " ;45", "\t;5", " , ;5", "1, ;5", "  ;  ", "5x", "1 ;2", "1;2,3;4",
         "1\n", "\n5", "5\r", "\u00a05", "5\x0b",
         " ; 4 , 75", " ;", "  ;  5,", "   ", "\t;\t7;8", " ; " + " , ".join(["59"] * 1000)],
    )
    def test_explicit_cases(self, text):
        assert outcome(parse, text) == outcome(reference_scan, text)

    @pytest.mark.parametrize("text", list(long_numerals()))
    def test_long_numerals(self, text):
        assert outcome(parse, text) == outcome(reference_scan, text)

    @given(st.text(alphabet="0123456789,; \t١x-\n\u00a0", max_size=60))
    def test_any_text(self, text):
        assert outcome(parse, text) == outcome(reference_scan, text)

    @given(numeral_texts)
    def test_near_numerals(self, text):
        assert outcome(parse, text) == outcome(reference_scan, text)


def spaced(text, blank):
    """text with blank at both ends and on both sides of every comma and semicolon."""
    return blank + text.replace(",", blank + "," + blank).replace(";", blank + ";" + blank) + blank


def without_column(result):
    """A reading's digits and semicolon, or an error's type and message without its column."""
    if isinstance(result, Transliteration):
        return result.digits, result.semicolon_index
    kind, message, _ = result
    return kind, message.rsplit(" (column ", 1)[0]


class TestBlankSpellingReadsLikeTheCompactSpelling:
    """Blanks miss the token lookup, so parse reads them again; only columns may move."""

    @pytest.mark.parametrize(
        "text",
        ["05", "60", "0,5", ";0,45", "0;6", "1;2;3", ",5", ";", "", "  0,5",
         "10,12;45", "0", "59,0", "1;", "1,,2", "١", "x", "-5", "1;2,60", "7;05"],
    )
    def test_explicit_cases(self, text):
        self.check(text)

    @given(numeral_texts)
    def test_near_numerals(self, text):
        self.check(text)

    @staticmethod
    def check(text):
        compact = without_column(outcome(parse, text))
        for blank in (" ", "\t", "  "):
            long_text = spaced(text, blank)
            assert outcome(parse, long_text) == outcome(reference_scan, long_text)
            assert without_column(outcome(parse, long_text)) == compact


def lookup_reading(text):
    """What _run must return: the digits and semicolon index parse's lookup finds, or None.

    None where the lookup misses, and for a headless fraction (";45"),
    which only the lookup reads.
    """
    whole, semicolon, fraction = text.partition(";")
    if semicolon and not whole:
        return None
    try:
        digits = [translit._DIGIT_VALUE[token] for token in whole.split(",")]
        point = len(digits) if semicolon else None
        if semicolon:
            digits += [translit._DIGIT_VALUE[token] for token in fraction.split(",")]
    except KeyError:
        return None
    return bytes(digits), point


def by_lookup(text):
    """parse's outcome with every numeral split and looked up, none read as one run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translit, "_WIDE", sys.maxsize)
        return outcome(parse, text)


def run_of(length, rng):
    """Good digit tokens, comma-separated, exactly length characters in all."""
    parts, left = [], length
    while left > 3:
        token = str(rng.randrange(60))
        parts.append(token + ",")
        left -= len(token) + 1
    parts.append({1: str(rng.randrange(10)), 2: str(rng.randrange(10, 60))}.get(left, "7,7"))
    return "".join(parts)


# Each fault stands in for one token of a long run.  In "333" the middle
# byte, 33 once its tens are added, reads 0xA1 when marked: a mark _run deletes.
RUN_FAULTS = ["60", "07", "00", "123", "333", "", " 5", "5x", ";", "١"]


class TestLongRunReader:
    """_run reads a long numeral as one integer; parse's outcomes stay the lookup's."""

    def test_every_short_text(self):
        for length in range(1, 6):
            for text in map("".join, itertools.product("0159,6 ;x", repeat=length)):
                assert translit._run(text) == lookup_reading(text), text

    def test_every_token_of_up_to_three_figures(self):
        run = ",".join(["59", "7"] * 80)
        for token in map(str, range(1000)):
            for figures in (token, token.zfill(2), token.zfill(3)):
                for text in (figures, f"{run},{figures},{run}", f"{figures},{run}",
                             f"{run},{figures}", f"{run};{figures}", f"{figures};{run}"):
                    assert translit._run(text) == lookup_reading(text), text

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 59), min_size=50, max_size=400),
        st.sampled_from(RUN_FAULTS),
        st.data(),
    )
    def test_one_fault_in_any_token(self, digits, fault, data):
        tokens = list(map(str, digits))
        k = data.draw(st.sampled_from([0, len(tokens) - 1]) | st.integers(0, len(tokens) - 1))
        tokens[k] = fault
        cut = data.draw(st.none() | st.integers(1, len(tokens) - 1))  # where a semicolon goes
        if cut is None:
            text = ",".join(tokens)
        else:
            text = ",".join(tokens[:cut]) + ";" + ",".join(tokens[cut:])
        assert translit._run(text) is None
        assert outcome(parse, text) == outcome(reference_scan, text) == by_lookup(text)
        padded = "05," + ",".join(map(str, digits))  # a zero-padded token before a good run
        assert translit._run(padded) is None
        assert outcome(parse, padded) == outcome(reference_scan, padded)

    @given(st.lists(st.integers(0, 59), min_size=1, max_size=400), st.data())
    def test_any_good_run(self, digits, data):
        cut = data.draw(st.none() | st.integers(1, len(digits)))
        tokens = list(map(str, digits))
        if cut is None or cut == len(digits):
            text = ",".join(tokens)
        else:
            text = ",".join(tokens[:cut]) + ";" + ",".join(tokens[cut:])
            assert translit._run(text) == (bytes(digits), cut)
            return
        assert translit._run(text) == (bytes(digits), None)

    @pytest.mark.parametrize("length", [translit._WIDE - 1, translit._WIDE, translit._WIDE + 1])
    def test_switch_at_the_width(self, length):
        rng = random.Random(length)
        for _ in range(20):
            side = run_of(length, rng)
            assert len(side) == length and translit._run(side) == lookup_reading(side)
            comma = side.rindex(",", 0, length - 1)
            inside = side[:comma] + ";" + side[comma + 1:]
            short = run_of(length - 2, rng)
            texts = [
                side, inside, ";" + side[1:], short + ";0", "0;" + short, side[:-1] + ";",
                "0" + side[1:], "0;" + side[2:], side[:-2] + ";0", inside[:-2] + ";1",
                " " + side[1:], side[:-1] + "\t", side[:-2] + ";x", "05" + side[2:],
            ]
            for text in texts:
                assert len(text) == length, text
                assert outcome(parse, text) == by_lookup(text), text


def digits_oracle(mantissa):
    # One division by 60 per digit: the loop that divide and conquer replaced.
    out = []
    while mantissa:
        mantissa, d = divmod(mantissa, 60)
        out.append(d)
    return out[::-1]


def text_oracle(mantissa):
    return ",".join(map(str, digits_oracle(mantissa)))


def format_oracle(value):
    # The anchored formatter written digit by digit, from the oracle's digits.
    if value.mantissa == 0:
        return "0"
    digits = digits_oracle(value.mantissa)
    if value.exponent >= 0:
        return ",".join(str(d) for d in digits + [0] * value.exponent)
    point = len(digits) + value.exponent
    if point <= 0:
        return "0;" + ",".join(str(d) for d in [0] * -point + digits)
    return ",".join(map(str, digits[:point])) + ";" + ",".join(map(str, digits[point:]))


class TestLongNumbers:
    """Divide-and-conquer conversion at the edges of its blocks."""

    @pytest.mark.parametrize("k", [*range(1, 131), 1024])  # 32, 64 and 128 edge the blocks
    def test_around_powers_of_60(self, k):
        for m in (60**k - 1, 60**k, 60**k + 1):
            text = translit._spell(translit._digits_of(m))
            assert text == text_oracle(m)
            assert translit._value_of(parse(text).digits) == m
            for value in (FloatingSex(m), SexNumber(m), SexNumber(m, -k)):
                text = translit.format(value)
                reading = "floating" if isinstance(value, FloatingSex) else "absolute"
                assert to_number(parse(text), reading) == value
            assert translit.format(SexNumber(m, -k)) == format_oracle(SexNumber(m, -k))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 100_000), st.randoms(use_true_random=False))
    def test_random_mantissas(self, bits, rng):
        self.check_random_mantissa(bits, rng)

    @pytest.mark.parametrize("bits", [5_000, 30_000, 100_000])
    def test_long_random_mantissas(self, bits):
        self.check_random_mantissa(bits, random.Random(bits))

    @staticmethod
    def check_random_mantissa(bits, rng):
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        text = translit._spell(translit._digits_of(m))
        assert text == text_oracle(m)
        assert translit._value_of(parse(text).digits) == m
        value = FloatingSex(m)
        assert to_number(parse(translit.format(value)), "floating") == value

    @pytest.mark.parametrize("size", [1, 2, 6, 7, 64, 65, 129, 1000])
    def test_point_inside_before_and_after_the_digits(self, size):
        m = 60 ** (size - 1) + 7  # size digits, the last one not zero
        # -2, -3 and -4 give fractions of even and odd width led by zeros,
        # e.g. 1,0;0,0,0,7 for size 6.
        for exponent in (-size - 3, -size - 1, -size, -size + 1, -4, -3, -2, -1, 0, 1, 4):
            value = SexNumber(m, exponent)
            text = translit.format(value)
            assert text == format_oracle(value)
            assert to_number(parse(text), "absolute") == value

    def test_digits_round_trip_at_every_length(self):
        rng = random.Random(300)
        assert translit._digits_of(0) == b""
        for length in range(1, 301):
            low = 60 ** (length - 1)
            for m in (low, 60 * low - 1, rng.randrange(low, 60 * low)):
                digits = translit._digits_of(m)
                assert list(digits) == digits_oracle(m)
                assert len(digits) == length
                assert translit._value_of(digits) == m

    def test_every_mantissa_up_to_three_digits(self):
        # Odd and even digit counts, and heads of one and two digits.
        for m in range(1, 60**3 + 2):
            assert translit._spell(translit._digits_of(m)) == text_oracle(m)

    def test_leading_zeros_inside_a_block(self):
        # The low block of 60**64 + 5 is all zeros but its last digit.
        m = 60**64 + 5
        assert translit.format(FloatingSex(m)) == "1," + "0," * 63 + "5"
