"""Table generation and structural verification."""

import hashlib
from bisect import bisect_right
import io
import itertools
import random
import re
import sys
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sexagesimal import tables, translit
from sexagesimal.core import FloatingSex, SexNumber
from sexagesimal.regular import IrregularError, is_reciprocal_pair, reciprocal
from sexagesimal.tables import (
    DOUBLING_BAD,
    DOUBLING_OK,
    HALVING_BAD,
    HALVING_OK,
    PAIR_BAD,
    PAIR_OK,
    PARSE_ERROR,
    Finding,
    TableRow,
    doubling_tsv,
    generate_doubling,
    generate_standard,
    parse_tsv,
    standard_tsv,
    table_tsv,
    verify_table,
)


def tsv_file(text: str | bytes) -> io.BytesIO:
    """A table text, or its UTF-8 bytes, as the binary file parse_tsv reads."""
    return io.BytesIO(text.encode() if isinstance(text, str) else text)


class Trickle:
    """A binary file whose read returns at most size bytes, however many are asked for."""

    def __init__(self, data: bytes, size: int) -> None:
        self.file, self.size = io.BytesIO(data), size

    def read(self, n: int) -> bytes:
        return self.file.read(min(n, self.size))


def smooth_235(limit: int) -> list[int]:
    # enumerate-and-filter oracle by trial division
    out = []
    for n in range(2, limit + 1):
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            out.append(n)
    return out


def old_regular_numbers(limit):
    # Every regular number in [2, limit] from a triple loop, sorted.
    found = []
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            p = p35
            while p <= limit:
                found.append(p)
                p *= 2
            p35 *= 3
        p5 *= 5
    return sorted(n for n in found if n >= 2)


def old_generate_standard(limit):
    # Each value and its reciprocal through the checking constructor and the factoring path.
    return [
        TableRow(i, FloatingSex(n), reciprocal(FloatingSex(n)))
        for i, n in enumerate(old_regular_numbers(limit), 1)
    ]


def standard_limits():
    """Every limit up to 2,000, and the neighbours of the powers of 2, 3, 5 and 60 up to 10**12."""
    limits = set(range(2, 2001))
    for p in (2, 3, 5, 60):
        power = p
        while power <= 10**12:
            limits.update((power - 1, power, power + 1))
            power *= p
    return sorted(limits - {1})


def assert_same_rows(rows, expected):
    assert list(rows) == expected
    for row in rows:
        for value in (row.value, row.reciprocal):
            assert type(value) is FloatingSex and type(value.mantissa) is int
            assert value.mantissa % 60 != 0


class TestGenerateDoubling:
    def test_single_row(self):
        table = tuple(generate_doubling(10, 1))
        assert table == (TableRow(1, FloatingSex(10), SexNumber(6, -1)),)

    def test_unit_seed(self):
        table = tuple(generate_doubling(1, 2))
        assert [translit.format(r.value) for r in table] == ["1", "2"]
        assert [translit.format(r.reciprocal) for r in table] == ["1", "0;30"]

    def test_full_table_matches_transcription(self, golden_text):
        assert "".join(table_tsv(generate_doubling(10, 30))) == golden_text

    def test_row_relations_hold_by_construction(self):
        table = tuple(generate_doubling(9, 12))
        for prev, row in zip(table, table[1:]):
            assert row.value == prev.value.double()
            assert row.reciprocal == prev.reciprocal.halve()
            assert row.index == prev.index + 1

    def test_halving_chain_agrees_with_direct_reciprocals(self):
        for row in generate_doubling(10, 30):
            assert row.reciprocal.to_floating() == reciprocal(row.value)

    def test_anchor_exponent_moves_row_one(self):
        # seed 10 read as 10*60: its reciprocal is 0;0,6
        table = tuple(generate_doubling(10, 1, anchor_exponent=1))
        assert translit.format(table[0].reciprocal) == "0;0,6"

    def test_rows_come_one_at_a_time(self, monkeypatch):
        doubled = []
        double = FloatingSex.double
        monkeypatch.setattr(FloatingSex, "double", lambda self: doubled.append(self) or double(self))
        rows = generate_doubling(10, 3000)
        assert next(rows).index == 1 and doubled == []
        assert next(rows).index == 2 and doubled == [FloatingSex(10)]

    def test_irregular_seed_rejected(self):
        with pytest.raises(IrregularError):
            generate_doubling(7, 5)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            generate_doubling(10, 0)

    @pytest.mark.parametrize(
        ("seed", "count", "message"),
        [
            (10.0, 3, "must be int, got float$"),
            (10, 3.5, "^count must be int, got float$"),  # at the call, not at row 2
            (10, True, "^count must be int, got bool$"),
        ],
    )
    def test_float_or_bool_rejected_at_the_call(self, seed, count, message):
        with pytest.raises(TypeError, match=message):
            generate_doubling(seed, count)

    def test_generated_table_verifies_clean(self):
        table = generate_doubling(25, 40, anchor_exponent=-2)
        rows = parse_tsv(tsv_file("".join(table_tsv(table))))
        report = verify_table(rows, mode="doubling")
        assert report.ok
        assert not report.bad()


class TestDoublingTsv:
    """The doubling writer: its arguments checked at the call, no value built after row 1."""

    def test_golden_table(self, golden_text):
        assert "".join(doubling_tsv(10, 30)) == golden_text

    @pytest.mark.parametrize("seed, count, error", [(7, 5, IrregularError), (10, 0, ValueError)])
    def test_bad_arguments_raise_at_the_call(self, seed, count, error):
        with pytest.raises(error):
            doubling_tsv(seed, count)  # no line is requested

    def test_one_row(self):
        assert list(doubling_tsv(10, 1, anchor_exponent=1)) == ["1\t10\t0;0,6\n"]

    def test_rows_are_not_doubled_as_values(self, monkeypatch):
        calls = Counter()
        for cls, name in ((FloatingSex, "double"), (SexNumber, "halve")):
            method = getattr(cls, name)
            counting = lambda self, m=method, n=name: calls.update([n]) or m(self)
            monkeypatch.setattr(cls, name, counting)
        text = "".join(doubling_tsv(10, 1000))
        assert calls == Counter()
        assert text == "".join(table_tsv(generate_doubling(10, 1000)))
        assert calls == Counter(double=999, halve=999)  # the counting sees the binary walk

    def test_no_value_is_constructed_while_writing(self, monkeypatch):
        lines = doubling_tsv(FloatingSex(10), 1000)  # the seed's reciprocal is built here
        built = []
        for cls in (FloatingSex, SexNumber):
            init = cls.__init__
            counting = lambda self, *args, i=init: built.append(args) or i(self, *args)
            monkeypatch.setattr(cls, "__init__", counting)
        assert len("".join(lines).splitlines()) == 1000
        assert built == []


class TestGenerateStandard:
    def test_limit_8(self):
        pairs = generate_standard(8)
        assert [p.value.mantissa for p in pairs] == [2, 3, 4, 5, 6, 8]
        assert pairs[0] == TableRow(1, FloatingSex(2), FloatingSex(30))
        assert [p.index for p in pairs] == [1, 2, 3, 4, 5, 6]

    def test_limit_2(self):
        assert generate_standard(2) == (TableRow(1, FloatingSex(2), FloatingSex(30)),)

    def test_limit_81_has_the_four_place_entry(self):
        pairs = dict(
            (p.value.mantissa, p.reciprocal) for p in generate_standard(81)
        )
        # 60**4 // 81 = 160000, digits 44,26,40
        assert pairs[81] == FloatingSex(160000)
        assert translit.format(pairs[81]) == "44,26,40"

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            generate_standard(1)

    def test_float_limit_rejected(self):
        with pytest.raises(TypeError, match="^limit must be int, got float$"):
            generate_standard(10.5)

    @pytest.mark.parametrize("limit", [2, 59, 60, 61, 3600, 10**6, 10**12])
    def test_rows_match_factoring_each_number(self, limit):
        assert_same_rows(generate_standard(limit), old_generate_standard(limit))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10**15))
    def test_rows_match_at_any_limit(self, limit):
        assert_same_rows(generate_standard(limit), old_generate_standard(limit))

    def test_table_bytes_match_the_recorded_digest(self):
        # SHA-256 of `table standard --limit 10**19`, recorded from the
        # original code's output (STANDARD_SHA[19] in bench/workloads.py).
        text = "".join(table_tsv(generate_standard(10**19)))
        assert text.count("\n") == 12760
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "e7f56b4113cbf3fd31b5903c5d72e8c69c04cd43ab31d8b4bda2a3087b21bbaa"
        )

    def test_completeness_against_filter_oracle(self):
        pairs = generate_standard(500)
        values = [p.value for p in pairs]
        # every 60-smooth integer appears once, reduced to its class
        assert values == [FloatingSex(n) for n in smooth_235(500)]
        assert len(pairs) == len(smooth_235(500))
        assert [p.index for p in pairs] == list(range(1, len(pairs) + 1))


class TestStandardTsv:
    """The standard writer walks the merged doubling chains on packed digits."""

    def test_lines_match_the_value_rows_at_every_limit(self):
        # The table at a limit is the oracle's largest table up to that number.
        numbers = old_regular_numbers(10**12 + 1)
        rows = old_generate_standard(10**12 + 1)
        lines = list(table_tsv(rows))
        for limit in standard_limits():
            count = bisect_right(numbers, limit)
            assert list(generate_standard(limit)) == rows[:count], limit
            assert list(standard_tsv(limit)) == lines[:count], limit

    def test_rows_are_not_doubled_as_values(self, monkeypatch):
        calls = Counter()
        for name in ("double", "halve"):
            method = getattr(FloatingSex, name)
            counting = lambda self, m=method, n=name: calls.update([n]) or m(self)
            monkeypatch.setattr(FloatingSex, name, counting)
        text = "".join(standard_tsv(1000))
        assert calls == Counter()
        assert text == "".join(table_tsv(generate_standard(1000)))
        assert calls["double"] == calls["halve"] > 0  # the counting sees the binary walk

    def test_a_wrong_step_is_caught_by_the_value_rows(self, monkeypatch):
        # generate_standard checks every row it returns; the packed walk has no check.
        monkeypatch.setattr(FloatingSex, "halve", lambda self: FloatingSex(self.mantissa * 29))
        with pytest.raises(ValueError, match="^2 and 29 are not a reciprocal pair$"):
            generate_standard(100)

    @pytest.mark.parametrize("limit, error", [(1, ValueError), (10.5, TypeError), (True, TypeError)])
    def test_bad_limits_raise(self, limit, error):
        with pytest.raises(error):
            next(standard_tsv(limit))


class TestVerifyTable:
    def test_clean_table(self, golden_rows):
        report = verify_table(golden_rows, mode="doubling")
        assert report.ok
        assert report.findings == ()
        assert report.counts[PAIR_OK] == 30
        assert report.counts[DOUBLING_OK] == 29
        assert report.counts[HALVING_OK] == 29

    def test_single_row_has_no_adjacency_findings(self):
        report = verify_table([(1, "10", "0;6")], mode="doubling")
        assert report.findings == ()
        assert report.counts[PAIR_OK] == 1
        assert report.counts[DOUBLING_OK] == 0

    def test_bad_pair(self):
        # 10 * 7 = 70, not a power of 60.  Trailing zero digits multiply the
        # digit integers' product by 60: 60 * 1 and 120 * 30 are pairs, 60 * 7 is not.
        rows = [(1, "10", "0;7"), (2, "1,0", "1"), (3, "2,0", "0;0,30"), (4, "1,0", "0;0,7")]
        report = verify_table(rows)
        assert [(f.kind, f.row_index) for f in report.findings] == [(PAIR_BAD, 1), (PAIR_BAD, 4)]
        assert (report.findings, report.counts) == reference_verify_table(rows, "pairs")
        assert not report.ok

    @pytest.mark.parametrize("mode", ["pairs", "doubling"])
    def test_an_all_zero_value_has_no_floating_reading(self, mode):
        rows = [(1, "0", "1"), (2, "0;0", "1")]
        report = verify_table(rows, mode)
        assert (report.findings, report.counts) == reference_verify_table(rows, mode)
        errors = [f for f in report.findings if f.kind == PARSE_ERROR]
        assert [f.row_index for f in errors] == [1, 2]  # doubling mode adds a HALVING_BAD
        assert all("all-zero numeral has no floating value" in f.message for f in errors)

    def test_no_value_is_constructed_while_verifying(self, monkeypatch):
        corrupted = corrupted_rows(FloatingSex(10), 0, random.Random("zeros"))
        for i, cells in [(5, ("0", "0;0,6")), (6, ("0,0", "0")), (9, ("1,0", "0;0,0"))]:
            corrupted[i] = (i + 1, *cells)
        standard = list(parse_tsv(tsv_file("".join(table_tsv(generate_standard(10**6))))))
        tables_and_modes = [(corrupted, "pairs"), (corrupted, "doubling"), (standard, "pairs")]
        expected = [reference_verify_table(rows, mode) for rows, mode in tables_and_modes]
        built = []
        for cls in (FloatingSex, SexNumber):
            init = cls.__init__
            counting = lambda self, *args, i=init: built.append(args) or i(self, *args)
            monkeypatch.setattr(cls, "__init__", counting)
        for (rows, mode), reference in zip(tables_and_modes, expected):
            report = verify_table(rows, mode)
            assert (report.findings, report.counts) == reference
        assert built == []
        assert expected[0][1][PARSE_ERROR] >= 2  # the all-zero values, at least

    def test_pairs_mode_skips_chain_checks(self):
        # a standard table is no doubling chain; pairs mode stays clean
        rows = list(parse_tsv(tsv_file("".join(table_tsv(generate_standard(8))))))
        assert verify_table(rows, mode="pairs").ok
        doubling = verify_table(rows, mode="doubling")
        assert not doubling.ok
        assert doubling.counts[DOUBLING_BAD] > 0

    def test_value_corruption_in_doubling_mode(self, golden_rows):
        rows = list(golden_rows)
        index, _, rec = rows[4]
        rows[4] = (index, "2,41", rec)
        report = verify_table(rows, mode="doubling")
        kinds = {(f.kind, f.row_index) for f in report.findings}
        assert (PAIR_BAD, 5) in kinds
        assert (DOUBLING_BAD, 5) in kinds
        assert (DOUBLING_BAD, 6) in kinds
        assert (HALVING_BAD, 5) not in kinds
        assert report.counts[HALVING_OK] == 29

    def test_unparseable_cell_reports_and_continues(self, golden_rows):
        rows = list(golden_rows)
        index, _, rec = rows[1]
        rows[1] = (index, "2x", rec)
        report = verify_table(rows, mode="doubling")
        parse_findings = [f for f in report.findings if f.kind == PARSE_ERROR]
        assert len(parse_findings) == 1
        assert parse_findings[0].row_index == 2
        # the other 29 rows still get their pair checks
        assert report.counts[PAIR_OK] == 29
        # halving checks around row 2 are unaffected by its value column
        assert report.counts[HALVING_OK] == 29
        # doubling checks 1->2 and 2->3 are skipped, the rest remain
        assert report.counts[DOUBLING_OK] == 27
        assert not report.ok

    def test_zero_reciprocal_is_a_bad_pair(self):
        report = verify_table([(1, "10", "0")])
        assert [f.kind for f in report.findings] == [PAIR_BAD]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_table([], mode="strict")


def packed_oracle(mantissa):
    """A mantissa's base-60 digits, one per byte, from one division per digit."""
    out = []
    while mantissa:
        mantissa, d = divmod(mantissa, 60)
        out.append(d)
    return int.from_bytes(bytes(out[::-1]), "big")


def numerals_from(digits, semicolon_index):
    """The numeral of these digits with the semicolon before semicolon_index, if any."""
    if digits[0] == 0 and len(digits) > 1 and semicolon_index not in (0, 1):
        digits = [1, *digits[1:]]  # keep the leading-zero rule
    return translit.Transliteration(tuple(digits), semicolon_index, "raw")


class TestPackedChainSteps:
    """translit._Digits.double and translit._Digits.halve, floating and anchored,
    against the value objects' own."""

    @pytest.mark.parametrize(
        "text",
        ["0", "0;0", "0;0,0", "1,0,0", "30", "1,30", "59", "59,59", "0;30", "0;59", ";0,45",
         ";0,0,30,0", "1;0", "30,0;0", "2,0;30,0", "10,12;45", "0;6", "29,59,30"],
    )
    def test_explicit_cases(self, text):
        self.check(translit.parse(text))

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129])
    def test_byte_and_word_boundaries(self, length):
        # All 59s carry out of every place; 30s and 31s halve into every place.
        for fill, last in itertools.product([59, 30, 31], [1, 2, 29, 30, 31, 58, 59]):
            digits = [fill] * (length - 1) + [last]
            for semicolon_index in (None, 0, 1, length):
                self.check(numerals_from(digits, semicolon_index))

    @given(
        st.lists(st.sampled_from([0, 0, 1, 29, 30, 31, 58, 59]) | st.integers(0, 59),
                 min_size=1, max_size=300),
        st.data(),
    )
    def test_any_digits(self, digits, data):
        semicolon_index = data.draw(st.none() | st.integers(0, len(digits)))
        self.check(numerals_from(digits, semicolon_index))

    def test_short_value_right_after_a_long_one(self, monkeypatch):
        # The 2,000-digit steps leave a long mask kept; the 3-digit ones cut it down.
        monkeypatch.setattr(translit, "_ONES", [1])
        self.check(numerals_from([59, 31] * 1000, 3))
        self.check(numerals_from([1, 31, 59], 1))

    @pytest.mark.parametrize("order", ["rising", "falling", "shuffled"])
    def test_kept_mask_in_any_order(self, monkeypatch, order):
        monkeypatch.setattr(translit, "_ONES", [1])
        lengths = list(range(1, 301))
        if order == "falling":
            lengths.reverse()
        elif order == "shuffled":
            random.Random(300).shuffle(lengths)
        for n in lengths:
            assert translit._ones(n) == int.from_bytes(b"\x01" * n, "big"), n
        assert translit._ones(0) == 0

    @staticmethod
    def check(numeral):
        absolute = translit.to_number(numeral, "absolute")
        packed = translit._Digits.read(numeral, "absolute")
        assert packed == (packed_oracle(absolute.mantissa), absolute.exponent)
        for step in ("double", "halve"):
            stepped = getattr(absolute, step)()
            assert getattr(packed, step)() == (packed_oracle(stepped.mantissa), stepped.exponent)
        if absolute:
            floating = translit.to_number(numeral, "floating")
            packed = translit._Digits.read(numeral, "floating")
            assert packed == translit._Digits(packed_oracle(floating.mantissa))
            for step in ("double", "halve"):
                stepped = getattr(floating, step)()
                assert getattr(packed, step)() == translit._Digits(packed_oracle(stepped.mantissa))


class TestDigitsOfAValue:
    """translit._Digits.of packs a value's digits as translit._Digits.read packs
    those of its parsed text."""

    LONG_SEED = 3**200 * 2**7  # 157 characters, so its text is read by translit._run

    @pytest.mark.parametrize("anchor", range(-3, 4))
    @pytest.mark.parametrize("seed", [1, 2, 10, 81, 450, LONG_SEED])
    def test_doubling_rows(self, seed, anchor):
        for row in generate_doubling(seed, 40, anchor):
            for value, reading in ((row.value, "floating"), (row.reciprocal, "absolute")):
                expected = translit._Digits.read(translit.parse(translit.format(value)), reading)
                assert translit._Digits.of(value) == expected
                assert expected.packed == packed_oracle(value.mantissa)

    def test_the_long_seed_is_long(self):
        assert len(translit.format(FloatingSex(self.LONG_SEED))) == 157

    @given(st.integers(1, 60**400), st.integers(-5, 5))
    def test_any_value(self, mantissa, exponent):
        value = SexNumber(mantissa, exponent)
        assert translit._Digits.of(value) == translit._Digits.read(
            translit.parse(translit.format(value)), "absolute"
        )
        floating = value.to_floating()
        assert translit._Digits.of(floating) == translit._Digits(packed_oracle(floating.mantissa))

    def test_zero_is_the_canonical_packed_zero(self):
        assert translit._Digits.of(SexNumber(0)) == translit._Digits(0, 0)

    @pytest.mark.parametrize("text", ["1,30", ";0,45", "0", "0;0"])
    def test_an_unknown_reading_raises_as_to_number_does(self, text):
        numeral = translit.parse(text)
        for read in (translit.to_number, translit._Digits.read):
            with pytest.raises(ValueError, match="^unknown mode 'Floating'$"):
                read(numeral, "Floating")

    @pytest.mark.parametrize("text", ["0", "0;0", "0;0,0"])
    def test_an_all_zero_numeral_has_no_floating_reading(self, text):
        numeral = translit.parse(text)
        for read in (translit.to_number, translit._Digits.read):
            with pytest.raises(ValueError, match="^an all-zero numeral has no floating value$"):
                read(numeral, "floating")
        assert translit._Digits.read(numeral, "absolute") == translit._Digits(0, 0)


def reference_verify_table(rows, mode):
    """The integer loop that verify_table must agree with: every cell
    converted to its number, every pair and chain step computed on numbers."""
    counts = Counter()
    row_findings, chain_findings = [], []

    def record(findings, holds, ok_kind, bad_kind, index, message, *args):
        if holds:
            counts[ok_kind] += 1
        else:
            counts[bad_kind] += 1
            findings.append(Finding(bad_kind, index, message.format(*args)))

    def parse_cell(index, field, text, reading):
        try:
            return translit.to_number(translit.parse(text), reading)
        except ValueError as exc:
            counts[PARSE_ERROR] += 1
            row_findings.append(Finding(PARSE_ERROR, index, f"{field} {text!r}: {exc}"))
            return None

    prev_index, prev_value, prev_rec = 0, None, None
    for index, value_text, reciprocal_text in rows:
        value = parse_cell(index, "value", value_text, "floating")
        rec = parse_cell(index, "reciprocal", reciprocal_text, "absolute")
        if value is not None and rec is not None:
            if rec and is_reciprocal_pair(value, rec.to_floating()):
                counts[PAIR_OK] += 1
            else:
                counts[PAIR_BAD] += 1
                pair = f"{value_text.strip()} and {reciprocal_text.strip()}"
                row_findings.append(Finding(PAIR_BAD, index, f"{pair} are not a reciprocal pair"))
        if mode == "doubling":
            if prev_value is not None and value is not None:
                record(
                    chain_findings, value == prev_value.double(), DOUBLING_OK, DOUBLING_BAD,
                    index, "value is not the double of row {}'s", prev_index,
                )
            if prev_rec is not None and rec is not None:
                record(
                    chain_findings, rec == prev_rec.halve(), HALVING_OK, HALVING_BAD,
                    index, "reciprocal is not half of row {}'s", prev_index,
                )
        prev_index, prev_value, prev_rec = index, value, rec
    return tuple(row_findings + chain_findings), counts


def corrupt_cell(cell, rng):
    """One random single-symbol corruption of a cell, or the cell made all zeros."""
    kind = rng.choice(["digit", "separator", "blank", "zeros"])
    if kind == "zeros":  # every digit 0, separators kept, or the lone digit 0
        return rng.choice([re.sub("[0-9]+", "0", cell), "0"])
    places = [p for p, ch in enumerate(cell) if (ch in ",;") == (kind == "separator")]
    if not places:
        return cell
    p = rng.choice(places)
    if kind == "digit":
        new = rng.choice([d for d in "0123456789" if d != cell[p]])
    elif kind == "separator":
        new = ";" if cell[p] == "," else ","
    else:
        new = " "
    return cell[:p] + new + cell[p + 1 :]


def corrupted_rows(seed, anchor, rng):
    rows = list(parse_tsv(tsv_file("".join(table_tsv(generate_doubling(seed, 300, anchor))))))
    last = len(rows) - 1
    picked = rng.sample(range(last + 1), 12) + [0, last]
    start = rng.randrange(last)
    picked += [start, start + 1]  # two adjacent rows
    for i in picked:
        index, value, rec = rows[i]
        column = rng.randrange(2)
        cells = [value, rec]
        cells[column] = corrupt_cell(cells[column], rng)
        rows[i] = (index, *cells)
    return rows


class TestDoublingModeMatchesTheIntegerLoop:
    """Packed chain checks and proved pairs give the integer loop's findings and counts."""

    def test_golden_table(self, golden_rows):
        for mode in ("doubling", "pairs"):
            report = verify_table(golden_rows, mode)
            assert (report.findings, report.counts) == reference_verify_table(golden_rows, mode)

    @pytest.mark.parametrize("seed", [FloatingSex(10), FloatingSex(81)])  # 81 is 1,21
    @pytest.mark.parametrize("anchor", [-2, 0, 3])
    @pytest.mark.parametrize("trial", range(4))
    def test_corrupted_tables(self, seed, anchor, trial):
        rng = random.Random(f"{seed.mantissa}:{anchor}:{trial}")
        rows = corrupted_rows(seed, anchor, rng)
        for mode in ("doubling", "pairs"):
            report = verify_table(rows, mode)
            assert (report.findings, report.counts) == reference_verify_table(rows, mode)
            assert not report.ok

    def test_a_chain_from_a_bad_pair_stays_bad(self):
        # Every row doubles and halves the one before, but 10 * 7 is no power of 60.
        rows = list(parse_tsv(tsv_file("".join(table_tsv(
            TableRow(i + 1, FloatingSex(10 << i), SexNumber(7 * 30**i, -i - 1)) for i in range(40)
        )))))
        report = verify_table(rows, "doubling")
        assert (report.findings, report.counts) == reference_verify_table(rows, "doubling")
        assert report.counts[PAIR_BAD] == 40
        assert report.counts[DOUBLING_OK] == report.counts[HALVING_OK] == 39

    def test_clean_table_proves_pairs_from_row_1(self, monkeypatch):
        rows = list(parse_tsv(tsv_file("".join(table_tsv(generate_doubling(10, 1000))))))
        converted, products = [], []

        def value_of(digits):
            converted.append(digits)
            return real_value_of(digits)

        def counting_power(product):
            products.append(product)
            return real_power(product)

        real_value_of, real_power = translit._value_of, tables._is_power_of_60
        monkeypatch.setattr(translit, "_value_of", value_of)
        monkeypatch.setattr(tables, "_is_power_of_60", counting_power)
        report = verify_table(rows, "doubling")
        assert report.ok and report.counts[PAIR_OK] == 1000
        assert len(products) == 1
        assert sorted(converted) == sorted(translit.parse(cell).digits for cell in rows[0][1:])


NOT_UTF8 = "'utf-8' codec can't decode byte "
CR_FOUND = "carriage return found; lines must end in LF only"


class TestTsv:
    def test_file_shape(self):
        text = "".join(table_tsv(generate_doubling(10, 2)))
        assert text == "1\t10\t0;6\n2\t20\t0;3\n"

    def test_standard_shape(self):
        text = "".join(table_tsv(generate_standard(3)))
        assert text == "1\t2\t30\n2\t3\t20\n"

    def test_round_trip(self, golden_text, golden_rows):
        rows = list(parse_tsv(tsv_file(golden_text)))
        assert rows == golden_rows
        assert rows[0] == (1, "10", "0;6")
        assert rows[29][0] == 30

    @pytest.mark.parametrize(
        "text",
        [
            "1\t10\n",
            "1\t10\t0;6\textra\n",
            "x\t10\t0;6\n",
            "\n1\t10\t0;6\n",
            # the index is a run of ASCII digits, nothing else int() accepts
            "1_0\t10\t0;6\n",
            " 1\t10\t0;6\n",
            "+1\t10\t0;6\n",
            "-1\t10\t0;6\n",
            "\u0661\t10\t0;6\n",
        ],
    )
    def test_structural_faults_raise(self, text):
        with pytest.raises(ValueError):
            list(parse_tsv(tsv_file(text)))

    def test_index_over_the_int_str_limit_names_its_line(self):
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is None:
            pytest.skip("this interpreter has no int/str digit limit")
        before = sys.get_int_max_str_digits()
        set_limit(4300)  # the interpreter's default
        try:
            with pytest.raises(ValueError, match="^line 1: index of 5000 digits"):
                list(parse_tsv(tsv_file("1" * 5000 + "\t10\t6\n")))
            rows = parse_tsv(tsv_file("1\t10\t0;6\n" + "2" * 4301 + "\t20\t0;3\n"))
            assert next(rows) == (1, "10", "0;6")
            with pytest.raises(ValueError, match="^line 2: "):
                next(rows)
        finally:
            set_limit(before)

    def test_carriage_return_names_its_line(self):
        with pytest.raises(ValueError, match="line 2"):
            list(parse_tsv(tsv_file("1\t10\t0;6\n2\t20\t0;3\r\n")))

    @pytest.mark.parametrize("separator", ["\x85", "\u2028"])
    def test_only_lf_ends_a_line(self, separator):
        rows = parse_tsv(tsv_file(f"1\t1{separator}0\t0;6\n"))
        assert list(rows) == [(1, f"1{separator}0", "0;6")]

    def test_missing_final_lf_names_its_line(self):
        with pytest.raises(ValueError, match="line 2: the file does not end in LF"):
            list(parse_tsv(tsv_file("1\t10\t0;6\n2\t20\t0;3")))

    def test_rows_before_a_fault_come_first(self):
        rows = parse_tsv(tsv_file("1\t10\t0;6\n2\t20\n"))
        assert next(rows) == (1, "10", "0;6")
        with pytest.raises(ValueError, match="line 2"):
            next(rows)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 1000, 1 << 16])
    def test_chunks_of_any_size_give_the_same_rows(self, golden_text, golden_rows, size):
        # Lines, multi-byte characters and faults may all straddle the end of a read.
        assert list(parse_tsv(Trickle(golden_text.encode(), size))) == golden_rows
        spaced = [tuple(cell.replace(";", "\u2028;") for cell in row[1:]) for row in golden_rows]
        data = golden_text.replace(";", "\u2028;").encode()
        assert list(parse_tsv(Trickle(data, size))) == [
            (row[0], *cells) for row, cells in zip(golden_rows, spaced)
        ]
        lines = golden_text.encode().splitlines(keepends=True)
        for bad, message in [
            (lines[:16] + [lines[16].replace(b"\n", b"\r\n")] + lines[17:], "line 17: carriage"),
            (lines[:-1] + [lines[-1][:-1]], "line 30: the file does not end in LF"),
            # 0xC3 starts a two-byte character, a TAB cannot continue it
            (lines[:23] + [lines[23].replace(b"\t", b"\xc3\t", 1)] + lines[24:], "line 24: 'utf"),
        ]:
            with pytest.raises(ValueError, match=message):
                list(parse_tsv(Trickle(b"".join(bad), size)))

    def test_a_file_needs_only_read_and_is_read_64_kib_at_a_time(self, golden_text, golden_rows):
        # No readline, no iteration: a wrapper that counts the bytes read may define read alone.
        data, sizes = io.BytesIO(golden_text.encode() * 300), []
        file = types.SimpleNamespace(read=lambda n: sizes.append(n) or data.read(n))
        assert list(parse_tsv(file)) == golden_rows * 300
        assert sizes == [1 << 16] * (len(data.getvalue()) // (1 << 16) + 2)

    def test_an_empty_file_has_no_rows(self):
        assert list(parse_tsv(tsv_file(b""))) == []

    def test_a_line_longer_than_a_read(self):
        value = ",".join(["59"] * 30_000)  # 89,999 bytes
        text = f"1\t10\t0;6\n2\t{value}\t1\n3\t20\t0;3\n"
        rows = [(1, "10", "0;6"), (2, value, "1"), (3, "20", "0;3")]
        assert list(parse_tsv(tsv_file(text))) == rows
        with pytest.raises(ValueError, match="^line 2: the file does not end in LF$"):
            list(parse_tsv(tsv_file(text[: text.index("\t1\n") + 2])))
        with pytest.raises(ValueError, match="^line 2: carriage return found"):
            list(parse_tsv(tsv_file(text.replace("\t1\n", "\t1\r\n"))))

    @pytest.mark.parametrize("offset", [(1 << 16) - 1, 1 << 16])
    @pytest.mark.parametrize(
        "special, message",
        [
            (b"\xc3\xa9", None),
            (b"\xe2\x80\xa8", None),
            (b"\r", "line 2: carriage return found; lines must end in LF only"),
            (b"\xc3", "line 2: 'utf-8' codec can't decode byte 0xc3 in column {}: invalid"),
        ],
    )
    def test_a_character_at_the_end_of_a_read(self, offset, special, message):
        # special starts at byte offset, in line 2; the first read ends at byte 65,535.
        value = b"1" * (offset - len(b"1\t10\t0;6\n2\t")) + special
        data = b"1\t10\t0;6\n2\t" + value + b"\t0;3\n3\t20\t0;3\n"
        assert data.index(special) == offset
        rows = parse_tsv(tsv_file(data))
        assert next(rows) == (1, "10", "0;6")
        if message is None:
            assert list(rows) == [(2, value.decode(), "0;3"), (3, "20", "0;3")]
        else:
            column = len(b"2\t" + value)  # the column of special's first byte
            with pytest.raises(ValueError, match=re.escape(message.format(column))):
                next(rows)

    @pytest.mark.parametrize("size", [None, 1, 2, 7])
    @pytest.mark.parametrize(
        "rest, message",
        [
            # within one line, bytes that are not UTF-8 are named before a CR
            (b"2\t20\r\xff\t0;3\n", NOT_UTF8 + "0xff in column 6: invalid start byte"),
            # across lines, the first faulty line is named, whatever its fault
            (b"2\t20\t0;3\r\n3\t40\t0;1,30\n4\t\xff\t0;1\n", CR_FOUND),
            (b"2\t2\xff\t0;3\n3\t40\t0;1,30\r\n", NOT_UTF8 + "0xff in column 4: invalid start byte"),
            # an unfinished last line is named for a CR or bad bytes before its missing LF
            (b"2\t20\r\t0;3", CR_FOUND),
            (b"2\t2\xff\t0;3", NOT_UTF8 + "0xff in column 4: invalid start byte"),
            (b"2\t20\t0;3\xc3", NOT_UTF8 + "0xc3 in column 9: invalid continuation byte"),
            (b"2\t20", "the file does not end in LF"),
            # a line's fields are checked before the next line is decoded
            (b"2\t20\n3\t\xff\t0;1\n", "expected 3 tab-separated fields, found 2"),
        ],
    )
    def test_fault_precedence(self, rest, message, size):
        data = b"1\t10\t0;6\n" + rest
        rows = parse_tsv(tsv_file(data) if size is None else Trickle(data, size))
        assert next(rows) == (1, "10", "0;6")
        with pytest.raises(ValueError, match=f"^{re.escape('line 2: ' + message)}$"):
            next(rows)

    def test_bytes_that_are_not_utf8_name_their_line_and_column(self):
        text = "".join(f"{i}\t10\t0;6\n" for i in range(1, 10001)).encode()
        offset = 100_000
        line = text.count(b"\n", 0, offset) + 1
        column = offset - text.rfind(b"\n", 0, offset)
        bad = text[:offset] + b"\xff" + text[offset + 1 :]
        message = f"line {line}: 'utf-8' codec can't decode byte 0xff in column {column}"
        with pytest.raises(ValueError, match=message):
            list(parse_tsv(tsv_file(bad)))


def tsv_oracle(rows):
    """Each cell spelled by format from its binary value: no packed digits, no chain."""
    return "".join(
        f"{row.index}\t{translit.format(row.value)}\t{translit.format(row.reciprocal)}\n"
        for row in rows
    )


class TestWriterAgreesWithFormatOfEachValue:
    """doubling_tsv spells every row after the first from packed digits, stepped from
    the row before, and table_tsv every row from its values; each must read as its value does."""

    @staticmethod
    def written(lines, monkeypatch):
        """The text of a writer's lines, and how many rows it stepped with
        translit._Digits.double."""
        steps = []
        double = translit._Digits.double
        monkeypatch.setattr(
            translit._Digits, "double", lambda value: steps.append(1) or double(value)
        )
        return "".join(lines), len(steps)

    @pytest.mark.parametrize("anchor", range(-3, 4))
    @pytest.mark.parametrize("seed", ["10", "1,21", "7,30"])
    def test_generated_tables(self, seed, anchor, monkeypatch):
        seed_value = translit.to_number(translit.parse(seed), "floating")
        rows = list(generate_doubling(seed_value, 300, anchor))
        text, steps = self.written(doubling_tsv(seed_value, 300, anchor), monkeypatch)
        assert text == tsv_oracle(rows)
        assert steps == 299  # every row after the first came from the chain

    def test_rows_that_break_the_chain(self, monkeypatch):
        rows = list(generate_doubling(15, 60, anchor_exponent=-1))
        rows[5] = rows[5]._replace(value=FloatingSex(7))  # not the double, the half kept
        rows[10] = TableRow(11, FloatingSex(7), SexNumber(1))  # neither, nor a pair
        # The value doubled, the reciprocal halved in mantissa but not in place.
        rows[20] = rows[20]._replace(reciprocal=SexNumber(rows[20].reciprocal.mantissa, 5))
        rows[30] = rows[30]._replace(reciprocal=rows[30].reciprocal.to_floating())  # floating
        rows[40] = rows[40]._replace(value=rows[40].value.anchor(2))  # an anchored value
        rows[49] = rows[49]._replace(reciprocal=SexNumber(0))
        rows[50] = rows[50]._replace(reciprocal=SexNumber(0))
        text, steps = self.written(table_tsv(rows), monkeypatch)
        assert text == tsv_oracle(rows)
        assert steps == 0  # table_tsv spells each row from its own values

    def test_a_standard_table(self, monkeypatch):
        rows = generate_standard(10**6)
        text, steps = self.written(table_tsv(rows), monkeypatch)
        assert text == tsv_oracle(rows)
        assert steps == 0
