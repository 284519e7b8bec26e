"""Doubling tables, standard reciprocal tables, and table verification.

A doubling table starts from a regular seed and repeatedly doubles it
while halving its reciprocal; both walks are exact, so every row stays a
reciprocal pair.  This is how scribes extended their reciprocal lists
cheaply.  A standard table is built from each number's exponents, never
by factoring.  The verifier goes the other way: given a transcribed
table, it checks the relations structurally, counts the ones that hold
and reports findings for the ones that do not, without ever correcting
an entry.

The table path streams, so memory does not grow with the row count:

- ``generate_doubling`` returns an iterator of numbered ``TableRow``s
  that keeps only the current row; ``generate_standard`` returns a
  tuple of them, built from the same row generator the CLI streams.
- ``table_tsv`` and ``doubling_tsv`` yield one file line per row.
- ``parse_tsv`` yields ``(index, value, reciprocal)`` text rows from a
  binary file, read 64 KiB at a time, holding one read of lines at a time.
- ``verify_table`` returns a ``VerificationReport``: the bad findings,
  the only state that grows, and a count per kind.  ``RELATIONS`` names
  each relation with its OK and BAD kinds, in report order, and
  ``MODES`` gives the relations each mode checks; the CLI reports from
  these two tables.

``verify_table`` builds no value object.  A row is a pair when the
integers its two cells' digits spell multiply to a power of 60, which
trailing zero digits do not change; pairs mode computes this for every
row.  Doubling mode compares cells on their digits, packed one per
byte into an int (``translit.Digits``) and doubled or halved in place,
and computes a row's pair only when it does not follow from the row
before: if row i-1 is a reciprocal pair and row i doubles its value
and halves its reciprocal, row i is one too, as (2x)(y/2) = xy.  A
clean table converts row 1 alone, and no chain check converts at all.

``doubling_tsv`` writes a doubling table the way it is defined: row 1
is spelled from its values and read back into packed digits, and
every later row is the row before, doubled and halved in packed form
and rendered by ``translit.format`` without a base-60 conversion, so
no value is built after row 1.  ``table_tsv`` spells any rows, each
from its own values.  The packed steps are tested against ``format``
of every row's binary values, which shares no code with them.

Table file format (bit-exact): UTF-8, one row per line, three
TAB-separated fields ``index<TAB>value<TAB>reciprocal``, every line
ending in LF (the last one too), no header.
"""

from __future__ import annotations

from collections import Counter
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from . import translit
from .core import BASE, FloatingSex, SexNumber
from .regular import _is_power_of_60, _odd_regulars, _reciprocal_power
from .regular import invert, is_reciprocal_pair, regular_numbers
from .translit import Digits

PAIR_OK = "PAIR_OK"
PAIR_BAD = "PAIR_BAD"
DOUBLING_OK = "DOUBLING_OK"
DOUBLING_BAD = "DOUBLING_BAD"
HALVING_OK = "HALVING_OK"
HALVING_BAD = "HALVING_BAD"
PARSE_ERROR = "PARSE_ERROR"

# The relations verify_table counts, in report order: a name, the kind of a
# relation that holds and the kind of one that fails.
RELATIONS = (
    ("pairs", PAIR_OK, PAIR_BAD),
    ("doubling", DOUBLING_OK, DOUBLING_BAD),
    ("halving", HALVING_OK, HALVING_BAD),
)
# verify_table's modes, each with the relations it checks.
MODES = {"pairs": RELATIONS[:1], "doubling": RELATIONS}


class TableRow(NamedTuple):
    """One table line: a floating value and its anchored or floating reciprocal."""

    index: int
    value: FloatingSex
    reciprocal: SexNumber | FloatingSex


def generate_doubling(
    seed: FloatingSex | int, count: int, anchor_exponent: int = 0
) -> Iterator[TableRow]:
    """Successively double a seed while halving its reciprocal.

    Row 1 pairs the seed with the reciprocal of the seed anchored at
    60**anchor_exponent, so a seed of 10 with anchor 0 starts the table
    at the pair (10, 1/10).  Each later row doubles the value and halves
    the reciprocal.  Both steps are exact, so every row's value times
    its reciprocal stays at the row-1 product.  The count and the seed
    are checked at the call (an irregular seed raises IrregularError);
    the rows then come one at a time, and only the current one is kept.
    """
    if isinstance(seed, int):
        seed = FloatingSex(seed)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    return _doubling_rows(seed, invert(seed.anchor(anchor_exponent)), count)


def _doubling_rows(value: FloatingSex, rec: SexNumber, count: int) -> Iterator[TableRow]:
    yield TableRow(1, value, rec)
    for index in range(2, count + 1):
        value = value.double()
        rec = rec.halve()
        yield TableRow(index, value, rec)


def generate_standard(limit: int) -> tuple[TableRow, ...]:
    """Rows numbered from 1 for every regular integer in [2, limit], ascending.

    Both columns are floating.  Irregular integers are left out
    entirely, as on the historical tablets, which list no entry at all
    for them.
    """
    return tuple(_standard_rows(limit))


def _standard_rows(limit: int) -> Iterator[TableRow]:
    """The rows of generate_standard(limit), one at a time."""
    if limit < 2:
        raise ValueError(f"limit must be at least 2, got {limit}")
    odd_exponents = _odd_regulars(limit)
    for index, n in enumerate(regular_numbers(limit), start=1):
        two = (n & -n).bit_length() - 1  # the lowest set bit
        three, five = odd_exponents[n >> two]
        k = min(two >> 1, three, five)  # the factors of 60 in n
        m = n // BASE**k if k else n
        r = _reciprocal_power(m, two - 2 * k, three - k, five - k)[1]
        value, rec = FloatingSex(m), FloatingSex(r)
        if not is_reciprocal_pair(value, rec):
            raise ValueError(f"{value.mantissa} and {rec.mantissa} are not a reciprocal pair")
        yield TableRow(index, value, rec)


class Finding(NamedTuple):
    kind: str
    row_index: int
    message: str = ""


class VerificationReport(NamedTuple):
    """The bad findings, and a count per kind; OK relations are only counted."""

    findings: tuple[Finding, ...]
    counts: Counter[str]

    @property
    def ok(self) -> bool:
        return not self.findings

    def bad(self) -> tuple[Finding, ...]:  # read only by bench/spans.py
        return self.findings


def verify_table(
    rows: Iterable[tuple[int, str, str]], mode: str = "pairs"
) -> VerificationReport:
    """Structurally check transcribed (index, value, reciprocal) rows.

    Every row counts as PAIR_OK or PAIR_BAD (is the product of its
    cells' digit integers a power of 60?).  In "doubling" mode each
    adjacent pair of rows also counts as DOUBLING_OK/BAD for the value
    column and HALVING_OK/BAD for the reciprocal column.  Cells that fail
    to parse yield a PARSE_ERROR finding for their row and the remaining
    checks continue without them.  The row findings come first, then the
    chain findings, each in row order.  Nothing is ever corrected.  What
    each mode converts is told in the module docstring; which relations
    it counts, in ``MODES``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    doubling = mode == "doubling"
    counts: Counter[str] = Counter()
    row_findings: list[Finding] = []  # PAIR_BAD and PARSE_ERROR
    chain_findings: list[Finding] = []  # DOUBLING_BAD and HALVING_BAD

    def record(holds, ok_kind, bad_kind, index, message, *args):
        if holds:
            counts[ok_kind] += 1
        else:
            counts[bad_kind] += 1
            chain_findings.append(Finding(bad_kind, index, message.format(*args)))
        return holds

    def parse_cell(index, field, text, reading):
        """(numeral, its packed digits in doubling mode or the numeral again), or (None, None)."""
        try:
            numeral = translit.parse(text)
            if reading == "floating" and not any(numeral.digits):
                translit.to_number(numeral, reading)  # all zero: raises before building a value
            return numeral, _packed(numeral, reading) if doubling else numeral
        except ValueError as exc:  # covers ParseError and the floating-zero case
            counts[PARSE_ERROR] += 1
            row_findings.append(Finding(PARSE_ERROR, index, f"{field} {text!r}: {exc}"))
            return None, None

    prev_index, prev_value, prev_rec, prev_pair = 0, None, None, False
    for index, value_text, reciprocal_text in rows:
        value_numeral, value = parse_cell(index, "value", value_text, "floating")
        rec_numeral, rec = parse_cell(index, "reciprocal", reciprocal_text, "absolute")
        proved = False
        if doubling:
            doubled = prev_value is not None and value is not None and record(
                value == _double(prev_value), DOUBLING_OK, DOUBLING_BAD,
                index, "value is not the double of row {}'s", prev_index,
            )
            halved = prev_rec is not None and rec is not None and record(
                rec == _halve(prev_rec), HALVING_OK, HALVING_BAD,
                index, "reciprocal is not half of row {}'s", prev_index,
            )
            proved = prev_pair and doubled and halved
        pair = False
        if value is not None and rec is not None:
            pair = proved or _is_power_of_60(
                translit._value_of(value_numeral.digits) * translit._value_of(rec_numeral.digits)
            )
            if pair:
                counts[PAIR_OK] += 1
            else:  # the texts are stripped for the message only
                counts[PAIR_BAD] += 1
                pair_text = f"{value_text.strip()} and {reciprocal_text.strip()}"
                row_findings.append(
                    Finding(PAIR_BAD, index, f"{pair_text} are not a reciprocal pair")
                )
        prev_index, prev_value, prev_rec, prev_pair = index, value, rec, pair
    return VerificationReport(tuple(row_findings + chain_findings), counts)


def _packed(numeral: translit.Transliteration, reading: str) -> Digits:
    """A cell's value as its digits packed one per byte, trailing zero digits cut off.

    The floating reading keeps no exponent, the absolute reading the one
    its semicolon gives; both are canonical, so they are equal exactly
    when the numbers are.  All zero digits are ``Digits(0, 0)``.
    """
    digits = numeral.digits
    block = bytearray(digits).rstrip(b"\0")  # bytearray: twice as fast as bytes from a tuple
    if not block:
        return Digits(0, 0)
    packed = int.from_bytes(block, "big")
    if reading == "floating":
        return Digits(packed)
    point = len(digits) if numeral.semicolon_index is None else numeral.semicolon_index
    return Digits(packed, point - len(block))


def _double(value: Digits) -> Digits:
    """Floating digits of twice the value: each digit d becomes 2d,
    less 60 with a carry of 1 into the next place where 2d >= 60."""
    packed = value.packed
    ones = translit._ones((packed.bit_length() + 7) >> 3)
    doubled = packed << 1  # every byte 2d <= 118, so 2d + 0x44 sets bit 7 just when 2d >= 60
    carries = ((doubled + 0x44 * ones) & (ones << 7)) >> 7
    doubled += (carries << 8) - 60 * carries
    # A last digit of 30 leaves 0 in its place; the carried 1 above it is not 0.
    return Digits(doubled if doubled & 0xFF else doubled >> 8)


def _halve(rec: Digits) -> Digits:
    """Absolute digits of half the value: each digit d leaves d >> 1
    one place up and 30 * (d & 1) in its own place, one place lower."""
    packed, exponent = rec
    if not packed:
        return rec
    odd = packed & translit._ones((packed.bit_length() + 7) >> 3)
    halved = ((packed - odd) << 7) + 30 * odd  # (packed - odd) >> 1, one byte up
    # An even last digit leaves 0 in its place; the half of it above is not 0.
    return Digits(halved, exponent - 1) if halved & 0xFF else Digits(halved >> 8, exponent)


def doubling_tsv(
    seed: FloatingSex | int, count: int, anchor_exponent: int = 0
) -> Iterator[str]:
    """The lines of ``table_tsv(generate_doubling(seed, count, anchor_exponent))``.

    Row 1 is spelled from its values and read back into packed digits;
    every later row is the row before doubled and halved by ``_double``
    and ``_halve``, and spelled from those digits, so no row after the
    first builds a value or converts base 60.  The seed and the count
    are checked at the call, as generate_doubling checks them.
    """
    return _doubling_lines(next(generate_doubling(seed, count, anchor_exponent)), count)


def _doubling_lines(first: TableRow, count: int) -> Iterator[str]:
    value_text, rec_text = translit.format(first.value), translit.format(first.reciprocal)
    yield f"1\t{value_text}\t{rec_text}\n"
    value = _packed(translit.parse(value_text), "floating")
    rec = _packed(translit.parse(rec_text), "absolute")
    for index in range(2, count + 1):
        value, rec = _double(value), _halve(rec)
        yield f"{index}\t{translit.format(value)}\t{translit.format(rec)}\n"


def table_tsv(rows: Iterable[TableRow]) -> Iterator[str]:
    """Each row as one line of the file format, LF included, in row order.

    Each value is spelled from itself by ``translit.format``, in its own
    style, floating or anchored; nothing is carried from one row to the
    next.
    """
    for index, value, rec in rows:
        yield f"{index}\t{translit.format(value)}\t{translit.format(rec)}\n"


def parse_tsv(file: BinaryIO) -> Iterator[tuple[int, str, str]]:
    """Split a table file into (index, value, reciprocal) text rows, lazily.

    file is opened in binary mode and read 64 KiB at a time, by
    ``file.read`` alone; one read and one unfinished line are held.  The
    line structure is rigid: LF-terminated lines of three TAB-separated
    fields with an index of ASCII digits.  Structural faults raise
    ValueError naming the line, after the rows before it: any carriage
    return, bytes that are not UTF-8, a last line without its LF.
    Number notation inside the fields is left to verify_table.
    """
    lineno = 0
    pending: list[bytes] = []  # the start of a line whose LF has not come yet
    while True:
        chunk = file.read(1 << 16)
        end = chunk.rfind(b"\n") + 1
        if chunk and not end:
            pending.append(chunk)
            continue
        pending.append(chunk[:end])  # at the end of the file, the unfinished line alone
        lines, fault = _whole_lines(b"".join(pending), lineno)
        pending = [chunk[end:]]
        for line in lines:
            lineno += 1
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"line {lineno}: expected 3 tab-separated fields, found {len(fields)}"
                )
            index = fields[0]
            if not (index.isascii() and index.isdigit()):
                raise ValueError(f"line {lineno}: index {index!r} is not an integer")
            try:
                number = int(index)
            except ValueError as exc:  # longer than the interpreter's int/str limit
                raise ValueError(f"line {lineno}: index of {len(index)} digits: {exc}") from None
            yield number, fields[1], fields[2]
        if fault is not None:
            raise fault
        if not chunk:
            return


def _whole_lines(block: bytes, lineno: int) -> tuple[list[str], ValueError | None]:
    """The lines, LFs cut off, of a block of a file that follows its line lineno.

    The block ends in an LF, or at the end of the file.  Returns the
    lines before the first one with a fault (a CR, bytes that are not
    UTF-8, or a last line without its LF) and that fault, which names
    its line, or None.
    """
    fault = None
    unended = block and not block.endswith(b"\n")  # the end of the file, without its LF
    try:  # decoded with the LF, so a character cut at the end reads as cut, not as the end
        text = (block + b"\n" if unended else block).decode("utf-8")
    except UnicodeDecodeError as exc:
        start = block.rfind(b"\n", 0, exc.start) + 1
        bad = lineno + block.count(b"\n", 0, start) + 1
        fault = ValueError(
            f"line {bad}: 'utf-8' codec can't decode byte {block[exc.start]:#04x}"
            f" in column {exc.start - start + 1}: {exc.reason}"
        )
        text = block[:start].decode("utf-8")
    cr = text.find("\r")
    if cr >= 0:
        text = text[:cr]
        bad = lineno + text.count("\n") + 1
        fault = ValueError(f"line {bad}: carriage return found; lines must end in LF only")
    lines = text.split("\n")
    lines.pop()  # after the last LF, or the start of the line with the fault
    if unended and fault is None:
        lines.pop()
        fault = ValueError(f"line {lineno + len(lines) + 1}: the file does not end in LF")
    return lines, fault
