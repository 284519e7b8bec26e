"""Doubling tables, standard reciprocal tables, and table verification.

A doubling table starts from a regular seed and repeatedly doubles it
while halving its reciprocal; both walks are exact, so every row stays a
reciprocal pair.  This is how scribes extended their reciprocal lists
cheaply, and a standard table is built the same way, never by
factoring: a regular n = p * 2**a, p odd, is row a + 1 of the doubling
chain from p and its reciprocal.  The verifier goes the other way:
given a transcribed table, it checks the relations structurally,
counts the ones that hold and reports findings for the ones that do
not, without ever correcting an entry.

The table path streams, so memory does not grow with the row count:

- ``generate_doubling`` returns an iterator of numbered ``TableRow``s
  that keeps only the current row; ``generate_standard`` returns a
  tuple of them, each checked to be a reciprocal pair.
- ``table_tsv`` yields one file line per row; ``doubling_tsv`` and
  ``standard_tsv`` are ``table_tsv`` of the walks below.
- ``parse_tsv`` yields ``(index, value, reciprocal)`` text rows from a
  binary file read 64 KiB at a time, and stops at a fault's line, naming it.
- ``verify_table`` returns a ``VerificationReport``: the bad findings,
  the only state that grows, and a count per kind.  ``RELATIONS`` names
  each relation with its OK and BAD kinds, in report order, and
  ``MODES`` gives the relations each mode checks; the CLI reports from
  these two tables.

``verify_table`` builds no value object and keeps one form per cell.
A row is a pair when the integers its cells' digits spell multiply to
a power of 60, which zero digits at either end do not change.  Pairs
mode keeps each cell's parsed numeral and computes this for every row.
Doubling mode reads each cell once, with ``translit._Digits.read``, the
rule ``to_number`` reads by, into digits packed one per byte into an
int that doubles and halves itself, and computes a row's pair from them
only if the row before does not prove it: if row i-1 is a pair and row
i doubles its value and halves its reciprocal, row i is one too, as
(2x)(y/2) = xy.  A clean table converts row 1 alone; chain checks never do.

Two walks step whatever doubles and halves: ``_doubling_rows``, one
chain, and ``_standard_rows``, the chains of every odd regular number
merged in ascending order, keeping in a queue each row whose double is
still to come.  The ``generate_`` functions walk them on value objects,
and the ``_tsv`` ones on the ``_Digits`` of each chain's first row, so
no value is built and no base-60 conversion is made after it.  There
is one line writer, ``table_tsv``, which spells each row from its own
cells with ``translit.format``.  The tests compare the two walks'
lines, and ``format`` of value objects shares no code with the packed
steps.

Table file format (bit-exact): UTF-8, one row per line, three
TAB-separated fields ``index<TAB>value<TAB>reciprocal``, every line
ending in LF (the last one too), no header.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple

from . import translit
from .core import FloatingSex, SexNumber, _require_int
from .regular import _is_power_of_60, invert, is_reciprocal_pair, reciprocal, regular_numbers
from .translit import _Digits

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
    if not isinstance(seed, FloatingSex):
        seed = FloatingSex(seed)  # an int alone: a float or a bool raises TypeError
    _require_int("count", count)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    return _doubling_rows(seed, invert(seed.anchor(anchor_exponent)), count)


def _doubling_rows(
    value: FloatingSex | _Digits, rec: SexNumber | _Digits, count: int
) -> Iterator[TableRow]:
    yield TableRow(1, value, rec)
    for index in range(2, count + 1):
        value = value.double()
        rec = rec.halve()
        yield TableRow(index, value, rec)


def generate_standard(limit: int) -> tuple[TableRow, ...]:
    """Rows numbered from 1 for every regular integer in [2, limit], ascending.

    Both columns are floating.  Irregular integers are left out
    entirely, as on the historical tablets, which list no entry at all
    for them.  The merged chains are walked on ``FloatingSex``, and
    every row is checked to be a reciprocal pair.
    """
    rows = tuple(_standard_rows(limit, FloatingSex))
    for _, value, rec in rows:
        if not is_reciprocal_pair(value, rec):
            raise ValueError(f"{value.mantissa} and {rec.mantissa} are not a reciprocal pair")
    return rows


def _standard_rows(limit: int, carry: Callable[[int], Any]) -> Iterator[TableRow]:
    """The rows up to limit, one at a time: an odd n starts a chain with carry(n) and
    carry of its reciprocal's mantissa, an even n steps the row of n // 2."""
    _require_int("limit", limit)
    if limit < 2:
        raise ValueError(f"limit must be at least 2, got {limit}")
    # Rows of n with 2n <= limit whose doubles are to come, oldest first (1 is
    # no row); even numbers come in the order of their halves, so n // 2 is first.
    pending = deque([(carry(1), carry(1))])
    for index, n in enumerate(regular_numbers(limit), start=1):
        if n & 1:
            value, rec = carry(n), carry(reciprocal(n).mantissa)
        else:
            value, rec = pending.popleft()
            value, rec = value.double(), rec.halve()
        if n << 1 <= limit:
            pending.append((value, rec))
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

    def bad(self) -> tuple[Finding, ...]:  # read by bench/spans.py only
        return self.findings


def verify_table(
    rows: Iterable[tuple[int, str, str]], mode: str = "pairs"
) -> VerificationReport:
    """Structurally check transcribed (index, value, reciprocal) rows.

    Every row counts as PAIR_OK or PAIR_BAD (is the product of its
    cells' digit integers a power of 60?).  In "doubling" mode each
    adjacent pair of rows also counts as DOUBLING_OK/BAD for the value
    column and HALVING_OK/BAD for the reciprocal column; one recorder
    counts all three and reports each that fails.  A cell that fails to
    parse yields a PARSE_ERROR finding for its row, and the other checks
    go on without it.  Row findings come first, then chain findings,
    each in row order.  Nothing is ever corrected.  A cell is kept in
    one form, its ``_Digits`` in doubling mode and its numeral in pairs
    mode (see the module docstring); ``MODES`` gives what each counts.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    doubling = mode == "doubling"
    counts: Counter[str] = Counter()
    row_findings: list[Finding] = []  # PAIR_BAD and PARSE_ERROR
    chain_findings: list[Finding] = []  # DOUBLING_BAD and HALVING_BAD

    def record(findings, holds, ok_kind, bad_kind, index, message, *args):
        if holds:
            counts[ok_kind] += 1
        else:  # the message is formatted for a failed relation only
            counts[bad_kind] += 1
            findings.append(Finding(bad_kind, index, message.format(*args)))
        return holds

    def parse_cell(index, field, text, reading):
        """The cell's _Digits in doubling mode, else its numeral; None if it does not parse."""
        try:
            numeral = translit.parse(text)
            if doubling or reading == "floating" and not any(numeral.digits):
                return _Digits.read(numeral, reading)  # an all-zero floating value raises
            return numeral
        except ValueError as exc:  # covers ParseError and the floating-zero case
            counts[PARSE_ERROR] += 1
            row_findings.append(Finding(PARSE_ERROR, index, f"{field} {text!r}: {exc}"))
            return None

    prev_index, prev_value, prev_rec, prev_pair = 0, None, None, False
    for index, value_text, reciprocal_text in rows:
        value = parse_cell(index, "value", value_text, "floating")
        rec = parse_cell(index, "reciprocal", reciprocal_text, "absolute")
        proved = False
        if doubling:
            doubled = prev_value is not None and value is not None and record(
                chain_findings, value == prev_value.double(), DOUBLING_OK, DOUBLING_BAD,
                index, "value is not the double of row {}'s", prev_index,
            )
            halved = prev_rec is not None and rec is not None and record(
                chain_findings, rec == prev_rec.halve(), HALVING_OK, HALVING_BAD,
                index, "reciprocal is not half of row {}'s", prev_index,
            )
            proved = prev_pair and doubled and halved
        pair = value is not None and rec is not None and record(
            row_findings, proved or _is_power_of_60(
                translit._value_of(value.digits) * translit._value_of(rec.digits)),
            PAIR_OK, PAIR_BAD, index, "{} and {} are not a reciprocal pair",
            value_text.strip(), reciprocal_text.strip())  # the texts are stripped for the message
        prev_index, prev_value, prev_rec, prev_pair = index, value, rec, pair
    return VerificationReport(tuple(row_findings + chain_findings), counts)


def doubling_tsv(
    seed: FloatingSex | int, count: int, anchor_exponent: int = 0
) -> Iterator[str]:
    """The lines of ``table_tsv(generate_doubling(seed, count, anchor_exponent))``.

    The chain is walked on the private ``_Digits`` of row 1, carried in
    the same ``TableRow`` type, so every row is spelled from packed
    digits and no row after the first builds a value or converts base
    60.  The seed and the count are checked at the call, as
    generate_doubling checks them.
    """
    first = next(generate_doubling(seed, count, anchor_exponent))
    rows = _doubling_rows(_Digits.of(first.value), _Digits.of(first.reciprocal), count)
    return table_tsv(rows)


def standard_tsv(limit: int) -> Iterator[str]:
    """The lines of ``table_tsv(generate_standard(limit))``, walked on the private ``_Digits``.

    No row is checked, as none is in doubling_tsv: each is stepped from
    a pair that ``reciprocal`` computes exactly, and (2x)(y/2) = xy.
    The limit is checked when the first line is asked for.
    """
    return table_tsv(_standard_rows(limit, lambda m: _Digits.of(FloatingSex(m))))


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
    fields with an index of ASCII digits.  After the rows before it, a
    fault raises ValueError naming its line: bytes that are not UTF-8 (by
    the decoder's column), else any carriage return, else a missing last
    LF, else the fields.  A block of whole lines is decoded at once; one
    that fails to decode or holds a CR, and the unfinished last line, are
    decoded line by line.  Number notation is left to verify_table.
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
        block = b"".join(pending)
        pending = [chunk[end:]]
        careful = not chunk or b"\r" in block  # read line by line: the last line, or a CR
        try:
            lines = block.split(b"\n") if careful else block.decode("utf-8").split("\n")
        except UnicodeDecodeError:  # and bytes that are not UTF-8
            careful, lines = True, block.split(b"\n")
        if not lines[-1]:  # what follows the last LF: nothing, or the unfinished last line
            lines.pop()
        for line in lines:
            lineno += 1
            if careful:
                try:  # with its LF, so a character cut off at the end reads as cut
                    line = (line + b"\n").decode("utf-8")[:-1]
                except UnicodeDecodeError as exc:
                    raise ValueError(
                        f"line {lineno}: 'utf-8' codec can't decode byte {line[exc.start]:#04x}"
                        f" in column {exc.start + 1}: {exc.reason}"
                    ) from None
                if "\r" in line:
                    raise ValueError(
                        f"line {lineno}: carriage return found; lines must end in LF only"
                    )
                if not chunk:
                    raise ValueError(f"line {lineno}: the file does not end in LF")
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
        if not chunk:
            return
