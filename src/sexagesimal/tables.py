"""Doubling tables, standard reciprocal tables, and table verification.

A doubling table starts from a regular seed and repeatedly doubles it
while halving its reciprocal; both walks are exact, so every row stays a
reciprocal pair.  This is how scribes extended their reciprocal lists
cheaply.  Both generators return numbered ``TableRow``s; a standard
table is built from each number's exponents, never by factoring.  The
verifier goes the other way: given a transcribed table, it checks the
relations structurally, counts the ones that hold and reports findings
for the ones that do not, without ever correcting an entry.

Table file format (bit-exact): UTF-8, one row per line, three
TAB-separated fields ``index<TAB>value<TAB>reciprocal``, LF endings,
no header.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

from . import translit
from .core import BASE, FloatingSex, SexNumber
from .regular import _odd_regulars, _reciprocal_power, invert, is_reciprocal_pair, regular_numbers

PAIR_OK = "PAIR_OK"
PAIR_BAD = "PAIR_BAD"
DOUBLING_OK = "DOUBLING_OK"
DOUBLING_BAD = "DOUBLING_BAD"
HALVING_OK = "HALVING_OK"
HALVING_BAD = "HALVING_BAD"
PARSE_ERROR = "PARSE_ERROR"


class TableRow(NamedTuple):
    """One table line: a floating value and its anchored or floating reciprocal."""

    index: int
    value: FloatingSex
    reciprocal: SexNumber | FloatingSex


def generate_doubling(
    seed: FloatingSex | int, count: int, anchor_exponent: int = 0
) -> tuple[TableRow, ...]:
    """Successively double a seed while halving its reciprocal.

    Row 1 pairs the seed with the reciprocal of the seed anchored at
    60**anchor_exponent, so a seed of 10 with anchor 0 starts the table
    at the pair (10, 1/10).  Each later row doubles the value and halves
    the reciprocal.  Both
    steps are exact, so rows[i].value * rows[i].reciprocal stays at the
    row-1 product throughout.  Irregular seeds raise IrregularError.
    """
    if isinstance(seed, int):
        seed = FloatingSex(seed)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    value = seed
    rec = invert(seed.anchor(anchor_exponent))
    rows = [TableRow(1, value, rec)]
    for index in range(2, count + 1):
        value = value.double()
        rec = rec.halve()
        rows.append(TableRow(index, value, rec))
    return tuple(rows)


def generate_standard(limit: int) -> tuple[TableRow, ...]:
    """Rows numbered from 1 for every regular integer in [2, limit], ascending.

    Both columns are floating.  Irregular integers are left out
    entirely, as on the historical tablets, which list no entry at all
    for them.
    """
    if limit < 2:
        raise ValueError(f"limit must be at least 2, got {limit}")
    odd_exponents = _odd_regulars(limit)
    rows = []
    for index, n in enumerate(regular_numbers(limit), start=1):
        two = (n & -n).bit_length() - 1  # the lowest set bit
        three, five = odd_exponents[n >> two]
        k = min(two >> 1, three, five)  # the factors of 60 in n
        m = n // BASE**k if k else n
        r = _reciprocal_power(m, two - 2 * k, three - k, five - k)[1]
        value, rec = FloatingSex._canonical(m), FloatingSex._canonical(r)
        if not is_reciprocal_pair(value, rec):
            raise ValueError(f"{value.mantissa} and {rec.mantissa} are not a reciprocal pair")
        rows.append(TableRow(index, value, rec))
    return tuple(rows)


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

    def bad(self) -> tuple[Finding, ...]:
        return self.findings

    def count(self, kind: str) -> int:
        return self.counts[kind]


def verify_table(
    rows: Iterable[tuple[int, str, str]], mode: str = "pairs"
) -> VerificationReport:
    """Structurally check transcribed (index, value, reciprocal) rows.

    Every row counts as PAIR_OK or PAIR_BAD (is the mantissa product a
    power of 60?).  In "doubling" mode each adjacent pair of rows also
    counts as DOUBLING_OK/BAD for the value column and HALVING_OK/BAD
    for the reciprocal column.  Cells that fail to parse yield a
    PARSE_ERROR finding for their row and the remaining checks continue
    without them.  The row findings come first, then the chain findings,
    each in row order.  Nothing is ever corrected.
    """
    if mode not in ("pairs", "doubling"):
        raise ValueError(f"unknown mode {mode!r}")
    counts: Counter[str] = Counter()
    row_findings: list[Finding] = []  # PAIR_BAD and PARSE_ERROR
    chain_findings: list[Finding] = []  # DOUBLING_BAD and HALVING_BAD

    def record(findings, holds, ok_kind, bad_kind, index, message, *args):
        if holds:
            counts[ok_kind] += 1
        else:
            counts[bad_kind] += 1
            findings.append(Finding(bad_kind, index, message.format(*args)))

    def parse_cell(index, field, text, reading):
        try:
            return translit.to_number(translit.parse(text), reading)
        except ValueError as exc:  # covers ParseError and the floating-zero case
            counts[PARSE_ERROR] += 1
            row_findings.append(Finding(PARSE_ERROR, index, f"{field} {text!r}: {exc}"))
            return None

    prev_index, prev_value, prev_rec = 0, None, None
    for index, value_text, reciprocal_text in rows:
        value = parse_cell(index, "value", value_text, "floating")
        rec = parse_cell(index, "reciprocal", reciprocal_text, "absolute")
        if value is not None and rec is not None:
            record(
                row_findings, bool(rec) and is_reciprocal_pair(value, rec.to_floating()),
                PAIR_OK, PAIR_BAD, index, "{} and {} are not a reciprocal pair",
                value_text.strip(), reciprocal_text.strip(),
            )
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
    return VerificationReport(tuple(row_findings + chain_findings), counts)


def table_tsv(rows: Iterable[TableRow]) -> str:
    """Rows in the file format; each value is written in its own style (floating or anchored)."""
    return "".join(
        f"{row.index}\t{translit.format(row.value)}\t{translit.format(row.reciprocal)}\n"
        for row in rows
    )


def parse_tsv(text: str) -> list[tuple[int, str, str]]:
    """Split a table file into (index, value, reciprocal) text rows.

    The line structure is rigid: LF-terminated lines of three
    TAB-separated fields with an index of ASCII digits.  Structural faults,
    including any carriage return, raise ValueError naming the line;
    number notation inside the fields is left to verify_table.
    """
    cr = text.find("\r")
    if cr >= 0:
        lineno = text.count("\n", 0, cr) + 1
        raise ValueError(f"line {lineno}: carriage return found; lines must end in LF only")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the piece after the final newline
    rows: list[tuple[int, str, str]] = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(
                f"line {lineno}: expected 3 tab-separated fields, found {len(fields)}"
            )
        try:
            if not (fields[0].isascii() and fields[0].isdigit()):
                raise ValueError
            index = int(fields[0])
        except ValueError:
            raise ValueError(f"line {lineno}: index {fields[0]!r} is not an integer") from None
        rows.append((index, fields[1], fields[2]))
    return rows
