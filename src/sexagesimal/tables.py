"""Doubling tables, standard reciprocal tables, and table verification.

A doubling table starts from a regular seed and repeatedly doubles it
while halving its reciprocal; both walks are exact, so every row stays a
reciprocal pair.  This is how scribes extended their reciprocal lists
cheaply.  The verifier goes the other way: given a transcribed table, it
checks the relations structurally and reports findings without ever
correcting an entry.

Table file format (bit-exact): UTF-8, one row per line, three
TAB-separated fields ``index<TAB>value<TAB>reciprocal``, LF endings,
no header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import translit
from .core import FloatingSex, SexNumber
from .regular import ReciprocalPair, invert, is_reciprocal_pair, reciprocal, regular_numbers

PAIR_OK = "PAIR_OK"
PAIR_BAD = "PAIR_BAD"
DOUBLING_OK = "DOUBLING_OK"
DOUBLING_BAD = "DOUBLING_BAD"
HALVING_OK = "HALVING_OK"
HALVING_BAD = "HALVING_BAD"
PARSE_ERROR = "PARSE_ERROR"

_BAD_KINDS = frozenset({PAIR_BAD, DOUBLING_BAD, HALVING_BAD, PARSE_ERROR})


@dataclass(frozen=True)
class TableRow:
    """One table line: a floating value and its anchored reciprocal."""

    index: int
    value: FloatingSex
    reciprocal: SexNumber


@dataclass(frozen=True)
class DoublingTable:
    seed: FloatingSex
    rows: tuple[TableRow, ...]


def generate_doubling(
    seed: FloatingSex | int, count: int, anchor_exponent: int = 0
) -> DoublingTable:
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
    return DoublingTable(seed, tuple(rows))


def generate_standard(limit: int) -> tuple[ReciprocalPair, ...]:
    """Reciprocal pairs for every regular integer in [2, limit], ascending.

    Irregular integers are left out entirely, as on the historical
    tablets, which list no entry at all for them.
    """
    if limit < 2:
        raise ValueError(f"limit must be at least 2, got {limit}")
    return tuple(
        ReciprocalPair(FloatingSex(n), reciprocal(n)) for n in regular_numbers(limit)
    )


@dataclass(frozen=True)
class Finding:
    kind: str
    row_index: int
    message: str = ""


@dataclass(frozen=True)
class VerificationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.bad()

    def bad(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind in _BAD_KINDS)

    def count(self, kind: str) -> int:
        return sum(1 for f in self.findings if f.kind == kind)


def _parse_cell(
    findings: list[Finding], index: int, field: str, text: str, mode: str
):
    try:
        return translit.to_number(translit.parse(text), mode)
    except ValueError as exc:  # covers ParseError and the floating-zero case
        findings.append(Finding(PARSE_ERROR, index, f"{field} {text!r}: {exc}"))
        return None


def verify_table(
    rows: Sequence[tuple[int, str, str]], mode: str = "pairs"
) -> VerificationReport:
    """Structurally check transcribed (index, value, reciprocal) rows.

    Every row gets a PAIR_OK/PAIR_BAD finding (is the mantissa product a
    power of 60?).  In "doubling" mode each adjacent pair of rows also
    gets DOUBLING_OK/BAD for the value column and HALVING_OK/BAD for the
    reciprocal column.  Cells that fail to parse yield a PARSE_ERROR
    finding for their row and the remaining checks continue without
    them.  Nothing is ever corrected.
    """
    if mode not in ("pairs", "doubling"):
        raise ValueError(f"unknown mode {mode!r}")
    findings: list[Finding] = []
    parsed: list[tuple[int, FloatingSex | None, SexNumber | None]] = []
    for index, value_text, reciprocal_text in rows:
        value = _parse_cell(findings, index, "value", value_text, "floating")
        rec = _parse_cell(findings, index, "reciprocal", reciprocal_text, "absolute")
        if value is not None and rec is not None:
            if rec and is_reciprocal_pair(value, rec.to_floating()):
                findings.append(Finding(PAIR_OK, index))
            else:
                findings.append(
                    Finding(
                        PAIR_BAD,
                        index,
                        f"{value_text.strip()} and {reciprocal_text.strip()}"
                        " are not a reciprocal pair",
                    )
                )
        parsed.append((index, value, rec))
    if mode == "doubling":
        for (prev_index, prev_value, prev_rec), (index, value, rec) in zip(
            parsed, parsed[1:]
        ):
            if prev_value is not None and value is not None:
                if value == prev_value.double():
                    findings.append(Finding(DOUBLING_OK, index))
                else:
                    findings.append(
                        Finding(
                            DOUBLING_BAD,
                            index,
                            f"value is not the double of row {prev_index}'s",
                        )
                    )
            if prev_rec is not None and rec is not None:
                if rec == prev_rec.halve():
                    findings.append(Finding(HALVING_OK, index))
                else:
                    findings.append(
                        Finding(
                            HALVING_BAD,
                            index,
                            f"reciprocal is not half of row {prev_index}'s",
                        )
                    )
    return VerificationReport(tuple(findings))


def doubling_table_tsv(table: DoublingTable) -> str:
    """The table in the file format: floating values, anchored reciprocals."""
    return "".join(
        f"{row.index}\t{translit.format(row.value)}\t{translit.format(row.reciprocal)}\n"
        for row in table.rows
    )


def standard_table_tsv(pairs: Sequence[ReciprocalPair]) -> str:
    """Standard-table rows, numbered from 1; both columns floating."""
    return "".join(
        f"{index}\t{translit.format(pair.value)}\t{translit.format(pair.reciprocal)}\n"
        for index, pair in enumerate(pairs, start=1)
    )


def parse_tsv(text: str) -> list[tuple[int, str, str]]:
    """Split a table file into (index, value, reciprocal) text rows.

    The line structure is rigid: LF-terminated lines of three
    TAB-separated fields with an integer index.  Structural faults,
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
            index = int(fields[0])
        except ValueError:
            raise ValueError(f"line {lineno}: index {fields[0]!r} is not an integer") from None
        rows.append((index, fields[1], fields[2]))
    return rows
