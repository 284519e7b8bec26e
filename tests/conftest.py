"""Shared runners and fixtures, and the independent oracles of tier-1.

Each oracle below computes one property the slow, plain way, and calls
none of the code it checks: not ``core._remove_factor``, ``translit``'s
``_digits_of``, ``_value_of``, ``format`` or ``_Digits``, nor
``tables.table_tsv``.  A test that needs a property's expected value
calls its oracle here.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from sexagesimal.core import FloatingSex, SexNumber
from sexagesimal.translit import Transliteration

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_TSV = DATA_DIR / "doubling_seed10_rows30.tsv"
# The Old Babylonian standard reciprocal table, igi 2 to igi 1,21, typed from
# Neugebauer & Sachs, Mathematical Cuneiform Texts (1945), p. 11.
STANDARD_TSV = DATA_DIR / "standard_to_81.tsv"
SRC = Path(__file__).parent.parent / "src"
# Every child process imports the package from src/, installed or not.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    from sexagesimal.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def start_child(*argv: str, script: str | None = None, **popen) -> subprocess.Popen:
    """Start ``python -m sexagesimal *argv``, or ``python -c script *argv``, as a
    child process; keyword arguments go to ``subprocess.Popen``."""
    program = ["-m", "sexagesimal"] if script is None else ["-c", script]
    return subprocess.Popen([sys.executable, *program, *argv], env=CHILD_ENV, **popen)


def run_child(
    *argv: str, input: bytes = b"", script: str | None = None
) -> tuple[int, bytes, bytes]:
    """Run a child process as ``start_child`` does to its end, with ``input`` written
    to a pipe on its stdin; returns (exit code, stdout, stderr) as bytes."""
    pipe = subprocess.PIPE
    with start_child(*argv, script=script, stdin=pipe, stdout=pipe, stderr=pipe) as child:
        out, err = child.communicate(input)
    return child.returncode, out, err


@pytest.fixture
def cli():
    return run_cli


@pytest.fixture(scope="session")
def golden_text() -> str:
    return GOLDEN_TSV.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def golden_rows(golden_text: str) -> list[tuple[int, str, str]]:
    rows = []
    for line in golden_text.splitlines():
        index, value, reciprocal = line.split("\t")
        rows.append((int(index), value, reciprocal))
    return rows


def rational(x: SexNumber) -> Fraction:
    """The exact value mantissa * 60**exponent of an anchored value."""
    return Fraction(x.mantissa) * Fraction(60) ** x.exponent


def valuation(n: int, p: int) -> tuple[int, int]:
    """(n // p**k, k) for the largest k with p**k dividing n, one division per factor.

    It never ends for n = 0, which every power of p divides: callers
    state zero's case themselves.
    """
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


def division_terminates(n: int) -> bool:
    """Whether 1/n has a finite base-60 expansion, by long division.

    The expansion is finite exactly when a remainder reaches 0 before
    any remainder repeats; a repeat happens within n steps.
    """
    seen = set()
    r = 1 % n
    while r and r not in seen:
        seen.add(r)
        r = r * 60 % n
    return r == 0


def regulars_up_to(limit: int) -> list[int]:
    """Every regular number in [2, limit], 2**a * 3**b * 5**c from a triple loop, sorted."""
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


def digits_of(n: int) -> bytes:
    """The base-60 digits of n >= 0, one per byte, most significant first, one
    division per digit; 0 has none."""
    out = []
    while n:
        n, d = divmod(n, 60)
        out.append(d)
    return bytes(out[::-1])


def value_of(digits) -> int:
    """The int that base-60 digits spell, most significant first, one digit per step."""
    value = 0
    for d in digits:
        value = value * 60 + d
    return value


def spelling(value: SexNumber | FloatingSex) -> str:
    """A value's text, digit by digit: a FloatingSex as its bare digits; a SexNumber
    anchored, with a 0 for each empty place between its digits and the units place,
    and "0;" ahead of a pure fraction."""
    if value.mantissa == 0:  # only a SexNumber can be zero
        return "0"
    digits = list(digits_of(value.mantissa))
    exponent = 0 if isinstance(value, FloatingSex) else value.exponent
    if exponent >= 0:
        return ",".join(map(str, digits + [0] * exponent))
    point = len(digits) + exponent  # digits before the semicolon
    if point <= 0:
        digits, point = [0] * (1 - point) + digits, 1
    return ",".join(map(str, digits[:point])) + ";" + ",".join(map(str, digits[point:]))


def same_fields(a, b) -> bool:
    """Same type, and every slot equal in value and in type (so no bool for an int)."""
    fields = lambda x: [(type(getattr(x, n)), getattr(x, n)) for n in x.__slots__]
    return type(a) is type(b) and fields(a) == fields(b)


def numeral(digits, semicolon_index: int | None) -> Transliteration:
    """The numeral of these digits with the semicolon before semicolon_index, if any;
    a leading 0 that the notation would refuse is written 1."""
    if digits[0] == 0 and len(digits) > 1 and semicolon_index not in (0, 1):
        digits = [1, *digits[1:]]
    return Transliteration(tuple(digits), semicolon_index, "raw")
