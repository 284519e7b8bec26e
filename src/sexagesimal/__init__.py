"""Exact Babylonian sexagesimal arithmetic, reciprocals, and table tools."""

from .core import BASE, ONE, ZERO, FloatingSex, SexNumber, multiply
from .regular import (
    Factorization235, IrregularError, NoFiniteSolutionError, factor235, invert,
    is_reciprocal_pair, is_regular, reciprocal, regular_numbers, solve_linear,
)
from .tables import (
    Finding, TableRow, VerificationReport, generate_doubling, generate_standard, verify_table,
)
from .translit import DigitRangeError, ParseError, Transliteration, parse, to_number

__version__ = "0.1.0"

__all__ = [
    "BASE",
    "ONE",
    "ZERO",
    "FloatingSex",
    "SexNumber",
    "multiply",
    "Factorization235",
    "IrregularError",
    "NoFiniteSolutionError",
    "factor235",
    "invert",
    "is_reciprocal_pair",
    "is_regular",
    "reciprocal",
    "regular_numbers",
    "solve_linear",
    "Finding",
    "TableRow",
    "VerificationReport",
    "generate_doubling",
    "generate_standard",
    "verify_table",
    "DigitRangeError",
    "ParseError",
    "Transliteration",
    "parse",
    "to_number",
]
