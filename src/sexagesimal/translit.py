"""Parse and print the modern comma/semicolon notation for base-60 numbers.

The accepted grammar, ASCII only:

    number := digits | digits ';' digits | ';' digits
    digits := digit (',' digit)*
    digit  := 0 | [1-9][0-9]?        (value below 60, no zero padding)

The semicolon separates the whole part from the fractional part, e.g.
``10,12;45`` is 10*60 + 12 + 45/60.  Whitespace around tokens is
tolerated.  A string without a semicolon is ambiguous between an integer
and a floating digit string; the parser records the tokens only and the
caller picks a mode when converting, so nothing is ever guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, overload

from .core import BASE, FloatingSex, SexNumber

_WHITESPACE = " \t"
_ASCII_DIGITS = "0123456789"


class ParseError(ValueError):
    """Malformed notation; ``position`` is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class DigitRangeError(ParseError):
    """A digit value of 60 or more, which one base-60 place cannot hold."""

    def __init__(self, value: int, position: int):
        super().__init__(f"digit {value} is out of range 0..59", position)
        self.value = value


@dataclass(frozen=True)
class Transliteration:
    """One tokenized numeral.

    ``semicolon_index`` counts the digits written before the semicolon;
    None means the text had no semicolon.  ``raw`` keeps the original
    spelling.
    """

    digits: tuple[int, ...]
    semicolon_index: int | None
    raw: str

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("a numeral needs at least one digit")
        for d in self.digits:
            if not 0 <= d < BASE:
                raise ValueError(f"digit {d} is out of range 0..59")
        si = self.semicolon_index
        if si is not None and not 0 <= si <= len(self.digits):
            raise ValueError(f"semicolon index {si} is outside 0..{len(self.digits)}")
        # A zero may lead only where it carries meaning: as the whole
        # part before a semicolon ("0;6"), as the first fractional digit
        # of a headless fraction (";0,45"), or as the lone digit 0.
        if self.digits[0] == 0 and len(self.digits) > 1 and si not in (0, 1):
            raise ParseError("leading zero digit is not positional", _skip_whitespace(self.raw, 0))


def _skip_whitespace(text: str, i: int) -> int:
    while i < len(text) and text[i] in _WHITESPACE:
        i += 1
    return i


def _scan_digits(text: str, i: int, out: list[int]) -> int:
    """Scan ``digit (',' digit)*`` starting at i; return the next index."""
    while True:
        i = _skip_whitespace(text, i)
        start = i
        while i < len(text) and text[i] in _ASCII_DIGITS:
            i += 1
        if i == start:
            raise ParseError("expected a digit", start)
        token = text[start:i]
        if len(token) > 1 and token[0] == "0":
            raise ParseError(f"zero-padded digit {token!r}", start)
        value = int(token)
        if value >= BASE:
            raise DigitRangeError(value, start)
        out.append(value)
        i = _skip_whitespace(text, i)
        if i < len(text) and text[i] == ",":
            i += 1
            continue
        return i


def parse(text: str) -> Transliteration:
    """Tokenize one numeral, reporting the exact spot of any fault."""
    digits: list[int] = []
    semicolon_index: int | None = None
    i = _skip_whitespace(text, 0)
    if i == len(text):
        raise ParseError("empty numeral", i)
    if text[i] == ";":
        semicolon_index = 0
        i = _scan_digits(text, i + 1, digits)
    else:
        i = _scan_digits(text, i, digits)
        if i < len(text) and text[i] == ";":
            semicolon_index = len(digits)
            i = _scan_digits(text, i + 1, digits)
    if i < len(text):
        if text[i] == ";":
            raise ParseError("more than one semicolon", i)
        raise ParseError(f"unexpected character {text[i]!r}", i)
    return Transliteration(tuple(digits), semicolon_index, text)


@overload
def to_number(t: Transliteration, mode: Literal["absolute"]) -> SexNumber: ...
@overload
def to_number(t: Transliteration, mode: Literal["floating"]) -> FloatingSex: ...


def to_number(t, mode):
    """Evaluate a tokenized numeral.

    absolute: the semicolon fixes the units place (a missing semicolon
    reads as an integer).  floating: place value is discarded and the
    digit string stands for its whole equivalence class; an all-zero
    string has no floating value and raises ValueError.
    """
    value = 0
    for d in t.digits:
        value = value * BASE + d
    if mode == "floating":
        if value == 0:
            raise ValueError("an all-zero numeral has no floating value")
        return FloatingSex(value)
    if mode != "absolute":
        raise ValueError(f"unknown mode {mode!r}")
    si = len(t.digits) if t.semicolon_index is None else t.semicolon_index
    return SexNumber(value, si - len(t.digits))


def _digits_of(mantissa: int) -> list[int]:
    """Base-60 digits of a positive integer, most significant first."""
    out: list[int] = []
    while mantissa:
        mantissa, d = divmod(mantissa, BASE)
        out.append(d)
    out.reverse()
    return out


def format(value: SexNumber | FloatingSex, style: str | None = None) -> str:
    """Render a value; ``parse``/``to_number`` of the result round-trips.

    anchored (SexNumber only): one semicolon marks the units place, pure
    fractions get an explicit "0;" head, and interior zero digits are
    written out ("0;0,45").  floating: the bare canonical digit string,
    no semicolon, no leading zeros.  When style is omitted it follows
    the value's own kind.
    """
    if style is None:
        style = "anchored" if isinstance(value, SexNumber) else "floating"
    if style == "floating":
        if isinstance(value, SexNumber):
            value = value.to_floating()
        return ",".join(str(d) for d in _digits_of(value.mantissa))
    if style != "anchored":
        raise ValueError(f"unknown style {style!r}")
    if not isinstance(value, SexNumber):
        raise TypeError("anchored style needs a place-anchored value")
    if value.mantissa == 0:
        return "0"
    digits = _digits_of(value.mantissa)
    if value.exponent >= 0:
        return ",".join(str(d) for d in digits + [0] * value.exponent)
    point = len(digits) + value.exponent
    if point <= 0:
        return "0;" + ",".join(str(d) for d in [0] * -point + digits)
    whole = ",".join(str(d) for d in digits[:point])
    frac = ",".join(str(d) for d in digits[point:])
    return f"{whole};{frac}"
