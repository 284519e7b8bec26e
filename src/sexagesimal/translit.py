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

Parsing has a fast path and a scanner.  The text is split at the
semicolon and the commas, and the tokens are looked up together in one
table of the 60 digit spellings, which checks and converts them at
once.  A token the table lacks, such as one with a blank or a second
semicolon, sends the whole text to the scanner, the only code that
finds the column of a fault, so errors, their messages and their
positions come from one place.  The scanner matches runs of blanks and
digit fields with compiled patterns, not character by character.

Long numbers convert by divide and conquer over the cached powers
60**2**j (Brent & Zimmermann, Modern Computer Arithmetic, 2010, §1.7):
``format`` splits a mantissa into halves, quarters, ... and writes
blocks of 32 digits two per step from a table of the 3,600 spellings
"h,l"; ``to_number`` combines all digits pairwise, level by level, in
one packed integer.  Either way the Python-level work per digit no
longer grows with the length, only a few big-integer steps per level.

Digits that are already base 60 need no conversion at all.  ``Digits``
holds them packed one per byte into one int, as the table writer and
the verifier step them, and ``format`` spells them in three
whole-buffer calls: ``bytes.translate`` turns each digit d into the
packed-decimal byte ``(d // 10) << 4 | d % 10``, or ``0xA0 | d`` below
10, ``binascii.hexlify`` writes every byte as two characters with a
comma between, and deleting every "a" leaves a digit below 10 with one.

Place value is laid out by one rule, after the digits are spelled, for
a ``SexNumber`` and anchored ``Digits`` alike: an integer gets trailing
",0"s, a semicolon follows the whole part's digits, and a pure fraction
gets a "0;" head and the zeros between the point and its first digit.
"""

from __future__ import annotations

import re
from binascii import hexlify
from functools import cache
from itertools import chain, repeat
from operator import itemgetter
from typing import Literal, NamedTuple, overload

from .core import BASE, FloatingSex, SexNumber, _Value

_DIGIT_TEXT = tuple(str(d) for d in range(BASE))
_DIGIT_VALUE = {text: d for d, text in enumerate(_DIGIT_TEXT)}
_LEAF = 5  # format writes blocks of 2**_LEAF digits with a short loop
_LEAF_PAIRS = range(1 << _LEAF - 1)  # two digits per step
_PAIR = BASE * BASE
_POWERS = [BASE ** (1 << j) for j in range(_LEAF + 2)]  # 60**2**j; the rest squared on demand
_MASKS: dict[int, list[int]] = {}  # levels -> to_number's field mask at each level
_SHORT = 128  # to_number folds this many digits or fewer one by one
# Digit d as the packed-decimal byte 0xTU (T = d // 10, U = d % 10), so that
# hexlify writes it as two decimal characters; a digit below 10 as 0xAU, whose
# "a" is deleted after hexlify, as no tens digit is above 5; a byte of 60 or
# more as 0xFF, which writes "ff" and so never passes for a digit.
_BCD = bytes([(d // 10 or 10) << 4 | d % 10 for d in range(BASE)]) + b"\xff" * (256 - BASE)


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


class Transliteration(_Value):
    """One tokenized numeral.

    ``semicolon_index`` counts the digits written before the semicolon;
    None means the text had no semicolon.  ``raw`` keeps the original
    spelling.
    """

    __slots__ = ("digits", "semicolon_index", "raw")

    def __init__(self, digits: tuple[int, ...], semicolon_index: int | None, raw: str) -> None:
        if not digits:
            raise ValueError("a numeral needs at least one digit")
        if min(digits) < 0 or max(digits) >= BASE:
            bad = next(d for d in digits if not 0 <= d < BASE)
            raise ValueError(f"digit {bad} is out of range 0..59")
        if semicolon_index is not None and not 0 <= semicolon_index <= len(digits):
            raise ValueError(f"semicolon index {semicolon_index} is outside 0..{len(digits)}")
        # A zero may lead only where it carries meaning: as the whole
        # part before a semicolon ("0;6"), as the first fractional digit
        # of a headless fraction (";0,45"), or as the lone digit 0.
        if digits[0] == 0 and len(digits) > 1 and semicolon_index not in (0, 1):
            raise ParseError("leading zero digit is not positional", _skip_whitespace(raw, 0))
        _set_digits(self, digits)
        _set_semicolon_index(self, semicolon_index)
        _set_raw(self, raw)

    @staticmethod
    def _canonical(digits, semicolon_index, raw) -> "Transliteration":
        """Trusted: what __init__ would accept, as parse's lookup path produces it."""
        self = object.__new__(Transliteration)
        _set_digits(self, digits)
        _set_semicolon_index(self, semicolon_index)
        _set_raw(self, raw)
        return self


class Digits(NamedTuple):
    """Base-60 digits packed one per byte into one int, most significant first.

    The first and the last digit are not zero.  With ``exponent`` None
    the digits are a floating digit string; with an int they are the
    value m * 60**exponent, m the integer they spell, as a SexNumber's
    (mantissa, exponent).  Zero is ``Digits(0, 0)``.
    """

    packed: int
    exponent: int | None = None


_set_digits = Transliteration.digits.__set__
_set_semicolon_index = Transliteration.semicolon_index.__set__
_set_raw = Transliteration.raw.__set__


@cache
def _patterns() -> tuple[re.Pattern[str], re.Pattern[str], re.Pattern[str]]:
    """The scanner's patterns, compiled on first use: a run of blanks, one
    digit field with the comma after it, and well-formed fields each with its comma."""
    return (
        re.compile(r"[ \t]*"),
        re.compile(r"[ \t]*([0-9]*)[ \t]*(,?)"),
        re.compile(r"(?:[ \t]*[1-5]?[0-9][ \t]*,)*"),
    )


def _skip_whitespace(text: str, i: int) -> int:
    return _patterns()[0].match(text, i).end()


def _scan_digits(text: str, i: int, out: list[int]) -> int:
    """Scan ``digit (',' digit)*`` starting at i; return the next index.

    The well-formed fields that a comma follows are matched as one run
    and looked up together.  The fields after them are read one at a
    time, which places any fault.
    """
    _, one_field, fields = _patterns()
    run = fields.match(text, i)
    tokens = run[0].replace(" ", "").replace("\t", "").split(",")
    out.extend(map(_DIGIT_VALUE.__getitem__, tokens[:-1]))  # the last is "", after a comma
    i = run.end()
    while True:
        field = one_field.match(text, i)
        token, start = field[1], field.start(1)
        value = _DIGIT_VALUE.get(token)
        if value is None:
            if not token:
                raise ParseError("expected a digit", start)
            if token[0] == "0":
                raise ParseError(f"zero-padded digit {token!r}", start)
            raise DigitRangeError(int(token), start)
        out.append(value)
        i = field.end()
        if not field[2]:
            return i


def parse(text: str) -> Transliteration:
    """Tokenize one numeral, reporting the exact spot of any fault."""
    whole, semicolon, fraction = text.partition(";")
    if not semicolon:
        tokens, semicolon_index = whole.split(","), None
    else:
        tokens = whole.split(",") if whole else []  # ";45" has no whole part
        semicolon_index = len(tokens)
        tokens += fraction.split(",")
    # A blank, a second semicolon or any other stray character leaves its
    # token outside the 60 spellings, so the lookup misses.
    try:
        if len(tokens) == 1:
            digits = (_DIGIT_VALUE[tokens[0]],)
        else:
            digits = itemgetter(*tokens)(_DIGIT_VALUE)
    except KeyError:
        return _scan(text)  # a malformed token: the scanner finds and reports it
    # Every digit is one of the 60 spellings and the semicolon sits
    # between tokens, so only a leading zero needs the checks.
    if digits[0] or semicolon_index == 1:
        return Transliteration._canonical(digits, semicolon_index, text)
    return Transliteration(digits, semicolon_index, text)


def _scan(text: str) -> Transliteration:
    """Tokenize field by field; the fault positions come from here."""
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
    value = _value_of(t.digits)
    if mode == "floating":
        if value == 0:
            raise ValueError("an all-zero numeral has no floating value")
        return FloatingSex(value)
    if mode != "absolute":
        raise ValueError(f"unknown mode {mode!r}")
    exponent = 0 if t.semicolon_index is None else t.semicolon_index - len(t.digits)
    return SexNumber(value, exponent)


def _power(j: int) -> int:
    """60**2**j, from the cache."""
    while len(_POWERS) <= j:
        _POWERS.append(_POWERS[-1] * _POWERS[-1])
    return _POWERS[j]


def _value_of(digits: tuple[int, ...]) -> int:
    """The integer that base-60 digits spell, most significant first."""
    if len(digits) <= _SHORT:
        value = 0
        for d in digits:
            value = value * BASE + d
        return value
    # One digit per byte, then neighbouring fields merge level by level:
    # at level j each field is 2**j bytes wide and holds 2**j digits, and
    # every pair becomes high * 60**2**j + low at once.  60 < 256 keeps
    # each merged value inside its doubled field.
    levels = (len(digits) - 1).bit_length()
    masks = _MASKS.get(levels)
    if masks is None:  # masks[j] keeps the low 2**j of every 2**(j+1) bytes
        masks = _MASKS[levels] = [
            int.from_bytes((b"\xff" * (1 << j) + bytes(1 << j)) * (1 << levels - j - 1), "little")
            for j in range(levels)
        ]
    packed = int.from_bytes(bytes(digits), "big")
    for j, low in enumerate(masks):
        packed = (packed >> (8 << j) & low) * _power(j) + (packed & low)
    return packed


@cache
def _pair_text() -> tuple[str, ...]:
    """The 3,600 spellings "h,l" of h*60 + l, "0,l" padded; built on first use."""
    return tuple([h + "," + l for h in _DIGIT_TEXT for l in _DIGIT_TEXT])


def _text_of(mantissa: int) -> str:
    """The digits of a positive integer, comma-separated, most significant first.

    Blocks of 60**2**j are split off the top while they fit and halved
    level by level into blocks of 2**_LEAF digits.  Those and the head
    left above them are written two digits per step, a remainder by 60**2
    looked up in the pair table, and joined once; a lone top digit is unpadded.
    """
    pairs = _pair_text()
    head = mantissa
    top = _LEAF
    while head >= _POWERS[_LEAF + 1] and _power(top + 1) <= head:  # below 60**64, no split
        top += 1
    out: list[str] = []  # pair spellings, least significant first
    append = out.append
    for j in range(top, _LEAF, -1):
        if head >= _POWERS[j]:
            head, block = divmod(head, _POWERS[j])
            blocks = [block]
            for i in range(j - 1, _LEAF - 1, -1):
                blocks = list(chain.from_iterable(map(divmod, blocks, repeat(_POWERS[i]))))
            for block in reversed(blocks):
                for _ in _LEAF_PAIRS:
                    block, low = divmod(block, _PAIR)
                    append(pairs[low])
    while head >= _PAIR:
        head, low = divmod(head, _PAIR)
        append(pairs[low])
    if head:
        append(pairs[head] if head >= BASE else _DIGIT_TEXT[head])
    out.reverse()
    return ",".join(out)


def _spell(block: bytes) -> str:
    """Digits given one per byte, comma-separated and unpadded; block is not empty.

    Each digit becomes its packed-decimal byte and ``hexlify`` writes
    them two characters each; a digit below 10 is written "a" and its
    digit, and deleting every "a" leaves it with one character.
    """
    return hexlify(block.translate(_BCD), b",").translate(None, b"a").decode()


def _anchored(text: str, places: int, exponent: int) -> str:
    """``places`` comma-separated digits laid out as the integer they spell times 60**exponent."""
    if exponent >= 0:
        return text + ",0" * exponent
    whole = places + exponent  # digits before the semicolon
    if whole <= 0:
        return "0;" + "0," * -whole + text
    *head, fraction = text.split(",", whole)
    return ",".join(head) + ";" + fraction


def format(value: SexNumber | FloatingSex | Digits) -> str:
    """Render a value; ``parse``/``to_number`` of the result round-trips.

    A SexNumber is written anchored: one semicolon marks the units
    place, pure fractions get an explicit "0;" head, and interior zero
    digits are written out ("0;0,45").  A FloatingSex is written as the
    bare canonical digit string, no semicolon, no leading zeros; the
    floating text of a SexNumber x is ``format(x.to_floating())``.
    ``Digits`` are written as the value they denote, anchored or
    floating, with no base-60 conversion.  Anchored values of both kinds
    are spelled as bare digits first and then laid out by ``_anchored``.
    """
    if isinstance(value, FloatingSex):
        return _text_of(value.mantissa)
    if isinstance(value, Digits):
        packed, exponent = value
        if not packed:
            if exponent is None:
                raise ValueError("an all-zero digit string has no floating value")
            return "0"
        block = packed.to_bytes((packed.bit_length() + 7) >> 3, "big")
        text = _spell(block)
        return text if exponent is None else _anchored(text, len(block), exponent)
    if value.mantissa == 0:
        return "0"
    text = _text_of(value.mantissa)
    return _anchored(text, text.count(",") + 1, value.exponent)
