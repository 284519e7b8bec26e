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

Parsing splits the text once, at the first semicolon and at the
commas, and looks the tokens up together in one table of the 60 digit
spellings, which checks and converts them at once.  If a token misses,
such as one with a blank or a second semicolon, the same tokens are
looked up again without their blanks, after a blank whole part before
the semicolon (" ;45") is dropped as a headless one.  Only a token that
still misses is read further, by ``_fault``, the only code that finds
the column of a fault: errors, their messages and their positions come
from one place.

A numeral longer than ``_WIDE`` characters, such as a cell of a long
doubling table (2,555 characters by row 2,000), is first read whole,
without splitting, by ``_run``: byte arithmetic on one integer
(Lamport, "Multiple byte processing with full-word instructions", CACM
1975; Knuth, TAOCP 4A §7.1.3).  One ``bytes.translate`` gives each
character one byte, a figure its value, a comma 0x80, a semicolon 0x90
and anything else 0xC0.  Read as one integer, the bytes give a mask
with a bit in every figure's byte, and that mask shifted by one byte
marks each figure followed by another: the tens figure of a two-figure
token.  An empty token, a stray character beside a comma or three
figures in a row reject the text.  Ten times each tens figure is added
into the figure after it, its own byte is marked, and one deletion
drops the marked bytes of tens 1..5 and the commas; the first
semicolon's byte gives the semicolon index and is dropped too.  A tens
figure 0 or 6..9, a second semicolon or any other stray character
leaves a byte above 0x7F, which rejects the text as well.  A
rejected text, and a headless fraction (";45"), takes the lookup, so
results and errors do not depend on the path, and a short numeral pays
one length comparison.  ``_WIDE`` is where the two cost the same.
Timed through ``parse`` on random numerals (best of 15, twice, Python
3.11, 2 shared vCPUs), they were within 0.05 us of each other at 101
characters (3.0-3.1 us), and the run was faster from 113 characters
on, by more with every token: 24 against 54-56 us at 2,407 characters.

Integers convert each way once, by divide and conquer over the cached
powers 60**2**j (Brent & Zimmermann, Modern Computer Arithmetic, 2010,
§1.7): ``_digits_of``, under ``format``, splits a mantissa into halves,
quarters, ... and writes blocks of 32 digits one per ``divmod`` by 60,
as the short case of ``_value_of`` folds them in one per step;
``_value_of``, under ``to_number``, combines all digits pairwise, level
by level, in one packed integer.  Either way the Python-level work per
digit no longer grows with the length, only a few big-integer steps
per level.

Digits that are already base 60 need no conversion at all.  The
private ``_Digits`` holds them packed one per byte into one int, read
from a parsed numeral by ``_Digits.read``, the one reading rule, whose
value is ``to_number``.  They step with a few whole-int operations:
``double`` shifts left one bit, finds the bytes that reached 60 by
adding 0x44 to each and reading bit 7, and there subtracts 60 and
carries 1 up; ``halve`` moves ``d >> 1`` one byte up and leaves
``30 * (d & 1)`` in place.  ``format`` spells them in three
whole-buffer calls: ``bytes.translate`` turns each digit d into the
packed-decimal byte ``(d // 10) << 4 | d % 10``, or ``0xA0 | d`` below
10, ``binascii.hexlify`` writes every byte as two characters with a
comma between, and deleting every "a" leaves a digit below 10 with one.
Place value is laid out after the digits are spelled, by ``_anchored``.
"""

from __future__ import annotations

from binascii import hexlify
from itertools import chain, repeat
from operator import itemgetter
from typing import Literal, NamedTuple, overload

from .core import BASE, FloatingSex, SexNumber, _Value

_DIGIT_VALUE = {str(d): d for d in range(BASE)}
_LEAF = 5  # _digits_of writes blocks of 2**_LEAF digits with a short loop
_LEAF_DIGITS = range(1 << _LEAF)  # one digit per step
_POWERS = [BASE ** (1 << j) for j in range(_LEAF + 2)]  # 60**2**j; the rest squared on demand
_MASKS: dict[int, list[int]] = {}  # levels -> to_number's field mask at each level
_SHORT = 128  # to_number folds this many digits or fewer one by one
# An out-of-range or zero-padded digit token of more figures is named by its
# length, not its figures; int() of this many is within any int/str limit that
# can be set (640 at least).
_MAX_FIGURES = 20
# Digit d as the packed-decimal byte 0xTU (T = d // 10, U = d % 10), so that
# hexlify writes it as two decimal characters; a digit below 10 as 0xAU, whose
# "a" is deleted after hexlify, as no tens digit is above 5; a byte of 60 or
# more as 0xFF, which writes "ff" and so never passes for a digit.
_BCD = bytes([(d // 10 or 10) << 4 | d % 10 for d in range(BASE)]) + b"\xff" * (256 - BASE)
# _run's bytes: a figure as its value, a comma 0x80, a semicolon 0x90, anything else 0xC0.
_FIGURE = bytes(
    b - ord("0") if chr(b) in "0123456789" else {",": 0x80, ";": 0x90}.get(chr(b), 0xC0)
    for b in range(256)
)
_MARKS = b"\x80\xa1\xa2\xa3\xa4\xa5"  # a comma, and _run's mark on each tens figure 1..5
_WIDE = 100  # parse reads a numeral longer than this with _run


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
        # Exact types, as SexNumber checks them: a bool would read as 1, and
        # a float would fail only later, in to_number.
        kinds = set(map(type, digits))
        if kinds != {int} or type(semicolon_index) not in (int, type(None)):
            raise TypeError(
                "digits must be int and semicolon_index int or None, got"
                f" {', '.join(sorted(k.__name__ for k in kinds))} and {type(semicolon_index).__name__}"
            )
        if min(digits) < 0 or max(digits) >= BASE:
            bad = next(d for d in digits if not 0 <= d < BASE)
            raise ValueError(f"digit {bad} is out of range 0..59")
        if semicolon_index is not None and not 0 <= semicolon_index <= len(digits):
            raise ValueError(f"semicolon index {semicolon_index} is outside 0..{len(digits)}")
        # A zero may lead only where it carries meaning: as the whole
        # part before a semicolon ("0;6"), as the first fractional digit
        # of a headless fraction (";0,45"), or as the lone digit 0.
        if digits[0] == 0 and len(digits) > 1 and semicolon_index not in (0, 1):
            raise ParseError("leading zero digit is not positional", len(raw) - len(raw.lstrip(" \t")))
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


class _Digits(NamedTuple):
    """Base-60 digits packed one per byte into one int, most significant first.

    The first and the last digit are not zero.  With ``exponent`` None
    the digits are a floating digit string; with an int they are the
    value m * 60**exponent, m the integer they spell, as a SexNumber's
    (mantissa, exponent).  Zero is ``_Digits(0, 0)``, with no ``digits``.
    Both readings are canonical, so two ``_Digits`` are equal exactly
    when their numbers are.
    """

    packed: int
    exponent: int | None = None

    @classmethod
    def of(cls, value: SexNumber | FloatingSex) -> _Digits:
        """A value's digits, floating for a FloatingSex, anchored for a SexNumber; 0 has none."""
        packed = int.from_bytes(_digits_of(value.mantissa), "big")
        return cls(packed, value.exponent if isinstance(value, SexNumber) else None)

    @classmethod
    def read(cls, numeral: Transliteration, reading: str) -> _Digits:
        """A parsed numeral's digits, read "floating" (no place value, and never all zero)
        or "absolute" (the semicolon fixes the units place; with none, an integer)."""
        digits = numeral.digits
        block = bytearray(digits).rstrip(b"\0")  # bytearray: twice as fast as bytes from a tuple
        if not block:
            if reading == "absolute":
                return cls(0, 0)
            if reading == "floating":
                raise ValueError("an all-zero numeral has no floating value")
        packed = int.from_bytes(block, "big")
        if reading == "floating":
            return cls(packed)
        if reading != "absolute":  # an all-zero numeral too
            raise ValueError(f"unknown mode {reading!r}")
        point = len(digits) if numeral.semicolon_index is None else numeral.semicolon_index
        return cls(packed, point - len(block))

    def double(self) -> _Digits:
        """Twice the value: each digit d becomes 2d, less 60 and a carry of 1 up where 2d >= 60."""
        packed, exponent = self
        if not packed:
            return self
        ones = _ones((packed.bit_length() + 7) >> 3)
        doubled = packed << 1  # every byte 2d <= 118, so 2d + 0x44 sets bit 7 just when 2d >= 60
        carries = ((doubled + 0x44 * ones) & (ones << 7)) >> 7
        doubled += (carries << 8) - 60 * carries
        if doubled & 0xFF:
            return _Digits(doubled, exponent)
        # A last digit of 30 leaves 0 in its place; the carried 1 above it is not 0.
        return _Digits(doubled >> 8, None if exponent is None else exponent + 1)

    def halve(self) -> _Digits:
        """Half the value: each digit d leaves d >> 1 one place up and 30 * (d & 1) in place."""
        packed, exponent = self  # a zero halves to itself below, with no case of its own
        odd = packed & _ones((packed.bit_length() + 7) >> 3)
        halved = ((packed - odd) << 7) + 30 * odd  # (packed - odd) >> 1, one byte up
        if halved & 0xFF:
            return _Digits(halved, None if exponent is None else exponent - 1)
        # An even last digit leaves 0 in its place; the half of it above is not 0.
        return _Digits(halved >> 8, exponent)

    @property
    def digits(self) -> bytes:
        """The digits one per byte, most significant first; zero has none."""
        packed = self.packed
        return packed.to_bytes((packed.bit_length() + 7) >> 3, "big")


_set_digits = Transliteration.digits.__set__
_set_semicolon_index = Transliteration.semicolon_index.__set__
_set_raw = Transliteration.raw.__set__


def parse(text: str) -> Transliteration:
    """Tokenize one numeral, reporting the exact spot of any fault."""
    if len(text) > _WIDE and (run := _run(text)) is not None:
        digits, semicolon_index = tuple(run[0]), run[1]
    else:
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
            # The same tokens again, without their blanks; " ;45" is headless too.
            start = 0
            if semicolon and not whole.strip(" \t"):
                start, tokens, semicolon_index = len(whole) + 1, tokens[semicolon_index:], 0
            digits = tuple(map(_DIGIT_VALUE.get, map(str.strip, tokens, repeat(" \t"))))
            if None in digits:
                raise _fault(text, tokens, digits.index(None), start) from None
    # Every digit is one of the 60 spellings and the semicolon sits
    # between tokens, so only a leading zero needs the checks.
    if digits[0] or semicolon_index == 1:
        return Transliteration._canonical(digits, semicolon_index, text)
    return Transliteration(digits, semicolon_index, text)


def _run(text: str) -> tuple[bytes, int | None] | None:
    """A numeral's digits one per byte and its semicolon index; None sends it to the lookup.

    Each character becomes one byte, a figure its value, a comma 0x80,
    a semicolon 0x90 and anything else 0xC0, and the bytes are read as
    one integer, so each step below covers every token at once.  None
    comes back for every fault, and for a headless fraction (";45"),
    which the lookup reads.
    """
    if not text.isascii():
        return None
    run = text.encode().translate(_FIGURE)
    if (run[0] | run[-1]) & 0x80:
        return None  # an empty first or last token, a headless fraction or a stray character
    width = len(run)
    packed = int.from_bytes(run, "big")
    ones = _ones(width)  # as wide as the text: a leading figure 0 is a zero byte
    gaps = packed >> 7 & ones  # the low bit of every byte that is not a figure
    figures = ones ^ gaps
    tens = figures & figures << 8  # a figure with a figure after it
    # Two gaps in a row are an empty token or a stray character; three
    # figures in a row are a fault whose middle byte below could pass for a mark.
    if gaps & gaps >> 8 or tens & tens << 8:
        return None
    # Ten times each tens figure t joins the figure after it, and t's byte
    # becomes 0xA0 | t.  Those of t 1..5 are deleted with the commas; any
    # other, a second semicolon or a stray 0xC0 is left above 0x7F.
    packed = packed + 10 * ((packed & tens * 0xF) >> 8) | tens * 0xA0
    digits = packed.to_bytes(width, "big").translate(None, _MARKS)
    point = digits.find(b"\x90")
    if point < 0:
        point = None
    else:
        digits = digits.replace(b"\x90", b"", 1)
    return (digits, point) if digits.isascii() else None


_ONES = [1]  # the longest 0x0101...01 built so far, which _ones shifts down


def _ones(width: int) -> int:
    """0x0101...01 of width bytes, a 1 in the low bit of each.

    The kept mask is cut to length by one shift; a longer one is built
    with room for twice the bytes asked, so a growing chain builds few.
    """
    ones = _ONES[0]
    spare = ((ones.bit_length() + 7) >> 3) - width
    if spare < 0:
        ones = _ONES[0] = int.from_bytes(b"\x01" * (width << 1), "big")
        spare = width
    return ones >> (spare << 3)


def _fault(text: str, tokens: list[str], k: int, start: int) -> ParseError:
    """The error of ``tokens[k]``, the first token that misses without its blanks.

    ``tokens`` are the text's from column ``start`` on, split at its
    commas and its first semicolon; the column of the fault is counted
    from their lengths.
    """
    if not text.strip(" \t"):
        return ParseError("empty numeral", len(text))
    token = tokens[k]
    end = start + sum(map(len, tokens[:k])) + k + len(token)  # the column after the token
    body = token.lstrip(" \t")
    rest = body.lstrip("0123456789")
    digit = body[: len(body) - len(rest)]
    column = end - len(body)
    if not digit:
        return ParseError("expected a digit", column)
    if digit not in _DIGIT_VALUE:
        if digit[0] == "0":
            name = f"of {len(digit)} figures" if len(digit) > _MAX_FIGURES else repr(digit)
            return ParseError(f"zero-padded digit {name}", column)
        if len(digit) > _MAX_FIGURES:
            return ParseError(f"digit of {len(digit)} figures is out of range 0..59", column)
        return DigitRangeError(int(digit), column)
    # A good digit with only blanks after it would not have missed: something else follows.
    column = end - len(rest.lstrip(" \t"))
    if text[column] == ";":
        return ParseError("more than one semicolon", column)
    return ParseError(f"unexpected character {text[column]!r}", column)


@overload
def to_number(t: Transliteration, mode: Literal["absolute"]) -> SexNumber: ...
@overload
def to_number(t: Transliteration, mode: Literal["floating"]) -> FloatingSex: ...


def to_number(t, mode):
    """Evaluate a tokenized numeral: the value of ``_Digits.read(t, mode)``.

    A floating value stands for its digit string's whole equivalence
    class; an absolute one has the place value the semicolon gives.
    """
    packed = _Digits.read(t, mode)
    value = _value_of(packed.digits)
    return FloatingSex(value) if packed.exponent is None else SexNumber(value, packed.exponent)


def _power(j: int) -> int:
    """60**2**j, from the cache."""
    while len(_POWERS) <= j:
        _POWERS.append(_POWERS[-1] * _POWERS[-1])
    return _POWERS[j]


def _value_of(digits: tuple[int, ...] | bytes) -> int:
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
    packed = int.from_bytes(bytearray(digits), "big")
    for j, low in enumerate(masks):
        packed = (packed >> (8 << j) & low) * _power(j) + (packed & low)
    return packed


def _digits_of(mantissa: int) -> bytes:
    """The base-60 digits of a non-negative integer, one per byte, most significant first.

    Blocks of 60**2**j are split off the top while they fit and halved
    level by level into blocks of 2**_LEAF digits.  Those and the head
    left above them are written one digit per step, a remainder by 60,
    and joined once; the head is not zero after a split, so no leading
    zero is written, and zero has no digits.
    """
    head = mantissa
    top = _LEAF
    while head >= _POWERS[_LEAF + 1] and _power(top + 1) <= head:  # below 60**64, no split
        top += 1
    out = bytearray()  # digits, least significant first
    append = out.append
    for j in range(top, _LEAF, -1):
        if head >= _POWERS[j]:
            head, block = divmod(head, _POWERS[j])
            blocks = [block]
            for i in range(j - 1, _LEAF - 1, -1):
                blocks = list(chain.from_iterable(map(divmod, blocks, repeat(_POWERS[i]))))
            for block in reversed(blocks):
                for _ in _LEAF_DIGITS:
                    block, low = divmod(block, BASE)
                    append(low)
    while head:
        head, low = divmod(head, BASE)
        append(low)
    out.reverse()
    return bytes(out)


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


def format(value: SexNumber | FloatingSex) -> str:
    """Render a value; ``parse``/``to_number`` of the result round-trips.

    A SexNumber is written anchored: one semicolon marks the units
    place, pure fractions get an explicit "0;" head, and interior zero
    digits are written out ("0;0,45").  A FloatingSex is written as the
    bare canonical digit string, no semicolon, no leading zeros; the
    floating text of a SexNumber x is ``format(x.to_floating())``.
    """
    if not isinstance(value, _Digits):  # a table row's _Digits are spelled as they are
        value = _Digits.of(value)
    block = value.digits
    if not block:
        return "0"
    text = _spell(block)
    return text if value.exponent is None else _anchored(text, len(block), value.exponent)
