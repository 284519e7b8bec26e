"""Exact sexagesimal (base-60) values and their arithmetic.

Every value is the non-negative rational ``mantissa * 60**exponent``.
Keeping the mantissa free of factors of 60 gives exactly one
representation per value, so equality is field-wise, hashing is free,
and all arithmetic reduces to ordinary integer arithmetic.  Nothing here
rounds: results are exact or they raise.  Values are immutable
``__slots__`` objects with one constructor each, which checks the types
and normalizes; a mantissa that is already canonical costs it one
remainder by 60, so every value, however it was computed, passes the
same checks.
"""

from __future__ import annotations

from functools import total_ordering

BASE = 60
# An int of at most this many bits has at most 603 decimal digits, fewer than
# the 640 below which no int/str limit can be set; repr writes longer ones in hex.
_REPR_BITS = 2000


def _remove_factor(n: int, p: int) -> tuple[int, int]:
    """(n // p**k, k) for the largest k with p**k dividing n; n must be positive.

    Every valuation in the package goes through this one kernel.  It
    divides by p, p**2, p**4, ... while they still divide what is left,
    then by the same powers again from the largest down, which removes
    the remainder of k bit by bit: O(log k) big divisions instead of k.
    A power of 2 is read off the lowest set bit.
    """
    if n % p:
        return n, 0
    if p == 2:
        k = (n & -n).bit_length() - 1
        return n >> k, k
    n //= p
    k = 1
    powers = [p]  # powers[j] == p**2**j; p**(2**len(powers) - 1) divides the input
    while 2 * powers[-1].bit_length() - 1 <= n.bit_length():
        square = powers[-1] * powers[-1]
        q, r = divmod(n, square)
        if r:
            break
        n = q
        k += 1 << len(powers)
        powers.append(square)
    # What is left holds fewer than 2**len(powers) factors of p.
    for j in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[j])
        if not r:
            n = q
            k += 1 << j
    return n, k


def _require_int(name: str, value: object) -> None:
    """Raise TypeError unless value is exactly an int, as SexNumber checks: no bool, no float."""
    if type(value) is not int:
        raise TypeError(f"{name} must be int, got {type(value).__name__}")


def _literal(field: object) -> str:
    """repr of a field, an int longer than _REPR_BITS bits as a 0x literal, so
    that no setting of the int/str limit changes the text or makes it raise."""
    if type(field) is int and field.bit_length() > _REPR_BITS:
        return hex(field)
    return repr(field)


class _Value:
    """Immutable fields in ``__slots__``, compared, hashed and printed field by field."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_literal(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copies and unpickling go through the checking __init__
        return type(self), self._fields()

    def _frozen(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __setattr__ = __delattr__ = _frozen


@total_ordering
class SexNumber(_Value):
    """A non-negative base-60 value with a definite place value.

    Instances normalize themselves on construction: the stored mantissa
    is never divisible by 60, and zero is always ``(0, 0)``.  Negative
    mantissas are rejected; the domain has no negative numbers.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0) -> None:
        # Exact type, not isinstance: bool is an int subclass, and a float
        # equal to an int would carry float arithmetic into every result.
        if type(mantissa) is not int or type(exponent) is not int:
            raise TypeError(
                "mantissa and exponent must be int, got"
                f" {type(mantissa).__name__} and {type(exponent).__name__}"
            )
        # A canonical mantissa is positive and leaves a remainder by 60.
        if mantissa % BASE == 0 or mantissa < 0:
            if mantissa < 0:
                raise ValueError(f"mantissa must be non-negative, got {mantissa}")
            if mantissa == 0:
                exponent = 0
            else:
                mantissa, k = _remove_factor(mantissa, BASE)
                exponent += k
        _set_mantissa(self, mantissa)
        _set_exponent(self, exponent)

    def __bool__(self) -> bool:
        return self.mantissa != 0

    def _at_exponent(self, exponent: int) -> int:
        # Mantissa rewritten for a lower-or-equal exponent; exact by construction.
        return self.mantissa * BASE ** (self.exponent - exponent)

    def __add__(self, other: "SexNumber") -> "SexNumber":
        if not isinstance(other, SexNumber):
            return NotImplemented
        e = min(self.exponent, other.exponent)
        return SexNumber(self._at_exponent(e) + other._at_exponent(e), e)

    def __mul__(self, other: "SexNumber") -> "SexNumber":
        if not isinstance(other, SexNumber):
            return NotImplemented
        return SexNumber(self.mantissa * other.mantissa, self.exponent + other.exponent)

    def __lt__(self, other: "SexNumber") -> bool:
        if not isinstance(other, SexNumber):
            return NotImplemented
        e = min(self.exponent, other.exponent)
        return self._at_exponent(e) < other._at_exponent(e)

    def double(self) -> "SexNumber":
        return SexNumber(self.mantissa * 2, self.exponent)

    def halve(self) -> "SexNumber":
        # Halving is exact: 1/2 is the regular value 30 * 60**-1.
        return SexNumber(self.mantissa * 30, self.exponent - 1)

    def to_floating(self) -> "FloatingSex":
        """Drop the place value.  Zero has no floating form and raises."""
        if self.mantissa == 0:
            raise ValueError("zero has no floating form")
        return FloatingSex(self.mantissa)


class FloatingSex(_Value):
    """A bare digit string: an equivalence class under powers of 60.

    This is the convention of the clay tablets, which wrote reciprocal
    entries with no radix point and no trailing or leading zeros.  The
    canonical member is the mantissa with every factor of 60 removed,
    so equality is plain mantissa equality.  Zero is unrepresentable:
    no floating zero was ever written, and zero divides nothing.
    """

    __slots__ = ("mantissa",)

    def __init__(self, mantissa: int) -> None:
        if type(mantissa) is not int:
            raise TypeError(f"floating mantissa must be int, got {type(mantissa).__name__}")
        if mantissa % BASE == 0 or mantissa < 0:
            if mantissa <= 0:
                raise ValueError(f"floating mantissa must be positive, got {mantissa}")
            mantissa = _remove_factor(mantissa, BASE)[0]
        _set_floating(self, mantissa)

    def double(self) -> "FloatingSex":
        return FloatingSex(self.mantissa * 2)

    def halve(self) -> "FloatingSex":
        # Dividing by 2 multiplies the class representative by 30.
        return FloatingSex(self.mantissa * 30)

    def anchor(self, exponent: int) -> SexNumber:
        """Reattach a place value: the result is mantissa * 60**exponent."""
        return SexNumber(self.mantissa, exponent)


# The slot descriptors' own setters, which the frozen __setattr__ leaves open.
_set_mantissa = SexNumber.mantissa.__set__
_set_exponent = SexNumber.exponent.__set__
_set_floating = FloatingSex.mantissa.__set__


ZERO = SexNumber(0)
ONE = SexNumber(1)


def multiply(multiplicand: SexNumber, multiplier: SexNumber) -> SexNumber:
    """Exact product.

    The multiplicand is deliberately the first parameter, keeping the
    word order of Old Babylonian multiplication.  The value itself is
    commutative; the order is a naming convention only.
    """
    return multiplicand * multiplier
