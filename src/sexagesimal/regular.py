"""Regular (60-smooth) numbers, finite reciprocals, and exact division.

A number has a finite base-60 reciprocal exactly when its only prime
factors are 2, 3 and 5.  Scribes called such numbers' reciprocals into
being with a table lookup; for anything else the reciprocal simply does
not exist as a finite digit string, and division has to go through an
exact linear solve instead.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, NamedTuple

from .core import BASE, FloatingSex, SexNumber, _remove_factor, _require_int


class IrregularError(ArithmeticError):
    """No finite reciprocal exists.

    ``residue`` is the witness: the mantissa with every factor of 2, 3
    and 5 divided out.  It is greater than 1 and coprime to 60.
    """

    def __init__(self, mantissa: int, residue: int):
        super().__init__(mantissa, residue)  # __str__ writes the message: any size can be raised
        self.mantissa = mantissa
        self.residue = residue

    def __str__(self) -> str:
        return (
            f"{self.mantissa} is irregular: no finite reciprocal exists"
            f" (residue {self.residue} is coprime to 60)"
        )


class NoFiniteSolutionError(ArithmeticError):
    """x * a = b has no finite sexagesimal x.

    Raised when the reduced denominator of b/a is irregular; ``residue``
    is that denominator's part coprime to 60.
    """

    def __init__(self, denominator: int, residue: int):
        super().__init__(denominator, residue)  # as IrregularError's
        self.denominator = denominator
        self.residue = residue

    def __str__(self) -> str:
        return (
            f"no finite solution: reduced denominator {self.denominator}"
            f" is irregular (residue {self.residue})"
        )


class Factorization235(NamedTuple):
    """n split as 2**two * 3**three * 5**five * residue.

    The residue is coprime to 30; n is regular exactly when it is 1.
    """

    two: int
    three: int
    five: int
    residue: int

    @property
    def is_regular(self) -> bool:
        return self.residue == 1


def factor235(n: int) -> Factorization235:
    """Exact exponents of 2, 3 and 5 in n, plus the coprime residue."""
    _require_int("n", n)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    n, two = _remove_factor(n, 2)
    n, three = _remove_factor(n, 3)
    n, five = _remove_factor(n, 5)
    return Factorization235(two, three, five, residue=n)


def is_regular(x: FloatingSex | int) -> bool:
    """True when x has a finite base-60 reciprocal."""
    mantissa = x.mantissa if isinstance(x, FloatingSex) else x
    return factor235(mantissa).is_regular


def _reciprocal_of(q: int, error: type[ArithmeticError]) -> tuple[int, int]:
    """(k, 60**k // q) for the least k with q dividing 60**k; else raise error(q, residue)."""
    f = factor235(q)
    if not f.is_regular:
        raise error(q, f.residue)
    k = max((f.two + 1) // 2, f.three, f.five)  # 60**k carries 2**(2k), 3**k and 5**k
    return k, BASE**k // q


def reciprocal(x: FloatingSex | int) -> FloatingSex:
    """The finite reciprocal of a regular number, as a floating value.

    Returns r with ``x.mantissa * r.mantissa == 60**k`` for the smallest
    possible k, which makes r canonical (not divisible by 60) and the
    operation an involution: ``reciprocal(reciprocal(x)) == x``.

    Raises IrregularError when no finite reciprocal exists.
    """
    if not isinstance(x, FloatingSex):
        x = FloatingSex(x)  # an int alone: a float or a bool raises TypeError
    return FloatingSex(_reciprocal_of(x.mantissa, IrregularError)[1])


def invert(a: SexNumber) -> SexNumber:
    """Exact 1/a with its true place value, for regular nonzero a."""
    if not a:
        raise ZeroDivisionError("zero has no reciprocal")
    k, r = _reciprocal_of(a.mantissa, IrregularError)
    return SexNumber(r, -k - a.exponent)


def solve_linear(a: SexNumber, b: SexNumber) -> SexNumber:
    """Solve x * a = b exactly.

    The fraction b/a is reduced first, so the divisor itself need not be
    regular: it is enough that the reduced denominator is.  Whenever a
    value is returned, ``multiply(x, a) == b`` holds exactly; otherwise
    NoFiniteSolutionError reports why x has no finite digit string.
    """
    if not a:
        raise ZeroDivisionError("division by zero")
    g = gcd(b.mantissa, a.mantissa)
    k, r = _reciprocal_of(a.mantissa // g, NoFiniteSolutionError)
    return SexNumber(b.mantissa // g * r, b.exponent - a.exponent - k)


def is_reciprocal_pair(x: FloatingSex | SexNumber, y: FloatingSex | SexNumber) -> bool:
    """True when the floating product of the two values is 1, read from the mantissas
    alone: either value may be floating or anchored, and an anchored zero pairs with none."""
    return _is_power_of_60(x.mantissa * y.mantissa)


def _is_power_of_60(product: int) -> bool:
    """True when product is 60**k == 2**(2k) * 15**k; a factor 60**j does not change the answer."""
    if not product:
        return False
    odd, two = _remove_factor(product, 2)
    return not two & 1 and odd == 15 ** (two >> 1)


def regular_numbers(limit: int) -> Iterator[int]:
    """The regular integers in [2, limit], ascending, one at a time.

    A heap holds one number for each odd regular p, the next of its run
    p * 2**a <= limit: the least is yielded and replaced by its double
    while that is within the limit, else popped.  1 leads and is skipped.
    The type of limit is checked at the call.
    """
    _require_int("limit", limit)
    return _ascending_regulars(limit)


def _ascending_regulars(limit: int) -> Iterator[int]:
    """The numbers of regular_numbers(limit), from its heap."""
    from heapq import heapify, heappop, heapreplace  # only table standard needs them

    heap = []  # every odd regular number 3**b * 5**c up to limit, 1 included
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            heap.append(p35)
            p35 *= 3
        p5 *= 5
    heapify(heap)
    while heap:
        n = heap[0]
        if n << 1 <= limit:
            heapreplace(heap, n << 1)
        else:
            heappop(heap)
        if n > 1:
            yield n
