"""Regularity detection, reciprocals, and the exact linear solver."""

import random
import tracemalloc

import pytest
from conftest import division_terminates, rational, valuation
from hypothesis import given
from hypothesis import strategies as st

from sexagesimal.core import ONE, ZERO, FloatingSex, SexNumber, multiply
from sexagesimal.regular import (
    Factorization235,
    IrregularError,
    NoFiniteSolutionError,
    factor235,
    invert,
    is_reciprocal_pair,
    is_regular,
    reciprocal,
    regular_numbers,
    solve_linear,
)


smooth_exponents = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)
)


class TestFactor235:
    def test_irregular_composite(self):
        # 40,51 = 2451 = 3 * 19 * 43
        assert factor235(2451) == Factorization235(0, 1, 0, 817)
        assert 19 * 43 == 817

    def test_unit(self):
        assert factor235(1) == Factorization235(0, 0, 0, 1)

    def test_smooth_number(self):
        # trial-division oracle: 160000 = 2**8 * 5**4
        assert 2**8 * 5**4 == 160000
        assert factor235(160000) == Factorization235(8, 0, 4, 1)

    @pytest.mark.parametrize("bad", [0, -6])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            factor235(bad)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_reconstruction(self, n):
        f = factor235(n)
        assert 2**f.two * 3**f.three * 5**f.five * f.residue == n
        for p in (2, 3, 5):
            assert f.residue % p != 0


class TestIsRegular:
    def test_unobtainable_divisor(self):
        assert not is_regular(FloatingSex(2451))

    def test_unit(self):
        assert is_regular(1)

    def test_large_smooth(self):
        assert is_regular(FloatingSex(160000))
        assert division_terminates(160000)


class TestReciprocal:
    def test_table_first_row(self):
        assert reciprocal(10) == FloatingSex(6)

    def test_table_seventh_row(self):
        # 10,40 = 640; its reciprocal carries digits 5,37,30
        assert reciprocal(FloatingSex(640)) == FloatingSex(20250)
        assert 20250 == 5 * 3600 + 37 * 60 + 30

    def test_four_place_value(self):
        # integer-division oracle: 60**4 // 160000 = 81
        assert 60**4 // 160000 == 81
        assert reciprocal(FloatingSex(160000)) == FloatingSex(81)

    def test_irregular_raises_with_residue(self):
        with pytest.raises(IrregularError) as info:
            reciprocal(FloatingSex(2451))
        assert info.value.residue == 817

    @given(smooth_exponents)
    def test_pair_product_is_power_of_60(self, abc):
        a, b, c = abc
        x = FloatingSex(2**a * 3**b * 5**c)
        r = reciprocal(x)
        assert valuation(x.mantissa * r.mantissa, 60)[0] == 1

    @given(smooth_exponents)
    def test_involution(self, abc):
        a, b, c = abc
        x = FloatingSex(2**a * 3**b * 5**c)
        assert reciprocal(reciprocal(x)) == x

    @given(smooth_exponents)
    def test_minimality(self, abc):
        a, b, c = abc
        x = FloatingSex(2**a * 3**b * 5**c)
        assert reciprocal(x).mantissa % 60 != 0


class TestInvert:
    def test_anchored_reciprocal(self):
        assert invert(SexNumber(10)) == SexNumber(6, -1)

    @given(smooth_exponents, st.integers(-12, 12))
    def test_exact_inverse(self, abc, exponent):
        a, b, c = abc
        x = SexNumber(2**a * 3**b * 5**c, exponent)
        y = invert(x)
        assert rational(y) == 1 / rational(x)
        assert invert(y) == x

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            invert(ZERO)

    def test_irregular_raises(self):
        with pytest.raises(IrregularError):
            invert(SexNumber(7))


class TestSolveLinear:
    def test_division_by_irregular_number(self):
        # x * 40,51 = 10,12;45 has the exact solution 0;15
        a = SexNumber(2451)
        b = SexNumber(36765, -1)
        x = solve_linear(a, b)
        assert x == SexNumber(15, -1)
        assert multiply(x, a) == b

    @given(st.builds(SexNumber, st.integers(0, 60**6), st.integers(-8, 8)))
    def test_unit_divisor(self, y):
        assert solve_linear(ONE, y) == y

    def test_irregular_divisor_no_unit_image(self):
        with pytest.raises(NoFiniteSolutionError) as info:
            solve_linear(SexNumber(2451), ONE)
        assert info.value.residue == 817

    def test_irregular_divisor_with_finite_quotient(self):
        # 7 is irregular, but 14/7 reduces away the denominator entirely
        assert solve_linear(SexNumber(7), SexNumber(14)) == SexNumber(2)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            solve_linear(ZERO, ONE)

    def test_zero_product(self):
        assert solve_linear(SexNumber(7), ZERO) == ZERO

    @given(
        smooth_exponents,
        st.integers(-6, 6),
        st.builds(SexNumber, st.integers(0, 60**6), st.integers(-8, 8)),
    )
    def test_soundness_for_regular_divisors(self, abc, exponent, b):
        a_val, b_val, c_val = abc
        a = SexNumber(2**a_val * 3**b_val * 5**c_val, exponent)
        x = solve_linear(a, b)
        assert multiply(x, a) == b

    @given(
        st.builds(SexNumber, st.integers(1, 10**9), st.integers(-6, 6)),
        st.builds(SexNumber, st.integers(0, 10**9), st.integers(-6, 6)),
    )
    def test_soundness_whenever_a_solution_returns(self, a, b):
        try:
            x = solve_linear(a, b)
        except NoFiniteSolutionError as exc:
            assert exc.residue > 1
            return
        assert multiply(x, a) == b


class TestLongIrregularNumbers:
    """Errors about numbers longer than the interpreter's 4,300-digit int/str limit."""

    BIG = 7**6000  # 5,071 decimal digits

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda n: reciprocal(FloatingSex(n)), IrregularError),
            (lambda n: invert(SexNumber(n)), IrregularError),
            (lambda n: solve_linear(SexNumber(n), ONE), NoFiniteSolutionError),
        ],
        ids=["reciprocal", "invert", "solve_linear"],
    )
    def test_raised_for_any_size(self, call, error):
        with pytest.raises(error) as info:
            call(self.BIG)
        assert info.value.residue == self.BIG

    def test_messages_are_unchanged(self):
        assert str(IrregularError(2451, 817)) == (
            "2451 is irregular: no finite reciprocal exists (residue 817 is coprime to 60)"
        )
        assert str(NoFiniteSolutionError(2451, 817)) == (
            "no finite solution: reduced denominator 2451 is irregular (residue 817)"
        )


class TestRegularNumbers:
    def test_enumerate_and_filter_small(self):
        assert list(regular_numbers(8)) == [2, 3, 4, 5, 6, 8]

    def test_includes_81(self):
        assert 81 in regular_numbers(81)
        assert 77 not in regular_numbers(100)

    def test_numbers_come_one_at_a_time(self):
        # The 48,206 numbers up to 10**30 as one sorted list peaked at 2.6 MiB.
        count, previous, ascending = 0, 1, True
        tracemalloc.start()
        try:
            for n in regular_numbers(10**30):
                count, previous, ascending = count + 1, n, ascending and previous < n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (count, ascending) == (48206, True)
        assert peak < 1 << 19  # one heap of the 1,402 odd regulars: 253 KiB

    def test_every_limit_below_3000(self):
        numbers = [n for n in range(2, 3000) if division_terminates(n)]
        for limit in range(-1, 3000):
            assert list(regular_numbers(limit)) == [n for n in numbers if n <= limit]


class TestExactIntArguments:
    """Floats and bools are refused at the call, naming their type, as SexNumber does."""

    @pytest.mark.parametrize(
        ("function", "argument", "message"),
        [
            (factor235, True, "^n must be int, got bool$"),
            (factor235, 12.0, "^n must be int, got float$"),
            (is_regular, True, "must be int, got bool$"),
            (is_regular, 7.0, "must be int, got float$"),  # an irregular value
            (is_regular, 8.0, "must be int, got float$"),  # a regular one
            (reciprocal, 8.0, "must be int, got float$"),
            (regular_numbers, 10.5, "^limit must be int, got float$"),  # before any number
        ],
    )
    def test_refused_at_the_call(self, function, argument, message):
        with pytest.raises(TypeError, match=message):
            function(argument)


class TestPairHelpers:
    def test_power_of_60(self):
        # the pair relation holds exactly when the mantissa product is 60**k
        assert is_reciprocal_pair(FloatingSex(1), FloatingSex(1))
        assert valuation(81 * 160000, 60) == (1, 4)
        assert is_reciprocal_pair(FloatingSex(81), FloatingSex(160000))
        assert not is_reciprocal_pair(FloatingSex(7), FloatingSex(10))
        assert not is_reciprocal_pair(FloatingSex(20), FloatingSex(6))  # 2 * 60

    def test_pair_relation(self):
        assert is_reciprocal_pair(FloatingSex(10), FloatingSex(6))
        assert not is_reciprocal_pair(FloatingSex(10), FloatingSex(7))

    def test_zero_is_never_a_pair(self):
        # Zero has no reciprocal; only an anchored value can be zero.
        assert not is_reciprocal_pair(SexNumber(0), FloatingSex(2))
        assert not is_reciprocal_pair(FloatingSex(2), SexNumber(0))
        assert not is_reciprocal_pair(SexNumber(0), SexNumber(0))


class TestPairCheckAgreesWithTheOldKernel:
    """is_reciprocal_pair, which reads 60**k as 2**(2k) * 15**k, against the kernel
    it replaced: the product's valuation by 60, one division per factor."""

    # Ways to split a product into two canonical mantissas (neither a
    # multiple of 60): exact powers of 60, one factor of 2 or 15 too many
    # or too few, and a stray prime.
    SPLITS = [
        lambda k: (4**k, 15**k),
        lambda k: (2**k * 3**k, 2**k * 5**k),
        lambda k: (2 ** (2 * k + 1), 15**k),
        lambda k: (4**k * 7, 15**k),
        lambda k: (4**k, 15**k * 7),
        lambda k: (4 ** (k + 1), 15**k),
        lambda k: (4**k, 15 ** (k + 1)),
        lambda k: (2 ** (2 * k), 3**k * 5 ** (k + 1)),
        lambda k: (2 ** (2 * k), 3 ** (k + 1) * 5**k),
        lambda k: (2 ** (4 * k + 2), 225**k * 15),
    ]

    @pytest.mark.parametrize("split", range(len(SPLITS)))
    def test_structured_products(self, split):
        for k in [*range(0, 70), 127, 128, 129, 1000]:
            self.check(*map(FloatingSex, self.SPLITS[split](k)))

    def test_random_pairs(self):
        rng = random.Random(60)
        for _ in range(2000):
            a, b, c = (rng.randrange(40) for _ in range(3))
            x = FloatingSex(2**a * 3**b * 5**c)
            y = reciprocal(x) if rng.random() < 0.5 else FloatingSex(rng.randrange(1, 10**30))
            if rng.random() < 0.2:
                y = FloatingSex(y.mantissa * rng.choice([2, 3, 4, 5, 7, 15, 30]))
            self.check(x, y)

    @given(smooth_exponents, smooth_exponents, st.integers(1, 100))
    def test_any_smooth_pair(self, abc, def_, cofactor):
        x = FloatingSex(2 ** abc[0] * 3 ** abc[1] * 5 ** abc[2])
        y = FloatingSex(2 ** def_[0] * 3 ** def_[1] * 5 ** def_[2] * cofactor)
        self.check(x, y)

    @staticmethod
    def check(x, y):
        expected = valuation(x.mantissa * y.mantissa, 60)[0] == 1
        assert is_reciprocal_pair(x, y) == is_reciprocal_pair(y, x) == expected, (x, y)
