"""Canonical base-60 values: worked examples plus algebraic laws."""

import copy
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest
from conftest import rational, same_fields, valuation, value_of
from hypothesis import given
from hypothesis import strategies as st

from sexagesimal.core import BASE, ONE, ZERO, FloatingSex, SexNumber, _remove_factor, multiply
from sexagesimal.translit import Transliteration


sex_numbers = st.builds(
    SexNumber,
    st.integers(min_value=0, max_value=BASE**8),
    st.integers(min_value=-12, max_value=12),
)
nonzero_sex_numbers = st.builds(
    SexNumber,
    st.integers(min_value=1, max_value=BASE**8),
    st.integers(min_value=-12, max_value=12),
)
floating_values = st.builds(FloatingSex, st.integers(min_value=1, max_value=BASE**8))


class TestNormalize:
    def test_already_canonical(self):
        # 10,12;45 as a raw pair: 36765 carries no factor of 60
        assert SexNumber(36765, -1) == SexNumber(36765, -1)
        assert SexNumber(36765, -1).mantissa == 36765

    def test_zero_collapses_exponent(self):
        assert SexNumber(0, 7) == SexNumber(0, 0)
        assert SexNumber(0, 7).exponent == 0
        assert (SexNumber(0, 5).mantissa, SexNumber(0, 5).exponent) == (0, 0)

    def test_strips_factors_of_base(self):
        assert valuation(3600, BASE) == (1, 2)
        n = SexNumber(3600, 0)
        assert (n.mantissa, n.exponent) == (1, 2)

    @given(st.integers(min_value=0, max_value=BASE**10), st.integers(-20, 20))
    def test_matches_the_valuation(self, mantissa, exponent):
        n = SexNumber(mantissa, exponent)
        r, k = valuation(mantissa, BASE) if mantissa else (0, -exponent)  # zero is (0, 0)
        assert (n.mantissa, n.exponent) == (r, exponent + k)
        assert rational(n) == Fraction(mantissa) * Fraction(BASE) ** exponent

    def test_rejects_negative_mantissa(self):
        # With and without a remainder by 60.
        for m in [-1, -7, -59, -61, -60, -(60**40 - 1)]:
            with pytest.raises(ValueError, match=f"^mantissa must be non-negative, got {m}$"):
                SexNumber(m)

    @pytest.mark.parametrize("args", [(7200.0,), (-7.0,), (True,), (5, 1.0)])
    def test_rejects_non_int_fields(self, args):
        with pytest.raises(TypeError):
            SexNumber(*args)

    @given(sex_numbers)
    def test_canonicality(self, x):
        if x.mantissa == 0:
            assert x.exponent == 0
        else:
            assert x.mantissa % BASE != 0

    def test_equality_is_field_wise(self):
        assert SexNumber(3600) == SexNumber(1, 2)
        assert hash(SexNumber(3600)) == hash(SexNumber(1, 2))
        assert SexNumber(1, 2) != SexNumber(1, 3)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SexNumber(5).mantissa = 6


VALUES = [
    SexNumber(36765, -1),
    ZERO,
    FloatingSex(160000),
    Transliteration((10, 12, 45), 2, "10,12;45"),
    Transliteration((0, 45), 0, ";0,45"),
]
value_ids = [repr(v) for v in VALUES]


class TestValueObjects:
    """Immutable, copyable value objects with field-wise equality, hash and repr."""

    @pytest.mark.parametrize("value", VALUES, ids=value_ids)
    def test_frozen(self, value):
        for name in value.__slots__:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) == before
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value", VALUES, ids=value_ids)
    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy]
        + [lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p)) for p in range(6)],
        ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(6)],
    )
    def test_copy_and_pickle_round_trip(self, value, duplicate):
        twin = duplicate(value)
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)
        assert all(getattr(twin, n) == getattr(value, n) for n in value.__slots__)

    def test_copies_go_through_the_checking_constructor(self):
        # Never Transliteration's trusted _canonical, so a pickle cannot smuggle in a bad value.
        assert SexNumber(3600).__reduce__() == (SexNumber, (1, 2))
        numeral = Transliteration((0, 6), 1, "0;6")
        assert numeral.__reduce__() == (Transliteration, ((0, 6), 1, "0;6"))

    def test_repr_equality_and_hash_are_field_wise(self):
        assert repr(SexNumber(6, -1)) == "SexNumber(mantissa=6, exponent=-1)"
        assert repr(FloatingSex(10)) == "FloatingSex(mantissa=10)"
        assert repr(Transliteration((0, 6), 1, "0;6")) == (
            "Transliteration(digits=(0, 6), semicolon_index=1, raw='0;6')"
        )
        assert hash(SexNumber(6, -1)) == hash((6, -1))
        assert hash(FloatingSex(10)) == hash((10,))
        # Different kinds never compare equal, even with the same fields.
        assert SexNumber(10) != FloatingSex(10)
        assert FloatingSex(10) != SexNumber(10)
        assert SexNumber(1) != (1, 0)
        with pytest.raises(TypeError):
            FloatingSex(1) < FloatingSex(2)

    def test_repr_of_long_values_ignores_the_int_str_limit(self):
        # Decimal up to 2,000 bits, hex past them: the same text at any limit, never an error.
        long, short = 7**6000, 2**2000 - 1
        expected = {
            SexNumber(long, -3): f"SexNumber(mantissa={long:#x}, exponent=-3)",
            FloatingSex(long): f"FloatingSex(mantissa={long:#x})",
            FloatingSex(short): f"FloatingSex(mantissa={short})",
        }

        def check():
            for value, text in expected.items():
                assert repr(value) == text
                assert eval(text) == value

        check()  # at the limit the tests run with
        if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
            return
        original = sys.get_int_max_str_digits()
        try:
            for limit in (640, 4300, 0):
                sys.set_int_max_str_digits(limit)
                check()
        finally:
            sys.set_int_max_str_digits(original)

    @pytest.mark.parametrize(
        "op", [operator.add, operator.mul, operator.lt], ids=["add", "mul", "lt"]
    )
    def test_arithmetic_with_a_plain_int_is_a_type_error(self, op):
        # The operator returns NotImplemented, and int has no reflected form for a SexNumber.
        with pytest.raises(TypeError):
            op(SexNumber(1), 1)


class TestFloatingSex:
    def test_strips_and_keeps_mantissa(self):
        assert FloatingSex(600).mantissa == 10
        assert FloatingSex(600) == FloatingSex(10)

    @pytest.mark.parametrize("bad", [0, -3, -7, -59, -61, -60, -(60**40 - 1)])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match=f"^floating mantissa must be positive, got {bad}$"):
            FloatingSex(bad)

    def test_rejects_non_int_mantissa(self):
        for bad in [2.0, 7.5]:
            with pytest.raises(TypeError):
                FloatingSex(bad)


class TestAdd:
    def test_doubling_by_addition(self):
        assert SexNumber(10) + SexNumber(10) == SexNumber(20)

    @given(sex_numbers)
    def test_additive_identity(self, x):
        assert x + ZERO == x

    def test_carry_into_next_place(self):
        # integer oracle: 59 + 1 = 60 = 1 * 60**1
        assert SexNumber(59) + SexNumber(1) == SexNumber(1, 1)

    @given(sex_numbers, sex_numbers)
    def test_commutative_and_exact(self, a, b):
        assert a + b == b + a
        assert rational(a + b) == rational(a) + rational(b)

    @given(sex_numbers, sex_numbers, sex_numbers)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)


class TestMultiply:
    def test_mixed_place_product(self):
        # 0;15 times 40,51 gives 10,12;45
        assert multiply(SexNumber(15, -1), SexNumber(2451)) == SexNumber(36765, -1)

    @given(sex_numbers)
    def test_multiplicative_identity(self, x):
        assert multiply(x, ONE) == x

    def test_reciprocal_pair_product(self):
        # oracle: 40 * 90/3600 == 1
        assert Fraction(40) * Fraction(90, 3600) == 1
        assert multiply(SexNumber(40), SexNumber(90, -2)) == ONE

    @given(sex_numbers, sex_numbers)
    def test_commutative_and_exact(self, a, b):
        assert a * b == b * a
        assert rational(a * b) == rational(a) * rational(b)

    @given(sex_numbers, sex_numbers, sex_numbers)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_random_instances_match_rational_oracle(self):
        import random

        rng = random.Random(3600)
        for _ in range(1000):
            a = SexNumber(rng.randrange(0, BASE**6), rng.randint(-10, 10))
            b = SexNumber(rng.randrange(0, BASE**6), rng.randint(-10, 10))
            assert rational(a * b) == rational(a) * rational(b)
            assert rational(a + b) == rational(a) + rational(b)


# Mantissas around the cases where doubling or halving reaches a multiple
# of 60, which the constructors must strip: multiples of 30 and of 60,
# odd and even ones, and zero.
EDGE_MANTISSAS = [0, 1, 2, 15, 29, 30, 31, 45, 59, 60, 61, 90, 120, 900, 1800, 3600,
                  7 * 60**5, 30 * 60**9 + 30, 2**100, 3**80, 60**40 - 1]


class TestDoubleHalve:
    def test_doubling_a_table_value(self):
        # 10,40 doubles to 21,20
        assert SexNumber(640).double() == SexNumber(1280)
        assert FloatingSex(640).double() == FloatingSex(1280)

    def test_halving_a_reciprocal(self):
        # 0;6 halves to 0;3
        assert SexNumber(6, -1).halve() == SexNumber(3, -1)

    def test_zero_fixed_point(self):
        assert ZERO.halve() == ZERO
        assert ZERO.double() == ZERO

    @given(sex_numbers)
    def test_inverse_each_way(self, x):
        assert x.double().halve() == x
        assert x.halve().double() == x

    @given(floating_values)
    def test_inverse_on_floating(self, x):
        assert x.double().halve() == x
        assert x.halve().double() == x

    @given(sex_numbers)
    def test_exactness(self, x):
        assert rational(x.double()) == 2 * rational(x)
        assert rational(x.halve()) == rational(x) / 2

    @pytest.mark.parametrize("m", EDGE_MANTISSAS)
    def test_exactness_at_the_edges(self, m):
        self.check_exact(m, -3)

    @given(st.integers(0, BASE**12), st.integers(-20, 20))
    def test_exactness_of_any_mantissa(self, m, e):
        self.check_exact(m, e)

    @given(st.integers(0, BASE**6), st.integers(0, 6), st.integers(-20, 20))
    def test_exactness_of_multiples_of_30_and_60(self, m, k, e):
        self.check_exact(m * 30**k, e)
        self.check_exact(m * 60**k, e)

    @staticmethod
    def check_exact(m, e):
        # Each result exact and canonical, with int fields; a floating one is the
        # class of the mantissa, or of twice or half it, every factor of 60 removed.
        x = SexNumber(m, e)
        for y, expected in ((x.double(), 2 * rational(x)), (x.halve(), rational(x) / 2)):
            assert rational(y) == expected
            assert y.mantissa % BASE or (y.mantissa, y.exponent) == (0, 0)
            assert type(y.mantissa) is type(y.exponent) is int
        if m:
            f = FloatingSex(m)
            assert same_fields(x.to_floating(), FloatingSex(valuation(m, BASE)[0]))
            assert same_fields(f.double(), FloatingSex(valuation(2 * m, BASE)[0]))
            assert same_fields(f.halve(), FloatingSex(valuation(30 * m, BASE)[0]))


class TestCompare:
    def test_fraction_below_unit(self):
        assert SexNumber(15, -1) < ONE

    def test_reflexive_equal(self):
        assert SexNumber(640) == SexNumber(640)

    def test_cross_exponent(self):
        # 2,40 against 0;0,22,30 shifted up by 60**5; rational oracle decides
        small = SexNumber(160)
        big = multiply(SexNumber(1350, -2), SexNumber(1, 5))
        assert rational(small) < rational(big)
        assert small < big

    @given(sex_numbers, sex_numbers)
    def test_total_order_matches_rational_oracle(self, a, b):
        assert (a == b) == (rational(a) == rational(b))
        assert (a > b) == (rational(a) > rational(b))
        assert (a < b) == (rational(a) < rational(b))
        assert (a <= b) == (rational(a) <= rational(b))


class TestFloatingRoundTrip:
    def test_drop_the_place_value(self):
        assert SexNumber(15, -1).to_floating() == FloatingSex(15)

    def test_reattach_the_place_value(self):
        assert FloatingSex(15).anchor(-1) == SexNumber(15, -1)

    def test_zero_has_no_floating_form(self):
        with pytest.raises(ValueError):
            ZERO.to_floating()

    def test_multidigit_mantissa(self):
        # positional oracle on the digit string 6,54,15,8,5,20
        expected = value_of([6, 54, 15, 8, 5, 20])
        assert SexNumber(expected).to_floating() == FloatingSex(expected)
        assert FloatingSex(expected).mantissa == 5368709120

    @given(nonzero_sex_numbers)
    def test_round_trip(self, x):
        assert x.to_floating().anchor(x.exponent) == x


class TestRemoveFactor:
    # k around every power of two up to 4096 (where the squaring and the
    # greedy descent change course), and up to 5000.
    EXPONENTS = sorted({0, 1, 2, 3, 5000} | {2**j + d for j in range(1, 13) for d in (-1, 0, 1)})

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 60])
    def test_matches_the_naive_loop(self, p):
        rng = random.Random(p)
        for k in self.EXPONENTS:
            r = rng.randrange(1, 10**40)
            r += r % p == 0  # not a multiple of p, so the valuation is exactly k
            n = p**k * r
            assert _remove_factor(n, p) == valuation(n, p) == (r, k)

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 30, 7 * 2**20, 59])
    def test_sixty_beside_its_own_prime_factors(self, r):
        # For p = 60 the cofactor may share 2, 3 or 5 with p and still not be divisible by it.
        for k in (0, 1, 31, 32, 33, 1000):
            assert _remove_factor(60**k * r, 60) == (r, k)

    @given(st.integers(0, 300), st.integers(1, 10**30), st.sampled_from([2, 3, 5, 7, 60]))
    def test_any_cofactor(self, k, r, p):
        n = p**k * r
        assert _remove_factor(n, p) == valuation(n, p)
