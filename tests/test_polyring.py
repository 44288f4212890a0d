import copy
import decimal
import doctest
import json
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pellred.kernels
import pellred.polyring
from pellred.kernels import (
    KRONECKER_DECIMAL_MIN_BITS,
    KRONECKER_FLOOR,
    KRONECKER_MIN_LEN,
    _BAND_MAX_BITS,
    _BAND_MIN_SQUARE,
    _BAND_MIN_WORK,
    _DECIMAL_MAX_BITS,
    _decimal_digits,
    _kernel,
    _kronecker,
    _kronecker_bits,
    _kronecker_decimal,
    _mul_schoolbook,
    _square_schoolbook,
    squares_in_decimal,
)
from pellred.polyring import NEG_INF, NotIntegral, ONE, ParseError, Poly, X, ZERO, parse_poly
from pellred.polyring import MAX_PARSE_DEGREE, common_denominator, decimal_str, dot, power


def test_doctests():
    results = doctest.testmod(pellred.polyring)
    assert results.failed == 0


small_coeff = st.integers(min_value=-(10**6), max_value=10**6)
polys = st.lists(small_coeff, max_size=9).map(Poly)


class TestBasics:
    def test_canonical_form(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0, 0]).coeffs == ()
        assert Poly([Fraction(4, 2)]).coeffs == (2,)
        assert isinstance(Poly([Fraction(4, 2)]).coeffs[0], int)

    def test_degree_sentinel(self):
        assert ZERO.degree == NEG_INF
        assert ZERO.degree < Poly([5]).degree
        assert Poly([0, 0, 1]).degree == 2

    def test_rejects_floats(self):
        for bad in ([1.5], 1.5, [1, 2.0], Decimal(2), [Decimal("0.5")]):
            with pytest.raises(TypeError):
                Poly(bad)

    def test_poly_of_poly_is_itself(self):
        p = Poly([Fraction(1, 2), 0, 3])
        assert Poly(p) is p
        assert Poly(ZERO) is ZERO

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_keep_value_and_constants(self, clone):
        # Copying and unpickling build an empty Poly first and fill it in; if
        # Poly() returned a shared constant, that constant would be rewritten.
        for p in (Poly([Fraction(1, 2), 0, Fraction(3, 4)]), Poly("x^3-2"), ZERO, ONE, X):
            q = clone(p)
            assert isinstance(q, Poly) and q == p
        assert ZERO.num == () and ZERO.den == 1
        assert ONE.num == (1,) and ONE.den == 1
        assert X.num == (0, 1) and X.den == 1

    def test_scalar_equality(self):
        assert Poly([7]) == 7
        assert Poly() == 0
        assert Poly([0, 1]) != 1

    def test_constant_hashes_as_its_scalar(self):
        # Equal values hash equally, so a constant and its scalar are one
        # set element and one dict key.
        for c in (0, 1, -7, 2**100, -(3**70), Fraction(1, 2), Fraction(-22, 7), True, False):
            assert Poly(c) == c and hash(Poly(c)) == hash(c)
            assert c in {Poly(c)} and Poly(c) in {c}
        assert hash(ZERO) == hash(0)
        assert hash(Poly([Fraction(6, 4)])) == hash(Fraction(3, 2))
        assert {Poly(3): "a"}[3] == "a"
        assert {Poly(3), 3, Fraction(3), Poly("x")} == {3, Poly("x")}


class TestArithmetic:
    def test_mul_difference_of_squares(self):
        assert Poly("x^2+1") * Poly("x^2-1") == Poly("x^4-1")

    def test_mul_absorbing_zero(self):
        assert ZERO * Poly("x^3+2") == ZERO

    def test_mul_hand_expansion(self):
        assert Poly("2x^2+3") * Poly("2x") == Poly("4x^3+6x")

    def test_scale(self):
        assert Poly("2x^4+2") * Fraction(-1, 2) == Poly("-x^4-1")
        assert Poly("3x-1") * Fraction(1) == Poly("3x-1")
        assert X * Fraction(1, 3) == Poly([0, Fraction(1, 3)])

    def test_to_integer(self):
        assert Poly("-x^4-1").to_integer() == Poly("-x^4-1")
        assert (Poly("8x^8+16x^4+4") * Fraction(1, 4)).to_integer() == Poly("2x^8+4x^4+1")
        with pytest.raises(NotIntegral):
            (Poly("2x^2+3") * Fraction(-1, 3)).to_integer()

    def test_compose(self):
        assert Poly([0, 0, 1]).compose(Poly("x^2")) == Poly("x^4")
        assert Poly("2x^4-1").compose(Poly("x^2")) == Poly("2x^8-1")
        p = Poly("5x^3-2x+7")
        assert p.compose(X) == p

    def test_divmod_operands_match_other_operators(self):
        # Like + - * / and ==, divmod takes a Poly, int or Fraction only.
        assert divmod(Poly("2x^2+4"), 2) == (Poly("x^2+2"), ZERO)
        assert divmod(Poly("x"), Fraction(1, 2)) == (Poly("2x"), ZERO)
        for bad in ("x", 1.5, [1, 1]):
            with pytest.raises(TypeError):
                divmod(Poly("x^2"), bad)

    def test_divmod_exact(self):
        q, r = divmod(Poly("x^2-1"), Poly("x-1"))
        assert (q, r) == (Poly("x+1"), ZERO)
        assert Poly("x^4-1").div_exact(Poly("x^2+1")) == Poly("x^2-1")
        with pytest.raises(ValueError):
            Poly("x^2+1").div_exact(Poly("x-1"))

    def test_pow(self):
        assert Poly("x+1") ** 3 == Poly("x^3+3x^2+3x+1")
        assert Poly("x+1") ** 0 == ONE

    def test_power_runs_left_to_right(self):
        # Every product is a square or takes base as its right operand, and
        # there is one square per bit after the top one.
        base = Poly("2x-1")
        for n in range(41):
            calls = []

            def product(a, b):
                calls.append((a, b))
                return a * b

            expected = ONE
            for _ in range(n):
                expected = expected * base
            assert power(base, n, ONE, product) == expected
            assert all(a is b or b is base for a, b in calls)
            squares = sum(a is b for a, b in calls)
            assert squares == max(n.bit_length() - 1, 0)
            assert len(calls) - squares == max(bin(n).count("1") - 1, 0)

    def test_evaluate(self):
        assert Poly("x^2-3x+2").evaluate(5) == 12
        assert Poly("2x+1").evaluate(Fraction(1, 2)) == 2
        assert ZERO.evaluate(7) == 0
        assert type(Poly("2x+1").evaluate(Fraction(1, 2))) is int
        assert Poly("x^2+1").evaluate(Fraction(1, 2)) == Fraction(5, 4)
        for bad in (1.5, "1", X):
            with pytest.raises(TypeError):
                Poly("x+1").evaluate(bad)

    def test_scalar_division(self):
        assert Poly("2x+4") / 2 == Poly("x+2")
        assert Poly("x") / 3 == Poly([0, Fraction(1, 3)])


class TestRingAxioms:
    @given(polys, polys)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys, polys, polys)
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys, polys)
    def test_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_outputs_canonical(self, a, b):
        for result in (a + b, a - b, a * b, -a):
            assert not result.coeffs or result.coeffs[-1] != 0

    @given(polys)
    def test_square_matches_general_product(self, a):
        assert a.square() == a * a


class TestSqrt:
    def test_perfect_square(self):
        assert Poly("x^4+2x^2+1").sqrt() == Poly("x^2+1")

    def test_no_root(self):
        assert Poly("x^2+1").sqrt() is None
        assert Poly("-x^2").sqrt() is None
        assert Poly("2x^2").sqrt() is None

    def test_verified_by_squaring(self):
        assert Poly("4x^6-4x^3+1").sqrt() == Poly("2x^3-1")

    def test_constants(self):
        assert Poly([9]).sqrt() == Poly([3])
        assert Poly([8]).sqrt() is None
        assert ZERO.sqrt() == ZERO

    @given(st.lists(st.integers(min_value=-9, max_value=9), max_size=7).map(Poly))
    def test_square_roundtrip(self, p):
        root = (p * p).sqrt()
        assert root is not None
        assert root == p or root == -p
        assert root.leading >= 0


class TestTextFormat:
    def test_parse_examples(self):
        assert parse_poly("x^4-1") == Poly([-1, 0, 0, 0, 1])
        assert parse_poly("2x^2+3") == Poly([3, 0, 2])
        assert parse_poly("-x^4-1") == Poly([-1, 0, 0, 0, -1])
        assert parse_poly("0") == ZERO
        assert parse_poly("x+x") == Poly([0, 2])

    @pytest.mark.parametrize("bad", ["x^^2", "", "x^", "2*x", "x^-1", "+x", "3y"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_poly(bad)

    def test_format_examples(self):
        assert str(Poly([0, 0, -3, 0, 0, 0, 4])) == "4x^6-3x^2"
        assert str(Poly([-1, 0, 0, 0, -1])) == "-x^4-1"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(X) == "x"
        assert str(-X) == "-x"
        assert str(Poly([Fraction(-1, 2), 0, Fraction(2, 3)])) == "2/3x^2-1/2"

    @given(st.lists(st.integers(min_value=-99, max_value=99), max_size=8).map(Poly))
    def test_parse_format_roundtrip(self, p):
        assert parse_poly(str(p)) == p

    def test_format_parse_canonicalizes(self):
        assert str(parse_poly("0x^5+x+0")) == "x"


class TestJson:
    def test_integer_form(self):
        data = Poly("x^4-1").to_json()
        assert data == {"coeffs": ["-1", "0", "0", "0", "1"]}
        assert Poly.from_json(data) == Poly("x^4-1")

    def test_rational_form(self):
        p = Poly([Fraction(1, 2), 3])
        data = p.to_json()
        assert data == {"coeffs": ["1", "3"], "den": ["2", "1"]}
        assert Poly.from_json(data) == p

    @given(st.lists(st.integers(min_value=-50, max_value=50), max_size=6).map(Poly))
    def test_roundtrip_through_text(self, p):
        assert Poly.from_json(json.loads(json.dumps(p.to_json()))) == p

    def test_roundtrip_past_digit_limit(self):
        big = 7 * (10**20000 - 1) // 9
        for p in (Poly([big, 3]), Poly([Fraction(big, 3), Fraction(-1, big + 2)])):
            assert Poly.from_json(json.loads(json.dumps(p.to_json()))) == p

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "NaN", "", "x"])
    def test_rejects_non_integer_text(self, bad):
        with pytest.raises(ValueError):
            Poly.from_json({"coeffs": [bad]})
        with pytest.raises(ValueError):
            Poly.from_json({"coeffs": ["1"], "den": [bad]})

    @pytest.mark.parametrize("bad", [" 1_0 ", "1_0", " 1", "1\n", "+1", "-+1", "--1", "-", "\u0661\u0662", 12])
    def test_rejects_text_to_json_never_writes(self, bad):
        # int() and Decimal() read whitespace, "_", "+" and non-ASCII digits.
        with pytest.raises(ValueError):
            Poly.from_json({"coeffs": [bad]})
        with pytest.raises(ValueError):
            Poly.from_json({"coeffs": ["1"], "den": [bad]})

    @pytest.mark.parametrize(
        "data",
        [{"coeffs": "12"}, {"coeffs": ("1", "2")}, {"coeffs": ["1"], "den": "2"}, {"coeffs": ["1"], "den": ("2",)}],
    )
    def test_rejects_fields_that_are_not_lists(self, data):
        # A string would be read character by character: "12" as 2x+1.
        with pytest.raises(ValueError):
            Poly.from_json(data)

    @pytest.mark.parametrize("den", ["0", "-2", "-1"])
    def test_rejects_non_positive_den(self, den):
        # to_json writes every denominator as a positive integer.
        with pytest.raises(ValueError):
            Poly.from_json({"coeffs": ["1", "3"], "den": ["1", den]})


class TestParseLimits:
    def test_degree_at_the_cap(self):
        assert parse_poly(f"x^{MAX_PARSE_DEGREE}").degree == MAX_PARSE_DEGREE

    def test_degree_above_the_cap(self):
        with pytest.raises(ParseError, match="above the maximum degree"):
            parse_poly(f"2+x^{MAX_PARSE_DEGREE + 1}")

    @pytest.mark.parametrize("bad", ["²", "3²", "x^²", "x+²", "٣x", "x+１", "x^٢"])
    def test_non_decimal_digits(self, bad):
        with pytest.raises(ParseError, match="malformed number"):
            parse_poly(bad)

    def test_too_many_digits(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int string-conversion limit")
        with pytest.raises(ParseError, match="malformed number"):
            parse_poly("1" * (limit + 1))


wide_coeff = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**1000), max_value=2**1000),
)


def int_coeffs(length):
    """Coefficient lists of exactly ``length`` terms (nonzero leading)."""
    return st.lists(wide_coeff, min_size=length, max_size=length).map(
        lambda cs: cs[:-1] + [cs[-1] or -1]
    )


LENGTHS = [1, 3, KRONECKER_FLOOR - 1, KRONECKER_FLOOR, KRONECKER_MIN_LEN - 1, KRONECKER_MIN_LEN, 2 * KRONECKER_MIN_LEN + 5]
any_length = st.sampled_from(LENGTHS).flatmap(int_coeffs)


def kronecker_product(a, b) -> list:
    """a*b by Kronecker substitution at any lengths, at the radix ``_kernel``
    takes from ``KRONECKER_MIN_LEN`` coefficients on (a square when b is a)."""
    bits = _kronecker_bits((a,), (b,))
    return _kronecker((a,), (b,), bits, _decimal_digits(min(len(a), len(b)), max(len(a), len(b)), bits))


class TestKronecker:
    """The Kronecker kernel against the schoolbook loops it stands in for."""

    @settings(max_examples=60, deadline=None)
    @given(any_length, any_length)
    def test_mul_matches_schoolbook(self, a, b):
        assert kronecker_product(a, b) == _mul_schoolbook(a, b)

    @settings(max_examples=60, deadline=None)
    @given(any_length)
    def test_square_matches_schoolbook(self, a):
        assert kronecker_product(a, a) == _square_schoolbook(a)

    def test_extreme_coefficients(self):
        # All coefficients at +-2^k make every product coefficient reach the
        # bound that sets the digit width.
        for k in (0, 7, 8, 63, 64):
            for sign in (1, -1):
                a = [sign * 2**k] * KRONECKER_MIN_LEN
                b = [-(2**k)] * (KRONECKER_MIN_LEN + 3)
                assert kronecker_product(a, b) == _mul_schoolbook(a, b)
                assert kronecker_product(a, a) == _square_schoolbook(a)

    def test_fraction_operands_match_schoolbook(self):
        # Rational operands go through the kernel on their integer numerators.
        p = Poly([Fraction(1, 3)] + [1] * KRONECKER_MIN_LEN)
        q = Poly(list(range(1, KRONECKER_MIN_LEN + 2)))
        expected = _mul_schoolbook(p.coeffs, q.coeffs)
        while expected and expected[-1] == 0:
            expected.pop()
        assert (p * q).coeffs == tuple(c.numerator if c.denominator == 1 else c for c in expected)
        assert p.square() == p * p


def product_bits(a, b) -> int:
    """The bound of ``kronecker_product``: every product coefficient is below 2^bits."""
    return max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + min(len(a), len(b)).bit_length()


def least_digits(bits) -> int:
    """The least j with 10^(j-1) > 2^bits."""
    return len(decimal_str(1 << bits)) + 1


def by_kernel(a, b, cutoff):
    """``kronecker_product(a, b)`` under decimal cut-off ``cutoff``, with the digit
    counts it passed to the decimal path (empty where it took the binary one)."""
    with (
        mock.patch.object(pellred.kernels, "KRONECKER_DECIMAL_MIN_BITS", cutoff),
        mock.patch.object(pellred.kernels, "_kronecker_decimal", wraps=_kronecker_decimal) as spy,
    ):
        out = kronecker_product(a, b)
    return out, [call.args[2] for call in spy.call_args_list]


def schoolbook(a, b):
    return _square_schoolbook(a) if a is b else _mul_schoolbook(a, b)


def operand(rng, length, k, pattern) -> list:
    """``length`` coefficients below 2^k in absolute value, nonzero leading."""
    top = 1 << k
    if pattern == "extreme":  # every coefficient at +-(2^k - 1)
        cs = [rng.choice((-1, 1)) * (top - 1) for _ in range(length)]
    elif pattern == "negative":
        cs = [-rng.randrange(1, top) for _ in range(length)]
    elif pattern == "sparse":  # mostly zero coefficients
        cs = [rng.randrange(1 - top, top) if rng.random() < 0.2 else 0 for _ in range(length)]
    else:
        cs = [rng.randrange(1 - top, top) for _ in range(length)]
    cs[-1] = cs[-1] or top - 1
    return cs


# Shorter operands of 32 to 255 coefficients of 8 to 1057 bits pack to 0.7 to
# 541 kbit, on both sides of KRONECKER_DECIMAL_MIN_BITS.  255 x 1057 bits is
# the widest square the decimal path takes (j = 640).
@st.composite
def operand_pairs(draw):
    """(a, b), where b is a itself (a square), a copy of it, or another operand."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    pattern = draw(st.sampled_from(["random", "negative", "sparse", "extreme"]))
    k = draw(st.sampled_from([8, 200, 500, 707, 1057]))
    a = operand(rng, draw(st.sampled_from([KRONECKER_MIN_LEN, 100, 255])), k, pattern)
    kind = draw(st.sampled_from(["square", "copy", "product"]))
    if kind != "product":
        return a, (a if kind == "square" else list(a))
    k = draw(st.sampled_from([k, 8, 1057]))
    return a, operand(rng, draw(st.sampled_from([KRONECKER_MIN_LEN, 100, 255, 400])), k, pattern)


class TestDecimalKronecker:
    """The decimal Kronecker path against the binary one and schoolbook."""

    @settings(max_examples=40, deadline=None)
    @given(operand_pairs())
    def test_decimal_matches_binary_and_schoolbook(self, ab):
        a, b = ab
        want = schoolbook(a, b)
        j = least_digits(product_bits(a, b))
        in_decimal, digits = by_kernel(a, b, 0)
        in_binary, none = by_kernel(a, b, float("inf"))
        assert digits == ([j] if j <= 640 else []) and not none
        assert in_decimal == in_binary == want
        assert kronecker_product(a, b) == want  # the cut-off the module ships with

    def test_digit_count_is_the_least(self):
        # Each bits from 3 up takes the decimal path while its least j is at
        # most 640, and the binary path from there.
        for bits in range(3, 2200):
            k = bits // 2
            a, b = [1 << (k - 1)], [1 << (bits - k - 2)]
            assert product_bits(a, b) == bits
            out, digits = by_kernel(a, b, 0)
            j = least_digits(bits)
            assert digits == ([j] if j <= 640 else []), bits
            assert out == [a[0] * b[0]]

    @pytest.mark.parametrize("length, k", [(127, 1056), (255, 1057), (255, 9), (577, 68)])
    def test_products_at_the_digit_bound(self, length, k):
        # All coefficients +-(2^k - 1) of one sign put the middle coefficient
        # of the square past 5*10^(j-2): one digit fewer would not hold it.
        for sign in (1, -1):
            a = [sign * ((1 << k) - 1)] * length
            j = least_digits(product_bits(a, a))
            want = _square_schoolbook(a)
            assert max(map(abs, want)) >= 5 * 10 ** (j - 2)
            for b in (a, list(a)):
                out, digits = by_kernel(a, b, 0)
                assert digits == [j] and out == want

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
    def test_at_the_lowest_digit_limit(self):
        # 255 coefficients of 1057 bits need j = 640 digits, the most the
        # decimal path takes; with one more bit the square takes the binary
        # path.  Neither may raise under the lowest limit there is.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for k, path in ((1057, [640]), (1058, [])):
                a = [(-1) ** i * ((1 << k) - 1 - i) for i in range(255)]
                out, digits = by_kernel(a, a, pellred.kernels.KRONECKER_DECIMAL_MIN_BITS)
                assert digits == path
                assert out == _square_schoolbook(a)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_callers_decimal_context_is_neither_used_nor_changed(self):
        a = [(-1) ** i * 3**300 + i for i in range(KRONECKER_MIN_LEN)]
        b = [7**300 - i for i in range(KRONECKER_MIN_LEN + 5)]
        outer = repr(decimal.getcontext())
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            for signal in (decimal.Inexact, decimal.Rounded, decimal.Overflow):
                ctx.traps[signal] = True
            before = repr(ctx)
            for x, y in ((a, b), (a, a)):
                out, digits = by_kernel(x, y, 0)
                assert digits and out == schoolbook(x, y)
            assert repr(ctx) == before and decimal.getcontext() is ctx
        assert repr(decimal.getcontext()) == outer

    def test_poly_products_take_it(self):
        p = Poly(operand(random.Random(5), 300, 700, "random"))
        q = Poly(operand(random.Random(6), 301, 700, "negative")) / 3
        with mock.patch.object(pellred.kernels, "_kronecker_decimal", wraps=_kronecker_decimal) as spy:
            square, product = p * p, p * q
        assert spy.call_count == 2
        assert square.num == tuple(_square_schoolbook(p.num))
        assert product == Poly(_mul_schoolbook(p.num, q.num)) / 3


def shaped(short, long, bits, seed=0):
    """Operands of ``short`` and ``long`` coefficients whose Kronecker bit
    bound is exactly ``bits``: the largest coefficient of each has the bit
    length that makes it so, with mixed signs and a zero among the others."""
    spare = bits - short.bit_length()
    top_a, top_b = spare // 2, spare - spare // 2
    rng = random.Random(seed)

    def side(length, top):
        cs = [rng.randrange(1 - (1 << top), 1 << top) for _ in range(length)]
        cs[0], cs[-1] = 0, rng.choice((-1, 1)) * ((1 << top) - 1)
        return cs if length > 1 else cs[-1:]

    a, b = side(short, top_a), side(long, top_b)
    assert _kronecker_bits((a,), (b,)) == bits
    return a, b


def kernel_of(a, b):
    """``_kernel``'s answer for the product a*b."""
    short, long = sorted((len(a), len(b)))
    return _kernel(short, long, (a,), (b,))


def band_boundaries(square):
    """(short, long, bits, Kronecker expected) on both sides of every
    boundary of the band rule: the least work (products) or length
    (squares), the largest bit bound, the floor and KRONECKER_MIN_LEN."""
    cases = []
    shorts = (_BAND_MIN_SQUARE,) if square else (KRONECKER_FLOOR, 16)
    for short in shorts + (KRONECKER_MIN_LEN - 1,):
        long = short if square else max(short, -(-_BAND_MIN_WORK // short))
        for bits in (24, _BAND_MAX_BITS):
            cases.append((short, long, bits, True))
        cases.append((short, long, _BAND_MAX_BITS + 1, False))
        if not square and long - 1 >= short and short * (long - 1) < _BAND_MIN_WORK:
            cases.append((short, long - 1, 24, False))
    if square:
        cases.append((_BAND_MIN_SQUARE - 1, _BAND_MIN_SQUARE - 1, 24, False))
    else:  # the shorter side one less, the work just under
        cases.append((15, 17, 24, False))
    cases.append((KRONECKER_MIN_LEN, KRONECKER_MIN_LEN if square else 60, _BAND_MAX_BITS + 1, True))
    cases.append((KRONECKER_FLOOR - 1, KRONECKER_FLOOR - 1 if square else 200, 40, False))
    return cases


class TestKernelChoice:
    """The one kernel predicate: products on both sides of each boundary
    against the schoolbook reference."""

    def test_band_constants(self):
        # The band's thresholds lie inside it, and a band product is too
        # small for the decimal kernel, which _kernel takes for granted.
        assert KRONECKER_FLOOR**2 < _BAND_MIN_WORK <= (KRONECKER_MIN_LEN - 1) ** 2
        assert KRONECKER_FLOOR <= _BAND_MIN_SQUARE < KRONECKER_MIN_LEN
        assert _decimal_digits(KRONECKER_MIN_LEN - 1, 10**9, _BAND_MAX_BITS) == 0

    def test_below_the_floor_reads_no_coefficient(self):
        # Sweep and high-index make thousands of products with a short operand.
        assert _kernel(KRONECKER_FLOOR - 1, 10**6, None, None) == (0, 0)
        with pytest.raises(TypeError):
            _kernel(KRONECKER_FLOOR, 10**6, None, None)

    @pytest.mark.parametrize("short, long, bits, kronecker", band_boundaries(False))
    def test_product_band(self, short, long, bits, kronecker):
        a, b = shaped(short, long, bits)
        assert bool(kernel_of(a, b)[0]) is kronecker
        assert kernel_of(b, a) == kernel_of(a, b)
        want = Poly(_mul_schoolbook(a, b))
        assert Poly(a) * Poly(b) == want and Poly(b) * Poly(a) == want

    @pytest.mark.parametrize("n, _, bits, kronecker", band_boundaries(True))
    def test_square_band(self, n, _, bits, kronecker):
        a, _ = shaped(n, n, bits)
        assert bool(_kernel(n, n, (a,), (a,))[0]) is kronecker
        p = Poly(a)
        assert p.square() == Poly(_square_schoolbook(a)) == p * Poly(list(a))

    def test_sums_count_the_work_of_every_pair(self):
        # One 10 x 12 product is below the band's least work; three are not.
        a, b = shaped(KRONECKER_FLOOR, 12, 60)
        assert KRONECKER_FLOOR * 12 < _BAND_MIN_WORK <= 3 * KRONECKER_FLOOR * 12
        assert kernel_of(a, b) == (0, 0)
        assert _kernel(KRONECKER_FLOOR, 12, [a] * 3, [b] * 3)[0]

    def test_squares_in_decimal_is_the_balanced_rule(self):
        # For a square the decimal rule is the earlier one: the operand packs
        # to KRONECKER_DECIMAL_MIN_BITS and its digits fit in 640.
        for n in (KRONECKER_FLOOR, KRONECKER_MIN_LEN - 1, KRONECKER_MIN_LEN, 100, 255, 577):
            for bits in range(40, 2300, 37):
                j = least_digits(bits)
                earlier = n >= KRONECKER_MIN_LEN and n * bits >= KRONECKER_DECIMAL_MIN_BITS and j <= 640
                cs = [1] * n
                with mock.patch.object(pellred.kernels, "_kronecker_bits", return_value=bits):
                    assert squares_in_decimal(cs) is earlier, (n, bits)

    @pytest.mark.parametrize("cutoff", [KRONECKER_DECIMAL_MIN_BITS, 0, 20_000])
    def test_squares_in_decimal_asks_the_kernel(self, cutoff):
        # Its length test only skips squares that cannot reach the cut-off.
        assert max(b for b in range(1, 3000) if _decimal_digits(10**6, 10**6, b)) == _DECIMAL_MAX_BITS
        with mock.patch.object(pellred.kernels, "KRONECKER_DECIMAL_MIN_BITS", cutoff):
            for n in (KRONECKER_FLOOR, 16, KRONECKER_MIN_LEN - 1, KRONECKER_MIN_LEN, 94, 95, 100):
                for top in (1, 300, 1060, 1061, 1100):
                    cs = [(1 << top) - 1] * n
                    assert squares_in_decimal(cs) is (_kernel(n, n, (cs,), (cs,))[1] > 0), (n, top)

    # (short, long, bits, decimal): each decimal condition just met and just
    # missed.  2*short*bits and (short + long)*bits against the cut-off.
    LOPSIDED = [
        (100, 300, 1000, True),  # 2*100*1000 = 200 000, 400 * 1000 = 400 000
        (99, 310, 1000, False),  # shorter side below half the cut-off
        (100, 299, 1000, False),  # the sum of lengths one short
        (150, 150, 1334, True),  # a balanced shape: 150 * 1334 >= 200 000
        (150, 150, 1333, False),
        (40, 400, 2119, False),  # short * bits below half
        (48, 400, 2117, True),  # j = 639
        (48, 400, 2124, False),  # j = 641
    ]

    @pytest.mark.parametrize("short, long, bits, decimal", LOPSIDED)
    def test_lopsided_decimal(self, short, long, bits, decimal):
        a, b = shaped(short, long, bits, seed=short + long)
        bits_, j = kernel_of(a, b)
        assert bits_ == bits and bool(j) is decimal
        want = Poly(_mul_schoolbook(a, b))
        with mock.patch.object(pellred.kernels, "_kronecker_decimal", wraps=_kronecker_decimal) as spy:
            assert Poly(a) * Poly(b) == want
        assert spy.call_count == decimal


def reference_dot(xs, ys) -> Poly:
    """The sum of the products, each by schoolbook over int/Fraction coefficients."""
    total = ZERO
    for x, y in zip(xs, ys):
        if x and y:
            total = total + Poly(_mul_schoolbook(x.coeffs, y.coeffs))
    return total


# Lengths on both sides of the floor and of KRONECKER_MIN_LEN, zero included.
DOT_LENGTHS = [0, 1, 3, KRONECKER_FLOOR - 1, KRONECKER_FLOOR, 16, KRONECKER_MIN_LEN - 1, KRONECKER_MIN_LEN, 40]
dot_coeff = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200))
dot_fraction = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))


@st.composite
def dot_operands(draw):
    """Two equal-length lists of 1 to 5 Polys, as in a matrix product of
    m = 2..5, of mixed lengths, integer or with some Fraction entries, some
    of them zero."""
    pairs = draw(st.sampled_from([1, 2, 3, 4, 5]))
    rational = draw(st.booleans())

    def entry():
        n = draw(st.sampled_from(DOT_LENGTHS))
        coeff = st.one_of(dot_coeff, dot_fraction) if rational else dot_coeff
        return Poly(draw(st.lists(coeff, min_size=n, max_size=n)))

    xs = [entry() for _ in range(pairs)]
    ys = [entry() for _ in range(pairs)]
    if draw(st.booleans()):  # a square pair, as in a matrix power's diagonal
        ys[0] = xs[0]
    return xs, ys


class TestDot:
    @settings(max_examples=80, deadline=None)
    @given(dot_operands())
    def test_matches_the_sum_of_products(self, operands):
        xs, ys = operands
        got = dot(xs, ys)
        assert got == reference_dot(xs, ys) == sum((x * y for x, y in zip(xs, ys)), ZERO)
        assert got.num == () or got.num[-1] != 0  # canonical

    @pytest.mark.parametrize("extra", [0, 1, 3])
    @pytest.mark.parametrize("length", [KRONECKER_FLOOR - 1, KRONECKER_MIN_LEN])
    def test_both_kernels_on_cancelling_sums(self, extra, length):
        # x*y - x*y summed with ``extra`` short pairs: the top coefficients
        # cancel, so the unpacked sum has trailing zeros to strip.
        rng = random.Random(extra * 100 + length)
        x = Poly([rng.randrange(-(2**90), 2**90) for _ in range(length - 1)] + [3])
        y = Poly([rng.randrange(-(2**90), 2**90) for _ in range(length - 1)] + [-5])
        small = [Poly([rng.randrange(-9, 10) for _ in range(3)]) for _ in range(extra)]
        xs, ys = [x, -x] + small, [y, y] + small[::-1]
        with mock.patch.object(pellred.polyring, "_kronecker", wraps=_kronecker) as spy:
            got = dot(xs, ys)
        assert spy.called is (length >= KRONECKER_MIN_LEN)
        assert got == reference_dot(xs, ys)
        assert got.degree < x.degree + y.degree

    def test_decimal_kernel_sums(self):
        # Pairs packing past the decimal cut-off: one decimal sum, equal to
        # the binary sum and to schoolbook.
        rng = random.Random(11)
        xs = [Poly([rng.randrange(-(2**700), 2**700) for _ in range(300)]) for _ in range(2)]
        ys = [Poly([rng.randrange(-(2**700), 2**700) for _ in range(301)]), xs[1]]
        with mock.patch.object(pellred.kernels, "_kronecker_decimal", wraps=_kronecker_decimal) as spy:
            got = dot(xs, ys)
        assert spy.call_count == 1
        nums_x, nums_y = [x.num for x in xs], [y.num for y in ys]
        bits = _kronecker_bits(nums_x, nums_y)
        assert Poly(_kronecker(nums_x, nums_y, bits, 0)) == got == reference_dot(xs, ys)

    def test_zero_and_empty(self):
        p = Poly("x^2+1")
        assert dot([], []) == ZERO
        assert dot([ZERO, p], [p, ZERO]) == ZERO
        assert dot([p, ZERO], [p, p]) == p * p
        assert dot([p], [Poly(Fraction(1, 2))]) == p / 2


class TestIntegerDivision:
    def test_exact_integer_quotient_stays_int(self):
        a = Poly("6x^3-4x^2+10x-8") * Poly("-3x^2+x-5")
        q, r = divmod(a, Poly("-3x^2+x-5"))
        assert q == Poly("6x^3-4x^2+10x-8") and r == ZERO
        assert all(type(c) is int for c in q.coeffs)

    def test_inexact_integer_quotient_is_fraction(self):
        q, r = divmod(Poly("x^2+1"), Poly("2x+1"))
        assert q == Poly([Fraction(-1, 4), Fraction(1, 2)])
        assert r == Poly([Fraction(5, 4)])

    @given(polys, st.integers(min_value=-12, max_value=12).filter(bool))
    def test_scalar_division_matches_inverse_product(self, p, s):
        assert (p / s).coeffs == (p * Fraction(1, s)).coeffs
        assert (p * s / s).coeffs == p.coeffs

    def test_scalar_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Poly("x+1") / 0

    @given(polys, polys.filter(lambda p: not p.is_zero()))
    def test_division_identity(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


class TestCommonDenominator:
    def test_integer_polys(self):
        assert common_denominator(Poly("x^2+3"), ZERO) == 1
        assert common_denominator() == 1

    def test_lcm_over_all_coefficients(self):
        p = Poly([Fraction(1, 4), 2])
        q = Poly([Fraction(5, 6)])
        assert common_denominator(p, q) == 12
        assert (p * 12).is_integral() and (q * 12).is_integral()
