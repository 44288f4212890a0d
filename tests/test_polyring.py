import copy
import decimal
import doctest
import json
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pellred.kernels
import pellred.polyring
from pellred.kernels import (
    KRONECKER_DECIMAL_MIN_BITS,
    KRONECKER_FLOOR,
    KRONECKER_MIN_WORK,
    _DECIMAL_MAX_BITS,
    _decimal_digits,
    _kernel,
    _kronecker,
    _kronecker_bits,
    _kronecker_decimal,
    _mul_schoolbook,
    kronecker_pack,
    point_test,
)
from pellred.kernels import product, sums_of_products
from pellred.polyring import NEG_INF, NotIntegral, ONE, ParseError, Poly, X, ZERO, parse_poly
from pellred.polyring import MAX_PARSE_DEGREE, common_denominator, decimal_str, dot, dots, format_poly, power

#: A length whose products and squares always take Kronecker substitution.
ALWAYS_KRONECKER = 32


def point_test_declines(cs) -> bool:
    """Whether ``point_test`` declines (None) the operand cs, as P and as Q alike."""
    as_p, as_q = point_test(cs, (1,), (), 1, 1), point_test((1,), cs, (), 1, 1)
    assert (as_p is None) is (as_q is None)
    return as_p is None


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


def reference_sqrt(p: Poly) -> Poly | None:
    """The integer square root of p with positive leading coefficient, or None,
    by the coefficient recurrence ``Poly.sqrt`` used before its one kernel
    call: the root's top coefficient is isqrt of p's, and each next one down is
    what is left of p's coefficient, divided by twice the top one."""
    if p.den != 1:
        return None
    cs = p.num
    if not cs:
        return ZERO
    deg = len(cs) - 1
    if deg % 2:
        return None
    lc = cs[-1]
    if lc < 0:
        return None
    root = isqrt(lc)
    if root * root != lc:
        return None
    half = deg // 2
    g = [0] * (half + 1)
    g[half] = root
    for j in range(half - 1, -1, -1):
        acc = cs[j + half]
        for a in range(j + 1, half):
            acc -= g[a] * g[j + half - a]
        q, rem = divmod(acc, 2 * root)
        if rem:
            return None
        g[j] = q
    cand = Poly(g)
    return cand if cand * cand == p else None


@st.composite
def sqrt_inputs(draw):
    """Squares of roots of degree up to 40 with coefficients up to 2^300 of
    either sign, and near misses: squares tampered by a small monomial,
    negated, doubled, divided by an integer, or times x (odd degree, yet a
    square value at every even power of two), and random odd-degree ones."""
    bits = draw(st.sampled_from([1, 8, 64, 300]))
    coeff = st.integers(min_value=-(1 << bits), max_value=1 << bits)
    f = Poly(draw(st.lists(coeff, max_size=41))).square()
    kind = draw(st.sampled_from(["square", "tampered", "negated", "doubled", "rational", "times x", "odd"]))
    if kind == "tampered":
        f += draw(st.sampled_from([-2, -1, 1, 2])) * X ** draw(st.integers(0, max(f.degree, 0)))
    elif kind == "negated":
        f = -f
    elif kind == "doubled":
        f = 2 * f
    elif kind == "rational":
        f = f / draw(st.integers(min_value=2, max_value=9))
    elif kind == "times x":
        f = f * X
    elif kind == "odd":
        degree = 2 * draw(st.integers(min_value=0, max_value=19)) + 1
        f = Poly(draw(st.lists(coeff, min_size=degree, max_size=degree)) + [draw(coeff.filter(bool))])
    return f


class TestSqrt:
    def test_perfect_square(self):
        assert Poly("x^4+2x^2+1").sqrt() == Poly("x^2+1")

    def test_no_root(self):
        assert Poly("x^2+1").sqrt() is None
        assert Poly("-x^2").sqrt() is None
        assert Poly("2x^2").sqrt() is None
        # Square values at x = 256, whose roots 2^15 - 2^7 and 2^12 need
        # the kernel's spare digit: at one digit per root coefficient, their
        # half-range offset would carry out of the top one.
        assert Poly("16256x^2+64x").sqrt() is None
        assert Poly("x^3").sqrt() is None

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

    @settings(max_examples=400, deadline=None)
    @given(sqrt_inputs())
    def test_matches_the_coefficient_recurrence(self, f):
        assert f.sqrt() == reference_sqrt(f)

    def test_roots_past_a_byte_boundary(self):
        # Root coefficients at and just past 2^(8t-1), the half range of a
        # t-byte digit, with up to 8 of them: the Parseval bound isqrt(|f|)
        # then has 8t to 8t+3 bits, so the root is read at t+1 bytes, and at
        # t bytes these digits would be misread.
        rng = random.Random(26)
        for t in range(1, 5):
            edge = 1 << (8 * t - 1)
            for length in range(1, 9):
                for _ in range(4):
                    g = [rng.choice((-1, 1)) * (edge + rng.randint(0, 2)) for _ in range(length)]
                    g = Poly(g[:-1] + [abs(g[-1])])
                    f = g.square()
                    assert isqrt(sum(map(abs, f.num))).bit_length() in range(8 * t, 8 * t + 4)
                    assert f.sqrt() == g == reference_sqrt(f)
                    assert (f + 1).sqrt() is None

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
    def test_root_past_the_digit_limit(self):
        # isqrt(|f|) >= 2^300 here, so f is read at x = 2^(8w) > 2^300, where
        # f(x) = g(x)^2 > x^80 / 4 has more than 7000 decimal digits: past
        # the default int/str limit of 4300, and under the lowest limit there
        # is, the root converts nothing to text.
        g = Poly([(-1) ** i * ((1 << 300) - i) for i in range(41)])
        f = g.square()
        assert 2 ** (300 * f.degree - 2) > 10**7000
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert f.sqrt() == g
            assert (f - 1).sqrt() is None
        finally:
            sys.set_int_max_str_digits(limit)


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

    @pytest.mark.parametrize(
        "bad, message, position",
        [
            ("", "empty polynomial", 0),
            (" \t", "empty polynomial", 2),
            ("+x", "expected a coefficient or 'x'", 0),
            ("x+", "expected a coefficient or 'x'", 2),
            ("--x", "expected a coefficient or 'x'", 1),
            ("x+ +1", "expected a coefficient or 'x'", 3),
            ("2 x", "unexpected character 'x'", 2),
            ("x2", "unexpected character '2'", 1),
            ("3y", "unexpected character 'y'", 1),
            ("x^ 2", "expected exponent digits", 2),
            ("x^^2", "expected exponent digits", 2),
            ("2x^", "expected exponent digits", 3),
            ("²", "malformed number", 0),
            ("1²", "malformed number", 0),
            ("x^²", "malformed number", 2),
            ("٣x", "malformed number", 0),
            ("x+１", "malformed number", 2),
            ("x^100001", "exponent above the maximum degree 100000", 2),
        ],
    )
    def test_parse_error_message_and_position(self, bad, message, position):
        with pytest.raises(ParseError) as exc:
            parse_poly(bad)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

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
        [
            {"coeffs": "12"},
            {"coeffs": ("1", "2")},
            {"coeffs": ["1"], "den": "2"},
            {"coeffs": ["1"], "den": ("2",)},
            [1],
            None,
            "x",
            {"den": None},
        ],
    )
    def test_rejects_fields_that_are_not_lists(self, data):
        # A string would be read character by character: "12" as 2x+1.  Data
        # that is no dict, or has no coeffs, is no Poly either.
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
        # A digit run past the interpreter's int/str digit limit (4300 by
        # default) is read all the same, as format_poly writes it.
        digits = "1" * 5000
        assert parse_poly(digits) == Poly([int(Decimal(digits))])
        assert parse_poly(f"x^2-{digits}x").coeffs == (0, -int(Decimal(digits)), 1)

    def test_format_round_trip_past_the_digit_limit(self):
        # The CLI prints such coefficients, e.g. solve -f 1<1100 zeros>x
        # -d -1 -n 4, and verify and identify must read them back.
        big = 7 * 10**4400 + 3
        for p in (Poly([big, 0, -big]), Poly([-1, big]) ** 2, Poly([1, 0, 1]) * big):
            assert parse_poly(format_poly(p)) == p


wide_coeff = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**1000), max_value=2**1000),
)


def int_coeffs(length):
    """Coefficient lists of exactly ``length`` terms (nonzero leading)."""
    return st.lists(wide_coeff, min_size=length, max_size=length).map(
        lambda cs: cs[:-1] + [cs[-1] or -1]
    )


LENGTHS = [1, 3, KRONECKER_FLOOR - 1, KRONECKER_FLOOR, ALWAYS_KRONECKER - 1, ALWAYS_KRONECKER, 2 * ALWAYS_KRONECKER + 5]
any_length = st.sampled_from(LENGTHS).flatmap(int_coeffs)


def kronecker_product(a, b) -> list:
    """a*b by Kronecker substitution at any lengths, at the radix ``_kernel``
    takes for it (a square when b is a)."""
    bits = _kronecker_bits((a,), (b,))
    return _kronecker((a,), (b,), bits, _decimal_digits(min(len(a), len(b)), bits))


class TestKronecker:
    """The Kronecker kernel against the schoolbook loops it stands in for."""

    @settings(max_examples=60, deadline=None)
    @given(any_length, any_length)
    def test_mul_matches_schoolbook(self, a, b):
        assert kronecker_product(a, b) == _mul_schoolbook(a, b)

    @settings(max_examples=60, deadline=None)
    @given(any_length)
    def test_square_matches_schoolbook(self, a):
        assert kronecker_product(a, a) == _mul_schoolbook(a, list(a))

    def test_extreme_coefficients(self):
        # All coefficients at +-2^k make every product coefficient reach the
        # bound that sets the digit width.
        for k in (0, 7, 8, 63, 64):
            for sign in (1, -1):
                a = [sign * 2**k] * ALWAYS_KRONECKER
                b = [-(2**k)] * (ALWAYS_KRONECKER + 3)
                assert kronecker_product(a, b) == _mul_schoolbook(a, b)
                assert kronecker_product(a, a) == _mul_schoolbook(a, list(a))

    def test_fraction_operands_match_schoolbook(self):
        # Rational operands go through the kernel on their integer numerators.
        p = Poly([Fraction(1, 3)] + [1] * ALWAYS_KRONECKER)
        q = Poly(list(range(1, ALWAYS_KRONECKER + 2)))
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
    return _mul_schoolbook(a, list(b))


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
    a = operand(rng, draw(st.sampled_from([ALWAYS_KRONECKER, 100, 255])), k, pattern)
    kind = draw(st.sampled_from(["square", "copy", "product"]))
    if kind != "product":
        return a, (a if kind == "square" else list(a))
    k = draw(st.sampled_from([k, 8, 1057]))
    return a, operand(rng, draw(st.sampled_from([ALWAYS_KRONECKER, 100, 255, 400])), k, pattern)


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
            want = _mul_schoolbook(a, list(a))
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
                assert out == _mul_schoolbook(a, list(a))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_callers_decimal_context_is_neither_used_nor_changed(self):
        a = [(-1) ** i * 3**300 + i for i in range(ALWAYS_KRONECKER)]
        b = [7**300 - i for i in range(ALWAYS_KRONECKER + 5)]
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
        assert square.num == tuple(_mul_schoolbook(p.num, list(p.num)))
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
    return _kernel(min(len(a), len(b)), (a,), (b,))


class Unread:
    """A stand-in operand of ``n`` coefficients that fails when one is read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __iter__(self):
        raise AssertionError("a coefficient was read")


# (short, long, bits, Kronecker expected) on both sides of the floor and of
# KRONECKER_MIN_WORK, in the band of lengths where the work decides, at
# narrow and wide coefficients alike.
PRODUCT_BAND = [
    (9, 200, 40, False),  # below the floor, whatever the work
    (10, 25, 24, False),  # work 250
    (10, 26, 24, True),  # work 260
    (10, 26, 256, True),
    (10, 26, 257, True),
    (10, 26, 2000, True),
    (15, 17, 24, False),  # work 255
    (16, 16, 24, True),  # work 256
    (16, 16, 256, True),
    (16, 16, 257, True),
    (31, 31, 24, True),
    (31, 31, 256, True),
    (31, 31, 257, True),
    (32, 60, 257, True),
]
# The same for squares, n x n: 225 work at 15 coefficients, 256 at 16.
SQUARE_BAND = [
    (9, 9, 40, False),
    (15, 15, 24, False),
    (15, 15, 1000, False),
    (16, 16, 24, True),
    (16, 16, 257, True),
    (17, 17, 24, True),
    (18, 18, 24, True),
    (18, 18, 256, True),
    (18, 18, 257, True),
    (31, 31, 24, True),
    (31, 31, 256, True),
    (31, 31, 257, True),
    (32, 32, 257, True),
]


class TestKernelChoice:
    """The one kernel rule: products on both sides of each boundary against
    the schoolbook reference."""

    def test_band_constants(self):
        # The cases above sit on both sides of the rule's two constants, and
        # ALWAYS_KRONECKER is past both.
        assert KRONECKER_FLOOR == 10
        assert 10 * 25 < KRONECKER_MIN_WORK <= 10 * 26
        assert 15 * 17 < KRONECKER_MIN_WORK <= 16 * 16
        assert ALWAYS_KRONECKER >= KRONECKER_FLOOR and ALWAYS_KRONECKER**2 >= KRONECKER_MIN_WORK
        # LOPSIDED's cases straddle the decimal rule's two bounds.
        assert KRONECKER_DECIMAL_MIN_BITS == 200_000
        assert least_digits(_DECIMAL_MAX_BITS) == 640 < least_digits(_DECIMAL_MAX_BITS + 1)

    def test_below_the_floor_reads_no_coefficient(self):
        # Sweep and high-index make thousands of products with a short
        # operand, and degree-m thousands of sums below the least work: the
        # lengths decide them.  Kronecker reads the coefficients, for its radix.
        assert _kernel(KRONECKER_FLOOR - 1, None, None) == (0, 0)
        with pytest.raises(TypeError):
            _kernel(KRONECKER_FLOOR, None, None)
        a, square = Unread(KRONECKER_FLOOR), Unread(15)
        assert _kernel(KRONECKER_FLOOR, (a,), (Unread(25),)) == (0, 0)
        assert _kernel(15, (square,), (square,)) == (0, 0)
        assert _kernel(KRONECKER_FLOOR, (a, a), (Unread(12), Unread(12))) == (0, 0)
        with pytest.raises(AssertionError, match="read"):
            _kernel(KRONECKER_FLOOR, (a,), (Unread(26),))

    @pytest.mark.parametrize("short, long, bits, kronecker", PRODUCT_BAND)
    def test_product_band(self, short, long, bits, kronecker):
        a, b = shaped(short, long, bits)
        kernel = (bits, _decimal_digits(short, bits)) if kronecker else (0, 0)
        assert kernel_of(a, b) == kernel_of(b, a) == kernel
        want = Poly(_mul_schoolbook(a, b))
        assert Poly(a) * Poly(b) == want and Poly(b) * Poly(a) == want

    @pytest.mark.parametrize("n, _, bits, kronecker", SQUARE_BAND)
    def test_square_band(self, n, _, bits, kronecker):
        a, _ = shaped(n, n, bits)
        assert _kernel(n, (a,), (a,)) == ((_kronecker_bits((a,), (a,)), 0) if kronecker else (0, 0))
        p = Poly(a)
        assert p.square() == Poly(_mul_schoolbook(a, list(a))) == p * Poly(list(a))

    def test_sums_count_the_work_of_every_pair(self):
        # One 10 x 12 product is below the least work; three are not.
        a, b = shaped(KRONECKER_FLOOR, 12, 60)
        assert KRONECKER_FLOOR * 12 < KRONECKER_MIN_WORK <= 3 * KRONECKER_FLOOR * 12
        assert kernel_of(a, b) == (0, 0)
        assert _kernel(KRONECKER_FLOOR, [a] * 3, [b] * 3)[0]

    def test_squares_in_decimal_is_the_balanced_rule(self):
        # point_test declines an operand whose square the decimal rule takes,
        # the earlier balanced one: it packs to KRONECKER_DECIMAL_MIN_BITS and
        # its digits fit in 640.
        for n in (KRONECKER_FLOOR, 15, 16, ALWAYS_KRONECKER, 100, 255, 577):
            for bits in range(40, 2300, 37):
                j = least_digits(bits)
                earlier = n * bits >= KRONECKER_DECIMAL_MIN_BITS and j <= 640
                cs = [1] * n
                with mock.patch.object(pellred.kernels, "_kronecker_bits", return_value=bits):
                    assert point_test_declines(cs) is earlier, (n, bits)

    @pytest.mark.parametrize("cutoff", [KRONECKER_DECIMAL_MIN_BITS, 0, 20_000])
    def test_squares_in_decimal_asks_the_kernel(self, cutoff):
        # point_test's length test only skips squares that cannot reach the cut-off.
        assert max(b for b in range(1, 3000) if _decimal_digits(10**6, b)) == _DECIMAL_MAX_BITS
        with mock.patch.object(pellred.kernels, "KRONECKER_DECIMAL_MIN_BITS", cutoff):
            for n in (KRONECKER_FLOOR, 15, 16, ALWAYS_KRONECKER, 94, 95, 100):
                for top in (1, 300, 1060, 1061, 1100):
                    cs = [(1 << top) - 1] * n
                    assert point_test_declines(cs) is (_kernel(n, (cs,), (cs,))[1] > 0), (n, top)

    # (short, long, bits, decimal) on both sides of short * bits =
    # KRONECKER_DECIMAL_MIN_BITS and of j = 640 (bits = _DECIMAL_MAX_BITS).
    # The longer length plays no part: lopsided products whose shorter side
    # packs to 100-200 kbit stay binary, however long the other side.
    LOPSIDED = [
        (100, 300, 2000, True),  # 100 * 2000 = 200 000
        (100, 300, 1999, False),
        (99, 2000, 2020, False),  # 199 980 bits, with a 4 Mbit longer side
        (100, 300, 1000, False),  # a 100 kbit shorter side
        (99, 310, 1000, False),
        (100, 299, 1000, False),
        (40, 400, 2119, False),
        (48, 400, 2117, False),  # a 102 kbit shorter side, j = 639
        (150, 150, 1334, True),  # a balanced shape: 150 * 1334 >= 200 000
        (150, 150, 1333, False),
        (95, 400, 2122, True),  # j = 640
        (95, 400, 2123, False),  # j = 641
        (48, 400, 2124, False),
        (95, 95, 2122, True),
        (95, 95, 2123, False),
    ]

    @pytest.mark.parametrize("short, long, bits, decimal", LOPSIDED)
    def test_lopsided_decimal(self, short, long, bits, decimal):
        a, b = shaped(short, long, bits, seed=short + long)
        assert kernel_of(a, b) == kernel_of(b, a) == (bits, least_digits(bits) if decimal else 0)
        want = Poly(_mul_schoolbook(a, b))
        with mock.patch.object(pellred.kernels, "_kronecker_decimal", wraps=_kronecker_decimal) as spy:
            assert Poly(a) * Poly(b) == want and Poly(b) * Poly(a) == want
        assert spy.call_count == 2 * decimal


def reference_dot(xs, ys) -> Poly:
    """The sum of the products, each by schoolbook over int/Fraction coefficients."""
    total = ZERO
    for x, y in zip(xs, ys):
        if x and y:
            total = total + Poly(_mul_schoolbook(x.coeffs, y.coeffs))
    return total


# Lengths on both sides of the floor and of KRONECKER_MIN_WORK, zero included.
DOT_LENGTHS = [0, 1, 3, KRONECKER_FLOOR - 1, KRONECKER_FLOOR, 15, 16, ALWAYS_KRONECKER - 1, ALWAYS_KRONECKER, 40]
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
    @pytest.mark.parametrize("length", [KRONECKER_FLOOR - 1, ALWAYS_KRONECKER])
    def test_both_kernels_on_cancelling_sums(self, extra, length):
        # x*y - x*y summed with ``extra`` short pairs: the top coefficients
        # cancel, so the unpacked sum has trailing zeros to strip.
        rng = random.Random(extra * 100 + length)
        x = Poly([rng.randrange(-(2**90), 2**90) for _ in range(length - 1)] + [3])
        y = Poly([rng.randrange(-(2**90), 2**90) for _ in range(length - 1)] + [-5])
        small = [Poly([rng.randrange(-9, 10) for _ in range(3)]) for _ in range(extra)]
        xs, ys = [x, -x] + small, [y, y] + small[::-1]
        with mock.patch.object(pellred.kernels, "_kronecker", wraps=_kronecker) as spy:
            got = dot(xs, ys)
        assert spy.called is (length >= ALWAYS_KRONECKER)
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


# An operand whose square packs past the decimal cut-off (2 * 100 * ~2010 bits).
DECIMAL_LENGTH = 100


@st.composite
def dots_batches(draw):
    """A batch of sums drawn from one pool of Polys, so that sums share
    operand objects and pairs may be squares (x is y): int, Fraction and
    zero operands of lengths across the floor and 32, now and then a
    decimal-length operand with a sum of its square, and a sum whose top
    coefficients cancel."""
    rational = draw(st.booleans())
    coeff = st.one_of(dot_coeff, dot_fraction) if rational else dot_coeff
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from(DOT_LENGTHS))
        pool.append(Poly(draw(st.lists(coeff, min_size=n, max_size=n))))
    wide = draw(st.booleans())
    if wide:  # seeded, as drawing its 100 kbit would overrun hypothesis's buffer
        rng = random.Random(draw(st.integers(0, 2**32)))
        pool.append(Poly([rng.randrange(-(2**1000), 2**1000) for _ in range(DECIMAL_LENGTH - 1)] + [2**1000]))
    index = st.integers(0, len(pool) - 1)
    sums = []
    for _ in range(draw(st.integers(1, 6))):
        pairs = draw(st.lists(st.tuples(index, index), min_size=0, max_size=5))
        sums.append(([pool[i] for i, _ in pairs], [pool[j] for _, j in pairs]))
    if wide:  # a decimal sum, when its operands are integral
        sums.append(([pool[-1], pool[draw(index)]], [pool[-1], pool[draw(index)]]))
    if draw(st.booleans()):  # x*y - x*y plus one more pair: the top cancels
        x, y, z = (pool[draw(index)] for _ in range(3))
        sums.append(([x, -x, z], [y, y, z]))
    return sums


def lone_kernel(xs, ys):
    """``_kernel``'s answer for the integer sum of xs*ys taken alone, with its
    zero pairs dropped; None for a sum that ``dots`` takes as one product, as
    the plain sum of its products or as zero."""
    pairs = [(x.num, y.num) for x, y in zip(xs, ys) if x and y]
    if len(pairs) < 2 or any(not (x.is_integral() and y.is_integral()) for x, y in zip(xs, ys)):
        return None
    short = max(min(len(a), len(b)) for a, b in pairs)
    return _kernel(short, [a for a, _ in pairs], [b for _, b in pairs])


class TestDots:
    """``dots``, the batch form of ``dot``: every sum as it would be alone."""

    @settings(max_examples=80, deadline=None)
    @given(dots_batches())
    def test_matches_each_sum_alone(self, sums):
        got = dots(sums)
        assert got == [reference_dot(xs, ys) for xs, ys in sums]
        assert got == [sum((x * y for x, y in zip(xs, ys)), ZERO) for xs, ys in sums]
        assert all(p.num == () or p.num[-1] != 0 for p in got)  # canonical

    def test_one_pair_is_that_product(self):
        # No addition: the product itself, for an integer or rational pair.
        x, y, half = Poly("x^2-3"), Poly("2x+1"), Poly([Fraction(1, 2), 1])
        with mock.patch.object(Poly, "__add__", side_effect=AssertionError("added")):
            assert dots([([x, ZERO], [y, x]), ([half], [y]), ([x], [x])]) == [x * y, half * y, x * x]

    def test_mixed_kernels_in_one_batch(self):
        # A schoolbook, a binary and a decimal sum sharing operands, a square,
        # a cancelling sum, a one-pair sum, a rational sum and an empty one.
        rng = random.Random(18)
        short = Poly([rng.randrange(-9, 10) for _ in range(4)] + [1])
        mid = Poly([rng.randrange(-(2**60), 2**60) for _ in range(ALWAYS_KRONECKER)])
        wide = Poly([rng.randrange(-(2**1000), 2**1000) for _ in range(DECIMAL_LENGTH)])
        half = Poly([Fraction(1, 2), 3])
        sums = [
            ([short, short], [mid, short]),
            ([mid, mid, short], [mid, short, mid]),
            ([wide, mid], [wide, wide]),
            ([mid, -mid], [wide, wide]),
            ([mid], [wide]),
            ([half, short], [short, mid]),
            ([], []),
        ]
        with (
            mock.patch.object(pellred.kernels, "_kronecker", wraps=_kronecker) as kron,
            mock.patch.object(pellred.kernels, "_mul_schoolbook", wraps=_mul_schoolbook) as school,
        ):
            got = dots(sums)
        assert got == [reference_dot(xs, ys) for xs, ys in sums]
        assert got[3] == ZERO and got[6] == ZERO
        radices = [(c.args[2], c.args[3]) for c in kron.call_args_list]
        assert sum(j > 0 for _, j in radices) >= 1 and sum(j == 0 for _, j in radices) >= 2
        assert school.called

    def test_each_sum_takes_its_own_kernel(self):
        # The kernel each sum takes inside a batch is _kernel's answer for
        # that sum alone; the batch's binary sums share the widest radix.
        rng = random.Random(7)

        def poly(length, top):
            return Poly([rng.randrange(-(2**top), 2**top) for _ in range(length - 1)] + [1])

        # Equal lengths with unequal coefficient sizes, so a pack remembered
        # for the wrong operand would show.
        shapes = [(3, 5), (12, 20), (12, 200), (20, 40), (24, 8), (32, 90), (32, 700), (40, 300), (DECIMAL_LENGTH, 1000)]
        pool = [poly(n, top) for n, top in shapes]
        windows = range(len(pool) - 2)
        sums = [(pool[i : i + 3], pool[j : j + 3][::-1]) for i in windows for j in windows]
        sums += [([x, x], [x, y]) for x in pool for y in pool]
        taken = {}

        def record(xs, ys, bits, j, packs=None):
            taken[tuple(xs), tuple(ys)] = bits, j
            return _kronecker(xs, ys, bits, j, packs)

        with mock.patch.object(pellred.kernels, "_kronecker", side_effect=record):
            got = dots(sums)
        assert got == [reference_dot(xs, ys) for xs, ys in sums]
        alone = [lone_kernel(xs, ys) for xs, ys in sums]
        widest = max(bits for bits, j in alone if bits and not j)
        for (xs, ys), (bits, j) in zip(sums, alone):
            key = tuple(x.num for x in xs), tuple(y.num for y in ys)
            if not bits:
                assert key not in taken
            else:
                assert taken[key] == ((bits, j) if j else (widest, 0))
        kinds = {(bool(bits), bool(j)) for bits, j in alone}
        assert kinds == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("rest", [1, 2, 4])
    def test_a_bareiss_step_packs_each_operand_once(self, rest):
        # The cross terms pivot*a[i][j] - c[i]*r[j] of one elimination step
        # over ``rest`` rows and columns: (rest + 1)^2 distinct operands.
        rng = random.Random(rest)

        def poly():
            top = rng.choice([3, 50, 120])  # equal lengths, unequal sizes
            return Poly([rng.randrange(-(2**top), 2**top) for _ in range(ALWAYS_KRONECKER + 3)])

        pivot, col, row = poly(), [poly() for _ in range(rest)], [poly() for _ in range(rest)]
        a = [[poly() for _ in range(rest)] for _ in range(rest)]
        scales = [(pivot, -c) for c in col]
        sums = [(scales[i], (a[i][j], row[j])) for i in range(rest) for j in range(rest)]
        with mock.patch.object(pellred.kernels, "kronecker_pack", wraps=kronecker_pack) as spy:
            got = dots(sums)
        assert spy.call_count == (rest + 1) ** 2
        assert got == [pivot * a[i][j] - col[i] * row[j] for i in range(rest) for j in range(rest)]

    def test_fresh_operands_from_generators(self):
        # Every Poly is made as it is drawn and has no other reference, so an
        # operand freed before its batch is done, or a memo kept past its
        # batch, would hand a freed operand's id, and with it a stale scan
        # or pack, to a later one.  The batches alternate narrow and wide
        # coefficients at one length, so that a stale entry shows.
        rng = random.Random(24)

        def coeffs(top):
            return [rng.randrange(-(2**top), 2**top) for _ in range(ALWAYS_KRONECKER - 1)] + [1]

        def fresh(specs):
            for xs, ys in specs:
                yield (Poly(cs) for cs in xs), (Poly(cs) for cs in ys)

        for top in [3, 400] * 10:
            specs = [([coeffs(top), coeffs(top)], [coeffs(top), coeffs(top)]) for _ in range(rng.randint(1, 3))]
            specs += [([coeffs(top)], [coeffs(3)]), ([coeffs(top), [1, 2]], [[Fraction(1, 2), 1], [3]])]
            want = [reference_dot([Poly(cs) for cs in xs], [Poly(cs) for cs in ys]) for xs, ys in specs]
            assert dots(fresh(specs)) == want


def schoolbook_sum(xs, ys) -> list:
    """The sum of x*y over the pairs, each by the general schoolbook loop (a
    copy of y, so that no pair is taken as a square), trailing zeros kept."""
    acc = [0] * max(len(x) + len(y) - 1 for x, y in zip(xs, ys))
    for x, y in zip(xs, ys):
        _mul_schoolbook(x, list(y), acc)
    return acc


@st.composite
def kernel_batches(draw):
    """A batch of integer sums over one pool of coefficient tuples, so that
    sums share operand objects and pairs may be squares (x is y): lengths on
    both sides of KRONECKER_FLOOR and past ALWAYS_KRONECKER, narrow and
    wide coefficients, and now and then a sum that takes the decimal kernel."""
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from([1, 3, KRONECKER_FLOOR - 1, KRONECKER_FLOOR, 16, ALWAYS_KRONECKER, 40]))
        cs = draw(st.lists(dot_coeff, min_size=n, max_size=n))
        pool.append(tuple(cs[:-1] + [cs[-1] or 1]))
    index = st.integers(0, len(pool) - 1)
    sums = []
    for _ in range(draw(st.integers(1, 6))):
        pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=5))
        sums.append(([pool[i] for i, _ in pairs], [pool[j] for _, j in pairs]))
    if draw(st.booleans()):  # seeded, as drawing its 100 kbit would overrun hypothesis's buffer
        rng = random.Random(draw(st.integers(0, 2**32)))
        wide = tuple(rng.randrange(-(2**1000), 2**1000) for _ in range(DECIMAL_LENGTH - 1)) + (2**1000,)
        sums.append(([wide, pool[draw(index)]], [wide, pool[draw(index)]]))
    return sums


class TestKernelCalls:
    """The two public kernel calls against schoolbook, sum by sum, and the
    bit bound that sets their radix."""

    @settings(max_examples=80, deadline=None)
    @given(kernel_batches())
    def test_batch_matches_schoolbook_per_sum(self, sums):
        assert sums_of_products(sums) == [schoolbook_sum(xs, ys) for xs, ys in sums]

    @settings(max_examples=80, deadline=None)
    @given(kernel_batches())
    def test_bit_bound_is_the_per_pair_reference(self, sums):
        # The largest, over the pairs, of product_bits less its length term,
        # plus the bits of the summed shorter lengths; no coefficient of the
        # sum reaches it.
        for xs, ys in sums:
            shorter = [min(len(x), len(y)) for x, y in zip(xs, ys)]
            top = max(product_bits(x, y) - n.bit_length() for x, y, n in zip(xs, ys, shorter))
            bits = _kronecker_bits(xs, ys)
            assert bits == top + sum(shorter).bit_length()
            assert max(map(abs, schoolbook_sum(xs, ys))) < 1 << bits

    def test_batch_takes_every_kernel(self):
        # One batch with a schoolbook, a binary and a decimal sum, a square
        # in each, against schoolbook.
        rng = random.Random(3)
        short = tuple(rng.randrange(-9, 10) for _ in range(5))
        mid = tuple(rng.randrange(-(2**60), 2**60) for _ in range(ALWAYS_KRONECKER))
        wide = tuple(rng.randrange(-(2**1000), 2**1000) for _ in range(DECIMAL_LENGTH))
        sums = [([short, short], [short, mid]), ([mid, mid], [mid, short]), ([wide, mid], [wide, mid])]
        kernels = [lone_kernel([Poly(x) for x in xs], [Poly(y) for y in ys]) for xs, ys in sums]
        assert [(bool(bits), bool(j)) for bits, j in kernels] == [(False, False), (True, False), (True, True)]
        assert sums_of_products(sums) == [schoolbook_sum(xs, ys) for xs, ys in sums]

    @settings(max_examples=60, deadline=None)
    @given(any_length, any_length)
    def test_product_matches_schoolbook(self, a, b):
        assert product(a, b) == schoolbook_sum([a], [b])
        assert product(a, a) == schoolbook_sum([a], [a])


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
