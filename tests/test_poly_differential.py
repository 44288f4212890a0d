"""Differential tests of the num/den Poly against the int/Fraction tuple form.

``RefPoly`` is the earlier representation, kept here only as a reference: a
tuple of canonical int/Fraction coefficients on which every operation works
coefficient by coefficient in Fraction arithmetic.  Each operation of
``Poly`` must give the same coefficients, JSON form and text as the reference
on mixed int/Fraction operands, negative and non-unit leading coefficients,
zero, and coefficients past the interpreter's 4300-digit int-to-str limit.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from pellred.kernels import KRONECKER_FLOOR, _mul_schoolbook
from pellred.polyring import ONE, Poly, decimal_str, format_poly


def _canon(coeffs) -> tuple:
    """The reference's canonical form: a Fraction with denominator 1 demoted
    to int, trailing zeros stripped."""
    out = [c.numerator if c.denominator == 1 else c for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class RefPoly:
    """The int/Fraction tuple representation the num/den form replaced."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _canon(coeffs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RefPoly):
            a, b = self.coeffs, other.coeffs
            return RefPoly(_mul_schoolbook(a, b) if a and b else ())
        return RefPoly([c * other for c in self.coeffs])

    def __truediv__(self, scalar):
        return self * (Fraction(1) / scalar)

    def square(self):
        return RefPoly(_mul_schoolbook(self.coeffs, list(self.coeffs)) if self.coeffs else ())

    def __divmod__(self, other):
        da, db = len(self.coeffs) - 1, len(other.coeffs) - 1
        if db < 0:
            raise ZeroDivisionError("polynomial division by zero")
        if da < db:
            return RefPoly(), self
        inv = Fraction(1) / other.coeffs[-1]
        rem = list(self.coeffs)
        quot = [0] * (da - db + 1)
        for k in range(da - db, -1, -1):
            t = rem[k + db] * inv
            quot[k] = t
            for j in range(db + 1):
                rem[k + j] -= t * other.coeffs[j]
        return RefPoly(quot), RefPoly(rem[:db])

    def to_json(self):
        if all(isinstance(c, int) for c in self.coeffs):
            return {"coeffs": [decimal_str(c) for c in self.coeffs]}
        fracs = [Fraction(c) for c in self.coeffs]
        return {
            "coeffs": [decimal_str(f.numerator) for f in fracs],
            "den": [decimal_str(f.denominator) for f in fracs],
        }

    def format(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if isinstance(mag, Fraction):
                text = f"{decimal_str(mag.numerator)}/{decimal_str(mag.denominator)}"
            else:
                text = decimal_str(mag)
            if e == 0:
                body = text
            else:
                power = "x" if e == 1 else f"x^{e}"
                body = power if mag == 1 else f"{text}{power}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)


def assert_same(p: Poly, ref: RefPoly):
    """p holds the reference's value, in canonical num/den form."""
    assert all(type(c) is int for c in p.num) and type(p.den) is int
    assert not p.num or p.num[-1] != 0
    assert p.den > 0 and gcd(p.den, *p.num) == 1
    assert p.num or p.den == 1
    assert p.coeffs == ref.coeffs
    assert [type(c) for c in p.coeffs] == [type(c) for c in ref.coeffs]
    assert p.is_integral() == all(isinstance(c, int) for c in ref.coeffs)
    assert p.to_json() == ref.to_json()
    assert format_poly(p) == ref.format()


HUGE = 10**4400


# Mapped rather than bounded: hypothesis reprs a strategy's bounds, and str()
# of an int past the limit raises.
past_limit = st.integers(-(2**64), 2**64).map(lambda k: k + HUGE if k >= 0 else k - HUGE)
ints = st.one_of(st.integers(-4, 4), st.integers(-(2**64), 2**64), past_limit)
dens = st.one_of(st.integers(1, 12), st.integers(1, 2**70), past_limit.map(abs))
fracs = st.builds(Fraction, ints, dens)
coeff = st.one_of(ints, fracs)
short_lists = st.lists(coeff, max_size=6)
coeff_lists = st.one_of(
    short_lists,
    # Integer-only operands long enough for the Kronecker kernel: from 32
    # coefficients always, and from the floor to 31 where the product's
    # schoolbook work reaches KRONECKER_MIN_WORK.
    st.lists(st.integers(-(2**40), 2**40), min_size=32, max_size=35),
    st.lists(st.integers(-(2**40), 2**40), min_size=KRONECKER_FLOOR - 1, max_size=31),
)


def both(cs):
    return Poly(cs), RefPoly(cs)


def with_reference(lists):
    return lists.map(both)


pairs = with_reference(coeff_lists)
# Long division multiplies denominators by the divisor's leading coefficient
# at every step, so its operands stay short.
short_pairs = with_reference(short_lists)
# A scalar travels as a constant Poly, whose repr has no digit limit, so a
# failing example past the limit can still be printed.
scalars = coeff.map(lambda c: Poly([c]))


def operands(const):
    """A scalar operand in each form an operator takes: the int or Fraction
    itself and its constant Poly."""
    return const.leading, const


SETTINGS = settings(max_examples=60, deadline=None)


class TestAgainstReference:
    @SETTINGS
    @given(coeff_lists)
    def test_construction(self, cs):
        assert_same(Poly(cs), RefPoly(cs))

    @SETTINGS
    @given(pairs, pairs)
    def test_add_sub(self, a, b):
        (p, rp), (q, rq) = a, b
        assert_same(p + q, rp + rq)
        assert_same(p - q, rp - rq)
        assert_same(-p, -rp)
        assert_same(p - p, RefPoly())

    @SETTINGS
    @given(pairs, scalars)
    def test_scalar_add_sub(self, a, const):
        (p, rp), rs = a, RefPoly(const.coeffs)
        for s in operands(const):
            assert_same(p + s, rp + rs)
            assert_same(s + p, rp + rs)
            assert_same(p - s, rp - rs)
            assert_same(s - p, rs - rp)
            assert (p == s) == (s == p) == (rp == rs)
            assert (p != s) == (s != p) == (rp != rs)
            assert const == s and hash(const) == hash(s)

    @SETTINGS
    @given(pairs, pairs)
    # A denominator that cancels against the other operand's content.
    @example(both([0, Fraction(1, 2)]), both([2, 4]))
    @example(both([Fraction(3, 4), 1]), both([6]))
    def test_mul(self, a, b):
        (p, rp), (q, rq) = a, b
        assert_same(p * q, rp * rq)
        assert_same(p.square(), rp.square())
        assert_same(p * p, rp.square())
        # k is coprime to p's content, so p / k keeps p's numerator under
        # another denominator: the shared-numerator product.
        k = 1 + gcd(*p.num)
        assert (p / k).num is p.num
        assert_same(p * (p / k), rp * (rp / k))

    @SETTINGS
    @given(pairs, scalars)
    @example(both([1, Fraction(-3, 2)]), Poly(0))
    @example(both([2, 4, 6]), Poly(-1))
    def test_scalar_mul(self, a, const):
        (p, rp), c = a, const.leading
        for s in operands(const):
            assert_same(p * s, rp * c)
            assert_same(s * p, rp * c)

    @SETTINGS
    @given(pairs, scalars.filter(bool))
    @example(both([3, 6, Fraction(9, 5)]), Poly(-3))
    def test_scalar_div(self, a, const):
        (p, rp), c = a, const.leading
        for s in operands(const):
            assert_same(p / s, rp / c)

    @SETTINGS
    @given(short_pairs, scalars)
    def test_scalar_divmod(self, a, const):
        (p, rp), rs = a, RefPoly(const.coeffs)
        for s in operands(const):
            if const.is_zero():
                with pytest.raises(ZeroDivisionError):
                    divmod(p, s)
            else:
                for got, want in zip(divmod(p, s), divmod(rp, rs)):
                    assert_same(got, want)
            if p.is_zero():
                with pytest.raises(ZeroDivisionError):
                    divmod(s, p)
            else:
                for got, want in zip(divmod(s, p), divmod(rs, rp)):
                    assert_same(got, want)

    @SETTINGS
    @given(pairs, st.integers(-(2**70), -1), st.builds(Fraction, ints, dens.filter(lambda d: d > 1)))
    def test_divmod_by_constant(self, a, negative, fraction):
        # A constant divisor scales instead of running the division loop; the
        # reference runs long division.
        p, rp = a
        for const in (ONE, Poly(negative), Poly(fraction), Poly([-fraction])):
            if not const:
                continue
            quot, rem = divmod(p, const)
            rquot, rrem = divmod(rp, RefPoly(const.coeffs))
            assert_same(quot, rquot)
            assert_same(rem, rrem)
            assert rem == 0
            assert p.div_exact(const) == quot

    @SETTINGS
    @given(pairs, st.booleans())
    def test_bool_operands(self, a, flag):
        # A bool is an int; results must still hold exact ints.
        (p, rp), c = a, int(flag)
        rs = RefPoly([c])
        assert_same(Poly(flag), rs)
        assert_same(p * flag, rp * c)
        assert_same(flag * p, rp * c)
        assert_same(p + flag, rp + rs)
        assert_same(flag - p, rs - rp)
        assert (p == flag) == (rp == rs)
        if flag:
            assert_same(p / flag, rp)
            assert_same(divmod(p, flag)[0], rp)

    def test_div_by_zero(self):
        for p in (Poly(), Poly([Fraction(1, 2), 3])):
            for zero in (0, Fraction(0), False, Poly()):
                with pytest.raises(ZeroDivisionError):
                    p / zero
                with pytest.raises(ZeroDivisionError):
                    divmod(p, zero)

    def test_non_constant_divisor_refused(self):
        with pytest.raises(TypeError):
            Poly("x^2") / Poly("x")

    @SETTINGS
    @given(short_pairs, short_pairs)
    def test_divmod(self, a, b):
        (p, rp), (q, rq) = a, b
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(p, q)
            return
        (quot, rem), (rquot, rrem) = divmod(p, q), divmod(rp, rq)
        assert_same(quot, rquot)
        assert_same(rem, rrem)

    @SETTINGS
    @given(short_pairs, short_pairs.filter(lambda pair: not pair[0].is_zero()))
    def test_div_exact(self, a, b):
        (p, rp), (q, rq) = a, b
        assert_same((p * q).div_exact(q), rp)
        if not divmod(rp, rq)[1].coeffs:
            assert_same(p.div_exact(q), divmod(rp, rq)[0])
        else:
            with pytest.raises(ValueError):
                p.div_exact(q)

    @SETTINGS
    @given(pairs, pairs)
    def test_equality_and_hash(self, a, b):
        (p, rp), (q, rq) = a, b
        assert (p == q) == (rp == rq)
        same = (p + q) - q
        assert same == p and hash(same) == hash(p)
        assert Poly(p.coeffs) == p and hash(Poly(p.coeffs)) == hash(p)

    @SETTINGS
    @given(pairs)
    def test_json_roundtrip(self, a):
        p, _ = a
        assert Poly.from_json(p.to_json()) == p
