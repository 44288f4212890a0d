"""Exact dense univariate polynomials over the integers and rationals.

A polynomial is stored as ``num / den``: ``num`` is a tuple of ints in
ascending order of exponent with no trailing zeros, and ``den`` is one
positive int with ``gcd(den, *num) == 1`` (``den == 1`` for the zero
polynomial), as in FLINT's ``fmpq_poly``.  With that canonical form,
equality is structural, integrality is ``den == 1`` and every kernel runs on
ints only.  ``coeffs`` is the int/Fraction view of the same value, built on
access.  Only this module reads ``num`` and ``den``.  Polynomials are
immutable values: ``Poly(p)`` is ``p`` itself, and every operation returns a
canonical polynomial.

Products run on the integer numerators through the two calls of
``pellred.kernels``: ``Poly.__mul__`` makes one ``kernels.product`` call, and
``dots`` one ``kernels.sums_of_products`` call per batch.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul, neg, sub

from .kernels import product, sums_of_products

#: Degree of the zero polynomial.  A real sentinel (not -1) so that degree
#: comparisons work and it never equals a real degree.  Arithmetic on it is
#: silent (-inf + 1 is -inf, -inf * 0 is nan), so check for it first.
NEG_INF = float("-inf")


class DomainError(Exception):
    """A well-formed request whose answer does not exist in the domain."""


class NotIntegral(DomainError):
    """A rational polynomial was required to have integer coefficients."""


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def decimal_str(c: int) -> str:
    """Decimal text of an int of any size.

    ``str(c)`` raises ValueError past the interpreter's int-to-str digit
    limit (4300 digits by default); the Decimal conversion has no limit.
    """
    return str(Decimal(c))


def decimal_int(text) -> int:
    """The int written as decimal text, of any size.

    Only the form ``decimal_str`` writes is read: ASCII digits after an
    optional "-", nothing else (no whitespace, "_" or "+", which ``int`` and
    ``Decimal`` would take).  ``int(text)`` raises ValueError past the
    interpreter's str-to-int digit limit; the Decimal conversion has none.
    """
    digits = text.removeprefix("-") if isinstance(text, str) else ""
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer text {text!r}")
    return int(Decimal(text))


def _rational(c: int, den: int):
    """c/den as an int where it divides, else as a Fraction."""
    q, r = divmod(c, den)
    return Fraction(c, den) if r else q


def power(base, n: int, one, product):
    """base**n, n >= 0, under ``product`` with identity ``one``, left to right: one
    square per bit after the top one, then ``product(result, base)`` where it is set."""
    result = base if n else one
    for bit in bin(n)[3:]:
        result = product(result, result)
        if bit == "1":
            result = product(result, base)
    return result


_new = object.__new__


def _make(num: tuple, den: int) -> Poly:
    """A Poly from parts already in canonical form."""
    p = _new(Poly)
    p.num = num
    p.den = den
    return p


def _reduce(num: list, den: int) -> Poly:
    """A Poly from int coefficients over ``den > 0``, put in canonical form."""
    while num and not num[-1]:
        num.pop()
    if den != 1:
        if not num:
            den = 1
        else:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
    return _make(tuple(num), den)


def _operand(x):
    """x as a Poly, an int or Fraction as its constant; else NotImplemented."""
    if isinstance(x, Poly):
        return x
    if type(x) is int or isinstance(x, (int, Fraction)):
        return _make((x.numerator,), x.denominator) if x else ZERO  # an int even for a bool
    return NotImplemented


class Poly:
    """A univariate polynomial with exact coefficients.

    Accepts a coefficient sequence (ascending) or a scalar, each of ints and
    Fractions, or a string in the CLI grammar.  A Poly is returned unchanged,
    and an operator takes a scalar operand as its constant polynomial:

    >>> Poly([1, 0, 2])
    Poly('2x^2+1')
    >>> Poly("x^4-1")
    Poly('x^4-1')
    >>> Poly("x+1") * Poly("x-1")
    Poly('x^2-1')
    >>> Poly("2x^2+3") * Poly("2x")
    Poly('4x^3+6x')
    >>> p = Poly([Fraction(1, 2), 0, Fraction(3, 4)])
    >>> p.num, p.den, p.coeffs
    ((2, 0, 3), 4, (Fraction(1, 2), 0, Fraction(3, 4)))
    >>> Poly(p) is p
    True
    >>> Poly("x") + Fraction(1, 2)
    Poly('x+1/2')
    >>> {Poly(3)} == {3}
    True
    """

    __slots__ = ("num", "den")

    def __new__(cls, coeffs=()):
        if isinstance(coeffs, str):
            return parse_poly(coeffs)
        p = _operand(coeffs)  # a Poly is immutable: like tuple(t), its own conversion
        if p is not NotImplemented:
            return p
        cs = list(coeffs)
        for c in cs:
            # Exact-type test first: isinstance(c, Fraction) is slow on an int (ABCs).
            if type(c) is not int and not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient must be int or Fraction, not {type(c).__name__}")
        # Scaled to the lcm of the reduced denominators, the numerators have
        # no factor in common with it; _reduce strips trailing zeros.
        den = lcm(*(c.denominator for c in cs))
        return _reduce([c.numerator * (den // c.denominator) for c in cs], den)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Canonical coefficients: ints, and Fractions where not integral."""
        if self.den == 1:
            return self.num
        den = self.den
        return tuple(_rational(c, den) for c in self.num)

    @property
    def degree(self):
        """Degree of the polynomial; ``NEG_INF`` for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    @property
    def leading(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return _rational(self.num[-1], self.den) if self.num else 0

    def is_zero(self) -> bool:
        return not self.num

    def is_integral(self) -> bool:
        """True iff every coefficient has denominator 1."""
        return self.den == 1

    def to_integer(self) -> Poly:
        """Return self as an integer polynomial, or raise :class:`NotIntegral`."""
        if self.den != 1:
            raise NotIntegral(f"{self} has non-integer coefficients")
        return self

    def __eq__(self, other) -> bool:
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # A constant hashes as the scalar it equals.
        return hash(self.leading if len(self.num) < 2 else (self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- ring operations ----------------------------------------------------

    def _add_sub(self, other, op) -> Poly:
        """self + other (op is ``add``) or self - other (op is ``sub``)."""
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            den = lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        out = list(map(op, a, b))
        k = len(out)
        if len(a) > k:
            out += a[k:]
        elif len(b) > k:
            out += b[k:] if op is add else map(neg, b[k:])
        return _reduce(out, den)

    def __add__(self, other) -> Poly:
        return self._add_sub(other, add)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        # From a list, so the tuple is allocated at its size and can come from
        # (and return to) the interpreter's free list for that size.
        return _make(tuple([-c for c in self.num]), self.den)

    def __sub__(self, other) -> Poly:
        return self._add_sub(other, sub)

    def __rsub__(self, other) -> Poly:
        other = _operand(other)
        return other if other is NotImplemented else other._add_sub(self, sub)

    def _scale(self, p: int, q: int) -> Poly:
        """self * p / q for ints p and q; q == 0 raises ZeroDivisionError.

        With gcd(den, num) == 1 on entry, cancelling gcd(p, den) and the
        content gcd(q, num) leaves the result in canonical form.
        """
        if q <= 0:  # one test on the common q == 1 path
            if not q:
                raise ZeroDivisionError("polynomial division by zero")
            p, q = -p, -q
        num, den = self.num, self.den
        if not p or not num:
            return ZERO
        if den != 1:
            g = gcd(p, den)
            if g != 1:
                p //= g
                den //= g
        if q != 1:
            g = gcd(q, *num)
            if g != 1:
                q //= g
                num = [c // g for c in num]
            den *= q
        if p != 1:
            num = [c * p for c in num]
        # _make inlined: scaling by a constant is hot enough for the call to show.
        out = _new(Poly)
        out.num = tuple(num)
        out.den = den
        return out

    def __mul__(self, other) -> Poly:
        """self * other.  A constant on either side scales the other operand;
        else the numerators go to one ``kernels.product`` call, which squares
        when they are one tuple (p * p, or p * (p / k))."""
        if isinstance(other, Poly):
            a, b = self.num, other.num
            if not a or not b:
                return ZERO
            if len(b) == 1:
                return self._scale(b[0], other.den)
            if len(a) == 1:
                return other._scale(a[0], self.den)
            out = product(a, b)
            den = self.den * other.den
            # The leading product is nonzero, and by Gauss's lemma a shared
            # numerator squared stays coprime to both denominators.
            return _make(tuple(out), den) if den == 1 or a is b else _reduce(out, den)
        if type(other) is int or isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> Poly:
        if type(other) is int or isinstance(other, (int, Fraction)):
            return self._scale(other.denominator, other.numerator)
        if isinstance(other, Poly) and len(other.num) < 2:
            return self / other.leading  # a constant divides as its scalar
        return NotImplemented

    def square(self) -> Poly:
        """self * self, which takes the squaring kernel."""
        return self * self

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial powers are not defined here")
        return power(self, n, ONE, mul)

    def __divmod__(self, other) -> tuple[Poly, Poly]:
        """Long division over the rationals: self == q*other + r, deg r < deg other.

        Runs on the integer numerators with one running scale s, keeping
        s*num(self) == quot*num(other) + rem.  A step whose quotient is not
        an integer first multiplies quot, rem and s by the least factor that
        makes it one, so exact division (as in Bareiss elimination) stays in
        plain integer arithmetic.  A constant divisor takes no loop: self is
        scaled by its inverse, with one content gcd.
        """
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        b = other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(b) == 1:  # a constant divides as a scale, as Bareiss's first step does by ONE
            return self._scale(other.den, b[0]), ZERO
        da, db = len(self.num) - 1, len(b) - 1
        if da < db:
            return ZERO, self
        lead = b[-1]
        rem = list(self.num)
        quot = [0] * (da - db + 1)
        s = 1
        for k in range(da - db, -1, -1):
            c = rem[k + db]
            if c:
                if c % lead:
                    m = abs(lead) // gcd(c, lead)
                    rem = [x * m for x in rem]
                    quot = [x * m for x in quot]
                    s *= m
                    c *= m
                t = c // lead
                quot[k] = t
                for j in range(db):
                    cj = b[j]
                    if cj:
                        rem[k + j] -= t * cj
                rem[k + db] = 0
        # self = num/den and other = b/bden, so q = quot*bden/(s*den) and
        # r = rem/(s*den).
        den = s * self.den
        if other.den != 1:
            quot = [x * other.den for x in quot]
        return _reduce(quot, den), _reduce(rem[:db], den)

    def __rdivmod__(self, other) -> tuple[Poly, Poly]:
        other = _operand(other)
        return other if other is NotImplemented else other.__divmod__(self)

    def div_exact(self, other: Poly) -> Poly:
        """Exact quotient; raises ValueError if ``other`` does not divide self."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{other} does not divide {self} (remainder {r})")
        return q

    # -- beyond the ring ----------------------------------------------------

    def compose(self, inner) -> Poly:
        """Exact substitution self(inner(x)), by Horner over the ring.

        >>> Poly("2x^4-1").compose(Poly("x^2"))
        Poly('2x^8-1')
        """
        inner = Poly(inner)
        acc = ZERO
        for c in reversed(self.num):
            acc = acc * inner + c
        return acc / self.den

    def evaluate(self, x):
        """The value at an int or Fraction point: an int where it is integral.

        >>> Poly("2x+1").evaluate(Fraction(1, 2))
        2
        """
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"point must be int or Fraction, not {type(x).__name__}")
        return self.compose(x).leading

    def sqrt(self) -> Poly | None:
        """Integer polynomial square root with positive leading coefficient.

        Returns g with g*g == self if one exists in Z[x], else None.  The
        candidate is built coefficient-by-coefficient from the top and then
        verified by squaring, so a None answer is definitive.
        """
        if self.den != 1:
            return None
        cs = self.num
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
        cand = _make(tuple(g), 1)
        return cand if cand * cand == self else None

    # -- text and JSON forms -------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    def to_json(self) -> dict:
        """JSON form with decimal-string coefficients (arbitrary precision).

        A rational polynomial lists each coefficient in lowest terms, its
        numerator in ``coeffs`` and its denominator in ``den``.
        """
        num, den = self.num, self.den
        if den == 1:
            return {"coeffs": [decimal_str(c) for c in num]}
        gs = [gcd(c, den) for c in num]
        return {
            "coeffs": [decimal_str(c // g) for c, g in zip(num, gs)],
            "den": [decimal_str(den // g) for g in gs],
        }

    @classmethod
    def from_json(cls, data: dict) -> Poly:
        """Read ``to_json``'s form; ValueError on text it never writes."""
        data = data if isinstance(data, dict) else {}
        coeffs, den = data.get("coeffs"), data.get("den")
        if not isinstance(coeffs, list) or not isinstance(den, (list, type(None))):
            raise ValueError("coeffs and den must be lists of integer texts")
        nums = [decimal_int(s) for s in coeffs]
        if den is None:
            return cls(nums)
        dens = [decimal_int(s) for s in den]
        if any(b < 1 for b in dens):
            raise ValueError(f"denominators must be positive integers, got {data['den']!r}")
        return cls([Fraction(a, b) for a, b in zip(nums, dens, strict=True)])


ZERO = _make((), 1)
ONE = _make((1,), 1)
X = _make((0, 1), 1)


def common_denominator(*polys: Poly) -> int:
    """The lcm of the denominators of all coefficients of ``polys``.

    The least L > 0 for which every L*p is an integer polynomial; verifiers
    scale by it so that their checks run in integer arithmetic.
    """
    return lcm(*(p.den for p in polys))


def dot(xs, ys) -> Poly:
    """The exact sum of x*y over the pairs ``zip(xs, ys)`` of Polys: ``dots``
    of the one sum.

    >>> dot([Poly("x+1"), Poly(2)], [Poly("x-1"), X])
    Poly('x^2+2x-1')
    """
    return dots([(xs, ys)])[0]


def dots(sums) -> list:
    """The exact sum of x*y over the pairs ``zip(xs, ys)`` of Polys, for each
    ``(xs, ys)`` in ``sums``, as a list.

    Pairs with a zero side are skipped; one pair is its product, and a sum
    with a rational operand the plain sum of its products.  Every other sum
    of the batch goes to one ``kernels.sums_of_products`` call, on the
    numerators.

    >>> dots([([X], [X]), ([X, ONE], [X, Poly(-1)])])
    [Poly('x^2'), Poly('x^2-1')]
    """
    out, at, integral = [], [], []
    for xs, ys in sums:
        pairs = [(x, y) for x, y in zip(xs, ys) if x.num and y.num]
        if len(pairs) == 1:
            out.append(pairs[0][0] * pairs[0][1])
        elif not pairs or any(x.den != 1 or y.den != 1 for x, y in pairs):
            out.append(sum((x * y for x, y in pairs), ZERO))
        else:
            at.append(len(out))
            integral.append(([x.num for x, _ in pairs], [y.num for _, y in pairs]))
            out.append(None)
    # A batch of only one-pair and rational sums skips the call and its set-up.
    for i, cs in zip(at, sums_of_products(integral) if integral else ()):
        out[i] = _reduce(cs, 1)
    return out


def format_poly(p: Poly) -> str:
    """Canonical text: descending powers, explicit signs, coefficient 1 and
    exponent 1 omitted, fractions in lowest terms, e.g. ``4x^6-3/2x^2``.
    """
    num, den = p.num, p.den
    if not num:
        return "0"
    parts = []
    for e in range(len(num) - 1, -1, -1):
        c = num[e]
        if not c:
            continue
        mag = -c if c < 0 else c
        g = gcd(mag, den)
        text = decimal_str(mag // g)
        if g != den:
            text = f"{text}/{decimal_str(den // g)}"
        if e == 0:
            body = text
        else:
            power = "x" if e == 1 else f"x^{e}"
            body = power if mag == den else f"{text}{power}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts)


#: Largest exponent ``parse_poly`` accepts.  The parsed polynomial is a dense
#: list of degree + 1 coefficients, so an unbounded exponent ("x^1000000000")
#: would ask for gigabytes before any check could run.
MAX_PARSE_DEGREE = 10**5


#: One term and the blanks around it: an optional "-", a coefficient digit
#: run, then "x" with an optional "^" and exponent digit run.  Every part is
#: optional, so it matches at every position and ``parse_poly`` checks the
#: groups.  Only ASCII digits match; ``_digits`` refuses the other digits.
_TERM = re.compile(
    r"[ \t]*(?P<minus>-?)[ \t]*(?P<coeff>[0-9]*)(?P<x>x(\^(?P<expo>[0-9]*))?)?[ \t]*"
)


def _digits(text: str, start: int, end: int, missing: str) -> int | None:
    """The int of the ASCII digit run ``text[start:end]``, of any size.

    A run followed by a digit that ``[0-9]`` does not match ("²", "٣", "１")
    is a malformed number.  An empty run raises ``missing``, or is None when
    ``missing`` is "".
    """
    if text[end:end + 1].isdigit():
        raise ParseError("malformed number", start)
    if start == end and missing:
        raise ParseError(missing, start)
    return decimal_int(text[start:end]) if start < end else None


def parse_poly(text: str) -> Poly:
    """Parse the CLI polynomial grammar into an integer polynomial.

    Terms are integer coefficients, optionally times a power of x, joined by
    + or -.  A coefficient may be omitted next to x ("x^4-1", "-x").

    >>> parse_poly("x^4-1")
    Poly('x^4-1')
    >>> parse_poly("2x^2+3")
    Poly('2x^2+3')
    >>> parse_poly("x^^2")
    Traceback (most recent call last):
        ...
    pellred.polyring.ParseError: expected exponent digits (at position 2)
    """
    if not text.strip(" \t"):
        raise ParseError("empty polynomial", len(text))
    coeffs: dict[int, int] = {}
    sep, i = "+", 0
    while sep:
        term = _TERM.match(text, i)
        missing = "" if term["x"] else "expected a coefficient or 'x'"
        coeff = _digits(text, *term.span("coeff"), missing)
        expo = 1 if term["x"] else 0
        if term["expo"] is not None:
            expo = _digits(text, *term.span("expo"), "expected exponent digits")
            if expo > MAX_PARSE_DEGREE:
                raise ParseError(
                    f"exponent above the maximum degree {MAX_PARSE_DEGREE}", term.start("expo")
                )
        sign = -1 if (sep == "-") != bool(term["minus"]) else 1
        coeffs[expo] = coeffs.get(expo, 0) + sign * (1 if coeff is None else coeff)
        i = term.end()
        sep = text[i:i + 1]
        if sep not in ("", "+", "-"):
            raise ParseError(f"unexpected character {sep!r}", i)
        i += 1
    return _reduce([coeffs.get(k, 0) for k in range(max(coeffs) + 1)], 1)
