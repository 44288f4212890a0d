"""Exact dense univariate polynomials over the integers and rationals.

Coefficients are Python ints or ``fractions.Fraction`` values stored in
ascending order of exponent with no trailing zeros; a Fraction that reduces
to an integer is demoted to int.  With that canonical form, equality is
structural and integrality is a plain "no Fraction left" check.  Polynomials
are immutable values: every operation returns a new canonical polynomial.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import isqrt, lcm

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


def _canon(coeffs) -> tuple:
    out = []
    for c in coeffs:
        # Exact-type test first: isinstance(c, Fraction) goes through the
        # numbers ABCs, which costs several times more on an int.
        if type(c) is not int:
            if isinstance(c, Fraction):
                if c.denominator == 1:
                    c = c.numerator
            elif not isinstance(c, int):
                raise TypeError(f"coefficient must be int or Fraction, not {type(c).__name__}")
        out.append(c)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


#: Shortest operand, in coefficients, from which a product of two integer
#: polynomials goes through Kronecker substitution: the shortest length at
#: which it was no slower than schoolbook for any coefficient size measured
#: (8 to 1024 bits; crossover grid in CHANGES.md).
KRONECKER_MIN_LEN = 32


def _mul_schoolbook(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j] += ca * cb
    return out


def _square_schoolbook(cs) -> list:
    """Schoolbook square doing only the symmetric half of the products."""
    out = [0] * (2 * len(cs) - 1)
    for i, ci in enumerate(cs):
        if ci:
            out[2 * i] += ci * ci
            twice = ci * 2
            for j in range(i + 1, len(cs)):
                cj = cs[j]
                if cj:
                    out[i + j] += twice * cj
    return out


def _mul_kronecker(a, b) -> list:
    """Product of two integer coefficient sequences by Kronecker substitution.

    Both operands are evaluated at x = 2^(8w) by packing their coefficients
    into w-byte digits, the two integers are multiplied by CPython's
    Karatsuba, and the digits of the product are its coefficients (Harvey
    2009, J. Symb. Comp. 44).  w is chosen so that every product coefficient
    lies strictly between -2^(8w-1) and 2^(8w-1); adding that half-range to
    each digit makes it non-negative, as byte packing needs, and the same
    offset is subtracted again as one integer.
    """
    bits = (
        max(abs(c) for c in a).bit_length()
        + max(abs(c) for c in b).bit_length()
        + min(len(a), len(b)).bit_length()
    )
    w = bits // 8 + 1
    half = 1 << (8 * w - 1)
    half_digit = half.to_bytes(w, "little")

    def pack(cs) -> int:
        digits = b"".join((c + half).to_bytes(w, "little") for c in cs)
        return int.from_bytes(digits, "little") - int.from_bytes(half_digit * len(cs), "little")

    va = pack(a)
    product = va * (va if b is a else pack(b))
    size = len(a) + len(b) - 1
    product += int.from_bytes(half_digit * size, "little")
    digits = product.to_bytes(w * size, "little")
    return [int.from_bytes(digits[i : i + w], "little") - half for i in range(0, w * size, w)]


class Poly:
    """A univariate polynomial with exact coefficients.

    Accepts a coefficient sequence (ascending), a scalar, another Poly, or a
    string in the CLI grammar:

    >>> Poly([1, 0, 2])
    Poly('2x^2+1')
    >>> Poly("x^4-1")
    Poly('x^4-1')
    >>> Poly("x+1") * Poly("x-1")
    Poly('x^2-1')
    >>> Poly("2x^2+3") * Poly("2x")
    Poly('4x^3+6x')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, Poly):
            self.coeffs = coeffs.coeffs
        elif isinstance(coeffs, str):
            self.coeffs = parse_poly(coeffs).coeffs
        elif isinstance(coeffs, (int, Fraction)):
            self.coeffs = _canon((coeffs,))
        else:
            self.coeffs = _canon(coeffs)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; ``NEG_INF`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def leading(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        """True iff every coefficient has denominator 1."""
        return all(isinstance(c, int) for c in self.coeffs)

    def to_integer(self) -> Poly:
        """Return self as an integer polynomial, or raise :class:`NotIntegral`."""
        if not self.is_integral():
            raise NotIntegral(f"{self} has non-integer coefficients")
        return self

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == _canon((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> Poly:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> Poly:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly(other)
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly()
            short = min(len(a), len(b))
            if short >= KRONECKER_MIN_LEN and self.is_integral() and other.is_integral():
                return Poly(_mul_kronecker(a, b))
            return Poly(_mul_schoolbook(a, b))
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            return Poly([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> Poly:
        if type(scalar) is int and scalar and self.is_integral():
            # Each quotient built once: an int where it divides exactly.
            cs = self.coeffs
            return Poly([c // scalar if not c % scalar else Fraction(c, scalar) for c in cs])
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / scalar)

    def square(self) -> Poly:
        """self * self: one big-integer squaring for long integer polynomials,
        else only the symmetric half of the schoolbook products."""
        cs = self.coeffs
        if not cs:
            return Poly()
        if len(cs) >= KRONECKER_MIN_LEN and self.is_integral():
            return Poly(_mul_kronecker(cs, cs))
        return Poly(_square_schoolbook(cs))

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial powers are not defined here")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base.square()
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Long division over the rationals: self == q*other + r, deg r < deg other."""
        other = Poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        da, db = len(self.coeffs) - 1, len(other.coeffs) - 1
        if da < db:
            return Poly(), self
        lead = other.coeffs[-1]
        int_lead = type(lead) is int
        inv = Fraction(1) / lead
        rem = list(self.coeffs)
        quot = [0] * (da - db + 1)
        for k in range(da - db, -1, -1):
            c = rem[k + db]
            if c:
                # An integer quotient when it is exact, so integer division
                # (as in Bareiss elimination) never builds a Fraction.
                if int_lead and type(c) is int and not c % lead:
                    t = c // lead
                else:
                    t = c * inv
                quot[k] = t
                for j in range(db):
                    cj = other.coeffs[j]
                    if cj:
                        rem[k + j] -= t * cj
                rem[k + db] = 0
        return Poly(quot), Poly(rem[:db])

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
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def evaluate(self, x):
        """Evaluate at an int or Fraction point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sqrt(self) -> Poly | None:
        """Integer polynomial square root with positive leading coefficient.

        Returns g with g*g == self if one exists in Z[x], else None.  The
        candidate is built coefficient-by-coefficient from the top and then
        verified by squaring, so a None answer is definitive.
        """
        if not self.is_integral():
            return None
        cs = self.coeffs
        if not cs:
            return Poly()
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
        return cand if cand * cand == self else None

    # -- text and JSON forms -------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    def to_json(self) -> dict:
        """JSON form with decimal-string coefficients (arbitrary precision)."""
        if self.is_integral():
            return {"coeffs": [decimal_str(c) for c in self.coeffs]}
        fracs = [Fraction(c) for c in self.coeffs]
        return {
            "coeffs": [decimal_str(f.numerator) for f in fracs],
            "den": [decimal_str(f.denominator) for f in fracs],
        }

    @classmethod
    def from_json(cls, data: dict) -> Poly:
        nums = [int(s) for s in data["coeffs"]]
        dens = data.get("den")
        if dens is None:
            return cls(nums)
        return cls([Fraction(a, int(b)) for a, b in zip(nums, dens, strict=True)])


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def common_denominator(*polys: Poly) -> int:
    """The lcm of the denominators of all coefficients of ``polys``.

    The least L > 0 for which every L*p is an integer polynomial; verifiers
    scale by it so that their checks run in integer arithmetic.
    """
    scale = 1
    for p in polys:
        for c in p.coeffs:
            if type(c) is not int:
                scale = lcm(scale, c.denominator)
    return scale


def format_poly(p: Poly) -> str:
    """Canonical text: descending powers, explicit signs, coefficient 1 and
    exponent 1 omitted, e.g. ``4x^6-3x^2``.
    """
    if not p.coeffs:
        return "0"
    parts = []
    for e in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[e]
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


#: Largest exponent ``parse_poly`` accepts.  The parsed polynomial is a dense
#: list of degree + 1 coefficients, so an unbounded exponent ("x^1000000000")
#: would ask for gigabytes before any check could run.
MAX_PARSE_DEGREE = 10**5


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
    coeffs: dict[int, int] = {}
    i, end = 0, len(text)

    def skip_ws():
        nonlocal i
        while i < end and text[i] in " \t":
            i += 1

    def read_uint() -> int | None:
        nonlocal i
        start = i
        while i < end and text[i].isdigit():
            i += 1
        if i == start:
            return None
        try:
            return int(text[start:i])
        except ValueError:  # a non-decimal digit such as '²', or too many digits
            raise ParseError("malformed number", start) from None

    def read_term(sign: int):
        nonlocal i
        skip_ws()
        if i < end and text[i] == "-":
            sign = -sign
            i += 1
            skip_ws()
        coeff = read_uint()
        expo = 0
        if i < end and text[i] == "x":
            i += 1
            expo = 1
            if i < end and text[i] == "^":
                i += 1
                start = i
                e = read_uint()
                if e is None:
                    raise ParseError("expected exponent digits", i)
                if e > MAX_PARSE_DEGREE:
                    raise ParseError(f"exponent above the maximum degree {MAX_PARSE_DEGREE}", start)
                expo = e
        elif coeff is None:
            raise ParseError("expected a coefficient or 'x'", i)
        value = 1 if coeff is None else coeff
        coeffs[expo] = coeffs.get(expo, 0) + sign * value

    skip_ws()
    if i == end:
        raise ParseError("empty polynomial", i)
    read_term(+1)
    skip_ws()
    while i < end:
        ch = text[i]
        if ch == "+":
            sign = +1
        elif ch == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        i += 1
        read_term(sign)
        skip_ws()
    size = max(coeffs) + 1 if coeffs else 0
    return Poly([coeffs.get(k, 0) for k in range(size)])
