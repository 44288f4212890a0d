"""Redei polynomials of every degree m >= 2: the one engine.

The generalized Redei vector (A_n^(0), ..., A_n^(m-1)) collects the
components of (z + alpha^(1/m))^n on the power basis of alpha^(1/m).  At
m = 2 it is the classical pair

    (z + sqrt(alpha))^n = N_n + D_n * sqrt(alpha),   N_n = A_n^(0), D_n = A_n^(1)

so a pair is a ``GenRedeiVec`` with m = 2, read through its ``N`` and ``D``
(``RedeiPair`` names the same class), a ``Record``: the frozen slots base of
the package's records.  Three genuinely independent
constructions are provided so they can check one another: the componentwise
step rule (the chain behind every m = 2 pair and ``divisibility_probe``),
powers of the m x m step matrix (first column; ``solve_m`` takes this one),
and the binomial expansion (designated oracle).  All of them satisfy the norm
identity: the alpha-twisted circulant of the vector has determinant

    (z^m + (-1)^(m-1) * alpha)^n,   at m = 2:  N_n^2 - alpha * D_n^2 == (z^2 - alpha)^n

which is what makes these vectors solve Pell-type equations.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb

from .polyring import DomainError, ONE, Poly, ZERO, common_denominator, decimal_str
from .polymat import PolyMatrix, build_circulant


#: Largest degree m taken; the paper's cases have m <= 5, and ``solve_m`` at
#: m = n = 64 already takes about a second.
MAX_M = 64

#: Largest size, in bits, that ``check_answer_size`` lets an answer's bound
#: reach (32 MiB).  The largest bound the tests reach is about 2^25.6 bits,
#: ``redei`` at n = 600 with a 67-bit z.
MAX_ANSWER_BITS = 1 << 28


class InvalidIndex(DomainError):
    """The degree m is outside 2..MAX_M or the index n is negative."""


class AnswerTooLarge(DomainError):
    """The answer at this index is bounded above ``MAX_ANSWER_BITS``."""


def check_degree_index(m: int, n: int) -> None:
    """Raise InvalidIndex unless 2 <= m <= MAX_M and n >= 0.  Every degree-m
    entry point calls this first, before any m x m work or primality test."""
    if not 2 <= m <= MAX_M or n < 0:
        raise InvalidIndex(
            f"need 2 <= m <= {MAX_M} and n >= 0, got m={decimal_str(m)}, n={decimal_str(n)}"
        )


def check_answer_size(z: Poly, alpha: Poly, m: int, n: int) -> tuple[int, int]:
    """The bound (degree, bits) on the index-n vector of z and alpha: each
    component has degree at most ``degree``, and its denominator and every
    coefficient of its numerator are at most 2^bits.  Raise AnswerTooLarge,
    before any product, where m * (degree + 1) * bits passes MAX_ANSWER_BITS.

    (z + y)^n has the terms C(n, k) z^(n-k) alpha^j y^(k mod m), j = k div m,
    of degree at most n * max(deg z, ceil(deg alpha / m)).  Write z = Z/e and
    alpha = A/e' with e, e' the common denominators, so Z and A are integer,
    and |.| for the 1-norm.  Over the denominator e^n e'^(n div m), a term's
    numerator has 1-norm at most C(n, k) |Z|^(n-k) e^k (|A| + e')^(n div m),
    and these sum to at most (|Z| + e)^n (|A| + e')^n <= 2^bits, where
    |Z| + e = e * (|z| + 1).  Reducing the fraction only divides.
    """
    degree = n * max(len(z.coeffs) - 1, -(-(len(alpha.coeffs) - 1) // m))
    bits = n * sum(int(common_denominator(p) * (sum(map(abs, p.coeffs)) + 1)).bit_length() for p in (z, alpha))
    if m * (degree + 1) * bits > MAX_ANSWER_BITS:
        raise AnswerTooLarge(f"the answer at this index may take more than {MAX_ANSWER_BITS} bits")
    return degree, bits


class Record:
    """A frozen record of the fields its class names in ``__slots__``.

    The one construction rule: a record is built by position, one value for
    each field, its base's fields first and then its own slots; a wrong
    count raises TypeError.  A subclass writes no ``__init__`` unless it
    converts or refuses a value, and then passes every field on to
    ``Record.__init__``.

    Equal and hashed by its field tuple, and only to a record of its own
    class; printed as ``Name(field=value, ...)``; assigning to it raises
    AttributeError.  The records of ``redei``, ``pell2`` and ``pellm`` take
    this base rather than a frozen dataclass, so that ``dataclasses``, and
    the ``inspect`` it imports, stay off the start-up path of ``pellred``;
    only the solution records of ``solutions`` need it.
    """

    __slots__ = ()
    _names: tuple = ()

    def __init_subclass__(cls):
        # The fields of a subclass: its base's, then its own slots.
        cls._names = cls._names + cls.__dict__.get("__slots__", ())

    def __init__(self, *fields):
        names = self._names
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} fields, got {len(fields)}")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its __init__.
        return type(self), self._fields()


class GenRedeiVec(Record):
    """The vector (A_n^(0), ..., A_n^(m-1)) for given (z, alpha, m, n)."""

    __slots__ = ("m", "n", "z", "alpha", "A")

    @property
    def N(self) -> Poly:
        """A_n^(0), the rational part N_n of the pair at m = 2."""
        return self.A[0]

    @property
    def D(self) -> Poly:
        """A_n^(1), the coefficient D_n of sqrt(alpha) at m = 2."""
        return self.A[1]


RedeiPair = GenRedeiVec


def step_matrix(z, alpha, m: int) -> PolyMatrix:
    """The m x m multiply-by-(z + alpha^(1/m)) matrix on the power basis.

    It is the alpha-twisted circulant of the index-1 vector (z, 1, 0, ..., 0).
    """
    check_degree_index(m, 0)
    return build_circulant((z, ONE) + (ZERO,) * (m - 2), alpha)


def gen_redei(z, alpha, m: int, n: int) -> GenRedeiVec:
    """The vector as the first column of the n-th step-matrix power."""
    check_degree_index(m, n)
    z, alpha = Poly(z), Poly(alpha)
    check_answer_size(z, alpha, m, n)
    power = step_matrix(z, alpha, m).pow(n)
    return GenRedeiVec(m, n, z, alpha, power.column(0))


def gen_redei_steps(z, alpha, m: int, n_max: int) -> Iterator[GenRedeiVec]:
    """Vectors for n = 0..n_max via the componentwise step rule, one at a time.

    A_{n+1}^(0) = z*A_n^(0) + alpha*A_n^(m-1);
    A_{n+1}^(i) = z*A_n^(i) + A_n^(i-1) for i >= 1.

    At m = 2 the step is regrouped through c = alpha - z^2 by the identity

        z*N + alpha*D = z*(N + z*D) + c*D,   and D_{n+1} = N + z*D,

    so with s = N + z*D one step is (N, D) -> (z*s + c*D, s).  As s is
    D_{n+1}, z*s is the z*D of the next step: it is carried across the loop
    (z*D = 0 at n = 0), and a step costs one product by z and one by c,
    where the plain rule takes products by z, z and alpha.  This is the one
    m = 2 rule, for every alpha.  For a Pell input alpha = f^2 + d, c is the
    constant d, and for ``solve_square_shift``'s alpha = g^2 - 1 it is -1.
    Otherwise deg c <= max(deg alpha, 2*deg z), and the product by c costs
    at most as many coefficient products as the saved product by z plus the
    one by alpha unless deg alpha < deg z - 1, which no Pell input has.
    m >= 3 keeps the plain rule: every component's product by z is needed
    there, and the same regroup of alpha = +-z^m + c costs 2m - 1 products
    by z and one by c against m + 1 products, which pays only when
    m < deg z + 1.

    The generator holds only the vector it is at.  Its argument checks, and
    ``check_answer_size``'s refusal, run at the first step, before any
    product.
    """
    check_degree_index(m, n_max)
    z, alpha = Poly(z), Poly(alpha)
    check_answer_size(z, alpha, m, n_max)
    comp = [ONE] + [ZERO] * (m - 1)
    yield GenRedeiVec(m, 0, z, alpha, tuple(comp))
    if m == 2:
        c = alpha - z * z
        N, D, zD = ONE, ZERO, ZERO
        for n in range(1, n_max + 1):
            s = N + zD
            zD = z * s
            N, D = zD + c * D, s
            yield GenRedeiVec(2, n, z, alpha, (N, D))
        return
    for n in range(1, n_max + 1):
        comp = [z * comp[0] + alpha * comp[m - 1]] + [
            z * comp[i] + comp[i - 1] for i in range(1, m)
        ]
        yield GenRedeiVec(m, n, z, alpha, tuple(comp))


def gen_redei_sequence(z, alpha, m: int, n_max: int) -> list[GenRedeiVec]:
    """The vectors of ``gen_redei_steps`` for n = 0..n_max, in one list."""
    return list(gen_redei_steps(z, alpha, m, n_max))


def gen_redei_oracle(z, alpha, m: int, n: int) -> GenRedeiVec:
    """Independent construction: expand (z + y)^n and reduce y^m -> alpha.

    The binomial term C(n, k) z^(n-k) y^k lands in component k mod m with
    alpha^(k div m) attached; no matrix is involved.
    """
    check_degree_index(m, n)
    z, alpha = Poly(z), Poly(alpha)
    check_answer_size(z, alpha, m, n)
    z_pow = [ONE]
    for _ in range(n):
        z_pow.append(z_pow[-1] * z)
    a_pow = [ONE]
    for _ in range(n // m):
        a_pow.append(a_pow[-1] * alpha)
    comps = [ZERO] * m
    for k in range(n + 1):
        comps[k % m] = comps[k % m] + z_pow[n - k] * a_pow[k // m] * comb(n, k)
    return GenRedeiVec(m, n, z, alpha, tuple(comps))


def redei_sequence(alpha, z, n_max: int) -> list[RedeiPair]:
    """All pairs for n = 0..n_max, sharing one step-rule chain."""
    return gen_redei_sequence(z, alpha, 2, n_max)


def redei_recurrence(alpha, z, n: int) -> RedeiPair:
    """(N_n, D_n) from the step rule at m = 2."""
    return redei_sequence(alpha, z, n)[n]


def redei_matrix(alpha, z, n: int) -> RedeiPair:
    """(N_n, D_n) read off the first column of [[z, alpha], [1, z]]^n."""
    return gen_redei(z, alpha, 2, n)


def redei_closed_form(alpha, z, n: int) -> RedeiPair:
    """(N_n, D_n) by the binomial expansion; independent of the other two paths.

    N_n = sum_k C(n, 2k)   * alpha^k * z^(n-2k)
    D_n = sum_k C(n, 2k+1) * alpha^k * z^(n-2k-1)
    """
    return gen_redei_oracle(z, alpha, 2, n)


def norm_identity_holds(vec: GenRedeiVec) -> bool:
    """Exact check of det(circ(A, alpha)) == (z^m + (-1)^(m-1)*alpha)^n.

    At m = 2 this is N^2 - alpha*D^2 == (z^2 - alpha)^n.
    """
    sign = 1 if vec.m % 2 else -1
    rhs = (vec.z**vec.m + vec.alpha * sign) ** vec.n
    return build_circulant(vec.A, vec.alpha).det() == rhs


def _iroot(a: int, m: int) -> int:
    """floor(a^(1/m)) for a >= 0, by integer Newton iteration from above."""
    if a < 2:
        return a
    x = 1 << -(-a.bit_length() // m)
    while True:
        y = ((m - 1) * x + a // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def norm_power(base: int, m: int, n: int) -> int | None:
    """base^(n/m) as an exact integer, or None when it is irrational.

    This is the normalizer that turns a Redei vector whose norm is base^n
    into a solution of norm 1.  It is rational exactly when m divides n or
    base is a perfect m-th power (of either sign for odd m).  Raises
    AnswerTooLarge, before the power, where it passes MAX_ANSWER_BITS bits:
    |base|^(n/m) >= 2^((b - 1) * n / m), b the bit length of |base|.
    """
    check_degree_index(m, n)
    if n % m:
        k = _iroot(abs(base), m)
        if k**m != abs(base) or (base < 0 and m % 2 == 0):
            return None
    if (abs(base).bit_length() - 1) * n > m * MAX_ANSWER_BITS:
        raise AnswerTooLarge(f"the normalizer at this index takes more than {MAX_ANSWER_BITS} bits")
    return base ** (n // m) if n % m == 0 else (k if base > 0 else -k) ** n
