"""Redei polynomials of every degree m >= 2: the one engine.

The generalized Redei vector (A_n^(0), ..., A_n^(m-1)) collects the
components of (z + alpha^(1/m))^n on the power basis of alpha^(1/m).  At
m = 2 it is the classical pair

    (z + sqrt(alpha))^n = N_n + D_n * sqrt(alpha),   N_n = A_n^(0), D_n = A_n^(1)

so a pair is a ``GenRedeiVec`` with m = 2, read through its ``N`` and ``D``
(``RedeiPair`` names the same class).  Three genuinely independent
constructions are provided so they can check one another: the componentwise
step rule (production path), powers of the m x m step matrix (first column),
and the binomial expansion (designated oracle).  All of them satisfy the norm
identity: the alpha-twisted circulant of the vector has determinant

    (z^m + (-1)^(m-1) * alpha)^n,   at m = 2:  N_n^2 - alpha * D_n^2 == (z^2 - alpha)^n

which is what makes these vectors solve Pell-type equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .polyring import DomainError, ONE, Poly, ZERO
from .polymat import PolyMatrix, build_circulant


#: Largest degree m taken; the paper's cases have m <= 5, and ``solve_m`` at
#: m = n = 64 already takes about a second.
MAX_M = 64


class InvalidIndex(DomainError):
    """The degree m is outside 2..MAX_M or the index n is negative."""


def check_degree_index(m: int, n: int) -> None:
    """Raise InvalidIndex unless 2 <= m <= MAX_M and n >= 0.  Every degree-m
    entry point calls this first, before any m x m work or primality test."""
    if not 2 <= m <= MAX_M or n < 0:
        raise InvalidIndex(f"need 2 <= m <= {MAX_M} and n >= 0, got m={m}, n={n}")


@dataclass(frozen=True)
class GenRedeiVec:
    """The vector (A_n^(0), ..., A_n^(m-1)) for given (z, alpha, m, n)."""

    m: int
    n: int
    z: Poly
    alpha: Poly
    A: tuple[Poly, ...]

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
    power = step_matrix(z, alpha, m).pow(n)
    return GenRedeiVec(m, n, z, alpha, power.column(0))


def gen_redei_sequence(z, alpha, m: int, n_max: int) -> list[GenRedeiVec]:
    """Vectors for n = 0..n_max via the componentwise step rule.

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
    """
    check_degree_index(m, n_max)
    z, alpha = Poly(z), Poly(alpha)
    comp = [ONE] + [ZERO] * (m - 1)
    out = [GenRedeiVec(m, 0, z, alpha, tuple(comp))]
    if m == 2:
        c = alpha - z * z
        N, D, zD = ONE, ZERO, ZERO
        for n in range(1, n_max + 1):
            s = N + zD
            zD = z * s
            N, D = zD + c * D, s
            out.append(GenRedeiVec(2, n, z, alpha, (N, D)))
        return out
    for n in range(1, n_max + 1):
        comp = [z * comp[0] + alpha * comp[m - 1]] + [
            z * comp[i] + comp[i - 1] for i in range(1, m)
        ]
        out.append(GenRedeiVec(m, n, z, alpha, tuple(comp)))
    return out


def gen_redei_oracle(z, alpha, m: int, n: int) -> GenRedeiVec:
    """Independent construction: expand (z + y)^n and reduce y^m -> alpha.

    The binomial term C(n, k) z^(n-k) y^k lands in component k mod m with
    alpha^(k div m) attached; no matrix is involved.
    """
    check_degree_index(m, n)
    z, alpha = Poly(z), Poly(alpha)
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
    base is a perfect m-th power (of either sign for odd m).
    """
    check_degree_index(m, n)
    if n % m == 0:
        return base ** (n // m)
    k = _iroot(abs(base), m)
    if k**m != abs(base) or (base < 0 and m % 2 == 0):
        return None
    return (k if base > 0 else -k) ** n
