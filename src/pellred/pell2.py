"""Quadratic polynomial Pell equations P^2 - (f^2 + d)*Q^2 = 1.

Substituting z = f and alpha = f^2 + d into the Redei norm identity gives
N_n^2 - (f^2 + d) * D_n^2 = (-d)^n, so dividing the pair by (-d)^(n/2)
produces a solution of the Pell equation whenever that power is rational.
This module generates those solutions, classifies when they are integer
polynomials, runs the degree-reducing descent step, and identifies verified
solutions against the generated family by descending them to (1, 0).
``PellProblem`` and ``IntegralityClass`` are ``redei.Record``s; the solution
record ``PellSolution`` is a frozen dataclass in ``solutions``, loaded on the
first solve or the first read of the name.
"""

from __future__ import annotations

from fractions import Fraction

from .kernels import point_test
from .polyring import DomainError, ONE, Poly, X, ZERO, common_denominator, decimal_str
from .polymat import build_circulant
from .redei import (
    Record, RedeiPair, check_answer_size, check_degree_index, norm_power, redei_recurrence,
    redei_sequence,
)
from .pellm import IrrationalNormalizer, ZeroR, classify_m


class ZeroD(ZeroR):
    """d = 0 degenerates the equation; not part of the domain."""


class OddIndexUndefined(IrrationalNormalizer):
    """(-d)^(n/2) is irrational for this odd n, so no rational solution exists."""


class PreconditionViolated(DomainError):
    """Descent input does not satisfy the required norm equation."""


class NotASolution(DomainError):
    """The given pair does not satisfy the Pell equation."""


class UnsupportedD(DomainError):
    """The explicit x^2 + d recurrences only cover d in {1, -1, 2, -2}."""


_set = object.__setattr__


def __getattr__(name):
    # PellSolution lives in ``solutions``, loaded on first use (PEP 562).
    if name == "PellSolution":
        from .solutions import PellSolution

        return PellSolution
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PellProblem(Record):
    """The equation P^2 - (f^2 + d)*Q^2 = 1."""

    __slots__ = ("f", "d")

    def __init__(self, f: Poly, d: int):
        _set(self, "f", Poly(f))
        _set(self, "d", d)
        if d == 0:
            raise ZeroD("d must be a nonzero integer")

    @property
    def D(self) -> Poly:
        return self.f * self.f + self.d


class IntegralityClass(Record):
    """Which indices n give integer-polynomial solutions for this d.

    ALL_N: every n (d = -1).  EVEN_N: exactly the even n (d in {1, 2, -2}).
    NONE: no nontrivial index.  The n = 0 pair (1, 0) is integral for every d.
    These are the degree-m cases of ``classify_m`` at m = 2, with r = d.
    """

    __slots__ = ("tag", "d")

    def __init__(self, tag: str, d: int):
        _set(self, "tag", tag)
        _set(self, "d", d)

    def predicts_integral(self, n: int) -> bool:
        return n == 0 or classify_m(self.d, 2, n)


def classify(d: int) -> IntegralityClass:
    """The integrality class of d, read from ``classify_m(d, 2, n)`` at n = 1 and 2."""
    if d == 0:
        raise ZeroD("d must be a nonzero integer")
    tag = "ALL_N" if classify_m(d, 2, 1) else "EVEN_N" if classify_m(d, 2, 2) else "NONE"
    return IntegralityClass(tag, d)


def _finish(solution: type, pair: RedeiPair, scale: int) -> PellSolution:
    P = pair.N / scale
    Q = pair.D / scale
    return solution(P, Q, pair.n, P.is_integral() and Q.is_integral(), scale)


def solve(problem: PellProblem, n: int) -> PellSolution:
    """The index-n solution (N_n, D_n)/(-d)^(n/2) with its integrality flag.

    Defined for even n, for d = -1, and more generally whenever -d is a
    perfect square (so the normalizer is an exact integer).
    """
    scale = norm_power(-problem.d, 2, n)
    if scale is None:
        raise OddIndexUndefined(
            f"(-d)^(n/2) is irrational for d={decimal_str(problem.d)}, n={decimal_str(n)}"
        )
    from .solutions import PellSolution

    return _finish(PellSolution, redei_recurrence(problem.D, problem.f, n), scale)


def solve_sequence(problem: PellProblem, n_max: int) -> list[PellSolution | None]:
    """Solutions for n = 0..n_max from one shared recurrence chain.

    Entries are None where the normalizer is irrational.  Agrees with
    ``solve`` index by index wherever both are defined.
    """
    from .solutions import PellSolution

    out: list[PellSolution | None] = []
    for pair in redei_sequence(problem.D, problem.f, n_max):
        scale = norm_power(-problem.d, 2, pair.n)
        out.append(None if scale is None else _finish(PellSolution, pair, scale))
    return out


def verify(P, Q, D) -> bool:
    """Exact check of P^2 - D*Q^2 == 1 over the rationals.

    Denominators are cleared once up front so the check runs in integer
    arithmetic: with L the lcm of the denominators of P and Q, it becomes
    (L*P)^2 - D*(L*Q)^2 == L^2.  ``kernels.point_test`` decides that at one
    point, exactly; where it declines, as it does where ``Poly`` would square
    L*P or L*Q in decimal, the polynomial identity decides it.
    """
    P, Q, D = Poly(P), Poly(Q), Poly(D)
    scale = common_denominator(P, Q)
    P, Q, ll = P * scale, Q * scale, scale * scale
    verdict = point_test(P.num, Q.num, D.num, D.den, ll)
    return P.square() - D * Q.square() == ll if verdict is None else verdict


def descend(P, Q, f, d: int, n: int) -> tuple[Poly, Poly]:
    """One descent step: a norm-(-d)^n pair becomes a norm-(-d)^(n-1) pair.

        P' = -(f/d)*P + ((f^2+d)/d)*Q,   Q' = (1/d)*P - (f/d)*Q

    Requires P^2 - (f^2+d)*Q^2 == (-d)^n exactly.  When the leading
    coefficients of P, Q, f are positive (callers normalize signs first) the
    degrees of both components drop strictly.  Expanding f^2 + d shows
    P' = Q - f*Q', which is how P' is computed: no product by f^2 + d.
    """
    problem = PellProblem(f, d)
    P, Q, f, D = Poly(P), Poly(Q), problem.f, problem.D
    if P.square() - D * Q.square() != Fraction(-d) ** n:
        raise PreconditionViolated(f"pair is not at norm level (-d)^{decimal_str(n)}")
    Q_next = (P - f * Q) / d
    return (Q - f * Q_next, Q_next)


def _positive_leading(p: Poly) -> Poly:
    return -p if p.leading < 0 else p


def identify_solution(P, Q, f, d: int) -> int | None:
    """The index n of a verified solution in the generated family, or None.

    (P, Q) must solve P^2 - (f^2+d)*Q^2 = 1 (else ``NotASolution``) and may
    be rational, as family members with a normalizer other than +-1 are.
    n is read off deg P = n * deg f.  With P, Q and f made positive-leading,
    the pair is rescaled by |(-d)^(n/2)| and descended n times.  ``descend``
    inverts the Redei step (N, D) -> (f*N + alpha*D, N + f*D), so n descents
    end at (1, 0) exactly when the rescaled pair is (N_n, D_n), whose leading
    coefficients are positive as f's is.  None for any other pair, for a
    constant f, or when (-d)^(n/2) is irrational (no member has that index).

    >>> identify_solution(Poly("8x^8-8x^4+1"), Poly("8x^6-4x^2"), Poly("x^2"), -1)
    4
    """
    P, Q = Poly(P), Poly(Q)
    problem = PellProblem(f, d)
    if not verify(P, Q, problem.D):
        raise NotASolution("P^2 - (f^2+d)*Q^2 != 1")
    if Q.is_zero():
        return 0
    f = _positive_leading(problem.f)
    if f.degree < 1 or P.degree % f.degree:
        return None
    n = P.degree // f.degree
    scale = norm_power(-d, 2, n)
    if scale is None:
        return None
    pair = (_positive_leading(P) * abs(scale), _positive_leading(Q) * abs(scale))
    for level in range(n, 0, -1):
        pair = descend(*pair, f, d, level)
    return n if pair == (ONE, ZERO) else None


def solve_square_shift(f, n: int) -> PellSolution | None:
    """Integer solutions of P^2 - f*Q^2 = 1 when f + 1 is a perfect square.

    With g^2 = f + 1 this is the paper's d = -1 case with g in place of f:
    f = g^2 - 1, so the answer is ``solve(PellProblem(g, -1), n)``, whose
    normalizer is 1 and whose pair is integral for every n.  Returns None
    when f + 1 has no integer polynomial square root.
    """
    g = (Poly(f) + 1).sqrt()
    return None if g is None else solve(PellProblem(g, -1), n)


def nathanson(d: int, n: int) -> tuple[Poly, Poly]:
    """The classical explicit solutions of P^2 - (x^2 + d)*Q^2 = 1.

    For d in {1, 2, -2}:
        A_k = (2/d x^2 + 1) A_{k-1} + (2/d) x (x^2 + d) B_{k-1},  A_0 = 1
        B_k = (2/d) x A_{k-1} + (2/d x^2 + 1) B_{k-1},            B_0 = 0
    For d = -1:
        A'_k = x A'_{k-1} + (x^2 - 1) B'_{k-1},                   A'_0 = 1
        B'_k = A'_{k-1} + x B'_{k-1},                             B'_0 = 0

    The n-th pair is (x + y)^n over y^2 = x^2 - 1 for d = -1, and
    (x + y)^(2n) / d^n over y^2 = x^2 + d otherwise, so ``check_answer_size``
    bounds it before the power (AnswerTooLarge).
    """
    check_degree_index(2, n)
    if d not in (1, -1, 2, -2):
        raise UnsupportedD(f"d={decimal_str(d)} is outside {{1, -1, 2, -2}}")
    check_answer_size(X, X * X + d, 2, n if d == -1 else 2 * n)
    if d == -1:
        diag, lower = X, ONE
    else:
        c = 2 // d
        diag, lower = Poly([1, 0, c]), X * c
    # One step is the (x^2 + d)-twisted circulant of (diag, lower) acting on (A, B).
    return build_circulant((diag, lower), X * X + d).pow(n).column(0)
