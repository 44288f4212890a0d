"""Degree-m polynomial Pell equations via generalized Redei vectors.

The vector (A_n^(0), ..., A_n^(m-1)) of ``redei`` is the first column of
M^n, where M is the step matrix: z on the diagonal, 1 on the subdiagonal and
alpha in the top-right corner.  The R-twisted circulant built from it (with
R = alpha) is exactly M^n, so its determinant is

    det M^n = (z^m + (-1)^(m-1) * alpha)^n.

With z = f and alpha = (-f)^m + r that determinant collapses to the constant
((-1)^(m-1) * r)^n, and dividing the vector by the m-th root power of that
base (when it is an exact integer) yields solutions of det = 1.
``DivisibilityReport`` is a ``redei.Record``; the solution record
``PellMSolution`` is a frozen dataclass in ``solutions``, loaded on the first
``solve_m`` or the first read of the name.
"""

from __future__ import annotations

from math import isqrt

from .polyring import DomainError, Poly, common_denominator, decimal_str
from .polymat import build_circulant
from .redei import (  # the engine; its names stay importable from here
    GenRedeiVec,
    Record,
    check_degree_index,
    gen_redei,
    gen_redei_oracle,
    gen_redei_sequence,
    norm_power,
    step_matrix,
)


class IrrationalNormalizer(DomainError):
    """The required m-th root power of the determinant base is irrational."""


class ZeroR(DomainError):
    """r = 0 degenerates the equation; not part of the domain."""


class NotPrime(DomainError):
    """The divisibility probe is only meaningful for prime m."""


_set = object.__setattr__


def __getattr__(name):
    # PellMSolution lives in ``solutions``, loaded on first use (PEP 562).
    if name == "PellMSolution":
        from .solutions import PellMSolution

        return PellMSolution
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def solve_m(f, r: int, m: int, n: int) -> PellMSolution:
    """Normalized degree-m solution for R = (-f)^m + r at index n."""
    check_degree_index(m, n)
    if r == 0:
        raise ZeroR("r must be a nonzero integer")
    base = r if m % 2 else -r
    scale = norm_power(base, m, n)
    if scale is None:
        raise IrrationalNormalizer(
            f"{decimal_str(base)}^({decimal_str(n)}/{m}) is not rational; "
            f"need n = 0 (mod {m}) or an exact root"
        )
    from .solutions import PellMSolution

    f = Poly(f)
    alpha = (-f) ** m + r
    vec = gen_redei(f, alpha, m, n)
    sols = tuple(a / scale for a in vec.A)
    return PellMSolution(
        m=m,
        n=n,
        R=alpha,
        sols=sols,
        integral=all(s.is_integral() for s in sols),
        normalizer=scale,
    )


def classify_m(r: int, m: int, n: int) -> bool:
    """The three sufficient conditions for integer-polynomial solutions.

    True for r = -1 (any n), for r = 1 with n = 0 (mod m), and for r = +-m
    with m prime and n = 0 (mod m).  These are one-directional: a False
    answer does not assert non-integrality (for odd m and r = 1 the
    normalizer is literally 1, so every index is integral).
    """
    check_degree_index(m, n)
    if r == 0:
        raise ZeroR("r must be a nonzero integer")
    if r == -1:
        return True
    if n % m != 0:
        return False
    return r == 1 or (abs(r) == m and _is_prime(m))


def verify_m(sol: PellMSolution) -> bool:
    """Exact check that the twisted circulant of the solution has det 1.

    Every entry of the circulant is linear in the sols, so with L the lcm of
    their denominators det(circ(L*sols)) = L^m * det(circ(sols)).  Checking
    det(circ(L*sols)) == L^m keeps the elimination in integer arithmetic.
    """
    sols = [Poly(s) for s in sol.sols]
    scale = common_denominator(*sols)
    cleared = [s * scale for s in sols]
    return build_circulant(cleared, sol.R).det() == scale ** len(cleared)


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % k for k in range(2, isqrt(m) + 1))


class DivisibilityReport(Record):
    """Outcome of the coefficient-divisibility scan for r = +m and r = -m.

    ``violation`` is the (r, n, component index) of the first failing
    coefficient check, or None.
    """

    __slots__ = ("m", "f", "n_max", "ok", "violation")

    def __init__(self, m: int, f: Poly, n_max: int, ok: bool, violation: tuple[int, int, int] | None):
        _set(self, "m", m)
        _set(self, "f", f)
        _set(self, "n_max", n_max)
        _set(self, "ok", ok)
        _set(self, "violation", violation)


def divisibility_probe(f, m: int, n_max: int) -> DivisibilityReport:
    """Check m^(n div m) divides every coefficient of every component.

    Runs over r = +m and r = -m with alpha = (-f)^m + r, for n = 0..n_max.
    This is the mechanical content behind the prime-m integrality case: each
    block of m steps contributes one more factor of m to the whole vector.
    """
    check_degree_index(m, n_max)
    if not _is_prime(m):
        raise NotPrime(f"m={m} is not prime")
    f = Poly(f)
    for r in (m, -m):
        alpha = (-f) ** m + r
        for vec in gen_redei_sequence(f, alpha, m, n_max):
            need = m ** (vec.n // m)
            if need == 1:
                continue
            for idx, comp in enumerate(vec.A):
                if not (comp / need).is_integral():
                    return DivisibilityReport(m, f, n_max, False, (r, vec.n, idx))
    return DivisibilityReport(m, f, n_max, True, None)
