"""Exactness oracle for the benchmark; it shares no code with pellred.

Outputs are read only through their JSON wire form (``{"coeffs": [...],
"den": [...]}``) or the CLI's canonical text, and checked by evaluating them
at one seeded odd 64-bit point with the Horner, elimination and quadratic
ring code below.  A wrong polynomial passes only if the point happens to be
a root of the error, which for a seeded 64-bit point does not happen in
practice.

Small integer polynomials that the CLI workload feeds in are lists of int
coefficients in ascending order of exponent.  Outputs are read into
(numerators, denominators): two such lists.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm


def odd_point(rng) -> int:
    """A seeded odd point with exactly 64 bits."""
    return rng.getrandbits(64) | (1 << 63) | 1


# -- integer polynomials as ascending coefficient lists -----------------------


def trim(a: list) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def pdiv_int(a: list, k: int) -> list:
    """a / k for an integer k that divides every coefficient."""
    if any(c % k for c in a):
        raise ValueError(f"{k} does not divide {a}")
    return [c // k for c in a]


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def format_int_poly(a: list) -> str:
    """The CLI grammar, descending powers: ``[-1, 0, 2]`` -> ``2x^2-1``."""
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "x" if e == 1 else f"x^{e}"
            body = power if mag == 1 else f"{mag}{power}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


_TERM = re.compile(r"([+-]?)(\d+)?(?:/(\d+))?(x(?:\^(\d+))?)?")

def parse_canonical(text: str) -> tuple[list, list]:
    """Parse canonical output text (``-1/2x^3+x-4``) into (nums, dens)."""
    text = text.strip()
    if text == "0":
        return [], []
    terms: dict[int, tuple[int, int]] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or (m.group(2) is None and m.group(4) is None):
            raise ValueError(f"not canonical polynomial text: {text!r}")
        sign, num, den, xpart, expo = m.groups()
        e = 0 if xpart is None else int(expo) if expo else 1
        if e in terms:
            raise ValueError(f"repeated power in {text!r}")
        value = int(num) if num else 1
        terms[e] = (-value if sign == "-" else value, int(den) if den else 1)
        pos = m.end()
    pairs = [terms.get(e, (0, 1)) for e in range(max(terms) + 1)]
    return [a for a, _ in pairs], [b for _, b in pairs]


def from_wire(data: dict) -> tuple[list, list]:
    """(nums, dens) of a ``to_json`` dict."""
    nums = [int(s) for s in data["coeffs"]]
    dens = [int(s) for s in data["den"]] if "den" in data else [1] * len(nums)
    if len(dens) != len(nums) or any(b <= 0 for b in dens):
        raise ValueError("malformed polynomial wire form")
    return nums, dens


def value_at(poly: tuple, x: int) -> Fraction:
    """Exact value at an integer point: Horner over one common denominator."""
    nums, dens = poly
    den = lcm(*dens) if dens else 1
    acc = 0
    for a, b in zip(reversed(nums), reversed(dens)):
        acc = acc * x + a * (den // b)
    return Fraction(acc, den)


def degree(poly: tuple) -> int:
    """Degree, with -1 for the zero polynomial; a zero leading entry is malformed."""
    nums = poly[0]
    if nums and nums[-1] == 0:
        raise ValueError("leading coefficient is zero")
    return len(nums) - 1


def is_integral(poly: tuple) -> bool:
    return all(b == 1 or a % b == 0 for a, b in zip(*poly))


# -- the checks ----------------------------------------------------------------


def normalizer(d: int, n: int) -> int | None:
    """(-d)^(n/2) when it is rational, else None."""
    if n % 2 == 0:
        return (-d) ** (n // 2)
    if -d > 0 and isqrt(-d) ** 2 == -d:
        return isqrt(-d) ** n
    return None


def pell_holds(P: tuple, Q: tuple, f: list, d: int, x0: int) -> bool:
    """P(x0)^2 - (f(x0)^2 + d) * Q(x0)^2 == 1."""
    f0 = horner(f, x0)
    return value_at(P, x0) ** 2 - (f0 * f0 + d) * value_at(Q, x0) ** 2 == 1


def pell_solution_ok(P: tuple, Q: tuple, f: list, d: int, n: int, integral, x0: int) -> bool:
    """The checks every quadratic solution must pass."""
    return (
        pell_holds(P, Q, f, d, x0)
        and degree(P) == n * (len(f) - 1)
        and integral == (is_integral(P) and is_integral(Q))
    )


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    size = len(m)
    out = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, size):
            if m[i][k]:
                factor = m[i][k] / m[k][k]
                for j in range(k, size):
                    m[i][j] -= factor * m[k][j]
    return out


def circulant_det(values: list, R0) -> Fraction:
    """det of the R0-twisted circulant with first column ``values``."""
    m = len(values)
    return det(
        [[values[(i - j) % m] * (R0 if j > i else 1) for j in range(m)] for i in range(m)]
    )


def step_char_poly_ok(char_coeffs: list, f0, R0, m: int, ts: list) -> bool:
    """sum_k c_k t^k == det(tI - M) at each t, for M the degree-m step matrix at x0."""
    for t in ts:
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = t - f0
        for i in range(1, m):
            rows[i][i - 1] = -1
        rows[0][m - 1] = -R0
        if horner(char_coeffs, t) != det(rows):
            return False
    return True


def redei_at(a0: int, z0: int, n: int) -> tuple[int, int]:
    """(N, D) with (z0 + sqrt(a0))^n = N + D*sqrt(a0), by repeated multiplication."""
    N, D = 1, 0
    for _ in range(n):
        N, D = N * z0 + D * a0, N + D * z0
    return N, D


def pell_pair(f: list, d: int, k: int) -> tuple[list, list]:
    """Integer solution (P, Q) of index k: (f + sqrt(f^2+d))^k / (-d)^(k/2)."""
    D = padd(pmul(f, f), [d])
    N, Dk = [1], []
    for _ in range(k):
        N, Dk = padd(pmul(N, f), pmul(Dk, D)), padd(N, pmul(Dk, f))
    scale = normalizer(d, k)
    return pdiv_int(N, scale), pdiv_int(Dk, scale)


def is_prime(m: int) -> bool:
    return m >= 2 and all(m % k for k in range(2, isqrt(m) + 1))


def paper_class(d: int) -> str:
    """The paper's integrality classes by d."""
    if d == -1:
        return "ALL_N"
    if d in (1, 2, -2):
        return "EVEN_N"
    return "NONE"


def paper_case_m(r: int, m: int, n: int) -> bool:
    """The paper's three sufficient integrality cases for degree m."""
    if r == -1:
        return True
    if n % m:
        return False
    return r == 1 or (abs(r) == m and is_prime(m))
