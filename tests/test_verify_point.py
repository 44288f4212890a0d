"""``verify``'s one-point Kronecker test against the polynomial check.

While ``Poly`` would square L*P and L*Q in binary, ``kernels.point_test``
decides P^2 - D*Q^2 == 1 for ``verify`` from the values of the cleared
residual at x = 2^k, and elsewhere it declines (None).  That is exact only
while k is large enough for the coefficient bound: with k too small, a
nonzero residual that vanishes at 2^k is accepted without any error.  The
reference here is the polynomial identity (L*P)^2 - D*(L*Q)^2 == L^2, and the
deterministic cases are nonzero residuals built to vanish at a power of two
just below the one ``point_test`` picks.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pellred import kernels
from pellred.kernels import (
    KRONECKER_DECIMAL_MIN_BITS,
    KRONECKER_FLOOR,
    _DECIMAL_MAX_BITS,
    _decimal_digits,
    _kernel,
    kronecker_pack,
    point_test,
)
from pellred.pell2 import PellProblem, solve, verify
from pellred.polyring import ONE, Poly, X, ZERO, common_denominator


def reference(P, Q, D) -> bool:
    P, Q, D = Poly(P), Poly(Q), Poly(D)
    L = common_denominator(P, Q)
    return (P * L) * (P * L) - D * ((Q * L) * (Q * L)) == L * L


@contextmanager
def cutoff(value):
    """Run ``verify``, and ``Poly`` products, with another binary/decimal cut-off."""
    saved = kernels.KRONECKER_DECIMAL_MIN_BITS
    kernels.KRONECKER_DECIMAL_MIN_BITS = value
    try:
        yield
    finally:
        kernels.KRONECKER_DECIMAL_MIN_BITS = saved


# The default, always the point test, and the polynomial check for every L*P
# or L*Q that ``Poly`` squares by Kronecker substitution with at most 640
# digits (the check then takes those squares in decimal).
CUTOFFS = (KRONECKER_DECIMAL_MIN_BITS, 10**9, -1)


def check(P, Q, D) -> bool:
    """verify's verdict, the same under every cut-off and equal to the reference."""
    want = reference(P, Q, D)
    for value in CUTOFFS:
        with cutoff(value):
            assert verify(P, Q, D) is want, (value, P, Q, D)
    return want


coeff = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)


def polys(max_size):
    return st.lists(coeff, max_size=max_size).map(Poly)


@st.composite
def solutions(draw):
    """A true pair: one of the paper's solutions, or P = Q^2*T + 1 with
    D = T*(Q^2*T + 2), which holds for every Q and T, rational ones too."""
    if draw(st.booleans()):
        f = Poly(draw(st.lists(st.integers(-5, 5), min_size=2, max_size=5)))
        d = draw(st.integers(-6, 6).filter(bool))
        n = draw(st.integers(0, 40))
        if n % 2 and -d not in (1, 4):
            n += 1  # (-d)^(n/2) is rational for even n, or for odd n when -d is a square
        s = solve(PellProblem(f, d), n)
        return s.P, s.Q, PellProblem(f, d).D
    Q = draw(polys(70))
    T = draw(polys(12).filter(bool))
    return Q * Q * T + 1, Q, T * (Q * Q * T + 2)


def tamper(p: Poly, draw) -> Poly:
    """p with one coefficient changed by +-1, +-2^j, halved or negated, or
    the whole polynomial doubled."""
    cs = list(p.coeffs) or [0]
    i = draw(st.integers(0, len(cs) - 1))
    kind = draw(st.sampled_from(["one", "power", "half", "negate", "double"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "one":
        cs[i] += sign
    elif kind == "power":
        cs[i] += sign * 2 ** draw(st.integers(1, 300))
    elif kind == "half":
        cs[i] = Fraction(cs[i] or 1, 2)
    elif kind == "negate":
        cs[i] = -cs[i] or 1
    else:
        return p * 2
    return Poly(cs)


def kernels_taken(P, Q, D, monkeypatch) -> tuple[int, int]:
    """How many ``Poly.square`` calls and decimal Kronecker products one true
    ``verify(P, Q, D)`` made: none on the point test; on the polynomial check
    two squares (L*P and L*Q), of which those past the cut-off are decimal."""
    squares, decimal = [], []
    square, kronecker_decimal = Poly.square, kernels._kronecker_decimal
    with monkeypatch.context() as patch:
        patch.setattr(Poly, "square", lambda p: squares.append(p) or square(p))
        patch.setattr(kernels, "_kronecker_decimal", lambda *args: decimal.append(args) or kronecker_decimal(*args))
        assert verify(P, Q, D)
    return len(squares), len(decimal)


def square_packed(p: Poly) -> int:
    """The size in bits that the Kronecker kernel packs the square of the
    integer polynomial p to: its length times the bound on the square's
    coefficients (twice the largest coefficient's bits, plus the length's)."""
    cs = p.coeffs
    return len(cs) * (2 * max(map(abs, cs)).bit_length() + len(cs).bit_length())


# (f, d, n, packed): solutions whose larger square, of L*P, packs into
# ``packed`` bits in the Kronecker kernel, just below and just above the
# default cut-off of 200 000; L*Q's square packs below it in both.  The
# first packs to 200 088 bits at verify's own 2^k, whose bound is some bytes
# wider than the kernel's: it must keep the point test, as its squares
# would run in binary.  The second has a rational P (d = 3, L = 3^68).
AROUND_THE_CUTOFF = [("x^3+2x-1", -4, 132, 199_691), ("2x^2-1", 3, 136, 200_109)]

SETTINGS = settings(max_examples=80, deadline=None)


class TestAgainstPolynomialCheck:
    @SETTINGS
    @given(solutions())
    def test_solutions(self, sol):
        assert check(*sol)

    @SETTINGS
    @given(solutions(), st.sampled_from("PQD"), st.data())
    def test_tampered(self, sol, which, data):
        P, Q, D = sol
        if which == "P":
            P = tamper(P, data.draw)
        elif which == "Q":
            Q = tamper(Q, data.draw)
        else:
            D = tamper(D, data.draw)
        check(P, Q, D)

    @SETTINGS
    @given(solutions(), st.integers(-4, 4).filter(bool), st.integers(1, 6))
    def test_rational_d(self, sol, a, b):
        # D scaled by (a/b)^2 with Q scaled by b/a keeps D*Q^2, and so the verdict.
        P, Q, D = sol
        assert check(P, Q * Fraction(b, a), D * Fraction(a * a, b * b))
        check(P, Q, D / (b + 1))

    @SETTINGS
    @given(polys(40), polys(40), polys(10))
    def test_random_triples(self, P, Q, D):
        check(P, Q, D)

    @SETTINGS
    @given(polys(40), polys(10))
    def test_zero_q(self, P, D):
        assert check(P, ZERO, D) == (P * P == 1)

    @SETTINGS
    @given(polys(40), polys(40))
    def test_zero_d(self, P, Q):
        # Q's own digits must fit the packing width although D*Q^2 is zero.
        assert check(P, Q, ZERO) == (P * P == 1)

    def test_operands_on_both_sides_of_the_cutoff(self, monkeypatch):
        for f, d, n, packed in AROUND_THE_CUTOFF:
            problem = PellProblem(Poly(f), d)
            s, D = solve(problem, n), problem.D
            L = common_denominator(s.P, s.Q)
            assert max(square_packed(s.P * L), square_packed(s.Q * L)) == packed
            assert square_packed(s.Q * L) < KRONECKER_DECIMAL_MIN_BITS
            below = packed < KRONECKER_DECIMAL_MIN_BITS
            # The point test, or the polynomial check with L*P squared in decimal.
            assert kernels_taken(s.P, s.Q, D, monkeypatch) == ((0, 0) if below else (2, 1))
            # The route turns exactly at the packed size.
            for value, kernels in ((packed, (2, 1)), (packed + 1, (0, 0))):
                with cutoff(value):
                    assert kernels_taken(s.P, s.Q, D, monkeypatch) == kernels
            assert check(s.P, s.Q, D)
            assert not check(s.P + 1, s.Q, D)
            assert not check(s.P, s.Q * 3, D)
            assert not check(s.P, s.Q, D + X)


def vanishing_cases():
    """(P, Q, D, g) whose residual P^2 - D*Q^2 - 1 is Q^2*g: nonzero, but zero
    at x = 2^a, a root of g.  With P = Q^2*T + 1, D = T*(Q^2*T + 2) - g."""
    shapes = [(ONE, X), (ONE, Poly("x^3-2x+5")), (Poly("x+2"), Poly("3x^2-1")), (Fraction(1, 3), X / 2)]
    for Q, T in shapes:
        Q, T = Poly(Q), Poly(T)
        P = Q * Q * T + 1
        base = T * (Q * Q * T + 2)
        gs = [X - 2**a for a in range(260)]
        gs += [(X - 2**a) * (X + 2**b) for a in range(72) for b in range(0, 72, 3)]
        for g in gs:
            yield P, Q, base - g, g


class TestAtTheBound:
    def test_residual_vanishing_at_a_smaller_power_of_two(self):
        # Each residual is zero at some 2^a below the 2^k that point_test picks,
        # and its largest coefficient is near 2^(k-1).  A k taken too small, by
        # a byte or by half, lands on some a and accepts a wrong pair.
        for P, Q, D, g in vanishing_cases():
            assert P * P - D * Q * Q - 1 == Q * Q * g
            L = common_denominator(P, Q)
            assert point_test((P * L).num, (Q * L).num, D.num, D.den, L * L) is False, (P, Q, D)
            assert not verify(P, Q, D), (P, Q, D)


def squares_in_decimal(cs) -> bool:
    """Whether ``Poly.square`` of the integer coefficients cs takes the decimal
    kernel, stated apart from ``point_test`` as its reference: no coefficient
    is read while even ``_DECIMAL_MAX_BITS`` would not pack cs to the cut-off."""
    n = len(cs)
    return _decimal_digits(n, _DECIMAL_MAX_BITS) > 0 and _kernel(n, (cs,), (cs,))[1] > 0


@st.composite
def near_the_decimal_rule(draw):
    """Integer coefficients whose square's bit bound lies near
    ``_DECIMAL_MAX_BITS`` or well below it, at a length near the one where it
    packs to ``KRONECKER_DECIMAL_MIN_BITS``; or a short list."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(st.integers(-(2**70), 2**70), max_size=KRONECKER_FLOOR + 2))
    bits = draw(st.one_of(st.integers(_DECIMAL_MAX_BITS - 8, _DECIMAL_MAX_BITS + 8), st.integers(400, 1400)))
    n = KRONECKER_DECIMAL_MIN_BITS // bits + draw(st.integers(-2, 2))
    top = (bits - n.bit_length()) // 2
    rng = random.Random(draw(st.integers(0, 2**32)))
    cs = [rng.randrange(1 - (1 << top), 1 << top) for _ in range(n)]
    cs[rng.randrange(n)] = rng.choice((-1, 1)) * ((1 << top) - 1)
    return cs


class TestPointTest:
    @SETTINGS
    @given(
        near_the_decimal_rule(),
        near_the_decimal_rule(),
        st.sampled_from(["random", "true P", "true Q"]),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.integers(1, 6),
        st.integers(1, 4),
        st.booleans(),
        st.data(),
    )
    def test_declines_the_decimal_squares_and_decides_the_rest(self, ps, qs, kind, ts, e, L, tampered, data):
        # True triples: Q = c with e = c^2 and e*D = P^2 - L^2, or P = L + Q^2*T
        # with D = T*(2L + Q^2*T); the random ones are almost all false.
        if kind == "true P":
            c = ts[0] or 1
            qs, e = [c], c * c
            ds = list((Poly(ps).square() - L * L).num)
        elif kind == "true Q":
            Q2T = Poly(qs).square() * Poly(ts)
            ps, ds = list((Q2T + L).num), list((Poly(ts) * (Q2T + 2 * L) * e).num)
        else:
            ds = ts
        if tampered:
            cs = data.draw(st.sampled_from([cs for cs in (ps, qs, ds) if cs]))
            cs[data.draw(st.integers(0, len(cs) - 1))] += data.draw(st.sampled_from([1, -1]))
        got = point_test(ps, qs, ds, e, L * L)
        decimal = squares_in_decimal(ps) or squares_in_decimal(qs)
        assert decimal is (_kernel(len(ps), (ps,), (ps,))[1] > 0 or _kernel(len(qs), (qs,), (qs,))[1] > 0)
        if decimal:
            assert got is None
        else:
            P, Q = Poly(ps), Poly(qs)
            assert got is ((P.square() - L * L) * e == Poly(ds) * Q.square())


class TestPack:
    @given(st.integers(1, 6), st.data())
    def test_value_at_the_power(self, w, data):
        half = 1 << (8 * w - 1)
        cs = data.draw(st.lists(st.integers(-half, half - 1), max_size=12))
        assert kronecker_pack(cs, w) == sum(c << (8 * w * i) for i, c in enumerate(cs))

    def test_empty(self):
        assert kronecker_pack([], 3) == 0
