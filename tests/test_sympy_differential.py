"""Differential tests against sympy for the integer fast paths of the core.

Products on both sides of the Kronecker threshold, long division with int,
Fraction and mixed operands, determinants, characteristic polynomials and the
denominator-cleared ``verify_m`` are each compared with sympy's answer.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from pellred.pellm import PellMSolution, solve_m, verify_m  # noqa: E402
from pellred.polymat import PolyMatrix, build_circulant  # noqa: E402
from pellred.kernels import KRONECKER_FLOOR, KRONECKER_MIN_LEN  # noqa: E402
from pellred.polyring import Poly  # noqa: E402

x, t = sympy.symbols("x t")


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], x, domain="QQ")


def from_sympy(value) -> Poly:
    coeffs = sympy.Poly(value, x, domain="QQ").all_coeffs()
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)])


small = st.integers(min_value=-3, max_value=3)
wide = st.integers(min_value=-(2**1000), max_value=2**1000)
fraction = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


def exact_length(coeff, length):
    """Polynomials with exactly ``length`` coefficients."""
    return st.lists(coeff, min_size=length, max_size=length).map(
        lambda cs: Poly(cs[:-1] + [cs[-1] or -1])
    )


K = KRONECKER_MIN_LEN
lengths = st.sampled_from([1, 2, KRONECKER_FLOOR - 1, KRONECKER_FLOOR, 16, K - 1, K, K + 1, 3 * K])
int_polys = lengths.flatmap(lambda n: exact_length(st.one_of(small, wide), n))
frac_polys = st.integers(1, K + 2).flatmap(lambda n: exact_length(st.one_of(small, fraction), n))
mixed_polys = st.one_of(int_polys, frac_polys)


class TestProducts:
    @settings(max_examples=40, deadline=None)
    @given(int_polys, int_polys)
    def test_mul_integer(self, a, b):
        assert a * b == from_sympy(to_sympy(a) * to_sympy(b))

    @settings(max_examples=40, deadline=None)
    @given(int_polys)
    def test_square_integer(self, a):
        assert a.square() == from_sympy(to_sympy(a) ** 2)

    @settings(max_examples=30, deadline=None)
    @given(mixed_polys, mixed_polys)
    def test_mul_mixed(self, a, b):
        assert a * b == from_sympy(to_sympy(a) * to_sympy(b))
        assert a.square() == from_sympy(to_sympy(a) ** 2)


class TestDivision:
    @settings(max_examples=60, deadline=None)
    @given(mixed_polys, mixed_polys)
    def test_divmod(self, a, b):
        q, r = divmod(a, b)
        sq, sr = sympy.div(to_sympy(a), to_sympy(b), x, domain="QQ")
        assert q == from_sympy(sq)
        assert r == from_sympy(sr)

    @pytest.mark.parametrize(
        "num, den",
        [
            ("6x^4-3x^3+9x-12", "-3x^2+1"),
            ("x^5-1", "-x+1"),
            ("-7x^3+5", "2x-3"),
            ("4x^2", "-2"),
        ],
    )
    def test_negative_leading_coefficients(self, num, den):
        for a, b in ((Poly(num), Poly(den)), (Poly(num) * Fraction(1, 3), Poly(den))):
            q, r = divmod(a, b)
            sq, sr = sympy.div(to_sympy(a), to_sympy(b), x, domain="QQ")
            assert (q, r) == (from_sympy(sq), from_sympy(sr))

    def test_exact_division_by_fraction_leading(self):
        b = Poly([1, Fraction(-2, 3)])
        a = b * Poly("5x^2-x+7")
        assert a.div_exact(b) == from_sympy(sympy.quo(to_sympy(a), to_sympy(b), x))


def matrices(entry, dim):
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim).map(
        PolyMatrix
    )


int_entry = st.lists(st.integers(-5, 5), max_size=3).map(Poly)
frac_entry = st.lists(st.one_of(st.integers(-5, 5), fraction), max_size=3).map(Poly)
any_matrix = st.integers(2, 5).flatmap(
    lambda n: st.one_of(matrices(int_entry, n), matrices(frac_entry, n))
)


def sympy_matrix(mat: PolyMatrix):
    return sympy.Matrix([[to_sympy(e).as_expr() for e in row] for row in mat.rows])


class TestMatrices:
    @settings(max_examples=30, deadline=None)
    @given(any_matrix)
    def test_det(self, mat):
        expected = from_sympy(sympy.expand(sympy_matrix(mat).det(method="berkowitz")))
        assert mat.det_bareiss() == expected
        assert mat.det_cofactor() == expected

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: matrices(int_entry, n)))
    def test_char_poly(self, mat):
        expected = sympy_matrix(mat).charpoly(t).all_coeffs()
        assert list(reversed(mat.char_poly())) == [from_sympy(sympy.expand(c)) for c in expected]


class TestVerifyM:
    @pytest.mark.parametrize(
        "f, r, m, n",
        [("x", 2, 3, 3), ("x^2+1", 2, 3, 6), ("x-1", 7, 5, 5), ("2x+1", 3, 4, 4), ("x", 2, 5, 5)],
    )
    def test_non_integral_solutions(self, f, r, m, n):
        sol = solve_m(Poly(f), r, m, n)
        assert not sol.integral
        uncleared = build_circulant(sol.sols, sol.R)
        assert uncleared.det() == 1
        assert from_sympy(sympy.expand(sympy_matrix(uncleared).det(method="berkowitz"))) == 1
        assert verify_m(sol)
        tampered = (sol.sols[0] + Fraction(1, 3),) + sol.sols[1:]
        bad = PellMSolution(sol.m, sol.n, sol.R, tampered, False, sol.normalizer)
        assert build_circulant(bad.sols, bad.R).det() != 1
        assert not verify_m(bad)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 5).flatmap(lambda m: st.lists(frac_entry, min_size=m, max_size=m)),
        int_entry,
    )
    def test_agrees_with_uncleared_determinant(self, sols, R):
        sol = PellMSolution(len(sols), 0, R, tuple(sols), False, 1)
        det = sympy_matrix(build_circulant(sols, R)).det(method="berkowitz")
        uncleared = from_sympy(sympy.expand(det))
        assert verify_m(sol) == (uncleared == 1)
