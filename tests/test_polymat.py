from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pellred.polymat
from pellred.polymat import DimensionMismatch, PolyMatrix, build_circulant
from pellred.polyring import ONE, Poly, ZERO, dots
from pellred.redei import step_matrix

Z = Poly("x^2+1")
A = Poly("x^4-1")

entries = st.lists(st.integers(min_value=-6, max_value=6), max_size=4).map(Poly)


def matrices(dim):
    return st.lists(
        st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    ).map(PolyMatrix)


class TestProduct:
    def test_identity_neutral(self):
        m = PolyMatrix([[Z, A], [1, Z]])
        assert PolyMatrix.identity(2) @ m == m
        assert m @ PolyMatrix.identity(2) == m

    def test_square_hand_expansion(self):
        m = PolyMatrix([[Z, A], [1, Z]])
        expected = PolyMatrix(
            [[Z * Z + A, Z * A * 2], [Z * 2, Z * Z + A]]
        )
        assert m @ m == expected

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PolyMatrix.identity(2) @ PolyMatrix.identity(3)
        with pytest.raises(DimensionMismatch):
            PolyMatrix([[ONE, ONE]])


class TestPower:
    def test_zeroth_power(self):
        m = PolyMatrix([[Z, A], [1, Z]])
        assert m.pow(0) == PolyMatrix.identity(2)
        assert m.pow(1) == m

    def test_cube_from_table(self):
        m = PolyMatrix([[Poly("x^2"), Poly("x^4-1")], [1, Poly("x^2")]])
        cube = m.pow(3)
        assert cube.entry(0, 0) == Poly("4x^6-3x^2")
        assert cube.entry(1, 0) == Poly("4x^4-1")

    @settings(max_examples=25)
    @given(matrices(2), st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
    def test_power_is_homomorphic(self, m, i, j):
        assert m.pow(i + j) == m.pow(i) @ m.pow(j)


class TestDeterminant:
    def test_identity(self):
        assert PolyMatrix.identity(3).det() == ONE

    def test_two_by_two(self):
        assert PolyMatrix([[Z, A], [1, Z]]).det() == Z * Z - A

    def test_cubic_circulant_value(self):
        m = build_circulant([Poly("x^2"), ONE, ZERO], Poly("-x^6-1"))
        assert m.det() == Poly([-1])

    def test_zero_column(self):
        m = PolyMatrix([[ZERO, ONE], [ZERO, Z]])
        assert m.det() == ZERO
        assert m.det_bareiss() == ZERO

    def test_pivot_swap(self):
        m = PolyMatrix(
            [
                [ZERO, ONE, Z],
                [ONE, ZERO, A],
                [Z, A, ONE],
            ]
        )
        assert m.det_bareiss() == m.det_cofactor()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(lambda d: st.tuples(st.just(d), matrices(d))))
    def test_bareiss_matches_cofactor(self, dim_and_m):
        _, m = dim_and_m
        assert m.det_bareiss() == m.det_cofactor()

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda d: st.tuples(matrices(d), matrices(d))
        )
    )
    def test_det_multiplicative(self, pair):
        a, b = pair
        assert (a @ b).det() == a.det() * b.det()

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda d: st.tuples(matrices(d), st.integers(min_value=0, max_value=4))
        )
    )
    def test_det_of_power(self, case):
        a, n = case
        assert a.pow(n).det() == a.det() ** n


fraction_entries = st.lists(
    st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))), max_size=4
).map(Poly)
# Long integer entries, so the m x m products reach the Kronecker kernel.
long_entries = st.lists(st.integers(-(2**40), 2**40), min_size=9, max_size=14).map(Poly)


def square_matrices(entry):
    return st.integers(min_value=3, max_value=6).flatmap(
        lambda d: st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d).map(PolyMatrix)
    )


class TestDeterminantsAgree:
    """Bareiss, cofactor expansion and Berkowitz's constant term at m = 3..6."""

    @settings(max_examples=12, deadline=None)
    @given(st.one_of(square_matrices(entries), square_matrices(fraction_entries), square_matrices(long_entries)))
    def test_three_ways(self, m):
        det = m.det_cofactor()
        assert m.det_bareiss() == det
        assert m.det() == det
        cp = m.char_poly()
        assert cp[0] == det * (-1) ** m.dim and cp[-1] == ONE
        assert cp[-2] == -sum((m.entry(i, i) for i in range(m.dim)), ZERO)

    def test_circulant_of_a_redei_vector(self):
        # The m = 5 circulant of a step-matrix power has det (z^5 + alpha)^n.
        z, alpha = Poly("x^2-3x+1"), Poly("-x^10+2")
        power = step_matrix(z, alpha, 5).pow(4)
        circ = build_circulant(power.column(0), alpha)
        want = (z**5 + alpha) ** 4
        assert circ == power
        assert circ.det_bareiss() == circ.det_cofactor() == want


class TestCirculant:
    def test_order_two_is_pell_form(self):
        P, Q, D = Poly("2x^4-1"), Poly("2x^2"), Poly("x^4-1")
        m = build_circulant([P, Q], D)
        assert m == PolyMatrix([[P, D * Q], [Q, P]])
        assert m.det() == P * P - D * (Q * Q)

    def test_unit_vector_gives_identity(self):
        assert build_circulant([ONE, ZERO, ZERO], Poly("7x-2")) == PolyMatrix.identity(3)

    def test_row_pattern(self):
        s = [Poly([1]), Poly([2]), Poly([3])]
        r = Poly([5])
        m = build_circulant(s, r)
        assert m.rows[0] == (Poly([1]), Poly([15]), Poly([10]))
        assert m.rows[2] == (Poly([3]), Poly([2]), Poly([1]))

    def test_needs_two_components(self):
        with pytest.raises(DimensionMismatch):
            build_circulant([ONE], ONE)


# Circulant components: int or Fraction coefficients, zero now and then;
# twists that are zero, a constant or a polynomial.
components = st.one_of(st.just(ZERO), entries, fraction_entries)
twists = st.one_of(
    st.just(ZERO),
    st.integers(-6, 6).filter(bool).map(Poly),
    st.lists(st.integers(-6, 6), min_size=2, max_size=4).map(Poly),
)


@st.composite
def circulants(draw, count=2):
    """``count`` component lists of one length m in 2..6 and two twists."""
    m = draw(st.integers(2, 6))
    cols = [draw(st.lists(components, min_size=m, max_size=m)) for _ in range(count)]
    return cols, draw(twists), draw(twists)


def generic(mat):
    """The same entries with no twist: every product by the generic batch."""
    return PolyMatrix(mat.rows)


class TestCirculantProduct:
    """Products of twisted circulants through the first column, against the
    generic m x m batch of the same entries."""

    @settings(max_examples=60, deadline=None)
    @given(circulants())
    def test_same_twist(self, case):
        (a, b), R, _ = case
        A, B = build_circulant(a, R), build_circulant(b, R)
        got = A @ B
        assert got == generic(A) @ generic(B) == B @ A
        assert got == build_circulant(got.column(0), R) and got._twist == R

    @settings(max_examples=40, deadline=None)
    @given(circulants())
    def test_other_twist_or_plain_operand_is_generic(self, case):
        (a, b), R, S = case
        A, B = build_circulant(a, R), build_circulant(b, S)
        assert A @ B == generic(A) @ generic(B)
        assert A @ generic(B) == generic(A) @ B == generic(A) @ generic(B)
        if R != S:
            assert (A @ B)._twist is None

    def test_different_twists_are_not_a_circulant(self):
        # The first column alone would give the wrong product here.
        A = build_circulant([Poly("x"), ONE, ZERO], Poly(2))
        B = build_circulant([ONE, Poly("x"), ONE], Poly(3))
        got = A @ B
        assert got == generic(A) @ generic(B)
        assert got != build_circulant(got.column(0), Poly(2))

    @settings(max_examples=25, deadline=None)
    @given(circulants(count=1))
    def test_powers(self, case):
        (a,), R, _ = case
        A = build_circulant(a, R)
        for n in range(13):
            assert A.pow(n) == generic(A).pow(n)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_one_batch_of_m_sums_of_m_pairs(self, m):
        # Two step matrices multiply as one dots batch of A's rows against
        # B's first column; the generic path would make m^2 sums.
        S, T = step_matrix(Poly("x^2+1"), Poly("x^3-2"), m), step_matrix(Poly("3x"), Poly("x^3-2"), m)
        with mock.patch.object(pellred.polymat, "dots", wraps=dots) as spy:
            got = S @ T
        assert spy.call_count == 1
        (sums,), _ = spy.call_args
        assert len(sums) == m and all(len(xs) == len(ys) == m for xs, ys in sums)
        assert all(ys == T.column(0) for _, ys in sums)
        assert got == generic(S) @ generic(T)


class TestCharPoly:
    def test_redei_matrix_form(self):
        got = PolyMatrix([[Z, A], [1, Z]]).char_poly()
        assert got == (Z * Z - A, Z * -2, ONE)

    def test_identity(self):
        assert PolyMatrix.identity(2).char_poly() == (ONE, Poly([-2]), ONE)

    def test_constant_term_is_signed_det(self):
        m = PolyMatrix([[Z, A, ONE], [1, Z, ZERO], [ZERO, 1, Z]])
        cp = m.char_poly()
        assert cp[0] == m.det() * (-1) ** 3
        assert cp[-1] == ONE

    @settings(max_examples=15, deadline=None)
    @given(matrices(3))
    def test_evaluation_matches_shifted_det(self, m):
        cp = m.char_poly()
        for t in (-2, 5):
            shifted = PolyMatrix(
                [
                    [(Poly(t) - e) if i == j else -e for j, e in enumerate(row)]
                    for i, row in enumerate(m.rows)
                ]
            )
            total = ZERO
            for j, c in enumerate(cp):
                total = total + c * t**j
            assert total == shifted.det()
