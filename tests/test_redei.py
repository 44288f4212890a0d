from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pellred.polyring import ONE, Poly, X, ZERO
from pellred.redei import (
    GenRedeiVec,
    InvalidIndex,
    RedeiPair,
    gen_redei,
    gen_redei_oracle,
    gen_redei_sequence,
    norm_identity_holds,
    norm_power,
    redei_closed_form,
    redei_matrix,
    redei_recurrence,
    redei_sequence,
    step_matrix,
)

inputs = st.lists(st.integers(min_value=-10, max_value=10), max_size=5).map(Poly)


class TestKnownValues:
    def test_initial_conditions(self):
        pair = redei_recurrence(Poly("x^2+3"), Poly("x"), 0)
        assert (pair.N, pair.D) == (ONE, ZERO)

    def test_recurrence_table3_row4(self):
        pair = redei_recurrence(Poly("x^2+3"), Poly("x"), 4)
        assert pair.N == Poly("8x^4+24x^2+9")
        assert pair.D == Poly("8x^3+12x")

    def test_recurrence_table2_row6(self):
        pair = redei_recurrence(Poly("x^4+2"), Poly("x^2"), 6)
        assert pair.N == Poly("32x^12+96x^8+72x^4+8")

    def test_matrix_n1(self):
        pair = redei_matrix(Poly("x^2+3"), Poly("x"), 1)
        assert (pair.N, pair.D) == (Poly("x"), ONE)

    def test_matrix_table1_row5(self):
        pair = redei_matrix(Poly("x^4-1"), Poly("x^2"), 5)
        assert pair.N == Poly("16x^10-20x^6+5x^2")
        assert pair.D == Poly("16x^8-12x^4+1")

    def test_closed_form_n2(self):
        z, alpha = Poly("3x-1"), Poly("x^3+2")
        pair = redei_closed_form(alpha, z, 2)
        assert pair.N == z * z + alpha
        assert pair.D == z * 2

    def test_closed_form_table2_row3(self):
        pair = redei_closed_form(Poly("x^4+2"), Poly("x^2"), 3)
        assert pair.N == Poly("4x^6+6x^2")
        assert pair.D == Poly("4x^4+2")

    def test_closed_form_table3_row5(self):
        pair = redei_closed_form(Poly("x^2+3"), Poly("x"), 5)
        assert pair.N == Poly("16x^5+60x^3+45x")


class TestThreeWayAgreement:
    @settings(max_examples=20, deadline=None)
    @given(inputs, inputs, st.integers(min_value=0, max_value=12))
    def test_all_methods_agree(self, alpha, z, n):
        a = redei_recurrence(alpha, z, n)
        b = redei_matrix(alpha, z, n)
        c = redei_closed_form(alpha, z, n)
        assert (a.N, a.D) == (b.N, b.D) == (c.N, c.D)

    @settings(max_examples=20, deadline=None)
    @given(inputs, inputs, st.integers(min_value=0, max_value=12))
    def test_views_are_the_engine_at_m2(self, alpha, z, n):
        assert redei_recurrence(alpha, z, n) == gen_redei_sequence(z, alpha, 2, n)[n]
        assert redei_sequence(alpha, z, n) == gen_redei_sequence(z, alpha, 2, n)
        assert redei_matrix(alpha, z, n) == gen_redei(z, alpha, 2, n)
        assert redei_closed_form(alpha, z, n) == gen_redei_oracle(z, alpha, 2, n)

    def test_pair_is_the_m2_vector(self):
        assert RedeiPair is GenRedeiVec
        vec = gen_redei(Poly("x"), Poly("x^3+2"), 4, 5)
        assert (vec.N, vec.D) == vec.A[:2]

    def test_sequence_matches_per_index(self):
        alpha, z = Poly("x^3-2x+1"), Poly("2x+3")
        chain = redei_sequence(alpha, z, 12)
        for n in (0, 1, 5, 12):
            single = redei_recurrence(alpha, z, n)
            assert (chain[n].N, chain[n].D) == (single.N, single.D)


def plain_step_chain(z, alpha, n_max):
    """(N_n, D_n) for n = 0..n_max by the step rule as the paper states it."""
    N, D = ONE, ZERO
    chain = [(N, D)]
    for _ in range(n_max):
        N, D = z * N + alpha * D, z * D + N
        chain.append((N, D))
    return chain


coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def shifted_squares(draw):
    """(z, alpha) with alpha = z^2 + c for any c (c = 0 and deg c > 2*deg z
    included), or alpha drawn on its own, so every shape of alpha occurs."""
    z = Poly(draw(st.lists(coeffs, max_size=5)))
    other = Poly(draw(st.lists(coeffs, max_size=10)))
    return z, (z * z + other if draw(st.booleans()) else other)


class TestRegroupedStep:
    """At m = 2 the step is regrouped through c = alpha - z^2, with z*D carried
    from one step to the next, for every alpha; it must give the plain step
    rule's pairs."""

    @settings(max_examples=80, deadline=None)
    @given(shifted_squares(), st.integers(min_value=0, max_value=24))
    @example((X * X + 1, (X * X + 1) ** 2 + Poly("x^3-2")), 24)  # deg c = 2*deg z - 1
    @example((X * 2 - Fraction(1, 3), (X * 2 - Fraction(1, 3)) ** 2), 24)  # alpha = z^2, c = 0
    @example((Poly(3), Poly(9)), 6)  # z constant, c = 0
    @example((Poly(Fraction(3, 2)), Poly(7)), 6)  # z constant, deg c = deg alpha
    @example((ZERO, Poly("x^2+3")), 9)  # z = 0
    @example((Poly("x+1"), ZERO), 9)  # alpha = 0
    @example((ZERO, ZERO), 5)  # z = alpha = 0
    @example((X, Poly("2x^2+1")), 12)  # alpha's leading term does not cancel
    @example((Poly("x^4+2x-1"), Poly("x^2+3")), 12)  # deg alpha < deg z - 1
    @example((Poly("x^5-x"), Poly("7")), 10)  # deg alpha < deg z - 1, alpha constant
    @example((X, Poly("x^6-2x+5")), 12)  # deg alpha > 2*deg z
    # rational z and alpha, with deg alpha < deg z - 1 and deg alpha > 2*deg z
    @example((Poly([Fraction(1, 2), 0, 0, Fraction(-3, 4)]), Poly([Fraction(2, 3), 5])), 12)
    @example((Poly([Fraction(-1, 6), Fraction(5, 2)]), Poly([Fraction(7, 4), 0, 0, Fraction(1, 3)])), 12)
    def test_matches_plain_rule_matrix_and_oracle(self, z_alpha, n_max):
        z, alpha = z_alpha
        chain = gen_redei_sequence(z, alpha, 2, n_max)
        for n, ref in enumerate(plain_step_chain(z, alpha, n_max)):
            assert chain[n].A == ref
            assert gen_redei(z, alpha, 2, n).A == ref
            assert gen_redei_oracle(z, alpha, 2, n).A == ref

    @pytest.mark.parametrize("z, alpha", [("x^2+3x-1", "x^4+x^2+5"), ("x^3-2", "x+1"), ("2x+1", "x^5-x"), ("x", "x^2+x")])
    @pytest.mark.parametrize("n_max", [0, 1, 7])
    def test_one_product_by_z_per_step(self, z, alpha, n_max, monkeypatch):
        # The z*z in c, then one z*s per step: the next step's z*D is carried.
        # A Poly converts to itself, so the chain multiplies by this very z;
        # at z = x, alpha = x^2 + x the c it multiplies by is equal to z but
        # another object.
        z, alpha = Poly(z), Poly(alpha)
        by_z = []
        mul = Poly.__mul__

        def counting(p, q):
            if p is z or q is z:
                by_z.append((p, q))
            return mul(p, q)

        monkeypatch.setattr(Poly, "__mul__", counting)
        monkeypatch.setattr(Poly, "__rmul__", counting)
        chain = gen_redei_sequence(z, alpha, 2, n_max)
        monkeypatch.undo()
        assert len(by_z) == n_max + 1
        assert [vec.A for vec in chain] == plain_step_chain(z, alpha, n_max)


class TestNormIdentity:
    @settings(max_examples=20, deadline=None)
    @given(inputs, inputs, st.integers(min_value=0, max_value=10))
    def test_holds_for_constructed_pairs(self, alpha, z, n):
        assert norm_identity_holds(redei_recurrence(alpha, z, n))

    def test_detects_tampering(self):
        pair = redei_recurrence(Poly("x^2+3"), Poly("x"), 3)
        bad = RedeiPair(pair.m, pair.n, pair.z, pair.alpha, (pair.N + 1, pair.D))
        assert not norm_identity_holds(bad)

    @settings(max_examples=10, deadline=None)
    @given(inputs, inputs, st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=7))
    def test_holds_for_every_degree(self, alpha, z, m, n):
        for build in (gen_redei, gen_redei_oracle):
            assert norm_identity_holds(build(z, alpha, m, n))
        assert norm_identity_holds(gen_redei_sequence(z, alpha, m, n)[n])

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_detects_tampering_at_every_degree(self, m):
        z, alpha = Poly("x+2"), Poly("x^2-3")
        for vec in (gen_redei(z, alpha, m, 4), gen_redei_oracle(z, alpha, m, 6)):
            for i in range(m):
                A = list(vec.A)
                A[i] = A[i] + 1
                assert not norm_identity_holds(GenRedeiVec(m, vec.n, z, alpha, tuple(A)))

    def test_unit_norm_family(self):
        # z^2 - alpha == 1 here, so the norm is 1 at every index.
        alpha, z = Poly("x^4-1"), Poly("x^2")
        for pair in redei_sequence(alpha, z, 8):
            assert pair.N * pair.N - alpha * (pair.D * pair.D) == ONE


class TestBackwardStep:
    def test_inverse_matrix_recovers_previous(self):
        alpha, z = Poly("x^2+3"), Poly("2x-1")
        det = z * z - alpha
        chain = redei_sequence(alpha, z, 20)
        for n in range(1, 21):
            cur, prev = chain[n], chain[n - 1]
            # Apply [[z, -alpha], [-1, z]] / (z^2 - alpha) exactly.
            back_n = (z * cur.N - alpha * cur.D).div_exact(det)
            back_d = (z * cur.D - cur.N).div_exact(det)
            assert (back_n, back_d) == (prev.N, prev.D)


class TestDivisibility:
    def test_power_of_d_divides_pell_pairs(self):
        for f in (Poly("x"), Poly("x^2"), Poly("x^3+x"), Poly("x^2+1")):
            for d in (2, -2):
                alpha = f * f + d
                for pair in redei_sequence(alpha, f, 20):
                    need = abs(d) ** (pair.n // 2)
                    assert all(c % need == 0 for c in pair.N.coeffs)
                    assert all(c % need == 0 for c in pair.D.coeffs)

    def test_three_does_not_divide_n2(self):
        pair = redei_recurrence(Poly("x^2+3"), Poly("x"), 2)
        assert pair.N == Poly("2x^2+3")
        assert any(c % 3 for c in pair.N.coeffs)


class TestDegreeLaw:
    def test_pell_shape_degrees(self):
        for f, d in ((Poly("x"), 5), (Poly("x^2"), -3), (Poly("2x^3+x"), 2)):
            m = f.degree
            for pair in redei_sequence(f * f + d, f, 10):
                assert pair.N.degree == pair.n * m
                if pair.n >= 1:
                    assert pair.D.degree == (pair.n - 1) * m


class TestInvalidIndex:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: redei_recurrence(Poly("x"), ONE, -1),
            lambda: redei_sequence(Poly("x"), ONE, -1),
            lambda: redei_matrix(Poly("x"), ONE, -1),
            lambda: redei_closed_form(Poly("x"), ONE, -1),
            lambda: gen_redei_oracle(Poly("x"), ONE, 3, -2),
            lambda: gen_redei(Poly("x"), ONE, 1, 2),
            lambda: gen_redei_sequence(Poly("x"), ONE, 0, 2),
            lambda: step_matrix(Poly("x"), ONE, 1),
            lambda: norm_power(4, 2, -1),
            lambda: norm_power(4, 0, 1),
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(InvalidIndex):
            call()


class TestNormPower:
    def test_matches_root_search(self):
        for m in (2, 3, 4, 5):
            roots = {}
            for k in range(-40, 41):
                if k >= 0 or m % 2:
                    roots.setdefault(k**m, k)
            for base in range(-300, 301):
                for n in range(8):
                    if n % m == 0:
                        want = base ** (n // m)
                    else:
                        want = roots[base] ** n if base in roots else None
                    assert norm_power(base, m, n) == want, (base, m, n)

    def test_large_roots_are_exact(self):
        k = 3**20 * 10**20 + 7
        assert norm_power(k**2, 2, 1) == k
        assert norm_power(k**2 + 1, 2, 1) is None
        assert norm_power(-(k**5), 5, 3) == -(k**3)
        assert norm_power(10**400 + 1, 3, 1) is None
