import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pellred.pell2

from pellred.polyring import NEG_INF, ONE, Poly, ZERO
from pellred.pell2 import (
    NotASolution,
    OddIndexUndefined,
    PellProblem,
    PellSolution,
    PreconditionViolated,
    UnsupportedD,
    ZeroD,
    classify,
    descend,
    identify_solution,
    nathanson,
    solve,
    solve_sequence,
    solve_square_shift,
    verify,
)
from pellred.pellm import IrrationalNormalizer, ZeroR, classify_m
from pellred.redei import AnswerTooLarge, InvalidIndex, norm_power, redei_recurrence, redei_sequence

F_SET = (Poly("x"), Poly("x^2"), Poly("x^3+x"))


class TestClassify:
    def test_tags(self):
        assert classify(-1).tag == "ALL_N"
        assert classify(2).tag == "EVEN_N"
        assert classify(1).tag == "EVEN_N"
        assert classify(-2).tag == "EVEN_N"
        assert classify(3).tag == "NONE"
        assert classify(-4).tag == "NONE"

    def test_zero_rejected(self):
        with pytest.raises(ZeroD):
            classify(0)
        with pytest.raises(ZeroD):
            PellProblem(Poly("x"), 0)

    def test_predictions(self):
        assert classify(-1).predicts_integral(7)
        assert classify(2).predicts_integral(4)
        assert not classify(2).predicts_integral(5)
        assert not classify(3).predicts_integral(2)
        # The n = 0 pair is (1, 0) for every d.
        assert classify(3).predicts_integral(0)

    def test_predictions_follow_the_tag(self):
        for d in range(-6, 7):
            if d == 0:
                continue
            cls = classify(d)
            for n in range(1, 12):
                want = {"ALL_N": True, "EVEN_N": n % 2 == 0, "NONE": False}[cls.tag]
                assert cls.predicts_integral(n) == want == classify_m(d, 2, n), (d, n)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidIndex):
            classify(1).predicts_integral(-2)


class TestSolve:
    def test_table1_row3(self):
        s = solve(PellProblem(Poly("x^2"), -1), 3)
        assert (s.P, s.Q) == (Poly("4x^6-3x^2"), Poly("4x^4-1"))
        assert s.integral and s.normalizer == 1

    def test_normalized_example(self):
        s = solve(PellProblem(Poly("x^2"), 2), 2)
        assert (s.P, s.Q) == (Poly("-x^4-1"), Poly("-x^2"))
        assert s.integral and s.normalizer == -2

    def test_rational_solution(self):
        s = solve(PellProblem(Poly("x"), 3), 2)
        assert s.P == Poly("2x^2+3") * Fraction(-1, 3)
        assert s.Q == Poly("2x") * Fraction(-1, 3)
        assert not s.integral
        assert s.normalizer == -3

    def test_odd_index_rejected(self):
        with pytest.raises(OddIndexUndefined):
            solve(PellProblem(Poly("x"), 2), 3)
        with pytest.raises(OddIndexUndefined):
            solve(PellProblem(Poly("x"), 4), 5)

    def test_refusals_are_the_degree_m_errors(self):
        # Code written against the degree-m errors catches the m = 2 ones.
        with pytest.raises(IrrationalNormalizer):
            solve(PellProblem(Poly("x"), 2), 3)
        with pytest.raises(ZeroR):
            PellProblem(Poly("x"), 0)

    def test_odd_index_with_square_minus_d(self):
        # -d = 4 is a perfect square, so odd indices normalize by 2^n.
        s = solve(PellProblem(Poly("x"), -4), 3)
        assert s.normalizer == 8
        assert verify(s.P, s.Q, Poly("x^2-4"))

    def test_negative_index_rejected(self):
        prob = PellProblem(Poly("x"), 1)
        with pytest.raises(InvalidIndex):
            solve(prob, -2)
        with pytest.raises(InvalidIndex):
            solve_sequence(prob, -1)

    def test_sequence_matches_solve(self):
        prob = PellProblem(Poly("x^2+1"), 2)
        chain = solve_sequence(prob, 8)
        for n in (0, 2, 4, 8):
            assert chain[n] == solve(prob, n)
        assert chain[3] is None

    def test_solutions_pass_verify(self):
        for f in F_SET:
            for d in (-1, 1, 2, -2, 3, -5):
                prob = PellProblem(f, d)
                for s in solve_sequence(prob, 8):
                    if s is not None:
                        assert verify(s.P, s.Q, prob.D)


class TestVerify:
    def test_trivial(self):
        assert verify(ONE, ZERO, Poly("x^7-3"))

    def test_table1_row2(self):
        assert verify(Poly("2x^4-1"), Poly("2x^2"), Poly("x^4-1"))

    def test_wrong_d(self):
        assert not verify(Poly("2x^4-1"), Poly("2x^2"), Poly("x^4+1"))


class TestDescend:
    def test_recovers_previous_pair(self):
        got = descend(Poly("2x^2+3"), Poly("2x"), Poly("x"), 3, 2)
        assert got == (Poly("x"), ONE)

    def test_terminates_at_trivial(self):
        assert descend(Poly("x"), ONE, Poly("x"), 3, 1) == (ONE, ZERO)

    def test_norm_precondition(self):
        with pytest.raises(PreconditionViolated):
            descend(Poly("x"), ONE, Poly("x"), 3, 2)

    def test_precondition_names_a_level_of_any_size(self):
        # str() of an int past 4300 digits raises ValueError.
        with pytest.raises(PreconditionViolated, match=r"\(-d\)\^1000"):
            descend(Poly(2), Poly(0), Poly("x"), -1, 10**5000)

    def test_chain_drops_degrees(self):
        for f in F_SET:
            for d in (-6, -2, -1, 1, 2, 3, 5):
                chain = redei_sequence(f * f + d, f, 10)
                for n in range(1, 11):
                    cur = chain[n]
                    down = descend(cur.N, cur.D, f, d, n)
                    assert down == (chain[n - 1].N, chain[n - 1].D)
                    assert down[0].degree < cur.N.degree
                    assert down[1].degree < cur.D.degree

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-5, max_value=5),
                st.fractions(min_value=-5, max_value=5, max_denominator=4),
            ),
            min_size=2,
            max_size=5,
        ).filter(lambda cs: cs[-1] != 0),
        st.sampled_from([d for k in range(1, 7) for d in (k, -k)]),
        st.integers(min_value=0, max_value=12),
    )
    def test_matches_product_by_D(self, f, d, n):
        # Every level of a solve pair, against P' = (D*Q - f*P)/d.
        f, n = Poly(f), n if d in (-1, -4) else n - n % 2
        sol = solve(PellProblem(f, d), n)
        P, Q, D = sol.P * sol.normalizer, sol.Q * sol.normalizer, f * f + d
        for level in range(n, 0, -1):
            want = ((D * Q - f * P) / d, (P - f * Q) / d)
            P, Q = descend(P, Q, f, d, level)
            assert (P, Q) == want
        assert (P, Q) == (ONE, ZERO)


class TestIdentify:
    def test_table1_row4(self):
        assert identify_solution(Poly("8x^8-8x^4+1"), Poly("8x^6-4x^2"), Poly("x^2"), -1) == 4

    def test_trivial(self):
        assert identify_solution(ONE, ZERO, Poly("x"), 5) == 0
        assert identify_solution(Poly("-1"), ZERO, Poly("x"), 5) == 0

    def test_rescaled_family(self):
        assert identify_solution(Poly("2x^8+4x^4+1"), Poly("2x^6+2x^2"), Poly("x^2"), 2) == 4

    def test_inverse_of_solve(self):
        for f in F_SET:
            for d in (-1, 1, 2, -2):
                prob = PellProblem(f, d)
                ns = range(0, 9) if d == -1 else range(0, 9, 2)
                for n in ns:
                    s = solve(prob, n)
                    assert s.integral
                    assert identify_solution(s.P, s.Q, f, d) == n

    def test_sign_flips_tolerated(self):
        s = solve(PellProblem(Poly("x^2"), -1), 5)
        assert identify_solution(-s.P, s.Q, Poly("x^2"), -1) == 5
        assert identify_solution(s.P, -s.Q, Poly("x^2"), -1) == 5

    def test_every_defined_solution(self):
        # Rational solutions and d outside {1, -1, 2, -2} included; the
        # content 3 of 3x+3 divides d = +-3 and +-6.
        for f in (Poly("x"), Poly("x^2+x"), Poly("-2x+1"), Poly("3x+3")):
            for d in (*range(-6, 0), *range(1, 7)):
                for s in solve_sequence(PellProblem(f, d), 8):
                    if s is None:
                        continue
                    for P, Q in ((s.P, s.Q), (-s.P, s.Q), (s.P, -s.Q), (-s.P, -s.Q)):
                        assert identify_solution(P, Q, f, d) == s.n, (f, d, s.n)

    def test_rational_f_family(self):
        # For f = x/2 the intermediate pairs of the chain are not integral;
        # the index is still found.
        f = Poly([0, Fraction(1, 2)])
        for s in solve_sequence(PellProblem(f, -1), 6):
            assert identify_solution(s.P, s.Q, f, -1) == s.n

    def test_non_solution_rejected(self):
        with pytest.raises(NotASolution):
            identify_solution(Poly("x"), ONE, Poly("x"), 3)

    def test_constant_f_unidentified(self):
        # (3, 2) solves P^2 - 2*Q^2 = 1 with f = 1, d = 1, but a constant f
        # carries no degree information to pin an index on.
        assert identify_solution(Poly([3]), Poly([2]), ONE, 1) is None

    def test_zero_f_unidentified(self):
        # (3, 2) solves P^2 - 2*Q^2 = 1 with f = 0, d = 2; deg f is NEG_INF.
        assert identify_solution(Poly(3), Poly(2), ZERO, 2) is None


def _positive_leading(p):
    return -p if p.leading < 0 else p


def _identify_per_level(P, Q, f, d):
    """Reference: ``identify_solution`` with every level checked.

    After each descent the signs are normalized again, and the pair must be
    integral with the degrees of (N_k, D_k).  ``identify_solution`` itself
    takes n plain descents and one comparison with (1, 0).
    """
    P, Q = Poly(P), Poly(Q)
    problem = PellProblem(f, d)
    if not verify(P, Q, problem.D):
        raise NotASolution("P^2 - (f^2+d)*Q^2 != 1")
    if Q.is_zero():
        return 0
    f = _positive_leading(problem.f)
    deg_f = f.degree
    if deg_f < 1:
        return None
    deg_p = P.degree
    if deg_p % deg_f:
        return None
    n = deg_p // deg_f
    if Q.degree != (n - 1) * deg_f:
        return None
    scale = norm_power(-d, 2, n)
    if scale is None:
        return None
    cur_p, cur_q = (_positive_leading(p) * abs(scale) for p in (P, Q))
    for level in range(n, 0, -1):
        cur_p, cur_q = map(_positive_leading, descend(cur_p, cur_q, f, d, level))
        if not (cur_p.is_integral() and cur_q.is_integral()):
            return None
        remaining = level - 1
        if cur_p.degree != remaining * deg_f:
            return None
        if cur_q.degree != ((remaining - 1) * deg_f if remaining else NEG_INF):
            return None
    return n if cur_p == ONE else None


def _outcome(rule, *args):
    try:
        return rule(*args)
    except Exception as exc:  # compared by type against the other rule
        return type(exc)


def _signs(P, Q):
    return ((P, Q), (-P, Q), (P, -Q), (-P, -Q))


class TestIdentifyDifferential:
    # Integer f only: for a rational f the intermediate (N_k, D_k) are not
    # integral, so the per-level rule refuses family members it should keep.
    F_DIFF = (
        Poly("x"), Poly("-x"), Poly("x^2+x"), Poly("-2x+1"), Poly("3x+3"),
        Poly("-x^3+2x"), Poly(2), Poly(-3), ZERO,
    )

    def _family(self, f, d, n_max):
        """Every solution ``solve`` defines for f and for -f, up to n_max."""
        out = []
        for g in (f, -f):
            out += [(s.P, s.Q) for s in solve_sequence(PellProblem(g, d), n_max) if s is not None]
        return out

    def test_agrees_with_per_level_rule(self):
        rng = random.Random(16)
        checked = 0
        for f in self.F_DIFF:
            for d in (*range(-6, 0), *range(1, 7)):
                D = f * f + d
                family = self._family(f, d, 8)
                cases = [pq for P, Q in family for pq in _signs(P, Q)]
                # Products and quotients of two solutions: the product with
                # (P2, -Q2) is the quotient by (P2, Q2).
                for _ in range(4):
                    (P1, Q1), (P2, Q2) = rng.choice(family), rng.choice(family)
                    for P2s, Q2s in _signs(P2, Q2):
                        cases.append((P1 * P2s + D * Q1 * Q2s, P1 * Q2s + Q1 * P2s))
                P, Q = rng.choice(family)
                cases.append((P * 2, Q))
                for P, Q in cases:
                    want = _outcome(_identify_per_level, P, Q, f, d)
                    got = _outcome(identify_solution, P, Q, f, d)
                    assert got == want, (f, d, P, Q)
                    checked += 1
        assert checked > 6000


class TestSquareShift:
    def test_quartic_family(self):
        s = solve_square_shift(Poly("x^4-1"), 2)
        assert (s.P, s.Q) == (Poly("2x^4-1"), Poly("2x^2"))
        assert verify(s.P, s.Q, Poly("x^4-1"))

    def test_absent_when_not_square(self):
        assert solve_square_shift(Poly("x^2+1"), 2) is None

    def test_shifted_square(self):
        s = solve_square_shift(Poly("x^2+2x"), 2)
        assert (s.P, s.Q) == (Poly("2x^2+4x+1"), Poly("2x+2"))

    def test_every_index_integral(self):
        f = Poly("x^4-1")
        for n in range(8):
            s = solve_square_shift(f, n)
            assert s.integral
            assert verify(s.P, s.Q, f)

    def test_matches_the_pair_of_f_and_g(self):
        # The pair (N_n(f, g), D_n(f, g)) with normalizer 1, as built before
        # the d = -1 case of solve took its place.
        def by_pair(f, n):
            g = (f + 1).sqrt()
            if g is None:
                return None
            pair = redei_recurrence(f, g, n)
            return PellSolution(pair.N, pair.D, n, True, 1)

        rng = random.Random(20191)
        for _ in range(3000):
            g = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
            f = g * g - 1 if rng.random() < 0.8 else Poly([rng.randint(-5, 5) for _ in range(3)])
            n = rng.randint(-2, 12)
            assert _outcome(solve_square_shift, f, n) == _outcome(by_pair, f, n), (f, n)


class TestNathanson:
    def test_first_step(self):
        assert nathanson(-1, 1) == (Poly("x"), ONE)

    def test_unsupported(self):
        with pytest.raises(UnsupportedD):
            nathanson(3, 2)

    def test_unsupported_d_of_any_size(self):
        # str() of an int past 4300 digits raises ValueError.
        with pytest.raises(UnsupportedD, match="d=1000"):
            nathanson(10**5000, 1)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidIndex):
            nathanson(-1, -1)

    def test_huge_index_refused_before_the_power(self, monkeypatch):
        # The refusal comes before any matrix is built, so it is immediate.
        monkeypatch.setattr(pellred.pell2, "build_circulant", None)
        for d in (1, -1, 2, -2):
            with pytest.raises(AnswerTooLarge):
                nathanson(d, 10**12)

    def test_matches_redei_for_minus_one(self):
        for n in range(16):
            pair = redei_recurrence(Poly("x^2-1"), Poly("x"), n)
            assert nathanson(-1, n) == (pair.N, pair.D)

    def test_matches_solve_up_to_sign(self):
        for d in (1, 2, -2):
            prob = PellProblem(Poly("x"), d)
            a1, _ = nathanson(d, 1)
            s1 = solve(prob, 2)
            sign = 1 if a1 == s1.P else -1
            assert a1 == s1.P * sign
            for n in range(16):
                a, b = nathanson(d, n)
                s = solve(prob, 2 * n)
                assert (a, b) == (s.P * sign**n, s.Q * sign**n)


def _classifier_scope(f: Poly, d: int) -> bool:
    # Classification by d alone presumes f outside a few residue classes:
    # if every coefficient of f shares an odd prime factor with d, or if
    # |d| = 4 and f is congruent to a constant mod 2, integral solutions
    # can appear at indices the d-classifier rules out.
    for p in (3, 5):
        if d % p == 0 and all(c % p == 0 for c in f.coeffs):
            return False
    if abs(d) == 4 and all(c % 2 == 0 for c in f.coeffs[1:]):
        return False
    return True


class TestIntegralityClassification:
    def test_matches_classifier_outside_degenerate_f(self):
        rng = random.Random(7)
        for _ in range(40):
            f = Poly([rng.randint(-5, 5) for _ in range(5)])
            for d in range(-6, 7):
                if d == 0 or not _classifier_scope(f, d):
                    continue
                prediction = classify(d)
                prob = PellProblem(f, d)
                for s in solve_sequence(prob, 14):
                    if s is None:
                        continue
                    assert s.integral == prediction.predicts_integral(s.n), (f, d, s.n)

    def test_degenerate_f_escapes_the_classifier(self):
        # These integral solutions sit outside the classified (d, n) range;
        # they bound how far the d-only classification can be trusted.
        s = solve(PellProblem(Poly("2x+1"), 4), 6)
        assert s.integral and classify(4).tag == "NONE"
        assert verify(s.P, s.Q, Poly("2x+1") ** 2 + 4)

        s = solve(PellProblem(Poly("2x+1"), -4), 3)
        assert s.integral
        assert (s.P, s.Q) == (Poly("4x^3+6x^2-1"), Poly("2x^2+2x"))

        s = solve(PellProblem(Poly("3x"), 3), 2)
        assert s.integral and classify(3).tag == "NONE"

        s = solve(PellProblem(Poly("2x"), -4), 2)
        assert s.integral
