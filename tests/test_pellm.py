import random
import signal
from contextlib import contextmanager

import pytest

from pellred.polyring import ONE, Poly, ZERO
from pellred.polymat import build_circulant
from pellred.pellm import (
    IrrationalNormalizer,
    NotPrime,
    PellMSolution,
    ZeroR,
    classify_m,
    divisibility_probe,
    gen_redei,
    gen_redei_oracle,
    gen_redei_sequence,
    solve_m,
    step_matrix,
    verify_m,
)
from pellred.cli import main
from pellred.redei import MAX_M, InvalidIndex, check_degree_index, redei_recurrence


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the calling thread after ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _rand_poly(rng, size=4, bound=5):
    return Poly([rng.randint(-bound, bound) for _ in range(size)])


class TestGenRedei:
    def test_power_zero(self):
        vec = gen_redei(Poly("x"), Poly("x^3+1"), 4, 0)
        assert vec.A == (ONE, ZERO, ZERO, ZERO)

    def test_first_column_structure(self):
        m = step_matrix(Poly("x"), Poly("x^2-1"), 3)
        sq = m.pow(2)
        assert sq.column(0) == (Poly("x^2"), Poly("2x"), ONE)

    def test_low_powers_of_f(self):
        f = Poly("x^2+2")
        alpha = (-f) ** 3 - 3
        vec = gen_redei_sequence(f, alpha, 3, 2)
        assert vec[1].A[0] == f
        assert vec[2].A[0] == f * f

    def test_cube_expansion(self):
        z, alpha = Poly("x"), Poly("2x-5")
        vec = gen_redei(z, alpha, 3, 3)
        assert vec.A == (z**3 + alpha, z * z * 3, z * 3)

    def test_reduces_to_redei_pair(self):
        z, alpha = Poly("2x+1"), Poly("x^2-3")
        pair = redei_recurrence(alpha, z, 9)
        vec = gen_redei(z, alpha, 2, 9)
        assert vec.A == (pair.N, pair.D)

    def test_oracle_agreement(self):
        rng = random.Random(11)
        for _ in range(6):
            z, alpha = _rand_poly(rng, 3), _rand_poly(rng, 3)
            for m in (2, 3, 4):
                for n in (0, 1, 5, 9):
                    assert gen_redei(z, alpha, m, n).A == gen_redei_oracle(z, alpha, m, n).A

    def test_sequence_matches_matrix_path(self):
        z, alpha = Poly("x^2"), Poly("x^3-2")
        chain = gen_redei_sequence(z, alpha, 3, 8)
        for n in (0, 3, 8):
            assert chain[n].A == gen_redei(z, alpha, 3, n).A

    def test_matrix_power_is_the_twisted_circulant(self):
        z, alpha = Poly("x+1"), Poly("x^2+x")
        for m in (2, 3, 4):
            for n in (1, 2, 5):
                vec = gen_redei(z, alpha, m, n)
                assert step_matrix(z, alpha, m).pow(n) == build_circulant(vec.A, alpha)


class TestDetIdentity:
    def test_determinant_power_law(self):
        rng = random.Random(13)
        for _ in range(4):
            z, alpha = _rand_poly(rng, 3, 4), _rand_poly(rng, 3, 4)
            for m in (2, 3, 4, 5):
                matrix = step_matrix(z, alpha, m)
                base = z**m + (alpha if m % 2 else -alpha)
                for n in (0, 1, 3, 5):
                    assert matrix.pow(n).det() == base**n


class TestSolveM:
    def test_unit_r_first_index(self):
        s = solve_m(Poly("x"), -1, 3, 1)
        assert s.R == Poly("-x^3-1")
        assert s.sols == (Poly("-x"), Poly("-1"), ZERO)
        assert s.integral and s.normalizer == -1
        assert verify_m(s)

    def test_reduces_to_quadratic_case(self):
        from pellred.pell2 import PellProblem, solve

        f, d = Poly("x^2+1"), 2
        for n in (0, 2, 4, 6):
            quad = solve(PellProblem(f, d), n)
            s = solve_m(f, d, 2, n)
            assert s.sols == (quad.P, quad.Q)
            assert s.integral == quad.integral

    def test_prime_case_integral(self):
        s = solve_m(Poly("x"), -3, 3, 3)
        assert s.integral and s.normalizer == -3
        assert verify_m(s)

    def test_irrational_normalizer(self):
        with pytest.raises(IrrationalNormalizer):
            solve_m(Poly("x"), 3, 3, 1)
        with pytest.raises(IrrationalNormalizer):
            solve_m(Poly("x"), 1, 4, 2)  # base -1, even m

    def test_zero_r(self):
        with pytest.raises(ZeroR):
            solve_m(Poly("x"), 0, 3, 3)
        with pytest.raises(ZeroR):
            classify_m(0, 3, 3)

    def test_exact_root_base(self):
        # base = 8 has integer cube root 2, so every index normalizes.
        s = solve_m(Poly("x"), 8, 3, 1)
        assert s.normalizer == 2
        assert verify_m(s)

    def test_large_square_root(self):
        k = 3**20 * 10**20 + 7
        with time_limit(1):
            assert solve_m(Poly("x"), -(k**2), 2, 1).normalizer == k

    def test_large_cube_root(self):
        with time_limit(1):
            s = solve_m(Poly("x"), 2**1200, 3, 1)
            assert s.normalizer == 2**400
            assert verify_m(s)

    def test_huge_irrational_base(self):
        with time_limit(1), pytest.raises(IrrationalNormalizer):
            solve_m(Poly("x"), 10**400 + 1, 3, 1)

    @pytest.mark.parametrize("m, n", [(1, 1), (0, 1), (3, -3)])
    def test_invalid_index(self, m, n):
        with pytest.raises(InvalidIndex):
            solve_m(Poly("x"), 1, m, n)
        with pytest.raises(InvalidIndex):
            classify_m(1, m, n)
        with pytest.raises(InvalidIndex):
            divisibility_probe(Poly("x"), m, n)


class TestDegreeBound:
    BIG = "1000000000000000003"  # a prime, so probe would test it by trial division

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "-r", BIG, "-m", BIG, "-n", "0"],
            ["probe", "-f", "x", "-m", BIG, "--n-max", "1"],
            ["solve-m", "-f", "x", "-r", "1", "-m", "100000", "-n", "0"],
        ],
    )
    def test_large_m_refused_at_once(self, argv, capsys):
        with time_limit(1):
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("InvalidIndex: ")
        assert captured.out == ""

    def test_bound_itself_accepted(self, capsys):
        check_degree_index(MAX_M, 0)
        with pytest.raises(InvalidIndex):
            check_degree_index(MAX_M + 1, 0)
        assert classify_m(1, MAX_M, MAX_M)
        with time_limit(1):
            assert main(["solve-m", "-f", "x", "-r", "-1", "-m", str(MAX_M), "-n", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == [f"R = x^{MAX_M}-1", "P1 = x", "P2 = 1"]
        assert out[-2:] == ["integral = true", "normalizer = 1"]


class TestClassifyM:
    def test_minus_one_any_index(self):
        assert classify_m(-1, 5, 7)
        assert classify_m(-1, 2, 3)

    def test_plus_one_needs_multiple(self):
        assert not classify_m(1, 3, 4)
        assert classify_m(1, 3, 6)

    def test_prime_m_case(self):
        assert classify_m(3, 3, 3)
        assert classify_m(-3, 3, 6)
        assert not classify_m(3, 4, 4)
        assert not classify_m(5, 5, 7)

    def test_predictions_are_sufficient(self):
        for f in (Poly("x"), Poly("x^2+1")):
            for m in (2, 3, 5):
                for r in (-1, 1, m, -m):
                    for n in range(0, 2 * m + 1):
                        if not classify_m(r, m, n):
                            continue
                        s = solve_m(f, r, m, n)
                        assert s.integral, (str(f), m, r, n)
                        assert verify_m(s)


class TestVerifyM:
    def test_trivial_solution(self):
        sol = PellMSolution(3, 0, Poly("x^3+2"), (ONE, ZERO, ZERO), True, 1)
        assert verify_m(sol)

    def test_unit_family(self):
        for n in range(7):
            assert verify_m(solve_m(Poly("x"), -1, 3, n))

    def test_tampering_detected(self):
        s = solve_m(Poly("x"), -3, 3, 3)
        bad = PellMSolution(s.m, s.n, s.R, (s.sols[0] + 1,) + s.sols[1:], s.integral, s.normalizer)
        assert not verify_m(bad)


class TestDivisibilityProbe:
    def test_cubic_case(self):
        report = divisibility_probe(Poly("x"), 3, 12)
        assert report.ok and report.violation is None

    def test_quadratic_case(self):
        report = divisibility_probe(Poly("x"), 2, 12)
        assert report.ok

    def test_composite_m_rejected(self):
        with pytest.raises(NotPrime):
            divisibility_probe(Poly("x"), 4, 6)


class TestCharPolyOfStepMatrix:
    def test_displayed_formula(self):
        from math import comb

        for f in (Poly("x"), Poly("x^2+1")):
            for m in (2, 3, 5):
                for r in (m, -m):
                    alpha = (-f) ** m + r
                    got = step_matrix(f, alpha, m).char_poly()
                    expected = [Poly(-r)]
                    for j in range(1, m):
                        i = m - j
                        expected.append(f**i * ((-1) ** i * comb(m, i)))
                    expected.append(ONE)
                    assert list(got) == expected

    def test_constant_term_is_signed_det(self):
        z, alpha = Poly("x+2"), Poly("x^3-x")
        for m in (2, 3, 4):
            matrix = step_matrix(z, alpha, m)
            cp = matrix.char_poly()
            assert cp[0] == matrix.det() * (-1) ** m
