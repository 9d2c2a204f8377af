import math
import random
from fractions import Fraction

import pytest

from gkn_legendre.exactnum import (
    PiPair,
    eigenvalue,
    harmonic,
    harmonic2,
    laguerre_ld_coefficient,
    legendre_stirling,
    rational_str,
)


def brute_harmonic(k, power=1):
    return sum(Fraction(1, i**power) for i in range(1, k + 1))


class TestHarmonic:
    def test_empty_sum(self):
        assert harmonic(0) == 0
        assert harmonic2(0) == 0

    def test_small_values(self):
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic2(2) == Fraction(5, 4)

    @pytest.mark.parametrize("k", [1, 2, 6, 10, 25])
    def test_against_direct_summation(self, k):
        assert harmonic(k) == brute_harmonic(k)
        assert harmonic2(k) == brute_harmonic(k, power=2)

    def test_increment_identity(self):
        for k in range(40):
            assert harmonic(k + 1) - harmonic(k) == Fraction(1, k + 1)
            assert harmonic2(k + 1) - harmonic2(k) == Fraction(1, (k + 1) ** 2)

    def test_derived_values(self):
        assert harmonic(6) == Fraction(49, 20)
        assert harmonic2(4) == Fraction(205, 144)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)


class TestEigenvalue:
    def test_values(self):
        assert eigenvalue(1, 3) == 8
        assert eigenvalue(3, 3) == 1728
        assert eigenvalue(5, 5) == 30**5 == 24300000

    def test_preconditions(self):
        with pytest.raises(ValueError):
            eigenvalue(1, 0)
        with pytest.raises(ValueError):
            eigenvalue(-1, 2)

    @pytest.mark.parametrize("n", [2.0, Fraction(3, 2)])
    def test_inexact_power_is_a_type_error(self, n):
        with pytest.raises(TypeError, match=f"eigenvalue: .*got {type(n).__name__}"):
            eigenvalue(2, n)


class TestLegendreStirling:
    def test_base_cases(self):
        assert legendre_stirling(0, 0) == 1
        assert legendre_stirling(1, 1) == 1
        for n in range(1, 8):
            assert legendre_stirling(n, 0) == 0

    def test_small_triangle(self):
        assert legendre_stirling(2, 1) == 2
        assert legendre_stirling(2, 2) == 1
        assert legendre_stirling(3, 2) == 8

    def test_diagonal_is_one(self):
        for n in range(1, 20):
            assert legendre_stirling(n, n) == 1

    def test_first_column_powers_of_two(self):
        # LS(n,1) = 2**(n-1) = eigenvalue(1,1)**(n-1)
        for n in range(1, 20):
            assert legendre_stirling(n, 1) == eigenvalue(1, 1) ** (n - 1)

    def test_recurrence_holds(self):
        for n in range(2, 12):
            for k in range(1, n):
                assert legendre_stirling(n, k) == legendre_stirling(
                    n - 1, k - 1
                ) + k * (k + 1) * legendre_stirling(n - 1, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            legendre_stirling(2, 3)
        with pytest.raises(ValueError):
            legendre_stirling(-1, 0)


class TestLaguerreCoefficient:
    def test_j_zero_is_k_to_the_n(self):
        assert laguerre_ld_coefficient(0, 3, 2) == 8

    def test_small_values(self):
        assert laguerre_ld_coefficient(1, 2, 1) == 3  # (k+1)^n - k^n = 4 - 1
        assert laguerre_ld_coefficient(2, 2, 0) == 1

    def test_integer_k_gives_an_exact_value(self):
        assert not isinstance(laguerre_ld_coefficient(1, 2, 1), float)

    @pytest.mark.parametrize("j,n", [(0, 4), (1, 3), (2, 5), (3, 3), (4, 6)])
    def test_brute_force_resummation(self, j, n):
        # independent summation order: iterate i downward and divide late
        for k in (Fraction(0), Fraction(2), Fraction(1, 2), Fraction(-3, 4)):
            acc = Fraction(0)
            for i in range(j, -1, -1):
                acc += Fraction((-1) ** (i + j) * math.comb(j, i)) * (k + i) ** n
            assert laguerre_ld_coefficient(j, n, k) == acc / math.factorial(j)

    def test_rational_k(self):
        v = laguerre_ld_coefficient(1, 2, Fraction(1, 2))
        assert v == Fraction(3, 2) ** 2 - Fraction(1, 2) ** 2 == 2


class TestRationalCanonicalForm:
    def test_random_operation_chains(self):
        rng = random.Random(20240817)
        vals = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(8)]
        for _ in range(1500):
            a, b = rng.choice(vals), rng.choice(vals)
            op = rng.choice("+-*/")
            if op == "/" and b == 0:
                continue
            c = {"+": a + b, "-": a - b, "*": a * b, "/": a / b if b else a}[op]
            assert c.denominator > 0
            assert math.gcd(abs(c.numerator), c.denominator) == 1
            # feed results back in, but keep operand sizes bounded so the
            # chain stays cheap
            if abs(c.numerator) < 10**9 and c.denominator < 10**9:
                vals[rng.randrange(len(vals))] = c


class TestSerialization:
    def test_rational_strings(self):
        assert rational_str(Fraction(860, 3)) == "860/3"
        assert rational_str(Fraction(-8)) == "-8"
        assert rational_str(Fraction(0)) == "0"
        assert rational_str(-8) == "-8"

    def test_inexact_value_is_a_type_error(self):
        with pytest.raises(TypeError, match="float"):
            rational_str(0.5)

    def test_pipair(self):
        p = PiPair(Fraction(2, 3), Fraction(1, 18))
        assert abs(p.to_float() - (2 / 3 + math.pi**2 / 18)) < 1e-12
