from fractions import Fraction

import pytest

from gkn_legendre.classical import (
    Poly,
    inner_pq,
    inner_qq,
    legendre_p,
    legendre_q,
    q_norm_squared,
)
from gkn_legendre.exactnum import PiPair, harmonic


def poly_integral(p: Poly) -> Fraction:
    """Exact integral over [-1, 1] by monomial integration (the test oracle)."""
    total = Fraction(0)
    for i, c in enumerate(p.coeffs):
        if i % 2 == 0:
            total += c * Fraction(2, i + 1)
    return total


class TestPoly:
    def test_canonical_trailing_zero_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert not Poly([0, 0])

    def test_arithmetic(self):
        p = Poly([1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert not p - p
        assert (p**3).coeffs == (1, 3, 3, 1)
        assert (p**0).coeffs == (1,)
        assert p.derivative().coeffs == (1,)
        assert p(Fraction(1, 2)) == Fraction(3, 2)

    def test_json(self):
        assert Poly([Fraction(-1, 2), 0, Fraction(3, 2)]).to_json() == ["-1/2", "0", "3/2"]

    def test_zero_prints_as_zero(self):
        assert str(Poly()) == str(Poly([0, 0])) == "0"

    def test_json_refuses_a_float_coefficient(self):
        with pytest.raises(TypeError, match="float"):
            Poly([0.5]).to_json()

    def test_float_coefficient_is_a_type_error_at_construction(self):
        with pytest.raises(TypeError, match="^Poly: coefficients must be int or Fraction, got float$"):
            Poly([1.5])

    def test_float_scalar_product_is_a_type_error(self):
        for product in (lambda: Poly([1, 2]) * 0.5, lambda: 0.5 * Poly([1, 2])):
            with pytest.raises(TypeError, match="^Poly: coefficients must be int or Fraction, got float$"):
                product()
        assert (Poly([1, 2]) * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)


class TestLegendreP:
    def test_first_few(self):
        assert legendre_p(0).coeffs == (1,)
        assert legendre_p(1).coeffs == (0, 1)
        assert legendre_p(2).coeffs == (Fraction(-1, 2), 0, Fraction(3, 2))

    @pytest.mark.parametrize("k", list(range(0, 65, 4)) + [5, 63])
    def test_endpoint_normalization(self, k):
        p = legendre_p(k)
        assert p(1) == 1
        assert p(-1) == (-1) ** k

    def test_coefficient_parity(self):
        for k in range(25):
            for i, c in enumerate(legendre_p(k).coeffs):
                if (i - k) % 2 != 0:
                    assert c == 0

    def test_orthogonality_by_exact_integration(self):
        for j in range(21):
            pj = legendre_p(j)
            for k in range(j, 21):
                val = poly_integral(pj * legendre_p(k))
                assert val == (Fraction(2, 2 * k + 1) if j == k else 0)


class TestLegendreQ:
    def test_q0(self):
        q = legendre_q(0)
        assert q.log_coeff.coeffs == (1,)
        assert not q.poly_part

    def test_q1(self):
        q = legendre_q(1)
        assert q.log_coeff.coeffs == (0, 1)
        assert q.poly_part.coeffs == (1,)

    def test_q2(self):
        q = legendre_q(2)
        assert q.log_coeff == legendre_p(2)
        assert q.poly_part.coeffs == (0, Fraction(3, 2))

    def test_q3(self):
        q = legendre_q(3)
        assert q.log_coeff == legendre_p(3)
        assert q.poly_part.coeffs == (Fraction(-2, 3), 0, Fraction(5, 2))

    def test_degrees(self):
        for k in range(1, 15):
            q = legendre_q(k)
            assert q.log_coeff.degree == k
            assert q.poly_part.degree == k - 1

    def test_poly_part_parity_opposite_to_k(self):
        for k in range(1, 15):
            for i, c in enumerate(legendre_q(k).poly_part.coeffs):
                if (i - k) % 2 == 0:
                    assert c == 0

    def test_json_roundtrip_shape(self):
        j = legendre_q(2).to_json()
        assert j == {"log": ["-1/2", "0", "3/2"], "poly": ["0", "3/2"]}


class TestInnerProducts:
    def test_pq_values(self):
        assert inner_pq(0, 1) == -1
        assert inner_pq(1, 2) == Fraction(-1, 2)
        assert inner_pq(0, 2) == 0

    def test_qq_values(self):
        assert inner_qq(1, 3) == Fraction(-1, 6)
        assert inner_qq(0, 1) == 0
        assert inner_qq(0, 2) == Fraction(-1, 2)

    def test_qq_symmetric_via_harmonic_gap(self):
        # the inner product itself is symmetric; bracket antisymmetry comes
        # from the eigenvalue gap factor
        for j in range(8):
            for k in range(8):
                if j == k or (j + k) % 2:
                    continue
                assert inner_qq(j, k) == inner_qq(k, j)
                assert inner_qq(j, k) == 2 * (harmonic(j) - harmonic(k)) / (
                    (k - j) * (j + k + 1)
                )

    def test_equal_indices_rejected(self):
        # P_3 * Q_3 is odd, so its integral is 0; Q_2 * Q_2 needs q_norm_squared
        assert inner_pq(3, 3) == 0
        with pytest.raises(ValueError):
            inner_qq(2, 2)

    def test_pq_matches_quadrature(self):
        # every pair with j, k <= 4, the vanishing j == k integrals included
        mpmath = pytest.importorskip("mpmath")

        def at(p, x):
            return sum(mpmath.mpf(c.numerator) / c.denominator * x**i for i, c in enumerate(p.coeffs))

        with mpmath.workdps(30):
            for j in range(5):
                for k in range(5):
                    p, q = legendre_p(j), legendre_q(k)
                    quad = mpmath.quad(
                        lambda x: at(p, x) * (at(q.log_coeff, x) * mpmath.atanh(x) - at(q.poly_part, x)),
                        [-1, 0, 1],
                    )
                    exact = Fraction(inner_pq(j, k))
                    assert abs(quad - mpmath.mpf(exact.numerator) / exact.denominator) < 1e-20, (j, k)


class TestQNorm:
    def test_frozen_values(self):
        assert q_norm_squared(0) == PiPair(Fraction(0), Fraction(1, 6))
        assert q_norm_squared(1) == PiPair(Fraction(2, 3), Fraction(1, 18))
        assert q_norm_squared(2) == PiPair(Fraction(1, 2), Fraction(1, 30))

    def test_positive(self):
        for k in range(10):
            assert q_norm_squared(k).to_float() > 0
