from fractions import Fraction

import pytest

from gkn_legendre.brackets import bracket
from gkn_legendre.classical import ClassicalFunction, Poly
from gkn_legendre.exactnum import legendre_stirling
from gkn_legendre.matrices import det_exact
from gkn_legendre.oracle import (
    DivergentLimit,
    EndRat,
    LogRat,
    apply_ell,
    apply_ell_n,
    apply_ell_n_lagrangian,
    bracket_via_oracle,
    classical_to_lograt,
    endpoint_limit,
    fn_condition_check,
    sesquilinear_at,
)


def P(i):
    return ClassicalFunction("P", i)


def Q(i):
    return ClassicalFunction("Q", i)


LAMBDA = LogRat.lam()
ONE_MINUS_X2 = LogRat.from_poly(Poly([1, 0, -1]))


class TestEndRat:
    def test_cancellation(self):
        # (1-x^2) / (1-x) -> 1+x
        e = EndRat(Poly([1, 0, -1]), 1, 0)
        assert e == EndRat(Poly([1, 1]))
        assert e.pow_one_minus == 0

    def test_derivative_of_simple_pole(self):
        e = EndRat(Poly.ONE, 1, 0)  # 1/(1-x)
        d = e.derivative()
        assert d == EndRat(Poly.ONE, 2, 0)

    def test_orders(self):
        e = EndRat(Poly([1, 0, -1]))  # 1-x^2
        assert e.order_at("plus_one") == 1
        assert e.order_at("minus_one") == 1
        pole = EndRat(Poly.ONE, 2, 1)
        assert pole.order_at("plus_one") == -2
        assert pole.order_at("minus_one") == -1

    def test_value_at(self):
        e = EndRat(Poly([0, 1]), 0, 1)  # x/(1+x)
        assert e.value_at("plus_one") == Fraction(1, 2)


class TestDifferentiate:
    def test_lambda_prime(self):
        d = LAMBDA.derivative()
        assert d.logpart.is_zero()
        assert d.plain == EndRat(Poly.ONE, 1, 1)

    def test_q1_derivative(self):
        # d/dx (x*L - 1) = L + x/(1-x^2)
        d = classical_to_lograt(Q(1)).derivative()
        assert d.logpart == EndRat.ONE
        assert d.plain == EndRat(Poly([0, 1]), 1, 1)

    def test_polynomial(self):
        d = LogRat.from_poly(Poly([0, 0, 1])).derivative()
        assert d == LogRat.from_poly(Poly([0, 2]))

    def test_log_squared_chain(self):
        f = LogRat(EndRat.ZERO, EndRat.ZERO, EndRat.ONE)  # L^2
        d = f.derivative()
        assert d.logpart == EndRat(Poly([2]), 1, 1)
        assert d.log2part.is_zero()


class TestOperatorApplication:
    @pytest.mark.parametrize("k", range(13))
    def test_eigen_equation_p(self, k):
        f = classical_to_lograt(P(k))
        assert apply_ell(f) == k * (k + 1) * f

    @pytest.mark.parametrize("k", range(13))
    def test_eigen_equation_q(self, k):
        f = classical_to_lograt(Q(k))
        assert apply_ell(f) == k * (k + 1) * f

    def test_iterated_matches_lagrangian(self):
        for f in (classical_to_lograt(P(4)), classical_to_lograt(Q(3))):
            for n in range(1, 6):
                assert apply_ell_n(f, n) == apply_ell_n_lagrangian(f, n)

    def test_power_of_eigenvalue(self):
        f = classical_to_lograt(Q(2))
        assert apply_ell_n(f, 3) == 6**3 * f


class TestEndpointLimit:
    def test_one_minus_x2_times_lambda(self):
        f = ONE_MINUS_X2 * LAMBDA
        assert endpoint_limit(f, "plus_one") == 0
        assert endpoint_limit(f, "minus_one") == 0

    def test_q1_flux(self):
        # (1-x^2) Q1' = (1-x^2) L + x
        f = ONE_MINUS_X2 * classical_to_lograt(Q(1)).derivative()
        assert endpoint_limit(f, "plus_one") == 1
        assert endpoint_limit(f, "minus_one") == -1

    def test_bare_log_diverges(self):
        with pytest.raises(DivergentLimit):
            endpoint_limit(LAMBDA, "plus_one")

    def test_pole_diverges_with_leading_term(self):
        f = LogRat(EndRat(Poly.ONE, 1, 0))
        with pytest.raises(DivergentLimit) as err:
            endpoint_limit(f, "plus_one")
        assert "order -1" in str(err.value)

    def test_closure_sanity(self):
        # (1-x)^a (1+x)^b L^p -> 0 at both ends for a,b >= 1, p in {0,1}
        for a in (1, 2):
            for b in (1, 3):
                base = Poly([1, -1]) ** a * Poly([1, 1]) ** b
                for f in (LogRat.from_poly(base), LogRat.from_poly(base) * LAMBDA):
                    assert endpoint_limit(f, "plus_one") == 0
                    assert endpoint_limit(f, "minus_one") == 0

    def test_log_squared_vanishes_with_factor(self):
        f = ONE_MINUS_X2 * LogRat(EndRat.ZERO, EndRat.ZERO, EndRat.ONE)
        assert endpoint_limit(f, "plus_one") == 0

    def test_log_squared_without_factor_diverges(self):
        with pytest.raises(DivergentLimit):
            endpoint_limit(LogRat(EndRat.ZERO, EndRat.ZERO, EndRat.ONE), "plus_one")


class TestSesquilinearForm:
    def test_p0_q1_n1_is_flux_of_q1(self):
        form = sesquilinear_at(classical_to_lograt(P(0)), classical_to_lograt(Q(1)), 1)
        expected = ONE_MINUS_X2 * classical_to_lograt(Q(1)).derivative()
        assert form == expected

    def test_pp_pairs_vanish_at_endpoints(self):
        for n in (1, 2, 3):
            for j, k in ((0, 1), (2, 3), (1, 4)):
                form = sesquilinear_at(
                    classical_to_lograt(P(j)), classical_to_lograt(P(k)), n
                )
                assert endpoint_limit(form, "plus_one") == 0
                assert endpoint_limit(form, "minus_one") == 0

    def test_antisymmetric_in_arguments(self):
        f, g = classical_to_lograt(Q(1)), classical_to_lograt(Q(3))
        assert sesquilinear_at(f, g, 2) == -sesquilinear_at(g, f, 2)

    def test_p0_q3_n3_endpoint_difference(self):
        form = sesquilinear_at(classical_to_lograt(P(0)), classical_to_lograt(Q(3)), 3)
        diff = endpoint_limit(form, "plus_one") - endpoint_limit(form, "minus_one")
        assert diff == 288


class TestBracketViaOracle:
    @pytest.mark.parametrize(
        "f,g,n,expected",
        [
            (P(0), Q(1), 1, 2),
            (P(0), Q(1), 3, 8),
            (Q(1), Q(3), 3, Fraction(860, 3)),
        ],
    )
    def test_golden(self, f, g, n, expected):
        assert bracket_via_oracle(f, g, n) == expected

    def test_engine_agreement_small_slab(self):
        # the full bound (indices <= 8, n <= 4) runs in the acceptance suite
        funcs = [ClassicalFunction(kind, i) for kind in "PQ" for i in range(5)]
        for n in (1, 2):
            for f in funcs:
                for g in funcs:
                    assert bracket_via_oracle(f, g, n) == bracket(f, g, n)


class TestFnConditions:
    def test_polynomials_satisfy_everything(self):
        for k in (0, 2, 5):
            for n in (1, 2, 3):
                for rep in fn_condition_check(classical_to_lograt(P(k)), n):
                    assert rep.left_limit_exists and rep.right_limit_exists
                    assert rep.difference_zero

    def test_q0_n1(self):
        (rep,) = fn_condition_check(LAMBDA, 1)
        assert rep.j == 1
        assert (rep.left_limit, rep.right_limit) == (1, 1)
        assert rep.difference_zero

    def test_q0_n2_recorded(self):
        reports = fn_condition_check(LAMBDA, 2)
        assert [r.j for r in reports] == [1, 2]
        # a_1 = 2(1-x^2): limits are (2, 2); a_2 Q0'' differentiates to (2, 2)
        assert reports[0].left_limit == reports[0].right_limit == 2
        assert reports[1].difference_zero

    def test_divergence_reported_not_raised(self):
        f = LogRat(EndRat(Poly.ONE, 1, 0))  # 1/(1-x), diverges at +1
        reports = fn_condition_check(f, 1)
        assert reports[0].right_limit_exists is False

    def test_json_shape(self):
        (rep,) = fn_condition_check(LAMBDA, 1)
        j = rep.to_json()
        assert j["j"] == 1 and j["left_limit"] == "1"


class TestLegendreStirlingCertification:
    """Independent derivation: expand the iterated operator on a monomial and
    solve for the Lagrangian coefficients by Cramer's rule."""

    def derive_coefficients(self, n):
        f = LogRat.from_poly(Poly([0] * (2 * n + 1) + [1]))  # x^(2n+1), generic enough
        target = apply_ell_n(f, n)
        # basis terms (-1)^k ((1-x^2)^k f^(k))^(k)
        basis = []
        one_minus_x2 = Poly([1, 0, -1])
        for k in range(1, n + 1):
            derivs = f
            for _ in range(k):
                derivs = derivs.derivative()
            term = LogRat.from_poly(one_minus_x2**k) * derivs
            for _ in range(k):
                term = term.derivative()
            basis.append(term if k % 2 == 0 else -term)
        # pick n coefficient positions and solve the linear system exactly
        def coeff(expr, i):
            cs = expr.plain.num.coeffs
            return cs[i] if i < len(cs) else Fraction(0)

        rows_idx = list(range(1, 2 * n + 2, 2))[:n]
        a = [[coeff(b, i) for b in basis] for i in rows_idx]
        rhs = [coeff(target, i) for i in rows_idx]
        d = det_exact(a)
        assert d != 0
        sols = []
        for col in range(n):
            a_col = [row[:col] + [rhs[i]] + row[col + 1 :] for i, row in enumerate(a)]
            sols.append(det_exact(a_col) / d)
        return sols

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_recurrence(self, n):
        derived = self.derive_coefficients(n)
        assert derived == [legendre_stirling(n, k) for k in range(1, n + 1)]
