from fractions import Fraction

import pytest

from gkn_legendre import oracle
from gkn_legendre.brackets import bracket
from gkn_legendre.classical import ClassicalFunction, Poly
from gkn_legendre.exactnum import legendre_stirling
from gkn_legendre.matrices import det_exact
from gkn_legendre.oracle import (
    DivergentLimit,
    LogRat,
    _lagrangian_chains,
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


LAMBDA = LogRat((Poly.ZERO, Poly.ONE))
LAMBDA2 = LogRat((Poly.ZERO, Poly.ZERO, Poly.ONE))
ONE_MINUS_X2 = LogRat((Poly([1, 0, -1]),))
ZERO_ORDER = 1 << 30


class TestEndRat:
    """Rational functions with poles only at +-1: LogRats without L terms."""

    def test_cancellation(self):
        # (1-x^2) / (1-x) -> 1+x
        e = LogRat((Poly([1, 0, -1]),), 1, 0)
        assert e == LogRat((Poly([1, 1]),))
        assert e.pow_one_minus == 0
        # a factor is cancelled only while all three numerators share it
        f = LogRat((Poly([1, 0, -1]), Poly.ONE), 1, 0)
        assert f.pow_one_minus == 1

    def test_derivative_of_simple_pole(self):
        e = LogRat((Poly.ONE,), 1, 0)  # 1/(1-x)
        d = e.derivative()
        assert d == LogRat((Poly.ONE,), 2, 0)

    def test_orders(self):
        e = LogRat((Poly([1, 0, -1]),))  # 1-x^2
        assert e.order_at("plus_one") == (1, ZERO_ORDER, ZERO_ORDER)
        assert e.order_at("minus_one") == (1, ZERO_ORDER, ZERO_ORDER)
        pole = LogRat((Poly.ONE,), 2, 1)
        assert pole.order_at("plus_one")[0] == -2
        assert pole.order_at("minus_one")[0] == -1
        # (1 + (1-x) L) / ((1-x)^2 (1+x)): each power of L has its own order
        mixed = LogRat((Poly.ONE, Poly([1, -1])), 2, 1)
        assert mixed.order_at("plus_one") == (-2, -1, ZERO_ORDER)
        # repeated roots: (1-x)^2 (1+x)^3 has order 2 at +1 and 3 at -1
        one_minus, one_plus = Poly([1, -1]), Poly([1, 1])
        double = LogRat((one_minus**2 * one_plus**3,))
        assert double.order_at("plus_one") == (2, ZERO_ORDER, ZERO_ORDER)
        assert double.order_at("minus_one") == (3, ZERO_ORDER, ZERO_ORDER)
        # over (1-x)(1+x), with N1 = (1-x)^3 vanishing at +1 only and N2 = (1+x)^2 (2+x) at -1 only
        ends = LogRat((one_minus**2 * one_plus**3, one_minus**3, one_plus**2 * Poly([2, 1])), 1, 1)
        assert ends.order_at("plus_one") == (1, 2, -1)
        assert ends.order_at("minus_one") == (2, -1, 1)

    def test_value_at(self):
        e = LogRat((Poly([0, 1]),), 0, 1)  # x/(1+x)
        assert endpoint_limit(e, "plus_one") == Fraction(1, 2)
        # (x + (1-x) L) / (1+x): the log term vanishes at +1
        f = LogRat((Poly([0, 1]), Poly([1, -1])), 0, 1)
        assert endpoint_limit(f, "plus_one") == Fraction(1, 2)


class TestDifferentiate:
    def test_lambda_prime(self):
        d = LAMBDA.derivative()
        assert d.term(1) == LogRat()
        assert d == LogRat((Poly.ONE,), 1, 1)

    def test_q1_derivative(self):
        # d/dx (x*L - 1) = L + x/(1-x^2)
        d = classical_to_lograt(Q(1)).derivative()
        assert d.term(1) == LogRat((Poly.ONE,))
        assert d.term(0) == LogRat((Poly([0, 1]),), 1, 1)

    def test_polynomial(self):
        d = LogRat((Poly([0, 0, 1]),)).derivative()
        assert d == LogRat((Poly([0, 2]),))

    def test_log_squared_chain(self):
        d = LAMBDA2.derivative()
        assert d.term(1) == LogRat((Poly([2]),), 1, 1)
        assert d.term(2) == LogRat()


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
        f = LogRat((Poly.ONE,), 1, 0)
        with pytest.raises(DivergentLimit) as err:
            endpoint_limit(f, "plus_one")
        assert "order -1" in str(err.value)

    def test_closure_sanity(self):
        # (1-x)^a (1+x)^b L^p -> 0 at both ends for a,b >= 1, p in {0,1}
        for a in (1, 2):
            for b in (1, 3):
                base = Poly([1, -1]) ** a * Poly([1, 1]) ** b
                for f in (LogRat((base,)), LogRat((base,)) * LAMBDA):
                    assert endpoint_limit(f, "plus_one") == 0
                    assert endpoint_limit(f, "minus_one") == 0

    def test_log_squared_vanishes_with_factor(self):
        f = ONE_MINUS_X2 * LAMBDA2
        assert endpoint_limit(f, "plus_one") == 0

    def test_log_squared_without_factor_diverges(self):
        with pytest.raises(DivergentLimit):
            endpoint_limit(LAMBDA2, "plus_one")


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

    def test_endpoint_reflection(self):
        # Lemma A: P_j(-x) = (-1)^j P_j(x) and Q_k(-x) = (-1)^(k+1) Q_k(x) give
        # [f,g]_n(-1) = -(-1)^(p(f)+p(g)) [f,g]_n(+1), each endpoint taken
        # on its own, so the bracket vanishes whenever p(f)+p(g) is odd
        funcs = [ClassicalFunction(kind, i) for kind in "PQ" for i in range(6)]
        parity = {f: f.index + (f.kind == "Q") for f in funcs}
        nonzero_parities = set()
        for n in (1, 2, 3):
            for f in funcs:
                for g in funcs:
                    form = sesquilinear_at(classical_to_lograt(f), classical_to_lograt(g), n)
                    plus = endpoint_limit(form, "plus_one")
                    minus = endpoint_limit(form, "minus_one")
                    p = parity[f] + parity[g]
                    assert minus == -((-1) ** p) * plus
                    if plus:
                        nonzero_parities.add(p % 2)
        assert nonzero_parities == {0, 1}  # both signs are checked on nonzero values

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
        f = LogRat((Poly.ONE,), 1, 0)  # 1/(1-x), diverges at +1
        reports = fn_condition_check(f, 1)
        assert reports[0].right_limit_exists is False


class TestDerivativeCounts:
    """Each reader of the Lagrangian chains differentiates a fixed number of times."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_calls_per_reader(self, n, monkeypatch):
        calls = []
        derivative = LogRat.derivative

        def counted(self):
            calls.append(self)
            return derivative(self)

        monkeypatch.setattr(LogRat, "derivative", counted)
        f, g = classical_to_lograt(P(2)), classical_to_lograt(Q(3))

        def count(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)

        assert count(sesquilinear_at, f, g, n) == n * (n + 1)
        assert count(apply_ell_n_lagrangian, g, n) == n + n * (n + 1) // 2
        assert count(fn_condition_check, g, n) == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_expansion_is_one_sum(self, n, monkeypatch):
        """The Lagrangian expansion sums its n terms in one ``_sum``."""
        sizes = []
        total = oracle._sum
        monkeypatch.setattr(oracle, "_sum", lambda terms: sizes.append(len(terms)) or total(terms))
        apply_ell_n_lagrangian(classical_to_lograt(Q(3)), n)
        assert sizes == [n]


class TestSumLiftsOnce:
    def test_one_product_per_numerator(self, monkeypatch):
        """``_sum`` lifts each nonzero numerator to the common denominator by
        one product, whatever the pole difference (here up to 3), and gives
        the ``LogRat`` a chain of ``+`` gives."""
        values = [
            LogRat((Poly([1, 2]), Poly([3]))),
            LogRat((Poly([5]),), 3, 1, 2),
            LogRat((Poly([1, 0, 1]), Poly.ZERO, Poly([7, 1])), 1, 3, 3),
            LogRat((Poly([-4, 1]), Poly([2])), 2, 0, 6),
        ]
        chained = values[0] + values[1] + values[2] + values[3]
        calls = []
        product = oracle.add_product
        monkeypatch.setattr(oracle, "add_product", lambda *args: calls.append(args) or product(*args))
        assert oracle._sum([v._summand(1) for v in values]) == chained
        assert len(calls) == sum(bool(p) for v in values for p in v.nums) == 7


class TestIntegerNumerators:
    """The arithmetic never divides: every ``LogRat`` holds ``int`` numerator
    coefficients over an ``int`` den, and prints N / den as the rational
    coefficients it stands for."""

    @staticmethod
    def integral(e):
        return type(e.den) is int and all(type(c) is int for p in e.nums for c in p.coeffs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chains_and_form_are_integer(self, n):
        funcs = [classical_to_lograt(ClassicalFunction(kind, i)) for kind in "PQ" for i in range(7)]
        for f in funcs:
            derivs, chains = _lagrangian_chains(f, n)
            assert all(map(self.integral, derivs + [e for chain in chains for e in chain]))
        for f in funcs:
            for g in funcs:
                assert self.integral(sesquilinear_at(f, g, n))

    @pytest.mark.parametrize("den", [0, -2])
    def test_den_must_be_positive(self, den):
        with pytest.raises(ValueError, match="den must be >= 1"):
            LogRat((Poly.ONE,), 0, 0, den)

    @pytest.mark.parametrize("field", ["pow_one_minus", "pow_one_plus"])
    def test_pole_exponents_are_nonnegative_ints(self, field):
        # a negative exponent would be a (1 -+ x) factor in the numerator,
        # which the canonical form does not hold
        with pytest.raises(ValueError, match=f"LogRat: {field} must be >= 0"):
            LogRat((Poly.ONE,), **{field: -1})
        with pytest.raises(TypeError, match=f"LogRat: {field} must be an int, got float"):
            LogRat((Poly.ONE,), **{field: 1.0})
        with pytest.raises(TypeError, match="LogRat: den must be an int, got Fraction"):
            LogRat((Poly.ONE,), den=Fraction(2))

    def test_float_coefficients_are_a_type_error(self):
        with pytest.raises(TypeError, match="coefficients must be int or Fraction, got float"):
            LogRat((Poly([0.5]),))
        with pytest.raises(TypeError, match="coefficients must be int or Fraction, got float"):
            classical_to_lograt(Q(2)) * 0.5

    def test_bool_coefficients_are_a_type_error(self):
        with pytest.raises(TypeError, match="coefficients must be int or Fraction, got bool"):
            LogRat((Poly([True, 1]),))
        with pytest.raises(TypeError, match="coefficients must be int or Fraction, got bool"):
            LogRat((Poly.ONE, Poly([False, Fraction(1, 2)])))

    def test_text_prints_rational_coefficients(self):
        q2 = classical_to_lograt(Q(2))
        assert q2.den == 2
        assert str(q2) == "-3/2*x + [-1/2 + 3/2*x^2] * ln((1+x)/(1-x))/2"

    def test_divergence_text_divides_by_den(self):
        f = LogRat((Poly([Fraction(1, 3), Fraction(5, 6)]),), 1, 2)
        assert (f.nums[0], f.den) == (Poly([2, 5]), 6)
        with pytest.raises(DivergentLimit) as err:
            endpoint_limit(f, "plus_one")
        assert str(err.value) == (
            "divergent limit at plus_one: leading term order -1 term [(1/3 + 5/6*x) / ((1-x)(1+x)^2)]"
        )
        with pytest.raises(DivergentLimit) as err:
            endpoint_limit(classical_to_lograt(Q(2)), "plus_one")
        assert str(err.value) == "divergent limit at plus_one: leading term order 0 term [-1/2 + 3/2*x^2] * L"


class TestLegendreStirlingCertification:
    """Independent derivation: expand the iterated operator on a monomial and
    solve for the Lagrangian coefficients by Cramer's rule."""

    def derive_coefficients(self, n):
        f = LogRat((Poly([0] * (2 * n + 1) + [1]),))  # x^(2n+1), generic enough
        target = apply_ell_n(f, n)
        # basis terms (-1)^k ((1-x^2)^k f^(k))^(k)
        basis = []
        one_minus_x2 = Poly([1, 0, -1])
        for k in range(1, n + 1):
            derivs = f
            for _ in range(k):
                derivs = derivs.derivative()
            term = LogRat((one_minus_x2**k,)) * derivs
            for _ in range(k):
                term = term.derivative()
            basis.append(term if k % 2 == 0 else -term)
        # pick n coefficient positions and solve the linear system exactly
        def coeff(expr, i):
            cs = expr.nums[0].coeffs
            return cs[i] if i < len(cs) else Fraction(0)

        rows_idx = list(range(1, 2 * n + 2, 2))[:n]
        a = [[coeff(b, i) for b in basis] for i in rows_idx]
        rhs = [coeff(target, i) for i in rows_idx]
        d = det_exact(a)
        assert d != 0
        sols = []
        for col in range(n):
            a_col = [row[:col] + [rhs[i]] + row[col + 1 :] for i, row in enumerate(a)]
            sols.append(Fraction(det_exact(a_col), d))
        return sols

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_recurrence(self, n):
        derived = self.derive_coefficients(n)
        assert derived == [legendre_stirling(n, k) for k in range(1, n + 1)]
