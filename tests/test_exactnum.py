import math
import random
import re
from argparse import Namespace
from fractions import Fraction

import pytest

from gkn_legendre import cli, exactnum
from gkn_legendre.brackets import bracket, bracket_decomposed
from gkn_legendre.classical import (
    ClassicalFunction,
    Poly,
    QRepresentation,
    inner_pq,
    inner_qq,
    legendre_p,
    legendre_q,
    q_norm_squared,
)
from gkn_legendre.exactnum import (
    PiPair,
    clear_denominators,
    eigenvalue,
    harmonic,
    harmonic2,
    laguerre_ld_coefficient,
    legendre_stirling,
    rational_str,
)
from gkn_legendre.matrices import IndexSelection, canonical_selection, det_exact, rank_exact
from gkn_legendre.oracle import (
    LogRat,
    apply_ell_n,
    apply_ell_n_lagrangian,
    bracket_via_oracle,
    fn_condition_check,
    lagrangian_coefficients,
    sesquilinear_at,
)
from gkn_legendre.sweep import RunConfig


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

    def test_far_index_stores_only_its_own_entry(self):
        """H_k is cached per k: indices in any order give the direct sum's
        value and type, and each stores one entry, nothing for those below it."""
        exactnum._harmonic.cache_clear()
        ks = (3, 700, 19, 5, 50, 1001, 40, 200)
        for k in ks:
            value = harmonic(k)
            assert value == brute_harmonic(k) and type(value) is Fraction, k
        assert exactnum._harmonic.cache_info().currsize == len(ks)
        assert harmonic(20000) - harmonic(19999) == Fraction(1, 20000)
        assert exactnum._harmonic.cache_info().currsize == len(ks) + 2

    def test_far_index_of_harmonic2_stores_only_its_own_entry(self):
        """H_k^(2) is cached as H_k is, under its own keys."""
        exactnum._harmonic.cache_clear()
        ks = (3, 700, 19, 50, 200)
        for k in ks:
            value = harmonic2(k)
            assert value == brute_harmonic(k, power=2) and type(value) is Fraction, k
        assert exactnum._harmonic.cache_info().currsize == len(ks)
        assert harmonic(3) == Fraction(11, 6)  # H_3, not H_3^(2)
        assert exactnum._harmonic.cache_info().currsize == len(ks) + 1
        value = harmonic2(20000)
        assert exactnum._harmonic.cache_info().currsize == len(ks) + 2
        assert value - harmonic2(19999) == Fraction(1, 20000**2)


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

    @pytest.mark.parametrize("n", [2.0, Fraction(3, 2), True])
    def test_inexact_power_is_a_type_error(self, n):
        with pytest.raises(TypeError, match=f"eigenvalue: n .*got {type(n).__name__}"):
            eigenvalue(2, n)

    @pytest.mark.parametrize("k", [2.0, Fraction(3, 2), True])
    def test_inexact_index_is_a_type_error(self, k):
        with pytest.raises(TypeError, match=f"eigenvalue: k .*got {type(k).__name__}"):
            eigenvalue(k, 2)


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

    @pytest.mark.parametrize("k", [True, 0.5])
    def test_k_outside_the_number_rule_is_a_type_error(self, k):
        message = f"^laguerre_ld_coefficient: k must be int or Fraction, got {type(k).__name__}$"
        with pytest.raises(TypeError, match=message):
            laguerre_ld_coefficient(1, 2, k)

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

    def test_bool_is_a_type_error(self):
        with pytest.raises(TypeError, match="^rational_str: q must be int or Fraction, got bool$"):
            rational_str(True)

    def test_pipair(self):
        p = PiPair(Fraction(2, 3), Fraction(1, 18))
        assert abs(p.to_float() - (2 / 3 + math.pi**2 / 18)) < 1e-12


P0, Q1, ONE = ClassicalFunction("P", 0), ClassicalFunction("Q", 1), LogRat((Poly.ONE,))
# (owner, argument, least, call, valid, expected): every entry point under the
# argument rule, each ``call`` taking the argument under test
RULE_TABLE = [
    ("ClassicalFunction", "index", 0, lambda v: str(ClassicalFunction("Q", v)), 3, "Q3"),
    ("IndexSelection", "power", 1, lambda v: IndexSelection((0,), (1,), v).key(), 2, "n=2;P=0;Q=1"),
    ("IndexSelection", "p_indices", 0, lambda v: IndexSelection((v,), (1,), 1).key(), 0, "n=1;P=0;Q=1"),
    ("IndexSelection", "q_indices", 0, lambda v: IndexSelection((0,), (v,), 1).key(), 1, "n=1;P=0;Q=1"),
    ("bracket", "n", 1, lambda v: bracket(P0, Q1, v), 1, 2),
    ("bracket_decomposed", "n", 1, lambda v: bracket_decomposed(P0, Q1, v), 1, (-2, -1)),
    ("eigenvalue", "k", 0, lambda v: eigenvalue(v, 2), 2, 36),
    ("eigenvalue", "n", 1, lambda v: eigenvalue(2, v), 1, 6),
    ("LogRat", "pow_one_minus", 0, lambda v: LogRat((Poly([1, -1]),), v), 1, ONE),
    ("LogRat", "pow_one_plus", 0, lambda v: LogRat((Poly([1, 1]),), 0, v), 1, ONE),
    ("LogRat", "den", 1, lambda v: LogRat((Poly([2]),), 0, 0, v), 2, ONE),
    ("harmonic", "k", 0, harmonic, 3, Fraction(11, 6)),
    ("harmonic2", "k", 0, harmonic2, 2, Fraction(5, 4)),
    ("Poly.__pow__", "n", 0, lambda v: Poly([1, 1]) ** v, 2, Poly([1, 2, 1])),
    ("legendre_p", "k", 0, legendre_p, 2, Poly([Fraction(-1, 2), 0, Fraction(3, 2)])),
    ("legendre_q", "k", 0, legendre_q, 1, QRepresentation(Poly.X, Poly.ONE)),
    ("q_norm_squared", "k", 0, q_norm_squared, 0, PiPair(0, Fraction(1, 6))),
    ("inner_pq", "j", 0, lambda v: inner_pq(v, 1), 0, -1),
    ("inner_pq", "k", 0, lambda v: inner_pq(0, v), 1, -1),
    ("inner_qq", "j", 0, lambda v: inner_qq(v, 2), 0, Fraction(-1, 2)),
    ("inner_qq", "k", 0, lambda v: inner_qq(0, v), 2, Fraction(-1, 2)),
    ("legendre_stirling", "n", 0, lambda v: legendre_stirling(v, 0), 2, 0),
    ("legendre_stirling", "k", 0, lambda v: legendre_stirling(3, v), 2, 8),
    ("laguerre_ld_coefficient", "j", 0, lambda v: laguerre_ld_coefficient(v, 2, 1), 1, 3),
    ("laguerre_ld_coefficient", "n", 0, lambda v: laguerre_ld_coefficient(0, v, 2), 3, 8),
    ("canonical_selection", "n", 1, canonical_selection, 1, IndexSelection((0,), (1,), 1)),
    ("lagrangian_coefficients", "n", 1, lagrangian_coefficients, 1, ((1, Poly([1, 0, -1])),)),
    ("apply_ell_n", "n", 1, lambda v: apply_ell_n(LogRat((Poly.X,)), v), 1, LogRat((Poly([0, 2]),))),
    ("apply_ell_n_lagrangian", "n", 1, lambda v: apply_ell_n_lagrangian(LogRat((Poly.X,)), v), 1,
     LogRat((Poly([0, 2]),))),
    ("sesquilinear_at", "n", 1, lambda v: sesquilinear_at(ONE, LogRat((Poly.X,)), v), 1, LogRat((Poly([1, 0, -1]),))),
    ("bracket_via_oracle", "n", 1, lambda v: bracket_via_oracle(P0, Q1, v), 1, 2),
    ("fn_condition_check", "n", 1, lambda v: len(fn_condition_check(LogRat((Poly.X,)), v)), 1, 1),
    ("RunConfig", "power", 1, lambda v: RunConfig(v, 3, ledger_path="unused").power, 2, 2),
    ("RunConfig", "workers", 1, lambda v: RunConfig(2, 3, workers=v, ledger_path="unused").workers, 2, 2),
    ("stirling", "n", 0, lambda v: cli.cmd_stirling(Namespace(n=v, format="json")), 1, cli.EXIT_OK),
]


@pytest.mark.parametrize("owner, name, least, call, valid, expected", RULE_TABLE,
                         ids=[f"{row[0]}-{row[1]}" for row in RULE_TABLE])
def test_one_integer_argument_rule(owner, name, least, call, valid, expected):
    """Every index, power and count is an int, not a bool, of at least its
    bound: the same TypeError and ValueError wherever it is an argument."""
    assert call(valid) == expected
    for bad in (True, 2.0):
        with pytest.raises(TypeError, match=f"^{owner}: {name} must be an int, got {type(bad).__name__}$"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{owner}: {name} must be >= {least}$"):
        call(least - 1)


# (owner, value name, call): every entry point under the number rule, each
# ``call`` taking the value under test
NUMBER_TABLE = [
    ("rational_str", "q", rational_str),
    ("laguerre_ld_coefficient", "k", lambda v: laguerre_ld_coefficient(1, 2, v)),
    ("LogRat", "coefficients", lambda v: LogRat((Poly.ONE, Poly([Fraction(1, 2), v])))),
    ("rank_exact", "entries", lambda v: rank_exact([[1, Fraction(1, 2)], [2, v]])),
    ("det_exact", "entries", lambda v: det_exact([[1, Fraction(1, 2)], [2, v]])),
]


@pytest.mark.parametrize("owner, name, call", NUMBER_TABLE, ids=[row[0] for row in NUMBER_TABLE])
def test_one_number_rule(owner, name, call):
    """Every exact value is an int or a Fraction, not a bool or a float: the
    same TypeError wherever it is an input."""
    for bad in (True, 0.5):
        with pytest.raises(TypeError, match=f"^{owner}: {name} must be int or Fraction, got {type(bad).__name__}$"):
            call(bad)


class TestClearDenominators:
    def test_all_int_sequence_is_passed_through(self):
        for values in ([[3, -4, 0], (1, 2, 3)], ((5,),), [[]], []):
            cleared, scale = clear_denominators("owner", "values", values)
            assert cleared is values and scale == 1

    def test_values_times_the_lcm_of_their_denominators(self):
        values = (Fraction(1, 2), -3, Fraction(5, 6), Fraction(4))
        assert clear_denominators("owner", "values", (values,)) == ([[3, -18, 5, 24]], 6)
        (cleared,), scale = clear_denominators("owner", "values", [[Fraction(4), Fraction(-2)]])
        assert (cleared, scale) == ([4, -2], 1) and {type(c) for c in cleared} == {int}

    def test_each_row_by_its_own_lcm(self):
        """Each row is cleared by its own lcm, every row of a piece with a
        ``Fraction`` comes back as ``int``s, and the scale is the product."""
        rows = ((Fraction(1, 2), 1), [Fraction(1, 3), Fraction(2, 3)], (4, 5), [Fraction(-3, 4), 0])
        cleared, scale = clear_denominators("owner", "rows", rows)
        assert cleared == [[1, 2], [1, 2], [4, 5], [-3, 0]] and scale == 2 * 3 * 1 * 4
        assert {type(c) for row in cleared for c in row} == {int}

    def test_inexact_value_is_named(self):
        with pytest.raises(TypeError, match="^owner: values must be int or Fraction, got float$"):
            clear_denominators("owner", "values", [[Fraction(1, 2), 1.5]])


# (call, message): each check on an argument's value beyond the argument rule
DOMAIN_TABLE = [
    (lambda: ClassicalFunction("R", 1), "kind must be 'P' or 'Q', got 'R'"),
    (lambda: LogRat((Poly.ONE,) * 4), "LogRat: degree in L(x) exceeds 2"),
    (lambda: LogRat((Poly.ONE,)).order_at("zero"), "at must be 'plus_one' or 'minus_one'"),
    (lambda: laguerre_ld_coefficient(3, 2, 1), "laguerre_ld_coefficient: need j <= n, got j = 3, n = 2"),
]


@pytest.mark.parametrize("call, message", DOMAIN_TABLE,
                         ids=["ClassicalFunction-kind", "LogRat-nums", "order_at-at", "laguerre_ld_coefficient-j"])
def test_value_outside_its_domain_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
