from fractions import Fraction
from itertools import accumulate, product

import pytest

from gkn_legendre import exactnum
from gkn_legendre.brackets import bracket, bracket_decomposed
from gkn_legendre.classical import ClassicalFunction
from gkn_legendre.exactnum import eigenvalue, harmonic, harmonic2
from gkn_legendre.matrices import build_matrix, canonical_selection


def P(i):
    return ClassicalFunction("P", i)


def Q(i):
    return ClassicalFunction("Q", i)


class TestGoldenValues:
    @pytest.mark.parametrize(
        "f,g,n,expected",
        [
            (P(0), Q(1), 3, 8),
            (P(0), Q(3), 3, 288),
            (Q(1), Q(3), 3, Fraction(860, 3)),
            (P(1), Q(2), 4, 640),
            (P(17), Q(24), 4, 821988432),
            (P(5), P(7), 2, 0),
            (Q(4), Q(4), 6, 0),
            (P(0), Q(5), 5, 1620000),
        ],
    )
    def test_values(self, f, g, n, expected):
        assert bracket(f, g, n) == expected

    def test_n_one_base_case(self):
        assert bracket(P(0), Q(1), 1) == 2


class TestDecomposition:
    def test_factors(self):
        assert bracket_decomposed(P(0), Q(1), 3) == (-8, -1)
        assert bracket_decomposed(P(2), Q(3), 3) == (-1512, Fraction(-1, 3))

    def test_equal_pair_convention(self):
        assert bracket_decomposed(P(3), P(3), 2) == (0, 0)
        assert bracket_decomposed(Q(5), Q(5), 4) == (0, 0)

    def test_product_reassembles(self):
        # the inner-product route shares no code with the h form of bracket
        for fk, gk, j, k, n in product("PQ", "PQ", range(14), range(14), range(1, 7)):
            f, g = ClassicalFunction(fk, j), ClassicalFunction(gk, k)
            gap, inner = bracket_decomposed(f, g, n)
            value = bracket(f, g, n)
            assert value == gap * inner
            if "P" in (fk, gk):
                assert type(value) is int


class TestStructuralProperties:
    FUNCS = [ClassicalFunction(kind, i) for kind in ("P", "Q") for i in range(13)]

    def test_antisymmetry(self):
        for n in range(1, 7):
            for f in self.FUNCS:
                for g in self.FUNCS:
                    assert bracket(f, g, n) == -bracket(g, f, n)

    def test_zero_diagonal(self):
        for f in self.FUNCS:
            for n in range(1, 7):
                assert bracket(f, f, n) == 0

    def test_parity_vanishing(self):
        for n in (1, 3, 4):
            for j in range(10):
                for k in range(10):
                    pq = bracket(P(j), Q(k), n)
                    assert (pq == 0) == ((j + k) % 2 == 0)
                    qq = bracket(Q(j), Q(k), n)
                    assert (qq == 0) == ((j + k) % 2 == 1 or j == k)

    def test_pp_always_zero(self):
        for n in (1, 2, 5):
            for j in range(8):
                for k in range(8):
                    assert bracket(P(j), P(k), n) == 0

    def test_scaling_in_n(self):
        lam = lambda i: i * (i + 1)
        for j in range(6):
            for k in range(6):
                base = bracket(P(j), Q(k), 1)
                if base == 0:
                    continue
                for n in range(2, 6):
                    ratio = Fraction(lam(j) ** n - lam(k) ** n, lam(j) - lam(k))
                    assert bracket(P(j), Q(k), n) == base * ratio

    def test_power_validation(self):
        with pytest.raises(ValueError):
            bracket(P(0), Q(1), 0)

    @pytest.mark.parametrize("n", [2.0, Fraction(3, 2), True])
    @pytest.mark.parametrize("fn", [bracket, bracket_decomposed])
    def test_inexact_power_is_a_type_error(self, fn, n):
        with pytest.raises(TypeError, match=f"{fn.__name__}: .*got {type(n).__name__}"):
            fn(Q(1), Q(3), n)

    @pytest.mark.parametrize("i", [1.0, Fraction(1), True, False])
    def test_inexact_index_is_a_type_error(self, i):
        with pytest.raises(TypeError, match=f"ClassicalFunction: .*got {type(i).__name__}"):
            ClassicalFunction("P", i)


class TestQQ:
    """The Q-Q case against -2 (H_j - H_k) h in Fraction arithmetic, at the
    sizes the suites reach: canonical n <= 24, and indices up to 178 at n = 4
    (the large B4 selection)."""

    H = list(accumulate((Fraction(1, i) for i in range(1, 179)), initial=Fraction(0)))

    @pytest.mark.parametrize("top,powers", [(48, range(1, 25)), (178, (4,))])
    def test_values_and_types(self, top, powers):
        for n, j, k in product(powers, range(top + 1), range(top + 1)):
            value = bracket(Q(j), Q(k), n)
            if j == k or (j + k) % 2:
                assert type(value) is int and value == 0
                continue
            a, b = j * (j + 1), k * (k + 1)
            assert type(value) is Fraction
            assert value == -2 * (self.H[j] - self.H[k]) * Fraction(a**n - b**n, a - b)

    def test_one_fraction_per_entry(self, monkeypatch):
        # a Q-Q entry is built in integers and normalized once; Fraction
        # arithmetic, which goes through __new__ under Python 3.11, would
        # construct three per entry (72 here)
        harmonic(40)
        new, made = Fraction.__new__, []

        def counting_new(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        m = build_matrix(canonical_selection(8))
        monkeypatch.undo()
        assert len(made) == sum(type(x) is Fraction for row in m.entries for x in row) == 24


class TestPowerTable:
    """``bracket`` reads lam_i**n from a cache per (i, n); its values and
    types are those of the direct formula h = (a**n - b**n) // (a - b), in
    whatever order powers and indices arrive, and a key stores one entry."""

    @staticmethod
    def direct(f, g, n):
        j, k = f.index, g.index
        if j == k or f.kind == g.kind == "P" or ((j + k) % 2 == 1) == (f.kind == g.kind):
            return 0
        a, b = j * (j + 1), k * (k + 1)
        h = (a**n - b**n) // (a - b)
        if f.kind != g.kind:
            return 2 * h if f.kind == "P" else -2 * h
        return -2 * (harmonic(j) - harmonic(k)) * h

    def test_interleaved_powers_and_growing_indices(self):
        exactnum._lam_power.cache_clear()
        # powers interleaved, and at n = 5, 2 and 24 a large index after small ones
        plan = ((5, 3), (2, 6), (5, 8), (24, 4), (1, 9), (5, 60), (2, 2), (24, 61), (2, 45))
        for n, top in plan:
            funcs = [ClassicalFunction(kind, i) for kind in "PQ" for i in range(top + 1)]
            for f, g in product(funcs, repeat=2):
                value, expected = bracket(f, g, n), self.direct(f, g, n)
                assert value == expected and type(value) is type(expected), (f, g, n)
        keys = {(i, n) for n, top in plan for i in range(top + 1)}
        assert exactnum._lam_power.cache_info().currsize == len(keys)
        for i, n in keys:
            assert eigenvalue(i, n) == (i * (i + 1)) ** n
        assert exactnum._lam_power.cache_info().currsize == len(keys)

    def test_far_index_stores_only_its_own_entries(self):
        """A far index is computed directly and stores one entry per cache,
        nothing for the indices below it."""
        exactnum._lam_power.cache_clear()
        exactnum._harmonic.cache_clear()
        value, expected = bracket(P(0), Q(100001), 3), self.direct(P(0), Q(100001), 3)
        assert value == expected and type(value) is int
        assert exactnum._lam_power.cache_info().currsize == 2
        value, expected = bracket(Q(20000), P(1), 3), self.direct(Q(20000), P(1), 3)
        assert value == expected and type(value) is int
        assert exactnum._lam_power.cache_info().currsize == 4
        assert exactnum._harmonic.cache_info().currsize == 0
        a, b = 2 * 3, 3000 * 3001
        h = (a**3 - b**3) // (a - b)
        value = bracket(Q(2), Q(3000), 3)
        assert value == -2 * (Fraction(3, 2) - sum(Fraction(1, i) for i in range(1, 3001))) * h
        assert type(value) is Fraction
        assert exactnum._lam_power.cache_info().currsize == 6
        assert exactnum._harmonic.cache_info().currsize == 2
        assert type(bracket(Q(2), Q(20000), 3)) is Fraction
        assert exactnum._lam_power.cache_info().currsize == 6
        assert exactnum._harmonic.cache_info().currsize == 3

    def test_arguments_are_checked_before_the_cache(self):
        """A cache key takes ``True`` for ``1``, so the argument rule runs
        before each cache is read."""
        assert eigenvalue(1, 2) == 4 and bracket(P(0), Q(1), 1) == 2
        assert harmonic(1) == harmonic2(1) == 1
        with pytest.raises(TypeError, match="eigenvalue: k must be an int, got bool"):
            eigenvalue(True, 2)
        with pytest.raises(TypeError, match="eigenvalue: n must be an int, got bool"):
            eigenvalue(1, True)
        with pytest.raises(TypeError, match="bracket: n must be an int, got bool"):
            bracket(P(0), Q(1), True)
        with pytest.raises(TypeError, match="harmonic: k must be an int, got bool"):
            harmonic(True)
        with pytest.raises(TypeError, match="harmonic2: k must be an int, got bool"):
            harmonic2(True)
