import sys
import threading
from fractions import Fraction
from itertools import accumulate, product

import pytest

from gkn_legendre import brackets, exactnum
from gkn_legendre.brackets import bracket, bracket_decomposed
from gkn_legendre.classical import ClassicalFunction
from gkn_legendre.exactnum import eigenvalue, harmonic, harmonic2
from gkn_legendre.matrices import build_matrix, canonical_selection


def P(i):
    return ClassicalFunction("P", i)


def Q(i):
    return ClassicalFunction("Q", i)


@pytest.fixture
def fresh_table(monkeypatch):
    """The bracket table as a fresh process starts with it: no power served."""
    monkeypatch.setattr(brackets, "_memo", (0, {}))


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

    def test_one_computation_per_unordered_pair(self, monkeypatch, fresh_table):
        # a nonzero entry is computed once, in integers with one Fraction for
        # a Q-Q pair, and stored with its mirror, so a matrix computes each
        # unordered nonzero pair once and a second build computes nothing
        computed, compute = [], brackets._nonzero_bracket

        def counting(*pair):
            computed.append(pair)
            return compute(*pair)

        monkeypatch.setattr(brackets, "_nonzero_bracket", counting)
        m = build_matrix(canonical_selection(8))
        pairs = {frozenset((f, g)) for f, row in zip(m.labels, m.entries) for g, x in zip(m.labels, row) if x}
        assert len(pairs) == len(set(computed)) == len(computed) == 44
        assert sum(fk == gk == "Q" for fk, _, gk, _, _ in computed) == 12
        assert build_matrix(canonical_selection(8)) == m and len(computed) == 44


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

    def test_interleaved_powers_and_growing_indices(self, fresh_table):
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

    def test_far_index_stores_only_its_own_entries(self, fresh_table):
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


class TestBracketTable:
    """``bracket`` stores each nonzero value of the last power with its
    mirror; in any order of powers, and from threads at different powers,
    its values and types are those of the direct formula."""

    FUNCS = [ClassicalFunction(kind, i) for kind in "PQ" for i in range(12)]

    @staticmethod
    def expected(n):
        return {(f, g): TestPowerTable.direct(f, g, n) for f, g in product(TestBracketTable.FUNCS, repeat=2)}

    @staticmethod
    def mismatches(n, expected, rounds=1):
        return [
            (f, g, n) for _ in range(rounds) for (f, g), want in expected.items()
            for value in (bracket(f, g, n),) if value != want or type(value) is not type(want)
        ]

    @pytest.mark.parametrize("first, second", [(3, 7), (7, 3)])
    def test_interleaved_powers(self, first, second, fresh_table):
        expected = {n: self.expected(n) for n in (first, second)}
        # whole tables in turn, then pair by pair with the power switched each call
        for n in (first, second) * 2:
            assert self.mismatches(n, expected[n]) == []
        for pair in expected[first]:
            for n in (first, second):
                value, want = bracket(*pair, n), expected[n][pair]
                assert value == want and type(value) is type(want), (pair, n)

    def test_table_holds_only_the_last_power(self, fresh_table):
        for n in (4, 2):
            for f, g in product(self.FUNCS, repeat=2):
                bracket(f, g, n)
        power, values = brackets._memo
        assert power == 2
        assert values == {
            (f.kind, f.index, g.kind, g.index): value
            for (f, g), value in self.expected(2).items() if value
        }

    def test_a_switch_mid_miss_loses_the_entry_not_the_power(self, monkeypatch, fresh_table):
        """A call at another power in the middle of a miss, as another thread
        may make, replaces the table; the value being computed goes to the
        table of its own power, never into the new one."""
        compute = brackets._nonzero_bracket

        def interrupted(*pair):
            monkeypatch.setattr(brackets, "_nonzero_bracket", compute)
            assert bracket(P(0), Q(1), 5) == 32
            return compute(*pair)

        monkeypatch.setattr(brackets, "_nonzero_bracket", interrupted)
        assert bracket(Q(1), Q(3), 3) == Fraction(860, 3)
        power, values = brackets._memo
        assert power == 5 and values == {("P", 0, "Q", 1): 32, ("Q", 1, "P", 0): -32}
        assert bracket(Q(1), Q(3), 5) == TestPowerTable.direct(Q(1), Q(3), 5)

    def test_threads_at_different_powers(self, fresh_table):
        powers = (1, 2, 5, 9)
        expected = {n: self.expected(n) for n in powers}
        start, found = threading.Barrier(len(powers)), {}

        def work(n):
            start.wait()
            found[n] = self.mismatches(n, expected[n], rounds=8)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in powers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert found == dict.fromkeys(powers, [])
