import random
from fractions import Fraction

import pytest

from gkn_legendre.matrices import (
    IndexSelection,
    b_block,
    build_matrix,
    c_block,
    canonical_selection,
    det_exact,
    is_li_mod_dmin,
    parity_census,
    rank_exact,
)
from gkn_legendre.verify import B4_EXPECTED, B5_EXPECTED, M3_EXPECTED, entry_digits


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


class TestSelection:
    def test_canonical_even_odd(self):
        assert canonical_selection(4).q_indices == (0, 1, 2, 3)
        assert canonical_selection(3).q_indices == (1, 2, 3)
        assert canonical_selection(3).p_indices == (0, 1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexSelection((1, 1), (2,), 1)
        with pytest.raises(ValueError):
            IndexSelection((2, 1), (0,), 1)
        with pytest.raises(ValueError):
            IndexSelection((0,), (1,), 0)

    @pytest.mark.parametrize("n", [2.0, Fraction(3, 2)])
    def test_inexact_power_is_a_type_error(self, n):
        with pytest.raises(TypeError, match=f"IndexSelection: .*got {type(n).__name__}"):
            IndexSelection((0, 1), (0, 1), n)

    def test_key(self):
        assert canonical_selection(3).key() == "n=3;P=0,1,2;Q=1,2,3"


class TestBuildMatrix:
    def test_m3_matches_print(self):
        m = build_matrix(canonical_selection(3))
        assert [list(r) for r in m.entries] == frac_rows(M3_EXPECTED)

    def test_b4(self):
        assert b_block(canonical_selection(4)) == frac_rows(B4_EXPECTED)

    def test_b5(self):
        assert b_block(canonical_selection(5)) == frac_rows(B5_EXPECTED)

    def test_n1_two_by_two(self):
        m = build_matrix(IndexSelection((0,), (1,), 1))
        assert [list(r) for r in m.entries] == [[0, 2], [-2, 0]]

    def test_b4_symmetric_even_canonical(self):
        b = b_block(canonical_selection(4))
        assert b == [list(col) for col in zip(*b)]

    def test_c_block_antisymmetric(self):
        for sel in (canonical_selection(3), IndexSelection((0, 2), (1, 3), 2)):
            c = c_block(sel)
            for i, row in enumerate(c):
                for j, v in enumerate(row):
                    assert v == -c[j][i]


class TestRankDet:
    def test_zero_matrix(self):
        assert rank_exact([[0] * 3 for _ in range(3)]) == 0
        assert det_exact([[0]]) == 0

    def test_rank_claims(self):
        assert rank_exact(b_block(canonical_selection(4))) == 4
        assert rank_exact(b_block(canonical_selection(5))) == 5
        assert rank_exact(build_matrix(canonical_selection(3)).entries) == 6

    def test_det_b3(self):
        assert det_exact(b_block(canonical_selection(3))) == -2695680

    def test_det_m3_is_square_of_det_b3(self):
        assert det_exact(build_matrix(canonical_selection(3)).entries) == 2695680**2

    def test_det_m4_identity(self):
        m = build_matrix(canonical_selection(4))
        assert det_exact(m.entries) == det_exact(b_block(canonical_selection(4))) ** 2

    def test_rational_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 15)]]
        assert det_exact(m) == Fraction(1, 2) * Fraction(2, 15) - Fraction(1, 3) * Fraction(1, 5)
        assert rank_exact(m) == 1

    def test_rectangular_rank(self):
        assert rank_exact([[1, 2, 3], [2, 4, 6]]) == 1
        assert rank_exact([[1, 2, 3], [0, 1, 1]]) == 2

    def test_det_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_exact([[1, 2, 3], [4, 5, 6]])

    def test_rank_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="differ in length"):
            rank_exact([[0], [0, 1]])
        assert rank_exact([]) == 0

    def test_float_entry_is_a_type_error(self):
        with pytest.raises(TypeError, match="float"):
            rank_exact([[0.5, 1]])
        with pytest.raises(TypeError, match="float"):
            det_exact([[1.5]])
        with pytest.raises(TypeError, match="float"):
            rank_exact([[1, Fraction(1, 2)], [2, 0.0]])
        m = [list(row) for row in build_matrix(canonical_selection(3)).entries]
        m[3][5], m[5][3] = 0.5, -0.5  # in C, whose rows the pair split never scales
        with pytest.raises(TypeError, match="float"):
            rank_exact(m)

    def test_entry_digits(self):
        assert entry_digits(M3_EXPECTED) == 3
        assert entry_digits([[0, Fraction(-12345, 7)], [-99, 0]]) == 5
        assert entry_digits([[0, 0], [0, 0]]) == entry_digits([]) == 1


class TestStructuralTheorems:
    def random_balanced_selection(self, rng):
        n = rng.randint(1, 5)
        pool = list(range(16))
        while True:
            p = tuple(sorted(rng.sample(pool, n)))
            q = tuple(sorted(rng.sample(pool, n)))
            evens = sum(1 for i in p + q if i % 2 == 0)
            if evens == n:
                return IndexSelection(p, q, n)

    def test_antisymmetry_zero_pblock_det_identity(self):
        rng = random.Random(991)
        sels = [canonical_selection(n) for n in range(1, 9)]
        sels += [self.random_balanced_selection(rng) for _ in range(60)]
        for sel in sels:
            m = build_matrix(sel)
            r = len(sel.p_indices)
            for i, row in enumerate(m.entries):
                for j, v in enumerate(row):
                    assert v == -m.entries[j][i]
                    if i < r and j < r:
                        assert v == 0
            assert det_exact(m.entries) == det_exact(b_block(sel)) ** 2

    def test_parity_census(self):
        assert parity_census(canonical_selection(3)) == (3, 3)
        assert parity_census(canonical_selection(4)) == (4, 4)
        assert parity_census(IndexSelection((0, 2), (0, 2), 2)) == (4, 0)


class TestIndependenceCertificate:
    def test_canonical_n3(self):
        assert is_li_mod_dmin(canonical_selection(3))

    def test_exotic_large_indices(self):
        assert is_li_mod_dmin(IndexSelection((17, 42, 49, 125), (24, 82, 97, 178), 4))

    def test_parity_unbalanced_fails(self):
        # census (0, 4): both blocks of the permuted B are non-square
        assert not is_li_mod_dmin(IndexSelection((1, 3), (1, 3), 2))
        # census (4, 0)
        assert not is_li_mod_dmin(IndexSelection((0, 2), (0, 2), 2))


class TestSerializationFormats:
    def test_json(self):
        m = build_matrix(IndexSelection((0,), (1,), 1))
        j = m.to_json()
        assert j["labels"] == ["P0", "Q1"]
        assert j["entries"] == [["0", "2"], ["-2", "0"]]

    def test_csv_uses_rational_strings(self):
        csv = build_matrix(canonical_selection(3)).to_csv()
        assert "860/3" in csv
        assert "." not in csv

    def test_pretty_aligns(self):
        text = build_matrix(IndexSelection((0,), (1,), 1)).pretty()
        assert text.splitlines() == [" 0  2", "-2  0"]
