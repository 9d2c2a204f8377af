"""Property tests of the exact rank/determinant kernel.

``rank_exact`` and ``det_exact`` are compared with a plain Gauss-Jordan
elimination over ``Fraction`` written here, on small random rational
matrices, and the structural identities of the bracket matrices are checked
on random r = s = n selections.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gkn_legendre.matrices import (
    IndexSelection,
    b_block,
    build_matrix,
    det_exact,
    rank_exact,
)


def reference_rank_det(matrix):
    """(rank, det) by Gauss-Jordan over the rationals; det is 0 unless the
    matrix is square of full rank, and 1 for the empty matrix."""
    m = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][col]
        top = [x / m[rank][col] for x in m[rank]]
        m[rank] = top
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], top)]
        rank += 1
    full = rank == nrows == ncols
    return rank, det if full else Fraction(0)


rationals = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 6)
) | st.just(Fraction(0))


@st.composite
def matrices(draw, square=False):
    """Small rational matrices, some with zero rows, zero columns or a
    repeated row."""
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    if nrows == 0:
        return []
    m = [[draw(rationals) for _ in range(ncols)] for _ in range(nrows)]
    edit = draw(st.sampled_from(["none", "zero-row", "zero-col", "repeat-row"]))
    i = draw(st.integers(0, nrows - 1))
    j = draw(st.integers(0, nrows - 1))
    if edit == "zero-row":
        m[i] = [Fraction(0)] * ncols
    elif edit == "zero-col" and ncols:
        for row in m:
            row[i % ncols] = Fraction(0)
    elif edit == "repeat-row":
        m[j] = list(m[i])
    return m


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_reference(m):
    assert rank_exact(m) == reference_rank_det(m)[0]


@settings(max_examples=300, deadline=None)
@given(matrices(square=True))
def test_det_matches_reference(m):
    assert det_exact(m) == reference_rank_det(m)[1]


def test_empty_matrix():
    assert rank_exact([]) == 0
    assert det_exact([]) == 1
    assert reference_rank_det([]) == (0, 1)


@st.composite
def selections(draw):
    """r = s = n selections from a small pool, parity balanced or not."""
    n = draw(st.integers(1, 3))
    pool = st.lists(st.integers(0, 11), min_size=n, max_size=n, unique=True)
    p = tuple(sorted(draw(pool)))
    q = tuple(sorted(draw(pool)))
    return IndexSelection(p, q, n)


@settings(max_examples=150, deadline=None)
@given(selections())
def test_det_m_is_square_of_det_b(sel):
    m = build_matrix(sel).entries
    det_b = det_exact(b_block(sel))
    assert det_exact(m) == det_b**2
    assert (rank_exact(m) == 2 * sel.power) == (det_b != 0)
