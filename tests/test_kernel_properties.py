"""Property tests of the exact kernels.

``rank_exact`` and ``det_exact`` are compared with a plain Gauss-Jordan
elimination over ``Fraction`` written here, on small random matrices of
``int``s and ``Fraction``s, and ``rank_exact`` also on block-diagonal and
block-triangular ones whose rows and columns are shuffled, and on ones skew
about a pair split, skew or not elsewhere, shuffled by one permutation of
both, and on all of these with rows scaled by large factors, by multiples
of the certificate's prime P or with entries as Fraction(k, 1); the rank is
pinned to the pieces its splitting rule finds, on canonical and sweep-sized
bracket matrices too, each of ``int`` rows and certified mod P unless it
falls short there, when it reaches the exact elimination as it is
(so does a full-rank piece that is singular mod P); canonical n <= 64
passes with no exact elimination, and the determinant is one exact pass.  The structural
identities of the bracket matrices are checked on random r = s = n selections, with the sign law of
the parity blocks of B on balanced ones.  The oracle's ``LogRat`` is checked to be canonical by
construction (``int`` numerators over one den that shares no content with
them, from ``int`` and ``Fraction`` input), with an equality that agrees
with cross-multiplication, and its boundary form and brackets are checked to be antisymmetric on random
pairs of classical functions.  ``Poly.derivative`` is checked against its
laws; the oracle's derivative, derivative chains, a_k
product and boundary form are compared with references built from ``Poly``
operations (a term-by-term canonical fold for the form), and the form is
pinned to one canonical form per call.  Every value built without the
constructor's checks equals the public constructor's, and on
``suite_oracle(3, 4)`` no (1 -+ x) division inside the chains fails.  Every
exact value the engine returns is an ``int`` or a ``Fraction``, never a
``float``.
"""

import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkn_legendre import matrices as kernel
from gkn_legendre import oracle
from gkn_legendre.brackets import bracket, bracket_decomposed
from gkn_legendre.classical import ClassicalFunction, Poly, legendre_p, legendre_q
from gkn_legendre.matrices import (
    IndexSelection,
    b_block,
    build_matrix,
    canonical_selection,
    det_exact,
    enumerate_selections,
    parity_census,
    rank_exact,
)
from gkn_legendre.oracle import (
    DivergentLimit,
    LogRat,
    _lagrangian_chains,
    _times_coefficient,
    bracket_via_oracle,
    classical_to_lograt,
    endpoint_limit,
    lagrangian_coefficients,
    sesquilinear_at,
)
from gkn_legendre.verify import suite_canonical, suite_oracle


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
    """Small matrices of ints and Fractions, some with zero rows, zero
    columns or a repeated row."""
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    if nrows == 0:
        return []
    m = [[draw(st.integers(-9, 9) | rationals) for _ in range(ncols)] for _ in range(nrows)]
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


def is_exact(value):
    return type(value) in (int, Fraction)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_reference(m):
    assert rank_exact(m) == reference_rank_det(m)[0]


@settings(max_examples=300, deadline=None)
@example([[0, 2, 0], [3, 0, 0], [0, 0, 5]])  # an odd row order: det -30
@given(matrices(square=True))
def test_det_matches_reference(m):
    det = det_exact(m)
    assert det == reference_rank_det(m)[1]
    assert is_exact(det)


def shuffled(draw, m):
    """``m`` with its rows and its columns permuted at random."""
    rows = draw(st.permutations(range(len(m))))
    cols = draw(st.permutations(range(len(m[0]))))
    return [[m[i][j] for j in cols] for i in rows]


@st.composite
def shuffled_block_diagonals(draw):
    """Block-diagonal matrices of up to four blocks, then rows and columns
    permuted at random.  A block may be non-square or empty (a zero row or a
    zero column), and its entries are ints, Fractions or 0."""
    heights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    widths = draw(st.lists(st.integers(0, 3), min_size=len(heights), max_size=len(heights)))
    nrows, ncols = sum(heights), sum(widths)
    if nrows == 0:
        return []
    m = [[0] * ncols for _ in range(nrows)]
    top = left = 0
    for h, w in zip(heights, widths):
        for i in range(top, top + h):
            for j in range(left, left + w):
                m[i][j] = draw(st.integers(-9, 9) | rationals)
        top, left = top + h, left + w
    return shuffled(draw, m)


@settings(max_examples=300, deadline=None)
@given(shuffled_block_diagonals())
def test_block_rank_matches_reference(m):
    assert rank_exact(m) == reference_rank_det(m)[0]


@st.composite
def shuffled_block_triangulars(draw):
    """[[X, 0], [Y, Z]] with X (k + e) x k for e in 0..2, of full column rank
    or not, Y arbitrary and Z of any shape, empty included, then rows and
    columns permuted at random.  Entries are ints, Fractions or 0."""
    k, e = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h, w = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = st.integers(-9, 9) | rationals | st.just(0)
    x = [[draw(entry) for _ in range(k)] for _ in range(k + e)]
    if k > 1 and draw(st.booleans()):
        for row in x:
            row[-1] = row[0]  # a repeated column: X short of full column rank
    m = [row + [0] * w for row in x]
    m += [[draw(entry) for _ in range(k + w)] for _ in range(h)]
    return shuffled(draw, m)


@settings(max_examples=300, deadline=None)
@example([[1, 1, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]])  # X singular, rank X + rank Z = 2
@given(shuffled_block_triangulars())
def test_block_triangular_rank_matches_reference(m):
    assert rank_exact(m) == reference_rank_det(m)[0]


@st.composite
def conjugated_skew_triangulars(draw):
    """[[0, X, 0], [-X^T, C, D], [0, -D^T, E]] with C and E skew, X of any
    shape and sometimes short of full column rank, then rows and columns
    permuted by one permutation.  Sometimes the skewness breaks outside the
    split of R: one entry of D's mirror is not that of -D^T, or one diagonal
    entry of E is drawn.  Entries are ints, Fractions or 0."""
    a, b, c = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = st.integers(-9, 9) | rationals | st.just(0)
    x = [[draw(entry) for _ in range(b)] for _ in range(a)]
    if b > 1 and draw(st.booleans()):
        for row in x:
            row[-1] = row[0]  # a repeated column: X short of full column rank
    d = [[draw(entry) for _ in range(c)] for _ in range(b)]
    part = [0] * a + [1] * b + [2] * c  # R, S, T
    n = len(part)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (part[i], part[j]) == (0, 1):
                m[i][j] = x[i][j - a]
            elif (part[i], part[j]) == (1, 2):
                m[i][j] = d[i - a][j - a - b]
            elif part[i] == part[j] != 0:  # C or E
                m[i][j] = draw(entry)
            m[j][i] = -m[i][j]
    broken = draw(st.sampled_from(["none", "mirror", "diagonal"]))
    if broken == "mirror" and b and c:
        m[draw(st.integers(a + b, n - 1))][draw(st.integers(a, a + b - 1))] = draw(entry)
    elif broken == "diagonal" and c:
        i = draw(st.integers(a + b, n - 1))
        m[i][i] = draw(entry)
    order = draw(st.permutations(range(n)))
    return [[m[i][j] for j in order] for i in order]


@settings(max_examples=300, deadline=None)
@example([[0, 0, 1, 1], [0, 0, 1, 2], [-1, -1, 0, 0], [-1, -2, 0, 0]])  # one pair split on a 2 x 2 X: rank 4
@example([[0, 1, 0], [-1, 0, 1], [0, 2, 3]])  # a pair split, then E = [3] off -D^T: rank 3
@given(conjugated_skew_triangulars())
def test_skew_rank_matches_reference(m):
    assert rank_exact(m) == reference_rank_det(m)[0]


def test_pair_split_reads_values():
    """Rows and columns R and S leave together only if the matrix is square
    and M[i, j] = -M[j, i] in value for every j in R and every row i in play,
    the diagonal included; where the check fails, nothing splits there.  Each
    matrix here fails that check at a split, and a pair split there would
    give the wrong rank."""
    assert rank_exact([[0, 0, 1, 1], [0, 0, 1, 2], [1, 1, 0, 0], [1, 1, 0, 0]]) == 3  # skew zeros, symmetric values
    assert rank_exact([[0, 1], [0, 0]]) == 1
    assert rank_exact([[1, -1, 0], [1, 0, 2], [0, -2, 0]]) == 3  # R and S would meet
    assert rank_exact([[0, 1, 2], [-1, -1, 0], [-2, 0, 0]]) == 3  # skew but for M[1, 1], with 1 in R and S
    assert rank_exact([[0, 2], [-2, 1], [0, 1], [0, 0], [0, 0]]) == 2  # rows in play are not the columns
    assert rank_exact([[0, 0, 2, Fraction(-2, 3), 0]] + [[0] * 5 for _ in range(4)]) == 1  # S empty, column R not -(row R)


def kernel_cells(m, rank):
    """Bareiss cell updates for ``rank`` pivots of an m, by the benchmark
    tracer's formula."""
    rows, cols = len(m), len(m[0]) if m else 0
    return sum((rows - k - 1) * (cols - k - 1) for k in range(rank))


def spy_pieces(monkeypatch):
    """Lists that fill as ``rank_exact`` runs: each piece the rank decides, as
    it reaches ``_rank_piece`` (integer rows, denominators cleared), and each
    matrix that reaches the exact elimination, ``_bareiss`` with no modulus."""
    pieces, exact = [], []
    rank_piece, bareiss = kernel._rank_piece, kernel._bareiss

    def piece_spy(m):
        pieces.append([list(row) for row in m])  # the elimination overwrites m
        return rank_piece(m)

    def bareiss_spy(m, p=0):
        if not p:
            exact.append([list(row) for row in m])
        return bareiss(m, p)

    monkeypatch.setattr(kernel, "_rank_piece", piece_spy)
    monkeypatch.setattr(kernel, "_bareiss", bareiss_spy)
    return pieces, exact


def test_kernel_eliminates_each_block_on_its_own(monkeypatch):
    """Canonical n = 32 is decided as two 16 x 16 pieces: the rows of each
    parity block of B split off, and with them, as the matrix is skew, the
    rows and columns of its -B^T, which are not eliminated; canonical n <= 24
    costs 6358 cell updates, and canonical n <= 40 reaches the exact
    elimination not once.  The sweep's n = 3, pool 7 matrices take 2336
    pieces and 1312 cells (the 1184 balanced ones) and 3488 pieces and 15848
    cells (the 1952 unbalanced ones), and exactly their rank-deficient
    pieces reach the exact elimination.  Rows whose nonzeros lie in fewer
    columns than there are rows split off too, and in a skew matrix a row set
    whose X is short of full column rank is passed over for the next one.  A
    matrix that is not square, or not skew where it would split, or has no
    zero entry is one piece, whole, and every matrix whose determinant is
    asked for reaches the exact elimination once, whole.  No piece is empty."""
    pieces, exact = spy_pieces(monkeypatch)
    assert rank_exact(build_matrix(canonical_selection(32)).entries) == 64
    assert [(len(m), len(m[0])) for m in pieces] == [(16, 16)] * 2
    pieces.clear()
    assert rank_exact(build_matrix(canonical_selection(4)).entries) == 8
    assert [(len(m), len(m[0])) for m in pieces] == [(2, 2)] * 2
    pieces.clear()
    unbalanced = IndexSelection((0, 1, 2), (0, 1, 2), 3)
    assert rank_exact(build_matrix(unbalanced).entries) == 4
    assert [(len(m), len(m[0])) for m in pieces] == [(2, 1), (3, 3)]
    assert exact == [pieces[1]]  # the antisymmetric 3 x 3 is singular
    pieces.clear()
    exact.clear()
    # rows 0, 3, 4 lie in columns 1, 2, 5 with X of rank 2: passed over for
    # row 2 on column 0, then rows 3, 4, 5 on column 1
    passed_over = [[0, 1, 1, 0, 0, -1], [-1, 0, 0, 1, 1, 1], [-1, 0, 0, 0, 0, 0],
                   [0, -1, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0]]
    assert rank_exact(passed_over) == 4
    assert pieces == [[[1, 1, -1], [-1, 0, 0], [-1, 0, 0]], [[-1]], [[-1], [-1], [-1]]]
    assert exact == [pieces[0]]
    pieces.clear()
    exact.clear()
    tall = [[1, 2, 0, 0], [3, 4, 0, 0], [5, 7, 0, 0], [1, 1, 2, 3], [2, 0, 4, 5]]
    wide = [[0, 1, 2], [-1, 0, 0]]  # skew on its first two columns
    triangular = [[1, 2, 0, 0], [3, 4, 0, 0], [1, 1, 2, 3], [2, 0, 4, 5]]
    for m, r in ((tall, 4), (wide, 2), (triangular, 4)):
        assert rank_exact(m) == r
        assert pieces == [m]
        pieces.clear()
    assert exact == []
    dense = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert rank_exact(dense) == 3
    assert pieces == [dense] and exact == []
    pieces.clear()
    split = [[0, 2, 0], [3, 0, 0], [0, 0, 5]]
    assert det_exact(split) == -30
    assert pieces == [] and exact == [split]
    exact.clear()
    for n in range(1, 25):
        rank_exact(build_matrix(canonical_selection(n)).entries)
    assert all(pieces)
    assert sum(kernel_cells(m, reference_rank_det(m)[0]) for m in pieces) == 6358
    for n in range(25, 41):
        rank_exact(build_matrix(canonical_selection(n)).entries)
    assert exact == []
    sweep = list(enumerate_selections(3, 7, parity_filter=False))
    for balanced, count, npieces, cells in ((True, 1184, 2336, 1312), (False, 1952, 3488, 15848)):
        pieces.clear()
        exact.clear()
        family = [sel for sel in sweep if (parity_census(sel) == (3, 3)) == balanced]
        assert len(family) == count
        for sel in family:
            rank_exact(build_matrix(sel).entries)
        assert all(pieces) and len(pieces) == npieces
        ranks = [reference_rank_det(m)[0] for m in pieces]
        assert sum(kernel_cells(m, r) for m, r in zip(pieces, ranks)) == cells
        deficient = [m for m, r in zip(pieces, ranks) if r < min(len(m), len(m[0]))]
        assert exact == deficient and bool(exact) != balanced


def test_sweep_selection_reaches_the_kernel_as_its_parity_pieces(monkeypatch):
    """The first n = 4, pool 7 sweep selection: its 8 x 8 M is decided as the
    two parity blocks of B, each of B's own ``int`` rows (P0, P2 against Q1,
    Q3, then P1, P3 against Q0, Q2), both certified with no exact
    elimination, and det B as one exact 4 x 4 pass over B's own ``int``
    rows."""
    pieces, exact = spy_pieces(monkeypatch)
    sel = next(enumerate_selections(4, 7))
    assert sel == IndexSelection((0, 1, 2, 3), (0, 1, 2, 3), 4)
    b = b_block(sel)
    blocks = [[[b[i][j] for j in js] for i in rs] for rs, js in (((0, 2), (1, 3)), ((1, 3), (0, 2)))]
    assert rank_exact(build_matrix(sel).entries) == 8
    assert pieces == blocks and exact == []
    assert all(type(x) is int for m in pieces for row in m for x in row)
    pieces.clear()
    det = det_exact(b)
    assert pieces == [] and exact == [b] and all(type(x) is int for row in exact[0] for x in row)
    assert type(det) is int and det == det_exact([[Fraction(x) for x in row] for row in b])


@st.composite
def scaled_matrices(draw):
    """A matrix from the strategies above with each row multiplied by a large
    factor (a 64-bit one times up to 2**64, as a bracket row carries about
    2**n) and, if the matrix is square, sometimes each column by its row's
    factor too, which keeps a skew matrix skew.  A row scaled alone may also
    take the lcm of its denominators, and every entry may be turned into a
    ``Fraction``: integral ones, and the whole matrix then, as Fraction(k, 1)."""
    m = draw(matrices() | shuffled_block_diagonals() | shuffled_block_triangulars()
             | conjugated_skew_triangulars())
    factors = [draw(st.integers(1, 2**64)) << draw(st.integers(0, 64)) for _ in m]
    if m and len(m) == len(m[0]) and draw(st.booleans()):
        return [[fi * x * fj for x, fj in zip(row, factors)] for fi, row in zip(factors, m)]
    if draw(st.booleans()):
        factors = [f * lcm(*(Fraction(x).denominator for x in row)) for f, row in zip(factors, m)]
    m = [[f * x for x in row] for f, row in zip(factors, m)]
    return [[Fraction(x) for x in row] for row in m] if draw(st.booleans()) else m


@settings(max_examples=300, deadline=None)
@example([[Fraction(2**30), Fraction(2**31)], [Fraction(3 * 2**30), Fraction(5 * 2**30)]])
@given(scaled_matrices())
def test_rank_of_scaled_rows_matches_reference(m):
    assert rank_exact(m) == reference_rank_det(m)[0]


def test_kernel_sees_int_rows(monkeypatch):
    """Every piece the rank decides is of plain ``int`` rows, its denominators
    cleared, and every piece that still reaches the exact elimination is that
    piece as it is, its rows' content kept.  The canonical rows carry content
    of 2**n and more, but are certified mod P; rank-deficient sweep pieces
    and a piece that is singular mod P only because a row is a multiple of P
    are eliminated exactly."""
    pieces, exact = spy_pieces(monkeypatch)
    assert gcd(*b_block(canonical_selection(24))[0]) % 2**24 == 0
    for n in range(1, 25):
        rank_exact(build_matrix(canonical_selection(n)).entries)
    for sel in enumerate_selections(3, 5, parity_filter=False):
        rank_exact(build_matrix(sel).entries)
    rank_exact([[Fraction(2), Fraction(4), 0], [Fraction(6, 5), Fraction(3, 5), 3], [0, 0, 1]])
    assert rank_exact([[Fraction(2 * kernel.P), Fraction(4 * kernel.P, 3)], [Fraction(3, 5), Fraction(6, 5)]]) == 2
    assert exact[-1] == pieces[-1] == [[6 * kernel.P, 4 * kernel.P], [3, 6]]
    assert len(pieces) > 400 and all(type(x) is int for m in pieces for row in m for x in row)
    assert len(exact) > 100 and all(m in pieces for m in exact)
    assert any(gcd(*row) > 1 for m in exact for row in m)


def test_pieces_singular_mod_p_fall_back_to_the_exact_rank(monkeypatch):
    """A full-rank piece that is singular mod P is not certified: it reaches
    the exact elimination as it is, and its rank is the exact one.
    So do [[P]], [[P, 1], [0, 1]] as one piece, and the piece holding
    row P0 of a canonical matrix conjugated by diag(P, 1, ..., 1), which
    stays skew; no other piece reaches it."""
    P = kernel.P
    pieces, exact = spy_pieces(monkeypatch)
    assert rank_exact([[P]]) == 1
    assert pieces == exact == [[[P]]]
    pieces.clear()
    exact.clear()
    assert rank_exact([[P, 1], [0, 1]]) == 2
    assert pieces == exact == [[[P, 1], [0, 1]]]
    for n in range(1, 9):
        pieces.clear()
        exact.clear()
        m = build_matrix(canonical_selection(n)).entries
        d = [P] + [1] * (2 * n - 1)
        conj = [[di * x * dj for x, dj in zip(row, d)] for di, row in zip(d, m)]
        assert all(conj[i][j] == -conj[j][i] for i in range(2 * n) for j in range(2 * n))
        assert rank_exact(conj) == 2 * n
        held = [m for m in pieces if any(not any(x % P for x in row) for row in m)]
        assert len(held) == 1 and exact == held


@st.composite
def p_scaled_matrices(draw):
    """A matrix from the strategies above with each row multiplied by a small
    factor times P**0, P or P**2, so a row is often 0 mod P, and then either,
    if the matrix is square, each column by its row's factor too, which keeps
    a skew matrix skew, or one row replaced by another plus P times itself,
    which keeps the rank and makes the two rows agree mod P.  Every entry may
    be turned into a ``Fraction``."""
    m = draw(matrices() | shuffled_block_diagonals() | shuffled_block_triangulars()
             | conjugated_skew_triangulars())
    factors = [draw(st.integers(1, 3)) * kernel.P ** draw(st.integers(0, 2)) for _ in m]
    if m and len(m) == len(m[0]) and draw(st.booleans()):
        m = [[fi * x * fj for x, fj in zip(row, factors)] for fi, row in zip(factors, m)]
    else:
        m = [[f * x for x in row] for f, row in zip(factors, m)]
        if len(m) > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(len(m))))[:2]
            m[i] = [b + kernel.P * a for a, b in zip(m[i], m[j])]
    return [[Fraction(x) for x in row] for row in m] if draw(st.booleans()) else m


@settings(max_examples=300, deadline=None)
@example([[kernel.P, 1], [1, 1]])  # det P - 1, singular mod P
@example([[2 * kernel.P, 0, 0], [0, 0, 3], [0, -3, 0]])
@given(p_scaled_matrices())
def test_rank_of_rows_scaled_by_p_matches_reference(m):
    assert rank_exact(m) == reference_rank_det(m)[0]


def test_canonical_full_rank_to_n64_with_no_exact_elimination(monkeypatch):
    """``suite_canonical`` passes with rank 2n at every n <= 64, and every
    piece it decides is certified mod P: the exact elimination never runs."""
    pieces, exact = spy_pieces(monkeypatch)
    results = suite_canonical(max_n=64)
    assert [r.name for r in results] == [f"canonical/n={n}" for n in range(1, 65)]
    for n, r in enumerate(results, 1):
        assert r.ok and r.detail.startswith(f"rank {2 * n}/{2 * n}, ")
    assert len(pieces) >= 64 and exact == []


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


@st.composite
def balanced_selections(draw):
    """Parity-balanced r = s = n selections, n <= 4, indices <= 12, built so:
    Q takes as many even indices as P has odd ones."""
    n = draw(st.integers(1, 4))
    a = draw(st.integers(0, n))  # odd P indices, and so even Q indices

    def indices(parity, count):
        pool = range(parity, 13, 2)
        return draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count, unique=True))

    p = tuple(sorted(indices(0, n - a) + indices(1, a)))
    q = tuple(sorted(indices(0, a) + indices(1, n - a)))
    return IndexSelection(p, q, n)


@settings(max_examples=200, deadline=None)
@given(balanced_selections())
def test_parity_blocks_obey_the_sign_law(sel):
    """B splits into an even-P x odd-Q and an odd-P x even-Q block, each
    square; a block of size a has a nonzero det of sign (-1)^(a(a-1)/2)."""
    b = b_block(sel)
    for parity in (0, 1):
        rows = [i for i, j in enumerate(sel.p_indices) if j % 2 == parity]
        cols = [i for i, k in enumerate(sel.q_indices) if k % 2 != parity]
        others = [i for i, k in enumerate(sel.q_indices) if k % 2 == parity]
        assert all(b[i][c] == 0 for i in rows for c in others)
        assert len(rows) == len(cols)
        a = len(rows)
        det = det_exact([[b[i][c] for c in cols] for i in rows])
        assert det != 0
        assert (det > 0) == ((a * (a - 1) // 2) % 2 == 0)


ONE_MINUS_X, ONE_PLUS_X = Poly([1, -1]), Poly([1, 1])
coefficients = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
rational_polys = st.lists(coefficients, max_size=4).map(Poly)
numerators = st.lists(rational_polys, min_size=1, max_size=3)
exponents = st.integers(0, 3)


def padded(nums):
    return list(nums) + [Poly.ZERO] * (3 - len(nums))


def cross_multiplied_equal(x, y):
    """N_x / den_x == N_y / den_y for raw (nums, a, b) triples: L(x) is
    transcendental over the rational functions, so each power of L must
    agree on its own."""
    (ps, a, b), (qs, c, d) = x, y
    return all(
        p * ONE_MINUS_X**c * ONE_PLUS_X**d == q * ONE_MINUS_X**a * ONE_PLUS_X**b
        for p, q in zip(padded(ps), padded(qs))
    )


@settings(max_examples=300, deadline=None)
@given(numerators.filter(any), exponents, exponents, exponents, exponents)
def test_lograt_cancels_shared_factors(nums, a, b, i, j):
    base = LogRat(nums, a, b)
    factor = ONE_MINUS_X**i * ONE_PLUS_X**j
    scaled = LogRat([p * factor for p in nums], a + i, b + j)
    assert (scaled.nums, scaled.pow_one_minus, scaled.pow_one_plus, scaled.den) == (
        base.nums, base.pow_one_minus, base.pow_one_plus, base.den
    )
    assert base.pow_one_minus == 0 or any(p(1) != 0 for p in base.nums)
    assert base.pow_one_plus == 0 or any(p(-1) != 0 for p in base.nums)
    for at, pole in (("plus_one", base.pow_one_minus), ("minus_one", base.pow_one_plus)):
        if pole:
            with pytest.raises(DivergentLimit):
                endpoint_limit(base, at)


@st.composite
def lograt_pairs(draw):
    """Two raw (nums, a, b) triples; half the time the second is the first
    with a common (1 -+ x) factor put into numerators and denominator."""
    nums, a, b = draw(numerators), draw(exponents), draw(exponents)
    if draw(st.booleans()):
        i, j = draw(exponents), draw(exponents)
        factor = ONE_MINUS_X**i * ONE_PLUS_X**j
        return (nums, a, b), ([p * factor for p in nums], a + i, b + j)
    return (nums, a, b), (draw(numerators), draw(exponents), draw(exponents))


@settings(max_examples=300, deadline=None)
@given(lograt_pairs())
def test_lograt_equality_is_cross_multiplication(pair):
    x, y = pair
    e, f = LogRat(*x), LogRat(*y)
    assert (e == f) == cross_multiplied_equal(x, y)
    if e == f:
        assert hash(e) == hash(f)


def assert_integer_over_one_denominator(e):
    coeffs = [c for p in e.nums for c in p.coeffs]
    assert type(e.den) is int and e.den >= 1
    assert all(type(c) is int for c in coeffs)
    assert gcd(e.den, *coeffs) == 1
    if e == LogRat():
        assert (e.nums, e.pow_one_minus, e.pow_one_plus, e.den) == ((Poly.ZERO,) * 3, 0, 0, 1)


@settings(max_examples=300, deadline=None)
@example([Poly.ZERO], 2, 1, 6)  # zero over a non-unit den
@example([Poly([Fraction(4)]), Poly([0, 2])], 0, 0, 4)  # an integral Fraction
@given(numerators, exponents, exponents, st.integers(1, 12))
def test_lograt_is_integer_over_one_denominator(nums, a, b, den):
    """The constructor clears Fractions into den and divides out the content
    shared with it; the result and the arithmetic on it stay in that form
    and stand for the same function."""
    e = LogRat(nums, a, b, den)
    assert_integer_over_one_denominator(e)
    assert cross_multiplied_equal(
        ([p * Fraction(1, e.den) for p in e.nums], e.pow_one_minus, e.pow_one_plus),
        ([p * Fraction(1, den) for p in nums], a, b),
    )
    f = LogRat(nums[::-1], b, a)
    for result in (e + f, e - f, -e, e.derivative(), e * Fraction(-3, 4), e * 0):
        assert_integer_over_one_denominator(result)


classical_functions = st.builds(ClassicalFunction, st.sampled_from("PQ"), st.integers(0, 5))


@settings(max_examples=100, deadline=None)
@given(classical_functions, classical_functions, st.integers(1, 3))
def test_oracle_is_antisymmetric(f, g, n):
    lf, lg = classical_to_lograt(f), classical_to_lograt(g)
    assert sesquilinear_at(lf, lg, n) == -sesquilinear_at(lg, lf, n)
    assert bracket_via_oracle(f, g, n) == -bracket(g, f, n)


pq_functions = st.builds(ClassicalFunction, st.sampled_from("PQ"), st.integers(0, 6))


@settings(max_examples=100, deadline=None)
@example(ClassicalFunction("P", 0), ClassicalFunction("Q", 1), 1)  # all-integer form
@given(pq_functions, pq_functions, st.integers(1, 3))
def test_values_stay_exact(f, g, n):
    """Brackets, oracle limits and classical coefficients are ints until a
    division makes them Fractions; none is a float."""
    form = sesquilinear_at(classical_to_lograt(f), classical_to_lograt(g), n)
    values = [
        bracket(f, g, n),
        *bracket_decomposed(f, g, n),
        bracket_via_oracle(f, g, n),
        endpoint_limit(form, "plus_one"),
        endpoint_limit(form, "minus_one"),
    ]
    for h in (f, g):
        q = legendre_q(h.index)
        values += legendre_p(h.index).coeffs + q.log_coeff.coeffs + q.poly_part.coeffs
    assert all(map(is_exact, values)), values


# The oracle's arithmetic against references written with Poly operations:
# sums over the least common denominator, products, the derivative assembled
# from N', N' (1-x**2) and N * slope, and the boundary form as a fold that
# puts every product and partial sum into canonical form.

ONE_MINUS_X2 = ONE_MINUS_X * ONE_PLUS_X
int_polys = st.lists(st.integers(-9, 9), max_size=6).map(Poly)
polys = st.one_of(int_polys, st.lists(coefficients, max_size=6).map(Poly))


@settings(max_examples=200, deadline=None)
@given(polys, polys, coefficients, st.integers(0, 8))
def test_poly_derivative_obeys_its_laws(p, q, c, k):
    """``Poly.derivative``, which the oracle takes of every polynomial and
    the references below use, against laws that take no derivative:
    linearity, the product rule with ``Poly.__mul__``, and
    d/dx x**k = k x**(k-1).  ``int`` coefficients stay ``int``s."""
    d = Poly.derivative
    assert d(p + c * q) == d(p) + c * d(q)
    assert d(p * q) == d(p) * q + p * d(q)
    assert d(Poly([0] * k + [1])) == Poly([0] * (k - 1) + [k])
    for r in (p, q):
        if all(type(e) is int for e in r.coeffs):
            assert all(type(e) is int for e in d(r).coeffs)


def reference_derivative(e):
    a, b = e.pow_one_minus, e.pow_one_plus
    slope = Poly([a - b, a + b])
    carry = [(m + 1) * p for m, p in enumerate(e.nums[1:])] + [Poly.ZERO]
    nums = [c + p.derivative() * ONE_MINUS_X2 + p * slope for p, c in zip(e.nums, carry)]
    return LogRat(nums, a + 1, b + 1, e.den)


def reference_sum(x, y, sign):
    """x + sign * y."""
    a = max(x.pow_one_minus, y.pow_one_minus)
    b = max(x.pow_one_plus, y.pow_one_plus)
    den = lcm(x.den, y.den)

    def lifted(e):
        factor = ONE_MINUS_X ** (a - e.pow_one_minus) * ONE_PLUS_X ** (b - e.pow_one_plus) * (den // e.den)
        return [p * factor for p in e.nums]

    return LogRat([p + sign * q for p, q in zip(lifted(x), lifted(y))], a, b, den)


def reference_product(x, y):
    nums = [Poly.ZERO] * 3
    for i, p in enumerate(x.nums):
        for j, q in enumerate(y.nums):
            if p and q:
                if i + j > 2:
                    raise ValueError("product would exceed degree 2 in L(x)")
                nums[i + j] = nums[i + j] + p * q
    a, b = x.pow_one_minus + y.pow_one_minus, x.pow_one_plus + y.pow_one_plus
    return LogRat(nums, a, b, x.den * y.den)


def reference_chains(h, n):
    derivs = [h]
    for _ in range(n):
        derivs.append(reference_derivative(derivs[-1]))
    out = []
    for k, a_k in lagrangian_coefficients(n):
        chain = [derivs[k] * a_k]
        for _ in range(k - 1):
            chain.append(reference_derivative(chain[-1]))
        out.append(chain)
    return derivs, out


def reference_sesquilinear(f, g, n):
    (fder, fchains), (gder, gchains) = reference_chains(f, n), reference_chains(g, n)
    total = LogRat()
    for k in range(1, n + 1):
        for j in range(1, k + 1):
            term = reference_sum(reference_product(gchains[k - 1][k - j], fder[j - 1]),
                                 reference_product(fchains[k - 1][k - j], gder[j - 1]), -1)
            total = reference_sum(total, term, (-1) ** (k + j))
    return total


def outcome(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return f"ValueError: {err}"


@st.composite
def lograts(draw):
    """Canonical LogRats with L and L**2 terms, den > 1 and poles at either
    or both ends, or classical P_k and Q_k."""
    if draw(st.booleans()):
        return classical_to_lograt(draw(pq_functions))
    nums = draw(numerators)
    return LogRat(nums, draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 6)))


@settings(max_examples=300, deadline=None)
@example(LogRat([Poly([1, 2])], 1, 2, 3))  # den > 1, poles at both ends
@example(LogRat([Poly.ZERO, Poly.ONE, Poly([0, 1])], 1, 0))  # L and L**2
@given(lograts())
def test_derivative_matches_reference(e):
    assert e.derivative() == reference_derivative(e)


@settings(max_examples=300, deadline=None)
@given(lograts(), lograts())
def test_sum_and_product_match_reference(e, f):
    assert e + f == reference_sum(e, f, 1)
    assert e - f == reference_sum(e, f, -1)
    assert outcome(lambda: e * f) == outcome(reference_product, e, f)


@settings(max_examples=150, deadline=None)
@example(classical_to_lograt(ClassicalFunction("Q", 3)), classical_to_lograt(ClassicalFunction("Q", 2)), 3)
@example(LogRat([Poly([0, 1]), Poly.ZERO, Poly.ONE], 2, 1, 5), LogRat([Poly([1, 1])], 0, 2, 3), 2)
@given(lograts(), lograts(), st.integers(1, 3))
def test_boundary_form_matches_reference(f, g, n):
    """The same form, or the same degree-2 ValueError, as the term-by-term fold."""
    assert outcome(sesquilinear_at, f, g, n) == outcome(reference_sesquilinear, f, g, n)


@settings(max_examples=150, deadline=None)
@given(lograts(), st.integers(1, 4))
def test_chains_match_reference(f, n):
    assert _lagrangian_chains(f, n) == reference_chains(f, n)


# the a_k product f * LS(n,k) (1-x**2)**k lowers each pole of f by up to k
# without dividing; poles below, at and above k at each end
@settings(max_examples=300, deadline=None)
@example(LogRat([Poly([1, 2])], 1, 3, 3), (4, 2))  # below k at +1, above at -1
@example(LogRat([Poly([1, 2]), Poly([0, 1])], 2, 2, 5), (3, 2))  # at k at both ends
@example(LogRat([Poly([0, 1]), Poly.ONE], 5, 0), (4, 4))  # above at +1, none at -1
@example(LogRat([Poly([3, 0, 1])], 0, 4, 2), (4, 4))  # none at +1, at k at -1
@given(
    st.builds(LogRat, numerators, st.integers(0, 6), st.integers(0, 6), st.integers(1, 6)),
    st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
)
def test_coefficient_product_matches_public_product(e, nk):
    n, k = nk
    assert _times_coefficient(e, n, k) == e * dict(lagrangian_coefficients(n))[k]


def recording_trusted(mp):
    """Record the arguments and the value of every call to the trusted constructor."""
    trusted, made = oracle._trusted, []

    def recording(*args):
        value = trusted(*args)
        made.append((args, value))
        return value

    mp.setattr(oracle, "_trusted", recording)
    return made


@settings(max_examples=200, deadline=None)
@example(LogRat([Poly([1, 2])], 1, 2, 3), 2)  # den > 1, poles at both ends
@example(classical_to_lograt(ClassicalFunction("Q", 2)), 3)  # chains of pole-free members
@given(lograts(), st.integers(1, 4))
def test_trusted_values_equal_public_ones(e, n):
    """Every value the arithmetic builds without the constructor's checks is
    the canonical form LogRat(...) makes of the same raw numerators."""
    with pytest.MonkeyPatch.context() as mp:
        made = recording_trusted(mp)
        assert -e + e == LogRat()
        _lagrangian_chains(e, n)
    assert len(made) == 1 + n * (n + 3) // 2
    for args, value in made:
        assert value == LogRat(*args)
        assert_integer_over_one_denominator(value)


def test_oracle_settles_poles_by_rule(monkeypatch):
    """On suite_oracle(3, 4) no (1 -+ x) division inside the chains fails: the
    derivative divides only what it knows to vanish, the a_k product not at
    all, and every chain still takes n(n+1)/2 derivatives."""
    divided, derivative, chains = oracle._divided, LogRat.derivative, oracle._lagrangian_chains
    failed, in_product, per_chain, calls = [], [], [], []

    def counting_divided(nums, t):
        result = divided(nums, t)
        callers, frame = set(), sys._getframe(1)
        while frame:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        if "_times_coefficient" in callers:
            in_product.append(nums)
        if result is None and callers & {"derivative", "_lagrangian_chains"}:
            failed.append(nums)
        return result

    def counting_derivative(self):
        calls.append(self)
        return derivative(self)

    def counting_chains(f, n):
        before = len(calls)
        result = chains(f, n)
        per_chain.append((n, len(calls) - before))
        return result

    monkeypatch.setattr(oracle, "_divided", counting_divided)
    monkeypatch.setattr(LogRat, "derivative", counting_derivative)
    monkeypatch.setattr(oracle, "_lagrangian_chains", counting_chains)
    assert [r.detail for r in suite_oracle(3, 4)] == ["256 pairs agree exactly (80 nonzero)"]
    assert failed == [] and in_product == []
    assert len(per_chain) == 2 * 256
    assert all(count == n * (n + 1) // 2 for n, count in per_chain)


def test_boundary_form_of_log_squares_exceeds_degree_two():
    log2 = LogRat((Poly.ZERO, Poly.ZERO, Poly.ONE))
    with pytest.raises(ValueError, match="product would exceed degree 2 in L"):
        sesquilinear_at(log2, log2, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_canonical_form_per_boundary_form(n, monkeypatch):
    # the boundary form's products are summed as integer coefficient lists
    # and put into canonical form once; a fold over its terms would build a
    # LogRat per product and per partial sum.  Values built by the trusted
    # constructor skip __post_init__, so both are counted
    f, g = classical_to_lograt(ClassicalFunction("Q", 3)), classical_to_lograt(ClassicalFunction("P", 2))
    init, made = LogRat.__post_init__, recording_trusted(monkeypatch)

    def counting_init(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(LogRat, "__post_init__", counting_init)
    _lagrangian_chains(f, n)
    _lagrangian_chains(g, n)
    chains = len(made)
    sesquilinear_at(f, g, n)
    monkeypatch.undo()
    assert len(made) - 2 * chains == 1
