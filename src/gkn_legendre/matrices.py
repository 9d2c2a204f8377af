"""Boundary-form matrices, exact rank/determinant, and the structural checks.

The matrix for a selection of r Legendre polynomials and s second-kind
functions is the (r+s) x (r+s) table of brackets, P-block first.  All rank
and determinant decisions use fraction-free (Bareiss) elimination over the
integers after clearing row denominators, so there is no rounding anywhere
and no magnitude wall.

The rank splits off rows R whose nonzeros all lie in a column set S, so that
the matrix is [[X, 0], [Y, Z]] with X = M[R, S] of full column rank: X clears
Y, and the rank is |S| + rank Z.  In a skew matrix (M = -M^T) rows and
columns R and S split off together, for rank 2|S|: M[S, R] = -X^T clears the
rest of rows S, and R and S are disjoint because the diagonal is zero.  What
no such R splits is eliminated whole; only the pieces eliminated are scaled
to integers.  A bracket matrix is skew, as the form of Green's formula is,
and splits so because brackets of opposite parity and P-P brackets vanish,
but the rule is exact for every matrix.
The determinant eliminates the whole matrix in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress
from operator import eq, neg

from .brackets import bracket
from .classical import ClassicalFunction
from .exactnum import rational_str

__all__ = [
    "IndexSelection",
    "BracketMatrix",
    "canonical_selection",
    "build_matrix",
    "b_block",
    "c_block",
    "rank_exact",
    "det_exact",
    "is_li_mod_dmin",
    "parity_census",
    "enumerate_selections",
]


@dataclass(frozen=True)
class IndexSelection:
    """Chosen P-indices and Q-indices defining candidate GKN conditions."""

    p_indices: tuple[int, ...]
    q_indices: tuple[int, ...]
    power: int

    def __post_init__(self):
        object.__setattr__(self, "p_indices", tuple(self.p_indices))
        object.__setattr__(self, "q_indices", tuple(self.q_indices))
        if not isinstance(self.power, int) or self.power < 1:
            if not isinstance(self.power, int):
                raise TypeError(f"IndexSelection: power must be an int, got {type(self.power).__name__}")
            raise ValueError("power must be >= 1")
        for name, idx in (("p_indices", self.p_indices), ("q_indices", self.q_indices)):
            if any(i < 0 for i in idx):
                raise ValueError(f"{name}: indices must be >= 0")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"{name}: indices must be strictly increasing")

    @property
    def labels(self) -> tuple[ClassicalFunction, ...]:
        return tuple(
            [ClassicalFunction("P", i) for i in self.p_indices]
            + [ClassicalFunction("Q", i) for i in self.q_indices]
        )

    def key(self) -> str:
        p = ",".join(map(str, self.p_indices))
        q = ",".join(map(str, self.q_indices))
        return f"n={self.power};P={p};Q={q}"


def canonical_selection(n: int) -> IndexSelection:
    """The canonical choice: P_0..P_{n-1} with Q_0..Q_{n-1} (even n) or
    Q_1..Q_n (odd n)."""
    if n < 1:
        raise ValueError("canonical_selection: n must be >= 1")
    p = tuple(range(n))
    q = tuple(range(n)) if n % 2 == 0 else tuple(range(1, n + 1))
    return IndexSelection(p, q, n)


@dataclass(frozen=True)
class BracketMatrix:
    entries: tuple[tuple[int | Fraction, ...], ...]
    labels: tuple[ClassicalFunction, ...]
    power: int

    @property
    def size(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "power": self.power,
            "labels": [str(l) for l in self.labels],
            "entries": [[rational_str(e) for e in row] for row in self.entries],
        }

    def to_csv(self) -> str:
        lines = [",".join(rational_str(e) for e in row) for row in self.entries]
        return "\n".join(lines) + "\n"

    def pretty(self) -> str:
        cells = [[rational_str(e) for e in row] for row in self.entries]
        widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
        return "\n".join(
            "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells
        )


def build_matrix(sel: IndexSelection) -> BracketMatrix:
    """Populate the full bracket matrix for a selection, P-block first."""
    labels = sel.labels
    entries = tuple(
        tuple(bracket(f, g, sel.power) for g in labels) for f in labels
    )
    return BracketMatrix(entries, labels, sel.power)


def b_block(sel: IndexSelection) -> list[list[int | Fraction]]:
    """The P-vs-Q (upper right) block."""
    labels, r = sel.labels, len(sel.p_indices)
    ps, qs = labels[:r], labels[r:]
    return [[bracket(p, q, sel.power) for q in qs] for p in ps]


def c_block(sel: IndexSelection) -> list[list[int | Fraction]]:
    """The Q-vs-Q (lower right) block."""
    qs = sel.labels[len(sel.p_indices) :]
    return [[bracket(a, b, sel.power) for b in qs] for a in qs]


def _integer_rows(matrix) -> tuple[list[list[int]], int]:
    """Each row scaled to integers by the lcm of its denominators, and the
    product of those scales, which divides the determinant back out.
    Entries are ``int``s or ``Fraction``s; anything else is a ``TypeError``."""
    m, scale = [], 1
    for row in matrix:
        try:
            mult = math.lcm(*(x.denominator for x in row))
            m.append([x.numerator * (mult // x.denominator) for x in row])
        except AttributeError:
            bad = next(x for x in row if not isinstance(x, (int, Fraction)))
            raise TypeError(f"entries must be int or Fraction, got {type(bad).__name__}") from None
        scale *= mult
    return m, scale


def _bareiss(m: list[list[int]]) -> tuple[int, int]:
    """(rank, det) of an integer matrix by one pass of fraction-free
    elimination, which overwrites ``m``.

    The determinant is 0 unless the matrix is square of full rank, where it
    is the last pivot up to the sign of the row swaps.  The empty matrix has
    rank 0 and determinant 1.  This is the only elimination loop:
    ``rank_exact`` runs it on each piece that its splitting rule leaves,
    ``det_exact`` once on the whole matrix.
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == nrows:
            break
        for piv in range(rank, nrows):
            if m[piv][col]:
                break
        else:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        pivot = top[col]
        for row in m[rank + 1 :]:
            factor = row[col]
            row[col + 1 :] = [
                (pivot * a - factor * b) // prev for a, b in zip(row[col + 1 :], top[col + 1 :])
            ]
            row[col] = 0  # never read again; frees the big entry
        prev = pivot
        rank += 1
    return rank, sign * prev if rank == nrows == ncols else 0


def rank_exact(matrix) -> int:
    """Exact rank of a rational matrix.

    Take a column set S and the rows R whose nonzeros all lie in it, so that
    up to order the matrix is [[X, 0], [Y, Z]] with X = M[R, S].  If X has
    full column rank |S|, its rows span every row of Y, so row operations
    clear Y without touching Z and the rank is |S| + rank Z.  Each distinct
    row mask is tried as S, the first proper R with |R| >= |S| and X of rank
    |S| is taken, and the rule repeats on Z; what is left when none is found
    is eliminated in one piece.

    If M is skew (M = -M^T, tested once, on the values), each split takes
    rows and columns R and S together and adds 2|S|.  Rows R are zero
    outside columns S, so by skewness columns R are zero outside rows S, and
    M[S, R] = -X^T has full row rank |S|: column operations clear the rest
    of rows S, and what is left is M[T, T] for the indices T outside R and S,
    still principal and skew.  R and S are disjoint without a test: S is the
    mask of a row r in play, and r is not in S as M[r, r] = 0, so each i in S
    has the nonzero M[i, r] = -M[r, i] outside S and is not in R.  Each piece
    is scaled to integers just before its elimination.
    """
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("rank_exact: rows differ in length")
    if not {int, Fraction}.issuperset(map(type, chain(*matrix))):
        _integer_rows(matrix)  # names the first entry that is neither
    ncols = len(matrix[0]) if matrix else 0
    skew = len(matrix) == ncols and all(
        all(map(eq, row[i:], map(neg, col[i:])))  # M[i, j] = -M[j, i] for j >= i
        for i, (row, col) in enumerate(zip(matrix, zip(*matrix)))
    )
    bits = [1 << j for j in range(ncols)]
    masks = [sum(compress(bits, row)) for row in matrix]

    def rank_of(part, mask):
        js = [j for j in range(mask.bit_length()) if mask >> j & 1]
        return _bareiss(_integer_rows([[matrix[i][j] for j in js] for i in part])[0])[0]

    rows, cols, rank = range(len(matrix)), sum(bits), 0
    while rows:  # each pass splits off one R, with S the mask s
        for s in dict.fromkeys(masks[i] & cols for i in rows):
            tight = [i for i in rows if masks[i] & cols | s == s]
            k = s.bit_count()
            if k <= len(tight) < len(rows) and (not k or rank_of(tight, s) == k):
                break
        else:
            return rank + rank_of(rows, cols)
        rank += k
        if skew:  # R and S leave as rows and as columns
            rank += k
            s |= sum(bits[i] for i in tight)
            tight = [i for i in rows if s >> i & 1]
        rows = [i for i in rows if i not in tight]
        cols &= ~s
    return rank


def det_exact(matrix) -> int | Fraction:
    """Exact determinant of a square rational matrix."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("det_exact: matrix must be square")
    m, scale = _integer_rows(matrix)
    det = _bareiss(m)[1]
    return Fraction(det, scale) if det else 0


def is_li_mod_dmin(sel: IndexSelection) -> bool:
    """Rank-certified linear independence modulo the minimal domain.

    True means the full bracket matrix has full rank, which is sufficient for
    independence.  False is not a certificate of dependence: the rank test is
    sufficient but not necessary.
    """
    m = build_matrix(sel)
    return rank_exact(m.entries) == m.size


def _census(idx: tuple[int, ...]) -> tuple[int, int]:
    """(evens, odds) over an index tuple, with multiplicity."""
    evens = sum(1 for i in idx if i % 2 == 0)
    return evens, len(idx) - evens


def parity_census(sel: IndexSelection) -> tuple[int, int]:
    """(evens, odds) over the union of P- and Q-indices, with multiplicity."""
    return _census(sel.p_indices + sel.q_indices)


def enumerate_selections(n: int, pool_bound: int, parity_filter: bool = True):
    """All r = s = n selections from indices [0..pool_bound], in
    lexicographic order of the (P, Q) index tuples.

    With the parity filter on, only selections whose index census is (n, n)
    are yielded: these are the candidates the conjecture speaks about.
    """
    pool = range(pool_bound + 1)
    for p in combinations(pool, n):
        for q in combinations(pool, n):
            if not parity_filter or _census(p + q) == (n, n):
                yield IndexSelection(p, q, n)
