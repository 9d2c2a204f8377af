"""Boundary-form matrices, exact rank/determinant, and the structural checks.

The matrix for a selection of r Legendre polynomials and s second-kind
functions is the (r+s) x (r+s) table of brackets, P-block first.  Every rank
and determinant is decided on integers, after clearing row denominators, so
there is no rounding anywhere and no magnitude wall: a determinant by
fraction-free (Bareiss) elimination, a rank piece by the same elimination
mod the prime P = 2**61 - 1, which proves the rank when it reaches the
piece's smaller side, and by exact Bareiss only where it falls short.

The rank splits a square matrix at rows R whose nonzeros all lie in a
column set S, with X = M[R, S] of full column rank, where columns R are
minus rows R (M[i, j] = -M[j, i], checked on the values at the split): rows
and columns R and S leave together, for rank 2|S|, and what is left is
split again.  What no such R splits, and a matrix that is not square, is
eliminated whole.  A bracket matrix is skew, as the form of Green's formula
is, and splits in pairs because brackets of opposite parity and P-P
brackets vanish.
The determinant eliminates the whole matrix in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, compress
from operator import ge

from .brackets import bracket
from .classical import ClassicalFunction
from .exactnum import clear_denominators, rational_str, require_exact, require_int

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


P = 2**61 - 1  # the prime of the rank certificate

# one per (kind, index), called only with indices IndexSelection checked (True == 1 as a key)
_p_label, _q_label = (cache(partial(ClassicalFunction, kind)) for kind in "PQ")


@dataclass(frozen=True)
class IndexSelection:
    """Chosen P-indices and Q-indices defining candidate GKN conditions."""

    p_indices: tuple[int, ...]
    q_indices: tuple[int, ...]
    power: int

    def __post_init__(self):
        for name in ("p_indices", "q_indices"):
            if type(getattr(self, name)) is not tuple:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if type(self.power) is not int or self.power < 1:
            require_int("IndexSelection", "power", self.power, 1)
        for name, idx in (("p_indices", self.p_indices), ("q_indices", self.q_indices)):
            for i in idx:
                if type(i) is not int or i < 0:
                    require_int("IndexSelection", name, i, 0)
            if any(map(ge, idx, idx[1:])):
                raise ValueError(f"IndexSelection: {name} must be strictly increasing")

    @property
    def labels(self) -> tuple[ClassicalFunction, ...]:
        return (*map(_p_label, self.p_indices), *map(_q_label, self.q_indices))

    def key(self) -> str:
        p = ",".join(map(str, self.p_indices))
        q = ",".join(map(str, self.q_indices))
        return f"n={self.power};P={p};Q={q}"


def canonical_selection(n: int) -> IndexSelection:
    """The canonical choice: P_0..P_{n-1} with Q_0..Q_{n-1} (even n) or
    Q_1..Q_n (odd n)."""
    require_int("canonical_selection", "n", n, 1)
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
        return "".join(",".join(rational_str(e) for e in row) + "\n" for row in self.entries)

    def pretty(self) -> str:
        cells = [[rational_str(e) for e in row] for row in self.entries]
        widths = [max(map(len, column)) for column in zip(*cells)]
        return "\n".join(
            "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells
        )


def build_matrix(sel: IndexSelection) -> BracketMatrix:
    """Populate the full bracket matrix for a selection, P-block first."""
    labels, n = sel.labels, sel.power
    entries = tuple([tuple([bracket(f, g, n) for g in labels]) for f in labels])
    return BracketMatrix(entries, labels, n)


def b_block(sel: IndexSelection) -> list[list[int | Fraction]]:
    """The P-vs-Q (upper right) block."""
    labels, r = sel.labels, len(sel.p_indices)
    ps, qs = labels[:r], labels[r:]
    return [[bracket(p, q, sel.power) for q in qs] for p in ps]


def c_block(sel: IndexSelection) -> list[list[int | Fraction]]:
    """The Q-vs-Q (lower right) block."""
    qs = sel.labels[len(sel.p_indices) :]
    return [[bracket(a, b, sel.power) for b in qs] for a in qs]


def _bareiss(m: list[list[int]], p: int = 0) -> tuple[int, int] | int:
    """(rank, det) of an integer matrix by one pass of fraction-free
    elimination, which leaves ``m`` as it is; with a modulus ``p``, only the
    rank mod ``p``.

    Each pivot row, the first left with a nonzero (mod ``p``) in its column,
    leaves the rows, and each other row left becomes (pivot*a - factor*b)
    // prev, whole.  The determinant is 0 unless the matrix is square of full
    rank, where it is the last pivot up to the sign of the rows the pivot
    rows passed.  The empty matrix has rank 0 and determinant 1.  Mod a prime
    ``p`` each row becomes (pivot*a - factor*b) % p with no division: the
    pivot is a unit, so this is a row operation over GF(p) and gives the rank
    there.  This is the only elimination loop: ``rank_exact`` runs it on each
    piece that its splitting rule leaves, mod ``P`` and exactly where that
    falls short, ``det_exact`` once on the whole matrix.
    """
    rows = list(m)  # the rows not yet pivots; each step replaces them, never changes one
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank, sign, pivot = 0, 1, 1
    for col in range(ncols):
        for k, top in enumerate(rows):
            if top[col] % p if p else top[col]:
                break
        else:
            continue
        del rows[k]
        if k & 1:
            sign = -sign
        rank += 1
        prev, pivot = pivot, top[col]
        if not rows:
            break
        for i, row in enumerate(rows):
            factor = row[col]
            rows[i] = (
                [(pivot * a - factor * b) % p for a, b in zip(row, top)] if p
                else [(pivot * a - factor * b) // prev for a, b in zip(row, top)]
            )
    return rank if p else (rank, sign * pivot if rank == nrows == ncols else 0)


def _rank_piece(piece: list[list[int]]) -> int:
    """Rank of an integer piece, certified mod ``P`` where it can be.

    Every minor is an integer, and one that is 0 is 0 mod ``P``, so the rank
    mod ``P`` is at most the rank, which is at most min(rows, cols): a rank
    mod ``P`` that reaches min(rows, cols) is the rank.  The certificate is
    sound in that direction only; a piece that falls short mod ``P`` is
    eliminated exactly.
    """
    full = min(len(piece), len(piece[0]))
    return full if _bareiss(piece, P) == full else _bareiss(piece)[0]


def _skew_piece(matrix, tight, rows, cols) -> list[list[int]] | None:
    """X = M[tight, cols], cleared to ``int``s, if M[i][j] == -M[j][i] for
    every j in ``tight`` and i in ``rows``, else None."""
    piece = []
    for j in tight:
        row = matrix[j]
        for i in rows:
            if matrix[i][j] != -row[i]:
                return None
        piece.append([row[c] for c in cols])
    return clear_denominators("rank_exact", "entries", piece)[0]


def rank_exact(matrix) -> int:
    """Exact rank of a rational matrix.

    The rows and columns in play are one index set.  Take a column set S and
    the rows R whose nonzeros all lie in it, with M[i, j] = -M[j, i] for
    every j in R and every row i in play (checked on the values at each
    split) and X = M[R, S] of full column rank |S|.  Rows R are zero outside
    columns S, so columns R are zero outside rows S, and M[S, R] = -X^T has
    full row rank |S|: row operations by X clear columns S outside rows R,
    column operations by -X^T clear rows S outside columns R, and the rank is
    2|S| plus that of M[T, T] for the indices T outside R and S.  R and S are
    disjoint: S is the mask of a row r in R, the check gives M[r, r] = 0, so
    r is not in S, and each i in S has the nonzero M[i, r] = -M[r, i] outside
    S and is not in R.  Each distinct row mask is tried as S, the first
    proper R with |R| >= |S| that passes is taken, and the rule repeats on
    M[T, T]; what is left when none passes, or a matrix that is not square,
    is one piece.  A skew matrix passes the value check at every split.
    Each piece is extracted once, cleared of its denominators in one call,
    and ranked by ``_rank_piece``: mod ``P`` first, which is sound in one
    direction only (a rank mod ``P`` of min(rows, cols) is the rank, a lower
    one proves nothing), then exactly where that falls short.
    """
    if len(set(map(len, matrix))) > 1:
        raise ValueError("rank_exact: rows differ in length")
    require_exact("rank_exact", "entries", *matrix)
    n = len(matrix)
    if matrix and len(matrix[0]) != n:
        return _rank_piece(clear_denominators("rank_exact", "entries", matrix)[0])
    rows = range(n)
    bits = [1 << i for i in rows]
    masks = [sum(compress(bits, row)) for row in matrix]
    live, rank = (1 << n) - 1, 0
    while rows:  # each pass splits off one R and its S; live is the mask of rows
        tried = []
        for r in rows:
            s = masks[r] & live
            if s in tried:
                continue
            tried.append(s)
            out = live ^ s
            tight = [t for t in rows if not masks[t] & out]
            k = s.bit_count()
            if k <= len(tight) < len(rows):
                cols, rest = [], s
                while rest:  # the indices of S, lowest first
                    low = rest & -rest
                    cols.append(low.bit_length() - 1)
                    rest ^= low
                x = _skew_piece(matrix, tight, rows, cols)
                if x is not None and (not k or _rank_piece(x) == k):
                    break
        else:
            piece = [[row[j] for j in rows] for row in map(matrix.__getitem__, rows)]
            return rank + _rank_piece(clear_denominators("rank_exact", "entries", piece)[0])
        rank += 2 * k
        live &= ~(s | sum(map(bits.__getitem__, tight)))
        rows = [i for i in rows if live >> i & 1]
    return rank


def det_exact(matrix) -> int | Fraction:
    """Exact determinant of a square rational matrix: an ``int`` when it is
    integral, a ``Fraction`` otherwise.  Each row is cleared of its
    denominators, and the product of their lcms divides the determinant of
    the ``int`` rows back out."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("det_exact: matrix must be square")
    m, scale = clear_denominators("det_exact", "entries", matrix)
    det = _bareiss(m)[1]
    return det // scale if det % scale == 0 else Fraction(det, scale)


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
    are yielded: these are the candidates the conjecture speaks about.  As P
    and Q hold n indices each, that is evens(P) + evens(Q) == n, with the
    census taken once per combination.
    """
    require_int("enumerate_selections", "n", n, 1)
    require_int("enumerate_selections", "pool_bound", pool_bound)
    combos = [(c, _census(c)[0]) for c in combinations(range(pool_bound + 1), n)]
    for p, p_evens in combos:
        for q, q_evens in combos:
            if not parity_filter or p_evens + q_evens == n:
                yield IndexSelection(p, q, n)
