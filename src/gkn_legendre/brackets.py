"""Closed-form evaluation of the boundary bracket [f,g]_n from -1 to 1.

For eigen-type functions the bracket factors as
    [f_j, g_k]_n = (lam_j**n - lam_k**n) * <f_j, g_k>,    lam_i = i(i+1),
and lam_j - lam_k = (j-k)(j+k+1) is exactly the denominator of the classical
inner products.  So every bracket is a small factor times the integer

    h = h_{n-1}(lam_j, lam_k) = (lam_j**n - lam_k**n) / (lam_j - lam_k),

and there are three cases:

    [P_j, P_k]_n = 0, and every equal-index or parity-zero pair is 0
    [P_j, Q_k]_n = 2h,  [Q_j, P_k]_n = -2h                    for j+k odd
    [Q_j, Q_k]_n = -2 (H_j - H_k) h                 for j+k even and j != k

Only the Q-Q case is a ``Fraction``; every other bracket is an ``int``.
With H_i = N_i / D_i from the memoized harmonic numbers, the Q-Q case is

    [Q_j, Q_k]_n = 2 (N_k D_j - N_j D_k) h / (D_j D_k),

built in integers and normalized by one ``Fraction`` construction.
``bracket`` reads each lam_i**n and H_i from the caches of ``exactnum`` and
divides by (j - k)(j + k + 1).

The form is skew, [g, f]_n = -[f, g]_n, and a matrix reads each nonzero
value many times over.  So ``bracket`` keeps the nonzero brackets of the
last power it served in one table keyed by (kind, index, kind, index): a
miss computes [f, g]_n once and stores it with its mirror -[f, g]_n, and a
call at a new power replaces the table, so it never holds two powers.  The
zero tests run before the table is read.  The table is read through one
binding of (power, table), so two threads at different powers can at worst
lose entries, never mix powers.

A power n follows the argument rule of ``exactnum.require_int``, with n >= 1.
"""

from __future__ import annotations

from fractions import Fraction

from .classical import ClassicalFunction, inner_pq, inner_qq
from .exactnum import _harmonic, _lam_power, eigenvalue, require_int

__all__ = ["bracket", "bracket_decomposed"]


# the nonzero brackets of the last power served, each with its mirror
_memo: tuple[int, dict] = (0, {})


def bracket(f: ClassicalFunction, g: ClassicalFunction, n: int) -> int | Fraction:
    """Exact value of [f, g]_n evaluated from -1 to 1."""
    global _memo
    if type(n) is not int or n < 1:
        require_int("bracket", "n", n, 1)
    fk, j, gk, k = f.kind, f.index, g.kind, g.index
    if fk == gk:
        if fk == "P" or j == k or (j + k) % 2:
            return 0
    elif (j + k) % 2 == 0:
        return 0
    power, values = _memo
    if power == n:
        value = values.get((fk, j, gk, k))
        if value is not None:
            return value
    else:
        values = {}
        _memo = n, values
    value = values[fk, j, gk, k] = _nonzero_bracket(fk, j, gk, k, n)
    values[gk, k, fk, j] = -value
    return value


def _nonzero_bracket(fk: str, j: int, gk: str, k: int, n: int) -> int | Fraction:
    """[f, g]_n for f = fk_j and g = gk_k, a pair the zero tests passed."""
    # j != k here, so the divisor is lam_j - lam_k != 0 and the division exact
    h = (_lam_power(j, n) - _lam_power(k, n)) // ((j - k) * (j + k + 1))
    if fk == "P":
        return 2 * h
    if gk == "P":
        return -2 * h
    (nj, dj), (nk, dk) = _harmonic(j, 1).as_integer_ratio(), _harmonic(k, 1).as_integer_ratio()
    return Fraction(2 * (nk * dj - nj * dk) * h, dj * dk)


def bracket_decomposed(
    f: ClassicalFunction, g: ClassicalFunction, n: int
) -> tuple[int, int | Fraction]:
    """The two factors (eigen_gap, inner) whose product is bracket(f, g, n).

    Equal-index and P-P pairs return (0, 0): the bracket vanishes through the
    eigen-gap (j == k) or through orthogonality before any inner product is
    consulted.
    """
    require_int("bracket_decomposed", "n", n, 1)
    j, k = f.index, g.index
    if (f.kind == "P" and g.kind == "P") or f == g:
        return 0, 0
    gap = eigenvalue(j, n) - eigenvalue(k, n)
    if f.kind == "P" and g.kind == "Q":
        inner = inner_pq(j, k)
    elif f.kind == "Q" and g.kind == "Q":
        inner = inner_qq(j, k)
    else:  # Q, P: the inner product is symmetric, <Q_j, P_k> = <P_k, Q_j>
        inner = inner_pq(k, j)
    return gap, inner
