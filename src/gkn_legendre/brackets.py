"""Closed-form evaluation of the boundary bracket [f,g]_n from -1 to 1.

For eigen-type functions the bracket factors as
    [f_j, g_k]_n = (lam_j**n - lam_k**n) * <f_j, g_k>,    lam_i = i(i+1),
so only the classical inner products are needed.  The closed forms:

    [P_j, P_k]_n = 0
    [P_j, Q_k]_n = -2 (lam_j**n - lam_k**n) / ((k-j)(j+k+1))   for j+k odd, else 0
    [Q_j, Q_k]_n = 2 (H_j - H_k)(lam_j**n - lam_k**n) / ((k-j)(j+k+1))
                                                  for j+k even and j != k, else 0

The eigen-gap is written lam_j**n - lam_k**n against the denominator
(k-j)(j+k+1), matching the sign convention of the printed matrices.
"""

from __future__ import annotations

from fractions import Fraction

from .classical import ClassicalFunction, inner_pq, inner_qq
from .exactnum import eigenvalue

__all__ = ["bracket", "bracket_decomposed"]


def bracket(f: ClassicalFunction, g: ClassicalFunction, n: int) -> int | Fraction:
    """Exact value of [f, g]_n evaluated from -1 to 1."""
    if n < 1:
        raise ValueError("bracket: n must be >= 1")
    gap, inner = bracket_decomposed(f, g, n)
    return gap * inner


def bracket_decomposed(
    f: ClassicalFunction, g: ClassicalFunction, n: int
) -> tuple[int, int | Fraction]:
    """The two factors (eigen_gap, inner) whose product is bracket(f, g, n).

    Equal-index and P-P pairs return (0, 0): the bracket vanishes through the
    eigen-gap (j == k) or through orthogonality before any inner product is
    consulted.
    """
    if n < 1:
        raise ValueError("bracket_decomposed: n must be >= 1")
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
