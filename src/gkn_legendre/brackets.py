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

A power that is not an ``int`` is a ``TypeError``, so no ``float`` leaks in.
"""

from __future__ import annotations

from fractions import Fraction

from .classical import ClassicalFunction, inner_pq, inner_qq
from .exactnum import eigenvalue, harmonic

__all__ = ["bracket", "bracket_decomposed"]


def bracket(f: ClassicalFunction, g: ClassicalFunction, n: int) -> int | Fraction:
    """Exact value of [f, g]_n evaluated from -1 to 1."""
    if not isinstance(n, int) or n < 1:
        if not isinstance(n, int):
            raise TypeError(f"bracket: n must be an int, got {type(n).__name__}")
        raise ValueError("bracket: n must be >= 1")
    j, k = f.index, g.index
    if f.kind == "Q" and g.kind == "Q":
        if j == k or (j + k) % 2:
            return 0
    elif f.kind == g.kind or (j + k) % 2 == 0:
        return 0
    # j != k here, so a != b and the division is exact
    a, b = j * (j + 1), k * (k + 1)
    h = (a**n - b**n) // (a - b)
    if f.kind == "P":
        return 2 * h
    if g.kind == "P":
        return -2 * h
    hj, hk = harmonic(j), harmonic(k)
    return Fraction(
        2 * (hk.numerator * hj.denominator - hj.numerator * hk.denominator) * h,
        hj.denominator * hk.denominator,
    )


def bracket_decomposed(
    f: ClassicalFunction, g: ClassicalFunction, n: int
) -> tuple[int, int | Fraction]:
    """The two factors (eigen_gap, inner) whose product is bracket(f, g, n).

    Equal-index and P-P pairs return (0, 0): the bracket vanishes through the
    eigen-gap (j == k) or through orthogonality before any inner product is
    consulted.
    """
    if not isinstance(n, int) or n < 1:
        if not isinstance(n, int):
            raise TypeError(f"bracket_decomposed: n must be an int, got {type(n).__name__}")
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
