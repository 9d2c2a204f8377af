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

A power n follows the argument rule of ``exactnum.require_int``, with n >= 1.
"""

from __future__ import annotations

from fractions import Fraction

from .classical import ClassicalFunction, inner_pq, inner_qq
from .exactnum import _harmonic, _lam_power, eigenvalue, require_int

__all__ = ["bracket", "bracket_decomposed"]


def bracket(f: ClassicalFunction, g: ClassicalFunction, n: int) -> int | Fraction:
    """Exact value of [f, g]_n evaluated from -1 to 1."""
    if type(n) is not int or n < 1:
        require_int("bracket", "n", n, 1)
    j, k = f.index, g.index
    if f.kind == g.kind:
        if f.kind == "P" or j == k or (j + k) % 2:
            return 0
    elif (j + k) % 2 == 0:
        return 0
    # j != k here, so the divisor is lam_j - lam_k != 0 and the division exact
    h = (_lam_power(j, n) - _lam_power(k, n)) // ((j - k) * (j + k + 1))
    if f.kind == "P":
        return 2 * h
    if g.kind == "P":
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
