"""Exact scalars and the combinatorial number sequences everything else consumes.

The number rule: a value is an ``int`` until a division makes it a
``fractions.Fraction``.  Python's ``int``/``Fraction`` tower is exact (a
``Fraction`` is always reduced, with a positive denominator, and an ``int``
has ``.numerator`` and ``.denominator`` too), so nothing coerces a value that
is already exact, and nothing in this package ever rounds.  A division of two
``int``s is written ``Fraction(a, b)``, never ``a / b``, which would give a
``float``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PiPair",
    "rational_str",
    "harmonic",
    "harmonic2",
    "eigenvalue",
    "legendre_stirling",
    "laguerre_ld_coefficient",
]


def rational_str(q: int | Fraction) -> str:
    """Serialize a rational as "p/q", or just "p" when the denominator is 1.

    Every output goes through here, so anything inexact is a ``TypeError``."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"rational_str: expected int or Fraction, got {type(q).__name__}")
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class PiPair:
    """A value of the form rat + pi2 * pi**2, held exactly."""

    rat: int | Fraction
    pi2: int | Fraction

    def to_float(self) -> float:
        return float(self.rat) + float(self.pi2) * math.pi**2


# Memo tables; entries are immutable once written.
_harmonic: list[Fraction] = [Fraction(0)]
_harmonic2: list[Fraction] = [Fraction(0)]
_ls_rows: list[list[int]] = [[1]]


def harmonic(k: int) -> Fraction:
    """H_k = sum_{i=1..k} 1/i, with H_0 = 0."""
    if k < 0:
        raise ValueError("harmonic: k must be >= 0")
    while len(_harmonic) <= k:
        i = len(_harmonic)
        _harmonic.append(_harmonic[-1] + Fraction(1, i))
    return _harmonic[k]


def harmonic2(k: int) -> Fraction:
    """H_k^(2) = sum_{i=1..k} 1/i**2, with H_0^(2) = 0."""
    if k < 0:
        raise ValueError("harmonic2: k must be >= 0")
    while len(_harmonic2) <= k:
        i = len(_harmonic2)
        _harmonic2.append(_harmonic2[-1] + Fraction(1, i * i))
    return _harmonic2[k]


def eigenvalue(k: int, n: int) -> int:
    """(k(k+1))**n, the eigenvalue of the n-th operator power at index k."""
    if k < 0 or not isinstance(n, int) or n < 1:
        if not isinstance(n, int):
            raise TypeError(f"eigenvalue: n must be an int, got {type(n).__name__}")
        raise ValueError("eigenvalue: need k >= 0 and n >= 1")
    return (k * (k + 1)) ** n


def legendre_stirling(n: int, k: int) -> int:
    """Legendre-Stirling number of the second kind.

    Triangular recurrence LS(n,k) = LS(n-1,k-1) + k(k+1)*LS(n-1,k) with
    LS(0,0) = 1 and LS(n,0) = 0 for n >= 1.
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"legendre_stirling: need 0 <= k <= n, got ({n}, {k})")
    while len(_ls_rows) <= n:
        prev = _ls_rows[-1]
        m = len(_ls_rows)
        row = [0] * (m + 1)
        for j in range(1, m + 1):
            above = prev[j] if j < len(prev) else 0
            row[j] = prev[j - 1] + j * (j + 1) * above
        _ls_rows.append(row)
    return _ls_rows[n][k]


def laguerre_ld_coefficient(j: int, n: int, k: int | Fraction) -> Fraction:
    """Coefficient b_j(n,k) of the Laguerre left-definite inner product.

    b_j(n,k) = sum_{i=0..j} (-1)**(i+j)/j! * C(j,i) * (k+i)**n.
    """
    if j < 0 or n < 0 or j > n:
        raise ValueError(f"laguerre_ld_coefficient: need 0 <= j <= n, got ({j}, {n})")
    total = 0
    for i in range(j + 1):
        sign = -1 if (i + j) % 2 else 1
        total += sign * math.comb(j, i) * (k + i) ** n
    return Fraction(total, math.factorial(j))
