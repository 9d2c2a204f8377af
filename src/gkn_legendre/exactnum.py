"""Exact scalars and the combinatorial number sequences everything else consumes.

The number rule: a value is an ``int`` until a division makes it a
``fractions.Fraction``.  Python's ``int``/``Fraction`` tower is exact (a
``Fraction`` is always reduced, with a positive denominator, and an ``int``
has ``.numerator`` and ``.denominator`` too), so nothing coerces a value that
is already exact, and nothing in this package ever rounds.  A division of two
``int``s is written ``Fraction(a, b)``, never ``a / b``, which would give a
``float``.  ``require_exact`` states the rule for every module, with a
``TypeError`` that names the function and the value, and
``clear_denominators`` turns the rows of a piece into ``int``s, in one call,
each row by the lcm of its denominators; no other module reads a
``.denominator``.

The argument rule: an index, a power or a count is an ``int``, not a ``bool``,
and at least its bound.  ``require_int`` states it for every module, with a
``TypeError`` or a ``ValueError`` that names the function and the argument.

The memo rule has four forms: a direct formula is cached per key, a
recurrence is a table, the brackets are those of the last power, filled
skew, and an immutable oracle value keeps what is derived from it.
lam_k**n, H_k and H_k^(2) are ``functools.cache``s read only after the
argument check (a key takes ``True`` for ``1``), so a far index stores one
entry.  A recurrence, each entry of which needs the one before, is a list
grown to the index asked for: ``_ls_rows`` here, P_k and V_k in
``classical``.  A matrix reads each nonzero bracket [f, g]_n many times at
one power, so ``brackets`` keeps one table, of the last power it served, and
stores each value with its mirror [g, f]_n = -[f, g]_n.  An ``oracle.LogRat``
never changes, so it keeps its derivative and its a_k products in its own
instance dict, with no module table; the cached P_k and Q_k then carry
their chains from pair to pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain

__all__ = [
    "PiPair",
    "rational_str",
    "harmonic",
    "harmonic2",
    "eigenvalue",
    "legendre_stirling",
    "laguerre_ld_coefficient",
]


def require_int(owner: str, name: str, value, least: int | None = None) -> None:
    """The argument rule, for argument ``name`` of ``owner``, with no lower
    bound if ``least`` is None; a hot path tests inline first."""
    if type(value) is not int:
        raise TypeError(f"{owner}: {name} must be an int, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{owner}: {name} must be >= {least}")


_EXACT, _INT = frozenset((int, Fraction)), frozenset((int,))


def require_exact(owner: str, name: str, *rows) -> None:
    """The number rule, for ``name`` of ``owner``: each value of each row is
    an ``int`` or a ``Fraction`` (not a ``bool``, not a ``float``), in one
    type scan.  A single value is checked as a row of one."""
    if not _EXACT.issuperset(map(type, chain(*rows))):
        bad = next(type(v) for v in chain(*rows) if type(v) not in _EXACT)
        raise TypeError(f"{owner}: {name} must be int or Fraction, got {bad.__name__}")


def clear_denominators(owner: str, name: str, rows):
    """The rows of a piece, each times the lcm of its denominators, as lists
    of ``int``s, and the product of those lcms.  All-``int`` rows are
    returned as they are, with 1, after one type scan of the whole piece;
    any other piece is checked by ``require_exact`` first."""
    if _INT.issuperset(map(type, chain.from_iterable(rows))):
        return rows, 1
    require_exact(owner, name, *rows)
    cleared, scale = [], 1
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        cleared.append([x.numerator * (lcm // x.denominator) for x in row])
        scale *= lcm
    return cleared, scale


def rational_str(q: int | Fraction) -> str:
    """Serialize a rational as "p/q", or just "p" when the denominator is 1.

    Every output goes through here, so anything inexact is a ``TypeError``."""
    require_exact("rational_str", "q", (q,))
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


# Legendre-Stirling rows; entries are immutable once written.
_ls_rows: list[list[int]] = [[1]]


def _inverse_sum(lo: int, hi: int, power: int) -> tuple[int, int]:
    """sum 1/i**power over lo <= i < hi as (numerator, lcm of the i**power), by halves."""
    if hi - lo == 1:
        return 1, lo**power
    mid = (lo + hi) // 2
    (a, b), (c, d) = _inverse_sum(lo, mid, power), _inverse_sum(mid, hi, power)
    m = math.lcm(b, d)
    return a * (m // b) + c * (m // d), m


@cache
def _harmonic(k: int, power: int) -> Fraction:
    """sum 1/i**power over 1 <= i <= k, for a checked k."""
    return Fraction(*_inverse_sum(1, k + 1, power)) if k else Fraction(0)


@cache
def _lam_power(k: int, n: int) -> int:
    """(k(k+1))**n, for a checked k and n."""
    return (k * (k + 1)) ** n


def harmonic(k: int) -> Fraction:
    """H_k = sum_{i=1..k} 1/i, with H_0 = 0."""
    require_int("harmonic", "k", k, 0)
    return _harmonic(k, 1)


def harmonic2(k: int) -> Fraction:
    """H_k^(2) = sum_{i=1..k} 1/i**2, with H_0^(2) = 0."""
    require_int("harmonic2", "k", k, 0)
    return _harmonic(k, 2)


def eigenvalue(k: int, n: int) -> int:
    """(k(k+1))**n, the eigenvalue of the n-th operator power at index k."""
    require_int("eigenvalue", "k", k, 0)
    require_int("eigenvalue", "n", n, 1)
    return _lam_power(k, n)


def legendre_stirling(n: int, k: int) -> int:
    """Legendre-Stirling number of the second kind.

    Triangular recurrence LS(n,k) = LS(n-1,k-1) + k(k+1)*LS(n-1,k) with
    LS(0,0) = 1 and LS(n,0) = 0 for n >= 1.
    """
    require_int("legendre_stirling", "n", n, 0)
    require_int("legendre_stirling", "k", k, 0)
    if k > n:
        raise ValueError(f"legendre_stirling: need k <= n, got n = {n}, k = {k}")
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
    require_int("laguerre_ld_coefficient", "j", j, 0)
    require_int("laguerre_ld_coefficient", "n", n, 0)
    if j > n:
        raise ValueError(f"laguerre_ld_coefficient: need j <= n, got j = {j}, n = {n}")
    require_exact("laguerre_ld_coefficient", "k", (k,))
    total = 0
    for i in range(j + 1):
        sign = -1 if (i + j) % 2 else 1
        total += sign * math.comb(j, i) * (k + i) ** n
    return Fraction(total, math.factorial(j))
