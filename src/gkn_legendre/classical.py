"""Exact Legendre polynomials P_k and functions of the second kind Q_k.

Q_k is stored as the pair (P_k, V_k) with Q_k(x) = P_k(x)*L(x) - V_k(x),
where L(x) = (1/2) ln((1+x)/(1-x)).  Both families obey the same three-term
recurrence, so the pair is closed under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import PiPair, harmonic, harmonic2, rational_str, require_int

__all__ = [
    "Poly",
    "ClassicalFunction",
    "QRepresentation",
    "legendre_p",
    "legendre_q",
    "inner_pq",
    "inner_qq",
    "q_norm_squared",
]


def add_product(out: list, p, q, scale=1) -> None:
    """Add scale * (p times q), two coefficient sequences in ascending degree,
    into the list ``out``: the package's one polynomial product loop."""
    if len(p) > len(q):
        p, q = q, p
    n = len(q)
    out.extend([0] * (len(p) + n - 1 - len(out)))
    for s, c in enumerate(p):
        if c:
            c *= scale
            out[s : s + n] = [o + c * d for o, d in zip(out[s : s + n], q)]


class Poly:
    """Univariate polynomial with exact rational coefficients, ascending degree.

    Coefficients follow the package's number rule: each is an ``int`` until a
    division makes it a ``Fraction``, and none is ever coerced.  The zero
    polynomial has an empty coefficient tuple; otherwise the trailing
    coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        out = list(self.coeffs)
        add_product(out, other.coeffs, (1,))
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = []
            add_product(out, self.coeffs, other.coeffs)
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        require_int("Poly.__pow__", "n", n, 0)
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> list[str]:
        return [rational_str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = rational_str(c)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = xpow
                elif c == -1:
                    term = f"-{xpow}"
                else:
                    term = f"{rational_str(c)}*{xpow}"
            parts.append(term)
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


Poly.ZERO = Poly()
Poly.ONE = Poly([1])
Poly.X = Poly([0, 1])


@dataclass(frozen=True)
class ClassicalFunction:
    """A basis candidate: Legendre P_k or second-kind Q_k."""

    kind: str  # "P" or "Q"
    index: int

    def __post_init__(self):
        if self.kind not in ("P", "Q"):
            raise ValueError(f"kind must be 'P' or 'Q', got {self.kind!r}")
        require_int("ClassicalFunction", "index", self.index, 0)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class QRepresentation:
    """Q_k(x) = log_coeff(x) * L(x) - poly_part(x)."""

    log_coeff: Poly
    poly_part: Poly

    def to_json(self) -> dict:
        return {"log": self.log_coeff.to_json(), "poly": self.poly_part.to_json()}

    def __str__(self) -> str:
        log = str(self.log_coeff)
        if self.log_coeff.degree > 0:
            log = f"({log})"
        s = f"{log} * ln((1+x)/(1-x))/2"
        if self.poly_part:
            s += f" - ({self.poly_part})"
        return s


_p_table: list[Poly] = [Poly.ONE, Poly.X]
# poly parts V_k of Q_k; V_0 = 0, V_1 = 1 seed Q_1 = x*L - 1
_v_table: list[Poly] = [Poly.ZERO, Poly.ONE]


def _extend(table: list[Poly], k: int) -> None:
    while len(table) <= k:
        m = len(table) - 1  # (m+1) f_{m+1} = (2m+1) x f_m - m f_{m-1}
        nxt = Fraction(1, m + 1) * ((2 * m + 1) * (Poly.X * table[m]) - m * table[m - 1])
        table.append(nxt)


def legendre_p(k: int) -> Poly:
    """Exact coefficients of the Legendre polynomial P_k (P_k(1) = 1)."""
    require_int("legendre_p", "k", k, 0)
    _extend(_p_table, k)
    return _p_table[k]


def legendre_q(k: int) -> QRepresentation:
    """Exact representation of the Legendre function of the second kind Q_k."""
    require_int("legendre_q", "k", k, 0)
    _extend(_p_table, k)
    _extend(_v_table, k)
    return QRepresentation(_p_table[k], _v_table[k])


def inner_pq(j: int, k: int) -> int | Fraction:
    """Integral of P_j * Q_k over (-1, 1), integer indices.

    P_j * Q_k is odd when j + k is even (j == k included), so that integral is 0.
    """
    require_int("inner_pq", "j", j, 0)
    require_int("inner_pq", "k", k, 0)
    if (j + k) % 2 == 0:
        return 0
    return Fraction(-2, (k - j) * (j + k + 1))


def inner_qq(j: int, k: int) -> int | Fraction:
    """Integral of Q_j * Q_k over (-1, 1), integer indices, j != k."""
    require_int("inner_qq", "j", j, 0)
    require_int("inner_qq", "k", k, 0)
    if j == k:
        raise ValueError("inner_qq: undefined for j == k; use q_norm_squared")
    if (j + k) % 2 == 1:
        return 0
    return 2 * (harmonic(j) - harmonic(k)) / ((k - j) * (j + k + 1))


def q_norm_squared(k: int) -> PiPair:
    """Integral of Q_k**2 over (-1, 1): (pi**2/3 + 4*H_k^(2)) / (2(2k+1))."""
    require_int("q_norm_squared", "k", k, 0)
    d = 2 * (2 * k + 1)
    return PiPair(4 * harmonic2(k) / d, Fraction(1, 3 * d))
