"""Independent verification path: exact symbolic calculus at the endpoints.

Everything here lives in the class of functions

    plain(x) + logpart(x) * L(x) + log2part(x) * L(x)**2,

with L(x) = (1/2) ln((1+x)/(1-x)) and each part a rational function whose
denominator is a power of (1-x) times a power of (1+x).  The class contains
every Q_k, is closed under d/dx (since L'(x) = 1/(1-x**2)), under application
of the operator f -> -((1-x**2) f')', and under the double-sum boundary form.
The L**2 slot exists because products of two log-bearing functions genuinely
occur inside the boundary form; its contribution must die at the endpoints,
and a surviving L**2 term is flagged as divergence rather than dropped.

Each part is an ``EndRat``, canonical by construction: its constructor
cancels the (1 +- x) factors its numerator shares with its denominator, so
structural equality is exact.  Endpoint limits are decided exactly: a part
either has a pole (divergent), a plain value, or - for the log-bearing parts -
vanishes to positive order, which kills the logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classical import ClassicalFunction, Poly, legendre_p, legendre_q
from .exactnum import legendre_stirling, rational_str

__all__ = [
    "EndRat",
    "LogRat",
    "DivergentLimit",
    "lagrangian_coefficients",
    "apply_ell",
    "apply_ell_n",
    "apply_ell_n_lagrangian",
    "sesquilinear_at",
    "endpoint_limit",
    "bracket_via_oracle",
    "fn_condition_check",
    "classical_to_lograt",
]

_ONE_MINUS_X = Poly([1, -1])
_ONE_PLUS_X = Poly([1, 1])


class DivergentLimit(ValueError):
    """An endpoint limit does not exist; carries the leading singular term."""

    def __init__(self, at: str, leading: str):
        self.at = at
        self.leading = leading
        super().__init__(f"divergent limit at {at}: leading term {leading}")


@dataclass(frozen=True)
class EndRat:
    """num(x) / ((1-x)**pow_one_minus * (1+x)**pow_one_plus), canonical by
    construction: num shares no (1 -+ x) factor with the denominator."""

    num: Poly
    pow_one_minus: int = 0
    pow_one_plus: int = 0

    def __post_init__(self):
        num, a, b = self.num, self.pow_one_minus, self.pow_one_plus
        if num.is_zero():
            a = b = 0
        # cancel (1-x) factors: num = (1-x) q  <=>  num = -(x-1) q
        while a > 0 and num(1) == 0:
            num = -num.deflate(1)
            a -= 1
        while b > 0 and num(-1) == 0:
            num = num.deflate(-1)
            b -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "pow_one_minus", a)
        object.__setattr__(self, "pow_one_plus", b)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "EndRat") -> "EndRat":
        a = max(self.pow_one_minus, other.pow_one_minus)
        b = max(self.pow_one_plus, other.pow_one_plus)
        n1 = self.num * _ONE_MINUS_X ** (a - self.pow_one_minus) * _ONE_PLUS_X ** (
            b - self.pow_one_plus
        )
        n2 = other.num * _ONE_MINUS_X ** (a - other.pow_one_minus) * _ONE_PLUS_X ** (
            b - other.pow_one_plus
        )
        return EndRat(n1 + n2, a, b)

    def __neg__(self) -> "EndRat":
        return EndRat(-self.num, self.pow_one_minus, self.pow_one_plus)

    def __sub__(self, other: "EndRat") -> "EndRat":
        return self + (-other)

    def __mul__(self, other) -> "EndRat":
        if isinstance(other, EndRat):
            return EndRat(
                self.num * other.num,
                self.pow_one_minus + other.pow_one_minus,
                self.pow_one_plus + other.pow_one_plus,
            )
        return EndRat(self.num * other, self.pow_one_minus, self.pow_one_plus)

    __rmul__ = __mul__

    def derivative(self) -> "EndRat":
        a, b = self.pow_one_minus, self.pow_one_plus
        num = (
            self.num.derivative() * _ONE_MINUS_X * _ONE_PLUS_X
            + a * (self.num * _ONE_PLUS_X)
            - b * (self.num * _ONE_MINUS_X)
        )
        return EndRat(num, a + 1, b + 1)

    def order_at(self, at: str) -> int:
        """Order of vanishing at the endpoint; negative means a pole.

        The zero function is reported with a large positive order.
        """
        if self.num.is_zero():
            return 1 << 30
        if at == "plus_one":
            return self.num.root_multiplicity(1) - self.pow_one_minus
        if at == "minus_one":
            return self.num.root_multiplicity(-1) - self.pow_one_plus
        raise ValueError(f"unknown endpoint {at!r}")

    def value_at(self, at: str) -> Fraction:
        """Exact finite value at the endpoint; a pole there raises ValueError."""
        if at == "plus_one":
            x, pole, other = 1, self.pow_one_minus, self.pow_one_plus
        else:
            x, pole, other = -1, self.pow_one_plus, self.pow_one_minus
        # canonical form: a denominator factor vanishing at x is a pole
        if pole:
            raise ValueError(f"value_at: pole of order {pole} at {at}")
        return self.num(x) / 2**other

    def __str__(self) -> str:
        s = str(self.num)
        if self.num.degree > 0 and (self.pow_one_minus or self.pow_one_plus):
            s = f"({s})"
        den = []
        if self.pow_one_minus:
            den.append("(1-x)" + (f"^{self.pow_one_minus}" if self.pow_one_minus > 1 else ""))
        if self.pow_one_plus:
            den.append("(1+x)" + (f"^{self.pow_one_plus}" if self.pow_one_plus > 1 else ""))
        if den:
            s += " / (" + "".join(den) + ")"
        return s


EndRat.ZERO = EndRat(Poly.ZERO, 0, 0)
EndRat.ONE = EndRat(Poly.ONE, 0, 0)
# L'(x) = 1/(1-x**2)
_LAMBDA_PRIME = EndRat(Poly.ONE, 1, 1)


@dataclass(frozen=True)
class LogRat:
    """plain + logpart * L(x) + log2part * L(x)**2."""

    plain: EndRat
    logpart: EndRat = EndRat.ZERO
    log2part: EndRat = EndRat.ZERO

    @staticmethod
    def from_poly(p: Poly) -> "LogRat":
        return LogRat(EndRat(p))

    @staticmethod
    def lam() -> "LogRat":
        return LogRat(EndRat.ZERO, EndRat.ONE)

    def is_zero(self) -> bool:
        return self.plain.is_zero() and self.logpart.is_zero() and self.log2part.is_zero()

    def __add__(self, other: "LogRat") -> "LogRat":
        return LogRat(
            self.plain + other.plain,
            self.logpart + other.logpart,
            self.log2part + other.log2part,
        )

    def __neg__(self) -> "LogRat":
        return LogRat(-self.plain, -self.logpart, -self.log2part)

    def __sub__(self, other: "LogRat") -> "LogRat":
        return self + (-other)

    def __mul__(self, other) -> "LogRat":
        if isinstance(other, LogRat):
            deg2 = (
                (self.log2part, other.log2part),
                (self.logpart, other.log2part),
                (self.log2part, other.logpart),
            )
            if any(not a.is_zero() and not b.is_zero() for a, b in deg2):
                raise ValueError("product would exceed degree 2 in L(x)")
            return LogRat(
                self.plain * other.plain,
                self.plain * other.logpart + self.logpart * other.plain,
                self.plain * other.log2part
                + self.logpart * other.logpart
                + self.log2part * other.plain,
            )
        return LogRat(self.plain * other, self.logpart * other, self.log2part * other)

    __rmul__ = __mul__

    def derivative(self) -> "LogRat":
        return LogRat(
            self.plain.derivative() + self.logpart * _LAMBDA_PRIME,
            self.logpart.derivative() + 2 * (self.log2part * _LAMBDA_PRIME),
            self.log2part.derivative(),
        )

    def __str__(self) -> str:
        parts = []
        if not self.plain.is_zero():
            parts.append(str(self.plain))
        if not self.logpart.is_zero():
            parts.append(f"[{self.logpart}] * ln((1+x)/(1-x))/2")
        if not self.log2part.is_zero():
            parts.append(f"[{self.log2part}] * (ln((1+x)/(1-x))/2)^2")
        return " + ".join(parts) if parts else "0"


def classical_to_lograt(f: ClassicalFunction) -> LogRat:
    """P_k as a polynomial; Q_k as P_k * L - poly_part."""
    if f.kind == "P":
        return LogRat.from_poly(legendre_p(f.index))
    q = legendre_q(f.index)
    return LogRat(EndRat(-q.poly_part), EndRat(q.log_coeff))


def _derivatives(f: LogRat, count: int) -> list[LogRat]:
    """[f, f', ..., f^(count)]: exactly ``count`` calls to ``derivative``."""
    chain = [f]
    for _ in range(count):
        chain.append(chain[-1].derivative())
    return chain


def apply_ell(f: LogRat) -> LogRat:
    """One application of f -> -((1-x**2) f')'."""
    w = LogRat.from_poly(_ONE_MINUS_X * _ONE_PLUS_X)
    return -((w * f.derivative()).derivative())


def apply_ell_n(f: LogRat, n: int) -> LogRat:
    """n-fold iteration of the operator."""
    if n < 1:
        raise ValueError("apply_ell_n: n must be >= 1")
    for _ in range(n):
        f = apply_ell(f)
    return f


def lagrangian_coefficients(n: int) -> list[tuple[int, LogRat]]:
    """Coefficients a_k = LS(n,k) * (1-x**2)**k, k = 1..n."""
    if n < 1:
        raise ValueError("lagrangian_coefficients: n must be >= 1")
    one_minus_x2 = _ONE_MINUS_X * _ONE_PLUS_X
    return [
        (k, LogRat.from_poly(legendre_stirling(n, k) * one_minus_x2**k))
        for k in range(1, n + 1)
    ]


def apply_ell_n_lagrangian(f: LogRat, n: int) -> LogRat:
    """The 2n-th order expansion sum_k (-1)**k (a_k f^(k))^(k)."""
    total = LogRat(EndRat.ZERO)
    derivs = _derivatives(f, n)
    for k, a_k in lagrangian_coefficients(n):
        term = _derivatives(a_k * derivs[k], k)[-1]
        total = total + (term if k % 2 == 0 else -term)
    return total


def sesquilinear_at(f: LogRat, g: LogRat, n: int) -> LogRat:
    """The boundary form [f,g]_n(x) as a symbolic function.

    Double sum over 1 <= j <= k <= n of
        (-1)**(k+j) * { (a_k g^(k))^(k-j) f^(j-1) - (a_k f^(k))^(k-j) g^(j-1) }
    with a_k the Lagrangian coefficients.  Coefficients are real, so
    conjugation is the identity.
    """
    if n < 1:
        raise ValueError("sesquilinear_at: n must be >= 1")
    fder = _derivatives(f, n)
    gder = _derivatives(g, n)
    total = LogRat(EndRat.ZERO)
    for k, a_k in lagrangian_coefficients(n):
        # chains (a_k g^(k))^(i) and (a_k f^(k))^(i) for i = 0..k-1
        gchain = _derivatives(a_k * gder[k], k - 1)
        fchain = _derivatives(a_k * fder[k], k - 1)
        for j in range(1, k + 1):
            term = gchain[k - j] * fder[j - 1] - fchain[k - j] * gder[j - 1]
            total = total + (term if (k + j) % 2 == 0 else -term)
    return total


def endpoint_limit(f: LogRat, at: str) -> Fraction:
    """Exact limit of f at +1 or -1; raises DivergentLimit otherwise.

    The limit exists iff the plain part has no pole and both log-bearing
    parts vanish to positive order at the endpoint (a surviving logarithm,
    squared or not, diverges).  The value is then the plain part's value.
    """
    if at not in ("plus_one", "minus_one"):
        raise ValueError("at must be 'plus_one' or 'minus_one'")
    for name, part, needed in (
        ("L^2", f.log2part, 1),
        ("L", f.logpart, 1),
        ("plain", f.plain, 0),
    ):
        ord_ = part.order_at(at)
        if ord_ < needed:
            factor = f" * {name}" if name != "plain" else ""
            raise DivergentLimit(at, f"order {ord_} term [{part}]{factor}")
    return f.plain.value_at(at)


def bracket_via_oracle(f: ClassicalFunction, g: ClassicalFunction, n: int) -> Fraction:
    """[f,g]_n from -1 to 1 by symbolic endpoint limits of the boundary form."""
    form = sesquilinear_at(classical_to_lograt(f), classical_to_lograt(g), n)
    return endpoint_limit(form, "plus_one") - endpoint_limit(form, "minus_one")


@dataclass(frozen=True)
class FnConditionReport:
    j: int
    left_limit_exists: bool
    right_limit_exists: bool
    difference_zero: bool
    left_limit: Fraction | None = None
    right_limit: Fraction | None = None

    def to_json(self) -> dict:
        fmt = lambda v: rational_str(v) if v is not None else None
        return {
            "j": self.j,
            "left_limit_exists": self.left_limit_exists,
            "right_limit_exists": self.right_limit_exists,
            "difference_zero": self.difference_zero,
            "left_limit": fmt(self.left_limit),
            "right_limit": fmt(self.right_limit),
        }


def fn_condition_check(f: LogRat, n: int) -> list[FnConditionReport]:
    """Evaluate the boundary-domain conditions (a_j f^(j))^(j-1) at both ends.

    One report per j = 1..n; divergence is reported, never raised.
    """
    reports = []
    derivs = _derivatives(f, n)
    for j, a_j in lagrangian_coefficients(n):
        expr = _derivatives(a_j * derivs[j], j - 1)[-1]
        left = right = None
        try:
            left = endpoint_limit(expr, "minus_one")
        except DivergentLimit:
            pass
        try:
            right = endpoint_limit(expr, "plus_one")
        except DivergentLimit:
            pass
        diff_zero = left is not None and right is not None and right - left == 0
        reports.append(
            FnConditionReport(j, left is not None, right is not None, diff_zero, left, right)
        )
    return reports
