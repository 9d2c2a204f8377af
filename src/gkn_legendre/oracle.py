"""Independent verification path: exact symbolic calculus at the endpoints.

Everything here lives in the class of functions

    (N0(x) + N1(x) * L(x) + N2(x) * L(x)**2) / (den * (1-x)**a * (1+x)**b),

with L(x) = (1/2) ln((1+x)/(1-x)), integer numerators N0, N1, N2 over one
denominator shared by all three: a positive integer den and the (1 -+ x)
powers.  The class contains every Q_k, is closed under d/dx (since
L'(x) = 1/(1-x**2)), under application of the operator f -> -((1-x**2) f')',
and under the double-sum boundary form.  The L**2 power exists because
products of two log-bearing functions genuinely occur inside the boundary
form; its contribution must die at the endpoints, and a surviving L**2 term
is flagged as divergence rather than dropped.

``LogRat`` is the one function type, canonical by construction: its
constructor clears the denominators of ``Fraction`` coefficients into den,
divides out the content den shares with the numerators, and cancels a
(1 +- x) factor while all three numerators vanish at that endpoint, so
structural equality is exact.  Under the package's number rule - a value
is an ``int`` until a division makes it a ``Fraction`` - the arithmetic then
never divides: every numerator coefficient is an ``int``.  The one division
is an endpoint limit's value, N0(+-1) / (den * 2**(a+b)); ``str`` prints
each N / den with the rational coefficients it stands for.  Endpoint limits
are decided exactly: each power of L either has a pole (divergent), a plain
value, or - for the log-bearing powers - vanishes to positive order, which
kills the logarithm.

The boundary form, the Lagrangian expansion of the operator power and the
endpoint conditions read the same chains, built by ``_lagrangian_chains``:
f, ..., f^(n) and, for each Lagrangian coefficient a_k = LS(n,k) (1-x**2)**k,
(a_k f^(k))^(i) for i < k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, sub

from .classical import ClassicalFunction, Poly, legendre_p, legendre_q
from .exactnum import legendre_stirling

__all__ = [
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
_ONE_MINUS_X2 = _ONE_MINUS_X * _ONE_PLUS_X
# suffixes naming the powers L**0, L**1, L**2
_POWER_TEXT = ("", " * ln((1+x)/(1-x))/2", " * (ln((1+x)/(1-x))/2)^2")
_POWER_NAME = ("", " * L", " * L^2")


class DivergentLimit(ValueError):
    """An endpoint limit does not exist; its message names the leading term."""


@dataclass(frozen=True)
class LogRat:
    """(N0 + N1 * L + N2 * L**2) / (den * (1-x)**pow_one_minus * (1+x)**pow_one_plus).

    ``nums`` is padded with zeros to (N0, N1, N2).  Canonical by
    construction: every numerator coefficient is an ``int`` (a ``Fraction``
    given to the constructor is cleared into ``den``), ``den`` shares no
    factor with all of them, the numerators share no (1 -+ x) factor with
    the denominator, and zero is stored as three zero numerators over 1.
    """

    nums: tuple[Poly, ...] = ()
    pow_one_minus: int = 0
    pow_one_plus: int = 0
    den: int = 1

    def __post_init__(self):
        nums = tuple(self.nums) + (Poly.ZERO,) * (3 - len(self.nums))
        if len(nums) > 3:
            raise ValueError("LogRat: degree in L(x) exceeds 2")
        a, b, den = self.pow_one_minus, self.pow_one_plus, self.den
        if den < 1:
            raise ValueError("LogRat: den must be >= 1")
        # clear Fraction coefficients into den, once
        fractional, scale = False, 1
        for p in nums:
            for c in p.coeffs:
                if type(c) is not int:
                    fractional, scale = True, lcm(scale, c.denominator)
        if fractional:
            nums = tuple(Poly([c.numerator * (scale // c.denominator) for c in p.coeffs]) for p in nums)
            den *= scale
        # divide out the content shared with den; zero has none, so it ends over 1
        if den != 1:
            g = den
            for p in nums:
                if g != 1:
                    g = gcd(g, *p.coeffs)
            if g != 1:
                nums = tuple(Poly([c // g for c in p.coeffs]) for p in nums)
                den //= g
        if not any(nums):
            a = b = 0
        # cancel (1-x) factors: num = (1-x) q  <=>  num = -(x-1) q
        while a > 0 and all(p(1) == 0 for p in nums):
            nums = tuple(-p.deflate(1) for p in nums)
            a -= 1
        while b > 0 and all(p(-1) == 0 for p in nums):
            nums = tuple(p.deflate(-1) for p in nums)
            b -= 1
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "pow_one_minus", a)
        object.__setattr__(self, "pow_one_plus", b)
        object.__setattr__(self, "den", den)

    def term(self, m: int) -> "LogRat":
        """The coefficient of L**m, as a function of its own."""
        return LogRat((self.nums[m],), self.pow_one_minus, self.pow_one_plus, self.den)

    def _lifted(self, a: int, b: int, den: int) -> tuple[Poly, ...]:
        """The numerators over the denominator den (1-x)**a (1+x)**b."""
        scale = den // self.den
        if (a, b) == (self.pow_one_minus, self.pow_one_plus):
            if scale == 1:
                return self.nums
            factor = scale
        else:
            factor = _ONE_MINUS_X ** (a - self.pow_one_minus) * _ONE_PLUS_X ** (b - self.pow_one_plus)
            if scale != 1:
                factor = factor * scale
        return tuple(p * factor if p else p for p in self.nums)

    def _combine(self, other: "LogRat", op) -> "LogRat":
        """``op`` (add or sub) of the numerators lifted to the least common denominator."""
        a = max(self.pow_one_minus, other.pow_one_minus)
        b = max(self.pow_one_plus, other.pow_one_plus)
        den = lcm(self.den, other.den)
        nums = zip(self._lifted(a, b, den), other._lifted(a, b, den))
        return LogRat(tuple(op(p, q) for p, q in nums), a, b, den)

    def __add__(self, other: "LogRat") -> "LogRat":
        return self._combine(other, add)

    def __neg__(self) -> "LogRat":
        return LogRat(tuple(-p for p in self.nums), self.pow_one_minus, self.pow_one_plus, self.den)

    def __sub__(self, other: "LogRat") -> "LogRat":
        return self._combine(other, sub)

    def __mul__(self, other) -> "LogRat":
        a, b = self.pow_one_minus, self.pow_one_plus
        if not isinstance(other, LogRat):
            return LogRat(tuple(p * other if p else p for p in self.nums), a, b, self.den)
        nums = [Poly.ZERO] * 3
        for i, p in enumerate(self.nums):
            for j, q in enumerate(other.nums):
                if p and q:
                    if i + j > 2:
                        raise ValueError("product would exceed degree 2 in L(x)")
                    nums[i + j] = nums[i + j] + p * q
        return LogRat(tuple(nums), a + other.pow_one_minus, b + other.pow_one_plus, self.den * other.den)

    __rmul__ = __mul__

    def derivative(self) -> "LogRat":
        # (N/D)' = (N'(1-x**2) + N (a(1+x) - b(1-x))) / (D (1-x**2)), and
        # (N_{m+1} L**(m+1))' adds (m+1) N_{m+1} L**m / (1-x**2)
        a, b = self.pow_one_minus, self.pow_one_plus
        slope = Poly([a - b, a + b])
        carry = [(m + 1) * p if p else p for m, p in enumerate(self.nums[1:])] + [Poly.ZERO]
        nums = []
        for p, c in zip(self.nums, carry):
            # a zero factor adds nothing: a constant's N', or the slope at a = b = 0
            if p:
                dp = p.derivative()
                if dp:
                    c = c + dp * _ONE_MINUS_X2
                if slope:
                    c = c + p * slope
            nums.append(c)
        return LogRat(tuple(nums), a + 1, b + 1, self.den)

    def order_at(self, at: str) -> tuple[int, ...]:
        """Order of vanishing at the endpoint of each power of L; negative
        means a pole.  A zero term is reported with a large positive order."""
        if at == "plus_one":
            x, pole = 1, self.pow_one_minus
        elif at == "minus_one":
            x, pole = -1, self.pow_one_plus
        else:
            raise ValueError("at must be 'plus_one' or 'minus_one'")
        return tuple(p.root_multiplicity(x) - pole if p else 1 << 30 for p in self.nums)

    def __str__(self) -> str:
        parts = []
        for m, p in enumerate(self.nums):
            if p:
                # each power of L over its own reduced denominator
                t = self.term(m)
                r, a, b = t.nums[0], t.pow_one_minus, t.pow_one_plus
                if t.den != 1:
                    r = Poly([Fraction(c, t.den) for c in r.coeffs])
                den = "".join(
                    f"({f})" + (f"^{e}" if e > 1 else "") for f, e in (("1-x", a), ("1+x", b)) if e
                )
                num = f"({r})" if den and r.degree > 0 else str(r)
                s = f"{num} / ({den})" if den else num
                parts.append(f"[{s}]{_POWER_TEXT[m]}" if m else s)
        return " + ".join(parts) if parts else "0"


def classical_to_lograt(f: ClassicalFunction) -> LogRat:
    """P_k as a polynomial; Q_k as P_k * L - poly_part."""
    if f.kind == "P":
        return LogRat((legendre_p(f.index),))
    q = legendre_q(f.index)
    return LogRat((-q.poly_part, q.log_coeff))


def _derivatives(f: LogRat, count: int) -> list[LogRat]:
    """[f, f', ..., f^(count)]: exactly ``count`` calls to ``derivative``."""
    chain = [f]
    for _ in range(count):
        chain.append(chain[-1].derivative())
    return chain


def apply_ell(f: LogRat) -> LogRat:
    """One application of f -> -((1-x**2) f')'."""
    return -((f.derivative() * _ONE_MINUS_X2).derivative())


def apply_ell_n(f: LogRat, n: int) -> LogRat:
    """n-fold iteration of the operator."""
    if n < 1:
        raise ValueError("apply_ell_n: n must be >= 1")
    for _ in range(n):
        f = apply_ell(f)
    return f


@cache
def lagrangian_coefficients(n: int) -> tuple[tuple[int, Poly], ...]:
    """Coefficients a_k = LS(n,k) * (1-x**2)**k, k = 1..n, built once per n."""
    if n < 1:
        raise ValueError("lagrangian_coefficients: n must be >= 1")
    return tuple((k, legendre_stirling(n, k) * _ONE_MINUS_X2**k) for k in range(1, n + 1))


def _lagrangian_chains(f: LogRat, n: int) -> tuple[list[LogRat], list[list[LogRat]]]:
    """[f, ..., f^(n)] and, for k = 1..n, the chain [(a_k f^(k))^(i) for i < k];
    exactly n(n+1)/2 calls to ``derivative``."""
    derivs = _derivatives(f, n)
    chains = [_derivatives(derivs[k] * a_k, k - 1) for k, a_k in lagrangian_coefficients(n)]
    return derivs, chains


def apply_ell_n_lagrangian(f: LogRat, n: int) -> LogRat:
    """The 2n-th order expansion sum_k (-1)**k (a_k f^(k))^(k)."""
    total = LogRat()
    for k, chain in enumerate(_lagrangian_chains(f, n)[1], 1):
        term = chain[-1].derivative()
        total = total + term if k % 2 == 0 else total - term
    return total


def sesquilinear_at(f: LogRat, g: LogRat, n: int) -> LogRat:
    """The boundary form [f,g]_n(x) as a symbolic function.

    Double sum over 1 <= j <= k <= n of
        (-1)**(k+j) * { (a_k g^(k))^(k-j) f^(j-1) - (a_k f^(k))^(k-j) g^(j-1) }
    with a_k the Lagrangian coefficients.  Coefficients are real, so
    conjugation is the identity.
    """
    fder, fchains = _lagrangian_chains(f, n)
    gder, gchains = _lagrangian_chains(g, n)
    total = LogRat()
    for k, (fchain, gchain) in enumerate(zip(fchains, gchains), 1):
        for j in range(1, k + 1):
            term = gchain[k - j] * fder[j - 1] - fchain[k - j] * gder[j - 1]
            total = total + term if (k + j) % 2 == 0 else total - term
    return total


def endpoint_limit(f: LogRat, at: str) -> Fraction:
    """Exact limit of f at +1 or -1; raises DivergentLimit otherwise.

    The limit exists iff the L**0 term has no pole and both log-bearing
    terms vanish to positive order at the endpoint (a surviving logarithm,
    squared or not, diverges).  The value is then the L**0 term's value.
    """
    orders = f.order_at(at)
    for m in (2, 1, 0):
        if orders[m] < (1 if m else 0):
            leading = f"order {orders[m]} term [{f.term(m)}]{_POWER_NAME[m]}"
            raise DivergentLimit(f"divergent limit at {at}: leading term {leading}")
    # canonical form: a denominator factor vanishing at the endpoint would now
    # divide all three numerators, so it is gone and the rest is 2**(a+b) there
    value = f.nums[0](1 if at == "plus_one" else -1)
    return Fraction(value, f.den * 2 ** (f.pow_one_minus + f.pow_one_plus))


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


def fn_condition_check(f: LogRat, n: int) -> list[FnConditionReport]:
    """Evaluate the boundary-domain conditions (a_j f^(j))^(j-1) at both ends.

    One report per j = 1..n; divergence is reported, never raised.
    """
    reports = []
    for j, chain in enumerate(_lagrangian_chains(f, n)[1], 1):
        limits = []
        for at in ("minus_one", "plus_one"):
            try:
                limits.append(endpoint_limit(chain[-1], at))
            except DivergentLimit:
                limits.append(None)
        left, right = limits
        exist = left is not None, right is not None
        reports.append(FnConditionReport(j, *exist, all(exist) and right - left == 0, left, right))
    return reports
