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

Where an operand is canonical, the pole of the result follows by rule, and
``_trusted`` builds it with only the content gcd and the zero form left to
do.  ``derivative`` raises each pole by one unless it is 0 and N1, N2 vanish
at that end; then exactly one factor cancels.  The a_k product lowers each
pole by up to k and multiplies by what is left of (1-x**2)**k.  An endpoint
limit with no pole and N1, N2 zero at that end is N0's value there.  Trial
division by (1 -+ x) is left to ``_sum``, where a sum's poles cancel by no
rule, and to ``order_at``, which counts the orders a divergence message
names.

The boundary form, the Lagrangian expansion of the operator power and the
endpoint conditions read the same chains, built by ``_lagrangian_chains``:
f, ..., f^(n) and, for each Lagrangian coefficient a_k = LS(n,k) (1-x**2)**k,
(a_k f^(k))^(i) for i < k.

A value is put into canonical form only where a caller reads it.  The
boundary form multiplies each chain pair straight into plain ``int``
coefficient lists (``_multiply_into``), grouped by the product's
denominator; each group is lifted to the common denominator by one
product with a cached (1 -+ x) factor (``_poles``), and the sum becomes
one ``LogRat`` (``_sum``, which ``+``, ``-`` and the Lagrangian expansion
use too).  Every product runs through ``classical.add_product``, the one
product loop, and ``derivative`` builds its numerators in one pass of
``int`` coefficients, by the formula stated at the method.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .classical import ClassicalFunction, Poly, add_product, legendre_p, legendre_q
from .exactnum import clear_denominators, legendre_stirling, require_int

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

# suffixes naming the powers L**0, L**1, L**2
_POWER_TEXT = ("", " * ln((1+x)/(1-x))/2", " * (ln((1+x)/(1-x))/2)^2")
_POWER_NAME = ("", " * L", " * L^2")


class DivergentLimit(ValueError):
    """An endpoint limit does not exist; its message names the leading term."""


def _divided(nums: tuple[Poly, ...], t: int) -> tuple[Poly, ...] | None:
    """Each numerator divided by (1 - t x), t = +-1, or None unless all vanish
    at x = t.  N = (1 - t x) Q gives Q_i = N_i + t Q_(i-1) in one pass; the
    last value of that recurrence is the remainder."""
    quotients = []
    for p in nums:
        q, acc = [], 0
        for c in p.coeffs:
            acc = c + t * acc
            q.append(acc)
        if acc:
            return None
        quotients.append(Poly(q))
    return tuple(quotients)


@dataclass(frozen=True)
class LogRat:
    """(N0 + N1 * L + N2 * L**2) / (den * (1-x)**pow_one_minus * (1+x)**pow_one_plus).

    ``nums`` is padded with zeros to (N0, N1, N2).  Canonical by
    construction: every numerator coefficient is an ``int`` (a ``Fraction``
    given to the constructor is cleared into ``den``), ``den`` shares no
    factor with all of them, the numerators share no (1 -+ x) factor with
    the denominator, and zero is stored as three zero numerators over 1.
    The pole exponents and ``den`` are ``int``s, the exponents >= 0 and
    ``den`` >= 1; any other coefficient than an ``int`` or a ``Fraction``
    is a ``TypeError``.
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
        if not (type(a) is type(b) is type(den) is int and a >= 0 and b >= 0 and den >= 1):
            for name, value, least in (("pow_one_minus", a, 0), ("pow_one_plus", b, 0), ("den", den, 1)):
                require_int("LogRat", name, value, least)
        # clear Fraction coefficients into den, with one scale for N0, N1 and N2
        n0, n1, n2 = (p.coeffs for p in nums)
        flat = [*n0, *n1, *n2]
        (coeffs,), scale = clear_denominators("LogRat", "coefficients", (flat,))
        if coeffs is not flat:
            i, j = len(n0), len(n0) + len(n1)
            nums, den = (Poly(coeffs[:i]), Poly(coeffs[i:j]), Poly(coeffs[j:])), den * scale
        # divide out the content shared with den; zero has none, so it ends over 1
        nums, den = _without_content(nums, den)
        if not any(nums):
            a = b = 0
        # cancel (1-x) and (1+x) factors while all three numerators vanish there
        while a > 0 and (quotients := _divided(nums, 1)):
            nums, a = quotients, a - 1
        while b > 0 and (quotients := _divided(nums, -1)):
            nums, b = quotients, b - 1
        vars(self).update(nums=nums, pow_one_minus=a, pow_one_plus=b, den=den)

    def term(self, m: int) -> "LogRat":
        """The coefficient of L**m, as a function of its own."""
        return LogRat((self.nums[m],), self.pow_one_minus, self.pow_one_plus, self.den)

    def _summand(self, sign: int) -> tuple:
        """sign * self as a term of ``_sum``."""
        nums = [[sign * c for c in p.coeffs] for p in self.nums]
        return nums, self.pow_one_minus, self.pow_one_plus, self.den

    def __add__(self, other: "LogRat") -> "LogRat":
        return _sum([self._summand(1), other._summand(1)])

    def __neg__(self) -> "LogRat":
        return _trusted(tuple(-p for p in self.nums), self.pow_one_minus, self.pow_one_plus, self.den)

    def __sub__(self, other: "LogRat") -> "LogRat":
        return _sum([self._summand(1), other._summand(-1)])

    def __mul__(self, other) -> "LogRat":
        a, b = self.pow_one_minus, self.pow_one_plus
        if not isinstance(other, LogRat):
            return LogRat(tuple(p * other if p else p for p in self.nums), a, b, self.den)
        nums = [[], [], []]
        _multiply_into(nums, self, other, 1)
        a, b = a + other.pow_one_minus, b + other.pow_one_plus
        return LogRat(tuple(map(Poly, nums)), a, b, self.den * other.den)

    __rmul__ = __mul__

    def derivative(self) -> "LogRat":
        # A polynomial's derivative is N0' over the same den.  Otherwise
        # (N/D)' = (N'(1-x**2) + N (a(1+x) - b(1-x))) / (D (1-x**2)), and
        # (N_{m+1} L**(m+1))' adds (m+1) N_{m+1} L**m / (1-x**2): coefficient i
        # of the new N_m is (i+1) c_{i+1} + (a-b) c_i + (a+b+1-i) c_{i-1} + (m+1) N_{m+1}[i].
        # At x = 1 the new N_m is 2a N_m(1) + (m+1) N_{m+1}(1); the input is
        # canonical, so all three vanish only if a = 0 and N1(1) = N2(1) = 0,
        # and then exactly one factor (1-x) cancels.  Likewise at -1 with b.
        a, b = self.pow_one_minus, self.pow_one_plus
        n0, n1, n2 = self.nums
        if not (a or b or n1 or n2):
            return _trusted((n0.derivative(), n1, n2), 0, 0, self.den)
        nums = []
        for m, p in enumerate(self.nums):
            c = [0, *p.coeffs, 0, 0]
            triples = enumerate(zip(c, c[1:], c[2:]))  # (c_{i-1}, c_i, c_{i+1})
            new = [(i + 1) * hi + (a - b) * mid + (a + b + 1 - i) * lo for i, (lo, mid, hi) in triples]
            if m < 2:
                add_product(new, self.nums[m + 1].coeffs, (1,), m + 1)
            nums.append(Poly(new))
        nums, a, b = tuple(nums), a + 1, b + 1
        if a == 1 and not n1(1) and not n2(1):
            nums, a = _divided(nums, 1), 0
        if b == 1 and not n1(-1) and not n2(-1):
            nums, b = _divided(nums, -1), 0
        return _trusted(nums, a, b, self.den)

    def order_at(self, at: str) -> tuple[int, ...]:
        """Order of vanishing at the endpoint of each power of L; negative
        means a pole.  A zero term is reported with a large positive order."""
        if at not in ("plus_one", "minus_one"):
            raise ValueError("at must be 'plus_one' or 'minus_one'")
        t, pole = (1, self.pow_one_minus) if at == "plus_one" else (-1, self.pow_one_plus)
        orders = []
        for p in self.nums:
            order, quotient = -pole, (p,)
            while p and (quotient := _divided(quotient, t)):  # one (1 - t x) factor each
                order += 1
            orders.append(order if p else 1 << 30)
        return tuple(orders)

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


def _without_content(nums: tuple[Poly, ...], den: int) -> tuple[tuple[Poly, ...], int]:
    """nums and den divided by the content den shares with all of nums."""
    g = den
    for p in nums:
        if g != 1:
            g = gcd(g, *p.coeffs)
    if g == 1:
        return nums, den
    return tuple(Poly([c // g for c in p.coeffs]) for p in nums), den // g


def _trusted(nums: tuple[Poly, Poly, Poly], a: int, b: int, den: int) -> LogRat:
    """``LogRat(nums, a, b, den)`` for three ``int`` numerators built from
    canonical operands, which share no (1 -+ x) factor with the poles: only
    the content and the zero form are left.  ``LogRat(...)`` checks all."""
    if not any(nums):
        return _ZERO
    nums, den = _without_content(nums, den)
    value = object.__new__(LogRat)
    vars(value).update(nums=nums, pow_one_minus=a, pow_one_plus=b, den=den)
    return value


_ZERO = LogRat()


def _multiply_into(acc: list[list[int]], x: LogRat, y: LogRat, sign: int) -> None:
    """Add sign * (the numerators of x times those of y) into ``acc``, the
    coefficient lists of L**0, L**1 and L**2."""
    for i, p in enumerate(x.nums):
        for j, q in enumerate(y.nums):
            if p and q:
                if i + j > 2:
                    raise ValueError("product would exceed degree 2 in L(x)")
                add_product(acc[i + j], p.coeffs, q.coeffs, sign)


def _sum(terms: list[tuple]) -> LogRat:
    """The sum of terms (nums, a, b, den), with nums the coefficient lists of
    L**0, L**1 and L**2 over den (1-x)**a (1+x)**b: each term lifted to the
    common denominator by one product.  A sum's poles can cancel, by no rule,
    so ``LogRat`` puts the sum into canonical form, once."""
    a = max(term[1] for term in terms)
    b = max(term[2] for term in terms)
    den = lcm(*(term[3] for term in terms))
    total = [[], [], []]
    for nums, ta, tb, tden in terms:
        lift = _poles(a - ta, b - tb).coeffs
        for out, cs in zip(total, nums):
            if cs:
                add_product(out, cs, lift, den // tden)
    return LogRat(tuple(map(Poly, total)), a, b, den)


@cache
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
    return -((f.derivative() * _poles(1, 1)).derivative())


def apply_ell_n(f: LogRat, n: int) -> LogRat:
    """n-fold iteration of the operator."""
    require_int("apply_ell_n", "n", n, 1)
    for _ in range(n):
        f = apply_ell(f)
    return f


@cache
def lagrangian_coefficients(n: int) -> tuple[tuple[int, Poly], ...]:
    """Coefficients a_k = LS(n,k) * (1-x**2)**k, k = 1..n, built once per n."""
    require_int("lagrangian_coefficients", "n", n, 1)
    return tuple((k, _lift(n, k, k, k)) for k in range(1, n + 1))


@cache
def _poles(i: int, j: int) -> Poly:
    """(1-x)**i (1+x)**j: the one table of (1 -+ x) factors."""
    return Poly([1, -1]) ** i * Poly([1, 1]) ** j


@cache
def _lift(n: int, k: int, i: int, j: int) -> Poly:
    """LS(n,k) (1-x)**i (1+x)**j: what is left of a_k once it has cancelled
    k - i and k - j poles."""
    return legendre_stirling(n, k) * _poles(i, j)


def _times_coefficient(f: LogRat, n: int, k: int) -> LogRat:
    """f * a_k: each pole of f lowered by up to k, the numerators times what
    is left of (1-x**2)**k.  A pole that survives had a numerator nonzero at
    its end, which a_k leaves alone, so the result is canonical as it stands."""
    a, b = f.pow_one_minus, f.pow_one_plus
    i, j = min(a, k), min(b, k)
    lift = _lift(n, k, k - i, k - j)
    return _trusted(tuple(p * lift if p else p for p in f.nums), a - i, b - j, f.den)


def _lagrangian_chains(f: LogRat, n: int) -> tuple[list[LogRat], list[list[LogRat]]]:
    """[f, ..., f^(n)] and, for k = 1..n, the chain [(a_k f^(k))^(i) for i < k];
    exactly n(n+1)/2 calls to ``derivative``.  The caller checks ``n``."""
    derivs = _derivatives(f, n)
    chains = [_derivatives(_times_coefficient(derivs[k], n, k), k - 1) for k in range(1, n + 1)]
    return derivs, chains


def apply_ell_n_lagrangian(f: LogRat, n: int) -> LogRat:
    """The 2n-th order expansion sum_k (-1)**k (a_k f^(k))^(k)."""
    require_int("apply_ell_n_lagrangian", "n", n, 1)
    chains = _lagrangian_chains(f, n)[1]
    return _sum([chain[-1].derivative()._summand((-1) ** k) for k, chain in enumerate(chains, 1)])


def sesquilinear_at(f: LogRat, g: LogRat, n: int) -> LogRat:
    """The boundary form [f,g]_n(x) as a symbolic function.

    Double sum over 1 <= j <= k <= n of
        (-1)**(k+j) * { (a_k g^(k))^(k-j) f^(j-1) - (a_k f^(k))^(k-j) g^(j-1) }
    with a_k the Lagrangian coefficients.  Coefficients are real, so
    conjugation is the identity.
    """
    require_int("sesquilinear_at", "n", n, 1)
    fder, fchains = _lagrangian_chains(f, n)
    gder, gchains = _lagrangian_chains(g, n)
    # the products' numerators, summed per product denominator (a, b, den)
    groups: dict[tuple[int, int, int], list[list[int]]] = {}
    for k, (fchain, gchain) in enumerate(zip(fchains, gchains), 1):
        for j in range(1, k + 1):
            sign = 1 if (k + j) % 2 == 0 else -1
            for x, y, s in ((gchain[k - j], fder[j - 1], sign), (fchain[k - j], gder[j - 1], -sign)):
                key = (x.pow_one_minus + y.pow_one_minus, x.pow_one_plus + y.pow_one_plus, x.den * y.den)
                _multiply_into(groups.setdefault(key, [[], [], []]), x, y, s)
    return _sum([(acc, *key) for key, acc in groups.items()])


def endpoint_limit(f: LogRat, at: str) -> Fraction:
    """Exact limit of f at +1 or -1; raises DivergentLimit otherwise.

    The limit exists iff the L**0 term has no pole and both log-bearing
    terms vanish to positive order at the endpoint (a surviving logarithm,
    squared or not, diverges).  The value is then the L**0 term's value.
    In canonical form that is: no pole at the end, and N1, N2 zero there.
    """
    t, pole = (1, f.pow_one_minus) if at == "plus_one" else (-1, f.pow_one_plus)
    if at in ("plus_one", "minus_one") and pole == 0 and f.nums[1](t) == f.nums[2](t) == 0:
        # the denominator is den * 2**(a+b) at an end without a pole
        return Fraction(f.nums[0](t), f.den * 2 ** (f.pow_one_minus + f.pow_one_plus))
    # otherwise some term diverges; in canonical form a pole here leaves a numerator nonzero here
    orders = f.order_at(at)
    m = next(m for m in (2, 1, 0) if orders[m] < (1 if m else 0))
    leading = f"order {orders[m]} term [{f.term(m)}]{_POWER_NAME[m]}"
    raise DivergentLimit(f"divergent limit at {at}: leading term {leading}")


def bracket_via_oracle(f: ClassicalFunction, g: ClassicalFunction, n: int) -> Fraction:
    """[f,g]_n from -1 to 1 by symbolic endpoint limits of the boundary form."""
    require_int("bracket_via_oracle", "n", n, 1)
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
    require_int("fn_condition_check", "n", n, 1)
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
