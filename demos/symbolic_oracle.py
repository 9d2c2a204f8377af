"""The independent symbolic path: endpoint limits instead of closed forms.

Every boundary bracket in this package can be recomputed from scratch by
symbolic calculus: represent Q_k as polynomial + polynomial * log term,
differentiate exactly, assemble the Green's-formula boundary expression and
take exact one-sided limits at x = +1 and x = -1. Agreement with the
closed-form engine is the package's keystone check.

Run:  python3 demos/symbolic_oracle.py
"""

from gkn_legendre import ClassicalFunction, Poly, bracket
from gkn_legendre.oracle import (
    DivergentLimit,
    LogRat,
    apply_ell,
    apply_ell_n,
    apply_ell_n_lagrangian,
    bracket_via_oracle,
    classical_to_lograt,
    endpoint_limit,
    sesquilinear_at,
)


def main():
    q3 = classical_to_lograt(ClassicalFunction("Q", 3))
    print("Q_3 as an exact symbolic object")
    print("--------------------------------")
    print(f"  Q3(x) = {q3}")
    print(f"  Q3'(x) = {q3.derivative()}")

    print()
    print("Eigen equation, certified symbolically")
    print("---------------------------------------")
    lhs = apply_ell(q3)
    print(f"  -((1-x^2) Q3')' == 12 * Q3 : {lhs == 12 * q3}")
    print(f"  third operator power == 12^3 * Q3 : {apply_ell_n(q3, 3) == 12**3 * q3}")
    print(
        "  iterated application == Lagrangian expansion (n=4):",
        apply_ell_n(q3, 4) == apply_ell_n_lagrangian(q3, 4),
    )

    print()
    print("Endpoint limits decide everything")
    print("----------------------------------")
    lam = LogRat((Poly.ZERO, Poly.ONE))
    try:
        endpoint_limit(lam, "plus_one")
    except DivergentLimit as exc:
        print(f"  Q0 alone diverges: {exc}")
    form = sesquilinear_at(classical_to_lograt(ClassicalFunction("P", 0)), lam, 1)
    print(f"  but the boundary form [P0,Q0]_1(x) = {form}")
    print(
        f"  with limits {endpoint_limit(form, 'minus_one')} and"
        f" {endpoint_limit(form, 'plus_one')}, so [P0,Q0]_1 = 0"
    )

    print()
    print("Keystone agreement on a sample of pairs")
    print("----------------------------------------")
    funcs = [ClassicalFunction(kind, i) for kind in "PQ" for i in (0, 2, 3, 5)]
    checked = 0
    for n in (1, 2, 3):
        for f in funcs:
            for g in funcs:
                assert bracket_via_oracle(f, g, n) == bracket(f, g, n)
                checked += 1
    print(f"  {checked} pairs recomputed symbolically, all agree exactly")


if __name__ == "__main__":
    main()
