"""Boundary brackets of Legendre functions, evaluated exactly.

The bracket [f,g]_n is the boundary term produced by n-fold integration by
parts of the Legendre operator. For eigenfunctions it factors into an
eigenvalue gap times an n-independent inner product, which is what makes
exact evaluation at large indices cheap.

Run:  python3 demos/boundary_brackets.py
"""

from fractions import Fraction

from gkn_legendre import ClassicalFunction, bracket, bracket_decomposed


def P(i):
    return ClassicalFunction("P", i)


def Q(i):
    return ClassicalFunction("Q", i)


def main():
    print("Single bracket values")
    print("---------------------")
    for f, g, n in [(P(0), Q(1), 1), (P(0), Q(1), 3), (Q(1), Q(3), 3), (P(17), Q(24), 4)]:
        print(f"  [{f},{g}]_{n} = {bracket(f, g, n)}")

    print()
    print("Factorization: bracket = eigenvalue gap * inner product")
    print("--------------------------------------------------------")
    for n in (1, 2, 3, 4):
        gap, inner = bracket_decomposed(P(2), Q(3), n)
        print(f"  n={n}:  gap {str(gap):>8}  inner {inner}  product {gap * inner}")

    print()
    print("Parity selection rules (10 x 10 index block, n = 3)")
    print("----------------------------------------------------")
    print("  [P_j, Q_k] vanishes exactly when j+k is even:")
    for j in range(6):
        row = ["." if bracket(P(j), Q(k), 3) == 0 else "*" for k in range(6)]
        print("   ", " ".join(row))

    print()
    print("  [P_j, P_k] is always zero; both solutions of the same index")
    print("  never see each other either:")
    assert all(bracket(P(j), P(k), 2) == 0 for j in range(10) for k in range(10))
    assert all(bracket(Q(k), Q(k), 2) == 0 for k in range(10))
    print("  checked 110 vanishing cases, all exact zeros")

    print()
    print("Growth with the operator power")
    print("------------------------------")
    base = bracket(P(0), Q(1), 1)
    for n in range(1, 8):
        v = bracket(P(0), Q(1), n)
        print(f"  [P0,Q1]_{n} = {str(v):>6}  (ratio to n=1: {Fraction(v, base)})")


if __name__ == "__main__":
    main()
