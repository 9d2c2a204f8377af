"""The combinatorial layer: Legendre-Stirling numbers, harmonics, Q-norms.

These sequences parameterize everything upstream: the Legendre-Stirling
triangle supplies the coefficients of the expanded operator powers, harmonic
numbers appear in the Q-vs-Q brackets, and the norms of the second solutions
mix a rational with a pi^2 term that is carried exactly.

Run:  python3 demos/sequences_and_norms.py
"""

from fractions import Fraction

from gkn_legendre import (
    harmonic,
    harmonic2,
    laguerre_ld_coefficient,
    legendre_q,
    legendre_stirling,
    q_norm_squared,
)


def main():
    print("Legendre-Stirling triangle (rows n = 0..6)")
    print("-------------------------------------------")
    for n in range(7):
        print(f"  n={n}: " + " ".join(str(legendre_stirling(n, k)) for k in range(n + 1)))

    print()
    print("Harmonic numbers drive the Q-vs-Q brackets")
    print("-------------------------------------------")
    for k in (1, 3, 6, 10):
        print(f"  H_{k} = {harmonic(k)},   H_{k}^(2) = {harmonic2(k)}")

    print()
    print("Second solutions and their exact norms")
    print("---------------------------------------")
    for k in range(4):
        print(f"  Q_{k}(x) = {legendre_q(k)}")
    for k in range(5):
        nrm = q_norm_squared(k)
        print(
            f"  ||Q_{k}||^2 = {nrm.rat} + ({nrm.pi2}) pi^2"
            f"  ~ {nrm.to_float():.12f}"
        )

    print()
    print("Laguerre left-definite coefficients b_j(n, k)")
    print("----------------------------------------------")
    print("  a forward-difference table of (k+i)^n; exact for rational k too")
    for j in range(4):
        row = [laguerre_ld_coefficient(j, 3, k) for k in range(5)]
        print(f"  j={j}: " + "  ".join(str(v) for v in row))
    print(f"  b_1(2, 1/2) = {laguerre_ld_coefficient(1, 2, Fraction(1, 2))}")


if __name__ == "__main__":
    main()
