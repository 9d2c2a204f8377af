"""Conjectured laws of the boundary brackets, pinned against the engine.

Each law is written here as its own reference, from nothing but the
eigenvalues lam_k = k(k+1) and the harmonic numbers H_k, and each is a
conjecture: it holds on every case checked, and no proof has been reviewed.
sigma is the parity of a function under x -> -x: sigma(P_j) = (-1)**j and
sigma(Q_k) = (-1)**(k+1).  h = h_(n-1)(lam_j, lam_k) is the complete
homogeneous sum of lam_j**i lam_k**(n-1-i) over i < n, which is
n lam_j**(n-1) when j = k.

- The endpoint law.  At x = +1 the boundary form is
      [P_j, P_k]_n(+1) = 0,     [P_j, Q_k]_n(+1) = h,
      [Q_j, P_k]_n(+1) = -h,    [Q_j, Q_k]_n(+1) = (H_k - H_j) h,
  and at x = -1 it is [f, g]_n(-1) = -sigma_f sigma_g [f, g]_n(+1).  So
  bracket(f, g, n) = (1 + sigma_f sigma_g) [f, g]_n(+1).  Each end is checked
  against the oracle's own limit, the sum against ``bracket``.
- Boundary coordinates.  With m_k = (lam_k**i for i < n), a function's
  coordinates in Q^(2n) are Phi(P_j) = (0, m_j) and
  Phi(Q_k) = (-m_k, -H_k m_k), and with the form
      Omega((u, v), (u', v')) = sum over i < n of u_i v'_(n-1-i) - v_i u'_(n-1-i)
  every bracket is (1 + sigma_f sigma_g) Omega(Phi(f), Phi(g)).
- The rank law.  Split a selection by sigma into class + (even P indices,
  odd Q indices) and class - (odd P indices, even Q indices), with p and q
  functions of each kind in a class.  Then at power n
      rank M = sum over both classes of 2 min(q, n, floor((p + q) / 2)).
"""

import random
from fractions import Fraction
from itertools import product

from gkn_legendre.brackets import bracket
from gkn_legendre.classical import ClassicalFunction
from gkn_legendre.matrices import IndexSelection, build_matrix, rank_exact
from gkn_legendre.oracle import classical_to_lograt, endpoint_limit, sesquilinear_at


def lam(k):
    return k * (k + 1)


def harmonic(k):
    return sum(Fraction(1, i) for i in range(1, k + 1))


def sigma(f):
    return (-1) ** (f.index + (f.kind == "Q"))


def h(j, k, n):
    return sum(lam(j) ** i * lam(k) ** (n - 1 - i) for i in range(n))


def at_plus_one(f, g, n):
    """The conjectured [f, g]_n(+1)."""
    j, k = f.index, g.index
    if f.kind == g.kind == "P":
        return 0
    if f.kind == "P":
        return h(j, k, n)
    if g.kind == "P":
        return -h(j, k, n)
    return (harmonic(k) - harmonic(j)) * h(j, k, n)


def at_minus_one(f, g, n):
    """The conjectured [f, g]_n(-1)."""
    return -sigma(f) * sigma(g) * at_plus_one(f, g, n)


def phi(f, n):
    """The conjectured boundary coordinates (u, v) of f at power n."""
    m = [lam(f.index) ** i for i in range(n)]
    if f.kind == "P":
        return [0] * n, m
    return [-x for x in m], [-harmonic(f.index) * x for x in m]


def omega(x, y):
    (u, v), (u2, v2) = x, y
    n = len(u)
    return sum(u[i] * v2[n - 1 - i] - v[i] * u2[n - 1 - i] for i in range(n))


def functions(max_index):
    return [ClassicalFunction(kind, i) for kind in "PQ" for i in range(max_index + 1)]


def test_endpoint_law_matches_the_oracle_at_each_end():
    """All 784 pairs of P_0..P_6 and Q_0..Q_6 with n <= 4, each end apart."""
    funcs = functions(6)
    mismatches, checked = [], 0
    for n, f, g in product(range(1, 5), funcs, funcs):
        form = sesquilinear_at(classical_to_lograt(f), classical_to_lograt(g), n)
        for end, law in (("plus_one", at_plus_one), ("minus_one", at_minus_one)):
            if endpoint_limit(form, end) != law(f, g, n):
                mismatches.append((str(f), str(g), n, end))
        checked += 1
    assert checked == 784
    assert mismatches == []


def test_bracket_is_the_endpoint_law_at_plus_one_doubled_by_parity():
    """All 7,168 pairs of indices <= 15 with n <= 7."""
    funcs = functions(15)
    pairs = list(product(range(1, 8), funcs, funcs))
    assert len(pairs) == 7168
    mismatches = [
        (str(f), str(g), n)
        for n, f, g in pairs
        if bracket(f, g, n) != (1 + sigma(f) * sigma(g)) * at_plus_one(f, g, n)
    ]
    assert mismatches == []


def test_bracket_factors_through_the_boundary_coordinates():
    """The same 7,168 pairs: bracket = (1 + sigma_f sigma_g) Omega(Phi(f), Phi(g))."""
    funcs = functions(15)
    mismatches, checked = [], 0
    for n in range(1, 8):
        coords = {f: phi(f, n) for f in funcs}
        for f, g in product(funcs, funcs):
            if bracket(f, g, n) != (1 + sigma(f) * sigma(g)) * omega(coords[f], coords[g]):
                mismatches.append((str(f), str(g), n))
            checked += 1
    assert checked == 7168
    assert mismatches == []


def classes(sel):
    """(p, q) for class +, which holds the even P and odd Q indices, and for
    class -, which holds the odd P and even Q indices."""
    return [
        (sum(j % 2 == parity for j in sel.p_indices), sum(k % 2 != parity for k in sel.q_indices))
        for parity in (0, 1)
    ]


def rank_law(sel):
    """The conjectured rank of the full bracket matrix of ``sel``."""
    return sum(2 * min(q, sel.power, (p + q) // 2) for p, q in classes(sel))


def test_rank_law_matches_rank_exact_on_random_selections():
    """600 seeded selections with n <= 6, indices < 20 and r, s <= 8; the
    draw covers r != s, r = 0 and selections where the n cap binds."""
    rng = random.Random(32)
    sels = []
    for _ in range(600):
        n, r, s = rng.randint(1, 6), rng.randint(0, 8), rng.randint(0, 8)
        sels.append(IndexSelection(sorted(rng.sample(range(20), r)), sorted(rng.sample(range(20), s)), n))
    assert sum(len(sel.p_indices) != len(sel.q_indices) for sel in sels) >= 100
    assert sum(not sel.p_indices for sel in sels) >= 20
    capped = [sel for sel in sels if any(sel.power < min(q, (p + q) // 2) for p, q in classes(sel))]
    assert len(capped) >= 50
    mismatches = [
        (sel.key(), law, rank)
        for sel in sels
        if (law := rank_law(sel)) != (rank := rank_exact(build_matrix(sel).entries))
    ]
    assert mismatches == []
