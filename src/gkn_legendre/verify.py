"""Verification suites: golden tables, exhaustive parity sweeps, oracle cross-checks.

Each suite returns a list of CheckResult records; the CLI and the acceptance
tests share these.  A check that examined no case fails: a vacuous pass
proves nothing.  Expected matrices are frozen here as exact integers and
rationals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from operator import attrgetter

from .brackets import bracket
from .classical import ClassicalFunction
from .matrices import (
    IndexSelection,
    b_block,
    build_matrix,
    canonical_selection,
    enumerate_selections,
    is_li_mod_dmin,
    parity_census,
    rank_exact,
)
from .oracle import bracket_via_oracle

__all__ = [
    "CheckResult",
    "M3_EXPECTED",
    "B4_EXPECTED",
    "B5_EXPECTED",
    "B4_LARGE_SELECTION",
    "B4_LARGE_EXPECTED",
    "suite_paper_tables",
    "suite_canonical",
    "suite_parity",
    "suite_n2_exhaustive",
    "suite_oracle",
    "run_suite",
    "SUITES",
]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    elapsed: float


# The 6x6 matrix for n = 3 with rows/cols P0,P1,P2,Q1,Q2,Q3.
M3_EXPECTED = [
    [0, 0, 0, 8, 0, 288],
    [0, 0, 0, 0, 104, 0],
    [0, 0, 0, 104, 0, 504],
    [-8, 0, -104, 0, 0, Fraction(860, 3)],
    [0, -104, 0, 0, 0, 0],
    [-288, 0, -504, Fraction(-860, 3), 0, 0],
]

B4_EXPECTED = [
    [0, 16, 0, 3456],
    [16, 0, 640, 0],
    [0, 640, 0, 6480],
    [3456, 0, 6480, 0],
]

B5_EXPECTED = [
    [32, 0, 41472, 0, 1620000],
    [0, 3872, 0, 355552, 0],
    [3872, 0, 80352, 0, 2024352],
    [0, 80352, 0, 737792, 0],
    [355552, 0, 737792, 0, 4220000],
]

B4_LARGE_SELECTION = IndexSelection((17, 42, 49, 125), (24, 82, 97, 178), 4)

B4_LARGE_EXPECTED = [
    [821988432, 660210828928, 0, 65319097828480],
    [0, 0, 2118187203328, 0],
    [38811250000, 968624405632, 0, 70078111267456],
    [8123415750000, 13280257143232, 0, 120291674577856],
]


def _check(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a suite must never die half way
        ok, detail = False, f"exception: {exc!r}"
    return CheckResult(name, ok, detail, time.perf_counter() - start)


def suite_paper_tables() -> list[CheckResult]:
    """Reproduce the four printed matrices bit for bit, plus the rank claims."""
    checks = [
        ("M3", lambda: ([list(r) for r in build_matrix(canonical_selection(3)).entries] == M3_EXPECTED,
                        "6x6 n=3 matrix")),
        ("B4", lambda: (b_block(canonical_selection(4)) == B4_EXPECTED, "B block, n=4")),
        ("B5", lambda: (b_block(canonical_selection(5)) == B5_EXPECTED, "B block, n=5")),
        ("B4-large", lambda: (b_block(B4_LARGE_SELECTION) == B4_LARGE_EXPECTED, "B block, n=4, large indices")),
        ("ranks", lambda: (
            rank_exact(b_block(canonical_selection(4))) == 4
            and rank_exact(b_block(canonical_selection(5))) == 5
            and rank_exact(build_matrix(canonical_selection(3)).entries) == 6,
            "rank(B4)=4, rank(B5)=5, rank(M3)=6")),
    ]
    return [_check(f"paper-tables/{name}", check) for name, check in checks]


def entry_digits(matrix) -> int:
    """Largest decimal magnitude among the entries (numerator digits); 1 for
    a matrix with no nonzero entry."""
    numerators = map(attrgetter("numerator"), filter(None, chain.from_iterable(matrix)))
    return len(str(max(map(abs, numerators), default=0)))


def suite_canonical(max_n: int = 32) -> list[CheckResult]:
    """Full rank of the canonical selection for every n up to max_n.

    Also reports the entry-magnitude growth that defeats floating point.
    """
    results = []
    for n in range(1, max_n + 1):
        def one(n=n):
            m = build_matrix(canonical_selection(n))
            rank = rank_exact(m.entries)
            digits = entry_digits(m.entries)
            return rank == 2 * n, f"rank {rank}/{2 * n}, max entry {digits} digits"

        results.append(_check(f"canonical/n={n}", one))
    return results


def _first_counterexample(name: str, cases, counterexample, summary) -> list[CheckResult]:
    """One check of a claim over every case ``cases()`` yields: it fails
    with the detail ``counterexample(case)`` returns for the first case that
    breaks the claim (a falsy one for a case that holds), fails when no case
    was examined (a vacuous pass proves nothing), and passes with the detail
    ``summary(count of cases)`` otherwise."""

    def run():
        checked = 0
        for case in cases():
            checked += 1
            detail = counterexample(case)
            if detail:
                return False, detail
        return (True, summary(checked)) if checked else (False, "no cases examined")

    return [_check(name, run)]


def suite_parity(n: int = 3, pool: int = 7) -> list[CheckResult]:
    """Necessity: every parity-unbalanced selection in the pool is rank deficient."""
    return _first_counterexample(
        f"parity/n={n}/pool={pool}",
        lambda: (s for s in enumerate_selections(n, pool, parity_filter=False) if parity_census(s) != (n, n)),
        lambda sel: is_li_mod_dmin(sel) and f"unbalanced selection {sel.key()} has full rank",
        "{} unbalanced selections all rank deficient".format,
    )


def suite_n2_exhaustive(pool: int = 50) -> list[CheckResult]:
    """n = 2: every distinct P pair up to the bound, with every complementary
    Q completion from {0..3}, gives a full-rank matrix."""

    def balanced():
        for p in combinations(range(pool + 1), 2):
            for q in combinations(range(4), 2):
                if parity_census(sel := IndexSelection(p, q, 2)) == (2, 2):
                    yield sel

    return _first_counterexample(
        f"n2-exhaustive/p<={pool}",
        balanced,
        lambda sel: not is_li_mod_dmin(sel) and f"rank-deficient balanced selection {sel.key()}",
        "{} balanced n=2 selections all full rank".format,
    )


def suite_oracle(max_index: int = 8, max_n: int = 4) -> list[CheckResult]:
    """Keystone: closed-form bracket equals the symbolic endpoint-limit bracket."""
    nonzero = 0

    def pairs():
        funcs = [ClassicalFunction(kind, i) for kind in ("P", "Q") for i in range(max_index + 1)]
        return product(range(1, max_n + 1), funcs, funcs)

    def mismatch(pair):
        nonlocal nonzero
        n, f, g = pair
        closed = bracket(f, g, n)
        symbolic = bracket_via_oracle(f, g, n)
        if closed != symbolic:
            return f"[{f},{g}]_{n}: closed {closed} != oracle {symbolic}"
        nonzero += closed != 0

    return _first_counterexample(
        f"oracle/idx<={max_index}/n<={max_n}",
        pairs,
        mismatch,
        lambda checked: f"{checked} pairs agree exactly ({nonzero} nonzero)",
    )


SUITES = {
    "paper-tables": suite_paper_tables,
    "canonical": suite_canonical,
    "parity": suite_parity,
    "n2-exhaustive": suite_n2_exhaustive,
    "oracle": suite_oracle,
}


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
