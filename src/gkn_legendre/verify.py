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
from itertools import combinations

from .brackets import bracket
from .classical import ClassicalFunction
from .matrices import (
    IndexSelection,
    b_block,
    build_matrix,
    canonical_selection,
    is_li_mod_dmin,
    parity_census,
    rank_exact,
)
from .oracle import bracket_via_oracle
from .sweep import enumerate_selections

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


def _passed_if_any(checked: int, detail: str) -> tuple[bool, str]:
    """The verdict of a check that found no counterexample among ``checked``
    cases: with no case examined it proves nothing, so it fails."""
    return (True, detail) if checked else (False, "no cases examined")


def _as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def suite_paper_tables() -> list[CheckResult]:
    """Reproduce the four printed matrices bit for bit, plus the rank claims."""
    results = []

    def m3():
        got = build_matrix(canonical_selection(3)).entries
        return [list(r) for r in got] == _as_fractions(M3_EXPECTED), "6x6 n=3 matrix"

    def b4():
        return b_block(canonical_selection(4)) == _as_fractions(B4_EXPECTED), "B block, n=4"

    def b5():
        return b_block(canonical_selection(5)) == _as_fractions(B5_EXPECTED), "B block, n=5"

    def b4_large():
        got = b_block(B4_LARGE_SELECTION)
        return got == _as_fractions(B4_LARGE_EXPECTED), "B block, n=4, large indices"

    def ranks():
        ok = (
            rank_exact(b_block(canonical_selection(4))) == 4
            and rank_exact(b_block(canonical_selection(5))) == 5
            and rank_exact(build_matrix(canonical_selection(3)).entries) == 6
        )
        return ok, "rank(B4)=4, rank(B5)=5, rank(M3)=6"

    results.append(_check("paper-tables/M3", m3))
    results.append(_check("paper-tables/B4", b4))
    results.append(_check("paper-tables/B5", b5))
    results.append(_check("paper-tables/B4-large", b4_large))
    results.append(_check("paper-tables/ranks", ranks))
    return results


def entry_digits(matrix) -> int:
    """Largest decimal magnitude among the entries (numerator digits)."""
    return max(
        (len(str(abs(Fraction(x).numerator))) for row in matrix for x in row if x),
        default=1,
    )


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


def suite_parity(n: int = 3, pool: int = 7) -> list[CheckResult]:
    """Necessity: every parity-unbalanced selection in the pool is rank deficient."""

    def run():
        checked = 0
        for sel in enumerate_selections(n, pool, parity_filter=False):
            if parity_census(sel) == (n, n):
                continue
            checked += 1
            if is_li_mod_dmin(sel):
                return False, f"unbalanced selection {sel.key()} has full rank"
        return _passed_if_any(checked, f"{checked} unbalanced selections all rank deficient")

    return [_check(f"parity/n={n}/pool={pool}", run)]


def suite_n2_exhaustive(max_p_index: int = 50) -> list[CheckResult]:
    """n = 2: every distinct P pair up to the bound, with every complementary
    Q completion from {0..3}, gives a full-rank matrix."""

    def run():
        checked = 0
        for p in combinations(range(max_p_index + 1), 2):
            for q in combinations(range(4), 2):
                sel = IndexSelection(p, q, 2)
                if parity_census(sel) != (2, 2):
                    continue
                checked += 1
                if not is_li_mod_dmin(sel):
                    return False, f"rank-deficient balanced selection {sel.key()}"
        return _passed_if_any(checked, f"{checked} balanced n=2 selections all full rank")

    return [_check(f"n2-exhaustive/p<={max_p_index}", run)]


def suite_oracle(max_index: int = 8, max_n: int = 4) -> list[CheckResult]:
    """Keystone: closed-form bracket equals the symbolic endpoint-limit bracket."""

    def run():
        funcs = [
            ClassicalFunction(kind, i)
            for kind in ("P", "Q")
            for i in range(max_index + 1)
        ]
        checked = nonzero = 0
        for n in range(1, max_n + 1):
            for f in funcs:
                for g in funcs:
                    closed = bracket(f, g, n)
                    symbolic = bracket_via_oracle(f, g, n)
                    checked += 1
                    if closed != symbolic:
                        return False, f"[{f},{g}]_{n}: closed {closed} != oracle {symbolic}"
                    if closed != 0:
                        nonzero += 1
        return _passed_if_any(checked, f"{checked} pairs agree exactly ({nonzero} nonzero)")

    return [_check(f"oracle/idx<={max_index}/n<={max_n}", run)]


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
