"""Benchmark workloads: the CLI calls each one makes and the checks on its output.

Every workload is an exhaustive enumeration fixed by its parameters, so no
input depends on the seed.  A workload's expected values were taken from the
seed engine; a check that does not see them marks items as failed.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Files a repetition may write, by placeholder; it fills each placeholder in
# the CLI arguments with the file's path inside its own temp dir.
FILES = {"ledger": "ledger.jsonl", "dump": "failures.json"}
LEDGER_ARG = "{ledger}"
DUMP_ARG = "{dump}"


@dataclass(frozen=True)
class Workload:
    """One closed-loop caller issuing the CLI calls in ``calls`` per repetition.

    ``items`` is the number of items a passing repetition verifies; ``check``
    takes the repetition's call outputs and temp dir and returns how many of
    those items failed.
    """

    name: str
    calls: tuple[tuple[str, ...], ...]
    items: int
    check: Callable[[list[dict], Path], int]
    workers: int = 1
    poly_pass: bool = False
    serial: "Workload | None" = None  # the same work on one worker, for scaling


def _suite_lines(stdout: str) -> list[tuple[str, str, str]]:
    """(status, check name, detail) for each result line of ``verify``."""
    pat = re.compile(r"^(PASS|FAIL)  (\S+)  \([0-9.]+s\)  (.*)$")
    return [m.groups() for m in map(pat.match, stdout.splitlines()) if m]


def canonical(max_n: int, top_digits: int) -> Workload:
    """``verify --suite canonical``: one item per n, full rank 2n each, and the
    seed's max-entry digit count at the top n."""

    def check(outs: list[dict], workdir: Path) -> int:
        lines = {name: (status, detail) for status, name, detail in _suite_lines(outs[0]["stdout"])}
        failed = 0
        for n in range(1, max_n + 1):
            status, detail = lines.get(f"canonical/n={n}", ("FAIL", ""))
            want = f"rank {2 * n}/{2 * n}, max entry "
            ok = status == "PASS" and detail.startswith(want)
            if n == max_n:
                ok = ok and detail == f"{want}{top_digits} digits"
            failed += not ok
        return failed

    return Workload(
        name="canonical",
        calls=(("verify", "--suite", "canonical", "--max-n", str(max_n), "--failure-dump", DUMP_ARG),),
        items=max_n,
        check=check,
    )


def oracle(max_index: int, max_n: int, pairs: int, nonzero: int) -> Workload:
    """``verify --suite oracle``: every closed-form/oracle pair agrees, with the
    seed's pair and nonzero counts.  The suite stops at the first mismatch, so
    any failure fails every pair."""

    def check(outs: list[dict], workdir: Path) -> int:
        lines = _suite_lines(outs[0]["stdout"])
        want = ("PASS", f"oracle/idx<={max_index}/n<={max_n}",
                f"{pairs} pairs agree exactly ({nonzero} nonzero)")
        return 0 if lines == [want] else pairs

    return Workload(
        name="oracle",
        calls=(("verify", "--suite", "oracle", "--max-index", str(max_index), "--max-n", str(max_n),
                "--failure-dump", DUMP_ARG),),
        items=pairs,
        check=check,
        poly_pass=True,
    )


def ledger_digest(records: list[dict]) -> str:
    """sha256 over the sorted (key, rank, det_B) triples of a ledger."""
    lines = sorted(f"{r['key']}|{r['rank']}|{r['det_B']}\n" for r in records)
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def read_ledger(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sweep(n: int, pool: int, workers: int, records: int, digest: str) -> Workload:
    """``sweep`` into a fresh ledger, then the same command again.

    The first call must append ``records`` full-rank records whose digest is
    the seed's; the second must append none.  Any failure fails every record.
    """
    argv = ("sweep", "--n", str(n), "--pool", str(pool), "--workers", str(workers),
            "--ledger", LEDGER_ARG)

    def check(outs: list[dict], workdir: Path) -> int:
        ledger = workdir / FILES["ledger"]
        first = outs[0]["stdout"] == f"{records} new records appended to {ledger}\n"
        again = outs[1]["stdout"] == f"0 new records appended to {ledger}\n"
        if not (first and again and ledger.is_file()):
            return records
        got = read_ledger(ledger)
        full = all(r["full_rank"] and r["rank"] == 2 * n for r in got)
        ok = len(got) == records and full and ledger_digest(got) == digest
        return 0 if ok else records

    return Workload(
        name="sweep" if workers == 1 else "sweep-par",
        calls=(argv, argv),
        items=records,
        check=check,
        workers=workers,
        serial=sweep(n, pool, 1, records, digest) if workers > 1 else None,
    )


# Sizes keep one repetition to a few seconds, so that a run holds many of
# them and the gauge around each call (see run.py) tracks the host's speed.
SWEEP_RECORDS = 1810
SWEEP_DIGEST = "7d15890658604219c3f988f6a2d649cf5279fd81787711a5a019947b302a51c7"

WORKLOADS = {
    w.name: w
    for w in (
        canonical(max_n=24, top_digits=70),
        oracle(max_index=3, max_n=4, pairs=256, nonzero=80),
        sweep(4, 7, workers=1, records=SWEEP_RECORDS, digest=SWEEP_DIGEST),
        sweep(4, 7, workers=2, records=SWEEP_RECORDS, digest=SWEEP_DIGEST),
    )
}
