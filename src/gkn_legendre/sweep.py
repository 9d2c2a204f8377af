"""Conjecture sweep driver with an append-only JSON-lines ledger.

Each record captures one candidate selection: its exact rank, whether the
matrix had full rank, and the exact determinant of the P-vs-Q block.  Records
are keyed by the canonical selection string, so re-running a finished sweep
appends nothing and interrupted sweeps resume cleanly.  A final line torn by
an interrupted append is reported and cut off before the next append.  A
rank-deficient parity-balanced selection would be a counterexample to the open
conjecture; it is persisted and surfaced, never raised.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import __version__
from .exactnum import rational_str, require_int
from .matrices import IndexSelection, b_block, build_matrix, det_exact, enumerate_selections, rank_exact

__all__ = ["RunConfig", "SweepRecord", "evaluate_selection", "run_sweep"]

LEDGER_ENV_VAR = "GKN_LEDGER"

# one encoder for every ledger line; a record holds no cycle to look for
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
# and one decoder for every line read back
_decode = json.JSONDecoder().decode


def __getattr__(name):
    # the pool is imported on first use, as concurrent.futures defers it:
    # only a sweep with more than one worker pays for multiprocessing
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SweepRecord:
    selection: IndexSelection
    rank: int
    full_rank: bool
    det_b: str
    timestamp: str
    engine_version: str

    def key(self) -> str:
        return self.selection.key()

    def to_json(self) -> dict:
        return {
            "selection": {
                "p_indices": list(self.selection.p_indices),
                "q_indices": list(self.selection.q_indices),
            },
            "n": self.selection.power,
            "key": self.key(),
            "rank": self.rank,
            "full_rank": self.full_rank,
            "det_B": self.det_b,
            "timestamp": self.timestamp,
            "engine_version": self.engine_version,
        }


@dataclass
class RunConfig:
    power: int
    pool_bound: int
    parity_filter: bool = True
    workers: int = 1
    ledger_path: str = field(default_factory=lambda: os.environ.get(LEDGER_ENV_VAR, "gkn_sweep.jsonl"))

    def __post_init__(self):
        require_int("RunConfig", "power", self.power, 1)
        # a negative bound is an empty pool, which run_sweep reports
        require_int("RunConfig", "pool_bound", self.pool_bound)
        require_int("RunConfig", "workers", self.workers, 1)


def evaluate_selection(sel: IndexSelection) -> tuple[int, bool, str]:
    m = build_matrix(sel)
    rank = rank_exact(m.entries)
    det_b = det_exact(b_block(sel))
    return rank, rank == m.size, rational_str(det_b)


def _scan_ledger(path: str):
    """Yield (end, record) for each record of a JSON-lines ledger, in file
    order, where end is the byte offset just past the record's line.

    A record is a JSON object with a string "key", on a line of UTF-8 (the
    ledger's encoding), led by a BOM or not.  A final line without a newline
    is the last append, possibly cut short: if it is a record it is complete,
    otherwise it is reported on stderr and skipped.  Any other line that is
    not a record raises ValueError naming the path and line number.
    """
    if not os.path.exists(path):
        return
    end = 0
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            end += len(line)
            if not line.strip():
                continue
            try:
                record = _decode(line.decode("utf-8-sig", "surrogatepass"))
            except ValueError:
                record = None
            if not isinstance(record, dict) or not isinstance(record.get("key"), str):
                if line.endswith(b"\n"):
                    raise ValueError(f"{path}: line {number} is not a ledger record")
                print(f"warning: {path}: dropped a torn final line ({len(line)} bytes)",
                      file=sys.stderr)
                return
            yield end, record


def read_ledger(path: str) -> list[dict]:
    """The records of a JSON-lines ledger, in file order.  A torn final line
    is reported on stderr and skipped; any other bad line raises ValueError."""
    return [record for _, record in _scan_ledger(path)]


def _load_ledger_keys(path: str) -> set[str]:
    """Keys already in the ledger, after cutting off what follows the last
    record: a torn final line, or blank lines."""
    keys, end = set(), 0
    for end, record in _scan_ledger(path):
        keys.add(record["key"])
    if os.path.exists(path) and os.path.getsize(path) > end:
        os.truncate(path, end)
    return keys


def run_sweep(config: RunConfig) -> list[SweepRecord]:
    """Evaluate all missing selections, appending each record as it arrives.

    Returns the newly appended records, in enumeration order regardless of
    worker count.  Raises ValueError, before the ledger is read, if the pool
    admits no selection at all.
    """
    candidates = list(enumerate_selections(config.power, config.pool_bound, config.parity_filter))
    if not candidates:
        kind = "parity-balanced selection" if config.parity_filter else "selection"
        raise ValueError(f"pool bound {config.pool_bound} admits no {kind} for n={config.power}")
    done = _load_ledger_keys(config.ledger_path)
    todo = [sel for sel in candidates if sel.key() not in done] if done else candidates
    if not todo:
        return []

    from datetime import datetime, timezone

    directory = os.path.dirname(config.ledger_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    stamp = datetime.now(timezone.utc).isoformat()
    records = []
    workers = min(config.workers, len(todo))  # the pool forks every worker up front
    # read through the module: the first read imports the pool, and a class
    # bound there in its place (a tracer's, a test's) is the one started
    pool = sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with open(config.ledger_path, "a+b") as fh, pool:
        end = fh.tell()
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":  # a complete last record without its newline
                fh.write(b"\n")
        if workers == 1:
            results = map(evaluate_selection, todo)
        else:
            chunk = max(1, len(todo) // (workers * 8))
            results = pool.map(evaluate_selection, todo, chunksize=chunk)
        # each record is written as its result arrives, so an interrupted
        # sweep keeps every record it finished
        for sel, (rank, full, det_b) in zip(todo, results):
            rec = SweepRecord(sel, rank, full, det_b, stamp, __version__)
            fh.write(_encode(rec.to_json()).encode() + b"\n")
            records.append(rec)
    return records
