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
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .exactnum import rational_str
from .matrices import IndexSelection, b_block, build_matrix, det_exact, enumerate_selections, rank_exact

__all__ = ["RunConfig", "SweepRecord", "evaluate_selection", "run_sweep"]

LEDGER_ENV_VAR = "GKN_LEDGER"


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
        if self.power < 1:
            raise ValueError("power must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def evaluate_selection(sel: IndexSelection) -> tuple[str, int, bool, str]:
    m = build_matrix(sel)
    rank = rank_exact(m.entries)
    det_b = det_exact(b_block(sel))
    return sel.key(), rank, rank == m.size, rational_str(det_b)


def _scan_ledger(path: str):
    """Yield (end, record) for each record of a JSON-lines ledger, in file
    order, where end is the byte offset just past the record's line.

    A final line without a newline is the last append, possibly cut short: if
    it parses it is a complete record, otherwise it is reported on stderr and
    skipped.  A bad line anywhere else raises ValueError.
    """
    if not os.path.exists(path):
        return
    end = 0
    with open(path, "rb") as fh:
        for line in fh:
            end += len(line)
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if line.endswith(b"\n"):
                    raise
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

    Returns the newly appended records, in deterministic (key-sorted) order
    regardless of worker count.  Raises ValueError, before the ledger is
    read, if the pool admits no selection at all.
    """
    candidates = list(enumerate_selections(config.power, config.pool_bound, config.parity_filter))
    if not candidates:
        kind = "parity-balanced selection" if config.parity_filter else "selection"
        raise ValueError(f"pool bound {config.pool_bound} admits no {kind} for n={config.power}")
    done = _load_ledger_keys(config.ledger_path)
    todo = [sel for sel in candidates if sel.key() not in done]
    todo.sort(key=lambda s: s.key())
    if not todo:
        return []

    directory = os.path.dirname(config.ledger_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    stamp = datetime.now(timezone.utc).isoformat()
    records = []
    pool = ProcessPoolExecutor(max_workers=config.workers) if config.workers > 1 else nullcontext()
    with open(config.ledger_path, "a+b") as fh, pool:
        end = fh.tell()
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":  # a complete last record without its newline
                fh.write(b"\n")
        if config.workers == 1:
            results = map(evaluate_selection, todo)
        else:
            chunk = max(1, len(todo) // (config.workers * 8))
            results = pool.map(evaluate_selection, todo, chunksize=chunk)
        # each record is written as its result arrives, so an interrupted
        # sweep keeps every record it finished
        for sel, (_, rank, full, det_b) in zip(todo, results):
            rec = SweepRecord(sel, rank, full, det_b, stamp, __version__)
            fh.write(json.dumps(rec.to_json(), sort_keys=True).encode() + b"\n")
            records.append(rec)
    return records
