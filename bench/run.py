"""gkn-legendre benchmark: one workload, timed through the real CLI entry point.

Usage (from the root of a checkout):

    python3 bench/run.py --workload canonical --seed 1 --seconds 30 --trace 0

Each repetition is a fresh interpreter (bench/rep.py) that imports the engine
from this checkout's ``src/`` and calls ``gkn_legendre.cli.main`` in-process,
in a temp dir of its own with explicit ledger and failure-dump paths.  With
``--trace 0`` the repetitions are untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics are reported.  The last stdout line is the result JSON; the
line before it holds the machine facts.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import FILES, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REP = Path(__file__).resolve().parent / "rep.py"
SETUP_PROBES = 2  # set-up samples before each untraced repetition
# Nominal seconds of rep.reference_work().  Times are scaled by REF_S over the
# gauge measured around them, so that a host whose speed drifts under other
# tenants' load still gives steady figures; REF_S only fixes the scale.
REF_S = 0.1
DEADLINE_S = 170  # a run must end within 180 s, whatever --seconds says


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _launch(spec: dict, timeout: float) -> tuple[dict | None, float, str]:
    """Run one repetition; returns (report or None, launch time, stderr)."""
    env = {k: v for k, v in os.environ.items() if k not in ("GKN_LEDGER", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(REP), json.dumps(spec)],
        cwd=spec["work_root"], env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nrepetition killed after {timeout:.0f} s"
    report = None
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            return None, launched, err + f"\nunreadable report: {lines[-1][:200]}"
        if not Path(report["module"]).resolve().is_relative_to(SRC):
            report, err = None, err + f"\nengine imported from {report['module']}, not {SRC}"
    return report, launched, err


def run_rep(wl: Workload, kind: str, work_root: Path, timeout: float) -> dict:
    """One repetition of ``wl``; ``kind`` is probe, plain, layers or poly."""
    spec = {"kind": kind, "calls": wl.calls, "files": FILES, "workers": wl.workers,
            "work_root": str(work_root)}
    report, launched, err = _launch(spec, timeout)
    # a probe has no items and a workload of none is a failure: either counts
    # as one failed item until shown otherwise
    items = max(wl.items, 1) if kind != "probe" else 1
    rep = {"kind": kind, "items": items, "failed": items}
    if report is None:
        rep["error"] = err.strip()[-2000:]
        return rep
    refs = report["refs"]
    rep["setup_s"] = report["ready"] - launched
    rep["setup_n"] = rep["setup_s"] * REF_S / refs[0]
    rep["version"] = report["version"]
    workdir = Path(report["workdir"])
    try:
        if kind == "probe":
            rep["items"] = rep["failed"] = 0
            return rep
        outs = report["outs"]
        if report.get("error"):
            rep["error"] = report["error"]
        elif wl.items < 1:
            rep["error"] = "the workload verifies no items"
        elif len(outs) == len(wl.calls) and all(o["code"] == 0 for o in outs):
            rep["failed"] = wl.check(outs, workdir)
        else:
            rep["error"] = f"exit codes {[o['code'] for o in outs]}: {err.strip()[-2000:]}"
        # each call is scaled by the mean of the gauges just before and after it
        scale = [2 * REF_S / (a + b) for a, b in zip(refs, refs[1:])]
        rep["wall"] = sum(o["wall"] for o in outs)
        rep["wall_n"] = sum(o["wall"] * k for o, k in zip(outs, scale))
        rep["cpu_n"] = sum(o["cpu"] * k for o, k in zip(outs, scale))
        rep["cpu_children_s"] = sum(o["cpu_children"] for o in outs)
        rep["ref_s"] = statistics.fmean(refs)
        rep["peak_rss_mb"] = (report["maxrss_self_kb"] + wl.workers * report["maxrss_children_kb"]) / 1024
        rep["trace"] = report["trace"]
        ledger = workdir / FILES["ledger"]
        if ledger.is_file():
            rep["ledger_bytes"] = ledger.stat().st_size
        return rep
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def items_per_s(rep: dict, wall: str = "wall_n") -> float:
    return (rep["items"] - rep["failed"]) / rep[wall]


def end_to_end(reps: list[dict]) -> dict:
    timed = [r for r in reps if r["kind"] == "plain" and "wall" in r]
    attempted = sum(r["items"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "items_per_s": (_median(map(items_per_s, timed)), "1/s"),
        "cpu_ms_per_item": (_median(1000 * r["cpu_n"] / r["items"] for r in timed), "ms"),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in timed), "MB"),
        "setup_s": (_median(r["setup_n"] for r in reps if "setup_n" in r), "s"),
        "ok_frac": (1 - failed / attempted if attempted else 0.0, "frac"),
    }


def per_layer(wl: Workload, reps: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced repetitions of each kind.

    Times are seconds per repetition; counts per item are over ``wl.items``.
    """
    by_kind: dict[str, list[dict]] = {}
    for r in reps:
        if "wall" in r:
            by_kind.setdefault(r["kind"], []).append(r)

    def traced(kind, f):
        return _median(f(r["trace"]) for r in by_kind.get(kind, []))

    def calls(*names):
        return lambda t: sum(t["calls"].get(n, 0) for n in names)

    def busy(*names):
        return lambda t: sum(t["busy"].get(n, 0.0) for n in names)

    def self_s(*names):
        return lambda t: sum(t["self"].get(n, 0.0) for n in names)

    def count(name):
        return lambda t: t["counts"].get(name, 0)

    def per_item(f):
        return lambda t: f(t) / wl.items

    brackets = ("verify.bracket", "matrices.bracket")
    rank = ("verify.rank_exact", "sweep.rank_exact")
    deriv = "oracle.LogRat.derivative"
    poly_mul = "classical.Poly.__mul__"
    plain = by_kind.get("plain", [])
    layers = by_kind.get("layers", [])
    serial = by_kind.get("serial", [])
    nonzero_frac = traced("layers", lambda t: count("brackets.nonzero")(t) / max(calls(*brackets)(t), 1))
    build = self_s("verify.build_matrix", "sweep.build_matrix", "sweep.b_block")
    ledger_bytes = _median(r["ledger_bytes"] / r["items"] for r in plain if "ledger_bytes" in r)
    worker_busy = scaling = overhead = 0.0
    if wl.workers > 1:
        worker_busy = _median(r["cpu_children_s"] / (wl.workers * r["wall"]) for r in plain)
    if serial:
        scaling = _median(map(items_per_s, plain)) / (wl.workers * _median(map(items_per_s, serial)))
    if layers and plain:
        overhead = _median(r["wall_n"] for r in layers) / _median(r["wall_n"] for r in plain) - 1
    return {
        "cli.self_s": (traced("layers", self_s("cli.main")), "s"),
        "verify.self_s": (traced("layers", self_s("cli.run_suite")), "s"),
        "brackets.calls_per_item": (traced("layers", per_item(calls(*brackets))), "calls/item"),
        "brackets.busy_s": (traced("layers", busy(*brackets)), "s"),
        "brackets.nonzero_frac": (nonzero_frac, "frac"),
        "matrices.build_self_s": (traced("layers", build), "s"),
        "matrices.rank_calls_per_item": (traced("layers", per_item(calls(*rank))), "calls/item"),
        "matrices.rank_busy_s": (traced("layers", busy(*rank)), "s"),
        "matrices.det_calls_per_item": (traced("layers", per_item(calls("sweep.det_exact"))), "calls/item"),
        "matrices.det_busy_s": (traced("layers", busy("sweep.det_exact")), "s"),
        "matrices.kernel_max_bits": (traced("layers", count("matrices.kernel_max_bits")), "bits"),
        "matrices.kernel_cells": (traced("layers", count("matrices.kernel_cells")), "cells"),
        "oracle.derivative_calls_per_item": (traced("layers", per_item(calls(deriv))), "calls/item"),
        "oracle.derivative_busy_s": (traced("layers", busy(deriv)), "s"),
        "oracle.assembly_self_s": (traced("layers", self_s("oracle.sesquilinear_at")), "s"),
        "oracle.limit_busy_s": (traced("layers", busy("oracle.endpoint_limit")), "s"),
        "oracle.lograt_busy_s": (traced("layers", busy("oracle.classical_to_lograt")), "s"),
        "classical.poly_mul_calls_per_item": (traced("poly", per_item(calls(poly_mul))), "calls/item"),
        "classical.poly_mul_busy_s": (traced("poly", busy(poly_mul)), "s"),
        "classical.poly_coeffs_built": (traced("poly", count("classical.poly_coeffs_built")), "count"),
        "sweep.enumerate_s": (traced("layers", busy("sweep.enumerate_selections")), "s"),
        "sweep.evaluate_busy_s": (traced("layers", busy("sweep.evaluate_selection", "sweep.pool")), "s"),
        "sweep.ledger_load_s": (traced("layers", busy("sweep._load_ledger_keys")), "s"),
        "sweep.append_self_s": (traced("layers", self_s("cli.run_sweep")), "s"),
        "sweep.ledger_bytes_per_record": (ledger_bytes, "B/record"),
        "sweep.worker_busy_frac": (worker_busy, "frac"),
        "sweep.scaling_eff": (scaling, "frac"),
        "trace.overhead_frac": (overhead, "frac"),
    }


def measure(wl: Workload, seconds: float, trace: bool, work_root: Path) -> tuple[list[dict], dict]:
    """Repeat ``wl`` for ``seconds``; returns the repetitions and the metrics.

    A repetition (or, traced, a cycle of them) starts only if the median time
    of the ones before says it will end within ``seconds``; the first always
    runs.
    """
    start = time.monotonic()
    remaining = lambda: DEADLINE_S - (time.monotonic() - start)
    reps: list[dict] = []
    if trace:
        cycle = [(wl, "plain"), (wl, "layers")]
        if wl.poly_pass:
            cycle.append((wl, "poly"))
        if wl.serial is not None:
            cycle.append((wl.serial, "serial"))
    else:
        # the first probe compiles bytecode, which a CLI user does not pay every run
        run_rep(wl, "probe", work_root, remaining())
        # probes spread over the run, so slow drifts of machine speed average out
        cycle = [(wl, "probe")] * SETUP_PROBES + [(wl, "plain")]
    cycle_times = []
    while True:
        t0 = time.monotonic()
        for w, kind in cycle:
            rep = run_rep(w, "plain" if kind == "serial" else kind, work_root, remaining())
            rep["kind"] = kind
            reps.append(rep)
        cycle_times.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + _median(cycle_times) > min(seconds, DEADLINE_S):
            break
    metrics = per_layer(wl, reps) if trace else end_to_end(reps)
    return reps, metrics


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts(args, reps: list[dict]) -> dict:
    timed = [r for r in reps if r["kind"] == "plain" and "wall" in r]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "engine_version": next((r["version"] for r in reps if "version" in r), None),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "repetitions": {k: sum(r["kind"] == k for r in reps) for k in sorted({r["kind"] for r in reps})},
        "unscaled": {
            "items_per_s": _median(items_per_s(r, "wall") for r in timed),
            "setup_s": _median(r["setup_s"] for r in reps if "setup_s" in r),
            "gauge_s": _median(r["ref_s"] for r in timed),
        },
        "items_per_s_by_repetition": [round(items_per_s(r), 3) for r in timed],
        "unscaled_items_per_s_by_repetition": [round(items_per_s(r, "wall"), 3) for r in timed],
        "errors": [r["error"] for r in reps if "error" in r][:3],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every workload is an exhaustive enumeration")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gkn_legendre" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'gkn_legendre'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work" / str(os.getpid())
    work_root.mkdir(parents=True)
    try:
        reps, metrics = measure(wl, args.seconds, bool(args.trace), work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r["items"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(json.dumps({"machine": machine_facts(args, reps)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
