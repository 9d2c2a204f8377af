"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from workloads import Workload, canonical, oracle, sweep

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Seed values at the tiny sizes: canonical n=4 has a 5-digit max entry,
# oracle idx<=1/n<=2 has 32 pairs (8 nonzero), sweep n=2 pool 4 has 42 records.
TINY_DIGEST = "f1cb018ee5a4f2a3c2c2544ff777d79ddd6f2c6d5deaf187027db38b84bc8e3f"
TINY = {
    "canonical": canonical(max_n=4, top_digits=5),
    "oracle": oracle(max_index=1, max_n=2, pairs=32, nonzero=8),
    "sweep": sweep(2, 4, workers=1, records=42, digest=TINY_DIGEST),
    "sweep-par": sweep(2, 4, workers=2, records=42, digest=TINY_DIGEST),
}


def _failed(reps):
    return sum(r["failed"] for r in reps)


def test_spec_names_the_real_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"][1] == "bench/run.py" and SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics(name, tmp_path):
    reps, metrics = run.measure(TINY[name], 0.1, False, tmp_path)
    assert {n: u for n, (v, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _failed(reps) == 0
    assert metrics["ok_frac"][0] == 1.0
    assert all(v > 0 for v, _ in metrics.values())
    assert sum(r["kind"] == "probe" for r in reps) == run.SETUP_PROBES


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics(name, tmp_path):
    reps, metrics = run.measure(TINY[name], 0.1, True, tmp_path)
    assert {n: u for n, (v, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _failed(reps) == 0
    value = {n: v for n, (v, _) in metrics.items()}
    if name == "canonical":
        assert value["matrices.rank_calls_per_item"] == 1
        assert value["brackets.calls_per_item"] == sum((2 * n) ** 2 for n in range(1, 5)) / 4
        assert value["matrices.kernel_cells"] > 0
    elif name == "oracle":
        # derivative chains: 2 at n = 1 and 6 at n = 2, half the pairs each
        assert value["oracle.derivative_calls_per_item"] == 4
        assert value["brackets.calls_per_item"] == 1
        assert value["classical.poly_mul_calls_per_item"] > 0
    elif name == "sweep":
        # 4x4 matrix and 2x2 B block per selection; the re-run evaluates nothing
        assert value["brackets.calls_per_item"] == 20
        assert value["matrices.rank_calls_per_item"] == value["matrices.det_calls_per_item"] == 1
        assert value["sweep.ledger_bytes_per_record"] > 0
    else:
        assert value["sweep.worker_busy_frac"] > 0 and value["sweep.scaling_eff"] > 0
        assert value["brackets.calls_per_item"] == 0  # the workers are not traced


@pytest.mark.parametrize("wl", [
    canonical(max_n=4, top_digits=6),
    oracle(max_index=1, max_n=2, pairs=33, nonzero=8),
    oracle(max_index=1, max_n=2, pairs=32, nonzero=9),
    sweep(2, 4, workers=1, records=43, digest=TINY_DIGEST),
    sweep(2, 4, workers=1, records=42, digest="0" * 64),
    sweep(2, 4, workers=2, records=42, digest="0" * 64),
], ids=["canonical-digits", "oracle-pairs", "oracle-nonzero", "sweep-count", "sweep-digest", "sweep-par-digest"])
def test_wrong_expectation_fails(wl, tmp_path):
    reps, metrics = run.measure(wl, 0.1, False, tmp_path)
    assert _failed(reps) > 0
    assert metrics["ok_frac"][0] < 1


def test_zero_item_run_fails(tmp_path):
    # verify --suite canonical --max-n 0 exits 0 having checked nothing
    reps, metrics = run.measure(canonical(max_n=0, top_digits=1), 0.1, False, tmp_path)
    assert _failed(reps) > 0
    assert metrics["ok_frac"][0] == 0


def test_failing_cli_call_fails(tmp_path):
    bad = Workload(name="bad", calls=(("verify", "--suite", "no-such-suite"),), items=3, check=lambda outs, d: 0)
    reps, _ = run.measure(bad, 0.1, False, tmp_path)
    plain = [r for r in reps if r["kind"] == "plain"]
    assert plain and all(r["failed"] == 3 and "error" in r for r in plain)


def test_runs_are_isolated(tmp_path, monkeypatch):
    env_ledger = tmp_path / "env_ledger.jsonl"
    monkeypatch.setenv("GKN_LEDGER", str(env_ledger))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    work = tmp_path / "work"
    work.mkdir()
    reps, _ = run.measure(TINY["sweep"], 0.1, False, work)
    assert _failed(reps) == 0
    assert not env_ledger.exists()
    assert not any(cwd.iterdir()) and not any(work.iterdir())


def test_main_prints_the_result_last(capsys, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "canonical", TINY["canonical"])
    assert run.main(["--workload", "canonical", "--seed", "7", "--seconds", "0.1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    facts, result = json.loads(lines[-2])["machine"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 4 and result["failed"] == 0
    assert facts["seed"] == 7 and facts["nproc"] >= 1 and facts["engine_version"]
    assert {"python", "cpu_model", "git_commit", "src_sha256"} <= set(facts)
    assert not (run.ROOT / ".bench_work").exists()


def test_refuses_without_engine_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "canonical", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
