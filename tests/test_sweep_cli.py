import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gkn_legendre.cli as cli_module
import gkn_legendre.matrices as matrices_module
import gkn_legendre.sweep as sweep_module
import gkn_legendre.verify as verify_module
from gkn_legendre import __version__
from gkn_legendre.brackets import bracket
from gkn_legendre.classical import ClassicalFunction
from gkn_legendre.cli import VERBS, build_parser, main
from gkn_legendre.exactnum import rational_str
from gkn_legendre.matrices import IndexSelection, parity_census
from gkn_legendre.sweep import (
    LEDGER_ENV_VAR,
    RunConfig,
    enumerate_selections,
    evaluate_selection,
    read_ledger,
    run_sweep,
)
from gkn_legendre.verify import CheckResult


def no_matrix(sel):
    raise RuntimeError("no matrix")


class TestEnumeration:
    @pytest.mark.parametrize("n, pool", [(1, 0), (2, 3), (3, 5), (4, 7)])
    def test_counts_n2_pool3(self, n, pool):
        # the filter keeps exactly the balanced selections, in unfiltered order
        keys = [s.key() for s in enumerate_selections(n, pool)]
        assert keys == [
            s.key()
            for s in enumerate_selections(n, pool, parity_filter=False)
            if parity_census(s) == (n, n)
        ]

    def test_rejected_candidates_are_never_built(self, monkeypatch):
        built = []

        class Counted(IndexSelection):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(matrices_module, "IndexSelection", Counted)
        assert sum(1 for _ in enumerate_selections(4, 7)) == len(built) == 1810

    def test_unfiltered_count(self):
        # C(4,2)^2 pairs
        assert len(list(enumerate_selections(2, 3, parity_filter=False))) == 36

    def test_empty_pool(self):
        assert list(enumerate_selections(3, 1)) == []

    @pytest.mark.parametrize("n, error, message", [
        (-1, ValueError, "n must be >= 1"),
        (0, ValueError, "n must be >= 1"),
        (2.0, TypeError, "n must be an int, got float"),
        (True, TypeError, "n must be an int, got bool"),
    ])
    def test_n_follows_the_argument_rule(self, n, error, message):
        with pytest.raises(error, match=f"^enumerate_selections: {message}$"):
            list(enumerate_selections(n, 7))

    def test_deterministic_order_of_keys(self):
        keys = [s.key() for s in enumerate_selections(2, 4)]
        assert len(set(keys)) == len(keys)


class TestEvaluate:
    def test_canonical_n2(self):
        sel = IndexSelection((0, 1), (0, 1), 2)
        rank, full, det_b = evaluate_selection(sel)
        assert rank == 4 and full
        assert det_b == "-16"

    def test_unbalanced_is_deficient(self):
        rank, full, det_b = evaluate_selection(IndexSelection((0, 2), (0, 2), 2))
        assert not full and det_b == "0"


class TestSweepLedger:
    def run(self, tmp_path, workers=1, pool=4, name="ledger.jsonl"):
        cfg = RunConfig(
            power=2, pool_bound=pool, workers=workers, ledger_path=str(tmp_path / name)
        )
        return cfg, run_sweep(cfg)

    def test_creates_and_populates(self, tmp_path):
        cfg, records = self.run(tmp_path)
        assert records
        on_disk = read_ledger(cfg.ledger_path)
        assert [r["key"] for r in on_disk] == [r.key() for r in records]
        assert all(r["full_rank"] for r in on_disk)

    def test_idempotent(self, tmp_path):
        cfg, first = self.run(tmp_path)
        again = run_sweep(cfg)
        assert again == []
        assert len(read_ledger(cfg.ledger_path)) == len(first)

    def test_resume_after_partial(self, tmp_path):
        cfg, full = self.run(tmp_path, name="full.jsonl")
        partial_path = tmp_path / "partial.jsonl"
        with open(cfg.ledger_path) as src, open(partial_path, "w") as dst:
            for i, line in enumerate(src):
                if i % 2 == 0:
                    dst.write(line)
        cfg2 = RunConfig(power=2, pool_bound=4, ledger_path=str(partial_path))
        added = run_sweep(cfg2)
        assert len(added) == len(full) - (len(full) + 1) // 2
        assert sorted(r["key"] for r in read_ledger(str(partial_path))) == sorted(
            r.key() for r in full
        )

    def test_worker_count_does_not_change_results(self, tmp_path):
        cfg1, serial = self.run(tmp_path, workers=1, pool=3, name="serial.jsonl")
        cfg2, parallel = self.run(tmp_path, workers=3, pool=3, name="parallel.jsonl")
        strip = lambda recs: [
            {k: v for k, v in r.items() if k != "timestamp"}
            for r in recs
        ]
        assert strip(read_ledger(cfg1.ledger_path)) == strip(read_ledger(cfg2.ledger_path))

    def test_interrupted_sweep_keeps_finished_records(self, tmp_path, monkeypatch):
        calls = []

        def interrupted_on_tenth(sel):
            calls.append(sel)
            if len(calls) == 10:
                raise KeyboardInterrupt
            return evaluate_selection(sel)

        monkeypatch.setattr(sweep_module, "evaluate_selection", interrupted_on_tenth)
        cfg = RunConfig(power=2, pool_bound=4, ledger_path=str(tmp_path / "cut.jsonl"))
        with pytest.raises(KeyboardInterrupt):
            run_sweep(cfg)
        monkeypatch.undo()
        _, full = self.run(tmp_path, name="full.jsonl")
        kept = [r["key"] for r in read_ledger(cfg.ledger_path)]
        assert kept == [r.key() for r in full][:9]
        added = run_sweep(cfg)
        assert len(added) == len(full) - 9
        assert sorted(r["key"] for r in read_ledger(cfg.ledger_path)) == sorted(
            r.key() for r in full
        )

    def test_records_follow_enumeration_order(self, tmp_path):
        # at pool 10 the key "P=10" sorts before "P=2"; records keep the
        # enumeration order all the same, for every worker count
        order = [s.key() for s in enumerate_selections(1, 10)]
        assert order != sorted(order)
        for workers in (1, 2):
            cfg = RunConfig(power=1, pool_bound=10, workers=workers,
                            ledger_path=str(tmp_path / f"w{workers}.jsonl"))
            records = run_sweep(cfg)
            assert [r.key() for r in records] == order
            assert [r["key"] for r in read_ledger(cfg.ledger_path)] == order

    def test_pool_starts_no_more_workers_than_selections(self, tmp_path, monkeypatch):
        started = []

        class StubPool:  # records the pool size and maps in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", StubPool)
        _, full = self.run(tmp_path, pool=3, name="full.jsonl")
        lines = (tmp_path / "full.jsonl").read_bytes().splitlines(keepends=True)
        strip = lambda recs: [{k: v for k, v in r.items() if k != "timestamp"} for r in recs]
        for left, pool_size in ((2, [2]), (1, []), (len(lines), [8])):
            path = tmp_path / f"left{left}.jsonl"
            path.write_bytes(b"".join(lines[: len(lines) - left]))
            started.clear()
            cfg = RunConfig(power=2, pool_bound=3, workers=8, ledger_path=str(path))
            assert [r.key() for r in run_sweep(cfg)] == [r.key() for r in full][-left:]
            assert started == pool_size
            assert strip(read_ledger(str(path))) == strip(read_ledger(str(tmp_path / "full.jsonl")))

    def test_each_selection_is_keyed_once(self, tmp_path, monkeypatch):
        # a fresh sweep keys each record once, as it is written; a resumed one
        # also keys every candidate once, to filter out what the ledger holds
        keyed = []
        key = IndexSelection.key

        def counted(sel):
            keyed.append(sel)
            return key(sel)

        monkeypatch.setattr(IndexSelection, "key", counted)
        cfg = RunConfig(power=2, pool_bound=4, ledger_path=str(tmp_path / "spy.jsonl"))
        fresh = run_sweep(cfg)
        assert fresh and keyed == [r.selection for r in fresh]
        lines = (tmp_path / "spy.jsonl").read_bytes().splitlines(keepends=True)
        (tmp_path / "spy.jsonl").write_bytes(b"".join(lines[:-3]))
        keyed.clear()
        resumed = run_sweep(cfg)
        assert [r.selection for r in resumed] == [r.selection for r in fresh][-3:]
        assert keyed == [r.selection for r in fresh] + [r.selection for r in resumed]

    def test_every_sweep_builds_each_candidate_once(self, tmp_path, monkeypatch):
        # fresh, finished or resumed, a sweep walks the pool once: each
        # candidate is built once, through IndexSelection's checks
        checked = []
        post_init = IndexSelection.__post_init__

        def counted(sel):
            checked.append(sel)
            post_init(sel)

        monkeypatch.setattr(IndexSelection, "__post_init__", counted)
        cfg = RunConfig(power=2, pool_bound=4, ledger_path=str(tmp_path / "spy.jsonl"))
        candidates = list(enumerate_selections(2, 4))
        checked.clear()
        fresh = run_sweep(cfg)
        assert [r.selection for r in fresh] == checked == candidates
        checked.clear()
        assert run_sweep(cfg) == [] and checked == candidates
        lines = (tmp_path / "spy.jsonl").read_bytes().splitlines(keepends=True)
        (tmp_path / "spy.jsonl").write_bytes(b"".join(lines[:-3]))
        checked.clear()
        resumed = run_sweep(cfg)
        assert [r.selection for r in resumed] == candidates[-3:]
        assert checked == candidates
        assert [r["key"] for r in read_ledger(cfg.ledger_path)] == [s.key() for s in candidates]

    def test_ledger_path_from_env(self, tmp_path, monkeypatch):
        target = tmp_path / "env_ledger.jsonl"
        monkeypatch.setenv(LEDGER_ENV_VAR, str(target))
        cfg = RunConfig(power=1, pool_bound=2)
        assert cfg.ledger_path == str(target)
        run_sweep(cfg)
        assert target.exists()

    def test_record_shape(self, tmp_path):
        cfg, _ = self.run(tmp_path, pool=2)
        rec = read_ledger(cfg.ledger_path)[0]
        assert set(rec) == {
            "selection", "n", "key", "rank", "full_rank", "det_B",
            "timestamp", "engine_version",
        }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(power=0, pool_bound=3)
        with pytest.raises(ValueError):
            RunConfig(power=1, pool_bound=3, workers=0)

    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_pool_bound_must_be_an_int(self, bad):
        kind = type(bad).__name__
        with pytest.raises(TypeError, match=f"^RunConfig: pool_bound must be an int, got {kind}$"):
            RunConfig(power=2, pool_bound=bad)
        with pytest.raises(TypeError, match=f"^enumerate_selections: pool_bound must be an int, got {kind}$"):
            list(enumerate_selections(2, bad))

    def test_negative_pool_bound_admits_no_selection(self, tmp_path):
        assert list(enumerate_selections(2, -1)) == []
        ledger = tmp_path / "s.jsonl"
        cfg = RunConfig(power=2, pool_bound=-1, ledger_path=str(ledger))
        with pytest.raises(ValueError, match="^pool bound -1 admits no parity-balanced selection for n=2$"):
            run_sweep(cfg)
        assert not ledger.exists()


class TestTornLedger:
    def sweep(self, ledger, pool):
        return main(["sweep", "--n", "2", "--pool", str(pool), "--ledger", str(ledger)])

    def test_torn_final_line_is_dropped_and_sweep_resumes(self, tmp_path, capsys):
        ledger = tmp_path / "s.jsonl"
        assert self.sweep(ledger, 3) == 0
        old = ledger.read_bytes()
        with open(ledger, "ab") as fh:
            fh.write(b'{"key": "n=2;P=0,1;Q=0')
        assert self.sweep(ledger, 4) == 0
        assert "torn" in capsys.readouterr().err
        new = ledger.read_bytes()
        assert new.startswith(old)
        records = [json.loads(line) for line in new.decode().splitlines()]
        assert len(records) > old.count(b"\n")
        assert len({r["key"] for r in records}) == len(records)

    def test_final_record_without_newline_is_kept(self, tmp_path, capsys):
        ledger = tmp_path / "s.jsonl"
        assert self.sweep(ledger, 3) == 0
        old = ledger.read_bytes()
        ledger.write_bytes(old[:-1])
        assert self.sweep(ledger, 4) == 0
        new = ledger.read_bytes()
        assert new.startswith(old) and len(new) > len(old)
        records = [json.loads(line) for line in new.decode().splitlines()]
        assert len({r["key"] for r in records}) == len(records)

    def test_bad_line_before_the_end_is_an_error(self, tmp_path, capsys):
        ledger = tmp_path / "s.jsonl"
        assert self.sweep(ledger, 3) == 0
        lines = ledger.read_bytes().splitlines(keepends=True)
        ledger.write_bytes(lines[0][:10] + b"\n" + b"".join(lines[1:]))
        assert self.sweep(ledger, 4) == 2
        assert "error" in capsys.readouterr().err

    def test_blank_lines_are_skipped_and_trailing_ones_cut(self, tmp_path, capsys):
        """Blank lines between records are read past; those after the last
        record are cut before a resumed sweep appends the missing records."""
        full = tmp_path / "full.jsonl"
        assert self.sweep(full, 3) == 0
        capsys.readouterr()
        lines = full.read_bytes().splitlines(keepends=True)
        ledger = tmp_path / "s.jsonl"
        kept = lines[0] + b"\n" + lines[1]
        ledger.write_bytes(kept + b"\n \n\n")
        assert read_ledger(str(ledger)) == [json.loads(line) for line in lines[:2]]
        assert self.sweep(ledger, 3) == 0
        assert capsys.readouterr().out == f"{len(lines) - 2} new records appended to {ledger}\n"
        new = ledger.read_bytes()
        assert new.startswith(kept) and b"\n\n" not in new[len(kept) - 1:]
        keys = [json.loads(line)["key"] for line in new[len(kept):].splitlines()]
        assert keys == [json.loads(line)["key"] for line in lines[2:]]

    @pytest.mark.parametrize("line", [b"[1, 2]", b'"x"', b'{"x": 1}', b"{"],
                             ids=["list", "string", "no-key", "malformed"])
    def test_line_that_is_not_a_record_is_an_error(self, line, tmp_path, capsys):
        ledger = tmp_path / "s.jsonl"
        assert self.sweep(ledger, 3) == 0
        lines = ledger.read_bytes().splitlines(keepends=True)
        old = b"".join(lines[:2]) + line + b"\n" + b"".join(lines[2:])
        ledger.write_bytes(old)
        capsys.readouterr()
        assert self.sweep(ledger, 4) == 2
        assert f"{ledger}: line 3 is not a ledger record" in capsys.readouterr().err
        assert ledger.read_bytes() == old

    @pytest.mark.parametrize("final", [False, True], ids=["middle", "final"])
    def test_record_led_by_a_utf8_bom_is_read(self, final, tmp_path):
        ledger = tmp_path / "s.jsonl"
        assert self.sweep(ledger, 3) == 0
        lines = ledger.read_bytes().splitlines(keepends=True)
        at = len(lines) - 1 if final else 1
        lines[at] = b"\xef\xbb\xbf" + (lines[at].rstrip(b"\n") if final else lines[at])
        ledger.write_bytes(b"".join(lines))
        assert read_ledger(str(ledger)) == [json.loads(line.lstrip(b"\xef\xbb\xbf")) for line in lines]

    @pytest.mark.parametrize("line", [
        b'{"key": "a"}\x00', b'{"key": "a\x00"}', b'\x00{"key": "a"}', b"\x00\x00\x00",
        b'{"key": "\xff"}', b'{"key": "caf\xe9"}', b"\xef\xbb\xbf\xfe",
    ], ids=["nul-after", "nul-inside", "nul-first", "nul-only", "byte-ff", "latin-1", "bom-then-ff"])
    def test_nul_or_non_utf8_line_is_not_a_record(self, line, tmp_path, capsys):
        """Complete, such a line is an error; final and unterminated, it is
        reported as torn and dropped."""
        ledger = tmp_path / "s.jsonl"
        assert self.sweep(ledger, 3) == 0
        lines = ledger.read_bytes().splitlines(keepends=True)
        ledger.write_bytes(lines[0] + line + b"\n" + b"".join(lines[1:]))
        with pytest.raises(ValueError, match=f"{ledger}: line 2 is not a ledger record"):
            read_ledger(str(ledger))
        ledger.write_bytes(b"".join(lines) + line)
        capsys.readouterr()
        assert read_ledger(str(ledger)) == [json.loads(line) for line in lines]
        assert capsys.readouterr().err == f"warning: {ledger}: dropped a torn final line ({len(line)} bytes)\n"


class TestCliBracket:
    def test_plain_value(self, capsys):
        assert main(["bracket", "P", "0", "Q", "1", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_verbose_with_oracle(self, capsys):
        code = main(
            ["bracket", "P", "0", "Q", "1", "--n", "3", "-v", "--check-oracle", "true"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "eigen_gap = -8" in out
        assert "inner     = -1" in out
        assert "agrees" in out

    def test_rational_output(self, capsys):
        main(["bracket", "Q", "1", "Q", "3", "--n", "3"])
        assert capsys.readouterr().out.strip() == "860/3"

    def test_bad_power_is_usage_error(self, capsys):
        assert main(["bracket", "P", "0", "Q", "1", "--n", "0"]) == 2

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_value_past_the_int_to_str_digit_limit(self, capsys):
        """[Q2, Q20000]_3 is a Fraction of 8690 over 8671 digits: it prints in
        full although Python's default limit for int-to-str is 4300 digits,
        and the caller's limit is back in force once ``main`` returns."""
        limit = sys.get_int_max_str_digits()
        try:
            for verbose in ([], ["-v"]):
                sys.set_int_max_str_digits(4300)
                assert main(["bracket", "Q", "2", "Q", "20000", "--n", "3", *verbose]) == 0
                assert sys.get_int_max_str_digits() == 4300
                value = bracket(ClassicalFunction("Q", 2), ClassicalFunction("Q", 20000), 3)
                sys.set_int_max_str_digits(0)
                text = rational_str(value)
                assert [len(part) for part in text.split("/")] == [8690, 8671]
                first = capsys.readouterr().out.splitlines()[0]
                assert first == (f"[Q2,Q20000]_3 = {text}" if verbose else text)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_oracle_mismatch_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli_module, "bracket_via_oracle", lambda f, g, n: cli_module.bracket(f, g, n) + 1
        )
        argv = ["bracket", "P", "0", "Q", "1", "--n", "3", "--check-oracle", "true"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "oracle mismatch" in captured.err
        assert main(argv + ["-v"]) == 1
        assert "oracle    = 9 (MISMATCH)" in capsys.readouterr().out


class TestCliMatrix:
    def test_canonical_json(self, capsys):
        assert main(["matrix", "--canonical", "--n", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["labels"] == ["P0", "P1", "P2", "Q1", "Q2", "Q3"]
        assert any("860/3" in row for row in doc["entries"])

    def test_explicit_selection_csv(self, capsys):
        assert main(
            ["matrix", "--p", "0", "--q", "1", "--n", "1", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        assert "2" in out and "." not in out

    def test_b_block_json(self, capsys):
        main(["matrix", "--canonical", "--n", "2", "--block", "B", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["row_labels"] == ["P0", "P1"]
        assert doc["col_labels"] == ["Q0", "Q1"]

    def test_missing_selection_is_usage_error(self, capsys):
        assert main(["matrix", "--n", "2"]) == 2

    @pytest.mark.parametrize(
        "flags, named",
        [(["--p", "5", "--q", "7"], "--p, --q"), (["--p", "5"], "--p"), (["--q="], "--q")],
    )
    def test_canonical_with_explicit_indices_is_usage_error(self, flags, named, capsys):
        assert main(["matrix", "--canonical", "--n", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --canonical does not take {named}\n"

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    @pytest.mark.parametrize(
        "selection, block",
        [
            pytest.param(["--p=", "--q="], "M", id="M-no-P-no-Q"),
            pytest.param(["--p=0", "--q="], "B", id="B-no-Q"),
            pytest.param(["--p=", "--q=1"], "B", id="B-no-P"),
            pytest.param(["--p=0", "--q="], "C", id="C-no-Q"),
        ],
    )
    def test_empty_block_is_usage_error(self, selection, block, fmt, capsys):
        argv = ["matrix", "--n", "2", *selection, "--block", block, "--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the {block} block" in captured.err and "is empty" in captured.err


class TestCliVerify:
    def test_paper_tables_suite(self, capsys):
        assert main(["verify", "--suite", "paper-tables"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_rejected_by_argparse(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
        with pytest.raises(KeyError, match="unknown suite 'nope'; choose from"):
            verify_module.run_suite("nope")

    @pytest.mark.parametrize("suite, flags, name, stand_in, detail", [
        ("paper-tables", {}, "build_matrix", no_matrix, "exception: RuntimeError('no matrix')"),
        ("parity", {"n": 2, "pool": 3}, "is_li_mod_dmin", lambda sel: True,
         "unbalanced selection n=2;P=0,1;Q=0,2 has full rank"),
        ("n2-exhaustive", {"pool": 3}, "is_li_mod_dmin", lambda sel: False,
         "rank-deficient balanced selection n=2;P=0,1;Q=0,1"),
        ("oracle", {"max_index": 1, "max_n": 1}, "bracket_via_oracle", lambda f, g, n: 1,
         "[P0,P0]_1: closed 0 != oracle 1"),
    ], ids=["paper-tables", "parity", "n2-exhaustive", "oracle"])
    def test_failing_check_is_reported(self, suite, flags, name, stand_in, detail, tmp_path, capsys, monkeypatch):
        """A suite whose check finds a counterexample, or raises, reports FAIL
        with the case in its detail; the CLI exits 1 and dumps every result."""
        monkeypatch.setattr(verify_module, name, stand_in)
        results = verify_module.run_suite(suite, **flags)
        failed = [r for r in results if not r.ok]
        assert failed and {r.detail for r in failed} == {detail}
        dump = tmp_path / "failures.json"
        argv = [f"--{flag.replace('_', '-')}={value}" for flag, value in flags.items()]
        assert main(["verify", "--suite", suite, *argv, "--failure-dump", str(dump)]) == 1
        captured = capsys.readouterr()
        assert [line.split("  ")[:2] for line in captured.out.splitlines()] == [
            ["PASS" if r.ok else "FAIL", r.name] for r in results]
        assert all(f"  {detail}" in line for line in captured.out.splitlines() if line.startswith("FAIL"))
        assert f"failure report written to {dump}" in captured.err
        doc = json.loads(dump.read_text(encoding="utf-8"))
        assert [(r["name"], r["ok"], r["detail"]) for r in doc] == [(r.name, r.ok, r.detail) for r in results]

    @pytest.mark.parametrize("argv", [
        ["--suite", "canonical", "--max-n", "0"],
        ["--suite", "oracle", "--max-n", "0"],
        ["--suite", "parity", "--n", "3", "--pool", "1"],
        ["--suite", "n2-exhaustive", "--pool", "0"],
    ], ids=lambda argv: argv[1])
    def test_vacuous_suite_fails(self, argv, tmp_path, capsys):
        dump = tmp_path / "failures.json"
        assert main(["verify", *argv, "--failure-dump", str(dump)]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.strip()


    def test_failure_dump_lists_every_result(self, tmp_path, capsys, monkeypatch):
        results = [CheckResult("a", True, "fine", 0.5), CheckResult("b", False, "bad", 1.25)]
        monkeypatch.setattr(cli_module, "run_suite", lambda suite, **kwargs: results)
        dump = tmp_path / "failures.json"
        assert main(["verify", "--suite", "paper-tables", "--failure-dump", str(dump)]) == 1
        assert f"failure report written to {dump}" in capsys.readouterr().err
        doc = json.loads(dump.read_text(encoding="utf-8"))
        assert doc == [
            {"name": "a", "ok": True, "detail": "fine", "elapsed": 0.5},
            {"name": "b", "ok": False, "detail": "bad", "elapsed": 1.25},
        ]
        assert [list(entry) for entry in doc] == [["name", "ok", "detail", "elapsed"]] * 2

    def test_unwritable_failure_dump_is_reported(self, tmp_path, capsys, monkeypatch):
        """A failure report that cannot be written is said so; the exit is
        still the failed claim's 1, not an I/O error."""
        monkeypatch.setattr(cli_module, "run_suite", lambda suite, **kwargs: [CheckResult("b", False, "bad", 0.0)])
        dump = tmp_path / "no-such-dir" / "failures.json"
        assert main(["verify", "--suite", "paper-tables", "--failure-dump", str(dump)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL  b  ") and not dump.exists()
        assert captured.err.startswith("could not write failure report: ")

    @pytest.mark.parametrize("argv, message", [
        (["--suite", "canonical", "--max-n", "-1"], "--max-n must be >= 0"),
        (["--suite", "oracle", "--max-index", "-1"], "--max-index must be >= 0"),
        (["--suite", "oracle", "--max-n", "-2", "--max-index", "1"], "--max-n must be >= 0"),
        (["--suite", "parity", "--n", "-1", "--pool", "3"], "--n must be >= 1"),
        (["--suite", "parity", "--n", "0"], "--n must be >= 1"),
        (["--suite", "parity", "--pool", "-1"], "--pool must be >= 0"),
        (["--suite", "n2-exhaustive", "--pool", "-1"], "--pool must be >= 0"),
    ], ids=["canonical-max-n", "oracle-max-index", "oracle-max-n", "parity-n-negative",
            "parity-n-zero", "parity-pool", "n2-exhaustive-pool"])
    def test_out_of_range_bound_is_usage_error(self, argv, message, tmp_path, capsys):
        dump = tmp_path / "failures.json"
        assert main(["verify", *argv, "--failure-dump", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not dump.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0", "--pool", "3"], "--n must be >= 1"),
        (["--n", "-2", "--pool", "3", "--workers", "0"], "--n must be >= 1"),
        (["--n", "2", "--pool", "3", "--workers", "0"], "--workers must be >= 1"),
    ], ids=["n-zero", "n-and-workers", "workers-zero"])
    def test_sweep_out_of_range_flag_is_usage_error(self, argv, message, tmp_path, capsys):
        ledger = tmp_path / "s.jsonl"
        assert main(["sweep", *argv, "--ledger", str(ledger)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not ledger.exists()

    @pytest.mark.parametrize("argv, flags", [
        (["--suite", "paper-tables", "--max-n", "1"], ["--max-n"]),
        (["--suite", "canonical", "--max-n", "2", "--pool", "3", "--max-index", "1"],
         ["--max-index", "--pool"]),
        (["--suite", "parity", "--max-n", "2"], ["--max-n"]),
        (["--suite", "n2-exhaustive", "--n", "2"], ["--n"]),
        (["--suite", "oracle", "--pool", "3"], ["--pool"]),
    ], ids=["paper-tables", "canonical", "parity", "n2-exhaustive", "oracle"])
    def test_inapplicable_flag_rejected(self, argv, flags, tmp_path, capsys):
        dump = tmp_path / "failures.json"
        assert main(["verify", *argv, "--failure-dump", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"suite {argv[1]}" in captured.err
        assert all(flag in captured.err for flag in flags)
        assert not dump.exists()

    def test_suite_flags_come_from_its_signature(self, tmp_path, capsys, monkeypatch):
        seen = []

        def stand_in(max_n=1):
            seen.append(max_n)
            return [CheckResult("stand-in", True, f"max_n={max_n}", 0.0)]

        monkeypatch.setitem(verify_module.SUITES, "stand-in", stand_in)
        dump = tmp_path / "failures.json"
        argv = ["verify", "--suite", "stand-in", "--failure-dump", str(dump)]
        assert main([*argv, "--max-n", "2"]) == 0
        assert seen == [2] and "PASS  stand-in" in capsys.readouterr().out
        assert main([*argv, "--pool", "3"]) == 2
        assert "suite stand-in does not take --pool" in capsys.readouterr().err
        assert seen == [2] and not dump.exists()


class TestCliSweep:
    def test_pretty_and_exit_zero(self, tmp_path, capsys):
        ledger = str(tmp_path / "s.jsonl")
        code = main(["sweep", "--n", "1", "--pool", "3", "--ledger", ledger])
        out = capsys.readouterr().out
        assert code == 0
        assert "new records appended" in out
        assert "CONJECTURE-COUNTEREXAMPLE" not in out

    def test_json_lines_output(self, tmp_path, capsys):
        ledger = str(tmp_path / "s.jsonl")
        main(["sweep", "--n", "1", "--pool", "2", "--ledger", ledger, "--format", "json"])
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert all(json.loads(l)["full_rank"] for l in lines)

    def test_csv_output_is_csv(self, tmp_path, capsys):
        # each key holds commas, so it is quoted; a reader sees the header's 5 fields
        ledger = str(tmp_path / "s.jsonl")
        main(["sweep", "--n", "2", "--pool", "3", "--ledger", ledger, "--format", "csv"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["key", "n", "rank", "full_rank", "det_B"]
        assert all(len(row) == 5 for row in rows)
        assert [row[0] for row in rows[1:]] == [rec["key"] for rec in read_ledger(ledger)]
        assert [row[4] for row in rows[1:]] == [rec["det_B"] for rec in read_ledger(ledger)]

    def test_unfiltered_sweep_persists_deficient_without_failing(self, tmp_path, capsys):
        ledger = str(tmp_path / "s.jsonl")
        code = main(
            ["sweep", "--n", "2", "--pool", "3", "--no-parity-filter",
             "--ledger", ledger]
        )
        captured = capsys.readouterr()
        assert code == 0
        # every deficient record is unbalanced, as the parity theorem says
        assert "CONJECTURE-COUNTEREXAMPLE" not in captured.out + captured.err
        recs = read_ledger(ledger)
        assert any(not r["full_rank"] for r in recs)

    @pytest.mark.parametrize("fmt, stream", [("pretty", "out"), ("json", "err")])
    def test_balanced_deficient_selection_is_labelled(self, fmt, stream, tmp_path, capsys, monkeypatch):
        target = "n=2;P=0,1;Q=0,1"  # parity census (2, 2)

        def deficient_target(sel):
            rank, full, det_b = evaluate_selection(sel)
            return (3, False, "0") if sel.key() == target else (rank, full, det_b)

        monkeypatch.setattr(sweep_module, "evaluate_selection", deficient_target)
        code = main(
            ["sweep", "--n", "2", "--pool", "3", "--no-parity-filter",
             "--ledger", str(tmp_path / "s.jsonl"), "--format", fmt]
        )
        captured = capsys.readouterr()
        assert code == 0
        labelled = [
            line for line in (captured.out + captured.err).splitlines()
            if "CONJECTURE-COUNTEREXAMPLE" in line
        ]
        assert len(labelled) == 1 and target in labelled[0]
        assert labelled[0] in getattr(captured, stream)

    @pytest.mark.parametrize("n, pool", [(2, -1), (3, 1), (1, 0)])
    def test_pool_admitting_no_selection_is_usage_error(self, n, pool, tmp_path, capsys):
        ledger = tmp_path / "s.jsonl"
        code = main(["sweep", "--n", str(n), "--pool", str(pool), "--ledger", str(ledger)])
        captured = capsys.readouterr()
        assert code == 2
        assert "admits no" in captured.err and "appended" not in captured.out
        assert not ledger.exists()

    def test_empty_pool_leaves_existing_ledger_untouched(self, tmp_path, capsys):
        # a torn final line would be cut off if the ledger were read
        ledger = tmp_path / "s.jsonl"
        ledger.write_bytes(b'{"key": "n=3;P=0')
        assert main(["sweep", "--n", "3", "--pool", "1", "--ledger", str(ledger)]) == 2
        assert ledger.read_bytes() == b'{"key": "n=3;P=0'

    def test_finished_sweep_rerun_exits_zero(self, tmp_path, capsys):
        argv = ["sweep", "--n", "2", "--pool", "3", "--ledger", str(tmp_path / "s.jsonl")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("0 new records appended")

    def test_unwritable_ledger_is_io_error(self, tmp_path, capsys):
        # a path below a regular file cannot be created, even by root
        blocker = tmp_path / "regular"
        blocker.write_bytes(b"not a directory\n")
        code = main(["sweep", "--n", "2", "--pool", "3", "--ledger", str(blocker / "ledger.jsonl")])
        captured = capsys.readouterr()
        assert code == 3
        assert "ledger I/O error" in captured.err
        assert captured.out == ""
        assert blocker.read_bytes() == b"not a directory\n"

    def test_env_var_respected(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "env.jsonl"
        monkeypatch.setenv(LEDGER_ENV_VAR, str(target))
        assert main(["sweep", "--n", "1", "--pool", "2"]) == 0
        assert target.exists()


class TestCliSmallVerbs:
    def test_qfun_json(self, capsys):
        assert main(["qfun", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"log": ["-1/2", "0", "3/2"], "poly": ["0", "3/2"]}

    def test_stirling_pretty(self, capsys):
        assert main(["stirling", "3"]) == 0
        out = capsys.readouterr().out
        assert "n=3: 0 4 8 1" in out

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_stirling_negative_is_usage_error(self, fmt, capsys):
        assert main(["stirling", "-1", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n must be >= 0" in captured.err

    def test_laguerre_coeff(self, capsys):
        assert main(["laguerre-coeff", "0", "3", "2"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_laguerre_coeff_rational_k(self, capsys):
        assert main(["laguerre-coeff", "1", "2", "1/2"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    @pytest.mark.parametrize("argv", [["-3/4"], ["--", "-3/4"]], ids=["bare", "after-dashes"])
    def test_laguerre_coeff_negative_fraction_k(self, argv, capsys):
        assert main(["laguerre-coeff", "2", "4", *argv]) == 0
        assert capsys.readouterr().out.strip() == "11/8"

    @pytest.mark.parametrize("k", ["1/0", "abc"])
    def test_laguerre_coeff_bad_k_is_usage_error(self, k, capsys):
        assert main(["laguerre-coeff", "1", "2", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument k: expected a rational" in captured.err

    @pytest.mark.parametrize("argv", [
        ["qfun", "2"],
        ["stirling", "3", "--format", "json"],
        ["matrix", "--canonical", "--n", "1", "--format", "csv"],
    ], ids=lambda argv: argv[0])
    def test_os_error_is_an_io_error(self, argv, capsys, monkeypatch):
        """An OSError in a verb, here a closed output pipe, exits 3 with its text."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == 3
        assert capsys.readouterr().err == "I/O error: [Errno 32] Broken pipe\n"

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["bracket", "P", "0", "Q", "1", "--n", "3", "--check-oracle", "maybe"],
         "argument --check-oracle: expected a boolean, got 'maybe'"),
        (["matrix", "--p", "1,x", "--q", "0", "--n", "1"],
         "argument --p: expected comma-separated integers, got '1,x'"),
    ], ids=["check-oracle", "matrix-p"])
    def test_unparsable_flag_is_usage_error(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestParser:
    """``main`` builds the arguments of the verb it runs, or of every verb
    when its arguments name none; what it prints is what the full parser
    prints."""

    @pytest.mark.parametrize("argv", [[verb, "--help"] for verb in VERBS] + [
        ["--help"], ["-h", "sweep"], ["--version"], [], ["swe"], ["--", "sweep"],
        ["sweep", "--n", "2"], ["sweep", "--n", "2", "--pool", "3", "--bogus"], ["sweep", "--version"],
        ["sweep", "--n", "2", "--pool", "3", "--format", "xml"], ["bracket", "X", "0", "Q", "1", "--n", "3"],
        ["verify", "--suite", "nope"], ["stirling", "3", "extra"], ["laguerre-coeff", "1", "2"],
    ], ids=" ".join)
    def test_output_matches_the_full_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exit:
            build_parser().parse_args(argv)
        full = (exit.value.code or 0, *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == full

    def test_builds_only_the_verb_it_runs(self, monkeypatch, capsys):
        built, build = [], cli_module.build_parser
        monkeypatch.setattr(cli_module, "build_parser", lambda verbs: built.append(verbs) or build(verbs))
        for argv in (["stirling", "2"], ["--version"], ["stirl", "2"], ["-h", "stirling"]):
            main(argv)
        assert built == [["stirling"], VERBS, VERBS, VERBS]


def run_fresh(code: str, cwd) -> None:
    """Run ``code`` in a fresh interpreter, warnings as errors, importing the
    package from this checkout's ``src``; it passes if it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", textwrap.dedent(code)],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_exits_with_main_code(tmp_path):
    """``python -m gkn_legendre.cli`` runs ``main`` in a fresh interpreter
    and exits with its code."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "gkn_legendre.cli", "--version"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{__version__}\n", "")


class TestStartUp:
    """Every verb starts without the process pool or the clock: only a sweep
    with more than one worker imports the pool, on first use."""

    def test_cli_import_loads_neither_pool_nor_clock(self, tmp_path):
        run_fresh("""
            import sys
            import gkn_legendre.cli
            from gkn_legendre import sweep
            loaded = {"concurrent.futures", "multiprocessing", "datetime"} & set(sys.modules)
            assert not loaded, loaded
            pool = sweep.ProcessPoolExecutor
            import concurrent.futures
            assert pool is concurrent.futures.ProcessPoolExecutor
            assert vars(sweep)["ProcessPoolExecutor"] is pool
            assert not hasattr(sweep, "NoSuchName")
        """, tmp_path)

    def test_two_worker_sweep_imports_the_pool_on_first_use(self, tmp_path):
        run_fresh("""
            import hashlib, io, json, sys
            from contextlib import redirect_stdout
            from gkn_legendre import cli, sweep

            def sweep_digest(workers):
                ledger = f"w{workers}.jsonl"
                argv = ["sweep", "--n", "2", "--pool", "4", "--workers", str(workers), "--ledger", ledger]
                with redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                with open(ledger, encoding="utf-8") as fh:
                    records = [json.loads(line) for line in fh]
                lines = sorted(f"{r['key']}|{r['rank']}|{r['det_B']}\\n" for r in records)
                return len(records), hashlib.sha256("".join(lines).encode()).hexdigest()

            serial = sweep_digest(1)
            assert "concurrent.futures" not in sys.modules
            assert "ProcessPoolExecutor" not in vars(sweep)
            assert sweep_digest(2) == serial and serial[0] > 2
            import concurrent.futures
            assert vars(sweep)["ProcessPoolExecutor"] is concurrent.futures.ProcessPoolExecutor
        """, tmp_path)
