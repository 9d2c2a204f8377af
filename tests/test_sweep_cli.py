import json

import pytest

import gkn_legendre.cli as cli_module
import gkn_legendre.matrices as matrices_module
import gkn_legendre.sweep as sweep_module
from gkn_legendre.cli import main
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

    def test_deterministic_order_of_keys(self):
        keys = [s.key() for s in enumerate_selections(2, 4)]
        assert len(set(keys)) == len(keys)


class TestEvaluate:
    def test_canonical_n2(self):
        sel = IndexSelection((0, 1), (0, 1), 2)
        key, rank, full, det_b = evaluate_selection(sel)
        assert key == "n=2;P=0,1;Q=0,1"
        assert rank == 4 and full
        assert det_b == "-16"

    def test_unbalanced_is_deficient(self):
        _, rank, full, det_b = evaluate_selection(IndexSelection((0, 2), (0, 2), 2))
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
            key, rank, full, det_b = evaluate_selection(sel)
            return (key, 3, False, "0") if key == target else (key, rank, full, det_b)

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

    @pytest.mark.parametrize("k", ["1/0", "abc"])
    def test_laguerre_coeff_bad_k_is_usage_error(self, k, capsys):
        assert main(["laguerre-coeff", "1", "2", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument k: expected a rational" in captured.err

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
