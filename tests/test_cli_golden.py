"""Golden output of the CLI verbs that no other test prints in full.

Each file under ``golden/cli`` is the exact text that one
``gkn-legendre`` command writes to one stream; the other stream is empty.
The sweep writes into a fresh ledger, so its stdout holds no timestamp.
``sweep-n2-pool3.jsonl`` is the ledger that sweep writes, with each
record's timestamp masked.
"""

import re
from pathlib import Path

import pytest

from gkn_legendre.cli import main
from gkn_legendre.sweep import LEDGER_ENV_VAR

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

# golden file -> (argv, exit code, stream the golden holds)
CASES = {
    "sweep-n2-pool3.csv": (["sweep", "--n", "2", "--pool", "3", "--format", "csv"], 0, "out"),
    "qfun-3.pretty": (["qfun", "3"], 0, "out"),
    "stirling-4.json": (["stirling", "4", "--format", "json"], 0, "out"),
    "bracket-P0-Q1-n3.verbose": (
        ["bracket", "P", "0", "Q", "1", "--n", "3", "-v", "--check-oracle", "false"], 0, "out"
    ),
    "matrix-no-selection.stderr": (["matrix", "--n", "3"], 2, "err"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys, monkeypatch):
    argv, code, stream = CASES[name]
    monkeypatch.setenv(LEDGER_ENV_VAR, str(tmp_path / "ledger.jsonl"))
    assert main(argv) == code
    captured = capsys.readouterr()
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert (captured.out, captured.err) == ((expected, "") if stream == "out" else ("", expected))


def test_sweep_ledger_matches_golden(tmp_path):
    """Key order, separators, the det_B text and one stamp per record."""
    ledger = tmp_path / "ledger.jsonl"
    assert main(["sweep", "--n", "2", "--pool", "3", "--ledger", str(ledger)]) == 0
    masked, stamps = re.subn(rb'"timestamp": "[^"]*"', b'"timestamp": "<timestamp>"', ledger.read_bytes())
    assert masked == (GOLDEN / "sweep-n2-pool3.jsonl").read_bytes()
    assert stamps == 18 and len(set(re.findall(rb'"timestamp": "[^"]*"', ledger.read_bytes()))) == 1
