"""Golden output of the ``matrix`` verb: every block in every format.

The files under ``golden/matrix`` are the exact stdout of
``gkn-legendre matrix <selection> --block <block> --format <format>``, for
the canonical n = 3 selection and the paper's large-index n = 4 selection.
"""

from pathlib import Path

import pytest

from gkn_legendre.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "matrix"

SELECTIONS = {
    "canonical": ["--canonical", "--n", "3"],
    "large": ["--p", "17,42,49,125", "--q", "24,82,97,178", "--n", "4"],
}


@pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
@pytest.mark.parametrize("block", ["M", "B", "C"])
@pytest.mark.parametrize("selection", sorted(SELECTIONS))
def test_matrix_output_matches_golden(selection, block, fmt, capsys):
    argv = ["matrix", *SELECTIONS[selection], "--block", block, "--format", fmt]
    assert main(argv) == 0
    expected = (GOLDEN / f"{selection}-{block}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
