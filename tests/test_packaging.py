"""Package metadata that must not drift from the code."""

from pathlib import Path

import pytest

import gkn_legendre

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == gkn_legendre.__version__
