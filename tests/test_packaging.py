"""Package metadata and documentation that must not drift from the code."""

import doctest
import importlib
import inspect
import re
from pathlib import Path

import pytest

import gkn_legendre
from gkn_legendre.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == gkn_legendre.__version__


ENGINE_MODULES = ("exactnum", "classical", "brackets", "matrices", "oracle", "sweep")

# every name the package published while it listed them by hand; none may go
PUBLISHED = {
    "PiPair", "harmonic", "harmonic2", "eigenvalue", "legendre_stirling",
    "laguerre_ld_coefficient", "rational_str",
    "Poly", "ClassicalFunction", "QRepresentation", "legendre_p", "legendre_q",
    "inner_pq", "inner_qq", "q_norm_squared",
    "bracket", "bracket_decomposed",
    "IndexSelection", "BracketMatrix", "canonical_selection", "build_matrix", "b_block",
    "c_block", "rank_exact", "det_exact", "is_li_mod_dmin", "parity_census",
    "LogRat", "DivergentLimit", "apply_ell_n", "sesquilinear_at", "endpoint_limit",
    "bracket_via_oracle", "fn_condition_check", "classical_to_lograt",
    "RunConfig", "SweepRecord", "run_sweep",
}


def test_namespace_is_the_union_of_the_engine_modules():
    modules = [importlib.import_module(f"gkn_legendre.{name}") for name in ENGINE_MODULES]
    names = [name for module in modules for name in module.__all__]
    assert gkn_legendre.__all__ == ["__version__"] + names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(gkn_legendre, name) is getattr(module, name), name
    assert len(PUBLISHED) == 38
    assert PUBLISHED <= set(gkn_legendre.__all__)


def test_readme_library_usage_runs_as_shown():
    """README's "Library usage" examples are doctests with their stated
    results; the count keeps a block that stops being a doctest from passing."""
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert (result.failed, result.attempted) == (0, 11)


def test_readme_lists_every_verify_suite_and_its_flags():
    """README's "Verification suites" table names exactly ``verify.SUITES``,
    and its flag sentence pairs each flag with the suites whose signatures
    take that parameter."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Verification suites", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE) == list(SUITES)
    sentence = text.split("`--max-n` goes with", 1)[1].split(".", 1)[0]
    listed, flag = {"--max-n": set()}, "--max-n"
    for token in re.findall(r"`([^`]+)`", sentence):
        if token.startswith("--"):
            listed[flag := token] = set()
        else:
            listed[flag].add(token)
    wanted = {}
    for name, suite in SUITES.items():
        for param in inspect.signature(suite).parameters:
            wanted.setdefault("--" + param.replace("_", "-"), set()).add(name)
    assert listed == wanted
