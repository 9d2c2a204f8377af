"""Package metadata that must not drift from the code."""

import importlib
from pathlib import Path

import pytest

import gkn_legendre

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
