"""The package's import layering, read from the source with ``ast``.

``matrices`` owns selections and the parity rule, so it depends on none of
the modules built on it; ``verify`` reaches selections through ``matrices``
and depends on neither ``sweep`` nor the CLI.  The ``oracle`` stays
independent of the closed form: it imports none of ``brackets``,
``matrices``, ``sweep``, ``verify`` or the CLI.
"""

import ast
from pathlib import Path

import pytest

import gkn_legendre

PACKAGE = Path(gkn_legendre.__file__).parent


def package_imports(module: str) -> set[str]:
    """The sibling modules ``module`` imports, relatively or by full name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["gkn_legendre" if node.level else "", node.module]))
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("gkn_legendre.")}


def test_reader_sees_known_imports():
    assert {"matrices", "oracle"} <= package_imports("verify")
    assert {"matrices", "sweep", "verify"} <= package_imports("cli")
    assert {"classical", "exactnum"} <= package_imports("oracle")


@pytest.mark.parametrize("module, forbidden", [
    ("verify", {"sweep", "cli"}),
    ("matrices", {"sweep", "verify", "oracle", "cli"}),
    ("oracle", {"brackets", "matrices", "sweep", "verify", "cli"}),
], ids=["verify", "matrices", "oracle"])
def test_module_does_not_import(module, forbidden):
    assert not package_imports(module) & forbidden
