"""The package's import layering, read from the source with ``ast``.

``matrices`` owns selections and the parity rule, so it depends on none of
the modules built on it; ``verify`` reaches selections through ``matrices``
and depends on neither ``sweep`` nor the CLI.  The ``oracle`` stays
independent of the closed form: it imports none of ``brackets``,
``matrices``, ``sweep``, ``verify`` or the CLI.  The argument rule and the
number rule are each raised in ``exactnum`` alone, and the memo rule is read
the same way: the only module-level containers a function grows are the
recurrence tables.
"""

import ast
from pathlib import Path

import pytest

import gkn_legendre

PACKAGE = Path(gkn_legendre.__file__).parent


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> set[str]:
    """The sibling modules ``module`` imports, relatively or by full name."""
    names = []
    for node in ast.walk(parse(module)):
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


def type_errors_saying(module: str, phrase: str) -> int:
    """How many ``raise TypeError(...)`` in ``module`` have a message containing ``phrase``."""
    return sum(
        isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "TypeError"
        and any(isinstance(part, ast.Constant) and phrase in str(part.value) for part in ast.walk(node.exc))
        for node in ast.walk(parse(module))
    )


OTHERS = sorted({path.stem for path in PACKAGE.glob("*.py")} - {"exactnum"})


def test_argument_rule_is_stated_once():
    """Only ``exactnum.require_int`` raises the argument rule's TypeError."""
    assert type_errors_saying("exactnum", "must be an int") == 1
    assert {module: type_errors_saying(module, "must be an int") for module in OTHERS} == dict.fromkeys(OTHERS, 0)


def denominator_reads(module: str) -> int:
    return sum(isinstance(node, ast.Attribute) and node.attr == "denominator" for node in ast.walk(parse(module)))


def test_number_rule_is_stated_once():
    """Only ``exactnum`` raises the number rule's TypeError (in
    ``require_exact``) and reads a ``.denominator``: every other module
    checks and clears exact values through it."""
    assert type_errors_saying("exactnum", "must be int or Fraction") == 1
    assert denominator_reads("exactnum") > 0
    assert {module: (type_errors_saying(module, "must be int or Fraction"), denominator_reads(module))
            for module in OTHERS} == dict.fromkeys(OTHERS, (0, 0))


GROWERS = {"append", "extend", "insert", "setdefault", "update", "add"}
CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def targets(node) -> list:
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def grown_globals(module: str) -> set[str]:
    """The module-level containers (a list, dict or set) that a function of
    ``module`` grows: by a growing method, by a store to a subscript, or as
    the argument of one of the module's own functions (as in
    ``_extend(_p_table, k)``)."""
    tree = parse(module)
    bound, helpers, grown = set(), set(), set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            helpers.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(node.value, CONTAINERS)
            or getattr(getattr(node.value, "func", None), "id", None) in {"list", "dict", "set"}
        ):
            bound |= {target.id for target in targets(node) if isinstance(target, ast.Name)}
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in GROWERS and isinstance(node.func.value, ast.Name):
                    grown.add(node.func.value.id)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in helpers:
                grown |= {arg.id for arg in node.args if isinstance(arg, ast.Name)}
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                grown |= {target.value.id for target in targets(node)
                          if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)}
    return grown & bound


def test_only_recurrences_are_grown_tables():
    """The memo rule: a direct formula is a per-key ``functools.cache``, so
    the only module-level containers a function grows are the recurrence
    tables, each entry of which needs the one before."""
    grown = {module: grown_globals(module) for module in (path.stem for path in PACKAGE.glob("*.py"))}
    assert {module: names for module, names in grown.items() if names} == {
        "classical": {"_p_table", "_v_table"},
        "exactnum": {"_ls_rows"},
    }


def slice_assigners(module: str) -> set[str]:
    """The functions of ``module`` that store to a slice of a list."""
    return {
        f"{module}.{func.name}"
        for func in ast.walk(parse(module)) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func) if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in targets(node) if isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Slice)
    }


def test_one_polynomial_product_loop():
    """``classical.add_product`` is the one product loop: no other function
    of ``classical`` or ``oracle`` adds into a slice of a coefficient list."""
    assert slice_assigners("classical") | slice_assigners("oracle") == {"classical.add_product"}
