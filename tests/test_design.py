"""Design rules of the package, read off its syntax trees: the runtime
imports only the standard library and itself, keeps no ``assert`` (which
``python -O`` strips) and no ``logging``, and no module imports another
module's private (``_``-prefixed) name."""

import ast
import sys
from pathlib import Path

import pytest

import mapex

PACKAGE = Path(mapex.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_modules(tree):
    """(top-level module name, line) of every import; a relative import is mapex's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "mapex" if node.level else node.module.split(".")[0], node.lineno


def test_every_module_is_checked():
    assert {"cli.py", "envs/base.py"} <= {p.relative_to(PACKAGE).as_posix()
                                            for p in MODULES}


@pytest.fixture(params=MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def tree(request):
    return ast.parse(request.param.read_text(encoding="utf-8"), str(request.param))


def test_imports_only_the_standard_library_and_mapex(tree):
    outside = [(top, line) for top, line in imported_modules(tree)
               if top != "mapex" and top not in sys.stdlib_module_names]
    assert outside == []


def test_no_assert_statements(tree):
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_no_logging(tree):
    assert [line for top, line in imported_modules(tree) if top == "logging"] == []


def test_no_private_name_of_another_module(tree):
    private = [(node.lineno, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
