"""Design rules of the package, read off its syntax trees: the runtime
imports only the standard library and itself, keeps no ``assert`` (which
``python -O`` strips) and no ``logging``, no module imports another
module's private (``_``-prefixed) name, and no function, class or method
lacks a caller in the package or an export."""

import ast
import sys
from collections import Counter
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


# Definitions that stand without a caller in the package or an export, each
# with the reason it stays.
UNCALLED = {
    "abstraction.PolicyAbstraction.out_edges": "the public per-edge view of a model, "
                                               "which perfbench's checks, demo 02 and "
                                               "the test oracles read",
    "query.when_partition": "perfbench's traced run calls it, to time the when "
                            "partition apart from its minimization",
}


def referenced_names(node):
    """Every name and attribute that ``node`` says, once per occurrence."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def definitions(module: str, tree):
    """(qualified name, bare name, node) of every top-level function and class
    of ``module``, and of every non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def test_every_definition_has_a_caller_or_an_export():
    # a name counts as used when some Name or attribute elsewhere in the
    # package says it, so two definitions of one name share their callers
    trees = {p.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
             .removesuffix(".__init__"): ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in MODULES}
    said = sum(map(referenced_names, trees.values()), Counter())
    exported = {alias.name for module in ("__init__", "envs") for node in trees[module].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uncalled = [qualified for module, tree in trees.items()
                for qualified, name, node in definitions(module, tree)
                if said[name] == referenced_names(node)[name] and name not in exported]
    assert sorted(uncalled) == sorted(UNCALLED)
