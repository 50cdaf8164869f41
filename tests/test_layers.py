"""The modules of `lcone` import one way, in the layer order below, and
only at module level."""

import ast
from pathlib import Path

import pytest

LAYERS = ("exact", "lattice", "polyhedral", "delaunay", "scone", "equiv", "classify", "cli")
SRC = Path(__file__).resolve().parent.parent / "src" / "lcone"


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def test_layers_are_every_module():
    assert sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_no_import_inside_a_function(name):
    inside = [f"{fn.name}:{node.lineno}"
              for fn in ast.walk(_tree(name))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []


@pytest.mark.parametrize("name", LAYERS)
def test_relative_imports_name_earlier_layers(name):
    earlier = set(LAYERS[:LAYERS.index(name)])
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, f"line {node.lineno}"
            if node.module is None:
                # `from . import x`: the package itself, whose `__init__`
                # sets `__version__` before it imports any module.
                assert [a.name for a in node.names] == ["__version__"], f"line {node.lineno}"
            else:
                assert node.module in earlier, f"line {node.lineno}: {node.module}"
        elif isinstance(node, ast.Import):
            assert not any(a.name == "lcone" or a.name.startswith("lcone.")
                           for a in node.names), f"line {node.lineno}"
