"""The modules of `lcone` import one way, in the layer order below, and
only at module level; every public name of theirs has a caller outside the
tests."""

import ast
from collections import Counter
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


ROOT = SRC.parent.parent
CALLERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + \
    [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.stem.startswith("test_")]
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS}


def _uses(node) -> Counter:
    """How often each name (`ast.Name`), attribute (`ast.Attribute`) and
    qualified attribute (`Class.attr`, kind "qualified") is used under
    `node`."""
    uses = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses[ast.Name, n.id] += 1
        elif isinstance(n, ast.Attribute):
            uses[ast.Attribute, n.attr] += 1
            if isinstance(n.value, ast.Name):
                uses["qualified", f"{n.value.id}.{n.attr}"] += 1
    return uses


def _is_static(item) -> bool:
    return any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
               for dec in item.decorator_list)


def _public_names():
    """(label, kind, name, definition) for every public function and class
    of `src/lcone`, used as an `ast.Name`, every public static method of a
    public class, used as `Class.method`, and every other public method of
    a public class, used as an `ast.Attribute`."""
    for path, tree in TREES.items():
        if path.parent != SRC or path.stem == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", ast.Name, node.name, node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            label = f"{path.stem}.{node.name}.{item.name}"
                            if _is_static(item):
                                yield label, "qualified", f"{node.name}.{item.name}", item
                            else:
                                yield label, ast.Attribute, item.name, item


def test_every_public_name_has_a_caller():
    # A caller is code of the library, a demo or the benchmark harness, or a
    # re-export by `lcone/__init__.py`; uses inside a name's own definition
    # do not count.  A public name that only the tests use belongs in
    # `tests/oracles.py`.
    uses = sum((_uses(tree) for tree in TREES.values()), Counter())
    uses.update((ast.Name, node.name) for node in ast.walk(TREES[SRC / "__init__.py"])
                if isinstance(node, ast.alias))
    unused = [label for label, kind, name, definition in _public_names()
              if uses[kind, name] == _uses(definition)[kind, name]]
    assert unused == []


def test_caches_are_the_five_the_benchmark_clears():
    # Every item of the benchmark starts from cold caches: it clears these
    # five `lru_cache`s before each call.  A sixth process-wide cache in
    # `src/lcone` (`functools.lru_cache` or `functools.cache`; a
    # `cached_property` lives and dies with its instance) would carry work
    # from one item to the next.
    cached = sorted(f"{path.stem}.{fn.name}"
                    for path, tree in TREES.items() if path.parent == SRC
                    for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                    for dec in fn.decorator_list
                    if ast.unparse(dec).split("(")[0].split(".")[-1] in ("lru_cache", "cache"))
    assert cached == ["classify._candidate_key", "equiv._form_canonical", "exact.ldlt",
                      "lattice.characteristic_set", "scone._ray_rank"]
