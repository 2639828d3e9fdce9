"""Every function, class and method that `src/virmod` defines is used.

The scan parses `src/virmod/*.py` and `bench/*.py` with `ast` and collects
each top-level function and class of `src/virmod` and each method of those
classes that is not a dunder.  A definition counts as used when its name
occurs anywhere in either tree as a name, an attribute or an imported name.
Tests do not count: code that only a test calls gets deleted, its test with
it, or moved into the test.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "virmod").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module):
    """The top-level functions and classes of a module, and the methods of
    its classes that are not dunders, as (qualified name, name)."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def references(tree: ast.Module) -> set[str]:
    """Every name a module reads, every attribute it names and every name it
    imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_scan_sees_both_trees():
    assert {p.name for p in SRC} >= {"cli.py", "exact.py", "virasoro.py", "weights.py"}
    assert {p.name for p in BENCH} >= {"run.py", "worker.py"}


def test_every_definition_in_src_is_referenced():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC + BENCH}
    used = set().union(*map(references, trees.values()))
    unused = [
        f"{path.name}: {qualified}"
        for path in SRC
        for qualified, name in definitions(trees[path])
        if name not in used
    ]
    assert unused == []
