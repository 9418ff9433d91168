"""src/ holds only what the pipeline, the CLI or the benchmark calls.

Every function, class and method defined in src/rowsplit must be
referenced somewhere outside its own definition: by name, attribute or
import in src/, rsbench/*.py or scripts/.  Tests do not count, so code
that only tests call fails here, and neither does the package's own
re-export in __init__.py: a name in rowsplit.__all__ that nothing calls
counts as used when README.md documents it.
"""

import ast
import re
from pathlib import Path

import rowsplit

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def _references(tree):
    """(name, node) for every Name, Attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node


def uncalled_names(root):
    """Names defined in root/src/rowsplit with no reference outside their definition."""
    src = sorted((root / "src" / "rowsplit").glob("*.py"))
    others = sorted((root / "rsbench").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in src + others}
    reexports = root / "src" / "rowsplit" / "__init__.py"
    refs = {}
    for path, tree in trees.items():
        if path != reexports:
            for name, node in _references(tree):
                refs.setdefault(name, []).append(node)
    exported, readme = set(rowsplit.__all__), (root / "README.md").read_text()
    missing = []
    for path in src:
        for d in _definitions(trees[path]):
            own = set(map(id, ast.walk(d)))
            if any(id(node) not in own for node in refs.get(d.name, [])):
                continue
            if d.name in exported and re.search(rf"\b{d.name}\b", readme):
                continue
            missing.append(f"{path.name}:{d.lineno} {d.name}")
    return missing


def test_every_src_name_has_a_caller():
    assert uncalled_names(ROOT) == []
