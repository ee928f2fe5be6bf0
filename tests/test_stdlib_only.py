"""The runtime imports nothing outside the standard library."""

import ast
import sys
from collections import Counter
from pathlib import Path

import bfree

SOURCES = sorted(Path(bfree.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "families.py", "proximality.py"}


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside bfree
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_module_level_import_is_used():
    # a name imported at module level and never read is dead weight that
    # every start-up compiles
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                    if name not in read
                ]
    assert unused == []


def test_every_private_definition_is_read():
    # a private function, method, class or module constant that nothing in
    # the package reads, outside its own body, is dead code a refactor left
    def reads(tree):
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
        )

    def definitions(tree):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node, node.name
            elif isinstance(node, ast.Assign):
                yield from ((node, target.id) for target in node.targets if isinstance(target, ast.Name))
            if isinstance(node, ast.ClassDef):
                yield from ((item, item.name) for item in node.body if isinstance(item, ast.FunctionDef))

    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    everywhere = sum(map(reads, trees.values()), Counter())
    unread = [
        f"{name}:{node.lineno} {defined}"
        for name, tree in trees.items()
        for node, defined in definitions(tree)
        if defined.startswith("_") and not defined.startswith("__") and everywhere[defined] == reads(node)[defined]
    ]
    assert unread == []
