"""The runtime imports nothing outside the standard library."""

import ast
import sys
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
