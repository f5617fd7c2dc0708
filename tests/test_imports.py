"""Every name an import binds in `src/laha`, `scripts/` or `tests/` is used in its file.

A name counts as used when the file loads it anywhere (as a bare name or
the head of an attribute chain).  `from __future__` imports are exempt:
they switch on a compiler feature and bind nothing that is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/laha/*.py")) + sorted(ROOT.glob("scripts/*.py")) \
    + sorted(ROOT.glob("tests/*.py"))


def _imported(tree):
    """(name, line) for every name an import statement in `tree` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _unused_imports():
    unused = []
    for path in FILES:
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in _imported(tree) if name not in loaded]
    return unused


def test_the_scan_covers_the_package_scripts_and_tests():
    assert {path.parent.name for path in FILES} == {"laha", "scripts", "tests"}


def test_every_imported_name_is_used():
    assert _unused_imports() == [], "imports that bind a name the file never uses: delete them"
