"""Every public module-level name of `laha` has a caller outside the tests.

A name counts as used when the code of another part of `src/laha` (not
its own definition), of `bench/` or of `scripts/` names it: as a name, an
attribute, an import, or a string that is exactly the name (the bench
tracer wraps functions by their attribute names).  Docstrings and
comments do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module.name -> why it stays without a caller outside the tests
KEPT = {
    "data.load_corpus": "the reader of the documented JSON-lines corpus format, whose "
                        "malformed lines the tests hold to typed errors",
    "training.save_checkpoint": "half of resume-equals-uninterrupted, and the one caller of "
                                "data.atomic_write_bytes",
    "training.load_checkpoint": "the other half of resume-equals-uninterrupted, and the reader "
                                "of the checkpoint fixture that must keep loading",
    "metrics.fusion_weight_histogram": "the gate-weight histogram that the planned ablation of "
                                       "the fusion gate reports (ROADMAP item 1)",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _names(tree, skip=None):
    """Every identifier the code under `tree` refers to, leaving out the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        stack.extend(ast.iter_child_nodes(node))


def _unused():
    package = {path: ast.parse(path.read_text()) for path in sorted(ROOT.glob("src/laha/*.py"))}
    outside = set()
    for path in sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("scripts/*.py")):
        outside.update(_names(ast.parse(path.read_text())))
    unused = []
    for path, tree in package.items():
        for name, node in _definitions(tree):
            if name.startswith("_") or name in outside:
                continue
            if not any(name in set(_names(other, skip=node)) for other in package.values()):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _unused()
    assert [name for name in unused if name not in KEPT] == [], (
        "public names that only the tests call: give each a caller, or delete it")
    assert [name for name in KEPT if name not in unused] == [], (
        "a kept name has a caller now: take it off KEPT")
