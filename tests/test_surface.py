"""Every public module-level name of `laha` has a caller outside the tests.

A name counts as used where code outside its own definition, in another
part of `src/laha`, in `bench/` or in `scripts/`, names that definition
itself: as an attribute of a name bound to its module, as a name imported
from its module, as a bare name in the module that defines it, or as a
string that is exactly the name (the bench tracer wraps functions by their
attribute names).  So `np.tanh` is no use of a `laha` `tanh`.  Docstrings
and comments do not count.  A private `_name` counts as used only where
other code in `src/laha` names it.  Dunder names such as `__version__` are
not checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# module.name -> why it stays without a caller outside the tests
KEPT = {
    "data.load_corpus": "the reader of the documented JSON-lines corpus format, whose "
                        "malformed lines the tests hold to typed errors",
    "training.save_checkpoint": "writes the Checkpoint that load_checkpoint returns, half of "
                                "resume-equals-uninterrupted; the one caller of "
                                "data.atomic_write_bytes",
    "training.load_checkpoint": "returns the Checkpoint that save_checkpoint writes, the other "
                                "half of resume-equals-uninterrupted; the reader of the "
                                "checkpoint fixture that must keep loading",
}


def _definitions(statement):
    """The module-level names one top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        yield statement.name
    elif isinstance(statement, ast.Assign):
        yield from (target.id for target in statement.targets if isinstance(target, ast.Name))
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        yield statement.target.id


def _imports(tree):
    """(local name, dotted path) of each `laha` module or name that an import in `tree` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "laha":  # `import laha.x` binds laha, `as y` laha.x
                    yield (alias.asname, alias.name) if alias.asname else ("laha", "laha")
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # a relative import is one from the flat package
                source = f"laha.{source}".rstrip(".")
            if source.split(".")[0] == "laha":
                for alias in node.names:
                    yield alias.asname or alias.name, f"{source}.{alias.name}"


def _uses(tree, bound, module=None):
    """The dotted `laha` paths and the strings that the code under `tree` names.

    `bound` maps local names to the paths their imports bind; in the code of `laha` module
    `module` any other bare name is that module's own.
    """
    def path(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id, module and f"laha.{module}.{node.id}")
        base = isinstance(node, ast.Attribute) and path(node.value)
        return base and f"{base}.{node.attr}"

    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and path(node):
            yield path(node)
        elif isinstance(node, ast.ImportFrom):  # importing a name is a use of it
            yield from (dotted for _, dotted in _imports(node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _unused(package: dict, outside: list) -> list:
    """`module.name` of each definition in `package` (module -> source) that the code of
    `package` outside that definition does not name, nor, for a public name, any `outside`
    source."""
    inside, used = set(), set()
    for tree in map(ast.parse, outside):
        used.update(_uses(tree, dict(_imports(tree))))
    trees = {module: ast.parse(source) for module, source in package.items()}
    for module, tree in trees.items():
        bound = dict(_imports(tree))
        for statement in tree.body:
            own = set(_definitions(statement))
            inside.update(set(_uses(statement, bound, module)) - own
                          - {f"laha.{module}.{name}" for name in own})
    used |= inside
    return [f"{module}.{name}" for module, tree in trees.items() for statement in tree.body
            for name in _definitions(statement) if not name.startswith("__")
            and not {name, f"laha.{module}.{name}"} & (inside if name[0] == "_" else used)]


def test_every_public_name_has_a_caller_outside_the_tests():
    package = {path.stem: path.read_text() for path in sorted(ROOT.glob("src/laha/*.py"))}
    outside = [path.read_text()
               for path in sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("scripts/*.py"))]
    unused = _unused(package, outside)
    assert [name for name in unused if name not in KEPT] == [], (
        "names that only the tests call: give each a caller, or delete it")
    assert [name for name in KEPT if name not in unused] == [], (
        "a kept name has a caller now: take it off KEPT")


TANH = "import numpy as np\n\n\ndef tanh(a):\n    return np.tanh(a)\n"
PRIVATE = TANH.replace("def tanh", "def _tanh")


# a `tanh` or `_tanh` in `numeric`, and each form of caller in a bench script or in the package
@pytest.mark.parametrize("package, outside, unused", [
    ({"numeric": TANH}, ["import numpy as np\n\nnp.tanh(0.0)\n"], ["numeric.tanh"]),
    ({"numeric": TANH}, ["from laha import numeric\n\nnumeric.tanh(0.0)\n"], []),
    ({"numeric": TANH}, ["import laha.numeric as nm\n\nnm.tanh(0.0)\n"], []),
    ({"numeric": TANH}, ["import laha.numeric\n\nlaha.numeric.tanh(0.0)\n"], []),
    ({"numeric": TANH}, ["from laha.numeric import tanh\n"], []),
    ({"numeric": TANH}, ["wrap(numeric, 'tanh')\n"], []),
    ({"numeric": TANH + "\n\ndef gate(a):\n    return tanh(a)\n"}, [], ["numeric.gate"]),
    ({"numeric": "def tanh(a):\n    return tanh(a)\n"}, [], ["numeric.tanh"]),
    ({"numeric": TANH, "model": "from .numeric import tanh\n"}, [], []),
    ({"numeric": TANH, "model": "from . import numeric as nm\n\nnm.tanh(0.0)\n"}, [], []),
    ({"numeric": TANH, "model": "tanh = None\n\ntanh(0.0)\n"}, [], ["numeric.tanh"]),
    ({"numeric": PRIVATE, "model": "from .numeric import _tanh\n"}, [], []),
    ({"numeric": PRIVATE}, ["from laha.numeric import _tanh\n"], ["numeric._tanh"]),
    ({"numeric": PRIVATE}, ["wrap(numeric, '_tanh')\n"], ["numeric._tanh"]),
    ({"numeric": PRIVATE + "\n\ndef gate(a):\n    return _tanh(a)\n"}, [], ["numeric.gate"]),
    ({"numeric": "def _tanh(a):\n    return _tanh(a)\n"}, [], ["numeric._tanh"]),
    ({"numeric": "__version__ = '0'\n"}, [], []),
], ids=["numpy's", "module attribute", "module alias", "package attribute", "imported name",
        "string", "own module", "own definition", "relative import", "relative module",
        "other module's", "private in the package", "private outside it alone",
        "private string outside it alone", "private in its own module",
        "private in its own definition", "dunder"])
def test_a_use_names_the_laha_definition_itself(package, outside, unused):
    assert _unused(package, outside) == unused
