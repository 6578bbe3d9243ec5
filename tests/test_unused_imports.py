"""Every name a module of the package imports or keeps private is used in that module.

No linter runs on this repository, so this is the check that an import or
a private helper left behind by a refactor does not stay. An imported name
counts as used when the module reads it anywhere or lists it in
``__all__``; ``from __future__`` imports are directives, not names. A
module-level function, class or constant whose name has one leading
underscore must be read somewhere in its own module.
"""

import ast
import pathlib

import pytest

import vqsct

_MODULES = sorted(pathlib.Path(vqsct.__file__).parent.glob("*.py"))


def _unused_imports(tree) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(imported - used)


def _unused_privates(tree) -> list[str]:
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - read)


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_module_uses_every_private_name_it_defines(path):
    assert _unused_privates(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport json\nimport os.path\n"
                     "from .errors import FormatError, ShapeError as SE, VqsctError\n"
                     "__all__ = ['VqsctError']\nos.path.join(SE)\n")
    assert _unused_imports(tree) == ["FormatError", "json"]


def test_unused_private_name_is_found():
    tree = ast.parse("__all__ = ['f']\n_A = 1\n_B: int = 2\n_C, D = 3, 4\n_used = 5\n"
                     "def _helper():\n    return _used\n"
                     "class _Shape:\n    pass\n"
                     "def f(_arg):\n    _local = _arg\n    return _local\n")
    assert _unused_privates(tree) == ["_A", "_B", "_C", "_Shape", "_helper"]
