"""Every name a module of the package imports or keeps private is used in that module,
and every name it exports exists.

No linter runs on this repository, so this is the check that an import or
a private helper left behind by a refactor does not stay. An imported name
counts as used when the module reads it anywhere or lists it in
``__all__``; ``from __future__`` imports are directives, not names. A
module-level function, class or constant whose name has one leading
underscore must be read somewhere in its own module. Every string in
``__all__`` must name something the module defines or imports at its top
level; a starred entry (the package's lazily loaded submodules) is not a
string and is not checked, but every module but ``errors`` must be one of
those submodules.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import vqsct

_MODULES = sorted(pathlib.Path(vqsct.__file__).parent.glob("*.py"))


def _exports(tree) -> set[str]:
    """The strings listed in the module's ``__all__``."""
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return exported


def _unused_imports(tree) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exports(tree)
    return sorted(imported - used)


def _defined(tree) -> set[str]:
    """Names the module's top-level functions, classes and assignments bind."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return defined


def _stale_exports(tree) -> list[str]:
    bound = _defined(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return sorted(_exports(tree) - bound)


def _unused_privates(tree) -> list[str]:
    defined = _defined(tree)
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


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_module_defines_or_imports_every_name_it_exports(path):
    assert _stale_exports(ast.parse(path.read_text(), str(path))) == []


def test_package_loads_every_module_as_a_submodule():
    # in a fresh interpreter, where no test has imported a submodule yet
    names = sorted({path.stem for path in _MODULES} - {"__init__", "errors"})
    assert sorted(vqsct._SUBMODULES) == names
    code = ("import vqsct\n"
            "assert set(vqsct._SUBMODULES) <= set(dir(vqsct)) & set(vqsct.__all__)\n"
            "print(*(getattr(vqsct, name).__name__ for name in vqsct._SUBMODULES))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"vqsct.{name}" for name in vqsct._SUBMODULES]


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


def test_stale_export_is_found():
    tree = ast.parse("import os\nfrom .errors import VqsctError as VE\n_SUB = ('cli',)\n"
                     "__all__ = ['os', 'VE', 'f', 'K', 'run_tasks', 'VqsctError', *_SUB]\n"
                     "K: int = 1\ndef f():\n    def run_tasks():\n        pass\n")
    assert _stale_exports(tree) == ["VqsctError", "run_tasks"]
