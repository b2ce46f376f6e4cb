"""Module boundaries: no module of the package imports another's private name, nor loads `multiprocessing` on import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ekrmatch

PACKAGE = Path(ekrmatch.__file__).parent


def private_imports(path: Path) -> list:
    """The `from .<module> import _<name>` lines of one module, dunders excepted."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ekrmatch")):
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    out.append(f"{path.name}:{node.lineno} imports {name} from {'.' * node.level}{node.module or ''}")
    return out


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    assert [bad for path in modules for bad in private_imports(path)] == []


def test_the_private_import_scan_sees_relative_and_absolute_imports(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from . import __version__\nfrom .predicates import Predicate, _rule\n"
                      "from ekrmatch.search import _plan\nfrom os import _exit\n")
    assert private_imports(module) == ["sample.py:2 imports _rule from .predicates",
                                       "sample.py:3 imports _plan from ekrmatch.search"]


def test_importing_the_package_and_cli_loads_no_multiprocessing():
    # a pool's module comes in with its first pool (`search.fork_pool`)
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, ekrmatch.cli; assert 'multiprocessing' not in sys.modules, sorted(sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
