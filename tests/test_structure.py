"""Module boundaries: no module of the package imports another's private name."""

import ast
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
