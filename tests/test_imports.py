"""No module of ``fraclap`` imports a name it never uses.

A module-level imported name must be referenced in its module, listed in
the module's ``__all__``, or imported on a line marked ``# noqa: F401``
(the names ``solver`` keeps for the benchmark's tracer).  ``__init__.py``
re-exports and is not checked.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fraclap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            if "# noqa: F401" in statement:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used and name not in exported)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "kernels.py", "quadrature.py", "solver.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert unused_imports(path) == []


def test_detects_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    )
    assert unused_imports(module) == ["pi"]
