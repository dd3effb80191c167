"""Every name a module of the package imports is used in that module.

No linter is installed, so this test is the check.  ``__init__.py`` is left
out: it imports names in order to re-export them.
"""
import ast
import pathlib

import rnlab

# Imported but unused on purpose, as (module, name).
KEPT = {
    # bench/layertrace.py wraps canonicalize in these two modules to count
    # and time its calls
    ("testers.py", "canonicalize"),
    ("statistics.py", "canonicalize"),
    # rnlab/__init__.py imports AliasSampler from oracles
    ("oracles.py", "AliasSampler"),
}


def _unused_imports(path: pathlib.Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_unused_imports():
    src = pathlib.Path(rnlab.__file__).parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 13
    unused = {(p.name, name) for p in modules for name in _unused_imports(p)}
    assert unused == KEPT
