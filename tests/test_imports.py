"""Static checks on the package source.

No linter is installed, so these tests are the check:
- every name a module imports is used in that module (``__init__.py`` is
  left out: it imports names in order to re-export them);
- no module branches on which graph class it holds, by ``hasattr`` or by
  ``isinstance`` against a graph class: both classes answer one protocol;
- every parameter of a private (``_``-prefixed) module-level function or
  method is read somewhere in its body.
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


def _protocol_breaches(path: pathlib.Path) -> list[str]:
    """hasattr calls and isinstance checks against a graph class: code that
    branches on which graph it holds instead of using the graph protocol."""
    tree = ast.parse(path.read_text(), filename=str(path))
    graph_classes = {"WeightedGraph", "LayeredBinaryTree"}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "hasattr":
            found.append(f"{path.name}:{node.lineno} hasattr")
        elif node.func.id == "isinstance" and len(node.args) == 2:
            named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if named & graph_classes:
                found.append(f"{path.name}:{node.lineno} isinstance")
    return found


def test_no_branching_on_graph_class():
    src = pathlib.Path(rnlab.__file__).parent
    assert [b for p in sorted(src.glob("*.py")) for b in _protocol_breaches(p)] == []


def test_protocol_check_catches_breaches(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "if hasattr(G, 'materialize'):\n    pass\n"
        "ok = isinstance(G, (graphs.LayeredBinaryTree, int))\n"
        "fine = isinstance(x, dict)\n"
    )
    assert _protocol_breaches(bad) == ["bad.py:1 hasattr", "bad.py:3 isinstance"]


def _unread_parameters(path: pathlib.Path) -> list[str]:
    """Parameters that a private module-level function or method never reads.
    Dunder methods are left out: their signatures are fixed by Python."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [node for node in tree.body if isinstance(node, functions)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [node for node in cls.body if isinstance(node, functions)]
    found = []
    for fn in defs:
        if not fn.name.startswith("_") or fn.name.endswith("__"):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        read = {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            f"{path.name}:{fn.lineno} {fn.name}({p})"
            for p in params
            if p not in read and p not in ("self", "cls")
        ]
    return found


def test_no_unread_private_parameters():
    src = pathlib.Path(rnlab.__file__).parent
    assert [u for p in sorted(src.glob("*.py")) for u in _unread_parameters(p)] == []


def test_unread_parameter_check_catches_them(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def _encode(n, perm, depths):\n    return [perm[i] for i in range(n)]\n"
        "def public(unused):\n    pass\n"
        "def _closure(x, *rest):\n    return lambda: x\n"
        "class C:\n"
        "    def __exit__(self, kind, value, tb):\n        pass\n"
        "    def _step(self, colors, fresh):\n        fresh = 0\n        return colors\n"
    )
    assert _unread_parameters(bad) == [
        "bad.py:1 _encode(depths)",
        "bad.py:5 _closure(rest)",
        "bad.py:10 _step(fresh)",
    ]
