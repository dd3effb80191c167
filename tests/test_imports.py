"""Static checks on the package source.

No linter is installed, so these tests are the check:
- every name a module imports is used in that module (``__init__.py`` is
  left out: it imports names in order to re-export them);
- no module branches on which graph class it holds, by ``hasattr`` or by
  ``isinstance`` against a graph class: both classes answer one protocol;
- every parameter of a private (``_``-prefixed) module-level function or
  method is read somewhere in its body;
- a private method is called only from the module that defines it;
- every public name, and every public method and property of a class, is
  used by the system: by the package, a demo, the benchmark or the
  acceptance tests, or is listed in ``ALLOWED`` with the reason it stays
  public.
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
    # bench/layertrace.py wraps find_weighted_partition in local, where the
    # partition ladder called it before the ladder moved into partitions.py
    ("local.py", "find_weighted_partition"),
}

# Public names, and methods as ``Class.method``, that nothing in the package,
# the demos, the benchmark or the acceptance tests uses, each with the reason
# it stays public.
ALLOWED = {
    "RadonNikodymOracle.query": "the paper's relative-weight oracle: query i returns a labeled ball",
    "edit_distance_uniform": "the paper's edit distance between graphs on n vertices",
    "weighted_edit_distance": "the paper's edit distance under the vertex measure",
    "is_member": "membership in a property, the zero of its distances",
    "run_local_rule": "runs one of the paper's randomized local algorithms",
    "table_rule": "a local algorithm given by its table over decorated balls",
    "rank_rule": "the local algorithm that keeps the root when it beats every neighbour",
    "truncation_stability": "truncated labels; the only caller of statistics.extract_ball, "
    "which bench/layertrace.py wraps",
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


def _private_methods(tree: ast.Module) -> set[str]:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        fn.name
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, functions) and fn.name.startswith("_") and not fn.name.endswith("__")
    }


def _foreign_private_calls(paths: list[pathlib.Path]) -> list[str]:
    """Calls ``obj._name(...)`` of a private method that another of the given
    modules defines and this one does not."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    defined = {p: _private_methods(tree) for p, tree in trees.items()}
    found = []
    for p, tree in trees.items():
        foreign = set().union(*(names for q, names in defined.items() if q != p)) - defined[p]
        found += [
            f"{p.name}:{node.lineno} {node.func.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in foreign
        ]
    return found


def test_private_methods_stay_in_their_module():
    src = pathlib.Path(rnlab.__file__).parent
    assert _foreign_private_calls(sorted(src.glob("*.py"))) == []


def test_private_method_check_catches_foreign_calls(tmp_path):
    owner = tmp_path / "owner.py"
    owner.write_text(
        "class Index:\n"
        "    def _fill(self, k):\n        return self._grow(k)\n"
        "    def _grow(self, k):\n        return k\n"
        "    def __len__(self):\n        return 0\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "def sweep(index):\n"
        "    index._fill(0)\n"
        "    index.__len__()\n"
        "    return index._other()\n"
        "class Own:\n"
        "    def _grow(self):\n        return self._grow()\n"
    )
    assert _foreign_private_calls([caller, owner]) == ["caller.py:2 _fill"]


def _public_names(src: pathlib.Path) -> tuple[set[str], set[str]]:
    """The names ``__init__.py`` imports and every public module-level
    function or class of the package; and ``Class.method`` for every public
    method and property of its module-level classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names, methods = set(), set()
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                names.update(a.asname or a.name for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods.update(
                    f"{node.name}.{fn.name}"
                    for fn in node.body
                    if isinstance(fn, functions) and not fn.name.startswith("_")
                )
    return names, methods


def _used_names(paths: list[pathlib.Path]) -> tuple[set[str], set[str]]:
    """Every name and attribute the files read, leaving out what a
    module-level def or class says about its own name; and the attributes
    alone, since a method or property is read only as one."""
    used, attributes = set(), set()
    for path in paths:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            found = {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            attributes |= found
            found |= {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                found.discard(top.name)
            used |= found
    return used, attributes


def _surface_breaches(src: pathlib.Path, root: pathlib.Path, allowed: dict) -> list[str]:
    """Public names, methods and properties of the package at src that no
    caller under root uses and that allowed does not list, and allowed
    entries that a caller uses or that name nothing public.  The callers
    are the package's own modules other than ``__init__.py``, demos/,
    bench/ and tests/test_acceptance.py."""
    callers = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    callers += [*(root / "demos").rglob("*.py"), *(root / "bench").rglob("*.py")]
    callers.append(root / "tests" / "test_acceptance.py")
    (public, methods), (used, attributes) = _public_names(src), _used_names(callers)
    unused = (public - used) | {m for m in methods if m.partition(".")[2] not in attributes}
    return sorted(
        [f"unused {name}" for name in unused - allowed.keys()]
        + [f"stale {name}" for name in allowed.keys() - unused]
    )


def test_every_public_name_is_used():
    src = pathlib.Path(rnlab.__file__).parent
    root = pathlib.Path(__file__).resolve().parents[1]
    assert _surface_breaches(src, root, ALLOWED) == []


def test_surface_check_catches_unused_and_stale(tmp_path):
    src = tmp_path / "src" / "pkg"
    for folder in (src, tmp_path / "demos", tmp_path / "bench" / "tests", tmp_path / "tests"):
        folder.mkdir(parents=True)
    (src / "__init__.py").write_text(
        "from .core import solve, helper, Oracle\nfrom .core import exported_only\n"
    )
    (src / "core.py").write_text(
        "def solve(x):\n    return helper(x)\n"
        "def helper(x):\n    return x\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n"
        "def _private():\n    pass\n"
        "class Oracle:\n    def rule(self):\n        return Oracle()\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def query(self):\n        return self.size\n"
        "    def _hidden(self):\n        pass\n"
        "def kept():\n    pass\n"
    )
    # a name that is not read as an attribute does not use a method
    (tmp_path / "demos" / "demo.py").write_text("import pkg\npkg.solve(1)\nrule = 1\n")
    (tmp_path / "bench" / "tests" / "test_b.py").write_text("from pkg import kept\nkept()\n")
    (tmp_path / "tests" / "test_acceptance.py").write_text("def test():\n    pass\n")
    allowed = {
        "kept": "a caller uses it",
        "gone": "names nothing",
        "recursive": "its reason",
        "Oracle.query": "its reason",
        "Oracle.size": "a caller reads it",
    }
    assert _surface_breaches(src, tmp_path, allowed) == [
        "stale Oracle.size",
        "stale gone",
        "stale kept",
        "unused Oracle",
        "unused Oracle.rule",
        "unused exported_only",
    ]
