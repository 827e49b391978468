"""Source-level properties of the package."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bpsing


def _trees():
    paths = sorted(Path(bpsing.__file__).parent.rglob("*.py"))
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_no_assert_statements():
    # invariant checks must survive python -O, which strips asserts
    found = []
    for name, tree in _trees().items():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_fractions_in_src():
    # integers are the one exact number type: the rational rank is the
    # fraction-free elimination, so fractions is imported nowhere
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno}" for module in modules if module.split(".")[0] == "fractions"]
    assert found == []


def _cache_bound(decorator):
    """'unbounded', 'bounded' or None (not a functools cache)."""
    call = decorator if isinstance(decorator, ast.Call) else None
    name = _referenced(call.func if call else decorator)
    if name == "cache":
        return "unbounded"
    if name != "lru_cache":
        return None
    if call is None:
        return "bounded"  # the default maxsize is 128
    size = next((kw.value for kw in call.keywords if kw.arg == "maxsize"), call.args[0] if call.args else None)
    if size is None:
        return "bounded"
    return "unbounded" if isinstance(size, ast.Constant) and size.value is None else "bounded"


def test_caches_are_bounded():
    # memory must stay bounded in a long-running process: no unbounded cache
    unbounded = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_cache_bound(d) == "unbounded" for d in node.decorator_list):
                    unbounded.append(f"{name}:{node.name}")
    assert unbounded == []


def test_sources_parse_at_the_minimum_python():
    # syntax of a later Python (``except*``, ``type`` aliases) would
    # break the declared minimum; tomllib is 3.11+, so a regex reads it
    root = Path(__file__).resolve().parent.parent
    found = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (root / "pyproject.toml").read_text())
    version = int(found[1]), int(found[2])
    paths = [path for d in ("src", "tests", "bench") for path in sorted((root / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=version)


def test_cache_bound_reader():
    def bound(src):
        return _cache_bound(ast.parse(src, mode="eval").body)

    assert bound("lru_cache(maxsize=None)") == bound("functools.lru_cache(None)") == bound("functools.cache") == "unbounded"
    assert bound("lru_cache(maxsize=8)") == bound("lru_cache") == bound("functools.lru_cache()") == "bounded"
    assert bound("property") is None and bound("dataclass(frozen=True)") is None


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque", "WeakKeyDictionary", "WeakValueDictionary"}


def _module_state(tree) -> list[str]:
    """Functools caches anywhere, and dicts, lists and sets assigned at
    module or class level: state that outlives a call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += [f"{d.lineno}:cache" for d in node.decorator_list if _cache_bound(d) is not None]
    scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for scope in scopes:
        for node in scope.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) else None
            if isinstance(value, CONTAINERS) or (isinstance(value, ast.Call) and _referenced(value.func) in CONTAINER_CALLS):
                found.append(f"{node.lineno}:container")
    return found


def test_stable_keeps_no_module_state():
    # the only memo of the calculus is each object's own canonical form
    assert _module_state(_trees()["stable.py"]) == []


def test_module_state_reader():
    src = (
        "import functools\n"
        "A = {}\nB: list = []\nC = set()\nD = collections.defaultdict(int)\nE = re.compile('x')\nF = (1, 2)\n"
        "class K:\n    memo = {}\n    flag = None\n"
        "    @functools.lru_cache(maxsize=8)\n    def f(self):\n        local = {}\n"
        "@functools.cache\ndef g():\n    pass\n"
    )
    assert sorted(_module_state(ast.parse(src))) == ["11:cache", "14:cache", "2:container", "3:container", "4:container", "5:container", "9:container"]


def _operator_index_uses(tree) -> list[tuple[str | None, int]]:
    """(enclosing module-level definition, line) of every reference to
    operator.index, imports of the name included."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            attribute = isinstance(node, ast.Attribute) and node.attr == "index" and _referenced(node.value) == "operator"
            imported = isinstance(node, ast.ImportFrom) and node.module == "operator" and any(a.name == "index" for a in node.names)
            if attribute or imported:
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_integers_are_read_in_one_place():
    # every integer argument is read by grading._index, the one boundary
    # where a bool or a non-integer raises TypeError
    uses = [(name, scope) for name, tree in _trees().items() for scope, _ in _operator_index_uses(tree)]
    assert uses == [("grading.py", "_index")]


def test_operator_index_finder():
    src = (
        "import operator\nfrom operator import index\n"
        "def f(x):\n    return operator.index(x)\n"
        "class K:\n    def g(self, xs):\n        return map(operator.index, xs)\n"
    )
    assert _operator_index_uses(ast.parse(src)) == [(None, 2), ("f", 4), ("K", 7)]


def _referenced(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_private_definitions_are_used():
    # no dead functions: a module-level private function or class must be
    # referenced somewhere in the package outside its own definition
    trees = _trees()
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(id(n) not in own and _referenced(n) == node.name for t in trees.values() for n in ast.walk(t)):
                dead.append(f"{name}:{node.name}")
    assert dead == []


def _public_definitions(tree):
    """(name, node) for each module-level public function, class or
    assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def test_public_definitions_are_used():
    # no dead public names: each must be referenced outside its own
    # definition, by the package, its tests or the benchmark
    root = Path(__file__).resolve().parent.parent
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for d in ("src", "tests", "bench") for path in sorted((root / d).rglob("*.py"))}
    dead = []
    for path, tree in trees.items():
        if not path.is_relative_to(root / "src"):
            continue
        for defined, node in _public_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(id(n) not in own and _referenced(n) == defined for t in trees.values() for n in ast.walk(t)):
                dead.append(f"{path.name}:{defined}")
    assert dead == []


def test_primes_are_built_on_demand():
    # a prime built at import would cost every run, which setup_s would
    # show; the dynkin suite builds as many as its largest Hadamard
    # bound needs, and no more
    code = """
import contextlib, io, math
import numpy as np
import bpsing
from bpsing import cli, linalg, qalg
print(linalg._prime.cache_info().misses)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["coxeter", "--suite", "dynkin"])
built = linalg._prime.cache_info().currsize
need = 0
for _, algebras in qalg.COXETER_SUITES["dynkin"]():
    for _, a in algebras:
        c = np.array(a.cartan.tolist(), dtype=object)
        inverse = np.array(linalg.inverse_unimodular(c), dtype=object)
        for phi in (-(inverse.T @ c), -(inverse @ c.T)):
            bound = math.prod(2 + math.isqrt(int(s)) for s in (phi * phi).sum(axis=1))
            count, product = 0, 1
            while product <= 2 * bound:
                product *= linalg._prime(count)
                count += 1
            need = max(need, count)
print(built, need)
"""
    src = Path(bpsing.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-B", "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    at_import, suite = out.stdout.splitlines()
    assert at_import == "0"
    built, need = map(int, suite.split())
    assert built == need >= 1


def test_bench_shim_targets_exist(monkeypatch):
    # a traced benchmark run wraps these names and reads these caches
    import importlib

    from bpsing import mforacle

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.delitem(sys.modules, "shims", raising=False)
    shims = importlib.import_module("shims")
    missing = [f"{layer}.{name}" for layer, owner, names in shims.LAYERS for name in names if name not in vars(owner)]
    assert missing == []
    for fn in (mforacle.mf_of, mforacle._monomial_basis, mforacle.oracle_hom):
        assert callable(fn.cache_info)
