"""Source hygiene: no function of the package keeps a parameter or a local
that is assigned and never read, and no module keeps a private top-level name
that no module of the package reads.

The function scan is per function scope.  A name counts as stored when it is
a parameter or a binding target inside the function (nested functions and
classes are their own scopes), and as read when it is loaded or deleted
anywhere in the function, nested scopes included, since a closure reads the
enclosing binding.  Names starting with ``_`` are deliberately unused;
``self`` and ``cls`` are part of a method's signature.

The module scan takes the ``_``-prefixed functions, classes and assignment
targets at the top level of each module (dunders aside), and counts one as
read when any module loads it by name or as an attribute; an import alone is
not a read.

The import scan takes the names each module except ``__init__`` (whose
imports are the package's exports) binds by an import, ``__future__``
features aside, and counts one as read when the module loads it by name.

The public scan takes the public functions and classes at the top level of
each module and the public methods of its top-level classes, and counts one
as read when any module loads it by name or as an attribute, or when the
benchmark's tracer wraps it; an export from ``__init__`` alone is not a
read.
"""

import ast
import pathlib

import logres
from test_perfbench_names import _traced

SRC = pathlib.Path(logres.__file__).parent

# (module, function, name) -> why the unread name stays
ALLOWED = {}

# (module, qualified name) -> why the public name that no module reads stays
PUBLIC_ALLOWED = {
    ("residues", "sigma_check"):
        "the paper's dual residue pairing, an oracle the tests assert",
    ("residues", "MeroFraction.restrict"):
        "restriction of a residue to a component, used by the acceptance "
        "tests",
    ("criteria", "DivisorReport.from_json"):
        "inverse of to_json, the round trip the report tests check",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn):
    """The nodes of fn's body outside nested function and class scopes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _stored(fn):
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [
        x for x in (a.vararg, a.kwarg) if x is not None]
    names = {p.arg for p in params}
    outer = set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
    return names - outer


def _read(fn):
    return {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Load, ast.Del))}


def _unread(fn):
    """fn's stored names that are never read, less the exempt ones."""
    return sorted(name for name in _stored(fn) - _read(fn)
                  if not name.startswith("_") and name not in ("self", "cls"))


def unread_names():
    """(module, function, name) for every stored name that is never read."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend((path.stem, fn.name, name) for name in _unread(fn))
    return out


def test_no_unread_parameters_or_locals():
    found = [t for t in unread_names() if t not in ALLOWED]
    assert not found, "assigned and never read: " + ", ".join(
        f"{m}.{f}: {n}" for m, f, n in found)


def _private_top_level(tree):
    """The private names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _package_trees(sources=None):
    """Module name -> syntax tree; sources maps module names to their text,
    the package by default."""
    if sources is None:
        sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    return {m: ast.parse(text) for m, text in sources.items()}


def _loaded(trees):
    """The names any of the trees loads or deletes, or reads as attributes."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del)):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources=None):
    """(module, name) for every private top-level name that no module reads;
    sources maps module names to their text, the package by default."""
    trees = _package_trees(sources)
    read = _loaded(trees)
    return sorted((m, name) for m, tree in trees.items()
                  for name in _private_top_level(tree) - read)


def _public_defs(tree):
    """(qualified name, name) of the public top-level functions and classes
    of a module and of the public methods of its top-level classes."""
    for node in tree.body:
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def unread_public_names(sources=None, traced=None):
    """(module, qualified name) for every public definition that no module
    reads and traced, a list of (module, qualified name), does not name;
    sources maps module names to their text, the package by default, and
    traced is the benchmark tracer's list by default."""
    trees = _package_trees(sources)
    read = _loaded(trees)
    skip = set(_traced() if traced is None else traced)
    return sorted((m, qual) for m, tree in trees.items()
                  for qual, name in _public_defs(tree)
                  if name not in read and (m, qual) not in skip)


def test_no_unread_public_names():
    found = [t for t in unread_public_names() if t not in PUBLIC_ALLOWED]
    assert not found, "public and never read: " + ", ".join(
        f"{m}.{q}" for m, q in found)


def test_public_allowlist_is_current():
    # an allowlisted name that is now read, or gone, must leave the list
    assert set(PUBLIC_ALLOWED) <= set(unread_public_names())


def test_scan_sees_unread_public_names():
    sources = {"a": "def f():\n"
                    "    return g()\n"
                    "def g():\n"
                    "    pass\n"
                    "def h():\n"
                    "    pass\n"
                    "def t():\n"
                    "    pass\n"
                    "def _p():\n"
                    "    pass\n"
                    "class C:\n"
                    "    def m(self):\n"
                    "        return self.n()\n"
                    "    def n(self):\n"
                    "        def inner():\n"
                    "            pass\n"
                    "    def __eq__(self, other):\n"
                    "        pass\n"
                    "class _D:\n"
                    "    def k(self):\n"
                    "        pass\n",
               "b": "from a import h\n"
                    "x = a.C\n"}
    assert unread_public_names(sources, traced=[("a", "t")]) == [
        ("a", "C.m"), ("a", "_D.k"), ("a", "f"), ("a", "h")]


def test_no_unread_private_module_names():
    found = unread_private_names()
    assert not found, "private and never read: " + ", ".join(
        f"{m}.{n}" for m, n in found)


def test_allowlist_is_current():
    # an allowlisted name that is now read, or gone, must leave the list
    assert set(ALLOWED) <= set(unread_names())


def test_scan_sees_unread_names():
    src = ("def f(a, _b, c):\n"
           "    x, y = a, 1\n"
           "    for i, j in c:\n"
           "        pass\n"
           "    def g():\n"
           "        return x + j\n"
           "    return g\n")
    fn = ast.parse(src).body[0]
    assert _unread(fn) == ["i", "y"]


def test_scan_sees_unread_private_names():
    sources = {"a": "_K, _L = 1, 2\n"
                    "def _f():\n"
                    "    return _K\n"
                    "def _g():\n"
                    "    pass\n"
                    "class _C:\n"
                    "    pass\n"
                    "__all__ = []\n",
               "b": "from a import _g\n"
                    "x = a._C\n"}
    assert unread_private_names(sources) == [("a", "_L"), ("a", "_f"), ("a", "_g")]


def unread_imports(sources=None):
    """(module, name) for every name a module imports and never loads;
    sources maps module names to their text, the package less __init__ by
    default."""
    if sources is None:
        sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))
                   if p.stem != "__init__"}
    out = []
    for m, text in sources.items():
        tree = ast.parse(text)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                and isinstance(node.ctx, (ast.Load, ast.Del))}
        out.extend((m, name) for name in sorted(imported - read))
    return out


def test_no_unread_imports():
    found = unread_imports()
    assert not found, "imported and never read: " + ", ".join(
        f"{m}.{n}" for m, n in found)


def test_scan_sees_unread_imports():
    sources = {"a": "from __future__ import annotations\n"
                    "import json, os.path\n"
                    "from .poly import Poly, parse as p, exact_div\n"
                    "x = json.loads(p)\n"}
    assert unread_imports(sources) == [("a", "Poly"), ("a", "exact_div"),
                                       ("a", "os")]
    # the helpers of Seidenberg's route left imported in groebner
    text = (SRC / "groebner.py").read_text().replace(
        "from .errors import", "from .poly import exact_div, poly_gcd\n"
        "from .errors import", 1)
    assert unread_imports({"groebner": text}) == [
        ("groebner", "exact_div"), ("groebner", "poly_gcd")]


def test_the_analysis_calls_no_gcd():
    # poly_gcd is a reference the tests compare against: outside its own
    # definition only the package exports name it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name == "poly_gcd":
                continue
            found.extend(path.stem for node in ast.walk(top)
                         if getattr(node, "id", None) == "poly_gcd"
                         or getattr(node, "attr", None) == "poly_gcd"
                         or (isinstance(node, ast.alias)
                             and node.name == "poly_gcd"))
    assert not found, "poly_gcd named in: " + ", ".join(found)
