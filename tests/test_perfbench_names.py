"""The package names the benchmark reads still resolve: every function that
perfbench/tracer.py wraps, and the four caches that perfbench/worker.py
checks are empty before its first call.  Every traced function is also
called by the analysis, so no per-layer count reads 0 unnoticed.  Nothing
under perfbench/ is changed: tracer.py is read as text here, and tracer.py
and worker.py are imported only in child interpreters that write no
bytecode."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import logres

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SRC = pathlib.Path(logres.__file__).resolve().parent.parent


def _traced():
    """The TRACED list of tracer.py, read without importing it."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py has no TRACED list")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = []
    for module, qual in traced:
        obj = importlib.import_module("logres." + module)
        if "." in qual:
            # the tracer patches methods through the class __dict__
            cls_name, meth = qual.split(".")
            cls = getattr(obj, cls_name, None)
            ok = cls is not None and callable(vars(cls).get(meth))
        else:
            ok = callable(getattr(obj, qual, None))
        if not ok:
            missing.append(f"{module}.{qual}")
    assert not missing, "traced names that do not resolve: " + ", ".join(missing)


def _run_child(code):
    """The JSON that code prints, run in a child interpreter that sees the
    package source and perfbench/ and writes no bytecode."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)]))
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_worker_cache_names_resolve_and_start_empty():
    code = "import json, worker; print(json.dumps(worker.module_cache_sizes()))"
    assert _run_child(code) == {
        "groebner._std_cached": 0,
        "residues._RESIDUE_MODULE_CACHE": 0,
        "fractional._NZD_CACHE": 0,
        "germs._PARTIALS_CACHE": 0,
    }


# traced names that no analysis calls -> why they stay traced
UNCALLED = {
    "poly.poly_gcd": "the tests' gcd oracle; the analysis computes no gcd",
    "fractional.nzd_witness": "runs only on the error path, when a "
                              "denominator is a zero divisor",
    "fractional.FractionalIdeal.product": "the tests' reference for "
                                          "includes_product",
}

# corpus germs that together reach every layer: the cusp without factors
# (branches only), the triple point with its factors (branches and smooth
# factors, so the direct sum is checked) and the coordinate planes with
# theirs (smooth factors only)
TRACE_GERMS = [("cusp", False), ("triple-point", True),
               ("coordinate-planes", True)]


def test_every_traced_name_is_called():
    code = f"""
import json
import logres
from logres.corpus import CORPUS
from logres.criteria import analyze_text
import tracer
t = tracer.Tracer()
t.install()
entries = {{e["name"]: e for e in CORPUS}}
for name, with_factors in {TRACE_GERMS!r}:
    e = entries[name]
    analyze_text(e["vars"], e["poly"], e["factors"] if with_factors else None)
print(json.dumps({{name: stats[0] for name, stats in t.stats.items()}}))
"""
    calls = _run_child(code)
    # an allowed name that the analysis calls leaves the list
    assert all(calls[name] == 0 for name in UNCALLED)
    unread = sorted(name for name, n in calls.items()
                    if n == 0 and name not in UNCALLED)
    assert not unread, "traced names that read 0: " + ", ".join(unread)
