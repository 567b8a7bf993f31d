"""The package names the benchmark reads still resolve: every function that
perfbench/tracer.py wraps, and the four caches that perfbench/worker.py
checks are empty before its first call.  Nothing under perfbench/ is changed:
tracer.py is read as text, and worker.py is imported in a child interpreter
that writes no bytecode."""

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


def test_worker_cache_names_resolve_and_start_empty():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)]))
    code = "import json, worker; print(json.dumps(worker.module_cache_sizes()))"
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "groebner._std_cached": 0,
        "residues._RESIDUE_MODULE_CACHE": 0,
        "fractional._NZD_CACHE": 0,
        "germs._PARTIALS_CACHE": 0,
    }
