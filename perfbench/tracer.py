"""Outside-in layer tracer for logres.

The tracer wraps the public functions of each layer from outside the
package: every binding of a function across the ``logres.*`` module
namespaces is replaced by a timing wrapper (``from .groebner import
radical_test`` copies the binding, so patching only the defining module would
miss callers), and methods are patched on their class.  Nothing in the
package changes.

For each function it keeps calls, self time and errors.  Self time is the
span's duration minus the time of the traced spans it contains, taken from a
span stack, so recursion (``poly_gcd``) is counted once per level.  Spans of
the functions outside ``HOT`` are also kept in memory as
``(name, start, end, parent)`` records and written out at the end; the hot
ones are called hundreds of thousands of times and are only aggregated.
``ModOrder.key`` and ``Order.key`` are not wrapped: they run millions of times
per germ and the wrapper would dominate them.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name) of every traced function, by layer.
TRACED = [
    ("poly", "Poly.submul_term"), ("poly", "Poly.__mul__"),
    ("poly", "poly_gcd"),
    ("groebner", "ModOrder.lead"), ("groebner", "divide_vec"),
    ("groebner", "mora_nf"), ("groebner", "standard_basis"),
    ("groebner", "syzygies"), ("groebner", "ideal_quotient"),
    ("groebner", "radical_test"), ("groebner", "min_generators_local"),
    ("groebner", "kernel_basis"),
    ("germs", "is_free"), ("germs", "euler_field"),
    ("fractional", "FractionalIdeal.dual"),
    ("fractional", "FractionalIdeal.equals"),
    ("fractional", "FractionalIdeal.includes"),
    ("fractional", "FractionalIdeal.product"),
    ("fractional", "nzd_witness"),
    ("residues", "residue_module"), ("residues", "mu_residues"),
    ("residues", "gorenstein_singular_locus"),
    ("residues", "direct_sum_check"),
    ("normalization", "puiseux_rational"),
    ("normalization", "normalization_from_branches"),
    ("normalization", "normalization_from_smooth_factors"),
    ("normalization", "pullback"),
    ("normalization", "is_weakly_holomorphic"),
    ("criteria", "analyze"), ("criteria", "check_condition_C"),
    ("criteria", "check_condition_G"), ("criteria", "check_condition_D"),
    ("criteria", "check_condition_B"),
    ("criteria", "classify_gorenstein_suspension"),
]

HOT = {"poly.Poly.submul_term", "poly.Poly.__mul__", "poly.poly_gcd",
       "groebner.ModOrder.lead", "groebner.divide_vec", "groebner.mora_nf",
       "fractional.nzd_witness", "normalization.pullback"}

TOP = "criteria.analyze"


class Tracer:
    """Per-function calls, self time and errors, plus span records."""

    def __init__(self, passthrough=()):
        # exceptions that end a span without counting as the function's
        # error (the per-call deadline of the benchmark)
        self.passthrough = tuple(passthrough)
        self.stats = {f"{m}.{q}": [0, 0.0, 0] for m, q in TRACED}
        self.spans = []
        self.out_elems = 0
        self._children = []    # traced time inside each open span
        self._open = []        # indices in self.spans of open recorded spans

    def install(self):
        """Wrap every traced function; modules must already be imported."""
        modules = [m for name, m in sys.modules.items()
                   if name == "logres" or name.startswith("logres.")]
        for mod_name, qual in TRACED:
            mod = sys.modules["logres." + mod_name]
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(mod, qual)
            wrapped = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        children = self._children
        opened = self._open
        spans = self.spans
        passthrough = self.passthrough
        clock = time.perf_counter
        record = name not in HOT
        count_elems = name == "groebner.standard_basis"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if record:
                spans.append(None)
                opened.append(len(spans) - 1)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except passthrough:
                raise
            except BaseException:
                stats[2] += 1
                raise
            finally:
                end = clock()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - children.pop()
                if children:
                    children[-1] += duration
                if record:
                    index = opened.pop()
                    parent = opened[-1] if opened else -1
                    spans[index] = (name, start, end, parent)
            if count_elems:
                basis = result[0] if kwargs.get("transform") or (
                    len(args) > 2 and args[2]) else result
                tracer.out_elems += len(basis)
            return result

        return traced

    def top_level_seconds(self):
        """Total duration of the outermost ``criteria.analyze`` spans."""
        return sum(end - start for name, start, end, parent in self.spans
                   if name == TOP and parent == -1)

    def metrics(self):
        out = {}
        for name, (calls, self_s, errors) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.errors"] = (errors, "count")
        out["groebner.standard_basis.out_elems"] = (self.out_elems, "count")
        return out
