"""Workload definitions and expected-verdict tables.

A workload is a list of calls, each one ``analyze_text`` invocation:
``{"label", "vars", "poly", "factors", "seed", "expected", "extras",
"exact"}``.  Every workload seed runs the same analyses (see ``build``), so
the totals stay comparable between seeds.

Expectations come from two places and are checked in two ways:

* Corpus germs analysed with their corpus factorization reuse the corpus
  table (verdicts and extras) and must match it exactly, as ``logres corpus``
  requires.
* Every other call carries a table written from theory, not from this
  program's output.  Only keys that theory fixes are listed, and a verdict
  of ``undecided`` is never a mismatch there: the program promises a
  certified verdict or ``undecided``, so only a decided verdict that
  contradicts theory is wrong.  ``undecided`` shows in ``decided_frac``.
"""

from __future__ import annotations

import random

# Per-call deadlines in seconds, at least twice the slowest call of the
# workload that finishes at the parent commit (x^5-y^7 takes about 15 s,
# four-planes-family about 10 s, a cold triple-point about 0.6 s on a 2-core
# x86-64 host with Python 3.11).
DEADLINE_S = {"curves": 30.0, "surfaces": 20.0, "session": 5.0}

# Repetitions of the session pool inside one process.
SESSION_PASSES = 4

VERDICT_KEYS = ("free", "euler_homogeneous", "jacobian_radical",
                "jacobian_eq_conductor", "residues_weakly_holomorphic",
                "normal_crossing_at_origin", "gorenstein_singular_locus")

# A singular plane curve that is quasihomogeneous and not a node, or a
# suspension of one (the curve times a line):
# - plane curves are free (Saito 1980), and a product with a smooth factor
#   stays free;
# - Euler homogeneous, since the germ is quasihomogeneous;
# - not normal crossing at the origin, nor in codimension one, because the
#   curve singularity is neither smooth nor an ordinary double point;
# - for free divisors, normal crossing in codimension one is equivalent to a
#   radical Jacobian ideal, to J_D = C_D and to weakly holomorphic residues,
#   so those three are false too;
# - the singular locus of a free divisor is Gorenstein iff the germ is a
#   suspension of a quasihomogeneous plane curve.
QH_CURVE = {
    "free": "true", "euler_homogeneous": "true",
    "jacobian_radical": "false", "jacobian_eq_conductor": "false",
    "residues_weakly_holomorphic": "false",
    "normal_crossing_at_origin": "false",
    "gorenstein_singular_locus": "gorenstein",
}

# x^2+y^2 is an ordinary double point over C: normal crossing, so every
# condition holds, and it is homogeneous.
NODE = {
    "free": "true", "euler_homogeneous": "true",
    "jacobian_radical": "true", "jacobian_eq_conductor": "true",
    "residues_weakly_holomorphic": "true",
    "normal_crossing_at_origin": "true",
    "gorenstein_singular_locus": "gorenstein",
}

# x*y*z*(x+y+z), a generic arrangement of four planes in C^3: not free
# (a generic arrangement with more hyperplanes than the dimension is never
# free), homogeneous, normal crossing in codimension one and so with weakly
# holomorphic residues, and four components through the origin exceed n = 3.
GENERIC_4_PLANES = {
    "free": "false", "euler_homogeneous": "true",
    "residues_weakly_holomorphic": "true",
    "normal_crossing_at_origin": "false",
}

# x^3+y^3+z^3, the cone over a smooth cubic: an isolated singularity of a
# surface, so not free (a singular free divisor is singular in codimension
# one), homogeneous, normal and smooth in codimension one (so R_D = O_D is
# the normalization and residues are weakly holomorphic), with C_D = O_D
# different from the proper Jacobian ideal, which is not radical
# (x is in its radical, not in (x^2, y^2, z^2)).
CONE = {
    "free": "false", "euler_homogeneous": "true",
    "jacobian_radical": "false", "jacobian_eq_conductor": "false",
    "residues_weakly_holomorphic": "true",
    "normal_crossing_at_origin": "false",
}

# x*y*z*(x+y)*(x+y*z): h is homogeneous of degree 4 for the weights
# (1, 1, 0), so (x d/dx + y d/dy)/4 is an Euler field; five components pass
# through the origin of C^3.
FIVE_PLANES = {
    "euler_homogeneous": "true",
    "normal_crossing_at_origin": "false",
}


def _corpus():
    from logres.corpus import CORPUS
    return {e["name"]: e for e in CORPUS}


def _corpus_call(entry):
    return {"label": entry["name"], "vars": entry["vars"],
            "poly": entry["poly"], "factors": entry["factors"], "seed": 0,
            "expected": dict(entry["expected"]),
            "extras": dict(entry["expected_extras"]), "exact": True}


def _theory_call(label, vars_, poly, expected, factors=None, seed=0):
    return {"label": label, "vars": list(vars_), "poly": poly,
            "factors": factors, "seed": seed, "expected": dict(expected),
            "extras": {}, "exact": False}


def _curves():
    by = _corpus()
    calls = [_corpus_call(by[n]) for n in (
        "node", "cusp", "triple-point", "two-lines-m1", "tangential-m2",
        "tangential-m3", "non-quasihomogeneous")]
    for poly in ("x^3+y^4", "x^3+y^5", "x^5-y^7", "x*y*(x-y)*(x+y)"):
        calls.append(_theory_call(poly, "xy", poly, QH_CURVE))
    for poly in ("x^2-y^3", "x*y*(x+y)"):
        calls.append(_theory_call(poly + " @xyz", "xyz", poly, QH_CURVE))
    calls.append(_theory_call("x^2+y^2", "xy", "x^2+y^2", NODE))
    return calls


def _surfaces():
    by = _corpus()
    calls = [_corpus_call(by[n]) for n in (
        "coordinate-planes", "whitney-umbrella", "four-planes-family")]
    calls.append(_theory_call("x*y*z*(x+y+z)", "xyz", "x*y*z*(x+y+z)",
                              GENERIC_4_PLANES))
    calls.append(_theory_call("x^3+y^3+z^3", "xyz", "x^3+y^3+z^3", CONE))
    calls.append(_theory_call("x*y*z*(x+y)*(x+y*z)", "xyz",
                              "x*y*z*(x+y)*(x+y*z)", FIVE_PLANES))
    return calls


# The germs of curves and surfaces that finish in well under a second and
# give verdicts, with the factorization the session supplies for the
# non-corpus ones.  The last four are not in curves: the twelve others
# compute 443 distinct ideal standard bases over the four variants, fewer
# than the 512 entries of the standard-basis cache, and the session has to
# overflow that cache to exercise its eviction.
_SESSION_EXTRA = [
    ("x^3+y^4", "xy", "x^3+y^4"),
    ("x^3+y^5", "xy", "x^3+y^5"),
    ("x^2-y^3", "xyz", "x^2-y^3"),
    ("x*y*(x+y)", "xyz", "x;y;x+y"),
    ("x^2-y^5", "xy", "x^2-y^5"),
    ("x^3-y^4", "xy", "x^3-y^4"),
    ("x^2-y^5", "xyz", "x^2-y^5"),
    ("x*(x+y^2)", "xyz", "x;x+y^2"),
]


def _session_pool():
    """One call per (germ, factors supplied or omitted, analyze seed 0/1)."""
    by = _corpus()
    pool = []
    for name in ("node", "cusp", "triple-point", "two-lines-m1",
                 "tangential-m2", "tangential-m3", "coordinate-planes",
                 "whitney-umbrella"):
        entry = by[name]
        for seed in (0, 1):
            with_factors = _corpus_call(entry)
            with_factors["seed"] = seed
            pool.append(with_factors)
            # without its factorization a corpus germ may leave more
            # conditions undecided, so its table is checked as theory
            expected = {k: v for k, v in entry["expected"].items()
                        if v != "undecided"}
            pool.append(_theory_call(name, entry["vars"], entry["poly"],
                                     expected, seed=seed))
    for poly, vars_, factors in _SESSION_EXTRA:
        label = poly if vars_ == "xy" else poly + " @xyz"
        for seed in (0, 1):
            pool.append(_theory_call(label, vars_, poly, QH_CURVE,
                                     factors=factors, seed=seed))
            pool.append(_theory_call(label, vars_, poly, QH_CURVE, seed=seed))
    return pool


WORKLOADS = ("curves", "surfaces", "session")


# Variable names the seed draws from.
NAMES = "abcdfghkmnpqrstuvwxyz"


def build(workload, seed):
    """The calls of one pass of `workload` for `seed`.

    The seed renames the variables.  The work of a germ does not depend on
    the names, so every seed does the same work; the order of the calls is
    fixed.  In curves and surfaces the heap that earlier germs leave behind
    slows a later germ by up to 5%.  In session the order decides which
    bases the 512-entry cache evicts: five shuffles gave 1124 to 1566
    standard-basis misses and 4% spread in wall time, so its repetitions
    follow one fixed shuffle."""
    if workload == "session":
        pool = _session_pool()
        order = random.Random("session order")
        calls = []
        for _ in range(SESSION_PASSES):
            order.shuffle(pool)
            calls.extend(dict(c) for c in pool)
    else:
        calls = _curves() if workload == "curves" else _surfaces()
    names = dict(zip("xyz", random.Random(f"{workload}:{seed}").sample(
        NAMES, 3)))
    table = str.maketrans(names)
    for call in calls:
        call["vars"] = [names[v] for v in call["vars"]]
        call["poly"] = call["poly"].translate(table)
        if call["factors"]:
            call["factors"] = call["factors"].translate(table)
    return calls


def mismatches(call, verdicts, extras):
    """Descriptions of every checked key whose value contradicts `call`."""
    out = []
    for key, want in call["expected"].items():
        got = verdicts.get(key)
        if got == want or (not call["exact"] and got == "undecided"):
            continue
        out.append(f"{key} = {got}, expected {want}")
    for key, want in call["extras"].items():
        got = extras.get(key)
        if got != want:
            out.append(f"{key} = {got}, expected {want}")
    return out
