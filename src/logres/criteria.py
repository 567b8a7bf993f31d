"""Top-level decision procedures and the divisor report.

Each named condition gets a verdict in {true, false, undecided}; every
false verdict carries a witness and every true verdict a certificate
reference.  Proven equivalences between conditions are re-verified on
every run and recorded in the report's consistency list; a violated
equivalence raises ConsistencyError (it falsifies the implementation,
not the mathematics).
"""

from __future__ import annotations

import json
import time
from itertools import combinations, combinations_with_replacement

from .errors import ConsistencyError
from .poly import poly_str, parse
from .groebner import radical_test, local_dim, _row_echelon
from .germs import DivisorGerm, is_free, euler_field
from .fractional import FractionalIdeal, jacobian_module
from .residues import (MeroFraction, residue_module, mu_residues,
                       gorenstein_singular_locus, direct_sum_check,
                       IdempotentData)
from .normalization import (normalization_from_branches,
                            normalization_from_smooth_factors,
                            is_weakly_holomorphic, _curve_setup)

TRUE, FALSE, UNDECIDED = "true", "false", "undecided"


def _tri(b):
    return TRUE if b else FALSE


class DivisorReport:
    """Per-condition verdicts with witnesses, verified equivalences, and
    reproducibility data."""

    def __init__(self, data):
        self.data = data

    def __getitem__(self, key):
        return self.data[key]

    @property
    def verdicts(self):
        return self.data["verdicts"]

    @property
    def consistency(self):
        return self.data["consistency"]

    def to_json(self, indent=None):
        return json.dumps(self.data, indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text):
        return DivisorReport(json.loads(text))

    def __eq__(self, other):
        return isinstance(other, DivisorReport) and self.data == other.data

    def to_text(self):
        lines = [f"divisor: {self.data['input']['poly']}  "
                 f"(vars {', '.join(self.data['input']['vars'])})"]
        for key in ("free", "euler_homogeneous", "jacobian_radical",
                    "jacobian_eq_conductor", "residues_weakly_holomorphic",
                    "normal_crossing_at_origin", "gorenstein_singular_locus"):
            lines.append(f"  {key:32s} {self.verdicts[key]}")
        ex = self.data["extras"]
        lines.append(f"  {'mu_residues':32s} ({ex['mu_residues']}, "
                     f"contains_unit={ex['contains_unit']})")
        if ex.get("direct_sum") is not None:
            lines.append(f"  {'direct_sum':32s} {ex['direct_sum']}")
        if ex.get("free_equivalences") is not None:
            t = ex["free_equivalences"]
            lines.append(f"  {'free equivalences (B, D, G)':32s} "
                         f"({t['B']}, {t['D']}, {t['G']})")
        lines.append(f"  {'suspension_classification':32s} {ex['suspension_classification']}")
        for w, txt in sorted(self.data["witnesses"].items()):
            lines.append(f"  witness[{w}]: {txt}")
        lines.append("  verified: " + ", ".join(self.consistency))
        prov = self.data["provenance"]
        lines.append(f"  provenance: seed={prov['seed']} "
                     f"truncation={prov.get('truncation')} "
                     f"timings_ms={prov.get('timings_ms')}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# individual conditions


# the highest degree of a monic integral equation searched for a residue
MAX_INTEGRAL_DEGREE = 4

# the witnesses of (C) from normalization data, by its source: how a residue
# fails, and why (C) holds
C_WITNESSES = {
    "branches": ("has a pole on a branch",
                 "all residue generators weakly holomorphic on every branch"),
    "smooth_factors": ("is not weakly holomorphic",
                       "residue module equals the direct sum of component "
                       "rings"),
}


def check_condition_C(D, nd):
    """Residues weakly holomorphic (R_D = O~).  O~ lies in R_D for every
    reduced D (K. Saito), so (C) is the inclusion of R_D in O~, decided
    through normalization data or, failing that, through explicit integral
    equations for the residue generators.  Returns (verdict, witness_text)."""
    R = residue_module(D)
    if nd is not None:
        pole, holds = C_WITNESSES[nd.source]
        for p in R.num:
            frac = MeroFraction(D, p, R.den)
            if not is_weakly_holomorphic(frac, nd):
                return FALSE, f"residue {frac.str_of(D)} {pole}"
        return TRUE, holds
    # integrality route: every generator satisfying a monic equation over O_D
    # lies in the normalization, and O~ is always inside R_D
    for p in R.num:
        if _integrality_degree(D, p, R.den) is None:
            return UNDECIDED, "no normalization data and integrality search exhausted"
    return TRUE, "every residue generator satisfies a monic equation over O_D"


def _integrality_degree(D, p, q):
    """Least d with p^d in <q p^(d-1), ..., q^d> + <h> locally (a monic
    integral equation for p/q over O_D), or None within the search bound."""
    for d in range(1, MAX_INTEGRAL_DEGREE + 1):
        gens = [(q ** i) * (p ** (d - i)) for i in range(1, d + 1)]
        if D.member_mod_h(p ** d, gens):
            return d
    return None


def check_condition_G(D, C):
    """Jacobian ideal equals the conductor ideal, given the conductor as a
    fractional ideal, or None when no conductor is known."""
    if C is None:
        return UNDECIDED, "no conductor available"
    J = jacobian_module(D)
    for g in C.num:
        if not J.contains_fraction(g, C.den):
            return FALSE, (f"conductor element {poly_str(g, D.names)} "
                           f"is not in the Jacobian ideal")
    if C.includes(J):
        return TRUE, "J_D = C_D as ideals mod h"
    # unreachable: J_D lies in C_D (J in J^vv = dual(R_D), which lies in C_D)
    raise ConsistencyError("the conductor lies in J_D without equalling it")


def check_condition_D(D, seed=0):
    """Radicality of the Jacobian ideal (decided on the pullback ideal
    <h, dh> interpreted at the origin)."""
    if D.is_smooth:
        return TRUE, "smooth germ: unit Jacobian ideal", None
    rv = radical_test(D.jacobian_pullback, D.n, seed=seed)
    if rv.status == "radical":
        return TRUE, f"radical ({rv.method})", rv
    if rv.status == "not_radical":
        g, k = rv.witness
        return FALSE, (f"witness {poly_str(g, D.names)} outside J_D with "
                       f"power {k} inside ({rv.method})"), rv
    return UNDECIDED, rv.method, rv


def check_normal_crossing_at_origin(D, idem):
    """The coordinate-system criterion on a validated factorization idem: at
    most n factors through the origin, each smooth there, with Jacobian of
    full rank.  Returns (bool, reason)."""
    vanishing = [f for f in idem.factors if f.constant_term() == 0]
    m = len(vanishing)
    if m > D.n:
        return False, f"{m} components through the origin exceed the dimension {D.n}"
    rows = []
    for f in vanishing:
        grad = [f.diff(i).constant_term() for i in range(D.n)]
        if not any(grad):
            return False, (f"factor {poly_str(f, D.names)} is not smooth "
                           f"at the origin")
        rows.append(grad)
    if len(_row_echelon(rows)) != m:
        return False, "component normals are linearly dependent at the origin"
    return True, "factors form part of a coordinate system"


def check_condition_B(D):
    """Normal crossing in codimension one (B), decided on every germ by one
    Jacobian criterion.  Returns (verdict, reason).

    Hypotheses: D = {h = 0} is reduced at the origin of C^n, which
    DivisorGerm certifies as Sing D = V(h, dh) of dimension at most n-2.
    Theorem: D is normal crossing in codimension one iff <h, dh> plus the
    2x2 minors of the Hessian of h has local dimension at most n-3.  Proof:
    B asks for transversal type A1, two smooth sheets meeting transversally,
    at a generic point of each (n-2)-dimensional component of Sing D.  Where
    the Hessian has rank 3 or more, the Morse lemma with parameters splits
    off a nondegenerate quadratic form in 3 variables, so the critical locus
    has codimension at least 3 there; on such a component the rank is at
    most 2, and the type is A1 iff it is exactly 2.  The dimension of an
    ideal generated over Q is its dimension over C.  By the paper's main
    theorem, B holds iff the logarithmic residues are weakly holomorphic,
    which analyze checks against condition C."""
    if D.is_smooth:
        return TRUE, "smooth germ"
    n = D.n
    if local_dim(D.jacobian_pullback, n) <= n - 3:
        return TRUE, "singular locus of codimension at least two in D"
    H = [[p.diff(j) for j in range(n)] for p in D.partials]
    minors = tuple(H[a][c] * H[b][d] - H[a][d] * H[b][c]
                   for (a, b), (c, d) in combinations_with_replacement(
                       combinations(range(n), 2), 2))
    if local_dim(D.jacobian_pullback + minors, n) <= n - 3:
        return TRUE, "Hessian of rank 2 off a codimension-two locus of D"
    return FALSE, "Hessian of rank below 2 along a codimension-one part of Sing D"


def classify_gorenstein_suspension(D):
    """For germs with Gorenstein singular locus of codimension one in D:
    decide whether D is a suspension of a quasihomogeneous plane curve, that
    is, whether h is a function of two linear forms, and return an Euler
    field of h in D's own coordinates as the witness.  A suspension that
    needs a nonlinear change of coordinates is not recognised.
    Returns (verdict, euler_witness_or_diagnostic)."""
    gor = gorenstein_singular_locus(D)
    if gor != "gorenstein":
        return "not_applicable", f"singular locus verdict: {gor}"
    if local_dim(D.jacobian_pullback, D.n) != D.n - 2:
        return "not_applicable", "singular locus is not of codimension 1 in D"
    # a constant field v kills h iff v . grad h = 0, i.e. v lies in the kernel
    # of the matrix with one row per monomial whose column i holds that
    # monomial's coefficient in dh/dx_i; h is a function of rank-many linear
    # forms
    monomials = {e for p in D.partials for e in p.terms}
    rows = [[p.terms.get(e, 0) for p in D.partials] for e in monomials]
    if len(_row_echelon(rows)) > 2:
        return "not_applicable", "h is not a function of two linear forms"
    # Euler homogeneity survives a linear change of coordinates, and for an
    # isolated plane-curve singularity it is quasihomogeneity (K. Saito)
    ef = euler_field(D)
    if ef is None:
        raise ConsistencyError("a Gorenstein singular locus of codimension "
                               "one without an Euler field")
    return "suspension_of_quasihomogeneous_plane_curve", ef


# ---------------------------------------------------------------------------
# the aggregator


def analyze(D, factors=None, branches=None, seed=0, want_timings=False):
    """Run every decision procedure on the germ, verify the proven
    equivalences, and assemble the report."""
    t_start = time.perf_counter()
    witnesses = {}
    consistency = []
    extras = {}
    idem = IdempotentData(D, factors) if factors is not None else None

    free, saito = is_free(D)
    if D.n == 2:
        if not free:
            raise ConsistencyError("a plane-curve germ was reported non-free")
        consistency.append("plane_curves_free")
    if free and saito is not None:
        witnesses["free"] = (f"Saito determinant = "
                             f"({poly_str(saito.det, D.names)}), unit value "
                             f"{saito.unit_value}")
    ef = euler_field(D)
    euler = ef is not None
    if euler:
        chi = ef.normalized()
        if chi is not None:
            witnesses["euler"] = chi.str_of(D)
        else:
            witnesses["euler"] = "certificate with non-constant unit"

    # normalization data: branches (curves/suspensions) and/or smooth factors
    nd = None
    nd_factors = None
    curve = _curve_setup(D) is not None
    # supplied branches outside the curve class raise InputError here
    if branches is not None or curve:
        nd = normalization_from_branches(D, branches=branches)
        if nd is None:
            witnesses["normalization"] = ("rational Newton-Puiseux expansion "
                                          "unsupported and no branches supplied")
    if idem is not None and idem.smooth:
        nd_factors = normalization_from_smooth_factors(idem)
    if nd is not None and nd_factors is not None:
        if not nd.weak_ring.equals(nd_factors.weak_ring):
            raise ConsistencyError("branch and smooth-factor normalizations disagree")
        consistency.append("normalization_routes_agree")
    if nd is None:
        nd = nd_factors

    R = residue_module(D)
    mu, has_unit = mu_residues(D)
    extras["mu_residues"] = mu
    extras["contains_unit"] = has_unit

    c_verdict, c_why = check_condition_C(D, nd)
    witnesses["condition_C"] = c_why
    # the conductor: the dual of O~, which is R_D when (C) holds
    cond = None
    if nd is not None:
        cond = nd.weak_ring.conductor()
    elif c_verdict == TRUE:
        cond = R.conductor()
    g_verdict, g_why = check_condition_G(D, cond)
    witnesses["condition_G"] = g_why
    d_verdict, d_why, rv = check_condition_D(D, seed=seed)
    witnesses["condition_D"] = d_why

    b_verdict, _ = check_condition_B(D)
    if idem is not None:
        nc, nc_why = check_normal_crossing_at_origin(D, idem)
        f_verdict = _tri(nc)
    elif D.is_smooth:
        f_verdict, nc_why = TRUE, "smooth germ"
    elif not curve:
        f_verdict, nc_why = UNDECIDED, "no factorization supplied"
    else:
        # the singular locus of a curve or suspension is the origin of the
        # curve factor times the passive variables, so (F) there is (B)
        f_verdict, nc_why = b_verdict, "curve criterion at the origin"
    witnesses["normal_crossing"] = nc_why
    # normal crossing is an open condition: at the origin it holds nearby
    if f_verdict == TRUE and b_verdict == FALSE:
        raise ConsistencyError("(F) true with (B) false: normal crossing "
                               "at the origin must hold in codimension one")

    ds_verdict = None
    if idem is not None:
        if nd is not None and nd is nd_factors:
            # (C) tested R_D against this same idempotent module
            ds_verdict = c_verdict
        else:
            ds_verdict = _tri(direct_sum_check(D, idem))
        extras["direct_sum"] = ds_verdict

    if free:
        # (B), (D) and (G) are equivalent on a free divisor
        feq = {"B": b_verdict, "D": d_verdict, "G": g_verdict}
        decided = {v for v in feq.values() if v != UNDECIDED}
        if len(decided) > 1:
            raise ConsistencyError(
                f"equivalent conditions disagree on {poly_str(D.h, D.names)}: "
                f"B={b_verdict} D={d_verdict} G={g_verdict}")
        extras["free_equivalences"] = feq
        if decided:
            consistency.append("free_equivalences_agree")

    susp, susp_data = classify_gorenstein_suspension(D)
    extras["suspension_classification"] = susp
    if susp == "suspension_of_quasihomogeneous_plane_curve":
        chi = susp_data.normalized()
        if chi is not None:
            witnesses["suspension_euler"] = chi.str_of(D)

    # --- proven equivalences, re-verified on every run --------------------
    J = jacobian_module(D)
    if free:
        if not R.dual().equals(J):
            raise ConsistencyError("free divisor with dual(R_D) != J_D")
        consistency.append("jacobian_is_residue_dual")
        # R_D is dual(J_D) on the same generators: dual(R_D) is the double dual
        consistency.append("double_dual_involution")
        if c_verdict != UNDECIDED and g_verdict != UNDECIDED:
            if c_verdict != g_verdict:
                raise ConsistencyError("(C) and (G) disagree on a free divisor")
            consistency.append("weak_holomorphy_iff_conductor_equality")
        if has_unit != euler:
            raise ConsistencyError(
                "1 minimally generates R_D iff the germ is Euler homogeneous; "
                "verdicts disagree")
        consistency.append("unit_generator_iff_euler")
        # only for free D: a normal surface has R_D = O_D, cyclic, but is
        # not smooth
        if (mu == 1) != D.is_smooth:
            raise ConsistencyError("R_D cyclic iff smooth failed")
        consistency.append("cyclic_residues_iff_smooth")
    # the paper's main theorem, for every reduced hypersurface (free or not):
    # D is normal crossing in codimension one iff its logarithmic residues
    # are weakly holomorphic (R_D = O~), extending Le-Saito
    if c_verdict not in (UNDECIDED, b_verdict):
        raise ConsistencyError(f"(B) {b_verdict} with (C) {c_verdict} "
                               f"violates the main theorem")
    if b_verdict == TRUE and c_verdict == TRUE:
        consistency.append("normal_crossing_implies_weak_residues")
    if nd is not None:
        _verify_chain(D, J, R, nd.weak_ring, cond)
        consistency.append("fractional_ideal_chain")
    # nd_factors is set only when every factor is smooth; then the normalization
    # is the disjoint union of the components, the idempotent module is O~,
    # and R_D equals it iff (C) holds, which by the main theorem forces
    # normal crossing in codimension one, here pairwise transversality, which
    # (B) decides
    if ds_verdict is not None and nd_factors is not None:
        coherent = (ds_verdict == TRUE) == (c_verdict == b_verdict == TRUE)
        if not coherent:
            raise ConsistencyError("direct-sum verdict incoherent with "
                                   "(C) and transversality")
        consistency.append("direct_sum_coherence")

    verdicts = {
        "free": _tri(free),
        "euler_homogeneous": _tri(euler),
        "jacobian_radical": d_verdict,
        "jacobian_eq_conductor": g_verdict,
        "residues_weakly_holomorphic": c_verdict,
        "normal_crossing_at_origin": f_verdict,
        "gorenstein_singular_locus": gorenstein_singular_locus(D),
    }
    elapsed_ms = int((time.perf_counter() - t_start) * 1000)
    report = DivisorReport({
        "schema": 1,
        "input": {
            "vars": list(D.names),
            "poly": poly_str(D.h, D.names),
            "factors": ([poly_str(f, D.names) for f in idem.factors]
                        if idem is not None else None),
            "branches": "supplied" if branches else
                        (nd.source if nd is not None else None),
        },
        "config": {"seed": seed},
        "verdicts": verdicts,
        "witnesses": witnesses,
        "consistency": consistency,
        "extras": extras,
        "provenance": {
            "seed": seed,
            "truncation": nd.truncation if nd is not None else None,
            "radical_method": rv.method if rv is not None else None,
            "timings_ms": elapsed_ms if want_timings else None,
        },
    })
    return report


def _verify_chain(D, J, R, weak, cond):
    """J_D in dual(R_D) in C_D in O_D in O~ in R_D, every inclusion checked."""
    chain = [("J_D", J), ("dual(R_D)", R.dual()), ("C_D", cond),
             ("O_D", FractionalIdeal.ring(D)),
             ("weak ring", weak), ("R_D", R)]
    for (name1, small), (name2, big) in zip(chain, chain[1:]):
        if not big.includes(small):
            raise ConsistencyError(f"chain inclusion {name1} in {name2} failed")


def analyze_text(vars_, poly_text, factors_text=None, **kw):
    """Convenience wrapper taking textual input (used by the CLI and tests)."""
    names = list(vars_)
    D = DivisorGerm(names, parse(poly_text, names))
    factors = None
    if factors_text:
        factors = [parse(t.strip(), names) for t in factors_text.split(";") if t.strip()]
    return analyze(D, factors=factors, **kw)
