"""Condition checks, theorem cross-validations, and the report aggregator."""

import hashlib
import inspect
import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from conftest import deadline
from logres import criteria, fractional, germs, residues
from logres.errors import InputError, ConsistencyError
from logres.fractional import FractionalIdeal
from logres.germs import DivisorGerm, is_free
from logres.groebner import ideal_contains, local_dim, _row_echelon
from logres.poly import parse
from logres.residues import IdempotentData
from logres.normalization import normalization_from_branches, _curve_setup
from logres.criteria import (analyze, analyze_text, check_condition_C,
                             check_condition_G, check_condition_D,
                             check_condition_B,
                             check_normal_crossing_at_origin,
                             classify_gorenstein_suspension,
                             DivisorReport, _tri)


def test_condition_C_examples():
    D = DivisorGerm(["x", "y"], "x*y")
    nd = normalization_from_branches(D)
    assert check_condition_C(D, nd)[0] == "true"
    T = DivisorGerm(["x", "y"], "x*y*(x-y)")
    ndt = normalization_from_branches(T)
    verdict, why = check_condition_C(T, ndt)
    assert verdict == "false"
    C = DivisorGerm(["x", "y"], "x^2 - y^3")
    ndc = normalization_from_branches(C)
    verdict, why = check_condition_C(C, ndc)
    assert verdict == "false"
    assert "y" in why and "x" in why


def test_condition_C_integrality_route_whitney():
    W = DivisorGerm(["x", "y", "z"], "x^2 - y^2*z")
    verdict, why = check_condition_C(W, None)
    assert verdict == "true"
    assert "monic" in why


def test_condition_G_examples():
    for text, verdict in (("x*y", "true"), ("x^2 - y^3", "false"),
                          ("x", "true")):
        D = DivisorGerm(["x", "y"], text)
        cond = normalization_from_branches(D).weak_ring.conductor()
        assert check_condition_G(D, cond)[0] == verdict, text
    # without normalization data but with (C) certified true, R_D is O~
    # and the conductor is its dual
    W = DivisorGerm(["x", "y", "z"], "x^2 - y^2*z")
    cond = residues.residue_module(W).conductor()
    assert check_condition_G(W, cond)[0] == "false"
    assert check_condition_G(W, None)[0] == "undecided"


def test_condition_G_conductor_strictly_inside_jacobian_is_inconsistent():
    # J_D = <x, y^2> on the cusp always lies in the conductor, so a
    # conductor strictly inside J_D falsifies the implementation
    D = DivisorGerm(["x", "y"], "x^2 - y^3")
    with pytest.raises(ConsistencyError, match="conductor"):
        check_condition_G(D, FractionalIdeal(D, [D.poly("x^2")], 1))


def test_condition_D_examples():
    Z = DivisorGerm(["x", "y", "z"], "x*y*z")
    assert check_condition_D(Z)[0] == "true"
    C = DivisorGerm(["x", "y"], "x^2 - y^3")
    verdict, why, rv = check_condition_D(C)
    assert verdict == "false" and "y" in why
    F = DivisorGerm(["x", "y", "z"], "x*y*(x+y)*(x+y*z)")
    assert check_condition_D(F)[0] == "false"


def test_condition_D_witness_power_above_200():
    # A_201: the Tjurina ideal is <y, x^201>, of local colength 201
    A = DivisorGerm(["x", "y"], "y^2+x^202")
    verdict, why, rv = check_condition_D(A)
    assert verdict == "false"
    assert rv.witness == (A.poly("x"), 201) and "power 201" in why


def test_normal_crossing_at_origin():
    Z = DivisorGerm(["x", "y", "z"], "x*y*z")
    ok, _ = check_normal_crossing_at_origin(
        Z, IdempotentData(Z, [Z.poly("x"), Z.poly("y"), Z.poly("z")]))
    assert ok
    # tangential pair: rank 1 at the origin
    D = DivisorGerm(["x", "y"], "x*(x+y^2)")
    ok2, why = check_normal_crossing_at_origin(
        D, IdempotentData(D, [D.poly("x"), D.poly("x+y^2")]))
    assert not ok2
    # too many components through the origin
    T = DivisorGerm(["x", "y"], "x*y*(x-y)")
    ok3, why3 = check_normal_crossing_at_origin(
        T, IdempotentData(T, [T.poly("x"), T.poly("y"), T.poly("x-y")]))
    assert not ok3 and "exceed" in why3
    with pytest.raises(InputError):
        check_normal_crossing_at_origin(
            Z, IdempotentData(Z, [Z.poly("x"), Z.poly("y")]))


def test_condition_B():
    assert check_condition_B(DivisorGerm(["x", "y"], "x*y"))[0] == "true"
    assert check_condition_B(DivisorGerm(["x", "y"], "x^2 - y^3"))[0] == "false"
    for vars_, poly, verdict in [
            ("xyz", "x*y*z", "true"),
            ("xyz", "x*y*(x+y)*(x+y*z)", "false"),
            # A1 along the z-axis off the origin
            ("xyz", "x^2 - y^2*z", "true"),
            # x = y = 0 is a tangency of x*y with x + z^2
            ("xyz", "x*y*(x+z^2)", "false"),
            ("xyz", "x*y*z*(1+x)", "true"),
            ("xyz", "(x^2+y^2)*z", "true"),
            # an isolated singularity: no singular curve at all
            ("xyz", "x^3+y^3+z^3", "true")]:
        assert check_condition_B(DivisorGerm(list(vars_), poly))[0] == verdict, poly


def test_analyze_free_equivalences():
    for text, verdict in (("x*y", "true"), ("x^2 - y^3", "false"),
                          ("x*y*(x+y)", "false")):
        extras = analyze_text(["x", "y"], text).data["extras"]
        assert extras["free_equivalences"] == dict.fromkeys("BDG", verdict)
    # not free: (B), (D) and (G) need not agree, and none is reported
    extras = analyze_text(["x", "y", "z"], "x^2 - y^2*z").data["extras"]
    assert "free_equivalences" not in extras


# The two routes that decided (B) before the Jacobian criterion, kept as
# oracles: the Hessian of the curve factor at the origin, on curve germs and
# their suspensions, and pairwise transversality with no triple contact in
# codimension one, on a factorization into smooth factors.

def _curve_nc_oracle(D):
    """Smooth or an ordinary double point at the origin of the curve factor;
    None off curve germs and suspensions."""
    setup = _curve_setup(D)
    if setup is None:
        return None
    _, h2 = setup
    if any(h2.diff(i).constant_term() != 0 for i in range(2)):
        return True
    hxx = h2.diff(0).diff(0).constant_term()
    hxy = h2.diff(0).diff(1).constant_term()
    hyy = h2.diff(1).diff(1).constant_term()
    return hxx * hyy - hxy * hxy != 0


def _arrangement_nc_oracle(D, factors):
    n = D.n
    for i, fi in enumerate(factors):
        for j in range(i + 1, len(factors)):
            fj = factors[j]
            minors = [fi.diff(a) * fj.diff(b) - fi.diff(b) * fj.diff(a)
                      for a, b in combinations(range(n), 2)]
            if local_dim([fi, fj] + minors, n) > n - 3:
                return False
            if any(local_dim([fi, fj, fk], n) > n - 3
                   for fk in factors[j + 1:]):
                return False
    return True


def _linear_form(names, coeffs):
    return " + ".join(f"({c})*{v}" for c, v in zip(coeffs, names) if c)


def _normals(rng, n, count, span=None):
    """count pairwise independent integer normals in Z^n; with span, each is
    an integer combination of the two normals in span."""
    out = []
    while len(out) < count:
        if span is None:
            v = [rng.randint(-3, 3) for _ in range(n)]
        else:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            v = [a * p + b * q for p, q in zip(*span)]
        if any(v) and all(len(_row_echelon([v, w])) == 2 for w in out):
            out.append(v)
    return out


def _seeded_germs(rng):
    """(label, names, factor texts, expected (B) or None); the factors of
    the curve germs are not smooth, every other factor is linear."""
    xy, xyz = ["x", "y"], ["x", "y", "z"]
    germs_ = []
    for _ in range(6):
        k = rng.randint(2, 4)
        normals = _normals(rng, 2, k)
        germs_.append(("lines", xy, [_linear_form(xy, v) for v in normals],
                       k == 2))
    for _ in range(6):
        normals = _normals(rng, 3, rng.randint(2, 4))
        germs_.append(("planes", xyz, [_linear_form(xyz, v) for v in normals],
                       None))
    for _ in range(3):
        # three planes through one line, and a fourth plane off it
        (a1, a2, a3), (b1, b2, b3) = span = _normals(rng, 3, 2)
        normals = _normals(rng, 3, 3, span=span)
        if rng.random() < 0.5:
            # the cross product of the spanning normals is outside their span
            normals.append([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3,
                            a1 * b2 - a2 * b1])
        germs_.append(("pencil", xyz, [_linear_form(xyz, v) for v in normals],
                       False))
    for _ in range(4):
        while True:
            A = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            if len(_row_echelon(A)) == 3:
                break
        k = rng.randint(1, 3)
        germs_.append(("coordinates", xyz,
                       [_linear_form(xyz, row) for row in A[:k]], True))
    for _ in range(4):
        a, b = rng.randint(2, 5), rng.randint(3, 6)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        names = rng.choice([xy, xyz])
        # neither smooth nor a node at the origin
        germs_.append(("quasihomogeneous", names,
                       [f"x^{a} + ({c})*y^{b}"], False))
    for _ in range(4):
        while True:
            p, q, r = (rng.randint(-3, 3) for _ in range(3))
            if q * q != 4 * p * r:
                break
        cubic = " + ".join(f"({rng.randint(-2, 2)})*{m}"
                           for m in ("x^3", "x^2*y", "x*y^2", "y^3"))
        names = rng.choice([xy, xyz])
        germs_.append(("node", names,
                       [f"({p})*x^2 + ({q})*x*y + ({r})*y^2 + {cubic}"], True))
    return germs_


def test_condition_B_agrees_with_the_old_routes_on_seeded_germs():
    rng = random.Random(2011)
    checked = 0
    with deadline(10):
        for label, names, texts, expected in _seeded_germs(rng):
            factors = [parse(t, names) for t in texts]
            h = factors[0]
            for f in factors[1:]:
                h = h * f
            try:
                D = DivisorGerm(names, h)
            except InputError:
                continue  # a random cubic term made h not squarefree
            b = check_condition_B(D)[0]
            assert b in ("true", "false"), (label, D)
            if label not in ("quasihomogeneous", "node"):
                assert b == _tri(_arrangement_nc_oracle(D, factors)), (label, D)
            curve = _curve_nc_oracle(D)
            if curve is not None:
                assert b == _tri(curve), (label, D)
            if expected is not None:
                assert b == _tri(expected), (label, D)
            if is_free(D)[0]:
                d = check_condition_D(D)[0]
                assert d in ("undecided", b), (label, D, d)
            checked += 1
    assert checked >= 25


def test_euler_field_exists_iff_h_is_in_its_jacobian_ideal():
    # the syzygy route of euler_field against local membership of h in <dh>,
    # on the corpus, the seeded germs and unit multiples of germs
    from logres.corpus import CORPUS
    germs_ = [DivisorGerm(e["vars"], e["poly"]) for e in CORPUS]
    for _, names, texts, _ in _seeded_germs(random.Random(2811)):
        try:
            germs_.append(DivisorGerm(names, "*".join(f"({t})" for t in texts)))
        except InputError:
            pass  # a random cubic term made h not squarefree
    for names, text in ((["x", "y"], "x*y*(1+x)"),
                        (["x", "y"], "(x^2-y^3)*(2+x+y)"),
                        (["x", "y"], "(x^4+y^5+x*y^4)*(1-y)"),
                        (["x", "y", "z"], "x*y*z*(1+x)"),
                        (["x", "y", "z"], "(x^2-y^2*z)*(1+z)")):
        germs_.append(DivisorGerm(names, text))
    verdicts = set()
    with deadline(30):
        for D in germs_:
            ef = germs.euler_field(D)
            member = ideal_contains(D.h, D.partials, D.local_order)
            assert (ef is not None) == member, D
            assert ef is None or ef.check(D), D
            verdicts.add(member)
    assert verdicts == {True, False}


def test_classify_gorenstein_suspension():
    C = DivisorGerm(["x", "y"], "x^2 - y^3")
    verdict, witness = classify_gorenstein_suspension(C)
    assert verdict == "suspension_of_quasihomogeneous_plane_curve"
    chi = witness.normalized()
    assert chi.apply(C.h) == C.h
    # passive variable: still a suspension
    C3 = DivisorGerm(["x", "y", "z"], "x^2 - y^3")
    verdict3, _ = classify_gorenstein_suspension(C3)
    assert verdict3 == "suspension_of_quasihomogeneous_plane_curve"
    S = DivisorGerm(["x", "y"], "x")
    assert classify_gorenstein_suspension(S)[0] == "not_applicable"
    Z = DivisorGerm(["x", "y", "z"], "x*y*z")
    assert classify_gorenstein_suspension(Z)[0] == "not_applicable"
    # a suspension only after a nonlinear change of coordinates
    N = DivisorGerm(["x", "y", "z"], "(x+z^2)^2-y^3")
    assert classify_gorenstein_suspension(N) == (
        "not_applicable", "h is not a function of two linear forms")
    # a suspension in other linear coordinates: the witness is an Euler
    # field of h itself, in the input coordinates
    for text in ("(x+y)^2 - z^3", "x^2 - (y+2*z)^3"):
        L = DivisorGerm(["x", "y", "z"], text)
        verdict, witness = classify_gorenstein_suspension(L)
        assert verdict == "suspension_of_quasihomogeneous_plane_curve", text
        assert witness.check(L), text


def test_gorenstein_suspension_without_euler_field_is_inconsistent(
        monkeypatch):
    # a Gorenstein verdict means 1 minimally generates R_D, which on a free
    # germ means an Euler field exists
    monkeypatch.setattr(criteria, "euler_field", lambda D: None)
    with pytest.raises(ConsistencyError, match="Euler field"):
        classify_gorenstein_suspension(DivisorGerm(["x", "y"], "x^2 - y^3"))


def test_analyze_xyz_all_true():
    r = analyze_text(["x", "y", "z"], "x*y*z", "x;y;z")
    v = r.verdicts
    for key in ("free", "jacobian_radical", "jacobian_eq_conductor",
                "residues_weakly_holomorphic", "normal_crossing_at_origin"):
        assert v[key] == "true", key


def test_analyze_whitney():
    r = analyze_text(["x", "y", "z"], "x^2 - y^2*z", "x^2 - y^2*z")
    v = r.verdicts
    assert v["free"] == "false"
    assert v["residues_weakly_holomorphic"] == "true"
    assert v["normal_crossing_at_origin"] == "false"
    assert v["jacobian_eq_conductor"] == "false"


def test_analyze_four_planes():
    r = analyze_text(["x", "y", "z"], "x*y*(x+y)*(x+y*z)", "x;y;x+y;x+y*z")
    assert r.verdicts["free"] == "true"
    assert r.verdicts["jacobian_radical"] == "false"
    assert r.data["extras"]["free_equivalences"] == {"B": "false", "D": "false",
                                             "G": "false"}


def test_analyze_cubic_cone_is_not_free_but_has_cyclic_residues():
    # a normal surface: R_D = O_D is cyclic although D is not smooth, which
    # refutes "R_D cyclic iff smooth" outside free divisors
    r = analyze_text(["x", "y", "z"], "x^3+y^3+z^3")
    v = r.verdicts
    assert v["free"] == "false"
    assert v["euler_homogeneous"] == "true"
    assert v["jacobian_radical"] == "false"
    assert v["jacobian_eq_conductor"] == "false"
    assert v["residues_weakly_holomorphic"] == "true"
    assert v["normal_crossing_at_origin"] != "true"
    assert r.data["extras"]["mu_residues"] == 1
    assert "cyclic_residues_iff_smooth" not in r.consistency


def test_analyze_non_rational_node_degrades_to_other_routes():
    # x^2+y^2 has branches only over Q(i): no branch normalization, yet every
    # condition is decided (C by integrality, G by dual(R_D))
    r = analyze_text(["x", "y"], "x^2+y^2")
    assert r.verdicts == {
        "free": "true", "euler_homogeneous": "true",
        "jacobian_radical": "true", "jacobian_eq_conductor": "true",
        "residues_weakly_holomorphic": "true",
        "normal_crossing_at_origin": "true",
        "gorenstein_singular_locus": "gorenstein"}
    assert "unsupported" in r["witnesses"]["normalization"]
    assert r["input"]["branches"] is None


def test_analyze_non_rational_quartic_leaves_C_and_G_undecided():
    r = analyze_text(["x", "y"], "x^4+y^4")
    undecided = {k for k, v in r.verdicts.items() if v == "undecided"}
    assert undecided == {"residues_weakly_holomorphic", "jacobian_eq_conductor"}
    assert "normalization" in r["witnesses"]


def test_analyze_plane_curve_with_non_rational_tangent_cone_returns():
    # a free plane curve that is not normal crossing; its tangent cone
    # contains x^2+y^2, so C and G may stay undecided.  Its nonzerodivisor
    # tests once ran for minutes in the gcd of h with each candidate.
    r = analyze_text(["x", "y"], "x^4+x^2*y^2+y^5")
    v = r.verdicts
    assert v["free"] == "true"
    assert v["normal_crossing_at_origin"] == "false"
    assert v["jacobian_radical"] == "false"


# germs times a unit of the local ring, with the germs they equal locally;
# each once hung in the certification of R_D: the (1+x) multiples when unit
# factors of the residue denominators entered the common denominator, the
# (2+x+y) multiples on the denominators of the syzygy-based residues
UNIT_MULTIPLES = [
    ("xy", "(x^2-y^3)*(1+x)", "x^2-y^3"),
    ("xyz", "(x^2-y^3)*(1+x)", "x^2-y^3"),
    ("xy", "(x^3+y^4)*(1+x)", "x^3+y^4"),
    ("xy", "(x^3+y^4)*(2+x+y)", "x^3+y^4"),
    ("xy", "(x^2-y^3)*(2+x+y)", "x^2-y^3"),
]


@pytest.mark.parametrize("vars_,poly,local", UNIT_MULTIPLES)
def test_unit_multiple_has_the_verdicts_of_its_germ(vars_, poly, local):
    with deadline(10):
        report = analyze_text(list(vars_), poly)
    assert report.verdicts == analyze_text(list(vars_), local).verdicts


@pytest.mark.parametrize("poly", ["y^2 - 10000000000000061*x^3",
                                  "y^2 - 1000000000000000000000007*x^3"])
def test_large_coefficient_leaves_the_expansion_unsupported(poly):
    # the rational roots of the edge polynomial would need the divisors of
    # a coefficient above normalization.MAX_ROOT_SEARCH
    with deadline(2):
        data = analyze_text(["x", "y"], poly).data
    assert data["verdicts"]["residues_weakly_holomorphic"] == "undecided"
    assert data["verdicts"]["jacobian_eq_conductor"] == "undecided"
    assert "expansion unsupported" in data["witnesses"]["normalization"]


def test_deadline_fails_a_hang():
    with pytest.raises(pytest.fail.Exception, match="deadline"):
        with deadline(0.05):
            while True:
                pass


def test_seed_moves_no_verdict_or_witness():
    # the seed reaches only the witness search of the radical test; the
    # (G) witness of this germ once followed the seed of the fractional
    # ideals
    r0, r1 = (analyze_text(list("xyz"), "x*y*z*(x+y+z)", seed=s)
              for s in (0, 1))
    assert r0.verdicts == r1.verdicts
    assert r0["witnesses"] == r1["witnesses"]
    assert r1["provenance"]["seed"] == 1


@pytest.mark.parametrize("fn", [
    FractionalIdeal, FractionalIdeal.make, fractional.find_nzd_in,
    residues.residue_module, normalization_from_branches])
def test_germ_objects_take_no_seed(fn):
    assert "seed" not in inspect.signature(fn).parameters


def test_report_roundtrip_and_determinism():
    r1 = analyze_text(["x", "y"], "x^2 - y^3")
    r2 = analyze_text(["x", "y"], "x^2 - y^3")
    assert r1.to_json() == r2.to_json()
    assert DivisorReport.from_json(r1.to_json()) == r1
    assert r1.data["provenance"]["timings_ms"] is None
    r3 = analyze_text(["x", "y"], "x^2 - y^3", want_timings=True)
    assert r3.data["provenance"]["timings_ms"] is not None


def test_analyze_rejects_invalid_germ():
    with pytest.raises(InputError):
        analyze_text(["x"], "x^2")


@pytest.mark.parametrize("precision", [-3, 0, 3])
def test_analyze_takes_no_precision(precision):
    with pytest.raises(TypeError, match="precision"):
        analyze_text(["x", "y"], "x^2 - y^3", precision=precision)


@pytest.mark.parametrize("poly,germ", [("x*(y-1)^2", "x"),
                                       ("(x^2-y^3)*(1+x)^2", "x^2-y^3"),
                                       ("x*y*(1+x)^2", "x*y")])
def test_unit_multiples_give_the_verdicts_of_the_germ(poly, germ):
    # h need only be reduced at the origin: a repeated factor that misses
    # it is a unit of the local ring
    with deadline(20):
        assert analyze_text(["x", "y"], poly).verdicts == \
            analyze_text(["x", "y"], germ).verdicts


def test_analyze_rejects_empty_factor_list():
    D = DivisorGerm(["x", "y"], "x*y")
    with pytest.raises(InputError, match="empty factor list"):
        analyze(D, factors=[])


def test_analyze_rejects_empty_branch_list():
    D = DivisorGerm(["x", "y"], "x^2 - y^3")
    with pytest.raises(InputError, match="non-empty list"):
        analyze(D, branches=[])


# the work each fact costs, wrapped where it is done: log_derivations
# inside is_free, the syzygies of (dh, h) that is_free and euler_field read,
# the factorization check, the idempotents, the comparison of fractional
# ideals, condition (B), which also decides (F) on a curve germ without
# factors, and the conductor; "built" counts the fractional ideals each
# function constructs, by its qualified name
WORK = ("log_derivations", "log_syzygies", "validate_factorization",
        "IdempotentData", "equals", "condition_B", "conductor")


def _count_work(monkeypatch):
    calls = dict.fromkeys(WORK, 0)
    calls["built"] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    init = FractionalIdeal.__init__

    def built(self, *args):
        calls["built"][sys._getframe(1).f_code.co_qualname] += 1
        init(self, *args)

    monkeypatch.setattr(FractionalIdeal, "__init__", built)

    for target, attr, name in (
            (germs, "log_derivations", "log_derivations"),
            (germs, "syzygies", "log_syzygies"),
            (residues, "validate_factorization", "validate_factorization"),
            (residues.IdempotentData, "__init__", "IdempotentData"),
            (FractionalIdeal, "equals", "equals"),
            (FractionalIdeal, "conductor", "conductor"),
            (criteria, "check_condition_B", "condition_B")):
        monkeypatch.setattr(target, attr, counted(name, getattr(target, attr)))
    # as in a fresh process: the first R_D and the first syzygies of (dh, h)
    # of the germ are computed and certified
    monkeypatch.setattr(residues, "_RESIDUE_MODULE_CACHE", {})
    monkeypatch.setattr(germs, "_PARTIALS_CACHE", {})
    return calls


@pytest.mark.parametrize("vars_,poly,factors,expected", [
    ("xy", "x^2 - y^3", None,
     {"log_derivations": 1, "log_syzygies": 1, "condition_B": 1}),
    ("xyz", "x*y*z", "x;y;z",
     {"validate_factorization": 1, "IdempotentData": 1, "equals": 2,
      "condition_B": 1}),
    ("xyz", "x*y*(x+y)*(x+y*z)", "x;y;x+y;x+y*z",
     {"validate_factorization": 1, "IdempotentData": 1, "equals": 2,
      "condition_B": 1}),
    # a curve germ with smooth factors has two normalizations and one
    # conductor
    ("xy", "x*y*(x+y)", "x;y;x+y", {"conductor": 1}),
])
def test_analyze_computes_each_fact_once(monkeypatch, vars_, poly, factors,
                                         expected):
    calls = _count_work(monkeypatch)
    analyze_text(list(vars_), poly, factors)
    assert {k: calls[k] for k in expected} == expected


# the function that builds each module of the chain J_D in C_D in O_D, and of
# the idempotent module
CHAIN_BUILDERS = ("jacobian_module", "FractionalIdeal.conductor",
                  "FractionalIdeal.ring", "IdempotentData.__init__")


def test_analyze_builds_each_fractional_ideal_once(monkeypatch):
    # both normalizations, the direct-sum check and the chain all run here
    calls = _count_work(monkeypatch)
    analyze_text(["x", "y"], "x*y*(x+y)", "x;y;x+y")
    built = calls["built"]
    assert {k: built[k] for k in CHAIN_BUILDERS} == dict.fromkeys(
        CHAIN_BUILDERS, 1)
    assert sum(built.values()) <= 8


def test_repeat_analyze_reuses_the_syzygies_of_dh_and_h(monkeypatch):
    calls = _count_work(monkeypatch)
    analyze_text(["x", "y"], "x^2 - y^3")
    assert calls["log_syzygies"] == 1
    # a new germ object with the same h reads them from _PARTIALS_CACHE
    analyze_text(["x", "y"], "x^2 - y^3")
    assert calls["log_syzygies"] == 1 and calls["log_derivations"] == 2


@pytest.mark.parametrize("vars_,poly,factors,match", [
    # (F) true from the factors: normal crossing at the origin holds nearby
    ("xyz", "x*y*z", "x;y;z", r"\(F\) true with \(B\) false"),
    # not free, and (C) true by integral equations
    ("xyz", "x^2 - y^2*z", None, "main theorem"),
    # free, with (D) and (G) true: (B), (D) and (G) are equivalent there
    ("xyz", "x*y*z", None, "equivalent conditions"),
])
def test_analyze_rejects_condition_B_false_against_F_or_C(monkeypatch, vars_,
                                                          poly, factors, match):
    monkeypatch.setattr(criteria, "check_condition_B",
                        lambda D: ("false", "forced"))
    with pytest.raises(ConsistencyError, match=match):
        analyze_text(list(vars_), poly, factors)


def test_analyze_computes_freeness_and_mu_once(monkeypatch):
    # the work of each once_per_germ fact is wrapped where the fact reads it,
    # so every computation is counted however many callers ask
    calls = {"is_free": 0, "mu_residues": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    for mod, name in ((germs, "is_free"), (residues, "mu_residues")):
        fact = getattr(mod, name)
        monkeypatch.setattr(fact, "__wrapped__",
                            counted(name, fact.__wrapped__))
    monkeypatch.setattr(residues, "_RESIDUE_MODULE_CACHE", {})
    first = analyze_text(["x", "y"], "x^2 - y^3")
    assert calls == {"is_free": 1, "mu_residues": 1}
    calls.update(is_free=0, mu_residues=0)
    # a new germ object with the same h computes its own facts
    second = analyze_text(["x", "y"], "x^2 - y^3")
    assert calls == {"is_free": 1, "mu_residues": 1}
    assert first == second
    assert first.verdicts["gorenstein_singular_locus"] == "gorenstein"


# sha256 of the default JSON report; a speedup must keep these bytes
# unchanged.  The curves were taken from the code before the sparse kernel,
# the S-pair pruning and the reducer reuse; the two surfaces, which take the
# non-free dual path, from the code before the in-place dividend and the
# generator-product certificate; four-planes-family, analysed with its
# factors, from the code before the residues by contraction.  x*y*z*(x+y+z),
# x^3+y^3+z^3 and x*y*(x+y+z) were retaken when condition (B) became decided
# on every germ by the Jacobian criterion: each gains the consistency entry
# normal_crossing_implies_weak_residues, and on the free x*y*(x+y+z)
# free_equivalences.B moves from undecided to true; nothing else changed.
# All seven were retaken when the precision option went: config.precision
# (always null) left every report, and x*y*(x-y)*(x+y) took its branch
# denominator from the nonzerodivisor schedule instead of a list of lines,
# which changed only the conductor element in witnesses.condition_G.
# x*y*z, analysed with its factors, pins the smooth-factor wording of (C);
# it was taken from the code before (C) became one inclusion.
# Five were retaken when the Euler field came from the syzygies of (dh, h)
# and the conductor from one ideal quotient: witnesses.condition_G names
# another conductor element on x*y*(x-y)*(x+y), x*y*z*(x+y+z) and
# x*y*(x+y)*(x+y*z), and witnesses.euler names another Euler field on
# x*y*(x+y+z), x*y*(x+y)*(x+y*z) and x*y*z; nothing else changed.
# x*y*(x+y), analysed with its factors, pins the path where both
# normalizations and the direct-sum check run; it was taken from the code
# before each module of the fractional-ideal chain was built once per germ.
GOLDEN_REPORTS = [
    ("x^5-y^7",
     "ac6c3b42537326ace4c62a49d8de5eac8531c0f64f5946411deef005ce7b5329"),
    ("x^3+y^5",
     "f5f2a40b6508c429bf701230fceded49a50be75b9dbd23312f559a381a629afc"),
    ("x*y*(x-y)*(x+y)",
     "82b7591d5cf481a3b68d97a0e45f89698dc6f1d642e8217a82a54ccd4dc2e1dc"),
    ("x*y*z*(x+y+z)",
     "566bf00eaa61be4da0a0dcebf7d31fd631db6c2a3bbd09f5cdbd35968ed22345"),
    ("x^3+y^3+z^3",
     "986294721053a5b0e0b6016901a9115dbb81320fa07512062555119c8a3b1d69"),
    ("x*y*(x+y+z)",
     "cfae3c7d5c390262cadb0ff17789387f0c0629ef13aafb81e0712b6e3e342912"),
    ("x*y*(x+y)*(x+y*z)",
     "cae62f64c287268950ffcecbd04867e2c5e689aa1361585baea040a24b12e79a"),
    ("x*y*z",
     "23f502b2eaec64b67040c7988624cc1e9d0b20e9d89f8fc648f0bb6374893783"),
    ("x*y*(x+y)",
     "f183882b22c74575dc4b1a04bbffb664dbedfcc65937317a4008a22240271fa3"),
]
# the factors a pinned germ is analysed with, where it has any
GOLDEN_FACTORS = {"x*y*(x+y)*(x+y*z)": "x;y;x+y;x+y*z", "x*y*z": "x;y;z",
                  "x*y*(x+y)": "x;y;x+y"}


# the test ids name the germ alone, so a retaken digest keeps its test's id
@pytest.mark.parametrize("poly,digest", GOLDEN_REPORTS,
                         ids=[poly for poly, _ in GOLDEN_REPORTS])
def test_default_report_bytes_are_pinned(poly, digest):
    # the germ lives in the variables its polynomial names
    report = analyze_text(sorted(set(poly) & set("xyz")), poly,
                          GOLDEN_FACTORS.get(poly))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
