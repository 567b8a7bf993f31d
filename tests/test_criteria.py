"""Condition checks, theorem cross-validations, and the report aggregator."""

import hashlib
import inspect

import pytest

from conftest import deadline
from logres import criteria, fractional, germs, residues
from logres.errors import InputError
from logres.fractional import FractionalIdeal
from logres.germs import DivisorGerm
from logres.residues import IdempotentData
from logres.normalization import normalization_from_branches
from logres.criteria import (analyze, analyze_text, check_condition_C,
                             check_condition_G, check_condition_D,
                             check_condition_B,
                             check_normal_crossing_at_origin,
                             crosscheck_free_equivalences, classify_gorenstein_suspension,
                             DivisorReport)


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
    D = DivisorGerm(["x", "y"], "x*y")
    nd = normalization_from_branches(D)
    assert check_condition_G(D, nd)[0] == "true"
    C = DivisorGerm(["x", "y"], "x^2 - y^3")
    ndc = normalization_from_branches(C)
    assert check_condition_G(C, ndc)[0] == "false"
    S = DivisorGerm(["x", "y"], "x")
    nds = normalization_from_branches(S)
    assert check_condition_G(S, nds)[0] == "true"
    # without normalization data but with (C) certified true, the conductor
    # is derived from the residue module
    W = DivisorGerm(["x", "y", "z"], "x^2 - y^2*z")
    assert check_condition_G(W, None, c_verdict="true")[0] == "false"
    assert check_condition_G(W, None, c_verdict="undecided")[0] == "undecided"


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
    Z = DivisorGerm(["x", "y", "z"], "x*y*z")
    planes = IdempotentData(Z, [Z.poly("x"), Z.poly("y"), Z.poly("z")])
    assert check_condition_B(Z, planes)[0] == "true"
    F = DivisorGerm(["x", "y", "z"], "x*y*(x+y)*(x+y*z)")
    factors = [F.poly(t) for t in ("x", "y", "x+y", "x+y*z")]
    assert check_condition_B(F, IdempotentData(F, factors))[0] == "false"
    W = DivisorGerm(["x", "y", "z"], "x^2 - y^2*z")
    assert check_condition_B(W, IdempotentData(W, [W.h]))[0] == "undecided"


def test_crosscheck_free_equivalences():
    D = DivisorGerm(["x", "y"], "x*y")
    nd = normalization_from_branches(D)
    rec = crosscheck_free_equivalences(D, factors=[D.poly("x"), D.poly("y")], nd=nd)
    assert rec == {"B": "true", "D": "true", "G": "true"}
    C = DivisorGerm(["x", "y"], "x^2 - y^3")
    ndc = normalization_from_branches(C)
    rec2 = crosscheck_free_equivalences(C, nd=ndc)
    assert rec2 == {"B": "false", "D": "false", "G": "false"}
    T = DivisorGerm(["x", "y"], "x*y*(x+y)")
    ndt = normalization_from_branches(T)
    rec3 = crosscheck_free_equivalences(T, nd=ndt)
    assert rec3 == {"B": "false", "D": "false", "G": "false"}
    W = DivisorGerm(["x", "y", "z"], "x^2 - y^2*z")
    with pytest.raises(InputError):
        crosscheck_free_equivalences(W)


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
    # a suspension in other linear coordinates: the witness is an Euler
    # field of h itself, in the input coordinates
    for text in ("(x+y)^2 - z^3", "x^2 - (y+2*z)^3"):
        L = DivisorGerm(["x", "y", "z"], text)
        verdict, witness = classify_gorenstein_suspension(L)
        assert verdict == "suspension_of_quasihomogeneous_plane_curve", text
        assert witness.check(L), text


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


@pytest.mark.parametrize("precision", [0, -3])
def test_analyze_rejects_precision_below_one(precision):
    with pytest.raises(InputError, match="precision"):
        analyze_text(["x", "y"], "x^2 - y^3", precision=precision)


def test_analyze_rejects_empty_factor_list():
    D = DivisorGerm(["x", "y"], "x*y")
    with pytest.raises(InputError, match="empty factor list"):
        analyze(D, factors=[])


# the work each fact costs, wrapped where it is done: log_derivations
# inside is_free, the division by the partials inside euler_field, the
# curve criterion behind its per-germ memo, the factorization check, the
# idempotents, the comparison of fractional ideals, and the transversality
# check of a smooth arrangement
WORK = ("log_derivations", "euler_division", "curve_criterion",
        "validate_factorization", "IdempotentData", "equals", "arrangement")


def _count_work(monkeypatch):
    calls = dict.fromkeys(WORK, 0)

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    curve = criteria._curve_nc_at_origin
    for target, attr, name in (
            (germs, "log_derivations", "log_derivations"),
            (germs, "_partials_basis", "euler_division"),
            (curve, "__wrapped__", "curve_criterion"),
            (residues, "validate_factorization", "validate_factorization"),
            (residues.IdempotentData, "__init__", "IdempotentData"),
            (FractionalIdeal, "equals", "equals"),
            (criteria, "_arrangement_nc_in_codim1", "arrangement")):
        monkeypatch.setattr(target, attr, counted(name, getattr(target, attr)))
    # as in a fresh process: the first R_D of the germ is computed and
    # certified
    monkeypatch.setattr(residues, "_RESIDUE_MODULE_CACHE", {})
    return calls


@pytest.mark.parametrize("vars_,poly,factors,expected", [
    ("xy", "x^2 - y^3", None,
     {"log_derivations": 1, "euler_division": 1, "curve_criterion": 1}),
    ("xyz", "x*y*z", "x;y;z",
     {"validate_factorization": 1, "IdempotentData": 1, "equals": 3,
      "arrangement": 1}),
    ("xyz", "x*y*(x+y)*(x+y*z)", "x;y;x+y;x+y*z",
     {"validate_factorization": 1, "IdempotentData": 1, "equals": 3,
      "arrangement": 1}),
])
def test_analyze_computes_each_fact_once(monkeypatch, vars_, poly, factors,
                                         expected):
    calls = _count_work(monkeypatch)
    analyze_text(list(vars_), poly, factors)
    assert {k: calls[k] for k in expected} == expected


def test_analyze_computes_freeness_and_mu_once(monkeypatch):
    # each binding a caller looks up is wrapped, so every call is counted
    calls = {"is_free": 0, "mu_residues": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    for mod in (criteria, residues):
        for name in calls:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    monkeypatch.setattr(residues, "_RESIDUE_MODULE_CACHE", {})
    first = analyze_text(["x", "y"], "x^2 - y^3")
    # analyze, then the certification of the first R_D
    assert calls["is_free"] <= 2
    assert calls["mu_residues"] == 1
    calls.update(is_free=0, mu_residues=0)
    second = analyze_text(["x", "y"], "x^2 - y^3")
    assert calls == {"is_free": 1, "mu_residues": 1}
    assert first == second
    assert first.verdicts["gorenstein_singular_locus"] == "gorenstein"


# sha256 of the default JSON report; a speedup must keep these bytes
# unchanged.  The curves were taken from the code before the sparse kernel,
# the S-pair pruning and the reducer reuse; the two surfaces, which take the
# non-free dual path, from the code before the in-place dividend and the
# generator-product certificate; x*y*(x+y+z) from the code before the
# nonzerodivisor test by local dimension; four-planes-family, analysed with
# its factors, from the code before the residues by contraction.
GOLDEN_REPORTS = [
    ("x^5-y^7",
     "0003ac788881d9a5ba98798b881261bd1abc01861ee56046653828fe183bdac8"),
    ("x^3+y^5",
     "558cf0d886785801da15b1fb2f60c6bb93188aded5c8931e6e091e3ba653dae3"),
    ("x*y*(x-y)*(x+y)",
     "f97f11d0fe9354b3c132677d6b056dab72f5c0ceedea01102f8fee724ccc23dd"),
    ("x*y*z*(x+y+z)",
     "5b7ff569816f930b7cb576bd097e5b8bacd4587ab5fb1ec808eaf21636938d69"),
    ("x^3+y^3+z^3",
     "8e5606259bdfe1cf99d54e1b187e17000d4d21255fdb111d39067a9e0b1e41db"),
    ("x*y*(x+y+z)",
     "1a55e401e3927371857b9e53326a4f05a4380cd367eb9ce4b6ebe3e53cd34eea"),
    ("x*y*(x+y)*(x+y*z)",
     "29643a9b38b514820ed26138c580c6622c4a0713f4112a66661adca15f76def8"),
]
# the factors a pinned germ is analysed with, where it has any
GOLDEN_FACTORS = {"x*y*(x+y)*(x+y*z)": "x;y;x+y;x+y*z"}


@pytest.mark.parametrize("poly,digest", GOLDEN_REPORTS)
def test_default_report_bytes_are_pinned(poly, digest):
    # the germ lives in the variables its polynomial names
    report = analyze_text(sorted(set(poly) & set("xyz")), poly,
                          GOLDEN_FACTORS.get(poly))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
