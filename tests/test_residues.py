"""Residues of logarithmic 1-forms, the residue module, direct sums."""

import inspect

import pytest

from logres import groebner, residues
from logres.corpus import CORPUS
from logres.errors import InputError, EngineError
from logres.poly import Poly
from logres.groebner import Vec, reduce_poly, syzygies
from logres.germs import DivisorGerm, VectorField, LogOneForm, is_free, \
    log_forms_basis
from logres.fractional import FractionalIdeal
from logres.residues import (MeroFraction, residue, residue_certificates,
                             residue_module, sigma_check, mu_residues,
                             gorenstein_singular_locus, direct_sum_check,
                             IdempotentData, validate_factorization,
                             ResidueCertificate)
from logres.fractional import is_nzd
from conftest import deadline


def node():
    return DivisorGerm(["x", "y"], "x*y")


def test_is_logarithmic_examples():
    D = node()
    assert LogOneForm([D.poly("y"), D.poly("0")]).is_logarithmic(D)   # dx/x
    assert not LogOneForm([D.poly("1"), D.poly("0")]).is_logarithmic(D)
    # anything in h * O^n is logarithmic
    assert LogOneForm([D.h * D.poly("x + 3"), D.h * D.poly("y^2")]).is_logarithmic(D)


def test_residue_node():
    D = node()
    omega = LogOneForm([D.poly("y"), D.poly("0")])  # dx/x
    r = residue(omega, D)
    assert r.equals(MeroFraction(D, D.poly("y"), D.poly("x + y")))


def test_residue_holomorphic_is_zero():
    D = node()
    omega = LogOneForm([D.h * D.poly("x"), D.h * D.poly("1 - y")])
    r = residue(omega, D)
    assert D.in_h(r.num)


def test_residue_rejects_non_logarithmic():
    D = node()
    with pytest.raises(InputError):
        residue(LogOneForm([D.poly("1"), D.poly("0")]), D)


def test_residue_well_defined_two_certificates():
    D = node()
    omega = LogOneForm([D.poly("y"), D.poly("0")])
    certs = residue_certificates(omega, D, count=2)
    assert len(certs) == 2
    assert certs[0].g != certs[1].g or certs[0].xi != certs[1].xi
    f1 = MeroFraction(D, certs[0].xi, certs[0].g)
    f2 = MeroFraction(D, certs[1].xi, certs[1].g)
    assert f1.equals(f2)
    for cert in certs:
        assert cert.verify([D.poly("y"), D.poly("0")], D)


def _syzygy_residue(omega, D):
    """Reference: the first certificate of the syzygy route that contraction
    replaced.  One syzygy module of (a | grad h | h*e_1 | ... | h*e_n); each
    syzygy (g, s, r) with g != 0 gives g*a = -s*grad h - h*r, tried in the
    order generators, sums and differences of pairs, (1+x_k) rescalings."""
    a = omega.a
    n = D.n
    zero = Poly.zero(n)
    rows = [Vec(a), Vec(D.partials)]
    rows += [Vec([D.h if k == i else zero for k in range(n)])
             for i in range(n)]
    base = [(s.polys[0], s.polys[1], s.polys[2:]) for s in syzygies(rows)
            if not s.polys[0].is_zero]
    combos = list(base)
    for i, (gi, si, ri) in enumerate(base):
        for gj, sj, rj in base[i + 1:]:
            combos.append((gi + gj, si + sj, [p + q for p, q in zip(ri, rj)]))
            combos.append((gi - gj, si - sj, [p - q for p, q in zip(ri, rj)]))
    for k in range(n):
        u = Poly.const(n, 1) + Poly.variable(n, k)
        combos += [(u * g, u * s, [u * p for p in r]) for g, s, r in base]
    for g, s, r in combos:
        if is_nzd(D, g):
            return ResidueCertificate(g, -s, [-p for p in r], Poly.const(n, 1))
    raise AssertionError("the syzygy route found no nonzerodivisor")


# every free corpus germ, and unit multiples of free plane curves
FREE_GERMS = ([(e["vars"], e["poly"]) for e in CORPUS
               if e["expected"]["free"] == "true"]
              + [(["x", "y"], "(x^3+y^4)*(2+x+y)"),
                 (["x", "y"], "(x^2-y^3)*(2+x+y)")])


@pytest.mark.parametrize("names,text", FREE_GERMS,
                         ids=[t for _, t in FREE_GERMS])
def test_contraction_residue_agrees_with_syzygy_route(names, text):
    D = DivisorGerm(names, text)
    free, M = is_free(D)
    assert free
    for w in log_forms_basis(M):
        old = _syzygy_residue(w, D)
        new = residue_certificates(w, D)[0]
        assert old.verify(w.a, D) and new.verify(w.a, D)
        assert MeroFraction(D, new.xi, new.g).equals(
            MeroFraction(D, old.xi, old.g)), text
    # one contraction field serves every form, so the residues of the dual
    # basis share one denominator
    assert len({residue(w, D).den for w in log_forms_basis(M)}) == 1


def test_residue_is_the_contraction_before_the_mora_unit():
    # dx/(x*(1+y)) is logarithmic on x*y*(1+y) only locally, so the division
    # certifying its residue needs a unit u != 1; the residue stays
    # <c, a>/c(h) for c = (1, 1)
    D = DivisorGerm(["x", "y"], "x*y*(1+y)")
    omega = LogOneForm([D.poly("y"), D.poly("0")])
    cert = residue_certificates(omega, D)[0]
    assert cert.verify(omega.a, D)
    assert not cert.u.is_constant()
    r = residue(omega, D)
    assert (r.num, r.den) == (D.poly("y"), D.partials[0] + D.partials[1])


# free germs on which every constant field c with entries in [-2, 2] has
# c(h) a zero divisor: each such c lies on one of the components
SMALL_FIELDS_FAIL = [
    (["x", "y"], "x*y*(x-y)*(x+y)*(x-2*y)*(x+2*y)*(2*x-y)*(2*x+y)"),
    (["x", "y", "z"], "x*y*z*(x+y)*(x-y)*(x+z)*(x-z)*(y+z)*(y-z)"),
]


@pytest.mark.parametrize("names,text", SMALL_FIELDS_FAIL,
                         ids=[t for _, t in SMALL_FIELDS_FAIL])
def test_residues_reach_beyond_the_small_fields(names, text):
    D = DivisorGerm(names, text)
    with deadline(10):
        free, M = is_free(D)
        assert free
        for w in log_forms_basis(M):
            cert = residue_certificates(w, D)[0]
            assert cert.verify(w.a, D) and is_nzd(D, cert.g)
            assert cert.g == sum((p.scale(3 ** k) for k, p
                                  in enumerate(D.partials)), Poly.zero(D.n))


def test_eight_lines_residue_module():
    D = DivisorGerm(["x", "y"], SMALL_FIELDS_FAIL[0][1])
    with deadline(10):
        assert mu_residues(D) == (2, True)
        assert gorenstein_singular_locus(D) == "gorenstein"


def test_residue_certificates_compute_no_syzygy(monkeypatch):
    forms = []
    for names, text in ((["x", "y"], "x^2 - y^3"),
                        (["x", "y", "z"], "x*y*(x+y)*(x+y*z)")):
        D = DivisorGerm(names, text)
        dual = log_forms_basis(is_free(D)[1])
        forms += [(w, D) for w in [LogOneForm(list(D.partials))] + dual]
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return syzygies(*args, **kw)

    monkeypatch.setattr(groebner, "syzygies", counted)
    monkeypatch.setattr(residues, "syzygies", counted, raising=False)
    for w, D in forms:
        residue_certificates(w, D, count=2)
    assert not calls


def test_residue_triple_line_pole():
    # (1/(x-y)) (dx/x - dy/y) on xy(x-y) restricts to -1/y on {x = 0}
    D = DivisorGerm(["x", "y"], "x*y*(x-y)")
    omega = LogOneForm([D.poly("y"), D.poly("-x")])
    assert omega.is_logarithmic(D)
    r = residue(omega, D)
    num, den = r.restrict(D.poly("x"))
    check = num * D.poly("y") + den
    assert reduce_poly(check, (D.poly("x"),), D.global_order).is_zero


def test_residue_module_node():
    D = node()
    R = residue_module(D)
    expected = FractionalIdeal.make(
        [(D.poly("1"), D.poly("1")), (D.poly("y"), D.poly("x + y"))], D)
    assert R.equals(expected)


def test_residue_module_smooth():
    S = DivisorGerm(["x", "y"], "x")
    R = residue_module(S)
    assert R.equals(FractionalIdeal.ring(S))


def test_residue_module_cusp():
    C = DivisorGerm(["x", "y"], "x^2 - y^3")
    R = residue_module(C)
    expected = FractionalIdeal.make(
        [(C.poly("1"), C.poly("1")), (C.poly("y"), C.poly("x"))], C)
    assert R.equals(expected)


def test_residue_module_caches_one_certified_ideal(monkeypatch):
    assert "crosscheck" not in inspect.signature(residue_module).parameters
    monkeypatch.setattr(residues, "_RESIDUE_MODULE_CACHE", {})
    C = DivisorGerm(["x", "y"], "x^2 - y^3")
    R = residue_module(C)
    assert residue_module(C) is R
    assert all(isinstance(v, FractionalIdeal)
               for v in residues._RESIDUE_MODULE_CACHE.values())


def test_residue_module_certifies_first_computation(monkeypatch):
    # a residue map that sends every form to 1 makes the dual basis generate
    # O_D, not R_D; the first R_D of a free germ must catch it
    monkeypatch.setattr(residues, "_RESIDUE_MODULE_CACHE", {})
    monkeypatch.setattr(residues, "residue",
                        lambda w, D: MeroFraction(D, D.poly("1"), D.poly("1")))
    C = DivisorGerm(["x", "y"], "x^2 - y^3")
    with pytest.raises(EngineError):
        residue_module(C)
    assert not residues._RESIDUE_MODULE_CACHE


def test_sigma_check_examples():
    D = node()
    omega = LogOneForm([D.poly("y"), D.poly("0")])
    assert sigma_check(VectorField([D.poly("x"), D.poly("0")]), omega, D)
    assert sigma_check(VectorField([D.poly("0"), D.poly("1")]), omega, D)
    hol = LogOneForm([D.h, D.h.scale(2)])
    assert sigma_check(VectorField([D.poly("x^2"), D.poly("y - 1")]), hol, D)


def test_sigma_check_product_set_on_free_basis():
    for text in ("x*y", "x^2 - y^3"):
        D = DivisorGerm(["x", "y"], text)
        free, M = is_free(D)
        assert free
        forms = log_forms_basis(M)
        for fld in M.fields:
            for w in forms:
                assert sigma_check(fld, w, D)


def test_mu_residues():
    assert mu_residues(DivisorGerm(["x", "y"], "x"))[0] == 1
    assert mu_residues(DivisorGerm(["x", "y"], "x^2 - y^3")) == (2, True)
    assert mu_residues(node()) == (2, True)


def test_gorenstein_verdicts():
    assert gorenstein_singular_locus(DivisorGerm(["x", "y"], "x")) == "empty"
    assert gorenstein_singular_locus(DivisorGerm(["x", "y"], "x^2 - y^3")) == "gorenstein"
    assert gorenstein_singular_locus(DivisorGerm(["x", "y"], "x*y*(x+y)")) == "gorenstein"
    assert gorenstein_singular_locus(
        DivisorGerm(["x", "y", "z"], "x^2 - y^2*z")) == "undecided"


def test_validate_factorization():
    D = node()
    assert validate_factorization(D, [D.poly("x"), D.poly("y")]) == 1
    with pytest.raises(InputError):
        validate_factorization(D, [D.poly("x"), D.poly("x")])
    with pytest.raises(InputError):
        validate_factorization(D, [D.poly("x")])
    with pytest.raises(InputError):
        validate_factorization(D, [D.poly("x^2"), D.poly("y")])
    with pytest.raises(InputError):
        validate_factorization(D, [])
    with pytest.raises(InputError):
        validate_factorization(D, [D.poly("x*y"), D.poly("0")])
    T = DivisorGerm(["x", "y"], "x*y*(x+y)")
    # a coarse but coprime squarefree factorization is accepted
    assert validate_factorization(T, [T.poly("x"), T.poly("y*(x+y)")]) == 1
    with pytest.raises(InputError):
        validate_factorization(T, [T.poly("x*y"), T.poly("y")])  # share y
    # the scale factor is reported
    S = DivisorGerm(["x", "y"], "2*x*y")
    assert validate_factorization(S, [S.poly("x"), S.poly("y")]) == 2


def test_idempotents_node():
    D = node()
    idem = IdempotentData(D, [D.poly("x"), D.poly("y")])
    e1, e2 = (MeroFraction(D, p, idem.g) for p in idem.parts)
    assert e1.equals(MeroFraction(D, D.poly("y"), D.poly("x + y")))
    # e^2 = e and sum = 1 certified at construction; re-check here explicitly
    for p in idem.parts:
        from logres.poly import exact_div
        assert exact_div(p * (p - idem.g), D.h) is not None
    total = Poly.zero(2)
    for p in idem.parts:
        total = total + p
    assert total == idem.g


def test_direct_sum_node_and_planes():
    D = node()
    assert direct_sum_check(D, IdempotentData(D, [D.poly("x"), D.poly("y")]))
    Z = DivisorGerm(["x", "y", "z"], "x*y*z")
    assert direct_sum_check(
        Z, IdempotentData(Z, [Z.poly("x"), Z.poly("y"), Z.poly("z")]))


def test_direct_sum_triple_line_fails():
    D = DivisorGerm(["x", "y"], "x*y*(x-y)")
    assert not direct_sum_check(
        D, IdempotentData(D, [D.poly("x"), D.poly("y"), D.poly("x - y")]))


def test_direct_sum_single_smooth_factor():
    S = DivisorGerm(["x", "y"], "x")
    assert direct_sum_check(S, IdempotentData(S, [S.poly("x")]))


def test_restrict_guard():
    D = node()
    frac = MeroFraction(D, D.poly("y"), D.poly("x + y"))
    with pytest.raises(InputError):
        frac.restrict(D.poly("x + y"))
