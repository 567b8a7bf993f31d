"""Divisor germs, logarithmic fields, freeness, Euler homogeneity."""

import pytest

from logres.errors import InputError
from logres.poly import Poly, exact_div
from logres.groebner import Vec, ModOrder, normal_form, min_generators_local
from logres.germs import (DivisorGerm, VectorField, log_derivations, is_free,
                          euler_field, log_forms_basis, SaitoMatrix)
from logres.fractional import jacobian_module


def make(vars_, text):
    return DivisorGerm(vars_, text)


def test_germ_validation():
    with pytest.raises(InputError):
        make(["x", "y"], "x^2*y")      # not reduced at the origin
    with pytest.raises(InputError):
        make(["x"], "x + 1")           # does not pass through the origin
    with pytest.raises(InputError):
        make(["x"], "0")


@pytest.mark.parametrize("names", [["x", "x"], ["x", "1"], ["x", "d/d1"],
                                   ["x", ""], ["x", "-y"], ["x", "y^2"]])
def test_germ_rejects_names_that_do_not_parse_back(names):
    with pytest.raises(InputError, match="variable name"):
        DivisorGerm(names, Poly.variable(2, 0))


def test_facts_are_computed_once_per_germ():
    D = make(["x", "y"], "x^2 - y^3")
    assert euler_field(D) is euler_field(D)
    assert is_free(D) is is_free(D)
    assert set(D.facts) == {"euler_field", "is_free"}
    # another germ with the same h keeps its own facts
    E = make(["x", "y"], "x^2 - y^3")
    assert not E.facts and euler_field(E) is not euler_field(D)


def test_jacobian_ideal():
    D = make(["x", "y"], "x*y")
    assert set(jacobian_module(D).num) == {D.poly("x"), D.poly("y")}
    C = make(["x", "y"], "x^2 - y^3")
    assert set(jacobian_module(C).num) == {C.poly("x"), C.poly("y^2")}
    S = make(["x", "y"], "x")
    assert S.member_mod_h(S.poly("1"), jacobian_module(S).num)


def test_log_derivations_node():
    D = make(["x", "y"], "x*y")
    fields = log_derivations(D)
    expected = [VectorField([D.poly("x"), D.poly("0")]),
                VectorField([D.poly("0"), D.poly("y")])]
    mo = ModOrder(D.global_order)
    vecs = [Vec(f.coeffs) for f in fields]
    for e in expected:
        assert normal_form(Vec(e.coeffs), vecs, mo).is_zero
    for f in fields:
        assert normal_form(Vec(f.coeffs), [Vec(e.coeffs) for e in expected],
                           mo).is_zero


def test_log_derivations_cusp():
    C = make(["x", "y"], "x^2 - y^3")
    fields = log_derivations(C)
    # the Euler field and the hamiltonian field span the module
    E = VectorField([C.poly("3*x"), C.poly("2*y")])
    H = VectorField([C.poly("-3*y^2"), C.poly("-2*x")])
    assert E.apply(C.h) == C.h.scale(6)
    assert H.apply(C.h).is_zero
    mo = ModOrder(C.global_order)
    vecs = [Vec(f.coeffs) for f in fields]
    for e in (E, H):
        assert normal_form(Vec(e.coeffs), vecs, mo).is_zero
    for f in fields:
        assert f.is_logarithmic(C)


def test_log_derivations_smooth():
    S = make(["x", "y"], "x")
    fields = log_derivations(S)
    mo = ModOrder(S.global_order)
    vecs = [Vec(f.coeffs) for f in fields]
    for e in (VectorField([S.poly("x"), S.poly("0")]),
              VectorField([S.poly("0"), S.poly("1")])):
        assert normal_form(Vec(e.coeffs), vecs, mo).is_zero


def test_is_free_diagonal():
    Z = make(["x", "y", "z"], "x*y*z")
    free, M = is_free(Z)
    assert free
    # Saito certificate: det equals a unit times h exactly
    q = exact_div(M.det, Z.h)
    assert q is not None and q.constant_term() != 0


def test_whitney_not_free():
    W = make(["x", "y", "z"], "x^2 - y^2*z")
    free, M = is_free(W)
    assert not free and M is None


def test_four_planes_free():
    F = make(["x", "y", "z"], "x*y*(x+y)*(x+y*z)")
    free, M = is_free(F)
    assert free
    assert M.unit_value != 0
    for f in M.fields:
        assert f.is_logarithmic(F)


def test_plane_curves_always_free():
    for text in ("x*y", "x^2 - y^3", "x*y*(x+y)", "x^4 + y^5 + x*y^4"):
        D = make(["x", "y"], text)
        free, M = is_free(D)
        assert free, text
        assert min_generators_local([Vec(f.coeffs) for f in
                                     log_derivations(D)])[0] == 2


def test_euler_homogeneous():
    C = make(["x", "y"], "x^2 - y^3")
    assert euler_field(C) is not None
    chi = euler_field(C).normalized()
    # (1/6)(3x d/dx + 2y d/dy)
    assert chi.coeffs[0] == C.poly("1/2*x")
    assert chi.coeffs[1] == C.poly("1/3*y")
    assert chi.apply(C.h) == C.h
    assert euler_field(make(["x", "y"], "x")) is not None
    assert euler_field(make(["x", "y"], "x^4 + y^5 + x*y^4")) is None


def test_suspension_jacobian_generation_flags_products():
    # the partials minimally generate J_D mod h exactly when the germ does not
    # split off a smooth factor: check over curve germs and one suspension
    for vars_, text, expect_mu in [(["x", "y"], "x^2 - y^3", 2),
                                   (["x", "y"], "x*y", 2),
                                   (["x", "y", "z"], "x^2 - y^3", 2)]:
        D = DivisorGerm(vars_, text)
        gens = [Vec([p]) for p in D.partials if not p.is_zero]
        mu, _ = min_generators_local(gens, extra=[Vec([D.h])])
        assert mu == expect_mu
        assert (mu < D.n) == (len(D.h.vars_used()) < D.n)


def test_log_forms_basis_node():
    D = make(["x", "y"], "x*y")
    free, M = is_free(D)
    forms = log_forms_basis(M)
    assert len(forms) == 2
    # adjugate oracle: pairing with the fields is exactly Kronecker delta
    for i, fld in enumerate(M.fields):
        for j, w in enumerate(forms):
            s = Poly.zero(2)
            for k in range(2):
                s = s + fld.coeffs[k] * w.a[k]
            assert s == (w.extra * D.h if i == j else Poly.zero(2))
    for w in forms:
        assert w.is_logarithmic(D)


def test_log_forms_basis_cusp_pairing():
    C = make(["x", "y"], "x^2 - y^3")
    free, M = is_free(C)
    forms = log_forms_basis(M)
    for w in forms:
        assert w.is_logarithmic(C)


def test_log_forms_basis_of_a_locally_certified_matrix():
    # det = x is h = x*(1+y) times a unit only locally: h does not divide it,
    # and Mora's certificate (1 + y) * det = h carries the dual forms
    D = make(["x", "y"], "x*(1+y)")
    x, zero, one = D.poly("x"), D.poly("0"), D.poly("1")
    M = SaitoMatrix(D, [VectorField([x, zero]), VectorField([zero, one])])
    assert exact_div(M.det, D.h) is None
    assert M.unit * M.det == M.quot * D.h and M.unit_value == 1
    forms = log_forms_basis(M)
    for i, fld in enumerate(M.fields):
        for j, w in enumerate(forms):
            s = sum((c * a for c, a in zip(fld.coeffs, w.a)), Poly.zero(2))
            assert s == (w.extra * D.h if i == j else Poly.zero(2))
    assert [w.a for w in forms] == [(D.poly("1 + y"), zero), (zero, D.h)]


def test_log_forms_rejects_uncertified():
    D = make(["x", "y"], "x*y")
    with pytest.raises(InputError):
        # rows are logarithmic but the determinant is x^2 y, not unit * h
        bad = SaitoMatrix(D, [VectorField([D.poly("x^2"), D.poly("0")]),
                              VectorField([D.poly("0"), D.poly("y")])])
