"""Acceptance criteria.

Each test implements one acceptance criterion at its stated tolerance
(exact equality everywhere: all arithmetic is rational) and prints one
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction

import pytest

from logres.poly import Poly, Order, parse, exact_div
from logres.groebner import (Vec, ModOrder, std_ideal, normal_form,
                             division_certificate, syzygies, reduce_poly,
                             ideal_contains)
from logres.germs import (DivisorGerm, LogOneForm, is_free, euler_field,
                          log_forms_basis)
from logres.fractional import FractionalIdeal, jacobian_module
from logres.residues import (MeroFraction, residue, residue_certificates,
                             residue_module, sigma_check, mu_residues,
                             direct_sum_check, gorenstein_singular_locus,
                             IdempotentData)
from logres.normalization import (normalization_from_branches,
                                  is_weakly_holomorphic)
from logres.criteria import analyze, analyze_text, check_condition_C
from logres.corpus import CORPUS


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def _series_val(p, sub, order=64):
    """Independent truncated-series oracle: t-valuation of p(x(t), y(t), ...)
    where sub maps variable index -> {exponent: coefficient} (missing or empty
    means the variable pulls back to 0)."""
    acc = {}
    for e, c in p.terms.items():
        jets = {0: Fraction(c)}
        dead = False
        for i, k in enumerate(e):
            if k == 0:
                continue
            base = sub.get(i, {})
            if not base:
                dead = True
                break
            for _ in range(k):
                new = {}
                for e1, c1 in jets.items():
                    for e2, c2 in base.items():
                        if e1 + e2 <= order:
                            new[e1 + e2] = new.get(e1 + e2, Fraction(0)) + c1 * c2
                jets = new
        if dead:
            continue
        for ee, cc in jets.items():
            acc[ee] = acc.get(ee, Fraction(0)) + cc
    acc = {e: c for e, c in acc.items() if c}
    return min(acc) if acc else None


def _corpus_germ(entry):
    D = DivisorGerm(entry["vars"], parse(entry["poly"], entry["vars"]))
    factors = [parse(t, entry["vars"]) for t in entry["factors"].split(";")]
    return D, factors


def test_criterion_1_node_residue_and_module():
    """Example: on h = xy, residue(dx/x) = y/(x+y) and R_D = <1, y/(x+y)>
    = dual(J_D) with J_D = <x, y>; runtime < 1 s."""
    t0 = time.time()
    D = DivisorGerm(["x", "y"], "x*y")
    omega = LogOneForm([D.poly("y"), D.poly("0")])  # dx/x
    r = residue(omega, D)
    assert r.equals(MeroFraction(D, D.poly("y"), D.poly("x + y")))
    J = jacobian_module(D)
    assert J.equals(FractionalIdeal(D, [D.poly("x"), D.poly("y")], 1))
    R = residue_module(D)
    expected = FractionalIdeal.make(
        [(D.poly("1"), D.poly("1")), (D.poly("y"), D.poly("x + y"))], D)
    assert R.equals(expected)
    assert J.dual().equals(R)
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"node residue y/(x+y), R_D = dual(J_D) = <1, y/(x+y)> "
               f"({elapsed:.2f}s)")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_criterion_2_tangential_family(m):
    """On h = x(x+y^m) the residue of (y dx - m x dy)/h restricted to {x=0}
    has t-valuation 1 - m; weakly holomorphic iff m = 1."""
    D = DivisorGerm(["x", "y"], f"x*(x+y^{m})")
    omega = LogOneForm([D.poly("y"), D.poly("x").scale(-m)])
    assert omega.is_logarithmic(D)
    r = residue(omega, D)
    # restriction to the branch x = 0, y = t, by the independent series oracle
    sub = {0: {}, 1: {1: Fraction(1)}}
    vn = _series_val(r.num, sub)
    vd = _series_val(r.den, sub)
    assert vd is not None
    val = (vn - vd) if vn is not None else None
    assert val == 1 - m, f"m={m}: restricted valuation {val}"
    nd = normalization_from_branches(D)
    assert is_weakly_holomorphic(r, nd) is (m == 1)
    _report(2, f"m={m}: restricted valuation {1 - m}, weakly holomorphic: "
               f"{m == 1}")


def test_criterion_3_triple_line_witness():
    """On h = xy(x-y), condition (C) fails with a witness residue restricting
    to -1/y on {x = 0}."""
    D = DivisorGerm(["x", "y"], "x*y*(x-y)")
    nd = normalization_from_branches(D)
    verdict, why = check_condition_C(D, nd)
    assert verdict == "false"
    omega = LogOneForm([D.poly("y"), D.poly("-x")])
    r = residue(omega, D)
    num, den = r.restrict(D.poly("x"))
    # equality with -1/y on the component: num*y + den = 0 mod x, exactly
    residual = reduce_poly(num * D.poly("y") + den, (D.poly("x"),),
                           D.global_order)
    assert residual.is_zero
    _report(3, "condition (C) false on xy(x-y); witness restricts to -1/y")


def test_criterion_4_direct_sums_with_idempotent_certificates():
    """Direct-sum identity on h = xy and h = xyz with exact idempotent
    certificates e_i^2 = e_i and sum e_i = 1 mod h."""
    for vars_, text, factors in [(["x", "y"], "x*y", ["x", "y"]),
                                 (["x", "y", "z"], "x*y*z", ["x", "y", "z"])]:
        D = DivisorGerm(vars_, text)
        idem = IdempotentData(D, [D.poly(f) for f in factors])
        assert direct_sum_check(D, idem)
        total = Poly.zero(D.n)
        for p in idem.parts:
            q = exact_div(p * (p - idem.g), D.h)
            assert q is not None  # e^2 - e = (h-multiple)/g^2 exactly
            total = total + p
        assert total == idem.g  # sum of idempotents is exactly 1
    _report(4, "direct sums on xy and xyz with exact idempotent certificates")


def test_criterion_5_freeness_verdicts():
    """xy(x+y)(x+yz) free with an exact Saito determinant, the Whitney
    umbrella not free, every plane-curve corpus germ free."""
    F = DivisorGerm(["x", "y", "z"], "x*y*(x+y)*(x+y*z)")
    free, M = is_free(F)
    assert free
    assert M.unit == Poly.const(3, 1), \
        "determinant not an exact polynomial multiple"
    assert M.det == M.quot * F.h
    assert M.quot.constant_term() != 0
    W = DivisorGerm(["x", "y", "z"], "x^2 - y^2*z")
    assert is_free(W) == (False, None)
    for entry in CORPUS:
        if len(entry["vars"]) == 2:
            D, _ = _corpus_germ(entry)
            assert is_free(D)[0], entry["name"]
    _report(5, "four-planes family free (det = unit*h exactly), Whitney "
               "umbrella not free, all plane curves free")


def test_criterion_6_cusp_pipeline_against_series_oracle():
    """Cusp pipeline, all exact: J = <x, y^2>, C = <x, y>, R = <1, y/x>,
    mu = (2, true), Gorenstein, (B, D, G) all false, Euler field
    (1/6)(3x d/dx + 2y d/dy); oracle: truncated series on x=t^3, y=t^2."""
    D = DivisorGerm(["x", "y"], "x^2 - y^3")
    x, y, one = D.poly("x"), D.poly("y"), D.poly("1")
    sub = {0: {3: Fraction(1)}, 1: {2: Fraction(1)}}
    assert _series_val(D.h, sub) is None  # the parametrization is exact

    assert jacobian_module(D).equals(FractionalIdeal(D, [x, y * y], 1))
    # oracle: the Jacobian values are {3, 4, ...}, missing 2
    assert _series_val(x, sub) == 3 and _series_val(y * y, sub) == 4

    nd = normalization_from_branches(D)
    assert nd.weak_ring.conductor().equals(FractionalIdeal(D, [x, y], 1))
    # oracle: conductor exponent 2 (the semigroup of O_D is {0, 2, 3, ...})
    assert _series_val(y, sub) == 2

    R = residue_module(D)
    assert R.equals(FractionalIdeal.make([(one, one), (y, x)], D))
    # oracle: y/x pulls back to t^(-1), so R strictly exceeds the weak ring
    assert _series_val(y, sub) - _series_val(x, sub) == -1

    assert mu_residues(D) == (2, True)
    assert gorenstein_singular_locus(D) == "gorenstein"
    assert analyze(D).data["extras"]["free_equivalences"] == {
        "B": "false", "D": "false", "G": "false"}
    chi = euler_field(D).normalized()
    assert chi.coeffs[0] == D.poly("1/2*x")   # (1/6) * 3x
    assert chi.coeffs[1] == D.poly("1/3*y")   # (1/6) * 2y
    assert chi.apply(D.h) == D.h
    _report(6, "cusp pipeline exact: J, C, R, mu, Gorenstein, (B,D,G), "
               "Euler field all confirmed against the series oracle")


def test_criterion_7_equivalence_suites():
    """On every corpus germ: the inclusion chain, dual identities for free
    germs, (C) iff (G), cyclic residues iff smooth (free germs), residue well-definedness
    under two certificates, and the sigma pairing on the full basis product
    set."""
    for entry in CORPUS:
        D, factors = _corpus_germ(entry)
        free, M = is_free(D)
        J = jacobian_module(D)
        R = residue_module(D)
        O = FractionalIdeal.ring(D)

        # normalization data, possibly derived from a certified (C)
        nd = None
        weak = cond_frac = None
        try:
            nd = normalization_from_branches(D)
        except Exception:
            pass
        if nd is None:
            verdict, _ = check_condition_C(D, None)
            if verdict == "true":
                weak, cond_frac = R, R.dual()
        else:
            weak = nd.weak_ring
            cond_frac = nd.weak_ring.conductor()

        if weak is not None:
            chain = [("J", J), ("dual(R)", R.dual()), ("C", cond_frac),
                     ("O", O), ("weak", weak), ("R", R)]
            for (n1, small), (n2, big) in zip(chain, chain[1:]):
                assert big.includes(small), f"{entry['name']}: {n1} in {n2}"

        if free:
            assert R.dual().equals(J), entry["name"]          # J = dual(R)
            assert J.dual().dual().equals(J), entry["name"]   # involution
            # only for free D: a normal surface has R_D = O_D, cyclic, but
            # is not smooth
            assert (mu_residues(D)[0] == 1) == D.is_smooth, entry["name"]

        # well-definedness: two distinct certificates per corpus form
        forms = [LogOneForm(list(D.partials))]  # dh/h is always logarithmic
        if free:
            forms += log_forms_basis(M)
        for w in forms:
            certs = residue_certificates(w, D, count=2)
            if len(certs) == 2:
                f1 = MeroFraction(D, certs[0].xi, certs[0].g)
                f2 = MeroFraction(D, certs[1].xi, certs[1].g)
                assert f1.equals(f2), entry["name"]
        if free:
            for fld in M.fields:
                for w in log_forms_basis(M):
                    assert sigma_check(fld, w, D), entry["name"]
    _report(7, f"equivalence suites verified on {len(CORPUS)} corpus germs")


def test_criterion_8_engine_oracles_randomized():
    """200 randomized instances (at most 4 variables, degree at most 4):
    S-polynomials of every emitted basis reduce to zero, membership
    certificates re-multiply exactly, syzygies annihilate their rows;
    total under 30 s."""
    rng = random.Random(20260809)
    t0 = time.time()

    def rand_poly(n, max_terms=3, max_deg=4):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            while True:
                e = tuple(rng.randint(0, 2) for _ in range(n))
                if sum(e) <= max_deg:
                    break
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[e] = terms.get(e, 0) + c
        return Poly(n, {e: c for e, c in terms.items() if c})

    checked_bases = checked_members = checked_syz = 0
    for instance in range(200):
        n = rng.randint(2, 4)
        order = Order("degrevlex", n)
        mo = ModOrder(order)
        gens = tuple(p for p in (rand_poly(n) for _ in range(rng.randint(2, 3)))
                     if not p.is_zero)
        if not gens:
            continue
        basis = std_ideal(gens, order)
        vecs = [Vec([g]) for g in basis]
        # every S-polynomial of the emitted basis reduces to zero
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                li, lj = mo.lead(vecs[i]), mo.lead(vecs[j])
                lcm = tuple(max(a, b) for a, b in zip(li[1], lj[1]))
                a = vecs[i].mul_term(
                    Fraction(1) / mo.lead_coeff(vecs[i], li),
                    tuple(p - q for p, q in zip(lcm, li[1])))
                b = vecs[j].mul_term(
                    Fraction(1) / mo.lead_coeff(vecs[j], lj),
                    tuple(p - q for p, q in zip(lcm, lj[1])))
                assert normal_form(a - b, vecs, mo).is_zero
                checked_bases += 1
        # membership certificate re-multiplies exactly
        f = Poly.zero(n)
        for g in gens:
            f = f + g * rand_poly(n, max_terms=2, max_deg=2)
        quots, unit, rem = division_certificate(f, list(basis), mo)
        assert rem.is_zero
        recombined = Poly.zero(n)
        for q, g in zip(quots, basis):
            recombined = recombined + q * g
        assert recombined == unit * f
        checked_members += 1
        # syzygies annihilate the row exactly
        row = [rand_poly(n) for _ in range(rng.randint(2, 3))]
        row = [p for p in row if not p.is_zero]
        if len(row) >= 2:
            for s in syzygies(row):
                combo = Poly.zero(n)
                for c, g in zip(s.polys, row):
                    combo = combo + c * g
                assert combo.is_zero
            checked_syz += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"randomized suite took {elapsed:.1f}s"
    _report(8, f"200 randomized instances: {checked_bases} S-pairs, "
               f"{checked_members} membership certificates, {checked_syz} "
               f"syzygy rows, all exact ({elapsed:.1f}s)")


def test_criterion_9_non_euler_control():
    """h = x^4 + y^5 + x y^4 is not Euler homogeneous and 1 is accordingly
    not part of a minimal generating set of R_D."""
    r = analyze_text(["x", "y"], "x^4 + y^5 + x*y^4")
    assert r.verdicts["euler_homogeneous"] == "false"
    assert r.data["extras"]["contains_unit"] is False
    assert "unit_generator_iff_euler" in r.consistency
    D = DivisorGerm(["x", "y"], "x^4 + y^5 + x*y^4")
    assert not ideal_contains(D.h, D.partials, D.local_order)
    _report(9, "non-quasihomogeneous control: Euler false, 1 not a minimal "
               "generator of R_D, consistency verified")
