"""Branches, Puiseux expansion, the weakly holomorphic ring, conductor."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from logres.errors import InputError, EngineError
from logres.poly import Poly, parse
from logres.germs import DivisorGerm
from logres.fractional import FractionalIdeal, jacobian_module
from logres.residues import MeroFraction, residue_module, IdempotentData
import logres.normalization as normalization
from logres.normalization import (BranchParam, Jet, puiseux_rational,
                                  normalization_from_branches,
                                  normalization_from_smooth_factors,
                                  is_weakly_holomorphic, pullback,
                                  branches_from_json, conductor_bound)


def cusp():
    return DivisorGerm(["x", "y"], "x^2 - y^3")


def series_valuation_oracle(p, sub, order=40):
    """Independent truncated-series oracle: t-order of p(x(t), y(t)) with the
    substitution given as {var_index: {exp: coeff}}."""
    acc = {}
    for e, c in p.terms.items():
        jets = {0: Fraction(c)}
        for i, k in enumerate(e):
            if k == 0:
                continue
            base = sub[i]
            for _ in range(k):
                new = {}
                for e1, c1 in jets.items():
                    for e2, c2 in base.items():
                        if e1 + e2 <= order:
                            new[e1 + e2] = new.get(e1 + e2, Fraction(0)) + c1 * c2
                jets = new
        for ee, cc in jets.items():
            acc[ee] = acc.get(ee, Fraction(0)) + cc
    acc = {e: c for e, c in acc.items() if c}
    return min(acc) if acc else None


def test_puiseux_cusp():
    D = cusp()
    branches = puiseux_rational(D, precision=20)
    assert len(branches) == 1
    b = branches[0]
    assert b.series[0] == {3: Fraction(1)}
    assert b.series[1] == {2: Fraction(1)}
    assert pullback(D.h, b).is_zero_jet
    with pytest.raises(TypeError, match="precision"):
        puiseux_rational(D)


def test_puiseux_node_axes():
    D = DivisorGerm(["x", "y"], "x*y")
    branches = puiseux_rational(D, precision=10)
    assert len(branches) == 2
    sers = {tuple(sorted((i, tuple(sorted(s.items()))) for i, s in b.series.items()))
            for b in branches}
    assert len(sers) == 2


def test_puiseux_unsupported_over_q():
    D = DivisorGerm(["x", "y"], "x^2 - 2*y^2")
    assert puiseux_rational(D, precision=10) is None


def test_normalization_from_branches_none_without_rational_branches():
    D = DivisorGerm(["x", "y"], "x^2 - 2*y^2")
    assert normalization_from_branches(D) is None


def test_puiseux_tangential_pair():
    D = DivisorGerm(["x", "y"], "x*(x+y^2)")
    branches = puiseux_rational(D, precision=12)
    assert len(branches) == 2
    for b in branches:
        assert pullback(D.h, b).is_zero_jet
        assert b.is_primitive()


def test_validate_branches_cusp():
    D = cusp()
    nd = normalization_from_branches(D)
    x, y, one = D.poly("x"), D.poly("y"), D.poly("1")
    assert nd.weak_ring.equals(FractionalIdeal.make([(one, one), (x, y)], D))
    assert nd.weak_ring.conductor().equals(FractionalIdeal(D, [x, y], 1))
    # valuation semigroup oracle on x = t^3, y = t^2: val(x/y) = 1 >= 0
    sub = {0: {3: Fraction(1)}, 1: {2: Fraction(1)}}
    assert series_valuation_oracle(x, sub) == 3
    assert series_valuation_oracle(y, sub) == 2


def test_validate_branches_node():
    D = DivisorGerm(["x", "y"], "x*y")
    nd = normalization_from_branches(D)
    x, y, one = D.poly("x"), D.poly("y"), D.poly("1")
    assert nd.weak_ring.equals(
        FractionalIdeal.make([(one, one), (y, x + y)], D))
    assert nd.weak_ring.conductor().equals(FractionalIdeal(D, [x, y], 1))
    # here R_D = O~ (normal crossing)
    assert residue_module(D).equals(nd.weak_ring)


def test_validate_branches_smooth():
    D = DivisorGerm(["x", "y"], "x")
    nd = normalization_from_branches(D)
    assert nd.weak_ring.equals(FractionalIdeal.ring(D))
    assert D.member_mod_h(D.poly("1"), nd.weak_ring.conductor().num)


def test_weak_holomorphy_cusp():
    D = cusp()
    nd = normalization_from_branches(D)
    x, y = D.poly("x"), D.poly("y")
    assert not is_weakly_holomorphic(MeroFraction(D, y, x), nd)   # t^-1
    assert is_weakly_holomorphic(MeroFraction(D, x, y), nd)       # t
    assert is_weakly_holomorphic(MeroFraction(D, D.poly("1"), D.poly("1")), nd)


def test_user_branches_win_and_are_certified():
    D = cusp()
    good = [BranchParam({0: {3: 1}, 1: {2: 1}}, 64)]
    nd = normalization_from_branches(D, branches=good)
    assert nd.source == "branches"
    bad = [BranchParam({0: {3: 1}, 1: {1: 1}}, 64)]
    with pytest.raises(InputError):
        normalization_from_branches(D, branches=bad)


def test_user_branch_off_the_origin_rejected():
    # x = 1 + t, y = 0 annihilates x*y but passes through (1, 0), where x
    # has valuation 0
    D = DivisorGerm(["x", "y"], "x*y")
    branches = [BranchParam({0: {1: 1}, 1: {}}, 64),
                BranchParam({0: {}, 1: {1: 1}}, 64),
                BranchParam({0: {0: 1, 1: 1}, 1: {}}, 64)]
    with pytest.raises(InputError, match="does not pass through the origin"):
        normalization_from_branches(D, branches=branches)


def test_user_branch_truncation_guard():
    D = cusp()
    short = [BranchParam({0: {3: 1}, 1: {2: 1}}, 4)]
    with pytest.raises(InputError) as err:
        normalization_from_branches(D, branches=short)
    assert "truncation" in str(err.value)


def test_incomplete_branch_system_rejected():
    D = DivisorGerm(["x", "y"], "x*y")
    only_one = [BranchParam({0: {}, 1: {1: 1}}, 64)]
    with pytest.raises(InputError) as err:
        normalization_from_branches(D, branches=only_one)
    assert "incomplete" in str(err.value)


def test_suspension_extends_curve_data():
    D3 = DivisorGerm(["x", "y", "z"], "x^2 - y^3")
    nd = normalization_from_branches(D3)
    x, y = D3.poly("x"), D3.poly("y")
    one = D3.poly("1")
    assert nd.weak_ring.equals(FractionalIdeal.make([(one, one), (x, y)], D3))
    assert nd.weak_ring.conductor().equals(FractionalIdeal(D3, [x, y], 1))
    # the branches have no series for the passive variable
    with pytest.raises(InputError, match="variable 3"):
        is_weakly_holomorphic(MeroFraction(D3, D3.poly("z*x"), y), nd)


def test_smooth_factor_route_matches_branch_route():
    D = DivisorGerm(["x", "y"], "x*y")
    nd_b = normalization_from_branches(D)
    nd_f = normalization_from_smooth_factors(
        IdempotentData(D, [D.poly("x"), D.poly("y")]))
    assert nd_b.weak_ring.equals(nd_f.weak_ring)
    assert nd_b.weak_ring.conductor().equals(nd_f.weak_ring.conductor())


def test_smooth_factor_route_rejects_singular_factor():
    W = DivisorGerm(["x", "y", "z"], "x^2 - y^2*z")
    with pytest.raises(InputError, match="smooth"):
        normalization_from_smooth_factors(IdempotentData(W, [W.h]))


def test_normalization_unsupported_class():
    W = DivisorGerm(["x", "y", "z"], "x^2 - y^2*z")
    with pytest.raises(InputError):
        normalization_from_branches(W)


def test_conductor_bound_cusp():
    # Milnor number 2 plus multiplicity 2 minus 1; the true conductor
    # exponent is 2.  The cusp is its own 2-variable curve model.
    assert conductor_bound(cusp().h) == 3


def test_branches_from_json():
    D = cusp()
    text = json.dumps([{"param": {"x": [[3, "1"]], "y": [[2, "1"]]},
                        "truncation": 64}])
    branches = branches_from_json(text, D)
    assert len(branches) == 1
    assert branches[0].series[0] == {3: Fraction(1)}
    nd = normalization_from_branches(D, branches=branches)
    assert nd.source == "branches"
    with pytest.raises(InputError):
        branches_from_json(json.dumps([{"param": {"w": [[1, "1"]]}}]), D)


def test_weak_ring_reflexive_on_free_curves():
    # the conductor and the weak ring are mutually dual on free curve germs
    for text in ("x*y", "x^2 - y^3", "x*y*(x+y)"):
        D = DivisorGerm(["x", "y"], text)
        nd = normalization_from_branches(D)
        assert nd.weak_ring.conductor().dual().equals(nd.weak_ring), text


def test_conductor_equality_forces_smooth_components():
    # whenever J_D = C_D on a curve germ, the supplied factors are smooth
    from logres.corpus import CORPUS
    from logres.criteria import analyze_text
    checked = set()
    for entry in CORPUS:
        if len(entry["vars"]) != 2:
            continue
        r = analyze_text(entry["vars"], entry["poly"], entry["factors"])
        if r.verdicts["jacobian_eq_conductor"] == "true":
            checked.add(entry["name"])
            names = entry["vars"]
            for f in entry["factors"].split(";"):
                q = parse(f, names)
                assert any(q.diff(i).constant_term() != 0 for i in range(2)), \
                    (entry["name"], f)
    # the smoothness check must have run on at least one corpus curve
    assert checked


def test_chain_inclusions_on_curves():
    # J_D in dual(R_D) in C_D in O_D in O~ in R_D
    for text in ("x*y", "x^2 - y^3", "x*y*(x+y)"):
        D = DivisorGerm(["x", "y"], text)
        nd = normalization_from_branches(D)
        R = residue_module(D)
        chain = [jacobian_module(D), R.dual(), nd.weak_ring.conductor(),
                 FractionalIdeal.ring(D), nd.weak_ring, R]
        for small, big in zip(chain, chain[1:]):
            assert big.includes(small)


def pullback_oracle(p, branch, trunc):
    """{t-exponent: coefficient} of p along the branch, from Poly.subs in a
    ring with an extra variable t, cut below trunc; p uses only variables
    the branch has a series for."""
    n = p.n
    lift = Poly(n + 1, {e + (0,): c for e, c in p.terms.items()})
    sub = {i: Poly(n + 1, {(0,) * n + (e,): c for e, c in s.items()})
           for i, s in branch.series.items()}
    return {e[n]: c for e, c in lift.subs(sub).terms.items() if e[n] < trunc}


def test_pullback_matches_substitution_oracle():
    plane = DivisorGerm(["x", "y"], "x^2 - y^3")
    susp = DivisorGerm(["x", "y", "z"], "x^2 - y^3")
    branch = BranchParam({0: {3: 1, 4: Fraction(-2, 3), 7: 5},
                          1: {2: 1, 3: Fraction(1, 2)}}, 20)
    axis = BranchParam({0: {}, 1: {1: 1}}, 20)
    texts = ["x^2 - y^3", "3*x*y^2 - 1/2*y^5 + x^3*y + 7",
             "x^4 + x^2*y^2 - 2*y^6"]
    checked = 0
    for D in (plane, susp):
        for b in (branch, axis):
            for trunc in (None, 1, 7, 13, 40):
                cache = {}
                cap = b.trunc if trunc is None else min(trunc, b.trunc)
                for text in texts:
                    p = D.poly(text)
                    jet = pullback(p, b, cache=cache, trunc=trunc)
                    assert jet.trunc == cap
                    assert all(isinstance(c, Fraction)
                               for c in jet.coeffs.values())
                    assert jet.coeffs == pullback_oracle(p, b, cap), \
                        (text, trunc)
                    checked += 1
    assert checked == 60
    # the branches have no series for z: a polynomial that uses it is
    # rejected rather than cut to its z-free terms
    for text in ("z*x^2 - y^3 + z^2", "2*x*y*z - z^3*y^2 + x^5 + 1", "z^4"):
        with pytest.raises(InputError, match="variable 3"):
            pullback(susp.poly(text), branch)


def puiseux_digest(branches):
    data = [[b.trunc, [[i, [[e, str(c)] for e, c in sorted(s.items())]]
                       for i, s in sorted(b.series.items())]]
            for b in branches]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


# sha256 of puiseux_rational output at the precisions the normalization asks
# for, taken before Newton lifting and pullback shared one series type
GOLDEN_BRANCHES = [
    ("x^4 + y^5 + x*y^4", 46,
     "0f4fc3e4d9d745bdbae7fda999e76304b205114efd9b4ed0a4d41a4fb143aa12"),
    ("x^4 + y^5 + x*y^4", 53,
     "4c08d0736eae118347ae393529129be22af01e2d0b8ba7e03493a2382374fe9a"),
    ("x^5-y^7", 92,
     "8cee7a7d637c95348014820af9fbd9c3c4566662a8b774d2eef0bd6503f25a85"),
    ("x*(x+y^3)", 28,
     "ecf43b955f60ba9e4a70f7cef500ca6f3942236d29f6e92399b22b17876c8123"),
    ("x*y*(x-y)*(x+y)", 44,
     "5acb2f926b91feb57650ea93ddc6364205e10a3d1768f2e1705262ed699edbae"),
]


@pytest.mark.parametrize("poly,precision,digest", GOLDEN_BRANCHES)
def test_puiseux_branches_are_pinned(poly, precision, digest):
    D = DivisorGerm(["x", "y"], poly)
    assert puiseux_digest(puiseux_rational(D, precision=precision)) == digest


def linear_lift(g, prec):
    """Reference lift, one coefficient per substitution: the lowest term of
    the residue g(x, phi) fixes the next coefficient of phi."""
    gy0 = g.terms[(0, 1)]
    x = Jet({1: Fraction(1)}, prec + 1)
    phi = {}
    while True:
        r = normalization.substitute(g, {0: x, 1: Jet(phi, prec + 1)},
                                     prec + 1).coeffs
        if not r:
            return phi
        k = min(r)
        assert k > 0
        phi[k] = -r[k] / gy0


def seeded_simple_root_curves(seed, count):
    """Integer g(x, y) with g(0, 0) = 0, g_y(0, 0) != 0 and a pure x term,
    so that the root is not zero."""
    rng = random.Random(seed)
    units = [-3, -2, -1, 1, 2, 3]
    out = []
    for _ in range(count):
        terms = {(0, 1): rng.choice(units), (rng.randint(1, 3), 0): rng.choice(units)}
        for _ in range(rng.randint(1, 5)):
            e = (rng.randint(0, 4), rng.randint(0, 3))
            if sum(e) > 1:
                terms[e] = rng.choice(units)
        out.append(Poly(2, {e: Fraction(c) for e, c in terms.items()}))
    return out


@pytest.mark.parametrize("prec", [0, 1, 2, 5, 8, 13])
def test_newton_lift_matches_linear_lift_on_seeded_curves(prec):
    for g in seeded_simple_root_curves(7, 12):
        phi = normalization._newton_lift(g, prec)
        assert phi == linear_lift(g, prec), (g.terms, prec)
        assert list(phi) == sorted(phi)


def test_newton_lift_on_polynomial_and_zero_roots():
    xs = ["x", "y"]
    # root y = x + 2*x^3, times a unit
    g = parse("(y - x - 2*x^3)*(1 + y + x^2)", xs)
    for prec in (0, 1, 2, 3, 4, 9, 40):
        phi = normalization._newton_lift(g, prec)
        assert phi == linear_lift(g, prec)
        assert phi == {e: c for e, c in {1: Fraction(1), 3: Fraction(2)}.items()
                       if e <= prec}
    # root y = 0
    g = parse("y*(3 + x - y^2)", xs)
    for prec in (0, 1, 6, 17):
        assert normalization._newton_lift(g, prec) == {} == linear_lift(g, prec)


def test_newton_lift_rejects_a_non_simple_or_missing_root():
    xs = ["x", "y"]
    with pytest.raises(EngineError, match="simple root"):
        normalization._newton_lift(parse("y^2 - x^3", xs), 10)
    with pytest.raises(EngineError, match="lost the root"):
        normalization._newton_lift(parse("1 + y - x", xs), 10)


@pytest.mark.parametrize("prec", [1, 2, 7, 8, 40, 100])
def test_newton_lift_substitutes_logarithmically_often(monkeypatch, prec):
    real = normalization.substitute
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(normalization, "substitute", counting)
    g = parse("y - x + 2*y^2 - x*y^3 + x^2*y", ["x", "y"])
    phi = normalization._newton_lift(g, prec)
    monkeypatch.undo()
    assert phi == linear_lift(g, prec)
    # ceil(log2(prec + 1)) doubling steps of two substitutions, and the
    # certificate at full precision
    assert len(calls) <= 2 * prec.bit_length() + 1
    assert calls[-1] == prec + 1


def recorded_expansions(monkeypatch):
    precisions = []
    real = normalization.puiseux_rational

    def recording(D, precision):
        precisions.append(precision)
        return real(D, precision=precision)

    monkeypatch.setattr(normalization, "puiseux_rational", recording)
    return precisions


# the truncation each germ's normalization ended at before the expansion
# started at max(2*cb + 16, 3*cb + 8)
ONE_EXPANSION = [
    ("x^4 + y^5 + x*y^4", 53),
    ("x^5-y^7", 92),
    ("x^3+y^5", 38),
    ("x*y*(x-y)*(x+y)", 44),
]


@pytest.mark.parametrize("poly,truncation", ONE_EXPANSION)
def test_normalization_expands_once(monkeypatch, poly, truncation):
    precisions = recorded_expansions(monkeypatch)
    nd = normalization_from_branches(DivisorGerm(["x", "y"], poly))
    assert precisions == [truncation]
    assert nd.truncation == truncation
    assert all(b.trunc == truncation for b in nd.branches)


def test_denominator_form_and_bound_come_from_one_expansion(monkeypatch):
    # the chosen form changes after the first re-expansion: the bound must
    # then be that of the new form, reached by a third expansion
    D = cusp()
    y = D.poly("y")
    forms = [y ** 3, y ** 5, y ** 5]   # valuations 6, 10: bounds 23, 31
    seen = []

    def switching(D, cvars, branches):
        ell = forms[len(seen)]
        seen.append(branches[0].trunc)
        return ell, [pullback(ell, b).valuation() for b in branches]

    precisions = recorded_expansions(monkeypatch)
    monkeypatch.setattr(normalization, "_denominator_form", switching)
    nd = normalization_from_branches(D)
    assert precisions == [22, 23, 31]
    assert seen == precisions
    assert nd.truncation == 31
    assert nd.weak_ring.den == y ** 5
    x, one = D.poly("x"), D.poly("1")
    assert nd.weak_ring.equals(FractionalIdeal.make([(one, one), (x, y)], D))


# germs whose expansion recurses: a root of the edge polynomial with
# multiplicity > 1 is expanded again in y' after y = x^m (c + y')
RECURSIVE_EXPANSIONS = [
    # y = x and y = x + x^2 share the root c = 1; after the shift y' divides
    # the strict transform, which is the branch y' = 0
    ("(y-x)*(y-x-x^2)", 2, True),
    # one branch with two characteristic pairs
    ("(y^2-x^3)^2-4*x^5*y-x^7", 1, False),
]


@pytest.mark.parametrize("poly,count,y_factor", RECURSIVE_EXPANSIONS)
def test_recursive_expansion(monkeypatch, poly, count, y_factor):
    calls = []
    real = normalization._expand

    def recording(h2, prec, depth, edge_filter=None):
        calls.append((depth, normalization._var_divides(h2, 1)))
        return real(h2, prec, depth, edge_filter)

    monkeypatch.setattr(normalization, "_expand", recording)
    # the branches are certified on h inside the call
    nd = normalization_from_branches(DivisorGerm(["x", "y"], poly))
    assert len(nd.branches) == count
    assert max(depth for depth, _ in calls) == 1
    assert any(depth == 1 and divides for depth, divides in calls) == y_factor
