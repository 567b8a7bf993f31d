"""Fractional ideals: construction, duality, inclusion, products."""

import random

import pytest

from logres import fractional, germs, groebner, poly
from logres.corpus import CORPUS
from logres.errors import InputError, EngineError
from logres.germs import DivisorGerm
from logres.poly import Poly, poly_gcd, exact_div
from logres.fractional import (FractionalIdeal, is_nzd, nzd_witness,
                               find_nzd_in, nzd_combinations, jacobian_module)
from conftest import deadline


def node():
    return DivisorGerm(["x", "y"], "x*y")


def cusp():
    return DivisorGerm(["x", "y"], "x^2 - y^3")


def gcd_is_nzd(D, q):
    """The former global test, kept as a reference: for h reduced at the
    origin, q is a nonzerodivisor mod h iff gcd(q, h) does not vanish at
    the origin."""
    return not q.is_zero and poly_gcd(q, D.h).constant_term() != 0


def gcd_witness(D, q):
    """The reference witness: h/gcd(q, h) for a zero divisor q, None
    otherwise.  In a UFD (<h> : q) = <h/gcd(q, h)>, so the
    ideal-quotient witness is a constant multiple of it."""
    g = poly_gcd(q, D.h)
    return None if g.constant_term() != 0 else exact_div(D.h, g)


def test_nzd_witness_matches_the_gcd_oracle():
    D = node()
    cases = ["x", "y", "x + y", "x - y", "1 + x", "x^2", "x + y^2",
             "x*(1 + y)", "x*y"]
    for text in cases:
        _assert_nzd_verdicts_agree(D, D.poly(text))


def _random_poly(rng, n, degree=2, terms=3):
    """A random polynomial of low degree with small integer coefficients,
    the zero polynomial included."""
    out = Poly.zero(n)
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(n)] += 1
        out = out + Poly.monomial(n, e, rng.randint(-3, 3))
    return out


def _random_candidates(D, factors, rng, count):
    """Seeded q of every kind: products of factors of h through the origin,
    unit multiples of them, multiples of h, and random polynomials, with
    and without a constant term."""
    n = D.n
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            q = Poly.const(n, 1)
            for f in rng.sample(factors, rng.randint(1, len(factors))):
                q = q * f
        elif kind == 1:
            u = Poly.const(n, 1) + Poly.variable(n, rng.randrange(n))
            q = u * rng.choice(factors) * _random_poly(rng, n, degree=1)
        elif kind == 2:
            q = D.h * _random_poly(rng, n, degree=1)
        elif kind == 3:
            q = _random_poly(rng, n)
        else:
            q = _random_poly(rng, n)
            q = q - Poly.const(n, q.constant_term())
        yield q


def _assert_nzd_verdicts_agree(D, q):
    fast = is_nzd(D, q)
    assert fast == gcd_is_nzd(D, q), D.str_of(q)
    w = nzd_witness(D, q)
    assert fast == (w is None), D.str_of(q)
    if w is not None:
        assert D.in_h(w * q)
        assert not D.in_h(w)
        ref = gcd_witness(D, q)
        assert exact_div(w, ref).is_constant(), D.str_of(q)


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_is_nzd_matches_gcd_and_quotient_on_seeded_candidates(entry,
                                                             monkeypatch):
    monkeypatch.setattr(fractional, "_NZD_CACHE", {})
    D = DivisorGerm(entry["vars"], entry["poly"])
    factors = [D.poly(f) for f in entry["factors"].split(";")]
    assert all(f.constant_term() == 0 for f in factors)
    rng = random.Random(f"nzd {entry['name']}")
    for q in _random_candidates(D, factors, rng, 16):
        _assert_nzd_verdicts_agree(D, q)


def test_is_nzd_on_one_variable_germs_and_constants():
    for h in ("x", "x*(x-1)", "x*(x+2)^2 - x"):
        D = DivisorGerm(["x"], h)
        for text in ("x", "x^2 + x", "1 + x", "x - 1", "3", "-1/2", "0",
                     "x^3"):
            _assert_nzd_verdicts_agree(D, D.poly(text))
        assert is_nzd(D, D.poly("x - 1")) and not is_nzd(D, D.poly("x^2"))
    D = node()
    assert is_nzd(D, D.poly("5")) and not is_nzd(D, D.poly("0"))


def _count_gcd(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return poly_gcd(*args)
    for module in (poly, germs, fractional):
        monkeypatch.setattr(module, "poly_gcd", counted, raising=False)
    return calls


@pytest.mark.parametrize("name", ["node", "cusp", "coordinate-planes",
                                  "whitney-umbrella", "non-quasihomogeneous"])
def test_fractional_ideals_compute_no_gcd(name, monkeypatch):
    entry = next(e for e in CORPUS if e["name"] == name)
    monkeypatch.setattr(fractional, "_NZD_CACHE", {})
    calls = _count_gcd(monkeypatch)
    # the germ decides its reducedness by local dimension, not by a gcd
    D = DivisorGerm(entry["vars"], entry["poly"])
    J = jacobian_module(D)
    R = J.dual()
    FractionalIdeal.make([(p, R.den) for p in R.num], D)
    assert fractional._NZD_CACHE
    assert calls == []


def test_is_nzd_leaves_the_basis_cache_alone(monkeypatch):
    monkeypatch.setattr(fractional, "_NZD_CACHE", {})
    # a germ reads the cached basis of <h, dh> on construction, so the
    # germs are built before the snapshot
    built = [(DivisorGerm(e["vars"], e["poly"]), e["name"]) for e in CORPUS[:6]]
    before = groebner._std_cached.cache_info()
    for D, name in built:
        rng = random.Random(name)
        qs = [_random_poly(rng, D.n) for _ in range(8)] + list(D.partials)
        for _ in range(3):
            for q in qs:
                is_nzd(D, q)
    after = groebner._std_cached.cache_info()
    assert (after.currsize, after.hits, after.misses) == \
        (before.currsize, before.hits, before.misses)
    assert all(isinstance(v, bool) for v in fractional._NZD_CACHE.values())


def test_make_node_example():
    D = node()
    one = D.poly("1")
    I = FractionalIdeal.make([(one, one), (D.poly("y"), D.poly("x + y"))], D)
    assert I.den == D.poly("x + y")
    assert FractionalIdeal(D, I.num, 1).equals(
        FractionalIdeal(D, [D.poly("x"), D.poly("y")], 1))


def test_make_unit():
    D = node()
    I = FractionalIdeal.make([(D.poly("1"), D.poly("1"))], D)
    assert I.equals(FractionalIdeal.ring(D))


def test_make_drops_unit_denominators():
    # 1+x and (1+x)*(x+y) are units times 1 and x+y in the local ring
    D = node()
    I = FractionalIdeal.make([(D.poly("1"), D.poly("1 + x")),
                              (D.poly("y"), D.poly("(1 + x)*(x + y)"))], D)
    assert I.den == D.poly("(1 + x)*(x + y)")
    assert I.equals(FractionalIdeal.make(
        [(D.poly("1"), D.poly("1")), (D.poly("y"), D.poly("x + y"))], D))


def test_make_zero_divisor_denominator():
    D = node()
    with pytest.raises(InputError) as err:
        FractionalIdeal.make([(D.poly("1"), D.poly("x"))], D)
    assert "witness" in str(err.value)


def test_dual_node_jacobian():
    D = node()
    J = jacobian_module(D)
    R = J.dual()
    expected = FractionalIdeal.make(
        [(D.poly("1"), D.poly("1")), (D.poly("y"), D.poly("x + y"))], D)
    assert R.equals(expected)


def test_dual_ring_is_ring():
    D = node()
    O = FractionalIdeal.ring(D)
    assert O.dual().equals(O)


def test_dual_cusp_jacobian():
    C = cusp()
    J = jacobian_module(C)
    R = J.dual()
    expected = FractionalIdeal.make(
        [(C.poly("1"), C.poly("1")), (C.poly("y"), C.poly("x"))], C)
    assert R.equals(expected)


def test_includes_and_equals():
    D = node()
    J = jacobian_module(D)
    R = J.dual()
    O = FractionalIdeal.ring(D)
    assert R.includes(O)
    assert not O.includes(R)
    assert R.includes(J)
    assert J.equals(J)
    # duality reverses inclusions
    assert J.dual().includes(R.dual()) or R.dual().equals(J.dual())
    assert R.dual().equals(J) or J.includes(R.dual())


def test_product():
    D = node()
    J = jacobian_module(D)
    O = FractionalIdeal.ring(D)
    assert O.product(J).equals(J)
    R = J.dual()
    assert O.includes(J.product(R))


def test_reflexive():
    D = node()
    J = jacobian_module(D)
    assert J.dual() is J.dual()
    assert J.dual().dual().equals(J)
    C = cusp()
    Jc = jacobian_module(C)
    assert Jc.dual().dual().equals(Jc)
    ring = FractionalIdeal.ring(D)
    assert ring.dual().dual().equals(ring)


def test_find_nzd_skips_zero_divisors():
    D = node()
    c = find_nzd_in(D, [D.poly("x"), D.poly("y")])
    assert c is not None
    assert nzd_witness(D, c) is None


def test_nzd_combinations_certify_their_coefficients():
    D = node()
    gens = [D.poly("x"), D.poly("0"), D.poly("y")]
    found = list(nzd_combinations(D, gens))
    assert found and found[0][1] == find_nzd_in(D, gens)
    for coeffs, q in found:
        assert coeffs[1] == 0
        assert q == gens[0].scale(coeffs[0]) + gens[2].scale(coeffs[2])
        assert is_nzd(D, q)


def test_nzd_schedule_ends_when_every_candidate_is_a_zero_divisor():
    # a single zero divisor has only 4 distinct multiples with coefficients
    # in [-2, 2], fewer than the trial budget; the search once looped forever
    D = node()
    with deadline(10):
        assert find_nzd_in(D, [D.poly("x")]) is None
        with pytest.raises(InputError):
            FractionalIdeal(D, [D.poly("x")], 1)


def test_nzd_schedule_decides_beyond_the_trial_budget():
    # every combination of x, x^2, x^3 vanishes on {x = 0}: the small
    # vectors use up the budget and the moment curve points end the search
    D = node()
    with deadline(10):
        assert find_nzd_in(D, [D.poly("x"), D.poly("x^2"), D.poly("x^3")]) is None
    # on eight lines every c in [-2, 2]^2 lies on a line, so c(h) is a zero
    # divisor; the first moment curve point (1, 3) does not
    E = DivisorGerm(["x", "y"],
                    "x*y*(x-y)*(x+y)*(x-2*y)*(x+2*y)*(2*x-y)*(2*x+y)")
    coeffs, q = next(nzd_combinations(E, E.partials))
    assert coeffs == [1, 3] and is_nzd(E, q)


def test_conductor():
    C = cusp()
    x, y, one = C.poly("x"), C.poly("y"), C.poly("1")
    # O~ = <1, x/y> has the conductor <x, y> as an ideal of O_D
    weak = FractionalIdeal.make([(one, one), (x, y)], C)
    assert weak.conductor().equals(FractionalIdeal(C, [x, y], 1))
    J = jacobian_module(C)
    with pytest.raises(InputError):
        J.conductor()  # J misses 1, and its dual R_D holds y/x, not in O_D
    with pytest.raises(EngineError):
        # R_D = <1, y/x> is no ring: x*(y/x) = y misses its dual <x, y^2>
        J.dual().conductor()
    # the maximal ideal of the cone over a cubic misses 1
    E = DivisorGerm(["x", "y", "z"], "x^3 + y^3 + z^3")
    m = FractionalIdeal(E, [E.poly(v) for v in E.names], 1)
    with pytest.raises(InputError, match="does not contain O_D"):
        m.conductor()


def test_germ_mismatch():
    D = node()
    C = cusp()
    with pytest.raises(InputError):
        FractionalIdeal.ring(D).equals(FractionalIdeal.ring(C))


def _corpus_weak_ring(D, entry):
    """The weakly holomorphic ring and conductor of a corpus germ, from its
    branches or else from its smooth factors; None when neither applies."""
    from logres.normalization import (normalization_from_branches,
                                      normalization_from_smooth_factors)
    from logres.residues import IdempotentData
    try:
        nd = normalization_from_branches(D)
    except InputError:
        nd = None
    if nd is not None:
        return nd
    if entry["factors"]:
        try:
            return normalization_from_smooth_factors(IdempotentData(
                D, [D.poly(f) for f in entry["factors"].split(";")]))
        except InputError:
            pass
    return None


def test_includes_product_agrees_with_product_ideal_on_corpus():
    from logres.corpus import CORPUS
    with_weak = []
    for entry in CORPUS:
        D = DivisorGerm(entry["vars"], entry["poly"])
        J = jacobian_module(D)
        R = J.dual()
        O = FractionalIdeal.ring(D)
        assert O.includes_product(J, R) is O.includes(J.product(R)) is True
        assert O.includes_product(R, R) == O.includes(R.product(R)), entry["name"]
        nd = _corpus_weak_ring(D, entry)
        if nd is not None:
            with_weak.append(entry["name"])
            C = nd.weak_ring.conductor()
            weak = nd.weak_ring
            assert C.includes_product(C, weak) is C.includes(C.product(weak)) is True
    assert "node" in with_weak and "four-planes-family" in with_weak


def test_conductor_is_the_dual_of_the_ring():
    # the conductor, one ideal quotient mod h, against the fractional dual:
    # every weakly holomorphic ring of the corpus and R_D where (C) holds
    from logres.residues import residue_module
    rings, sources = [], set()
    for entry in CORPUS:
        D = DivisorGerm(entry["vars"], entry["poly"])
        nd = _corpus_weak_ring(D, entry)
        if nd is not None:
            rings.append(nd.weak_ring)
            sources.add(nd.source)
        if entry["expected"]["residues_weakly_holomorphic"] == "true":
            rings.append(residue_module(D))
    assert sources == {"branches", "smooth_factors"}
    for A in rings:
        assert A.conductor().equals(A.dual()), A


def test_includes_product_rejects_non_ring():
    # R_D of the node contains y/(x+y), whose square is not in O_D
    D = node()
    R = jacobian_module(D).dual()
    O = FractionalIdeal.ring(D)
    assert not O.equals(R)
    assert not O.includes_product(R, R)
    assert not O.includes(R.product(R))
    assert R.includes_product(O, R)
