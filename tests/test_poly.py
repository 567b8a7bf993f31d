"""Polynomial arithmetic, parsing, orders and gcd, and the reducedness of a
germ at the origin against gcd and ideal-quotient oracles."""

import random
from fractions import Fraction

import pytest

from logres.errors import ParseError, InputError
from logres.poly import Poly, Order, parse, poly_str, poly_gcd, exact_div
from logres.groebner import ideal_quotient
from logres.germs import DivisorGerm
from conftest import deadline, ideal_equal


V2 = ["x", "y"]
V3 = ["x", "y", "z"]


def brute_force_expand(factor_terms, n):
    """Independent expansion oracle: multiply term lists naively."""
    acc = {(0,) * n: Fraction(1)}
    for terms in factor_terms:
        out = {}
        for e1, c1 in acc.items():
            for e2, c2 in terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        acc = {e: c for e, c in out.items() if c}
    return acc


def test_parse_simple():
    p = parse("x*y - y^3", V2)
    assert p.terms == {(1, 1): Fraction(1), (0, 3): Fraction(-1)}


def test_parse_expansion_against_brute_force():
    # x*y*(x+y)*(x+y*z) expanded by an independent term-by-term oracle
    p = parse("x*y*(x+y)*(x+y*z)", V3)
    factors = [
        {(1, 0, 0): Fraction(1)},
        {(0, 1, 0): Fraction(1)},
        {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1)},
        {(1, 0, 0): Fraction(1), (0, 1, 1): Fraction(1)},
    ]
    assert p.terms == brute_force_expand(factors, 3)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("x*(", ["x"])
    assert err.value.pos == 3


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse("x*w", ["x"])


def test_parse_rationals_and_signs():
    p = parse("-1/2*x + 3", ["x"])
    assert p.terms == {(1,): Fraction(-1, 2), (0,): Fraction(3)}


def test_print_parse_roundtrip():
    samples = ["x*y - y^3", "x^2 - y^3", "x*y*(x+y)*(x+y*z)",
               "x^4 + y^5 + x*y^4", "1/6*x - 7*y^2"]
    for s in samples:
        names = V3 if "z" in s else V2
        p = parse(s, names)
        assert parse(poly_str(p, names), names) == p


def test_print_parse_roundtrip_full_corpus():
    from logres.corpus import CORPUS
    for entry in CORPUS:
        names = entry["vars"]
        p = parse(entry["poly"], names)
        assert parse(poly_str(p, names), names) == p
        for f in entry["factors"].split(";"):
            q = parse(f, names)
            assert parse(poly_str(q, names), names) == q


def test_differentiate():
    h = parse("x^2 - y^3", V2)
    assert h.diff(1) == parse("-3*y^2", V2)
    assert parse("x*y", V2).diff(0) == parse("y", V2)
    assert parse("5", V2).diff(0).is_zero
    with pytest.raises(IndexError):
        h.diff(2)


def test_differentiate_leibniz_randomized():
    rng = random.Random(7)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = Fraction(rng.randint(-4, 4))
        return Poly(2, terms)

    for _ in range(50):
        p, q = rand_poly(), rand_poly()
        assert (p + q) - q == p
        assert p * q == q * p
        for i in range(2):
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def _accepted(names, h):
    """Whether DivisorGerm takes h, the germ of {h = 0} at the origin."""
    try:
        DivisorGerm(names, h)
    except InputError as e:
        assert "squarefree" in str(e)
        return False
    return True


def test_squarefree():
    # squarefree at the origin: a repeated factor that misses it is a unit
    assert not _accepted(V2, parse("x^2*y", V2))
    assert _accepted(V3, parse("x*y*(x+y)*(x+y*z)", V3))
    assert _accepted(V2, parse("x^2 - y^3", V2))
    assert _accepted(V2, parse("x*(y-1)^2", V2))
    assert not _accepted(V2, parse("x^2*y*(1+x)", V2))


def test_squarefree_against_quotient_oracle():
    # independent oracle: h is squarefree iff (<h> : <partials>) = <h>; every
    # factor here passes through the origin, where squarefree means reduced
    order = Order("degrevlex", 2)
    for text, expect in [("x^2*y", False), ("x*y", True),
                         ("x^2 - y^3", True), ("x^2*(x+y)", False),
                         ("x*(x+y^2)", True)]:
        h = parse(text, V2)
        partials = [h.diff(i) for i in range(2) if not h.diff(i).is_zero]
        quot = ideal_quotient([h], partials, order)
        oracle = ideal_equal(quot, [h], order)
        assert _accepted(V2, h) is expect
        assert oracle is expect


def _random_factor(rng, n, constants=(0, 0, 1, -2)):
    """A nonconstant factor of degree at most 2 with small coefficients,
    through the origin or not."""
    while True:
        f = Poly.const(n, rng.choice(constants))
        for i in range(n):
            f = f + Poly.variable(n, i).scale(rng.randint(-2, 2))
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            f = f + (Poly.variable(n, i) * Poly.variable(n, j)).scale(
                rng.choice([-1, 1]))
        if not f.is_constant():
            return f


def test_germ_is_reduced_iff_the_gcd_with_the_partials_is_a_unit():
    # seeded products with repeated factors: h is reduced at the origin iff
    # every repeated factor misses it, iff g = gcd(h, dh/dx_1, ...) does not
    # vanish there; a repeated factor away from the origin is a unit
    rng = random.Random("reduced at the origin")
    seen = set()
    with deadline(60):
        for names in [V2] * 24 + [V3] * 8:
            n = len(names)
            h = _random_factor(rng, n, constants=(0,)) ** rng.randint(1, 2)
            for _ in range(rng.randint(0, 2)):
                f = _random_factor(rng, n) ** rng.randint(1, 2)
                if h.total_degree() + f.total_degree() <= 6:
                    h = h * f
            g = h
            for i in range(n):
                g = poly_gcd(g, h.diff(i))
            expect = g.constant_term() != 0
            assert _accepted(names, h) is expect, poly_str(h, names)
            seen.add(expect)
    assert seen == {True, False}


def test_gcd_basic():
    g = poly_gcd(parse("x^2 - y^2", V2), parse("x^2 + 2*x*y + y^2", V2))
    assert g == parse("x + y", V2)
    assert poly_gcd(parse("x", V2), parse("y", V2)).is_constant()
    # gcd of a poly with itself
    h = parse("x^2 - y^3", V2)
    assert poly_gcd(h, h) == h.scale(-1) or poly_gcd(h, h) == h


def test_gcd_against_product_identity():
    rng = random.Random(3)
    for _ in range(12):
        a = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3),
                     (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, -1)})
        b = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)})
        c = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3),
                     (0, 0): 1})
        if a.is_zero or b.is_zero:
            continue
        g = poly_gcd(a * c, b * c)
        # the common factor c divides the gcd
        assert exact_div(g, poly_gcd(g, c)) is not None
        assert exact_div(a * c, g) is not None or exact_div(b * c, g) is not None
        assert exact_div(a * c, g) is not None and exact_div(b * c, g) is not None


def test_exact_div():
    p = parse("x*y*(x+y)*(x+y*z)", V3)
    q = exact_div(p, parse("x*y", V3))
    assert q == parse("(x+y)*(x+y*z)", V3)
    assert exact_div(parse("x^2+y", V2), parse("x", V2)) is None


def _reference_key(order, e):
    """The nested-tuple order key the engine used before heap_key became its
    only key: the larger key is the larger monomial."""
    if order.kind == "degrevlex":
        return (sum(e), tuple(-x for x in reversed(e)))
    if order.kind == "lex":
        return e
    return (-sum(e), tuple(-x for x in reversed(e)))


def _reference_mod_key(mo, c, e):
    """The nested-tuple key of a module monomial, after _reference_key."""
    rk = _reference_key(mo.ring, e)
    if mo.rule == "TOP":
        return (rk, -c)
    return (1 if c < mo.elim else 0, rk, -c)


def test_orders():
    # heap_key: the larger monomial has the smaller key
    dp = Order("degrevlex", 3)
    # degree dominates
    assert dp.heap_key((2, 0, 0)) < dp.heap_key((1, 1, 0))
    assert dp.heap_key((3, 0, 0)) < dp.heap_key((1, 1, 0))
    # local order: 1 beats everything
    ds = Order("ds", 2)
    assert ds.heap_key((0, 0)) < ds.heap_key((1, 0))
    assert ds.heap_key((1, 0)) < ds.heap_key((0, 2))
    # multiplicativity spot check: u < v implies u*w < v*w
    rng = random.Random(11)
    for order in (dp, Order("ds", 3), Order("lex", 3)):
        for _ in range(40):
            u = tuple(rng.randint(0, 3) for _ in range(3))
            v = tuple(rng.randint(0, 3) for _ in range(3))
            w = tuple(rng.randint(0, 2) for _ in range(3))
            if order.heap_key(u) > order.heap_key(v):
                uw = tuple(a + b for a, b in zip(u, w))
                vw = tuple(a + b for a, b in zip(v, w))
                assert order.heap_key(uw) > order.heap_key(vw)


def test_heap_key_reverses_key():
    rng = random.Random(12)
    for kind in ("degrevlex", "ds", "lex"):
        order = Order(kind, 4)
        exps = {tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(60)}
        assert (sorted(exps, key=order.heap_key)
                == sorted(exps, key=lambda e: _reference_key(order, e),
                          reverse=True))
        assert all(type(x) is int for e in exps for x in order.heap_key(e))


def test_module_heap_key_reverses_key():
    from logres.groebner import ModOrder, Vec
    rng = random.Random(13)
    for ring in (Order("degrevlex", 3), Order("ds", 3), Order("lex", 3)):
        for r in (1, 2, 3):
            for mo in (ModOrder(ring, "TOP"), ModOrder(ring, "ELIM", elim=r - 1)):
                mons = {(rng.randrange(r),
                         tuple(rng.randint(0, 3) for _ in range(3)))
                        for _ in range(60)}
                assert (sorted(mons, key=lambda m: mo.heap_key(*m))
                        == sorted(mons, key=lambda m: _reference_mod_key(mo, *m),
                                  reverse=True))
                v = Vec([Poly(3, {e: 1 for c, e in mons if c == k})
                         for k in range(r)])
                assert mo.lead(v) == max(
                    mons, key=lambda m: _reference_mod_key(mo, *m))


def test_global_vs_local_unit_detection():
    # 1 + x generates the unit ideal locally but not globally
    ds = Order("ds", 1)
    assert ds.leading_exp(parse("1 + x", ["x"])) == (0,)
    dp = Order("degrevlex", 1)
    assert dp.leading_exp(parse("1 + x", ["x"])) == (1,)
