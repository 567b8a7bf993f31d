"""Engine tests: bases, normal forms, syzygies, quotients, radical test."""

import random
from fractions import Fraction

import pytest

from logres import groebner, poly
from logres.corpus import CORPUS
from logres.poly import Poly, Order, parse, poly_gcd, exact_div
from logres.groebner import (Vec, ModOrder, standard_basis, normal_form,
                             division_certificate, syzygies, ideal_quotient,
                             radical_test, min_generators_local, std_ideal,
                             ideal_contains, local_colength, local_dim,
                             leads_dim, kernel_basis, _row_echelon,
                             divide_vec, mora_nf, _Elem)
from conftest import ideal_equal

V2 = ["x", "y"]
V3 = ["x", "y", "z"]
GLOBAL2 = Order("degrevlex", 2)
LOCAL2 = Order("ds", 2)


def P(text, names=V2):
    return parse(text, names)


def test_standard_basis_global_trivial():
    basis = std_ideal((P("x"), P("y")), GLOBAL2)
    assert set(basis) == {P("x"), P("y")}


def test_standard_basis_local_cusp_jacobian():
    # <x^2 - y^3, 2x, -3y^2> generates <x, y^2> in the local ring
    basis = std_ideal((P("x^2 - y^3"), P("2*x"), P("-3*y^2")), LOCAL2)
    assert set(basis) == {P("x"), P("y^2")}
    # two-sided membership oracle
    for g in (P("x"), P("y^2")):
        assert ideal_contains(g, (P("x^2-y^3"), P("2*x"), P("-3*y^2")), LOCAL2)
    for g in basis:
        assert ideal_contains(g, (P("x"), P("y^2")), LOCAL2)


def test_spolynomials_of_basis_reduce_to_zero():
    gens = (P("x^2*y - 1"), P("x*y^2 - x"))
    basis = std_ideal(gens, GLOBAL2)
    mo = ModOrder(GLOBAL2)
    vecs = [Vec([g]) for g in basis]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            li = mo.lead(vecs[i])
            lj = mo.lead(vecs[j])
            lcm = tuple(max(a, b) for a, b in zip(li[1], lj[1]))
            a = vecs[i].mul_term(Fraction(1) / mo.lead_coeff(vecs[i], li),
                                 tuple(x - y for x, y in zip(lcm, li[1])))
            b = vecs[j].mul_term(Fraction(1) / mo.lead_coeff(vecs[j], lj),
                                 tuple(x - y for x, y in zip(lcm, lj[1])))
            assert normal_form(a - b, vecs, mo).is_zero


def test_normal_form_examples():
    basis = [P("x"), P("y^2")]
    mo = ModOrder(LOCAL2)
    assert normal_form(Vec([P("x^2 - y^3")]), [Vec([b]) for b in basis], mo).is_zero
    rem = normal_form(Vec([P("y")]), [Vec([b]) for b in basis], mo)
    assert rem.polys[0] == P("y")
    assert normal_form(Vec([Poly.zero(2)]), [Vec([b]) for b in basis], mo).is_zero


def test_division_certificate_remultiplies():
    basis = list(std_ideal((P("x*y - 1"), P("y^2 - x")), GLOBAL2))
    f = P("x^3*y + y^3 - 2")
    quots, unit, rem = division_certificate(f, basis, ModOrder(GLOBAL2))
    recombined = rem.polys[0]
    for q, g in zip(quots, basis):
        recombined = recombined + q * g
    assert recombined == unit * f
    assert unit == Poly.const(2, 1)


def test_mora_certificate_remultiplies():
    gens = [P("x + x^2"), P("y")]
    f = P("x")  # in the local ideal: x = (x + x^2)/(1+x)
    quots, unit, rem = division_certificate(f, list(std_ideal(tuple(gens), LOCAL2)),
                                            ModOrder(LOCAL2))
    assert rem.is_zero
    basis = list(std_ideal(tuple(gens), LOCAL2))
    recombined = Poly.zero(2)
    for q, g in zip(quots, basis):
        recombined = recombined + q * g
    assert recombined == unit * f
    assert unit.constant_term() != 0


def test_division_certificate_skips_zero_generator():
    f = P("x + x*y^2")
    for order in (GLOBAL2, LOCAL2):
        basis = [Poly.zero(2), P("x"), P("y^3 - x*y")]
        quots, unit, rem = division_certificate(f, basis, ModOrder(order))
        assert len(quots) == 3 and quots[0].is_zero
        recombined = rem.polys[0]
        for q, g in zip(quots, basis):
            recombined = recombined + q * g
        assert recombined == unit * f
        assert unit.constant_term() != 0
        assert rem.is_zero


def test_ideal_quotients():
    assert ideal_equal(ideal_quotient([P("x*y")], [P("x")], GLOBAL2),
                       [P("y")], GLOBAL2)
    # the cusp dual-numerator quotient
    q = ideal_quotient([P("x"), P("x^2 - y^3")], [P("x"), P("y^2")], GLOBAL2)
    assert ideal_equal(q, [P("x"), P("y")], GLOBAL2)
    # membership oracle: every quotient element multiplies J into I
    for g in q:
        for j in (P("x"), P("y^2")):
            assert ideal_contains(g * j, (P("x"), P("x^2 - y^3")), GLOBAL2)
    # I : <1> = I
    q2 = ideal_quotient([P("x*y - y^3")], [P("1")], GLOBAL2)
    assert ideal_equal(q2, [P("x*y - y^3")], GLOBAL2)


def test_syzygies_of_node_row():
    # syzygies of (y, x, xy) = (h_x, h_y, h) for h = xy
    sy = syzygies([P("y"), P("x"), P("x*y")])
    for s in sy:
        combo = s.polys[0] * P("y") + s.polys[1] * P("x") + s.polys[2] * P("x*y")
        assert combo.is_zero
    expected = [Vec([P("x"), P("0"), P("-1")]), Vec([P("0"), P("y"), P("-1")])]
    mo = ModOrder(GLOBAL2)
    for e in expected:
        assert normal_form(e, sy, mo).is_zero


def test_syzygy_completeness_against_linear_algebra_oracle():
    """Every syzygy of (y, x, xy) with coefficients of degree <= 2, found by
    brute-force linear algebra, lies in the module the engine returns."""
    row = [P("y"), P("x"), P("x*y")]
    monos = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
    cols = []  # one column per (slot, monomial)
    for slot in range(3):
        for e in monos:
            prod = row[slot].mul_term(Fraction(1), e)
            cols.append(prod)
    # build the linear system: coefficients of the combined polynomial vanish
    all_exps = sorted({e for c in cols for e in c.terms})
    matrix_rows = []
    for e in all_exps:
        matrix_rows.append([c.terms.get(e, Fraction(0)) for c in cols])
    kb = kernel_basis(matrix_rows, len(cols))
    sy = syzygies(row)
    mo = ModOrder(GLOBAL2)
    assert kb, "oracle found no syzygies, which is wrong"
    for vec in kb:
        parts = []
        idx = 0
        for slot in range(3):
            p = Poly.zero(2)
            for e in monos:
                if vec[idx]:
                    p = p + Poly.monomial(2, e, vec[idx])
                idx += 1
            parts.append(p)
        cand = Vec(parts)
        combo = sum((parts[k] * row[k] for k in range(3)), Poly.zero(2))
        assert combo.is_zero
        assert normal_form(cand, sy, mo).is_zero


def test_radical_verdicts():
    rv = radical_test((P("x"), P("y^2")), 2)
    assert rv.status == "not_radical"
    g, k = rv.witness
    assert not ideal_contains(g, (P("x"), P("y^2")), LOCAL2)
    assert ideal_contains(g ** k, (P("x"), P("y^2")), LOCAL2)
    assert radical_test((P("x"), P("y")), 2).status == "radical"
    assert radical_test((parse("x^2 + 1", ["x"]),), 1).status == "radical"


def test_radical_monomial_path():
    h = parse("x^2 - y^2*z", V3)
    gens = (h,) + tuple(h.diff(i) for i in range(3))
    rv = radical_test(gens, 3)
    assert rv.status == "not_radical"
    assert rv.method == "monomial"


def test_radical_witness_search_path():
    h = parse("x*y*(x+y)*(x+y*z)", V3)
    gens = (h,) + tuple(h.diff(i) for i in range(3))
    rv = radical_test(gens, 3, seed=1)
    assert rv.status == "not_radical"
    g, k = rv.witness
    local3 = Order("ds", 3)
    assert not ideal_contains(g, gens, local3)
    assert ideal_contains(g ** k, gens, local3)


def test_radical_positive_dim_monomial_radical():
    h = parse("x*y*z", V3)
    gens = (h,) + tuple(h.diff(i) for i in range(3))
    assert radical_test(gens, 3).status == "radical"


def test_min_generators_local():
    x, y = P("x"), P("y")
    mu, sel = min_generators_local([x, y, x + y])
    assert mu == 2
    one = Poly.const(2, 1)
    mu2, sel2 = min_generators_local([one, x])
    assert mu2 == 1 and sel2 == [0]
    # the cusp derivation module needs two generators
    E = Vec([P("3*x"), P("2*y")])
    H = Vec([P("-3*y^2"), P("-2*x")])
    mu3, _ = min_generators_local([E, H])
    assert mu3 == 2


def test_local_colength_and_dim():
    # Milnor number of the cusp is 2
    h = P("x^2 - y^3")
    assert local_colength([h.diff(0), h.diff(1)], 2) == 2
    assert local_colength([P("x")], 2) is None
    assert local_dim([P("x"), P("y")], 2) == 0
    assert local_dim([P("x")], 2) == 1
    assert local_dim([P("1 + x")], 2) == -1
    assert local_dim([parse("x", V3), parse("y", V3), parse("x + y", V3)], 3) == 1


def test_leads_dim_reads_leads_alone():
    assert leads_dim([], 3) == 3
    assert leads_dim([(0, 0, 0), (1, 0, 0)], 3) == -1
    assert leads_dim([(1, 0, 0), (0, 1, 0)], 3) == 1
    # {x, z} avoids the lead x*y, {x, y, z} does not
    assert leads_dim([(1, 1, 0)], 3) == 2
    assert leads_dim([(1, 1, 0), (0, 0, 2)], 3) == 1


def test_linear_algebra_helpers():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert len(_row_echelon(rows)) == 1
    kb = kernel_basis(rows, 2)
    assert len(kb) == 1
    v = kb[0]
    assert v[0] * 1 + v[1] * 2 == 0


def test_local_membership_sees_units():
    # x(1-x) generates <x> locally but not globally
    gens = (P("x - x^2"),)
    assert ideal_contains(P("x"), gens, LOCAL2)
    assert not ideal_contains(P("x"), gens, GLOBAL2)


def test_homogeneous_bypass_agrees_with_mora():
    gens = (P("x^2 - y^2"), P("x*y"))  # homogeneous: bypass path
    basis_fast = std_ideal(gens, LOCAL2)
    # force the Mora path by adding an inhomogeneous redundant generator
    gens2 = (P("x^2 - y^2"), P("x*y"), P("x^3 + x^4"))
    basis_slow = std_ideal(gens2, LOCAL2)
    assert ideal_equal(list(basis_fast), list(basis_slow), LOCAL2)


def _reference_kernel(rows, ncols):
    """Kernel by incremental (not fully reduced) elimination and dense
    back-substitution: slow, but independent of kernel_basis.  Returns
    (rank, kernel vectors)."""
    echelon = []
    for row in rows:
        row = list(row)
        for b in echelon:
            piv = next(i for i, x in enumerate(b) if x)
            if row[piv]:
                c = row[piv] / b[piv]
                row = [x - c * y for x, y in zip(row, b)]
        if any(row):
            echelon.append(row)
    echelon.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
    pivots = [next(i for i, x in enumerate(b) if x) for b in echelon]
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[j] = Fraction(1)
        for b, piv in zip(reversed(echelon), reversed(pivots)):
            acc = sum((b[k] * x[k] for k in range(piv + 1, ncols)), Fraction(0))
            x[piv] = -acc / b[piv]
        out.append(x)
    return len(echelon), out


def _random_matrix(rng):
    ncols = rng.randint(1, 9)
    density = rng.choice((0.15, 0.4, 1.0))

    def entry():
        if rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, 7))]
    extra = []
    for row in rows:
        kind = rng.random()
        if kind < 0.15:
            extra.append([Fraction(0)] * ncols)
        elif kind < 0.3:
            extra.append(list(row))
        elif kind < 0.45 and len(rows) > 1:
            other = rng.choice(rows)
            a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))
            extra.append([a * x + b * y for x, y in zip(row, other)])
    for row in extra:
        rows.insert(rng.randint(0, len(rows)), row)
    return rows, ncols


def test_kernel_basis_against_dense_reference():
    import random
    rng = random.Random(20111)
    cases = [([], 1), ([], 4), ([[Fraction(0)] * 3], 3)]
    cases += [_random_matrix(rng) for _ in range(300)]
    for rows, ncols in cases:
        rank, expected = _reference_kernel(rows, ncols)
        kb = kernel_basis(rows, ncols)
        assert kb == expected, (rows, ncols)
        assert all(type(c) is Fraction for v in kb for c in v)
        for v in kb:
            for row in rows:
                assert sum(a * x for a, x in zip(row, v)) == 0
        assert len(_row_echelon(rows)) == rank == ncols - len(kb)


# ---------------------------------------------------------------------------
# in-place division against the copying reference


def _reference_divide_vec(f, reducers, mo):
    """Global division on immutable Vec copies, with a full lead scan per
    step: the definition the in-place divide_vec must reproduce."""
    quots = [Poly.zero(f.n) for _ in reducers]
    rem = Vec([Poly.zero(f.n) for _ in f.polys])
    p = f
    while not p.is_zero:
        lp = mo.lead(p)
        cp = mo.lead_coeff(p, lp)
        hit = None
        for i, red in enumerate(reducers):
            if red.lead[0] == lp[0]:
                d = tuple(a - b for a, b in zip(lp[1], red.lead[1]))
                if min(d) >= 0:
                    hit = (i, d)
                    break
        if hit is None:
            t = Poly.monomial(f.n, lp[1], cp)
            rem_polys = list(rem.polys)
            rem_polys[lp[0]] = rem_polys[lp[0]] + t
            rem = Vec(rem_polys)
            p_polys = list(p.polys)
            p_polys[lp[0]] = p_polys[lp[0]] - t
            p = Vec(p_polys)
        else:
            i, d = hit
            c = cp / reducers[i].coeff
            quots[i] = quots[i] + Poly.monomial(f.n, d, c)
            p = Vec([a.submul_term(c, d, b)
                     for a, b in zip(p.polys, reducers[i].vec.polys)])
    return quots, rem


def _reference_mora_nf(f, reducers, mo):
    """Mora's weak normal form on immutable Vec copies, with a full lead
    scan and a full degree scan per step."""
    n = f.n
    s = len(reducers)
    zero_q = [Poly.zero(n)] * s
    if f.is_zero:
        return f, Poly.const(n, 1), list(zero_q)
    pool = []
    for i, red in enumerate(reducers):
        q = list(zero_q)
        q[i] = Poly.const(n, -1)
        pool.append((red.vec, red.lead, red.coeff,
                     red.vec.total_degree() - sum(red.lead[1]),
                     (Poly.zero(n), q)))
    h = f
    uh = Poly.const(n, 1)
    qh = list(zero_q)
    while not h.is_zero:
        lh = mo.lead(h)
        ch = mo.lead_coeff(h, lh)
        best = None
        for idx, entry in enumerate(pool):
            if entry[1][0] == lh[0]:
                d = tuple(a - b for a, b in zip(lh[1], entry[1][1]))
                if min(d) >= 0 and (best is None or entry[3] < best[0]):
                    best = (entry[3], idx, d)
        if best is None:
            break
        eh = h.total_degree() - sum(lh[1])
        ec_t, idx, d = best
        if ec_t > eh:
            pool.append((h, lh, ch, eh, (uh, list(qh))))
        tvec, _, tc, _, (ut, qt) = pool[idx]
        c = ch / tc
        h = Vec([a.submul_term(c, d, b) for a, b in zip(h.polys, tvec.polys)])
        mono = Poly.monomial(n, d, c)
        uh = uh - mono * ut
        qh = [a - mono * b for a, b in zip(qh, qt)]
    return h, uh, qh


def _random_poly(rng, n, maxdeg, nterms):
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(rng.randint(0, maxdeg)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                   rng.randint(1, 3))
    return Poly(n, terms)


def _random_vec(rng, n, r, maxdeg, maxterms=4):
    # about a third of the components are zero
    polys = [Poly.zero(n) if rng.random() < 0.35
             else _random_poly(rng, n, maxdeg, rng.randint(1, maxterms))
             for _ in range(r)]
    if all(p.is_zero for p in polys):
        polys[rng.randrange(r)] = _random_poly(rng, n, maxdeg, 2)
    return Vec(polys)


def _random_division(rng, mo, n, r):
    """A dividend and reducers; the dividend is mostly a combination of the
    reducers, so reduction steps cancel many terms.  Local orders get
    smaller input: there Mora's normal form of random vectors can run
    hundreds of steps with coefficients that grow at each one."""
    deg, size = (3, 4) if mo.is_global else (2, 3)
    gens = [_random_vec(rng, n, r, deg, size) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        gens.append(gens[rng.randrange(len(gens))])  # duplicate reducer
    f = Vec([Poly.zero(n)] * r)
    for g in gens:
        if rng.random() < 0.7:
            f = f + _mul_poly(g, _random_poly(rng, n, deg - 1, rng.randint(1, 3)))
    if rng.random() < 0.6:
        f = f + _random_vec(rng, n, r, deg, size)
    return f, [_Elem(g, mo) for g in gens]


def _division_orders():
    out = []
    for n in (2, 3):
        for ring in (Order("degrevlex", n), Order("lex", n)):
            out.append((ModOrder(ring, "TOP"), 1, n))
        for r in (2, 3):
            out.append((ModOrder(Order("degrevlex", n), "TOP"), r, n))
            out.append((ModOrder(Order("degrevlex", n), "ELIM", elim=r - 1), r, n))
        for r in (1, 3):
            out.append((ModOrder(Order("ds", n), "TOP"), r, n))
    return out


def _mul_poly(v, q):
    return Vec([p * q for p in v.polys])


def _combination(quots, reducers, rem):
    acc = rem
    for q, red in zip(quots, reducers):
        acc = acc + _mul_poly(red.vec, q)
    return acc


def test_in_place_division_matches_copying_reference():
    import random
    rng = random.Random(1764)
    for mo, r, n in _division_orders():
        for _ in range(25):
            f, reducers = _random_division(rng, mo, n, r)
            if mo.is_global:
                quots, rem = divide_vec(f, reducers, mo)
                assert (quots, rem) == _reference_divide_vec(f, reducers, mo)
                assert _combination(quots, reducers, rem) == f
                # no term of rem is divisible by a reducer lead
                for c, p in enumerate(rem.polys):
                    for e in p.terms:
                        assert not any(red.lead[0] == c and min(
                            a - b for a, b in zip(e, red.lead[1])) >= 0
                            for red in reducers), (c, e)
            rem, unit, quots = mora_nf(f, reducers, mo)
            assert (rem, unit, quots) == _reference_mora_nf(f, reducers, mo)
            assert unit.constant_term() != 0
            assert _combination(quots, reducers, rem) == _mul_poly(f, unit)
            assert mora_nf(f, reducers, mo, want_cert=False)[0] == rem


# The plane curves of the corpus and of the benchmark, and A_201, whose
# witness needs a power above 200.
REFERENCE_CURVES = sorted({e["poly"] for e in CORPUS if len(e["vars"]) == 2} | {
    "x^3+y^4", "x^3+y^5", "x^5-y^7", "x*y*(x-y)*(x+y)", "x^2+y^2", "x^2-y^5",
    "x^3-y^4", "y^2+x^202"})


def _eliminant(gb, i, n):
    """The univariate eliminant of a globally zero-dimensional ideal in x_i:
    the minimal polynomial of x_i modulo the degrevlex basis gb, from the
    first linear relation among the normal forms of 1, x_i, x_i^2, ..."""
    glob = Order("degrevlex", n)
    x = Poly.variable(n, i)
    forms = []
    power = Poly.const(n, 1)
    while True:
        forms.append(groebner.reduce_poly(power, gb, glob))
        exps = sorted({e for f in forms for e in f.terms})
        kernel = kernel_basis([[f.terms.get(e, 0) for f in forms] for e in exps],
                              len(forms))
        if kernel:
            return sum((x ** k * c for k, c in enumerate(kernel[0]) if c),
                       Poly.zero(n))
        power = power * x


def _seidenberg_status(gens, n):
    """Seidenberg's route, the reference for a globally zero-dimensional
    ideal: adjoining the squarefree part of the univariate eliminant in each
    variable gives the radical, and the ideal is radical at the origin iff
    the radical lies in it locally."""
    glob = Order("degrevlex", n)
    gb = std_ideal(tuple(gens), glob)
    sqfs = []
    for i in range(n):
        f = _eliminant(gb, i, n)
        sqfs.append(exact_div(f, poly_gcd(f, f.diff(i))))
    local = Order("ds", n)
    radical = std_ideal(gb + tuple(sqfs), glob)
    if all(ideal_contains(g, gens, local) for g in radical):
        return "radical"
    return "not_radical"


def _assert_least_witness(rv, gens, n):
    g, k = rv.witness
    local = Order("ds", n)
    assert not ideal_contains(g, gens, local)
    assert ideal_contains(g ** k, gens, local)
    assert not ideal_contains(g ** (k - 1), gens, local)


def _zero_dimensional_gens(rng, n):
    """Generators vanishing at the origin whose degrevlex leads include a
    pure power of each variable, so the ideal is globally zero-dimensional,
    and sometimes one more generator."""
    gens = []
    for i in range(n):
        a = rng.randint(1, 3)
        lower = _random_poly(rng, n, a - 1, rng.randint(0, 3))
        lower = lower - Poly.const(n, lower.constant_term())
        gens.append(Poly.variable(n, i) ** a + lower)
    if rng.random() < 0.5:
        extra = _random_poly(rng, n, 2, 3)
        gens.append(extra - Poly.const(n, extra.constant_term()))
    return tuple(g for g in gens if not g.is_zero)


def _reference_cases():
    for text in REFERENCE_CURVES:
        h = P(text)
        yield text, (h.diff(0), h.diff(1), h), 2
    rng = random.Random(1109)
    for k in range(30):
        n = 2 + k % 2
        yield f"seeded {k}", _zero_dimensional_gens(rng, n), n


@pytest.mark.parametrize("label,gens,n", list(_reference_cases()))
def test_radical_test_matches_seidenberg(label, gens, n):
    rv = radical_test(gens, n)
    assert rv.method == "zero-dimensional", label
    assert rv.status == _seidenberg_status(gens, n), label
    if rv.status == "not_radical":
        _assert_least_witness(rv, gens, n)


def test_zero_dimensional_radical_test_runs_no_elimination(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        return wrapper
    gcd = counted("poly_gcd", poly.poly_gcd)
    monkeypatch.setattr(poly, "poly_gcd", gcd)
    monkeypatch.setattr(groebner, "poly_gcd", gcd, raising=False)
    for text in ("x^5-y^7", "x^4 + y^5 + x*y^4", "x*y*(x+y)"):
        h = P(text)
        assert radical_test((h.diff(0), h.diff(1), h), 2).method == \
            "zero-dimensional"
    assert radical_test((P("x^2"), P("y^3 + x*y")), 2).status == "not_radical"
    assert calls == []


def _fixpoint_reduced_basis(gens, mo):
    """Reference: the reduced basis by tail-reduction passes repeated until
    one changes nothing, popping an element that reduces to zero."""
    G = groebner._minimalize(groebner._compute_basis(gens, mo))
    changed = True
    while changed:
        changed = False
        for i in range(len(G)):
            others = G[:i] + G[i + 1:]
            if not others:
                continue
            rem = divide_vec(G[i].vec, others, mo)[1]
            if rem != G[i].vec:
                changed = True
                if rem.is_zero:
                    G.pop(i)
                    break
                G[i] = _Elem(rem, mo)
    G.sort(key=lambda e: mo.heap_key(*e.lead))
    return [e.vec.scale(Fraction(1) / e.coeff) for e in G]


def _embedded_rows(vecs):
    """The rows (v_i, e_i) and the ELIM order that syzygies() reduces."""
    n, r, s = vecs[0].n, vecs[0].r, len(vecs)
    rows = []
    for i, v in enumerate(vecs):
        tail = [Poly.zero(n)] * s
        tail[i] = Poly.const(n, 1)
        rows.append(Vec(list(v.polys) + tail))
    return rows, ModOrder(Order("degrevlex", n), "ELIM", elim=r)


def _seeded_global_inputs():
    rng = random.Random(2215)
    cases = []
    # at most n generators, or most ideals are the unit ideal
    for _ in range(30):
        n = rng.choice((2, 3))
        gens = [Vec([_random_poly(rng, n, 3, rng.randint(2, 4))])
                for _ in range(rng.randint(2, n))]
        cases.append((gens, ModOrder(Order("degrevlex", n))))
    for _ in range(20):
        n = rng.choice((2, 3))
        r = rng.choice((1, 2))
        vecs = [_random_vec(rng, n, r, 2, 3) for _ in range(rng.randint(2, 3))]
        cases.append(_embedded_rows(vecs))
    return cases


def test_one_tail_pass_matches_fixpoint_reduction(monkeypatch):
    calls = []
    real_divide = groebner.divide_vec
    real_compute = groebner._compute_basis

    def counting(f, reducers, mo):
        calls.append(len(reducers))
        return real_divide(f, reducers, mo)

    def compute(gens, mo):
        G = real_compute(gens, mo)
        calls.clear()
        return G

    for gens, mo in _seeded_global_inputs():
        expected = _fixpoint_reduced_basis(gens, mo)
        monkeypatch.setattr(groebner, "divide_vec", counting)
        monkeypatch.setattr(groebner, "_compute_basis", compute)
        basis = standard_basis(gens, mo)
        monkeypatch.undo()
        assert basis == expected
        # one division per element after the Buchberger loop, by the others
        assert calls == [len(basis) - 1] * len(basis)
