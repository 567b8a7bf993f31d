"""Groebner and standard bases for ideals and submodules of free modules.

Global orders use classical Buchberger division; local orders use Mora's
weak normal form with ecart selection, so results are valid in the
localization of Q[x] at the origin.  Pair selection is the normal
strategy (minimal lcm degree) with a sugar tie-break, which makes every
basis deterministic.

Homogeneous ideal input under a local order is dispatched to Buchberger:
leading terms of homogeneous polynomials agree between degrevlex and its
local twin, so the computed basis is a standard basis as well.

Syzygies are computed by the component-elimination embedding: a Groebner
basis of {(v_i, e_i)} under an order that makes the original components
dominate; basis vectors with vanishing original part generate the syzygy
module.  Since localization is flat, polynomial syzygies generate the
local syzygy module too, which is what the Nakayama-style minimal
generator count below relies on.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappush, heappop
from itertools import product
from operator import add

from .errors import EngineError
from .poly import Poly, Order, exp_mul, exp_div, exp_lcm, exp_deg

ONE = Fraction(1)


class Vec:
    """Element of a free module R^r, stored as a tuple of Poly."""

    __slots__ = ("polys",)

    def __init__(self, polys):
        self.polys = tuple(polys)

    @property
    def r(self):
        return len(self.polys)

    @property
    def n(self):
        return self.polys[0].n

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.polys)

    def __eq__(self, other):
        return isinstance(other, Vec) and self.polys == other.polys

    def __add__(self, other):
        return Vec([a + b for a, b in zip(self.polys, other.polys)])

    def __sub__(self, other):
        return Vec([a - b for a, b in zip(self.polys, other.polys)])

    def scale(self, c):
        return Vec([p.scale(c) for p in self.polys])

    def mul_term(self, c, e):
        return Vec([p.mul_term(c, e) for p in self.polys])

    def total_degree(self):
        return max(p.total_degree() for p in self.polys)

    def at_origin(self):
        return [p.constant_term() for p in self.polys]


def as_vec(x):
    return x if isinstance(x, Vec) else Vec([x])


class ModOrder:
    """Order on module monomials (component, exponent).  Rules:

      TOP  -- term over position (ring order first, lower component wins ties)
      ELIM -- every monomial in a component < elim dominates the rest;
              used for syzygy computations
    """

    __slots__ = ("ring", "rule", "elim")

    def __init__(self, ring, rule="TOP", elim=0):
        self.ring = ring
        self.rule = rule
        self.elim = elim

    @property
    def is_global(self):
        return self.ring.is_global

    def heap_key(self, c, e):
        """A flat tuple that sorts ascending from the largest module monomial
        to the smallest, so the lead is the least entry of a min-heap."""
        rk = self.ring.heap_key(e)
        if self.rule == "TOP":
            return rk + (c,)
        return (0 if c < self.elim else 1,) + rk + (c,)

    def lead(self, v):
        """Leading module monomial (comp, exp) of v, or None: the least
        heap_key, taken over the least ring key of each component."""
        rk = self.ring.heap_key
        best = None
        for c, p in enumerate(v.polys):
            if p.terms:
                e = min(p.terms, key=rk)
                k = self.heap_key(c, e)
                if best is None or k < best[0]:
                    best = (k, c, e)
        return None if best is None else best[1:]

    def lead_coeff(self, v, lead):
        c, e = lead
        return v.polys[c].terms[e]


# ---------------------------------------------------------------------------
# division


class _Elem:
    """A nonzero module element with its lead, lead coefficient and ecart
    under the order of the computation: a basis element, and the one reducer
    type of division."""

    __slots__ = ("vec", "lead", "coeff", "ecart", "sugar", "mono")

    def __init__(self, vec, mo, sugar=0):
        self.vec = vec
        self.lead = mo.lead(vec)
        self.coeff = mo.lead_coeff(vec, self.lead)
        self.ecart = vec.total_degree() - exp_deg(self.lead[1])
        self.sugar = sugar
        # a single term: the S-vector of two such elements is zero
        self.mono = sum(len(p.terms) for p in vec.polys) == 1


class _Dividend:
    """A module element under reduction, changed in place.

    It keeps one {exp: Fraction} dict per component and a lazy min-heap of
    (ModOrder.heap_key, comp, exp) entries: the first entry whose term is
    still present is the lead, and an entry whose term has cancelled is
    stale and dropped when it reaches the top.  With track_degree it also
    counts the terms of each total degree, for the ecart."""

    __slots__ = ("comps", "heap", "mo", "degs")

    def __init__(self, f, mo, track_degree=False):
        self.mo = mo
        self.comps = [dict(p.terms) for p in f.polys]
        hk = mo.heap_key
        self.heap = [(hk(c, e), c, e)
                     for c, comp in enumerate(self.comps) for e in comp]
        heapify(self.heap)
        self.degs = None
        if track_degree:
            degs = {}
            for comp in self.comps:
                for e in comp:
                    k = exp_deg(e)
                    degs[k] = degs.get(k, 0) + 1
            self.degs = degs

    def lead(self):
        """(comp, exp, coeff) of the leading term, or None when zero."""
        heap = self.heap
        comps = self.comps
        while heap:
            _, c, e = heap[0]
            coeff = comps[c].get(e)
            if coeff is not None:
                return c, e, coeff
            heappop(heap)
        return None

    def total_degree(self):
        return max(self.degs)

    def pop_lead(self, c, e):
        """Remove the leading term (c, e) that lead() returned, and return
        its coefficient."""
        heappop(self.heap)
        return self.comps[c].pop(e)

    def submul_term(self, c, d, vec):
        """self -= c * x^d * vec."""
        comps = self.comps
        heap = self.heap
        degs = self.degs
        hk = self.mo.heap_key
        for k, p in enumerate(vec.polys):
            if not p.terms:
                continue
            comp = comps[k]
            for t, v in p.terms.items():
                te = tuple(map(add, t, d))
                old = comp.get(te)
                if old is None:
                    comp[te] = -(c * v)
                    heappush(heap, (hk(k, te), k, te))
                    if degs is not None:
                        g = exp_deg(te)
                        degs[g] = degs.get(g, 0) + 1
                    continue
                s = old - c * v
                if s:
                    comp[te] = s
                else:
                    del comp[te]
                    if degs is not None:
                        g = exp_deg(te)
                        if degs[g] == 1:
                            del degs[g]
                        else:
                            degs[g] -= 1

    def vec(self, n):
        """The current value; the dicts pass to the result."""
        return Vec([Poly._raw(n, comp) for comp in self.comps])

    def snapshot(self, n):
        """A copy of the current value."""
        return Vec([Poly._raw(n, dict(comp)) for comp in self.comps])


def _submul_into(res, c, d, p):
    """res -= c * x^d * p, in place on an {exp: Fraction} dict."""
    for t, v in p.terms.items():
        te = tuple(map(add, t, d))
        old = res.get(te)
        if old is None:
            res[te] = -(c * v)
        else:
            s = old - c * v
            if s:
                res[te] = s
            else:
                del res[te]


def divide_vec(f, reducers, mo):
    """Global division: f = sum quots[i]*reducers[i] + rem, and no term of
    rem is divisible by any reducer lead."""
    n = f.n
    quots = [{} for _ in reducers]
    rem = [{} for _ in f.polys]
    p = _Dividend(f, mo)
    # every step lowers the lead, so each term put in rem or quots is new
    while True:
        lead = p.lead()
        if lead is None:
            break
        lc, le, cp = lead
        hit = None
        for i, red in enumerate(reducers):
            if red.lead[0] == lc:
                d = exp_div(le, red.lead[1])
                if d is not None:
                    hit = (i, d)
                    break
        if hit is None:
            rem[lc][le] = p.pop_lead(lc, le)
        else:
            i, d = hit
            c = cp / reducers[i].coeff
            quots[i][d] = c
            p.submul_term(c, d, reducers[i].vec)
    return ([Poly._raw(n, q) for q in quots],
            Vec([Poly._raw(n, r) for r in rem]))


def mora_nf(f, reducers, mo, want_cert=True):
    """Mora weak normal form for local (or any) orders.

    Returns (rem, unit, quots) with  unit*f = sum quots[i]*gens[i] + rem
    exactly, unit a polynomial with unit(0) != 0, and the lead of rem not
    divisible by any lead of the input reducers.  With want_cert=False the
    certificate bookkeeping is skipped and (rem, None, None) is returned."""
    n = f.n
    s = len(reducers)
    zero_q = [Poly.zero(n)] * s
    if f.is_zero:
        if not want_cert:
            return f, None, None
        return f, Poly.const(n, 1), list(zero_q)

    # pool entries: (reducer, lead, coeff, ecart, cert) where cert=(u, quots)
    # expresses the entry as u*f - sum quots[i]*gens[i]; input gens have
    # u=0 and quots = -e_i.
    pool = []
    for i, red in enumerate(reducers):
        cert = None
        if want_cert:
            q = list(zero_q)
            q[i] = Poly.const(n, -1)
            cert = (Poly.zero(n), q)
        pool.append((red.vec, red.lead, red.coeff, red.ecart, cert))

    h = _Dividend(f, mo, track_degree=True)
    # the certificate of h, as dicts updated in place like h
    uh = {(0,) * n: ONE} if want_cert else None
    qh = [{} for _ in range(s)] if want_cert else None
    while True:
        lead = h.lead()
        if lead is None:
            break
        hc, he, ch = lead
        best = None
        for idx, entry in enumerate(pool):
            if entry[1][0] == hc:
                d = exp_div(he, entry[1][1])
                if d is not None and (best is None or entry[3] < best[0]):
                    best = (entry[3], idx, d)
        if best is None:
            break
        eh = h.total_degree() - exp_deg(he)
        ec_t, idx, d = best
        if ec_t > eh:
            cert = None
            if want_cert:
                cert = (Poly._raw(n, dict(uh)),
                        [Poly._raw(n, dict(a)) for a in qh])
            pool.append((h.snapshot(n), (hc, he), ch, eh, cert))
        tvec, _, tc, _, cert = pool[idx]
        c = ch / tc
        h.submul_term(c, d, tvec)
        if want_cert:
            ut, qt = cert
            _submul_into(uh, c, d, ut)
            for a, b in zip(qh, qt):
                if b.terms:
                    _submul_into(a, c, d, b)
    rem = h.vec(n)
    if not want_cert:
        return rem, None, None
    if (0,) * n not in uh:
        raise EngineError("Mora normal form lost its unit; order misuse?")
    return rem, Poly._raw(n, uh), [Poly._raw(n, a) for a in qh]


def _reducers(basis, mo):
    """(position, reducer) for each nonzero element of basis."""
    vecs = [as_vec(g) for g in basis]
    return [(i, _Elem(v, mo)) for i, v in enumerate(vecs) if not v.is_zero]


def normal_form(f, basis, mo):
    """Remainder of f modulo a standard basis.  Zero iff f lies in the ideal
    (local orders: in its extension to the local ring at the origin)."""
    return _divide(as_vec(f), [red for _, red in _reducers(basis, mo)], mo,
                   False)[2]


def _divide(f, reducers, mo, want_cert):
    """(quots, unit, rem) with unit*f = sum quots[i]*reducers[i] + rem, by
    divide_vec (unit 1) or Mora's weak normal form; without want_cert the
    unit, and the quotients of a local division, may be None."""
    if mo.is_global:
        quots, rem = divide_vec(f, reducers, mo)
        return quots, Poly.const(f.n, 1) if want_cert else None, rem
    rem, unit, quots = mora_nf(f, reducers, mo, want_cert=want_cert)
    return quots, unit, rem


def division_certificate(f, basis, mo):
    """(quots, unit, rem) with unit*f = sum quots*basis + rem, unit(0) != 0
    (unit = 1 for global orders); a zero element of basis gets quotient 0."""
    f = as_vec(f)
    indexed = _reducers(basis, mo)
    quots, unit, rem = _divide(f, [red for _, red in indexed], mo, True)
    full = [Poly.zero(f.n)] * len(basis)
    for (i, _), q in zip(indexed, quots):
        full[i] = q
    return full, unit, rem


# ---------------------------------------------------------------------------
# basis computation


def _compute_basis(vecs, mo):
    """Shared Buchberger/Mora loop over nonzero vectors.  Returns the list
    of _Elem."""
    G = [_Elem(v, mo, v.total_degree()) for v in vecs]

    pairs = []

    def push_pair(i, j):
        gi, gj = G[i], G[j]
        if gi.mono and gj.mono:
            return
        (ci, ei), (cj, ej) = gi.lead, gj.lead
        if ci != cj:
            return
        l = exp_lcm(ei, ej)
        if gi.vec.r == 1 and exp_mul(ei, ej) == l:
            # product criterion (ideals only)
            return
        dl = exp_deg(l)
        sugar = max(gi.sugar + dl - exp_deg(ei), gj.sugar + dl - exp_deg(ej))
        heappush(pairs, (dl, sugar, i, j, l))

    for i in range(len(G)):
        for j in range(i):
            push_pair(j, i)

    while pairs:
        _, sugar, i, j, l = heappop(pairs)
        gi, gj = G[i], G[j]
        di = exp_div(l, gi.lead[1])
        dj = exp_div(l, gj.lead[1])
        svec = (gi.vec.mul_term(ONE / gi.coeff, di)
                - gj.vec.mul_term(ONE / gj.coeff, dj))
        if svec.is_zero:
            continue
        rem = _divide(svec, G, mo, False)[2]
        if rem.is_zero:
            continue
        G.append(_Elem(rem, mo, sugar))
        for k in range(len(G) - 1):
            push_pair(k, len(G) - 1)
    return G


def _minimalize(G):
    """Drop elements whose lead is divisible by another element's lead."""
    keep = []
    for i, e in enumerate(G):
        li = e.lead
        redundant = False
        for j, f in enumerate(G):
            if i == j:
                continue
            lj = f.lead
            if lj[0] == li[0] and exp_div(li[1], lj[1]) is not None:
                if exp_div(lj[1], li[1]) is not None and j > i:
                    continue  # equal leads: keep the earlier one
                redundant = True
                break
        if not redundant:
            keep.append(e)
    return keep


def standard_basis(gens, mo):
    """Standard basis of the submodule (or ideal, rank 1) generated by gens.

    Global orders: the unique reduced Groebner basis, monic, sorted by
    decreasing lead.  Local orders: a minimal monic standard basis (no tail
    reduction, which need not terminate over local rings).
    """
    vecs_nz = [v for v in map(as_vec, gens) if not v.is_zero]
    if not vecs_nz:
        return []
    n = vecs_nz[0].n

    local = not mo.is_global
    work_mo = mo
    if local and all(all(_is_homogeneous(p) for p in v.polys) for v in vecs_nz):
        # leading terms agree with the global twin on homogeneous input
        work_mo = ModOrder(Order("degrevlex", n), mo.rule, mo.elim)

    G = _minimalize(_compute_basis(vecs_nz, work_mo))

    if not local:
        # the reduced basis: no lead divides another after _minimalize, so
        # dividing an element by the others keeps its lead, and after one
        # pass no tail term is divisible by any of the fixed leads
        for i, e in enumerate(G):
            G[i] = _Elem(divide_vec(e.vec, G[:i] + G[i + 1:], mo)[1], mo)

    G.sort(key=lambda e: mo.heap_key(*e.lead))
    return [e.vec.scale(ONE / e.coeff) for e in G]


def _is_homogeneous(p):
    if p.is_zero:
        return True
    degs = {exp_deg(e) for e in p.terms}
    return len(degs) == 1


# ---------------------------------------------------------------------------
# ideal-level API


def _ideal_mo(order):
    return ModOrder(order, "TOP")


_STD_CACHE_SIZE = 512


@lru_cache(maxsize=_STD_CACHE_SIZE)
def _std_cached(gens, order):
    """The standard basis of the ideal of the nonzero gens, its elements
    kept as reducers so that a membership test finds no lead again."""
    mo = _ideal_mo(order)
    return tuple(_Elem(v, mo) for v in
                 standard_basis([Vec([g]) for g in gens], mo))


def std_ideal(gens, order):
    """Cached standard basis of an ideal, as a tuple of Poly."""
    key = tuple(g for g in gens if not g.is_zero)
    if not key:
        return ()
    return tuple(e.vec.polys[0] for e in _std_cached(key, order))


def reduce_poly(f, basis, order):
    v = normal_form(Vec([f]), [Vec([g]) for g in basis], _ideal_mo(order))
    return v.polys[0]


def ideal_contains(f, gens, order):
    key = tuple(g for g in gens if not g.is_zero)
    if not key:
        return f.is_zero
    return _divide(Vec([f]), _std_cached(key, order), _ideal_mo(order),
                   False)[2].is_zero


# ---------------------------------------------------------------------------
# syzygies and derived operations


def syzygies(vecs):
    """Generators of {a in R^s : sum a_i * vecs_i = 0} for the given vectors
    (exact polynomial syzygies; they also generate all local syzygies): the
    rows of the standard-basis elements of the (v_i, e_i) whose v-part is
    zero, under an order in which the v-part dominates."""
    vecs = [as_vec(v) for v in vecs]
    if not vecs:
        return []
    r, n, s = vecs[0].r, vecs[0].n, len(vecs)
    zero = Poly.zero(n)
    embedded = []
    for i, v in enumerate(vecs):
        tail = [zero] * s
        tail[i] = Poly.const(n, 1)
        embedded.append(Vec(list(v.polys) + tail))
    mo = ModOrder(Order("degrevlex", n), "ELIM", elim=r)
    return [Vec(b.polys[r:]) for b in standard_basis(embedded, mo)
            if all(p.is_zero for p in b.polys[:r])]


def ideal_quotient(I, J, order):
    """(I : J) over the polynomial ring; valid in the localization as well."""
    I = [g for g in I if not g.is_zero]
    J = [g for g in J if not g.is_zero]
    if not J:
        raise ValueError("quotient by the zero ideal")
    if not I:
        return []
    n = J[0].n
    s = len(J)
    zero = Poly.zero(n)
    rows = [Vec(J)]
    for f in I:
        for k in range(s):
            comps = [zero] * s
            comps[k] = f
            rows.append(Vec(comps))
    sy = syzygies(rows)
    gens = [s_.polys[0] for s_ in sy if not s_.polys[0].is_zero]
    gens = list(std_ideal(tuple(gens), order)) if gens else []
    return gens


def min_generators_local(vecs, extra=()):
    """Minimal number of generators at the origin of the module generated by
    vecs, modulo the submodule generated by extra (Nakayama: the count is the
    dimension of M/mM, read off from syzygy constants).  Returns
    (count, indices of a minimal generating subset of vecs)."""
    vecs = [as_vec(v) for v in vecs]
    extra = [as_vec(v) for v in extra]
    s = len(vecs)
    sy = syzygies(vecs + extra)
    span = _row_echelon(sy_i.at_origin()[:s] for sy_i in sy)
    mu = s - len(span)
    selected = []
    for j in range(s):
        if len(selected) == mu:
            break
        rank = len(span)
        ej = [Fraction(0)] * s
        ej[j] = ONE
        if len(_row_echelon([ej], span)) > rank:
            selected.append(j)
    return mu, selected


def _local_leads(gens, n):
    """Leading exponents of the cached local standard basis of the ideal of
    the nonzero gens; empty for the zero ideal."""
    key = tuple(g for g in gens if not g.is_zero)
    if not key:
        return []
    return [e.lead[1] for e in _std_cached(key, Order("ds", n))]


def local_colength(gens, n):
    """Dimension over Q of the local ring at the origin modulo the ideal,
    or None when infinite; 0 for the unit ideal.  Counts standard monomials
    under the local standard-basis staircase."""
    leads = _local_leads(gens, n)
    box = []
    for i in range(n):
        pure = [e[i] for e in leads if all(e[j] == 0 for j in range(n) if j != i)]
        if not pure:
            return None
        box.append(min(pure))
    return sum(1 for e in product(*map(range, box))
               if not any(exp_div(e, le) is not None for le in leads))


def leads_dim(leads, n):
    """Dimension at the origin of the vanishing locus of an ideal, read off
    the leading exponents of a local standard basis of it: the maximal
    number of variables meeting no lead.  n for no leads (the zero ideal),
    -1 when a lead is constant (the locally unit ideal)."""
    if not leads:
        return n
    if any(exp_deg(e) == 0 for e in leads):
        return -1
    best = -1
    for mask in range(1 << n):
        subset = {i for i in range(n) if mask >> i & 1}
        if len(subset) <= best:
            continue
        if not any(all(i in subset for i, k in enumerate(e) if k) for e in leads):
            best = len(subset)
    return best


def local_dim(gens, n):
    """Dimension at the origin of the vanishing locus of the ideal of gens,
    from its cached local standard basis.  Returns -1 for the (locally)
    unit ideal."""
    return leads_dim(_local_leads(gens, n), n)


# ---------------------------------------------------------------------------
# exact linear algebra over Q


def _sub_row(a, c, b):
    """a -= c*b on sparse rows, in place; entries that cancel are dropped."""
    for k, y in b.items():
        v = a.get(k, 0) - c * y
        if v:
            a[k] = v
        else:
            del a[k]


def _row_echelon(rows, ech=None):
    """Add the rows to the reduced row echelon form ech, in place, and
    return it.  The form maps each pivot column p to its sparse row
    {column: Fraction}, which is 1 at p and 0 at every other pivot; zero
    rows add nothing, so len() of the form is the rank."""
    if ech is None:
        ech = {}
    for row in rows:
        r = {k: Fraction(x) for k, x in enumerate(row) if x}
        for p, b in ech.items():
            c = r.get(p)
            if c:
                _sub_row(r, c, b)
        if not r:
            continue
        piv = min(r)
        c = r[piv]
        r = {k: x / c for k, x in r.items()}
        for b in ech.values():
            c = b.get(piv)
            if c:
                _sub_row(b, c, r)
        ech[piv] = r
    return ech


def kernel_basis(rows, ncols):
    """Basis of {x : A x = 0} for the matrix with the given rows: for each
    non-pivot column j in increasing order, the unique kernel vector that is
    1 at j and 0 at every other non-pivot column."""
    ech = _row_echelon(rows)
    out = {}
    for j in range(ncols):
        if j not in ech:
            x = [Fraction(0)] * ncols
            x[j] = ONE
            out[j] = x
    for p, r in ech.items():
        for j, c in r.items():
            if j != p:
                out[j][p] = -c
    return list(out.values())


# ---------------------------------------------------------------------------
# radical test


class RadicalVerdict:
    """Outcome of the radical test with its certificates.

    status    -- "radical" | "not_radical" | "undecided"
    witness   -- for not_radical: (g, k) with g outside the ideal locally
                 but g^k inside; None otherwise
    method    -- which certification path decided
    """

    __slots__ = ("status", "witness", "method")

    def __init__(self, status, witness=None, method=""):
        self.status = status
        self.witness = witness
        self.method = method

    def __repr__(self):
        return f"RadicalVerdict({self.status}, method={self.method!r})"


def _least_power(g, gens, order, bound):
    """The least k <= bound with g^k in the ideal of gens under order, or
    None."""
    p = g
    for k in range(1, bound + 1):
        if k > 1:
            p = p * g
        if ideal_contains(p, gens, order):
            return k
    return None


def radical_test(gens, n, seed=0):
    """Decide whether the ideal generated by gens is radical in the local ring
    at the origin.

    An ideal of finite local colength c is decided exactly: the quotient is
    an Artinian local ring, which is reduced iff it is a field, i.e. iff
    c == 1; otherwise the first variable outside the ideal is a witness,
    with a power at most c because m^c lies in the ideal.  Monomial ideals
    are decided combinatorially; otherwise a seeded hyperplane-slice
    heuristic proposes witnesses which are then certified or the test
    returns undecided.  Every radical/not_radical verdict carries explicit
    membership witnesses.
    """
    gens = tuple(g for g in gens if not g.is_zero)
    if not gens:
        return RadicalVerdict("radical", method="zero ideal")
    local_order = Order("ds", n)
    c = local_colength(gens, n)
    if c == 0:
        # the germ at the origin is the unit ideal; trivially radical there
        return RadicalVerdict("radical", method="unit at origin")
    if c == 1:
        return RadicalVerdict("radical", method="zero-dimensional")
    if c is not None:
        x = next(x for x in (Poly.variable(n, i) for i in range(n))
                 if not ideal_contains(x, gens, local_order))
        k = _least_power(x, gens, local_order, c)
        if k is None:
            raise EngineError(f"the power {c} of the witness is not in the ideal")
        return RadicalVerdict("not_radical", witness=(x, k),
                              method="zero-dimensional")

    gb = std_ideal(gens, Order("degrevlex", n))
    if all(len(p.terms) == 1 for p in gb):
        # monomial ideal: radical iff every minimal generator is squarefree
        for p in gb:
            e = next(iter(p.terms))
            if max(e) > 1:
                root = Poly.monomial(n, tuple(min(k, 1) for k in e))
                if not ideal_contains(root, gens, local_order):
                    # root^max(e) is a multiple of the generator
                    k = _least_power(root, gens, local_order, max(e))
                    if k is None:
                        raise EngineError(f"the power {max(e)} of the witness "
                                          f"is not in the ideal")
                    return RadicalVerdict("not_radical", witness=(root, k),
                                          method="monomial")
        return RadicalVerdict("radical", method="monomial")

    # general positive-dimensional germ: hunt certified witnesses
    rng = random.Random(seed)
    candidates = [Poly.variable(n, i) for i in range(n)]
    for _ in range(8):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        lin = Poly(n, {tuple(1 if j == i else 0 for j in range(n)): c
                       for i, c in enumerate(coeffs) if c})
        if not lin.is_zero:
            candidates.append(lin)
    for g in candidates:
        k = _least_power(g, gens, local_order, 12)
        if k is not None and k > 1:
            return RadicalVerdict("not_radical", witness=(g, k),
                                  method="witness search")
    return RadicalVerdict("undecided", method="witness search exhausted")
