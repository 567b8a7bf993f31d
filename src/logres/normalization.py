"""Normalization data for plane-curve germs and their suspensions.

Branches are truncated power-series parametrizations t -> (x(t), y(t)) of
the curve factor, with rational coefficients.  A suspension's passive
variables have no series, so only polynomials in the curve variables pull
back to a branch.  From a certified branch system the module builds the
ring of weakly holomorphic functions as a fractional ideal

    O~ = { p : val_i(p) >= val_i(q) on every branch } / q

for a nonzerodivisor q whose branchwise valuations dominate the conductor
exponents (bounded by 2*delta = Milnor number + branches - 1).  The
numerator is found by truncated-series linear algebra.  The conductor,
the dual of O~, is left to FractionalIdeal.conductor.

A second normalization source covers divisors given by smooth pairwise
coprime factors: there the weakly holomorphic ring is generated by the
componentwise idempotents.

Rational Newton-Puiseux expansion is provided for plane curves whose
expansions stay inside Q; anything needing an algebraic coefficient
extension is reported as unsupported: there is then no branch
normalization unless branches are supplied.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd as int_gcd

from .errors import InputError, EngineError
from .poly import Poly, ZERO, ONE
from .groebner import local_colength, kernel_basis
from .fractional import FractionalIdeal, nzd_combinations

MAX_EXPANSION_DEPTH = 64
# the largest |k| whose divisors the rational root search enumerates, by
# trial division up to sqrt(k); beyond it the expansion is unsupported
MAX_ROOT_SEARCH = 10 ** 12


class Unsupported(Exception):
    """Internal signal: the expansion left the rationals."""


# ---------------------------------------------------------------------------
# truncated jets


class Jet:
    """Truncated power series in t with Fraction coefficients, exact below
    `trunc`; zero coefficients are not stored."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc):
        self.coeffs = {e: c for e, c in coeffs.items() if e < trunc and c}
        self.trunc = trunc

    @property
    def is_zero_jet(self):
        return not self.coeffs

    def valuation(self):
        """Least exponent with nonzero coefficient; None when the whole stored
        jet vanishes (true valuation >= trunc)."""
        return min(self.coeffs) if self.coeffs else None

    def mul(self, other, cap):
        """The product, exact below `cap` and as far as both factors allow."""
        va = self.valuation()
        vb = other.valuation()
        fa = self.trunc if va is None else va
        fb = other.trunc if vb is None else vb
        trunc = min(self.trunc + fb, other.trunc + fa, cap)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < trunc:
                    s = out.get(e)
                    p = c1 * c2
                    out[e] = p if s is None else s + p
        return Jet(out, trunc)


def substitute(p, jets, trunc, cache=None):
    """Jet of p with variable i replaced by jets[i], exact below `trunc`;
    every variable p uses must have a jet.  Each power jets[i]^k is built once,
    from the power below it, and kept in `cache` under (i, k, trunc): share a
    cache only between calls with the same jets."""
    if cache is None:
        cache = {}

    def power(i, k):
        key = (i, k, trunc)
        pw = cache.get(key)
        if pw is None:
            if k == 1:
                pw = Jet(jets[i].coeffs, min(jets[i].trunc, trunc))
            else:
                pw = power(i, k - 1).mul(power(i, 1), trunc)
            cache[key] = pw
        return pw

    out = {}
    for e, c in p.terms.items():
        # c * t^shift * term, with single-term powers folded into c and shift
        shift, term = 0, None
        for i in jets:
            if e[i] and shift < trunc:
                pw = power(i, e[i])
                if len(pw.coeffs) == 1:
                    (s, v), = pw.coeffs.items()
                    shift += s
                    c = c * v
                else:
                    term = pw if term is None else term.mul(pw, trunc - shift)
        if shift >= trunc or (term is not None and not term.coeffs):
            continue
        items = ((0, ONE),) if term is None else term.coeffs.items()
        for s, v in items:
            out[s + shift] = out.get(s + shift, ZERO) + c * v
    return Jet(out, trunc)


# ---------------------------------------------------------------------------
# branches


class BranchParam:
    """One branch of the curve factor: a truncated series per active variable
    (exponent -> rational coefficient), exact below `trunc`."""

    __slots__ = ("series", "trunc")

    def __init__(self, series, trunc):
        self.series = {i: {e: Fraction(c) for e, c in s.items() if c}
                       for i, s in series.items()}
        self.trunc = trunc

    def exponents(self):
        out = []
        for s in self.series.values():
            out.extend(s.keys())
        return out

    def is_primitive(self):
        g = 0
        for e in self.exponents():
            g = int_gcd(g, e)
        return g == 1

    def multiplicity(self):
        vals = [min(s) for s in self.series.values() if s]
        if not vals:
            raise InputError("branch parametrization is constant")
        return min(vals)

    def sign_flipped(self):
        return BranchParam({i: {e: (-c if e % 2 else c) for e, c in s.items()}
                            for i, s in self.series.items()}, self.trunc)

    def canonical(self):
        """Normalize the t -> -t reparametrization ambiguity (prefer a
        positive leading coefficient)."""
        other = self.sign_flipped()
        def key(b):
            items = []
            for i in sorted(b.series):
                for e in sorted(b.series[i]):
                    items.append((i, e, b.series[i][e]))
            return items
        return self if key(self) >= key(other) else other

    def same_branch(self, other):
        a, b = self.canonical(), other.canonical()
        return a.series == b.series


def pullback(p, branch, cache=None, trunc=None):
    """Jet of p along the branch.  `trunc` caps the jet precision (never
    above the branch truncation); a shared `cache` avoids recomputing series
    powers.  A variable of p without a series on the branch is an
    InputError."""
    for i in range(p.n):
        if i not in branch.series and any(e[i] for e in p.terms):
            raise InputError(f"the branch has no series for variable "
                             f"{i + 1}, which the polynomial uses")
    trunc = branch.trunc if trunc is None else min(trunc, branch.trunc)
    jets = {i: Jet(s, branch.trunc) for i, s in branch.series.items()}
    return substitute(p, jets, trunc, cache)


# ---------------------------------------------------------------------------
# rational Newton-Puiseux


def _support(p):
    return [(e[0], e[1]) for e in p.terms]


def _var_divides(p, i):
    return all(e[i] >= 1 for e in p.terms)


def _divide_var(p, i):
    out = {}
    for e, c in p.terms.items():
        d = list(e)
        d[i] -= 1
        out[tuple(d)] = c
    return Poly._raw(p.n, out)


def _transpose2(p):
    return Poly._raw(2, {(e[1], e[0]): c for e, c in p.terms.items()})


def _newton_edges(p):
    """Edges of the lower-left Newton boundary of a 2-variable polynomial
    (x nmid p, y nmid p): list of (q, m, points) with slope m/q in lowest
    terms, meaning y ~ c x^(m/q) along the edge."""
    pts = set(_support(p))
    b = min(j for i, j in pts if i == 0)
    edges = []
    cur = (0, b)
    while cur[1] > 0:
        best = None
        for w in pts:
            if w[0] <= cur[0] or w[1] >= cur[1]:
                continue
            slope = Fraction(w[0] - cur[0], cur[1] - w[1])
            if best is None or slope < best[0] or (slope == best[0] and w[0] > best[1][0]):
                best = (slope, w)
        if best is None:
            raise EngineError("newton boundary did not reach the x-axis")
        slope, nxt = best
        m, q = slope.numerator, slope.denominator
        on_edge = sorted(w for w in pts
                         if cur[0] <= w[0] <= nxt[0] and nxt[1] <= w[1] <= cur[1]
                         and (w[0] - cur[0]) * (cur[1] - nxt[1]) ==
                             (cur[1] - w[1]) * (nxt[0] - cur[0]))
        edges.append((q, m, on_edge))
        cur = nxt
    return edges


def _edge_char(p, q, pts):
    """psi(w): the edge polynomial in w = z^q where y = z x^(m/q)."""
    jmin = min(j for _, j in pts)
    psi = {}
    for i, j in pts:
        k = (j - jmin) // q
        if k * q != j - jmin:
            raise EngineError("edge point off the slope lattice")
        psi[k] = psi.get(k, Fraction(0)) + p.terms[(i, j)]
    return {k: c for k, c in psi.items() if c}


def _dense(poly_dict):
    d = max(poly_dict)
    out = [Fraction(0)] * (d + 1)
    for k, c in poly_dict.items():
        out[k] = c
    return out


def _rational_roots(poly_dict):
    """All (root, multiplicity) pairs of rational roots; second return value
    is the degree left undecided (0 means the polynomial split rationally).
    Raises Unsupported when an end coefficient exceeds MAX_ROOT_SEARCH."""
    coeffs = _dense(poly_dict)
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    if ints[0] == 0:
        raise EngineError("edge polynomial with zero constant term")

    def divisors(k):
        k = abs(k)
        if k > MAX_ROOT_SEARCH:
            raise Unsupported
        out = set()
        d = 1
        while d * d <= k:
            if k % d == 0:
                out.add(d)
                out.add(k // d)
            d += 1
        return out

    def eval_at(cs, r):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * r + c
        return acc

    def deflate(cs, r):
        # cs / (z - r), exact
        out = [Fraction(0)] * (len(cs) - 1)
        carry = cs[-1]
        for k in range(len(cs) - 2, -1, -1):
            out[k] = carry
            carry = cs[k] + r * carry
        assert carry == 0
        return out

    roots = []
    cur = [Fraction(c) for c in ints]
    cands = sorted({Fraction(s * pn, pd) for pn in divisors(ints[0])
                    for pd in divisors(ints[-1]) for s in (1, -1)})
    for r in cands:
        mult = 0
        while len(cur) > 1 and eval_at(cur, r) == 0:
            cur = deflate(cur, r)
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots, len(cur) - 1


def _newton_lift(g, prec):
    """The unique series phi with phi(0) = 0 and g(x, phi(x)) = 0 mod
    x^(prec+1), for g with dg/dy invertible at the origin.  Newton's step
    phi <- phi - g(x, phi) / g_y(x, phi) doubles the precision m to which
    phi is exact; the residue at precision prec+1 must vanish, as the
    certificate."""
    if not g.terms.get((0, 1)):
        raise EngineError("newton lift requires a simple root")
    gy = g.diff(1)
    phi, m = {}, 1
    while True:
        top = min(2 * m, prec + 1)
        jets = {0: Jet({1: ONE}, top), 1: Jet(phi, top)}
        cache = {}
        r = substitute(g, jets, top, cache)
        v = r.valuation()
        if v is None:
            if top > prec:
                return phi
        elif v < m:
            raise EngineError("newton lift lost the root")
        else:
            # g(x, phi) = 0 mod x^m, so g_y(x, phi) is needed below x^(top-m)
            step = r.mul(_unit_inverse(substitute(gy, jets, top, cache),
                                       top - m), top)
            for e in sorted(step.coeffs):
                phi[e] = -step.coeffs[e]
        m = top


def _unit_inverse(u, trunc):
    """1/u below t^trunc for a jet u with u(0) != 0, by the triangular
    recurrence sum_j u_j w_(k-j) = 0 for k >= 1."""
    inv0 = ONE / u.coeffs[0]
    tail = sorted((j, c) for j, c in u.coeffs.items() if 0 < j < trunc)
    w = [inv0]
    for k in range(1, trunc):
        acc = ZERO
        for j, c in tail:
            if j > k:
                break
            acc += c * w[k - j]
        w.append(-acc * inv0)
    return Jet(dict(enumerate(w)), trunc)


def _substitute_edge(h2, q, m, c):
    """g(x, y') = h2(x^q, x^m (c + y')) / x^E with the full power of x
    removed."""
    x_q = Poly._raw(2, {(q, 0): Fraction(1)})
    shift = Poly._raw(2, {(m, 0): Fraction(c), (m, 1): Fraction(1)})
    g = h2.subs({0: x_q, 1: shift})
    e_min = min(e[0] for e in g.terms)
    g = Poly._raw(2, {(e[0] - e_min, e[1]): v for e, v in g.terms.items()})
    return g


def _expand(h2, prec, depth, edge_filter=None):
    """Branches (Q, yser) of h2 with positive valuation in both variables:
    x = t^Q, y = yser(t).  Raises Unsupported when a root leaves Q."""
    if depth > MAX_EXPANSION_DEPTH:
        raise EngineError("puiseux expansion exceeded the depth bound")
    out = []
    if _var_divides(h2, 1):
        h2 = _divide_var(h2, 1)
        out.append((1, {}))  # the branch y = 0
    if h2.is_constant() or not h2.terms or h2.constant_term() != 0:
        return out
    if _var_divides(h2, 0):
        raise EngineError("unexpected x factor inside the expansion")
    for q, m, pts in _newton_edges(h2):
        if edge_filter is not None and (q, m) != edge_filter:
            continue
        psi = _edge_char(h2, q, pts)
        roots, undecided = _rational_roots(psi)
        if undecided:
            raise Unsupported
        for w0, mult in roots:
            # c^q = w0; for even q, -c gives the same branch (t -> -t)
            cs, _ = _rational_roots({0: -w0, q: ONE})
            if not cs:
                raise Unsupported
            c = max(cs)[0]
            g = _substitute_edge(h2, q, m, c)
            if mult == 1 and g.terms.get((0, 1)):
                out.append((q, _splice(c, m, _newton_lift(g, prec), prec)))
            else:
                for q2, phi in _expand(g, prec, depth + 1):
                    out.append((q * q2, _splice(c, m * q2, phi, prec)))
    return out


def _splice(c, s, phi, prec):
    """The series c*t^s + t^s*phi(t), the shifted phi cut above t^prec; phi
    has no constant term."""
    out = {s: Fraction(c)}
    out.update((s + e, v) for e, v in phi.items() if s + e <= prec)
    return out


def _curve_setup(D):
    """(curve variable indices, 2-variable model of h).  Suspensions are
    detected through variables absent from h."""
    active = sorted(D.h.vars_used())
    if len(active) > 2:
        return None
    if len(active) == 2:
        cvars = active
    else:
        passive = [i for i in range(D.n) if i not in active]
        if not passive:
            return None
        cvars = [active[0], passive[0]]
    h2 = Poly._raw(2, {(e[cvars[0]], e[cvars[1]]): c for e, c in D.h.terms.items()})
    return cvars, h2


def puiseux_rational(D, precision):
    """Branch parametrizations of a plane-curve germ (or of the curve factor
    of a suspension) when all Newton-Puiseux root extractions stay rational;
    None otherwise ('unsupported': branches must be supplied instead)."""
    setup = _curve_setup(D)
    if setup is None:
        raise InputError("not a plane-curve germ or suspension of one")
    cvars, h2 = setup
    branches = []
    try:
        if _var_divides(h2, 0):
            h2 = _divide_var(h2, 0)
            branches.append(BranchParam({cvars[0]: {}, cvars[1]: {1: 1}}, precision))
        if _var_divides(h2, 1):
            h2 = _divide_var(h2, 1)
            branches.append(BranchParam({cvars[0]: {1: 1}, cvars[1]: {}}, precision))
        if not h2.is_constant():
            for q, m, _ in _newton_edges(h2):
                # each top-level edge in whichever orientation stays rational
                try:
                    subs = _expand(h2, precision, 0, edge_filter=(q, m))
                    transposed = False
                except Unsupported:
                    subs = _expand(_transpose2(h2), precision, 0, edge_filter=(m, q))
                    transposed = True
                for Q, yser in subs:
                    if transposed:
                        branches.append(BranchParam(
                            {cvars[0]: yser, cvars[1]: {Q: 1}}, precision))
                    else:
                        branches.append(BranchParam(
                            {cvars[0]: {Q: 1}, cvars[1]: yser}, precision))
    except Unsupported:
        return None
    return [b.canonical() for b in branches]


# ---------------------------------------------------------------------------
# normalization data


class NormalizationData:
    """Certified normalization of a curve germ / suspension / smooth-factored
    divisor: the branches and their truncation (empty and None for the
    smooth-factor source) and the weakly holomorphic ring O~ as a fractional
    ideal."""

    __slots__ = ("branches", "weak_ring", "source", "truncation")

    def __init__(self, branches, weak_ring, source, truncation=None):
        self.branches = list(branches)
        self.weak_ring = weak_ring
        self.source = source
        self.truncation = truncation


def _certify_branch(D, branch):
    if any(0 in s for s in branch.series.values()):
        raise InputError("branch does not pass through the origin "
                         "(a series has a term of exponent 0)")
    sub = pullback(D.h, branch)
    if not sub.is_zero_jet:
        raise InputError(
            f"branch substitution does not annihilate h "
            f"(first surviving order t^{sub.valuation()})")
    if not branch.is_primitive():
        raise InputError("branch parametrization is not primitive")


def conductor_bound(h2):
    """Upper bound for the conductor exponents of the curve with the
    2-variable model h2: 2*delta = Milnor number + number of branches - 1;
    the branch count is bounded by the multiplicity."""
    mu = local_colength([h2.diff(0), h2.diff(1)], 2)
    if mu is None:
        raise EngineError("curve factor has non-isolated singularity")
    mult = min(sum(e) for e in h2.terms)
    return mu + mult - 1


def normalization_from_branches(D, branches=None):
    """Assemble NormalizationData for a plane-curve germ or suspension.
    User-supplied branches always win over the internal expansion; both paths
    run the same certification.  The internal expansion starts at
    truncation max(2*cb + 16, 3*cb + 8) for the conductor bound cb, and is
    taken again at the certification bound of the chosen denominator form
    while that is higher, so the form and the bound always belong to the
    same expansion.  Without supplied branches, a germ whose rational
    expansion is unsupported gets None; a supplied list must not be
    empty."""
    setup = _curve_setup(D)
    if setup is None:
        raise InputError("germ outside the supported class "
                         "(plane curve or suspension of one)")
    cvars, h2 = setup
    cb = conductor_bound(h2)

    def required_precision(vals):
        B = -(-cb // min(vals))
        K = B * max(vals)
        return 2 * K + cb + 8

    if branches is None:
        # need >= 3*cb + 8 for every form, so start there.  A form readable
        # at one truncation stays readable at a higher one, so the chosen
        # form never moves later in the schedule and the loop ends.
        prec = max(2 * cb + 16, 3 * cb + 8)
        while True:
            branches = puiseux_rational(D, precision=prec)
            if branches is None:
                return None
            ell_full, ell_vals = _denominator_form(D, cvars, branches)
            need = required_precision(ell_vals)
            if need <= prec:
                break
            prec = need
        for b in branches:
            _certify_branch(D, b)
    else:
        if not branches:
            raise InputError("supplied branches must be a non-empty list")
        for b in branches:
            outside = sorted(set(b.series) - set(cvars))
            if outside:
                raise InputError(f"branch has a series for "
                                 f"{D.names[outside[0]]}, which is not a "
                                 f"curve variable")
            _certify_branch(D, b)
        ell_full, ell_vals = _denominator_form(D, cvars, branches)
        need = required_precision(ell_vals)
        short = [b for b in branches if b.trunc < need]
        if short:
            raise InputError(
                f"supplied branch truncation is below the certification bound "
                f"{need}; raise the truncation")

    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            if branches[i].same_branch(branches[j]):
                raise InputError("branches are not pairwise distinct")
    total_mult = sum(b.multiplicity() for b in branches)
    curve_mult = min(sum(e) for e in h2.terms)
    if total_mult != curve_mult:
        raise InputError(
            f"branch system is incomplete: multiplicities sum to {total_mult} "
            f"but the curve has multiplicity {curve_mult}")

    # the denominator q = ell^B with val(q) >= conductor bound
    B = -(-cb // min(ell_vals))
    qden = ell_full ** B
    vq = [B * v for v in ell_vals]
    K = max(vq)

    # numerator: curve-variable polynomials of degree < K whose branchwise
    # valuations dominate vq, plus the full degree-K slab
    monos = []
    for d in range(K):
        for i in range(d + 1):
            e = [0] * D.n
            e[cvars[0]] = d - i
            e[cvars[1]] = i
            monos.append(Poly.monomial(D.n, tuple(e)))
    rows = []
    for b, v in zip(branches, vq):
        cache = {}
        jets = [pullback(mn, b, cache=cache, trunc=v) for mn in monos]
        for t_exp in range(v):
            rows.append([j.coeffs.get(t_exp, ZERO) for j in jets])
    num_gens = []
    for veck in kernel_basis(rows, len(monos)):
        p = Poly.zero(D.n)
        for c, mn in zip(veck, monos):
            if c:
                p = p + mn.scale(c)
        num_gens.append(p)
    for i in range(K + 1):
        e = [0] * D.n
        e[cvars[0]] = K - i
        e[cvars[1]] = i
        num_gens.append(Poly.monomial(D.n, tuple(e)))

    weak = FractionalIdeal(D, num_gens, qden)
    _certify_weak_ring(D, weak)
    return NormalizationData(branches, weak, "branches", branches[0].trunc)


def _denominator_form(D, cvars, branches):
    """(ell, its valuation on each branch) for the first nonzerodivisor of
    nzd_combinations over the two curve variables whose valuations are
    readable at the branches' truncation."""
    gens = [Poly.variable(D.n, i) for i in cvars]
    for _, ell in nzd_combinations(D, gens):
        vals = [pullback(ell, b).valuation() for b in branches]
        if None not in vals:
            return ell, vals
    raise InputError("no nonzerodivisor linear form found on the branches")


def _certify_weak_ring(D, weak):
    if not weak.includes(FractionalIdeal.ring(D)):
        raise EngineError("weakly holomorphic module does not contain 1")
    for i, p in enumerate(weak.num):
        for q in weak.num[i:]:
            if not weak.contains_fraction(p * q, weak.den * weak.den):
                raise EngineError("weakly holomorphic module is not a ring")


def normalization_from_smooth_factors(idem):
    """O~ for a divisor presented by a validated factorization (an
    IdempotentData) into smooth factors through the origin: the direct sum
    of the component rings, generated by the idempotents."""
    if not idem.smooth:
        raise InputError("components are not all smooth at the origin")
    return NormalizationData([], idem.module, "smooth_factors")


def is_weakly_holomorphic(frac, nd):
    """Whether frac lies in O~.  With branches, the valuation test: on every
    branch the numerator pullback must vanish at least to the order of the
    denominator pullback.  With smooth factors, membership in the
    idempotent module."""
    if nd.source != "branches":
        return nd.weak_ring.contains_fraction(frac.num, frac.den)
    for b in nd.branches:
        vd = pullback(frac.den, b).valuation()
        if vd is None:
            raise InputError(
                "truncation insufficient to decide: denominator pullback "
                "vanishes to the stored order")
        vn = pullback(frac.num, b).valuation()
        if vn is not None and vn < vd:
            return False
    return True


# ---------------------------------------------------------------------------
# branch files


# the truncation of a branch file entry that states none
DEFAULT_BRANCH_TRUNCATION = 48


def branches_from_json(text, D):
    """Branch list from the JSON format
    [{"param": {"x": [[3, "1"]], "y": [[2, "1"]]}, "truncation": 16}, ...]:
    exponents are integers >= 0, coefficients rationals given as strings or
    integers, and the truncation an integer >= 1.  A malformed file raises
    InputError naming the first bad entry."""
    try:
        data = json.loads(text)
    except ValueError as e:
        raise InputError(f"branch file is not JSON: {e}") from None
    if not isinstance(data, list):
        raise InputError("branch file must contain a list")
    name_to_idx = {nm: i for i, nm in enumerate(D.names)}
    out = []
    for k, entry in enumerate(data):
        where = f"branch entry {k}"
        if not isinstance(entry, dict) or not isinstance(entry.get("param"), dict):
            raise InputError(f"{where} is not an object with a param table")
        trunc = entry.get("truncation", DEFAULT_BRANCH_TRUNCATION)
        if type(trunc) is not int or trunc < 1:
            raise InputError(f"{where}: truncation {trunc!r} is not an "
                             f"integer >= 1")
        series = {}
        for nm, pairs in entry["param"].items():
            if nm not in name_to_idx:
                raise InputError(f"{where}: unknown variable {nm!r}")
            series[name_to_idx[nm]] = _series_from_json(
                pairs, f"{where}, variable {nm!r}")
        out.append(BranchParam(series, trunc))
    return out


def _series_from_json(pairs, where):
    """{exponent: Fraction} from a list of [exponent, coefficient] pairs."""
    series = {}
    for pair in pairs if isinstance(pairs, list) else [pairs]:
        try:
            e, c = pair
            if type(e) is not int or e < 0 or type(c) not in (int, str):
                raise ValueError
            c = Fraction(c)
        except (TypeError, ValueError, ZeroDivisionError):
            raise InputError(f"{where}: {pair!r} is not an [exponent, "
                             f"coefficient] pair of an integer >= 0 and a "
                             f"rational") from None
        if e in series:
            raise InputError(f"{where}: exponent {e} is repeated")
        series[e] = c
    return series
