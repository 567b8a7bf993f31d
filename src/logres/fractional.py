"""Fractional ideals on the hypersurface ring O_D = O_S / <h>.

A fractional ideal is stored as (num, den): a numerator ideal given mod h
and a denominator certified to be a nonzerodivisor mod h.  All arithmetic
happens mod h in the localization at the origin.  Duality follows
I^dual = {f : f*I inside O_D}, computed as den * (<c> : num) / c for a
certified nonzerodivisor c inside the numerator ideal; the quotient is an
ideal quotient mod h.  Equality is decided by cross-multiplied ideal
comparison.  The conductor of a ring between O_D and its normalization is
its dual, read back as an ideal of O_D.
"""

from __future__ import annotations

import random

from .errors import InputError, EngineError
from .poly import Poly, poly_str, exact_div, exp_deg
from .groebner import ideal_quotient, standard_basis, lift, ModOrder, leads_dim

NZD_TRIAL_BUDGET = 32


# (h, q) -> whether q is a nonzerodivisor mod h; only the verdicts are kept
_NZD_CACHE = {}


def is_nzd(D, q):
    """Whether q is a nonzerodivisor mod h in the local ring at the origin.

    O/<h> is a hypersurface ring, so it is Cohen-Macaulay, and by the
    unmixedness theorem its associated primes are its minimal primes, each
    of dimension n-1.  So q is a zero divisor iff it vanishes on a whole
    component of {h = 0} at the origin, iff dim_0 O/<h, q> = n-1; otherwise
    that dimension is at most n-2 (-1 for a unit q).  The dimension is read
    off the leads of a local standard basis of <h, q>, computed outside the
    shared standard-basis cache; only the verdict is memoised."""
    if q.is_zero:
        return False
    if q.constant_term() != 0:
        return True
    key = (D.h, q)
    if key not in _NZD_CACHE:
        mo = ModOrder(D.local_order)
        leads = [mo.lead(v)[1] for v in standard_basis([D.h, q], mo)]
        _NZD_CACHE[key] = leads_dim(leads, D.n) <= D.n - 2
    return _NZD_CACHE[key]


def nzd_witness(D, q):
    """None when q is a nonzerodivisor mod h; otherwise a witness w with
    w*q in <h> but w not in <h> locally.

    The verdict is is_nzd's.  Only for a zero divisor is the witness
    computed: q is a zero divisor iff (<h> : q) is larger than <h> in the
    local ring, and w is the first generator of the ideal quotient that
    lies outside <h> locally."""
    if q.is_zero:
        return Poly.const(D.n, 1)
    if is_nzd(D, q):
        return None
    for w in ideal_quotient([D.h], [q], D.global_order):
        if not D.in_h(w):
            return w
    raise EngineError("the dimension and quotient nonzerodivisor tests disagree")


def require_nzd(D, q):
    """Raise InputError, with a witness, unless q is a nonzerodivisor mod h."""
    if not is_nzd(D, q):
        raise InputError(f"denominator {poly_str(q, D.names)} is a zero divisor "
                         f"mod h (witness {poly_str(nzd_witness(D, q), D.names)})")


def _nzd_schedule(m):
    """Fixed schedule of coefficient vectors over m generators: unit
    vectors, sums and differences of pairs, then the distinct nonzero
    vectors with entries in [-2, 2] drawn from random.Random(0), so the
    certificates never vary.  It ends once every such vector is drawn."""
    for i in range(m):
        yield [int(k == i) for k in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            for s in (1, -1):
                yield [1 if k == i else s if k == j else 0 for k in range(m)]
    rng, drawn = random.Random(0), set()
    while len(drawn) < 5 ** m - 1:
        coeffs = tuple(rng.randint(-2, 2) for _ in range(m))
        if any(coeffs) and coeffs not in drawn:
            drawn.add(coeffs)
            yield coeffs


def nzd_combinations(D, gens):
    """(coeffs, q) for each certified nonzerodivisor q = sum coeffs_i*gens_i
    mod h over the m nonzero gens (coeffs 0 at the zero gens).  It tries the
    first NZD_TRIAL_BUDGET distinct q of _nzd_schedule, then (m-1)*ord_0(h)+1
    points (1, t, ..., t^(m-1)), t = 3, 4, ..., of the moment curve, which
    decide: <h> has at most ord_0(h) minimal primes at the origin, the c with
    sum c_i*gens_i in one of them form a subspace, proper unless the ideal
    lies in that prime, and a proper subspace holds at most m-1 such points."""
    live = [i for i, g in enumerate(gens) if not g.is_zero]
    m, seen = len(live), set()

    def trial(vec):
        coeffs = [0] * len(gens)
        q = Poly.zero(D.n)
        for i, c in zip(live, vec):
            if c:
                coeffs[i] = c
                q = q + gens[i].scale(c)
        if not q.is_zero and q not in seen:
            seen.add(q)
            if is_nzd(D, q):
                yield coeffs, q

    for vec in _nzd_schedule(m):
        if len(seen) >= NZD_TRIAL_BUDGET:
            break
        yield from trial(vec)
    for t in range(3, 4 + (m - 1) * min(map(exp_deg, D.h.terms))):
        yield from trial([t ** k for k in range(m)])


def find_nzd_in(D, gens):
    """A certified nonzerodivisor inside the ideal generated by gens mod h,
    or None when that ideal holds none."""
    return next((q for _, q in nzd_combinations(D, gens)), None)


def _same_germ(ideal, *others):
    """Raise unless every one of others lives on the germ of ideal."""
    for other in others:
        if ideal.germ is not other.germ and ideal.germ.h != other.germ.h:
            raise InputError("fractional ideals live on different germs")


class FractionalIdeal:
    """Finitely generated O_D-submodule of the total quotient ring containing
    a nonzerodivisor, in common-denominator form num/den."""

    __slots__ = ("germ", "num", "den", "_nzd_num", "_dual")

    def __init__(self, germ, num_gens, den):
        self._dual = None
        self.germ = germ
        den = den if isinstance(den, Poly) else Poly.const(germ.n, den)
        require_nzd(germ, den)
        self.den = den
        self.num = tuple(germ.mod_h_basis(num_gens))
        if not self.num:
            raise InputError("numerator ideal is zero mod h")
        self._nzd_num = find_nzd_in(germ, self.num)
        if self._nzd_num is None:
            raise InputError("numerator module contains no certified nonzerodivisor")

    @staticmethod
    def make(pairs, D):
        """Fractional ideal generated by the fractions p/q in `pairs`.  A q
        with q(0) != 0 is a unit of the local ring, so p/q enters as p, which
        generates the same O_D-module."""
        one = Poly.const(D.n, 1)
        pairs = [(p, q if q.constant_term() == 0 else one) for p, q in pairs]
        if not pairs:
            raise InputError("no generators")
        dens = []
        for _, q in pairs:
            require_nzd(D, q)
            if q not in dens:
                dens.append(q)
        den = one
        for q in dens:
            den = den * q
        return FractionalIdeal(D, [p * exact_div(den, q) for p, q in pairs], den)

    @staticmethod
    def ring(D):
        """O_D itself."""
        one = Poly.const(D.n, 1)
        return FractionalIdeal(D, [one], one)

    def __repr__(self):
        D = self.germ
        nums = ", ".join(poly_str(p, D.names) for p in self.num)
        return f"FractionalIdeal(<{nums}> / {poly_str(self.den, D.names)})"

    def contains_fraction(self, p, q):
        """p/q in num/den, i.e. p*den in q*num mod h locally (q must be a
        nonzerodivisor, which the caller certifies)."""
        D = self.germ
        gens = [q * n for n in self.num]
        return D.member_mod_h(p * self.den, gens)

    def includes(self, other):
        """self contains other as submodules of the total quotient ring."""
        _same_germ(self, other)
        return all(self.contains_fraction(p, other.den) for p in other.num)

    def includes_product(self, a, b):
        """self contains the product a*b.  The products of generators
        generate a*b, so testing them is enough, and den*den' is a
        nonzerodivisor because each factor was certified on construction."""
        _same_germ(self, a, b)
        q = a.den * b.den
        return all(self.contains_fraction(p * r, q) for p in a.num for r in b.num)

    def equals(self, other):
        """Inclusion both ways: num'*den in den'*num, then num*den' in
        den*num', mod h."""
        return self.includes(other) and other.includes(self)

    def product(self, other):
        """I * I'."""
        D = self.germ
        nums = [a * b for a in self.num for b in other.num]
        return FractionalIdeal(D, nums, self.den * other.den)

    def dual(self):
        """I^dual = {f : f*I in O_D} = den * (<c> : num) / c for a certified
        nonzerodivisor c in the numerator ideal."""
        if self._dual is not None:
            return self._dual
        D = self.germ
        c = self._nzd_num
        Q = ideal_quotient([c, D.h], list(self.num), D.global_order)
        if not Q:
            raise EngineError("empty dual quotient")
        out = FractionalIdeal(D, [self.den * q for q in Q], c)
        # certification: I * I^dual inside O_D
        if not FractionalIdeal.ring(D).includes_product(self, out):
            raise EngineError("dual certificate failed: I * I^dual not in O_D")
        self._dual = out
        return out

    def conductor(self):
        """For a fractional ideal A containing O_D (the weakly holomorphic
        ring, or R_D when it equals that ring): polynomial generators of the
        conductor dual(A) = {f : f*A in O_D} as an ideal of O_D (unit factors
        dropped), certified to be an ideal of A."""
        D = self.germ
        dual = self.dual()
        out = []
        for lifted in lift(dual.num, [dual.den, D.h], D.local_order):
            if lifted is None:
                raise InputError("the fractional ideal does not contain O_D")
            # unit*p = a*den + b*h, so mod h the fraction p/den is a unit
            # multiple of a
            rep = lifted[1][0]
            if not rep.is_zero:
                out.append(rep)
        gens = list(D.mod_h_basis(out))
        cond = FractionalIdeal(D, gens, 1)
        if not cond.includes_product(cond, self):
            raise EngineError("conductor is not an ideal of the ring")
        return gens
