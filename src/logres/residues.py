"""Saito's residue map for logarithmic 1-forms and the residue module.

For omega = (sum a_i dx_i)/h the residue is the meromorphic function xi/g
on D obtained from any certificate

    g * a = xi * (dh/dx_1, ..., dh/dx_n) + h * b        (exact identity)

with g a nonzerodivisor mod h; well-definedness means any two certificates
agree mod h.  Certificates come out of one syzygy computation for the row
(a | grad h | h*e_1 | ... | h*e_n).  The residue module R_D is computed as
the fractional-ideal dual of the Jacobian ideal; for free divisors it is
certified against the residues of a dual basis of logarithmic forms.
"""

from __future__ import annotations

from .errors import InputError, EngineError
from .poly import Poly, poly_str, exact_div
from .groebner import Vec, syzygies, min_generators_local, reduce_poly
from .germs import (jacobian_ideal, is_free, log_forms_basis, LogOneForm,
                    form_is_logarithmic)
from .fractional import FractionalIdeal, is_nzd, nzd_witness

RESIDUE_TRIAL_BUDGET = 32


class MeroFraction:
    """xi/g in the total quotient ring of O_D; g certified nonzerodivisor."""

    __slots__ = ("germ", "num", "den")

    def __init__(self, germ, num, den):
        self.germ = germ
        self.num = num
        self.den = den
        if not is_nzd(germ, den):
            w = nzd_witness(germ, den)
            raise InputError(
                f"denominator {poly_str(den, germ.names)} is a zero divisor "
                f"mod h (witness {poly_str(w, germ.names)})")

    def equals(self, other):
        """xi/g = xi'/g'  iff  xi*g' - xi'*g in <h> locally."""
        return self.germ.in_h(self.num * other.den - other.num * self.den)

    def restrict(self, factor):
        """Reduction of numerator and denominator modulo a component {factor=0};
        guarded against denominators vanishing on the component."""
        D = self.germ
        num_r = reduce_poly(self.num, (factor,), D.global_order)
        den_r = reduce_poly(self.den, (factor,), D.global_order)
        if den_r.is_zero:
            raise InputError("denominator vanishes on the chosen component")
        return num_r, den_r

    def str_of(self, D=None):
        D = D or self.germ
        return f"({poly_str(self.num, D.names)}) / ({poly_str(self.den, D.names)})"

    def __repr__(self):
        return self.str_of()


class ResidueCertificate:
    """(g, xi, b) with g*a = xi*grad(h) + h*b exactly."""

    __slots__ = ("g", "xi", "b")

    def __init__(self, g, xi, b):
        self.g = g
        self.xi = xi
        self.b = tuple(b)

    def verify(self, a, D):
        for i in range(D.n):
            lhs = self.g * a[i]
            rhs = self.xi * D.partials[i] + D.h * self.b[i]
            if lhs != rhs:
                return False
        return True


def residue_certificates(omega, D, count=1):
    """Up to `count` distinct residue certificates for a logarithmic form.
    Candidate g's are drawn from the quotient of the module spanned by grad h
    and h*O_S^n by the coefficient vector, then certified nonzerodivisors."""
    a = omega.a if isinstance(omega, LogOneForm) else tuple(omega)
    if not form_is_logarithmic(a, D):
        raise InputError("the form is not logarithmic")
    n = D.n
    zero = Poly.zero(n)
    rows = [Vec(a), Vec(D.partials)]
    for i in range(n):
        comps = [zero] * n
        comps[i] = D.h
        rows.append(Vec(comps))
    sy = syzygies(rows)
    # syzygy (s0, s1, s2, ...): s0*a + s1*grad + sum s_{2+i} h e_i = 0
    base = [(s.polys[0], s.polys[1], s.polys[2:]) for s in sy
            if not s.polys[0].is_zero]

    def certs():
        for g, s1, rest in base:
            yield ResidueCertificate(g, -s1, [-p for p in rest])
        for i in range(len(base)):
            for j in range(i + 1, len(base)):
                gi, si, ri = base[i]
                gj, sj, rj = base[j]
                yield ResidueCertificate(gi + gj, -(si + sj),
                                         [-(p + q) for p, q in zip(ri, rj)])
                yield ResidueCertificate(gi - gj, -(si - sj),
                                         [-(p - q) for p, q in zip(ri, rj)])
        # unit rescalings give further distinct certified denominators
        for k in range(n):
            u = Poly.const(n, 1) + Poly.variable(n, k)
            for g, s1, rest in base:
                yield ResidueCertificate(u * g, -(u * s1), [-(u * p) for p in rest])

    found = []
    seen = set()
    trials = 0
    for cert in certs():
        if cert.g.is_zero or (cert.g, cert.xi) in seen:
            continue
        seen.add((cert.g, cert.xi))
        trials += 1
        if is_nzd(D, cert.g):
            if not cert.verify(a, D):
                raise EngineError("residue certificate failed to re-multiply")
            found.append(cert)
            if len(found) >= count:
                return found
        if trials >= RESIDUE_TRIAL_BUDGET:
            break
    if found:
        return found
    raise EngineError(
        "no nonzerodivisor denominator found for the residue within the "
        "trial budget; this contradicts the decomposition guarantee")


def residue(omega, D):
    """The residue xi/g of a logarithmic 1-form, as a MeroFraction."""
    cert = residue_certificates(omega, D, count=1)[0]
    den = cert.g
    if isinstance(omega, LogOneForm):
        den = den * omega.extra
    return MeroFraction(D, cert.xi, den)


_RESIDUE_MODULE_CACHE = {}


def residue_module(D):
    """R_D as a fractional ideal: the dual of the Jacobian ideal.  When D is
    free the residues of the dual basis of its Saito matrix (which is_free
    keeps on the germ) are certified to generate the same fractional ideal
    before R_D is cached."""
    key = (D.h, D.names)
    R = _RESIDUE_MODULE_CACHE.get(key)
    if R is not None:
        return R
    R = FractionalIdeal(D, jacobian_ideal(D), 1).dual()
    free, M = is_free(D)
    if free:
        fracs = [residue(w, D) for w in log_forms_basis(M)]
        gen = FractionalIdeal.make([(f.num, f.den) for f in fracs], D)
        if not gen.equals(R):
            raise EngineError(
                "residues of the dual basis do not generate dual(J_D)")
    _RESIDUE_MODULE_CACHE[key] = R
    return R


def sigma_check(delta, omega, D):
    """Compatibility of the dual residue pairing with multiplication by the
    residue:  g * <delta, a> = dh(delta) * xi  mod <h>.  Contract: always
    true; exposed as a checkable oracle."""
    cert = residue_certificates(omega, D, count=1)[0]
    a = omega.a if isinstance(omega, LogOneForm) else tuple(omega)
    pair = Poly.zero(D.n)
    dh = Poly.zero(D.n)
    for c, ai, hi in zip(delta.coeffs, a, D.partials):
        pair = pair + c * ai
        dh = dh + c * hi
    return D.in_h(cert.g * pair - dh * cert.xi)


def mu_residues(D):
    """Minimal local generator count of R_D as an O_D-module and whether 1
    can be part of a minimal generating set (1 not in m*R_D)."""
    R = residue_module(D)
    mu, _ = min_generators_local([Vec([p]) for p in R.num], extra=[Vec([D.h])])
    if not R.contains_fraction(Poly.const(D.n, 1), Poly.const(D.n, 1)):
        raise EngineError("R_D does not contain 1")
    # 1 in m*R_D  iff  den in m*num + <h> locally
    m_num = [Poly.variable(D.n, i) * p for i in range(D.n) for p in R.num]
    contains_unit = not D.member_mod_h(R.den, m_num)
    return mu, contains_unit


def gorenstein_rule(smooth, free, mu, contains_unit):
    """empty / gorenstein / not_gorenstein / undecided from the facts of one
    analysis.  The rule needs freeness: the singular locus of a free divisor
    is Gorenstein iff R_D is generated by 1 and one more element."""
    if smooth:
        return "empty"
    if not free:
        return "undecided"
    return "gorenstein" if (mu == 2 and contains_unit) else "not_gorenstein"


def gorenstein_singular_locus(D):
    """The Gorenstein verdict of gorenstein_rule, computing its facts."""
    free, _ = is_free(D)
    mu, has_unit = mu_residues(D) if free else (None, None)
    return gorenstein_rule(D.is_smooth, free, mu, has_unit)


def validate_factorization(D, factors):
    """Check: no factor zero, factors pairwise distinct, product equal to h
    up to a nonzero constant; returns that constant.  The product check is
    enough: h is squarefree (DivisorGerm certifies it), so a squared factor
    or a factor shared by two of the given ones would divide h twice.
    IdempotentData runs it once, on construction."""
    factors = list(factors)
    if not factors:
        raise InputError("empty factor list")
    prod = Poly.const(D.n, 1)
    for f in factors:
        if f.is_zero:
            raise InputError("zero factor")
        prod = prod * f
    if len(set(factors)) < len(factors):
        raise InputError("factors are not pairwise distinct")
    scale = exact_div(D.h, prod)
    if scale is None or not scale.is_constant() or scale.is_zero:
        raise InputError("factor product does not equal h up to a constant")
    return scale.constant_term()


class IdempotentData:
    """A validated factorization of h with its componentwise-unit fractions
    e_i = (h/f_i) / g, g = sum h/f_j, so sum e_i = 1, and certified relations
    e_i^2 = e_i mod h.  smooth records whether every factor passes through
    the origin and is smooth there."""

    __slots__ = ("germ", "factors", "smooth", "parts", "g")

    def __init__(self, D, factors):
        self.factors = tuple(factors)
        validate_factorization(D, self.factors)
        self.germ = D
        self.smooth = all(f.constant_term() == 0
                          and any(f.diff(i).constant_term() for i in range(D.n))
                          for f in self.factors)
        # each factor divides h exactly: their product is h up to a constant
        self.parts = tuple(exact_div(D.h, f) for f in self.factors)
        self.g = sum(self.parts, Poly.zero(D.n))
        if not is_nzd(D, self.g):
            raise EngineError("idempotent denominator is a zero divisor")
        for p in self.parts:
            # e^2 - e = p*(p - g)/g^2; the numerator must be divisible by h
            if exact_div(p * (p - self.g), D.h) is None:
                raise EngineError("idempotent relation e^2 = e failed")

    def module(self):
        """The fractional ideal generated by the idempotents: the direct sum
        of the component rings."""
        return FractionalIdeal(self.germ, list(self.parts), self.g)


def direct_sum_check(D, idem):
    """Whether R_D equals the direct sum of the component rings O_{D_i},
    realized by the idempotent fractions of a validated factorization."""
    return idem.module().equals(residue_module(D))
