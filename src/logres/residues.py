"""Saito's residue map for logarithmic 1-forms and the residue module.

For omega = (sum a_i dx_i)/h the residue is the meromorphic function xi/g
on D obtained from any certificate

    (u*g) * a = (u*xi) * (dh/dx_1, ..., dh/dx_n) + h * b    (exact identity)

with u a unit and g a nonzerodivisor mod h; well-definedness means any two certificates
agree mod h.  Certificates come from contraction with a constant vector
field c = sum c_k d/dx_k whose c(h) is a nonzerodivisor mod h: the residue
is <c, h*omega>/c(h) (Saito 1980), and c is drawn from the one schedule of
fractional.nzd_combinations.  The residue module R_D is computed as
the fractional-ideal dual of the Jacobian ideal; for free divisors it is
certified against the residues of a dual basis of logarithmic forms.
"""

from __future__ import annotations

from .errors import InputError, EngineError
from .poly import Poly, poly_str, exact_div
from .groebner import (Vec, ModOrder, division_certificate,
                       min_generators_local, reduce_poly)
from .germs import (is_free, log_forms_basis, LogOneForm, form_is_logarithmic,
                    once_per_germ)
from .fractional import (FractionalIdeal, jacobian_module, is_nzd, require_nzd,
                         nzd_combinations)


class MeroFraction:
    """xi/g in the total quotient ring of O_D; g certified nonzerodivisor."""

    __slots__ = ("germ", "num", "den")

    def __init__(self, germ, num, den):
        self.germ = germ
        self.num = num
        self.den = den
        require_nzd(germ, den)

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
    """(g, xi, b, u), u a unit, with (u*g)*a = (u*xi)*grad(h) + h*b exactly."""

    __slots__ = ("g", "xi", "b", "u")

    def __init__(self, g, xi, b, u):
        self.g = g
        self.xi = xi
        self.b = tuple(b)
        self.u = u

    def verify(self, a, D):
        ug, uxi = self.u * self.g, self.u * self.xi
        return self.u.constant_term() != 0 and all(
            ug * ai == uxi * hi + D.h * bi
            for ai, hi, bi in zip(a, D.partials, self.b))


def residue_certificates(omega, D, count=1):
    """Up to `count` residue certificates of a logarithmic form, by
    contraction with constant vector fields c (Saito): g = c(h) is a
    certified nonzerodivisor from the schedule of nzd_combinations and
    xi = <c, a>.  Then g*a - xi*grad h = sum_k c_k (h_k*a - a_k*grad h) lies
    in h*O^n locally by the pairwise criterion, and one division by
    h*e_1, ..., h*e_n gives b and a unit u with
    (u*g)*a = (u*xi)*grad h + h*b."""
    a = omega.a if isinstance(omega, LogOneForm) else tuple(omega)
    if not form_is_logarithmic(a, D):
        raise InputError("the form is not logarithmic")
    zero = Poly.zero(D.n)
    rows = [Vec([D.h if k == i else zero for k in range(D.n)])
            for i in range(D.n)]
    found = []
    for coeffs, g in nzd_combinations(D, D.partials):
        xi = zero
        for c, ak in zip(coeffs, a):
            if c:
                xi = xi + ak.scale(c)
        v = Vec([g * ai - xi * hi for ai, hi in zip(a, D.partials)])
        b, u, rem = division_certificate(v, rows, ModOrder(D.local_order))
        cert = ResidueCertificate(g, xi, b, u)
        if not rem.is_zero or not cert.verify(a, D):
            raise EngineError("residue certificate failed to re-multiply")
        found.append(cert)
        if len(found) >= count:
            break
    if not found:
        raise EngineError("no constant field c with c(h) a nonzerodivisor "
                          "mod h, though h is reduced")
    return found


def residue(omega, D):
    """The residue xi/g of a logarithmic 1-form, as a MeroFraction.  Every
    form of D is contracted with the same c, so its denominator is c(h)."""
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
    R = jacobian_module(D).dual()
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


@once_per_germ
def mu_residues(D):
    """Minimal local generator count of R_D as an O_D-module and whether 1
    can be part of a minimal generating set (1 not in m*R_D)."""
    R = residue_module(D)
    mu, _ = min_generators_local([Vec([p]) for p in R.num], extra=[Vec([D.h])])
    if not R.includes(FractionalIdeal.ring(D)):
        raise EngineError("R_D does not contain 1")
    # 1 in m*R_D  iff  den in m*num + <h> locally
    m_num = [Poly.variable(D.n, i) * p for i in range(D.n) for p in R.num]
    contains_unit = not D.member_mod_h(R.den, m_num)
    return mu, contains_unit


def gorenstein_singular_locus(D):
    """empty / gorenstein / not_gorenstein / undecided.  The rule needs
    freeness: the singular locus of a free divisor is Gorenstein iff R_D is
    generated by 1 and one more element."""
    if D.is_smooth:
        return "empty"
    if not is_free(D)[0]:
        return "undecided"
    mu, contains_unit = mu_residues(D)
    return "gorenstein" if (mu == 2 and contains_unit) else "not_gorenstein"


def validate_factorization(D, factors):
    """Check: no factor zero, factors pairwise distinct, product equal to h
    up to a nonzero constant; returns that constant.  The product check is
    enough at the origin: h is reduced there (DivisorGerm certifies it), so
    a squared factor or a factor shared by two of the given ones would make
    h vanish twice on a component through the origin.  A repeated factor
    that misses the origin is a unit of the local ring and is allowed.
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
    the origin and is smooth there.  module is the fractional ideal the
    idempotents generate: the direct sum of the component rings."""

    __slots__ = ("germ", "factors", "smooth", "parts", "g", "module")

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
        self.module = FractionalIdeal(D, self.parts, self.g)


def direct_sum_check(D, idem):
    """Whether R_D equals the direct sum of the component rings O_{D_i},
    realized by the idempotent fractions of a validated factorization."""
    return idem.module.equals(residue_module(D))
