"""Reduced hypersurface germs and their logarithmic vector fields.

A DivisorGerm is a polynomial h with h(0) = 0 that is reduced at the
origin, carried with its variable names, cached Jacobian data and the
facts of the germ alone, such as freeness and the Euler field (see
once_per_germ).  Logarithmic vector fields are the syzygies of
(dh/dx_1, ..., dh/dx_n, h) projected to the first n slots; freeness is
decided by the minimal local generator count together with a determinant
certificate det(M) = unit * h (Saito's criterion), each side certifying
the other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, wraps

from .errors import InputError, EngineError, ParseError
from .poly import Poly, Order, parse, poly_str, exact_div
from .groebner import (Vec, ModOrder, std_ideal, ideal_contains, syzygies,
                       division_certificate, min_generators_local, local_dim)


class DivisorGerm:
    """A reduced hypersurface germ {h = 0} at the origin of C^n.

    h is required to be reduced at the origin, not squarefree as a
    polynomial: a repeated factor that misses the origin is a unit of the
    local ring, so x*(y-1)^2 is the germ of x.  The test is the Jacobian
    criterion: h has a repeated factor through the origin iff h and its
    partials vanish on a whole component of {h = 0} there, iff
    <h, dh> has local dimension n-1 rather than at most n-2.  It reads the
    cached local standard basis that fractional.jacobian_module shares."""

    def __init__(self, names, h):
        self.names = tuple(names)
        self.n = len(self.names)
        for i, name in enumerate(self.names):
            try:
                ok = parse(name, self.names) == Poly.variable(self.n, i)
            except ParseError:
                ok = False
            if not ok:
                raise InputError(f"variable name {name!r} does not parse back "
                                 f"to itself: names must be distinct identifiers")
        if isinstance(h, str):
            h = parse(h, self.names)
        if h.n != self.n:
            raise InputError("variable count mismatch")
        if h.is_zero:
            raise InputError("h must be nonzero")
        if h.constant_term() != 0:
            raise InputError("h(0) must vanish: the divisor passes through the origin")
        self.h = h
        self.partials = tuple(h.diff(i) for i in range(self.n))
        if local_dim(self.jacobian_pullback, self.n) > self.n - 2:
            raise InputError("h is not squarefree at the origin: the divisor "
                             "must be reduced")
        self.local_order = Order("ds", self.n)
        self.global_order = Order("degrevlex", self.n)
        # the results of the once_per_germ functions, by function name
        self.facts = {}

    def __repr__(self):
        return f"DivisorGerm({poly_str(self.h, self.names)})"

    def poly(self, text):
        return parse(text, self.names)

    def str_of(self, p):
        return poly_str(p, self.names)

    @cached_property
    def is_smooth(self):
        return any(p.constant_term() != 0 for p in self.partials)

    # -- mod-h ideal arithmetic in the local ring -------------------------

    def mod_h_basis(self, gens):
        """Local standard basis of the ideal generated by gens and h."""
        return std_ideal(tuple(gens) + (self.h,), self.local_order)

    def member_mod_h(self, f, gens):
        """f in <gens, h> in the localization at the origin."""
        return ideal_contains(f, tuple(gens) + (self.h,), self.local_order)

    def in_h(self, f):
        """f in <h> locally."""
        return ideal_contains(f, (self.h,), self.local_order)

    # -- Jacobian data -----------------------------------------------------

    @cached_property
    def jacobian_pullback(self):
        """Generators of the preimage of J_D in the ambient ring: the partials
        of h, then h, the key order of mod_h_basis(partials), so J_D and this
        ideal share one cached local standard basis."""
        return self.partials + (self.h,)


def once_per_germ(fn):
    """Make fn(D), a fact of the germ alone, keep its result in D.facts, so
    each germ computes it once.  The work is read from __wrapped__ at call
    time, so a test can wrap it there."""
    name = fn.__name__

    @wraps(fn)
    def fact(D):
        if name not in D.facts:
            D.facts[name] = fact.__wrapped__(D)
        return D.facts[name]
    return fact


class VectorField:
    """delta = sum coeffs[i] * d/dx_i with polynomial coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    def apply(self, f):
        n = f.n
        out = Poly.zero(n)
        for i, c in enumerate(self.coeffs):
            out = out + c * f.diff(i)
        return out

    def is_logarithmic(self, D):
        """dh(delta) in <h> locally: the defining membership of Der(-log D)."""
        return D.in_h(self.apply(D.h))

    def str_of(self, D):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                parts.append(f"({poly_str(c, D.names)})*d/d{D.names[i]}")
        return " + ".join(parts) if parts else "0"


# (h, names) -> the syzygies of (dh/dx_1, ..., dh/dx_n, h), kept across calls
_PARTIALS_CACHE = {}


def _log_syzygies(D):
    key = (D.h, D.names)
    if key not in _PARTIALS_CACHE:
        _PARTIALS_CACHE[key] = syzygies(list(D.partials) + [D.h])
    return _PARTIALS_CACHE[key]


def log_derivations(D):
    """Generators of Der(-log D): syzygies of (dh/dx_1, ..., dh/dx_n, h)
    projected to the first n slots; none is zero, since b*h = 0 forces b = 0.
    Every output is certified logarithmic."""
    fields = []
    for s in _log_syzygies(D):
        fld = VectorField(s.polys[: D.n])
        if not fld.is_logarithmic(D):
            raise EngineError("syzygy output violated the logarithmic condition")
        fields.append(fld)
    return fields


class SaitoMatrix:
    """n x n matrix whose rows are a candidate basis of Der(-log D), together
    with the freeness certificate unit * det = quot * h, where unit(0) != 0
    and quot(0) != 0."""

    def __init__(self, D, fields):
        self.germ = D
        self.fields = tuple(fields)
        if len(fields) != D.n:
            raise InputError("a Saito matrix needs exactly n rows")
        self.rows = tuple(f.coeffs for f in fields)
        self.det = _det([[p for p in row] for row in self.rows])
        self._certify()

    def _certify(self):
        """Set unit and quot, and unit_value = (det/h)(0) = quot(0)/unit(0)
        as a Fraction: unit = 1 and quot = det/h when h divides det, else
        Mora's division certificate of det by h."""
        D = self.germ
        for f in self.fields:
            if not f.is_logarithmic(D):
                raise InputError("row is not a logarithmic vector field")
        q = exact_div(self.det, D.h)
        if q is not None:
            self.unit, self.quot = Poly.const(D.n, 1), q
        else:
            quots, self.unit, rem = division_certificate(
                self.det, [D.h], ModOrder(D.local_order))
            if not rem.is_zero:
                raise InputError("det(M) does not lie in <h> at the origin")
            self.quot = quots[0]
        self.unit_value = self.quot.constant_term() / self.unit.constant_term()
        if self.unit_value == 0:
            raise InputError("det(M)/h vanishes at the origin: no Saito certificate")


def _det(m):
    k = len(m)
    if k == 1:
        return m[0][0]
    out = None
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det(minor)
        if j % 2:
            term = -term
        out = term if out is None else out + term
    return out


def _adjugate(m):
    k = len(m)
    adj = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [row[:j] + row[j + 1:] for r, row in enumerate(m) if r != i]
            c = _det(minor) if k > 1 else Poly.const(m[0][0].n, 1)
            if (i + j) % 2:
                c = -c
            adj[j][i] = c  # transpose of the cofactor matrix
    return adj


@once_per_germ
def is_free(D):
    """Freeness verdict plus a certified Saito matrix when free.

    Free iff Der(-log D) needs exactly n local generators; the returned basis
    carries the determinant certificate unit * det(M) = quot * h."""
    fields = log_derivations(D)
    mu, selected = min_generators_local([Vec(f.coeffs) for f in fields])
    if mu != D.n:
        return False, None
    return True, SaitoMatrix(D, [fields[i] for i in selected])


class EulerField:
    """Witness for Euler homogeneity: chi = (1/unit) * sum coeffs[i] d/dx_i
    with chi(h) = h exactly, i.e. sum coeffs[i]*dh/dx_i = unit*h."""

    __slots__ = ("coeffs", "unit")

    def __init__(self, coeffs, unit):
        self.coeffs = tuple(coeffs)
        self.unit = unit

    def normalized(self):
        """Plain VectorField when the unit is a constant."""
        if not self.unit.is_constant():
            return None
        c = self.unit.constant_term()
        return VectorField([p.scale(Fraction(1) / c) for p in self.coeffs])

    def check(self, D):
        lhs = Poly.zero(D.n)
        for c, p in zip(self.coeffs, D.partials):
            lhs = lhs + c * p
        return lhs == self.unit * D.h


@once_per_germ
def euler_field(D):
    """The witness chi with chi(h) = h when h lies in the ideal of its
    partials locally; None otherwise.  It is a syzygy (a, b) of (dh, h) with
    b(0) != 0, preferably with b constant: the b's generate the ideal of the
    u with u*h in <dh>, which holds a unit iff one of its generators is."""
    found = [s.polys for s in _log_syzygies(D) if s.polys[-1].constant_term()]
    if not found:
        return None
    *coeffs, b = next((s for s in found if s[-1].is_constant()), found[0])
    ef = EulerField(coeffs, -b)
    if not ef.check(D):
        raise EngineError("Euler certificate failed to re-multiply")
    return ef


class LogOneForm:
    """omega = (sum a_i dx_i) / (extra * h) with polynomial a_i and a unit
    extra factor; a constant extra is divided into the a_i, so extra is 1
    unless a dual basis needed a non-constant Saito quotient."""

    __slots__ = ("a", "extra")

    def __init__(self, a, extra=None):
        n = a[0].n
        if extra is not None and extra.is_constant():
            c = Fraction(1) / extra.constant_term()
            a, extra = [p.scale(c) for p in a], None
        self.a = tuple(a)
        self.extra = extra if extra is not None else Poly.const(n, 1)

    def is_logarithmic(self, D):
        return form_is_logarithmic(self.a, D)


def form_is_logarithmic(a, D):
    """Pairwise criterion: dh_i * a_j - dh_j * a_i in <h> locally for i < j,
    equivalently dh wedge omega is holomorphic."""
    for i in range(D.n):
        for j in range(i + 1, D.n):
            lhs = D.partials[i] * a[j] - D.partials[j] * a[i]
            if not D.in_h(lhs):
                return False
    return True


def log_forms_basis(M):
    """Dual basis of logarithmic 1-forms of a Saito matrix, from the adjugate
    and the certificate unit * det = quot * h: form j has the coefficients
    unit * (row j of adj(M)^T) and the extra factor quot; the pairing with
    the fields is verified to be exactly Kronecker delta."""
    D = M.germ
    adj = _adjugate([[p for p in row] for row in M.rows])
    # column j of adj = row j of adj^T
    forms = [LogOneForm([M.unit * adj[i][j] for i in range(D.n)], extra=M.quot)
             for j in range(D.n)]
    # pairing <delta_i, omega_j> = delta_ij, i.e.
    # sum_k M[i][k]*a_j[k] == kronecker * extra_j * h exactly
    for i in range(D.n):
        for j, w in enumerate(forms):
            s = Poly.zero(D.n)
            for k in range(D.n):
                s = s + M.rows[i][k] * w.a[k]
            expected = w.extra * D.h if i == j else Poly.zero(D.n)
            if s != expected:
                raise EngineError("dual basis pairing is not Kronecker")
        if not forms[i].is_logarithmic(D):
            raise EngineError("dual basis form is not logarithmic")
    return forms
