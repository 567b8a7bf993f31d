"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables is an immutable map from exponent vectors
(length-n tuples of nonnegative ints) to nonzero Fraction coefficients.
The zero polynomial is the empty map.  All arithmetic is exact; there is
no floating point anywhere in this package.

The module also provides monomial orders (global and local), the textual
grammar used by every higher layer and the CLI,

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := rational | var | '(' expr ')'

and a primitive-PRS multivariate gcd, a reference the analysis itself
never calls.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from operator import neg

from .errors import ParseError

Exp = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def exp_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_div(a, b):
    """a / b as exponent vectors, or None if not divisible."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def exp_deg(a):
    return sum(a)


class Poly:
    """Immutable sparse polynomial.  `terms` maps exponent tuple -> Fraction."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[tuple(e)] = c
        self.terms = clean
        self._hash = None

    @staticmethod
    def _raw(n, terms):
        """Trusted constructor: terms already normalized, ownership passes."""
        p = Poly.__new__(Poly)
        p.n = n
        p.terms = terms
        p._hash = None
        return p

    @staticmethod
    def zero(n):
        return Poly._raw(n, {})

    @staticmethod
    def const(n, c):
        c = Fraction(c)
        return Poly._raw(n, {} if c == 0 else {(0,) * n: c})

    @staticmethod
    def variable(n, i):
        e = [0] * n
        e[i] = 1
        return Poly._raw(n, {tuple(e): ONE})

    @staticmethod
    def monomial(n, e, c=ONE):
        c = Fraction(c)
        return Poly._raw(n, {} if c == 0 else {tuple(e): c})

    @property
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(exp_deg(e) == 0 for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.n, ZERO)

    def total_degree(self):
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(exp_deg(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def vars_used(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other):
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, ZERO) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return Poly._raw(self.n, res)

    def __sub__(self, other):
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, ZERO) - c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return Poly._raw(self.n, res)

    def __neg__(self):
        return Poly._raw(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        res = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exp_mul(e1, e2)
                s = res.get(e, ZERO) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        return Poly._raw(self.n, res)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.n)
        return Poly._raw(self.n, {e: c * v for e, v in self.terms.items()})

    def mul_term(self, c, e):
        """Multiply by the single term c * x^e."""
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.n)
        return Poly._raw(self.n, {exp_mul(t, e): c * v for t, v in self.terms.items()})

    def submul_term(self, c, e, other):
        """self - c * x^e * other, the inner step of every division loop."""
        res = dict(self.terms)
        for t, v in other.terms.items():
            te = exp_mul(t, e)
            s = res.get(te, ZERO) - c * v
            if s:
                res[te] = s
            else:
                res.pop(te, None)
        return Poly._raw(self.n, res)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def diff(self, i):
        """Formal partial derivative with respect to variable i (0-based)."""
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for n={self.n}")
        res = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                res[tuple(d)] = c * e[i]
        return Poly._raw(self.n, res)

    def subs(self, mapping):
        """Substitute variables by polynomials; mapping is {index: Poly}.
        Unmapped variables stay themselves."""
        n = self.n
        cache = {}

        def var_power(i, k):
            if (i, k) not in cache:
                base = mapping.get(i)
                if base is None:
                    cache[(i, k)] = Poly.monomial(n, tuple(k if j == i else 0 for j in range(n)))
                else:
                    cache[(i, k)] = base ** k
            return cache[(i, k)]

        out = Poly.zero(n)
        for e, c in self.terms.items():
            term = Poly.const(n, c)
            for i, k in enumerate(e):
                if k:
                    term = term * var_power(i, k)
            out = out + term
        return out


class Order:
    """Monomial order on exponent vectors, given by the sort key `heap_key`:
    the least key wins, so the leading monomial has the least key.  Kinds:

      degrevlex -- global, degree then reverse lexicographic
      lex       -- global lexicographic
      ds        -- local degrevlex (anti-degree-compatible: 1 is largest)
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind, n):
        if kind not in ("degrevlex", "lex", "ds"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.n = n

    @property
    def is_global(self):
        return self.kind != "ds"

    def heap_key(self, e):
        """A flat tuple of ints that sorts ascending from the largest monomial
        to the smallest.  Division pushes one per new term of its dividend;
        building it costs little next to the term's Fraction arithmetic, and
        a memo would hold every exponent the process has reduced."""
        k = self.kind
        if k == "degrevlex":
            return (-sum(e),) + e[::-1]
        if k == "ds":
            return (sum(e),) + e[::-1]
        return tuple(map(neg, e))

    def leading_exp(self, p):
        if p.is_zero:
            return None
        return min(p.terms, key=self.heap_key)

    def sorted_terms(self, p):
        """Terms of p as (exp, coeff) pairs, largest monomial first."""
        return sorted(p.terms.items(), key=lambda t: self.heap_key(t[0]))

    def __eq__(self, other):
        return (isinstance(other, Order) and self.kind == other.kind
                and self.n == other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"Order({self.kind!r}, {self.n})"


# ---------------------------------------------------------------------------
# parsing / printing


def _scan_uint(text, i):
    j = i
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == i:
        raise ParseError("expected an integer", i)
    return int(text[i:j]), j


class _Parser:
    def __init__(self, text, names):
        self.text = text
        self.names = {name: i for i, name in enumerate(names)}
        self.n = len(names)
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self):
        p = self.expr()
        self.skip_ws()
        if self.i < len(self.text):
            raise ParseError(f"unexpected {self.text[self.i]!r}", self.i)
        return p

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            if self.text[self.i] == "-":
                sign = -1
            self.i += 1
        p = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.text[self.i]
            self.i += 1
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while self.peek() == "*":
            self.i += 1
            p = p * self.factor()
        return p

    def factor(self):
        p = self.base()
        if self.peek() == "^":
            self.i += 1
            self.skip_ws()
            k, self.i = _scan_uint(self.text, self.i)
            p = p ** k
        return p

    def base(self):
        ch = self.peek()
        if ch == "":
            raise ParseError("unexpected end of input", self.i)
        if ch == "(":
            self.i += 1
            p = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.i)
            self.i += 1
            return p
        if ch.isdigit():
            num, self.i = _scan_uint(self.text, self.i)
            if self.peek() == "/":
                self.i += 1
                self.skip_ws()
                den, self.i = _scan_uint(self.text, self.i)
                if den == 0:
                    raise ParseError("zero denominator", self.i)
                return Poly.const(self.n, Fraction(num, den))
            return Poly.const(self.n, num)
        if ch.isalpha() or ch == "_":
            j = self.i
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            name = self.text[self.i:j]
            if name not in self.names:
                raise ParseError(f"unknown variable {name!r}", self.i)
            self.i = j
            return Poly.variable(self.n, self.names[name])
        raise ParseError(f"unexpected {ch!r}", self.i)


def parse(text, names):
    """Parse `text` over the given variable names into expanded normal form."""
    return _Parser(text, list(names)).parse()


def poly_str(p, names):
    """Deterministic textual form, largest degrevlex term first, parseable
    by `parse`."""
    if p.is_zero:
        return "0"
    parts = []
    for e, c in Order("degrevlex", p.n).sorted_terms(p):
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        mono = "*".join(factors)
        coeff = abs(c)
        if mono and coeff == 1:
            body = mono
        elif mono:
            body = f"{coeff}*{mono}"
        else:
            body = str(coeff)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# exact division and gcd


def exact_div(p, q):
    """p / q if q divides p exactly, else None."""
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return Poly.zero(p.n)
    order = Order("degrevlex", p.n)
    lq = order.leading_exp(q)
    cq = q.terms[lq]
    quot = {}
    r = p
    while r.terms:
        lr = order.leading_exp(r)
        e = exp_div(lr, lq)
        if e is None:
            return None
        c = r.terms[lr] / cq
        quot[e] = c
        r = r.submul_term(c, e, q)
    return Poly._raw(p.n, quot)


def _content_int(p):
    """Rational content: gcd of numerators over lcm of denominators."""
    num = 0
    den = 1
    for c in p.terms.values():
        num = int_gcd(num, abs(c.numerator))
        den = den * c.denominator // int_gcd(den, c.denominator)
    return Fraction(num, den)


def _normalize_primitive(p):
    """Scale to integer primitive form with positive leading (lex) coefficient."""
    if p.is_zero:
        return p
    c = _content_int(p)
    p = p.scale(1 / c)
    lead = min(p.terms, key=Order("lex", p.n).heap_key)
    if p.terms[lead] < 0:
        p = -p
    return p


def _coeffs_in(p, i):
    """View p as univariate in variable i: {deg: coefficient Poly}."""
    out = {}
    for e, c in p.terms.items():
        k = e[i]
        rest = list(e)
        rest[i] = 0
        key = tuple(rest)
        d = out.setdefault(k, {})
        d[key] = d.get(key, ZERO) + c
    return {k: Poly(p.n, d) for k, d in out.items() if any(v for v in d.values())}


def _pseudo_rem(p, q, i):
    """Pseudo-remainder of p by q with respect to variable i."""
    dq = q.degree_in(i)
    cq = _coeffs_in(q, i)[dq]
    r = p
    while not r.is_zero and r.degree_in(i) >= dq:
        dr = r.degree_in(i)
        cr = _coeffs_in(r, i)[dr]
        e = [0] * p.n
        e[i] = dr - dq
        r = (r * cq) - q.mul_term(ONE, tuple(e)) * cr
    return r


def poly_gcd(p, q):
    """Multivariate gcd over Q by primitive pseudo-remainder sequences.
    The result is integer-primitive with positive leading coefficient;
    gcds of constants are 1."""
    if p.is_zero:
        return _normalize_primitive(q)
    if q.is_zero:
        return _normalize_primitive(p)
    used = p.vars_used() | q.vars_used()
    if not used:
        return Poly.const(p.n, 1)
    i = max(used)
    if i not in p.vars_used() or i not in q.vars_used():
        # one side is constant in x_i: gcd divides its coefficients
        flat, other = (p, q) if i not in p.vars_used() else (q, p)
        g = flat
        for cp in _coeffs_in(other, i).values():
            g = poly_gcd(g, cp)
            if g.is_constant():
                return Poly.const(p.n, 1)
        return _normalize_primitive(g)

    def content_and_primitive(f):
        coeffs = list(_coeffs_in(f, i).values())
        cont = coeffs[0]
        for cp in coeffs[1:]:
            cont = poly_gcd(cont, cp)
            if cont.is_constant():
                cont = Poly.const(p.n, 1)
                break
        prim = exact_div(f, cont)
        assert prim is not None
        return cont, prim

    cp, pp = content_and_primitive(p)
    cq, qq = content_and_primitive(q)
    cont = poly_gcd(cp, cq)
    a, b = pp, qq
    if a.degree_in(i) < b.degree_in(i):
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b, i)
        if not r.is_zero:
            _, r = content_and_primitive(r)
        a, b = b, r
    _, a = content_and_primitive(a)
    return _normalize_primitive(cont * a)
