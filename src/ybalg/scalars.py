"""Exact coefficient field: rational functions in one indeterminate q.

A Poly is a Laurent polynomial in q with integer coefficients, stored as a
Laurent shift `low` and a tuple `c` of coefficients, low degree first, so
that it is q^low (c[0] + c[1] q + c[2] q^2 + ...).  The first and last
entries of c are nonzero, and zero is low 0 with c empty, so equality and
hashing compare the pair (low, c).  A Scalar is a quotient num/den of Polys
in canonical form:

  * den is an ordinary polynomial with nonzero constant term (low 0),
  * num and den are coprime as polynomials (after clearing the Laurent shift
    of num),
  * the integer gcd of all coefficients across num and den is 1,
  * den's leading coefficient is positive,
  * zero is always 0/1.

Equality of Scalars is structural, which makes every identity check in the
rest of the library an exact test.

The gcd, exact division and product kernels below run on coefficient
sequences low degree first, so they read and build c directly.  The one
trade-off of the dense form is a sparse wide polynomial, which stores every
zero between its terms: 1 + q^k holds k + 1 entries, however large k is.
The product kernel therefore skips the zero coefficients of its outer
operand, so that such a factor costs one pass over the other operand per
term.

Every stock braiding has Laurent-polynomial entries, so almost all scalars
have den = 1.  A Laurent polynomial over 1 is already canonical (nothing can
cancel, the content across num and den is 1), and sums, differences and
products of such scalars stay Laurent, so `+`, `-` and `*` on two den = 1
operands skip normalisation; negation never renormalises.

No product runs the general normaliser.  A product by 1 is the other operand
itself, whatever its denominator.  The end coefficients of a product of two
Polys are products of nonzero end coefficients, so a Poly product is built
as it stands, with no zeros to strip; a monomial factor only scales the
other's coefficients and adds the shifts.  Any other product with a
non-Laurent operand follows Henrici (Knuth TAOCP vol. 2 4.5.1): of
n1/d1 * n2/d2, both canonical, only g1 = gcd(n1, d2) and g2 = gcd(n2, d1)
can cancel, so (n1/g1)(n2/g2) over (d1/g2)(d2/g1) is coprime, and dividing
out the integer content across the two leaves it canonical.  Each gcd is
primitive with a positive leading coefficient, so the denominator keeps a
positive leading coefficient, and q divides no denominator, so the Laurent
shifts of the numerators add.

Every other result (a sum with a non-Laurent operand, an inverse, a
constructed scalar, a parsed one whose denominator is not exactly 1) is
normalised by a primitive polynomial remainder sequence over the integers
(pseudo-remainders divided by their content, Knuth TAOCP vol. 2 4.6.1;
Collins 1967), stopping as soon as a remainder is a nonzero constant,
followed by exact integer division by the gcd.
"""

from __future__ import annotations

from math import gcd


class ZeroDenominator(ZeroDivisionError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class ScalarParseError(ValueError):
    pass


class Poly:
    """Laurent polynomial in q over the integers, q^low (c[0] + c[1] q +
    ...) (module docstring).  Poly(mapping) builds it from a mapping
    exponent -> coefficient, whose zero coefficients are dropped."""

    __slots__ = ("low", "c")

    def __init__(self, coeffs=None):
        self.low, self.c = 0, ()
        terms = {e: v for e, v in coeffs.items() if v} if coeffs else None
        if terms:
            self.low = low = min(terms)
            c = [0] * (max(terms) - low + 1)
            for e, v in terms.items():
                c[e - low] = v
            self.c = tuple(c)

    @staticmethod
    def zero():
        return Poly()

    @staticmethod
    def one():
        return _poly(0, _UNIT)

    @staticmethod
    def const(n):
        return Poly.q(0, n)

    @staticmethod
    def q(exp=1, coeff=1):
        return _poly(exp, (coeff,)) if coeff else Poly()

    @property
    def coeffs(self):
        """The mapping exponent -> coefficient of the nonzero terms, built
        afresh on each read."""
        return {e: v for e, v in enumerate(self.c, self.low) if v}

    def is_zero(self):
        return not self.c

    def min_exp(self):
        if not self.c:
            raise ValueError("the zero polynomial has no terms")
        return self.low

    def max_exp(self):
        return self.min_exp() + len(self.c) - 1

    def leading_coeff(self):
        return self.c[self.max_exp() - self.low]

    def __add__(self, other):
        a, b = self.c, other.c
        if not b:
            return self
        if not a:
            return other
        la, lb = self.low, other.low
        if la > lb:
            la, a, lb, b = lb, b, la, a
        out = list(a)
        off = lb - la
        if off + len(b) > len(out):
            out += [0] * (off + len(b) - len(out))
        for i, v in enumerate(b, off):
            out[i] += v
        return _strip(la, out)

    def __neg__(self):
        return _poly(self.low, tuple([-x for x in self.c]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.c, other.c
        if not a or not b:
            return Poly()
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            s = a[0]
            out = b if s == 1 else tuple([s * x for x in b])
        else:
            out = tuple(_dense_mul(a, b))
        return _poly(self.low + other.low, out)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.low == other.low
                and self.c == other.c)

    def __hash__(self):
        return hash((self.low, self.c))

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for e, c in reversed(list(enumerate(self.c, self.low))):
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            a = abs(c)
            if e == 0:
                body = str(a)
            else:
                qpart = "q" if e == 1 else "q^%d" % e
                body = qpart if a == 1 else "%d%s" % (a, qpart)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out

    __repr__ = __str__


_UNIT = (1,)


def _poly(low, c):
    """The Poly q^low (c[0] + c[1] q + ...), c a tuple whose first and last
    entries are nonzero."""
    p = object.__new__(Poly)
    p.low, p.c = low, c
    return p


def _strip(low, c):
    """The Poly q^low (c[0] + c[1] q + ...) of a coefficient list, the zeros
    at both of its ends stripped."""
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    if not hi:
        return Poly()
    lo = 0
    while not c[lo]:
        lo += 1
    return _poly(low + lo, tuple(c[lo:hi]))


def _primitive_part(a):
    g = gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _pseudo_remainder(a, b):
    """a reduced modulo b over Z: each step subtracts a multiple of b from a
    (multiplied by b's leading coefficient only when that does not divide
    a's), so the result is an integer multiple of the true remainder."""
    a = list(a)
    lb, nb = b[-1], len(b) - 1
    while len(a) > nb:
        c = a.pop()
        f, r = divmod(c, lb)
        if r:
            a = [x * lb for x in a]
            f = c
        shift = len(a) - nb
        for i in range(nb):
            a[shift + i] -= f * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a


def _dense_gcd(a, b):
    """Primitive gcd, leading coefficient positive, of two nonzero ordinary
    integer polynomials, by the primitive polynomial remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    b = _primitive_part(b)
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b if b[-1] > 0 else [-c for c in b]
        a, b = b, _primitive_part(r)
    return [1]


def _dense_divexact(a, b):
    """Exact division of ordinary integer polys (a = b * result over Z)."""
    a = list(a)
    lb, nb = b[-1], len(b) - 1
    out = [0] * (len(a) - nb)
    for k in range(len(out) - 1, -1, -1):
        f = out[k] = a[k + nb] // lb
        if f:
            for i in range(nb):
                a[k + i] -= f * b[i]
    return out


def _dense_mul(a, b):
    """Product of two ordinary integer polys (may return an operand).  The
    outer loop skips the zero coefficients of the shorter operand, so a
    sparse wide factor costs one pass over the other per term, not per
    degree."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else [x * c for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, y in enumerate(b):
        if y:
            for j, x in enumerate(a, i):
                out[j] += x * y
    return out


def _cancel(n, d):
    """n and d with their primitive gcd divided out.  A constant on either
    side shares only an integer with the other, which _content_free takes."""
    if len(n) > 1 and len(d) > 1:
        g = _dense_gcd(n, d)
        if len(g) > 1:
            return _dense_divexact(n, g), _dense_divexact(d, g)
    return n, d


def _content_free(n, d, shift):
    """num, den Polys of q^shift n/d (ordinary n, d, each with nonzero end
    coefficients) with the integer content across n and d divided out and
    den's leading coefficient made positive."""
    cg = gcd(*n, *d)
    if d[-1] < 0:
        cg = -cg
    if cg != 1:
        n = [c // cg for c in n]
        d = [c // cg for c in d]
    return _poly(shift, tuple(n)), _poly(0, tuple(d))


class Scalar:
    """Canonical rational function num/den in q."""

    __slots__ = ("num", "den")

    def __init__(self, num, den, _normalized=False):
        if _normalized:
            self.num, self.den = num, den
            return
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if num.is_zero():
            self.num, self.den = Poly.zero(), Poly.one()
            return
        # clear Laurent shifts: den becomes ordinary with nonzero constant
        self.num, self.den = _content_free(*_cancel(num.c, den.c),
                                           num.low - den.low)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    # a Laurent polynomial over 1 is canonical (module docstring)

    @staticmethod
    def from_int(n):
        return Scalar(Poly.const(n), Poly.one(), True)

    @staticmethod
    def q_power(exp, coeff=1):
        return Scalar(Poly.q(exp, coeff), Poly.one(), True)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.num.c

    # -- arithmetic --------------------------------------------------------

    # With both denominators 1 a sum, difference or product is canonical as
    # it stands, and every product is built canonical (module docstring).
    # Such results still go through __init__, so construction keeps one
    # entry point; the flag is passed positionally, where a call tracer's
    # argument tuple shows it.  A product by 1 is the other operand itself:
    # every Scalar is canonical and immutable.  A denominator has low 0, so
    # den = 1 is den.c == (1,).

    def __add__(self, other):
        sd, od = self.den, other.den
        if sd.c == _UNIT and od.c == _UNIT:
            return Scalar(self.num + other.num, sd, True)
        return Scalar(self.num * od + other.num * sd, sd * od)

    def __sub__(self, other):
        sd, od = self.den, other.den
        if sd.c == _UNIT and od.c == _UNIT:
            return Scalar(self.num - other.num, sd, True)
        return Scalar(self.num * od - other.num * sd, sd * od)

    def __neg__(self):
        return Scalar(-self.num, self.den, True)

    def __mul__(self, other):
        # nested so that two Laurent operands other than 1 still cost four
        # comparisons; past them, a Henrici product (module docstring)
        sn, on = self.num, other.num
        if self.den.c == _UNIT:
            if sn.c == _UNIT and sn.low == 0:
                return other
            if other.den.c == _UNIT:
                if on.c == _UNIT and on.low == 0:
                    return self
                return Scalar(sn * on, self.den, True)
        elif other.den.c == _UNIT and on.c == _UNIT and on.low == 0:
            return self
        if not sn.c or not on.c:
            return _ZERO
        n1, d2 = _cancel(sn.c, other.den.c)
        n2, d1 = _cancel(on.c, self.den.c)
        num, den = _content_free(_dense_mul(n1, n2), _dense_mul(d1, d2),
                                 sn.low + on.low)
        return Scalar(num, den, True)

    def invert(self):
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        return Scalar(self.den, self.num)

    def __truediv__(self, other):
        return self * other.invert()

    def __eq__(self, other):
        return (isinstance(other, Scalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.c == _UNIT:
            return str(self.num)
        n = str(self.num)
        # two entries of c or more are two terms or more, as its ends are
        # nonzero
        if len(self.num.c) > 1:
            n = "(%s)" % n
        d = str(self.den)
        if len(self.den.c) > 1:
            d = "(%s)" % d
        return "%s/%s" % (n, d)

    __repr__ = __str__


_ZERO = Scalar(Poly.zero(), Poly.one())
_ONE = Scalar(Poly.one(), Poly.one())


# -- parsing ---------------------------------------------------------------

def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch == "q":
            tokens.append("q")
            i += 1
        else:
            raise ScalarParseError("unexpected character %r" % ch)
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse_rational(self):
        num = self.parse_expr()
        if self.peek() == "/":
            self.next()
            den = self.parse_expr()
        else:
            den = Poly.one()
        if self.peek() is not None:
            raise ScalarParseError("trailing input at token %d" % self.pos)
        return num, den

    def parse_expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next() == "-" else 1
        acc = self.parse_term()
        if sign < 0:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
            _check_degrees(acc)
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.next()
            elif nxt != "q" and nxt != "(":
                return acc
            # a product, or juxtaposition such as "2q" or "3(q+1)", is
            # refused before it is built
            f = self.parse_factor()
            _check_degrees(acc, f)
            acc = acc * f

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            e = self.next()
            if not isinstance(e, int):
                raise ScalarParseError("exponent must be an integer")
            base = _poly_pow(base, sign * e)
            _check_degrees(base)
        return base

    def parse_atom(self):
        t = self.next()
        if isinstance(t, int):
            return Poly.const(t)
        if t == "q":
            return Poly.q()
        if t == "(":
            inner = self.parse_expr()
            if self.next() != ")":
                raise ScalarParseError("unbalanced parenthesis")
            return inner
        raise ScalarParseError("unexpected token %r" % (t,))


# A polynomial the parser builds may span at most this many degrees, and
# its exponents lie within plus or minus this: a parsed scalar is
# normalised through dense coefficient lists as long as the spans of its
# numerator and denominator, and a monomial q^k, one entry alone, stores
# every degree between k and 0 once a later sum adds a constant to it.
# Every power, sum and product is checked.
_SPAN_BUDGET = 512


def _check_degrees(*factors):
    """Refuse a power or sum, or a product of the factors, whose degree
    span (the sum of the factors' spans) passes _SPAN_BUDGET, or whose
    lowest or highest exponent (the sum of the factors') is past
    +-_SPAN_BUDGET."""
    factors = [p for p in factors if p.c]
    span = sum(len(p.c) - 1 for p in factors)
    if span > _SPAN_BUDGET:
        raise ScalarParseError(
            "a polynomial spanning %d degrees is past the limit: a scalar "
            "literal's polynomials may span at most %d" % (span,
                                                           _SPAN_BUDGET))
    low = sum(p.low for p in factors)
    for e in (low, low + span):
        if abs(e) > _SPAN_BUDGET:
            raise ScalarParseError(
                "the exponent %d is past the limit: a scalar literal's "
                "exponents lie within -%d..%d" % (e, _SPAN_BUDGET,
                                                  _SPAN_BUDGET))


# A power is expanded only while its exponent times the base's size is at
# most this, the size being the larger of the base's degree span and the
# base-2 logarithm, rounded down, of the sum of its absolute coefficients:
# the expansion then spans at most that many degrees, with coefficients of
# about that many bits at most.  Only +-q^k has size 0, so its powers have
# no limit.
_POWER_BUDGET = 256


def _poly_pow(p, e):
    if len(p.c) == 1:
        exp, c = p.low, p.c[0]
        if e < 0 and abs(c) != 1:
            raise ScalarParseError("negative power of a non-unit monomial")
    # negative powers only for monomials
    elif e < 0:
        raise ScalarParseError("negative power of a non-monomial")
    if e > 1 and p.c:
        size = max(len(p.c) - 1, sum(map(abs, p.c)).bit_length() - 1)
        if e * size > _POWER_BUDGET:
            raise ScalarParseError(
                "the power ^%d of a base other than +-q^k is past the "
                "limit: the exponent times the base's size must be at most "
                "%d" % (e, _POWER_BUDGET))
    if len(p.c) == 1:
        return Poly.q(exp * e, c ** abs(e))
    out = Poly.one()
    while e:
        if e & 1:
            out = out * p
        e >>= 1
        if e:
            p = p * p
    return out


def parse_scalar(text):
    """Parse the coefficient string grammar into a canonical Scalar."""
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar string")
    try:
        num, den = _Parser(tokens).parse_rational()
    except RecursionError:
        raise ScalarParseError(
            "%r... is nested too deeply" % text[:20]) from None
    if den.is_zero():
        raise ScalarParseError("division by zero in %r" % (text,))
    return Scalar(num, den, den.c == _UNIT and den.low == 0)
