"""Exact rational-function scalars: canonical forms, parsing, field axioms."""

import inspect
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import first_failure
from ybalg import scalars as scalars_module
from ybalg.scalars import (DivisionByZero, Poly, Scalar, ScalarParseError,
                           ZeroDenominator, parse_scalar)


def test_cancellation_to_polynomial():
    assert parse_scalar("(q^2-1)/(q-1)") == parse_scalar("q+1")
    # a denominator other than exactly 1 is normalised
    for text, want in (("6/3", "2"), ("(2q+4)/2", "q+2"), ("q/-1", "-q"),
                       ("q/(2q)", "1/2")):
        assert str(parse_scalar(text)) == want


def test_q_power_and_from_int_are_canonical():
    # both skip normalisation: a Laurent polynomial over 1 is canonical
    for c in range(-3, 4):
        assert Scalar.from_int(c) == Scalar(Poly.const(c), Poly.one())
        for e in range(-20, 21):
            assert Scalar.q_power(e, c) == Scalar(Poly.q(e, c), Poly.one())


def test_zero_canonical():
    for text in ("0", "0/1", "0/(q+1)"):
        assert canonical(parse_scalar(text)) == ({}, {0: 1})
    assert parse_scalar("q-q").is_zero()
    assert (parse_scalar("q") - parse_scalar("q")).is_zero()


def test_laurent_exponents():
    assert parse_scalar("q^-2") * parse_scalar("q^2") == Scalar.one()
    assert parse_scalar("q^-1") + parse_scalar("q^-1") == parse_scalar("2q^-1")


def test_juxtaposition_and_signs():
    assert parse_scalar("2q") == parse_scalar("q") + parse_scalar("q")
    assert parse_scalar("-q") == -parse_scalar("q")
    assert parse_scalar("1-q^-2") == Scalar.one() - Scalar.q_power(-2)


def test_rational_constants():
    half = parse_scalar("1/2")
    assert half + half == Scalar.one()


def test_inverse_swaps_num_den():
    x = parse_scalar("(q+1)/(q-1)")
    assert x.invert() == parse_scalar("(q-1)/(q+1)")
    assert x * x.invert() == Scalar.one()


def test_structural_equality_of_equal_fractions():
    a = parse_scalar("(q^2+2q+1)/(q+1)")
    b = parse_scalar("q+1")
    assert a == b
    assert hash(a) == hash(b)


def test_parse_errors():
    with pytest.raises(ScalarParseError):
        parse_scalar("q^")
    with pytest.raises((ScalarParseError, ZeroDenominator)):
        parse_scalar("1/0")


def test_divide_by_zero():
    with pytest.raises(DivisionByZero):
        Scalar.zero().invert()


# random Laurent polynomials with small support
def scalars():
    pair = st.tuples(st.integers(-3, 3), st.integers(-4, 4))
    return st.lists(pair, min_size=0, max_size=3).map(
        lambda ps: sum((Scalar.q_power(e, c) for e, c in ps),
                       Scalar.zero()))


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Scalar.zero() == a
    assert a * Scalar.one() == a
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_inverse_roundtrip(a):
    if a.is_zero():
        return
    assert a * a.invert() == Scalar.one()


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_str_roundtrip(a, b):
    if b.is_zero():
        return
    x = a * b.invert()
    assert parse_scalar(str(x)) == x


def test_power_literals():
    assert parse_scalar("q^200") == Scalar.q_power(200)
    assert parse_scalar("q^-200") == Scalar.q_power(-200)
    assert parse_scalar("(2q)^3") == Scalar.q_power(3, 8)
    assert parse_scalar("(-q)^-3") == Scalar.q_power(-3, -1)
    assert parse_scalar("(-q)^-2") == Scalar.q_power(-2)
    assert parse_scalar("(q+1)^0") == Scalar.one()
    cube = parse_scalar("q+1") * parse_scalar("q+1") * parse_scalar("q+1")
    assert parse_scalar("(q+1)^3") == cube
    assert parse_scalar("(q+1)^13") == parse_scalar("(q+1)^6") * \
        parse_scalar("(q+1)^7")
    with pytest.raises(ScalarParseError):
        parse_scalar("(2q)^-1")
    with pytest.raises(ScalarParseError):
        parse_scalar("(q+1)^-1")


# (q+1)(q^2+1)...(q^32768+1): sixteen factors, 2^16 terms when expanded
DOUBLING_CHAIN = "*".join("(q^%d+1)" % 2 ** k for k in range(16))


@pytest.mark.parametrize("text", [
    "(q+1)^1000", "9^999999999", "(2q)^300", "((q+1)^16)^17", "(q^300+1)^2",
    "q^100000+1", "q^-300+q^300", "(q^300+1)(q^300-1)", "(-q)^999999",
    "q^513", "q^-513", "q^-300*q^-300", "1/q^600", "(q^500+q^501)^2",
    pytest.param(DOUBLING_CHAIN, id="doubling-chain")])
def test_power_past_the_limit_is_refused(text):
    # the exponent times the base's size (degree span, or log2 of the sum
    # of its absolute coefficients) may not pass 256; +-q^k has no limit
    # of its own.  No power, sum or product the parser builds may span more
    # than 512 degrees or hold an exponent past +-512.
    with pytest.raises(ScalarParseError, match="past the limit"):
        parse_scalar(text)


def test_spans_within_the_limit_parse():
    assert parse_scalar("q^-256+q^256") == \
        parse_scalar("q^512+1") * Scalar.q_power(-256)
    chain = "*".join("(q^%d+1)" % 2 ** k for k in range(9))
    assert parse_scalar(chain) == parse_scalar(
        "+".join("q^%d" % k for k in range(512)))


def test_powers_within_the_limit_parse():
    assert parse_scalar("(-q)^511") == Scalar.q_power(511, -1)
    assert parse_scalar("q^512") == Scalar.q_power(512)
    assert parse_scalar("q^-512") == Scalar.q_power(-512)
    assert parse_scalar("q^300*q^-300") == Scalar.one()
    assert parse_scalar("((q+1)^16)^16") == parse_scalar("(q+1)^256")
    assert parse_scalar("(q^300+1)^1") == parse_scalar("q^300+1")
    assert parse_scalar("0^999999999") == Scalar.zero()
    assert parse_scalar("2^256") == Scalar.from_int(2 ** 256)


# -- the normaliser against an independent reference ----------------------
#
# The reference is the textbook algorithm over Q: Euclid's algorithm on
# Fraction coefficient lists, then clearing denominators and content.

def _ref_gcd(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b:
        a = a[:]
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    den = 1
    for c in a:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in a]
    g = gcd(*ints)
    return [c // g for c in ints]


def _ref_divexact(a, b):
    a = [Fraction(c) for c in a]
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        f = out[k] = a[k + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            a[k + i] -= f * bc
    assert not any(a)
    return [int(c) for c in out]


def _ref_normalize(num, den):
    """(num, den) coefficient dicts of the canonical form of num/den."""
    if not num.coeffs:
        return {}, {0: 1}
    mn, md = min(num.coeffs), min(den.coeffs)
    n0 = [num.coeffs.get(i, 0) for i in range(mn, max(num.coeffs) + 1)]
    d0 = [den.coeffs.get(i, 0) for i in range(md, max(den.coeffs) + 1)]
    g = _ref_gcd(n0, d0)
    n0, d0 = _ref_divexact(n0, g), _ref_divexact(d0, g)
    cg = gcd(*n0, *d0) * (1 if d0[-1] > 0 else -1)
    n0 = [c // cg for c in n0]
    d0 = [c // cg for c in d0]
    return ({i + mn - md: c for i, c in enumerate(n0) if c},
            {i: c for i, c in enumerate(d0) if c})


def laurent_dicts(min_size=0, max_size=4, bound=5):
    """Mappings exponent -> coefficient, zero coefficients among them."""
    return st.dictionaries(st.integers(-3, 3), st.integers(-bound, bound),
                           min_size=min_size, max_size=max_size)


def laurent_polys(min_size=0, max_size=4, bound=5):
    return laurent_dicts(min_size, max_size, bound).map(Poly)


def ordinary_polys():
    """Nonzero polynomials with a nonzero constant term."""
    return st.tuples(st.integers(-4, 4).filter(bool),
                     st.dictionaries(st.integers(1, 3),
                                     st.integers(-4, 4), max_size=3)
                     ).map(lambda t: Poly({0: t[0], **t[1]}))


@st.composite
def num_den_pairs(draw):
    """Raw num/den with a planted common factor and a Laurent shift."""
    common = draw(ordinary_polys()) * Poly.q(draw(st.integers(-2, 2)))
    num = draw(laurent_polys()) * common
    den = draw(ordinary_polys()) * common
    return num, den


def canonical(x):
    return x.num.coeffs, x.den.coeffs


@settings(max_examples=300, deadline=None)
@given(num_den_pairs())
def test_normalizer_matches_reference(pair):
    num, den = pair
    x = Scalar(num, den)
    assert canonical(x) == _ref_normalize(num, den)
    assert canonical(Scalar(x.num, x.den)) == canonical(x)


def test_normalizer_cancels_planted_factors():
    f = parse_scalar("2q^2-3q+5")
    x = Scalar(f.num * Poly({-3: 6, -1: -4}),
               f.num * Poly({0: -2, 1: 8}))
    assert str(x) == "(-2q^-1+3q^-3)/(4q-1)"


@settings(max_examples=200, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_laurent_fast_path_is_canonical(a, b):
    one = Poly.one()
    x, y = Scalar(a, one), Scalar(b, one)
    for result, raw in ((x + y, a + b), (x - y, a - b), (x * y, a * b),
                        (-x, -a)):
        assert canonical(result) == canonical(Scalar(raw, one))
        assert canonical(result) == _ref_normalize(raw, one)


# -- evaluation homomorphism: q -> t for rational t -----------------------

POINTS = [Fraction(t) for t in (2, -3, 5)] + [Fraction(1, 3),
                                                Fraction(-7, 2)]


def eval_poly(p, t):
    return sum((c * t ** e for e, c in p.coeffs.items()), Fraction(0))


def eval_at(x, t):
    """x(t), or None where t is a root of the denominator."""
    d = eval_poly(x.den, t)
    return None if d == 0 else eval_poly(x.num, t) / d


def general_scalars():
    return num_den_pairs().map(lambda p: Scalar(*p))


@settings(max_examples=150, deadline=None)
@given(general_scalars(), general_scalars())
def test_evaluation_commutes_with_arithmetic(x, y):
    for t in POINTS:
        a, b = eval_at(x, t), eval_at(y, t)
        if a is None or b is None:
            continue
        assert eval_at(x + y, t) == a + b
        assert eval_at(x - y, t) == a - b
        assert eval_at(x * y, t) == a * b
        assert eval_at(-x, t) == -a
        if b != 0:
            quotient = eval_at(x / y, t)
            assert quotient is None or quotient == a / b
        assert eval_at(parse_scalar(str(x)), t) == a


@settings(max_examples=150, deadline=None)
@given(num_den_pairs())
def test_evaluation_commutes_with_parsing(pair):
    num, den = pair
    x = parse_scalar("(%s)/(%s)" % (num, den))
    assert parse_scalar(str(x)) == x
    for t in POINTS:
        d = eval_poly(den, t)
        if d != 0:
            assert eval_at(x, t) == eval_poly(num, t) / d


# -- products by 1 against the general normalising construction ----------

def factors():
    """One, Laurent scalars and non-Laurent scalars, among them
    reciprocals, whose numerator is often 1."""
    return st.one_of(st.just(Scalar.one()),
                     laurent_polys().map(lambda p: Scalar(p, Poly.one())),
                     general_scalars(),
                     ordinary_polys().map(lambda p: Scalar(Poly.one(), p)))


@st.composite
def cross_cancelling_pairs(draw):
    """x = a f / (k b) and y = k c / (d f): f and k can cancel only across
    the operands, a and c carry Laurent shifts, and a constant k or f plants
    an integer content."""
    a, c = (draw(ordinary_polys()) * Poly.q(draw(st.integers(-2, 2)))
            for _ in range(2))
    f, k, b, d = (draw(ordinary_polys()) for _ in range(4))
    return Scalar(a * f, k * b), Scalar(k * c, d * f)


def factor_pairs():
    return st.one_of(st.tuples(factors(), factors()),
                     cross_cancelling_pairs())


@settings(max_examples=300, deadline=None)
@given(factor_pairs())
@example((parse_scalar("1/(2q+2)"), parse_scalar("2/(q+3)")))
def test_product_matches_general_construction(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        assert canonical(x * y) == canonical(Scalar(x.num * y.num,
                                                    x.den * y.den))


@settings(max_examples=100, deadline=None)
@given(general_scalars(), laurent_polys())
def test_product_by_one(x, p):
    one = Scalar.one()
    # a product by 1 is the other operand itself, whatever its
    # denominator, unless that operand is 1 too, when the product may
    # return either operand
    for y in (x, Scalar(p, Poly.one())):
        assert y * one == y and one * y == y
        if y != one:
            assert y * one is y and one * y is y


@settings(max_examples=150, deadline=None)
@given(general_scalars(), factors().filter(lambda y: not y.is_zero()),
       laurent_polys())
def test_equal_values_hash_equal(x, y, p):
    # equal Scalars and Polys built by different routes: parsing, sums,
    # Henrici products, q_power monomials and another dict order
    monomials = sorted(p.coeffs.items(), reverse=True)
    for a, b in ((x, parse_scalar(str(x))), (x, (x + y) - y),
                 (x, (x * y) / y), (x, y * (x / y)),
                 (Scalar(p, Poly.one()), parse_scalar(str(p))),
                 (Scalar(p, Poly.one()),
                  sum((Scalar.q_power(e, c) for e, c in monomials),
                      Scalar.zero())),
                 (p, Poly(dict(monomials))),
                 (p, p * Poly.q(2) * Poly.q(-2))):
        assert a == b
        assert hash(a) == hash(b)


# -- Poly products with a monomial factor against the double loop --------

def _ref_poly_mul(a, b):
    """The product of two mappings exponent -> coefficient, without its
    zero coefficients."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_factors():
    """Monomials, the zero polynomial and Laurent polynomials of two to
    four terms, with coefficients up to 10^6 in size."""
    return st.one_of(laurent_polys(1, 1, 10**6), st.just(Poly()),
                     laurent_polys(2, 4, 10**6))


@settings(max_examples=300, deadline=None)
@given(poly_factors(), poly_factors())
@example(Poly({-2: 10**6}), Poly({3: -10**6}))
@example(Poly({1: -1}), Poly({-1: 1, 0: -1, 2: 7}))
@example(Poly(), Poly({-3: 5}))
def test_poly_product_matches_double_loop(a, b):
    # one, both or neither factor a monomial; the product is a new dict
    # and its factors are only read
    before = dict(a.coeffs), dict(b.coeffs)
    for x, y in ((a, b), (b, a), (a, a)):
        p = x * y
        assert p.coeffs == _ref_poly_mul(x.coeffs, y.coeffs)
        assert p.coeffs is not x.coeffs and p.coeffs is not y.coeffs
    assert (a.coeffs, b.coeffs) == before


# -- the dense Poly against sparse mapping references --------------------

def _ref_sum(a, b, sign=1):
    """a + sign b of two mappings exponent -> coefficient, without its zero
    coefficients."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def poly_dicts():
    """Mappings exponent -> coefficient, zero coefficients among them:
    those of laurent_polys(), the empty one, and sparse wide ones of up to
    four terms spanning up to 512 degrees."""
    return st.one_of(laurent_dicts(), st.just({}),
                     st.dictionaries(st.integers(-256, 256),
                                     st.integers(-5, 5), max_size=4))


def _dense_poly_matches_mappings(pair):
    """Each operation on Polys built from the two mappings, against the
    same operation on the mappings: equal coefficients, and equal and
    equally hashed to the Poly built afresh from the reference mapping,
    its terms in another order."""
    da, db = pair
    a, b = Poly(da), Poly(db)
    ra, rb = _ref_sum({}, da), _ref_sum({}, db)
    for p, ref in ((a, ra), (-a, _ref_sum({}, da, -1)),
                   (a + b, _ref_sum(da, db)), (a - b, _ref_sum(da, db, -1)),
                   ((a + b) - b, ra), (a * b, _ref_poly_mul(da, db))):
        assert p.coeffs == ref
        fresh = Poly(dict(reversed(list(ref.items()))))
        assert p == fresh and hash(p) == hash(fresh), (p, ref)
        assert Poly(p.coeffs) == p
    assert (a == b) == (ra == rb)


@settings(max_examples=300, deadline=None)
@given(st.tuples(poly_dicts(), poly_dicts()))
@example(({0: 1, 500: 1}, {0: 1, 500: 1}))
@example(({-250: 1, 250: -1}, {0: 1, 500: 1}))
@example(({0: 1, 2: 1}, {2: -1}))
@example(({0: 0, 3: 5, 7: 0}, {-2: 0}))
def test_dense_poly_matches_sparse_mappings(pair):
    _dense_poly_matches_mappings(pair)


@pytest.mark.parametrize("kernel, old, new", [
    (scalars_module._strip, "tuple(c[lo:hi])", "tuple(c[lo:])"),
    (scalars_module._dense_mul, "if y:", "if y > 0:"),
], ids=["strip-keeps-trailing-zeros", "dense-mul-drops-negative-rows"])
def test_dense_poly_differential_catches_planted_faults(monkeypatch, kernel,
                                                         old, new):
    src = inspect.getsource(kernel)
    assert src.count(old) == 1
    namespace = dict(vars(scalars_module))
    exec(src.replace(old, new), namespace)
    monkeypatch.setattr(scalars_module, kernel.__name__,
                        namespace[kernel.__name__])
    with pytest.raises(AssertionError):
        first_failure(st.tuples(poly_dicts(), poly_dicts()),
                      _dense_poly_matches_mappings)


# -- the benchmark tracer's reads ----------------------------------------

@settings(max_examples=200, deadline=None)
@given(poly_dicts(), num_den_pairs())
def test_tracer_reads_match_the_mapping_reference(d, pair):
    # the benchmark's trace reads coeffs, min_exp, max_exp and
    # leading_coeff of the polynomials a normalisation takes and makes
    x = Scalar(*pair)
    ref_num, ref_den = _ref_normalize(*pair)
    for p, ref in ((Poly(d), _ref_sum({}, d)), (x.num, ref_num),
                   (x.den, ref_den)):
        assert p.coeffs == ref
        if ref:
            assert p.min_exp() == min(ref) and p.max_exp() == max(ref)
            assert p.leading_coeff() == ref[max(ref)]
        else:
            for read in (p.min_exp, p.max_exp, p.leading_coeff):
                with pytest.raises(ValueError):
                    read()


# -- parsed literals over 1 are built canonical --------------------------

@settings(max_examples=200, deadline=None)
@given(laurent_polys(0, 4, 10**6),
       st.sampled_from(["", "/1", "/(1)", "/q^0", "/(q+1-q)"]))
def test_parse_over_one_is_canonical(p, den):
    x = parse_scalar("(%s)%s" % (p, den))
    assert canonical(x) == canonical(Scalar(p, Poly.one()))
    assert canonical(x) == _ref_normalize(p, Poly.one())


# -- the call tracer's contract: the flag is always positional ------------

def test_scalars_are_built_with_the_flag_positional(monkeypatch):
    # the benchmark's trace counts normalisations by wrapping
    # Scalar.__init__ and reads the flag as its fourth positional argument
    calls = []
    init = Scalar.__init__

    def traced(*args, **kwargs):
        calls.append((args, kwargs))
        init(*args, **kwargs)

    m, n = Scalar.q_power(2, -3), Scalar.q_power(-1)
    p = parse_scalar("q^-1+3q^2")
    r, s = parse_scalar("(q+1)/(2q-1)"), parse_scalar("(q^2-1)/(q+3)")
    monkeypatch.setattr(Scalar, "__init__", traced)
    for op, flag in ((lambda: Scalar.one() * r, None),
                     (lambda: m * n, True),
                     (lambda: m * p, True), (lambda: p * p, True),
                     (lambda: r * s, True), (lambda: p + m, True),
                     (lambda: parse_scalar("2q^-1+q"), True),
                     (lambda: parse_scalar("(q+1)/2"), False)):
        del calls[:]
        op()
        assert [(len(args), args[-1], kwargs) for args, kwargs in calls] \
            == ([] if flag is None else [(4, flag, {})])
