"""Shared fixtures: small braided spaces and algebra bases used across tests."""

import itertools
from functools import cache

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ybalg.binfty import TwoYB, YBBase
from ybalg.braid import Braiding, perm_reduced_word
from ybalg.catalog import diagonal_braiding
from ybalg.linear import Element, LinMap, Space
from ybalg.scalars import Scalar, parse_scalar
from ybalg.tensoralg import _bilinear, _unshuffle_component


# 1 as objects other than Scalar.one(): the kernels skip a product by the
# Scalar.one() object only, and multiply by these
OTHER_ONES = (parse_scalar("1"), Scalar.q_power(1) * Scalar.q_power(-1))


def kernel_coefficients():
    """Coefficients for the kernel references: c q^e, built afresh, and a
    few fixed objects, among them 1 as the Scalar.one() object and as the
    OTHER_ONES.  Two draws of a fixed object are the same object, so an
    image coefficient is often the very object a result already holds."""
    return st.one_of(
        st.sampled_from((Scalar.one(),) + OTHER_ONES
                        + (Scalar.from_int(-1), Scalar.q_power(1))),
        st.builds(lambda c, e: Scalar.from_int(c) * Scalar.q_power(e),
                  st.integers(-2, 2), st.integers(-2, 2)))


def symbolic_diagonal(n):
    """Diagonal braiding with independent monomial entries q^{in+j+1}."""
    Q = [[Scalar.q_power(i * n + j + 1) for j in range(n)]
         for i in range(n)]
    return diagonal_braiding(Q)


def compose(v, w):
    """The composition v o w of two permutations given by their tuples of
    images: (v o w)(k) = v(w(k))."""
    return tuple(v[k - 1] for k in w)


def inversions(w):
    """The inversion number l(w): the pairs of positions i < j with
    w(i) > w(j)."""
    return sum(1 for i, a in enumerate(w) for b in w[i + 1:] if a > b)


def all_reduced_words(w):
    """Every reduced expression of w as a list of generator indices, found
    by stripping each descent in turn: the exhaustive reference for
    Matsumoto's theorem, that a braid lift is the same on all of them."""
    descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
    if not descents:
        return [[]]
    return [word + [i] for i in descents for word in all_reduced_words(
        w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:])]


def enumerate_shuffles(p, q):
    """All (p,q)-shuffles in S_{p+q}, lexicographic on image sequences (the
    order in which combinations yields their first p images)."""
    points = range(1, p + q + 1)
    return [first + tuple(v for v in points if v not in first)
            for first in itertools.combinations(points, p)]


def chi(i, j):
    """chi_{ij} in S_{i+j}: k -> k+j for k <= i, k -> k-i otherwise."""
    return tuple(range(j + 1, i + j + 1)) + tuple(range(1, j + 1))


def apply_leg(f, pos, x):
    """The map f applied at the legs pos..pos+f.in_degree-1 of every term of
    x, each term keeping its cuts, summed into a new Element: the one-step
    reference for the library's leg programs."""
    out, end = Element(), pos + f.in_degree
    for (letters, cuts), c in x.terms.items():
        for (mid, _), a in f.column(letters[pos:end]).terms.items():
            out.add_term((letters[:pos] + mid + letters[end:], cuts), a * c)
    return out


def lift_word(braiding, word, x):
    """sigma_{i_1} o ... o sigma_{i_l} on x for a generator word i_1 ... i_l,
    the rightmost generator first, one apply_leg per letter."""
    for i in reversed(word):
        x = apply_leg(braiding.fwd, i - 1, x)
    return x


def lift(braiding, w, x):
    """T_w on x, lifted from w's canonical reduced word letter by letter:
    the reference braid lift, independent of the library's beta kernel."""
    return lift_word(braiding, perm_reduced_word(w), x)


def beta_lift(braiding, i, j, letters):
    """beta_{ij} = T_{chi_ij} on one word of degree i+j, as plain words,
    lifted from chi_ij's reduced word: the reference for the hexagon-built
    images of tensoralg.beta_slots, which it does not go through."""
    return lift(braiding, chi(i, j), Element.basis(letters))


def split_product(product):
    """A product of plain Elements as the slot map u | v -> product(u, v)
    that check_tensor_yb_product takes, each image computed once."""
    return cache(lambda key: product(Element.basis(key[0][:key[1][0]]),
                                     Element.basis(key[0][key[1][0]:])))


def unshuffle_components(braiding):
    """The components of the quantum coproduct as check_tensor_yb_coproduct
    takes them: (p, key) -> the (p, n-p) component of the word key[0], each
    computed once."""
    return cache(lambda p, key: _unshuffle_component(braiding, key[0], p))


def braid_lift(w, braiding):
    """T_w tabulated as a LinMap on V^{(x) n}, n = len(w): the reference
    form of a braid lift, one column per basis word."""
    return LinMap.tabulate(braiding.space, len(w),
                           lambda word: lift(braiding, w, Element.basis(word)))


def symmetrizer_image(k, braiding):
    """The quantum symmetrizer sum_{w in S_k} T_w tabulated as a LinMap on
    V^{(x) k}: the reference form of the degree-k part of the Nichols
    algebra, lifting all k! permutations on every basis word."""
    def column(word):
        acc = Element()
        for w in itertools.permutations(range(1, k + 1)):
            acc.add_scaled(lift(braiding, w, Element.basis(word)))
        return acc
    return LinMap.tabulate(braiding.space, k, column)


def negated(braiding):
    """-sigma, checked as a Braiding: sum_w (-1)^{l(w)} T_w for sigma is
    sum_w T_w for -sigma."""
    minus = -Scalar.one()
    return Braiding(braiding.space, braiding.fwd.scale(minus),
                    braiding.inv.scale(minus))


@st.composite
def diagonal_matrices(draw):
    """Braiding matrices of dim 2-3 with entries +-q^a, a in -3..3."""
    n = draw(st.integers(2, 3))
    return [[Scalar.q_power(draw(st.integers(-3, 3)),
                            draw(st.sampled_from([1, -1])))
             for _ in range(n)] for _ in range(n)]


def diagonal_braidings():
    """Diagonal braidings of dim 2-3 with entries +-q^a, a in -3..3."""
    return diagonal_matrices().map(diagonal_braiding)


@st.composite
def diagonal_bases(draw):
    """A base e_i e_j = c e_k, c = +-q^a, on a matrix of diagonal_matrices()
    whose last letter k is made the weight of e_i e_j (i, j < k): row and
    column k become q_kl = q_il q_jl and q_lk = q_li q_lj, the conditions
    under which the product is compatible with the braiding."""
    Q = draw(diagonal_matrices())
    k = len(Q) - 1
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    for m in range(k):
        Q[k][m] = Q[i][m] * Q[j][m]
        Q[m][k] = Q[m][i] * Q[m][j]
    Q[k][k] = Q[i][k] * Q[j][k]
    c = Scalar.q_power(draw(st.integers(-3, 3)),
                       draw(st.sampled_from([1, -1])))
    return YBBase(LinMap(2, {(i, j): Element.basis((k,), coeff=c)}),
                  diagonal_braiding(Q))


def first_failure(strategy, check):
    """Run check on the derandomized examples that the generated-input
    properties draw from strategy (25, as they do), stopping at the first
    that fails instead of shrinking it: how a planted fault is shown to be
    caught."""
    @settings(max_examples=25, deadline=None, derandomize=True,
              phases=[Phase.generate])
    @given(strategy)
    def run(example):
        check(example)
    run()


def assert_associative(product, space, bound):
    """(x y) z = x (y z) on every triple of basis words x | y | z, each
    possibly empty, whose degrees add to 1..bound; the assertion names the
    first triple that differs."""
    for n in range(1, bound + 1):
        for letters in space.words(n):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    x, y, z = (Element.basis(w) for w in (
                        letters[:i], letters[i:j], letters[j:]))
                    assert (product(product(x, y), z)
                            == product(x, product(y, z))), (letters, i, j)


def permute_legs(x, order):
    """Reorder the letters of every term of x: letter t of the result is
    letter order[t] of the input, so order is a permutation of
    range(len(letters)).  Each term keeps its cuts."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        out.add_term((tuple(letters[i] for i in order), cuts), c)
    return out


def legs_reference(x, *steps):
    """The reference form of a leg program: one apply_leg or permute_legs
    per step, each summing into a new Element, left to right."""
    for step in steps:
        x = permute_legs(x, step) if isinstance(step, list) \
            else apply_leg(*step, x)
    return x


def flip_braiding(n):
    """The plain transposition tau as a diagonal braiding."""
    one = Scalar.one()
    return diagonal_braiding([[one] * n for _ in range(n)])


def zero_base(braiding):
    """Base with the zero product: quasi-shuffle collapses to the shuffle."""
    return YBBase(LinMap(2), braiding)


def quasi_shuffle_reference(x, y, base):
    """The quantum quasi-shuffle product by the three-term recursion on the
    last letters (Jian-Rosso-Zhang, "Quantum quasi-shuffle algebras", Lett.
    Math. Phys. 92, 2010), memoised within the call: the reference form of
    the star product of base.qb_structure()."""
    memo = {}

    def words(u, v):
        key = (u, v)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if not v:
            res = Element.basis(u)
        elif not u:
            res = Element.basis(v)
        else:
            j, a = len(v), u[-1:]
            res = Element()
            # last letter of v split off before any braiding
            t1 = words(u, v[:-1])
            for (wl, _), c in t1.terms.items():
                res.add_term((wl + v[-1:], ()), c)
            # beta_1j moves the last letter a of u past v; recurse on the rest
            moved = beta_lift(base.braiding, 1, j, a + v)
            for (wl, _), c in moved.terms.items():
                rec = words(u[:-1], wl[:j])
                for (rl, _), s in rec.terms.items():
                    res.add_term((rl + wl[j:], ()), s * c)
            # beta_1,j-1 stops a one letter short; close with the base product
            moved = beta_lift(base.braiding, 1, j - 1, a + v[:-1])
            for (wl, _), c in moved.terms.items():
                prod = base.mult.apply_word(wl[j - 1:] + v[-1:])
                if prod.is_zero():
                    continue
                rec = words(u[:-1], wl[:j - 1])
                for (rl, _), s in rec.terms.items():
                    for (pl, _), t in prod.terms.items():
                        res.add_term((rl + pl, ()), s * t * c)
        memo[key] = res
        return res
    return _bilinear(x, y, words, "quasi_shuffle_reference")


def graded_base():
    """dim-2 base with weights (1, 2): q_ij = q^{w_i w_j}, e1 e1 = e2.

    The single product column is weight-homogeneous, so the compatibility
    rows with the diagonal braiding close up exactly.
    """
    w = (1, 2)
    Q = [[Scalar.q_power(w[i] * w[j]) for j in range(2)] for i in range(2)]
    b = diagonal_braiding(Q)
    mult = LinMap(2, {(0, 0): Element.basis((1,))})
    return YBBase(mult, b)


def dual_numbers_twoyb():
    """K[e]/(e^2) with both products equal: unit g0, g1^2 = 0.

    Braiding is diagonal with weights (0, 1), so only the g1 (x) g1 column
    carries a q.
    """
    w = (0, 1)
    Q = [[Scalar.q_power(w[i] * w[j]) for j in range(2)] for i in range(2)]
    b = diagonal_braiding(Q)
    cols = {(0, 0): Element.basis((0,)),
            (0, 1): Element.basis((1,)),
            (1, 0): Element.basis((1,))}
    mult = LinMap(2, cols)
    unit = Element.basis((0,))
    return TwoYB(b, mult, mult, unit)


def sweedler_h4():
    """Sweedler's four-dimensional Hopf algebra, basis 1, g, x, gx.

    g^2 = 1, x^2 = 0, xg = -gx; Delta g = g (x) g, Delta x = x (x) 1 + g (x) x,
    eps(x) = 0, S(x) = -gx, S(gx) = x.  Neither commutative nor
    cocommutative, so a wrong leg order in a Sweedler sum shows up.
    """
    from ybalg.hopf import HopfPresentation
    one, neg = Scalar.one(), Scalar.from_int(-1)

    def e(*terms):
        out = Element()
        for c, w in terms:
            out.add_term((w, ()), c)
        return out

    # letters: 0 = 1, 1 = g, 2 = x, 3 = gx
    prod = {(1, 1): e((one, (0,))), (1, 2): e((one, (3,))),
            (1, 3): e((one, (2,))), (2, 1): e((neg, (3,))),
            (3, 1): e((neg, (2,)))}
    for a in range(4):
        prod[(0, a)] = prod[(a, 0)] = e((one, (a,)))
    mult = LinMap(2, prod)
    comult = LinMap(1, {(0,): e((one, (0, 0))), (1,): e((one, (1, 1))),
                        (2,): e((one, (2, 0)), (one, (1, 2))),
                        (3,): e((one, (3, 1)), (one, (0, 3)))})
    counit = LinMap(1, {(0,): Element.unit(), (1,): Element.unit()})
    antipode = LinMap(1, {(0,): e((one, (0,))), (1,): e((one, (1,))),
                          (2,): e((neg, (3,))), (3,): e((one, (2,)))})
    return HopfPresentation(Space(["1", "g", "x", "gx"]), mult,
                            Element.basis((0,)), comult, counit, antipode)


def sweedler_r(t):
    """R_t = 1/2 (1(x)1 + 1(x)g + g(x)1 - g(x)g)
    + t/2 (x(x)x - x(x)gx + gx(x)x + gx(x)gx) in H4 (x) H4."""
    half = Scalar.one() / Scalar.from_int(2)
    th = t * half
    R = Element()
    for w, c in (((0, 0), half), ((0, 1), half), ((1, 0), half),
                 ((1, 1), -half), ((2, 2), th), ((2, 3), -th),
                 ((3, 2), th), ((3, 3), th)):
        R.add_term((w, ()), c)
    return R
