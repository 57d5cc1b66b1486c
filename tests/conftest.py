"""Shared fixtures: small braided spaces and algebra bases used across tests."""

import itertools

from hypothesis import strategies as st

from ybalg.binfty import TwoYB, YBBase
from ybalg.braid import Braiding, Perm, braid_lift_apply
from ybalg.catalog import diagonal_braiding
from ybalg.linear import Element, LinMap, Space, apply_at, permute_legs
from ybalg.scalars import Scalar


def symbolic_diagonal(n):
    """Diagonal braiding with independent monomial entries q^{in+j+1}."""
    Q = [[Scalar.q_power(i * n + j + 1) for j in range(n)]
         for i in range(n)]
    return diagonal_braiding(Q)


def braid_lift(w, braiding):
    """T_w tabulated as a LinMap on V^{(x) n}, n = w.n: the reference form
    of a braid lift, one column per basis word."""
    return LinMap.tabulate(braiding.space, w.n,
                           lambda word: braid_lift_apply(braiding, w, word))


def symmetrizer_image(k, braiding):
    """The quantum symmetrizer sum_{w in S_k} T_w tabulated as a LinMap on
    V^{(x) k}: the reference form of the degree-k part of the Nichols
    algebra, lifting all k! permutations on every basis word."""
    perms = [Perm(p) for p in itertools.permutations(range(1, k + 1))]

    def column(word):
        acc = Element()
        for w in perms:
            acc.add_scaled(braid_lift_apply(braiding, w, word))
        return acc
    return LinMap.tabulate(braiding.space, k, column)


def negated(braiding):
    """-sigma, checked as a Braiding: sum_w (-1)^{l(w)} T_w for sigma is
    sum_w T_w for -sigma."""
    minus = -Scalar.one()
    return Braiding(braiding.space, braiding.fwd.scale(minus),
                    braiding.inv.scale(minus))


@st.composite
def diagonal_braidings(draw):
    """Diagonal braidings of dim 2-3 with entries +-q^a, a in -3..3."""
    n = draw(st.integers(2, 3))
    return diagonal_braiding([
        [Scalar.q_power(draw(st.integers(-3, 3)),
                        draw(st.sampled_from([1, -1])))
         for _ in range(n)] for _ in range(n)])


def legs_reference(x, *steps):
    """The reference form of a leg program: one apply_at or permute_legs
    per step, each summing into a new Element, left to right."""
    for step in steps:
        if isinstance(step, list):
            x = permute_legs(x, step)
        else:
            f, pos = step
            x = apply_at(f, pos, x)
    return x


def flip_braiding(n):
    """The plain transposition tau as a diagonal braiding."""
    one = Scalar.one()
    return diagonal_braiding([[one] * n for _ in range(n)])


def zero_base(braiding):
    """Base with the zero product: quasi-shuffle collapses to the shuffle."""
    return YBBase(LinMap(2), braiding)


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
