"""Graded operations on the tensor algebra of a braided vector space.

Elements of T(V) are plain words; elements of tensor powers of T(V) carry
"cuts" (split positions).  An element of T(V)^{(x) m} has m-1 cuts; the
braided coproduct of the pair algebra produces elements whose cut count
doubles with each iteration.

Every product on T(V) (concatenation, the quantum shuffle, and binfty's star
product, of which the quasi-shuffle is a case) is the bilinear extension, by
one kernel, `_bilinear`, of a function on pairs of words, and every other map
given on words is the linear extension by `_linear`.

Maps on whole tensor slots run as slot programs: chains of `apply_slots`
steps, the graded-slot analogue of a leg program's steps, each summing its
image terms in place; a braiding keeps one beta slot map, shared by all of
them.  Its images, built by the hexagon steps, are T_{chi_ij} exactly: the
lengths of each step's two factors add, and sigma solves the YBE
(Matsumoto).  The quantum shuffle, the unshuffle and the Prop 2.2 power
lifts are chains of its crossings, so beta is the one braid kernel.  The
Def 2.1 rows on V and on T(V) are pairs of leg or slot programs that
Report.check runs on all their cases at once, a slot program's cases
tagged by one extra last slot, which no step reaches.
"""

from __future__ import annotations

import itertools
from functools import partial

from .braid import perm_inverse, perm_reduced_word, w_block
from .linear import (Element, Report, _leg_rows, _point, _program,
                     column_echelon_basis)
from .scalars import Scalar


class DegreeCapExceeded(ValueError):
    pass


# -- products and coproducts ----------------------------------------------

def _linear(x, image, what):
    """The linear extension of a map on words: the sum over the terms a u of
    x of a image(u), where image returns an Element that is only read.  A
    term with cuts is refused with "<what> expects uncut elements"."""
    out = Element()
    for (u, cuts), a in x.terms.items():
        if cuts:
            raise ValueError("%s expects uncut elements" % what)
        out.add_scaled(image(u), a)
    return out


def _bilinear(x, y, product, what):
    """The bilinear extension of a product of words: the sum over the terms
    a u of x and b v of y of (a b) product(u, v), where product returns an
    Element that is only read.  A term with cuts is refused with "<what>
    expects uncut elements", also when the other operand is zero."""
    if any(cuts for z in (x, y) for _, cuts in z.terms):
        raise ValueError("%s expects uncut elements" % what)
    out = Element()
    for (u, _), a in x.terms.items():
        for (v, _), b in y.terms.items():
            out.add_scaled(product(u, v), a * b)
    return out


def concat_product(x, y):
    """Bilinear word concatenation (plain elements)."""
    return _bilinear(x, y, lambda u, v: Element.basis(u + v),
                     "concat_product")


def counit(x):
    """Projection onto the degree-0 coefficient."""
    return x.terms.get(((), ()), Scalar.zero())


def deconcatenate(x):
    """delta: split every word at every position (result has one cut)."""
    return _linear(x, lambda u: _splits(u, 1), "deconcatenate")


def delta_iter(x, n):
    """delta^{(n)}: T(V) -> T(V)^{(x) n+1}, so n cuts per term."""
    return _linear(x, lambda u: _splits(u, n), "delta_iter")


def _splits(letters, n):
    """The word cut at every weakly increasing n-tuple of positions."""
    one = Scalar.one()
    return Element({(letters, cts): one for cts in
                    itertools.combinations_with_replacement(
                        range(len(letters) + 1), n)})


def qshuffle_product(x, y, braiding):
    """Quantum shuffle product: the sum of T_w over the (i, j)-shuffles w
    of u v (Rosso).  u's letters are placed last first, each crossing
    k = 0..c of the letters after it by beta_{1k}, c the crossing of the
    letter placed before and kept in the cut field, so equal states merge;
    the crossings' lengths add, so each chain is T_w (Matsumoto)."""
    beta = beta_slots(braiding)

    def shuffles(u, v):
        # the letter placed last, u's first, leaves no cut
        state = Element.basis(u + v, (len(v),) if u else ())
        for m in reversed(range(len(u))):
            nxt = Element()
            for (w, (c,)), a in state.terms.items():
                for k in range(c + 1):
                    end, cut = m + k + 1, (k,) if m else ()
                    for (mid, _), b in beta((w[m:end], (1,))).terms.items():
                        nxt.add_term((w[:m] + mid + w[end:], cut), b * a)
            state = nxt
        return state
    return _bilinear(x, y, shuffles, "qshuffle_product")


def quantum_coproduct(x, braiding):
    """Braided unshuffle coproduct; (p, n-p) component sums T_{w^{-1}}."""
    def components(u):
        out = Element()
        for p in range(len(u) + 1):
            out.add_scaled(_unshuffle_component(braiding, u, p))
        return out
    return _linear(x, components, "quantum_coproduct")


def _unshuffle_component(braiding, letters, p):
    """The (p, n-p) component of the quantum coproduct on one word: the sum
    of T_{w^{-1}} over the (p, n-p)-shuffles w, cut after p letters.  Read
    first to last into states x | y, each letter ends y or, crossing y by
    beta_{|y|,1}, ends x; equal states merge, and each chain of crossings
    is T_{w^{-1}}, as their lengths add (Matsumoto)."""
    beta, q = beta_slots(braiding), len(letters) - p
    state = Element.basis((), (0,))
    for a in zip(letters):  # the one-letter words
        nxt = Element()
        for (w, (i,)), c in state.terms.items():
            if len(w) - i < q:
                nxt.add_term((w + a, (i,)), c)
            if i < p:
                img = beta((w[i:] + a, (len(w) - i,)))
                for (mid, _), b in img.terms.items():
                    nxt.add_term((w[:i] + mid, (i + 1,)), b * c)
        state = nxt
    return state


# -- slot programs on tensor powers of T(V) -------------------------------

def slot_bounds(letters, cuts):
    """Boundaries 0 = b_0 <= b_1 <= ... <= b_m = len of the tensor slots."""
    return (0,) + tuple(cuts) + (len(letters),)


def apply_slots(f, arity, pos, x):
    """Apply the slot map f to the `arity` tensor slots at `pos` (0-indexed)
    of every term of x.

    f takes the (letters, cuts) key of one basis element of T(V)^{(x) arity},
    its cuts relative to it, and returns an Element with any number of
    slots; the other slots keep their letters, and the cuts after the
    replaced slots shift with their new length.  Image terms are summed in
    place into the result (no zero kept); f's results are only read.  A
    term's coefficient that is the Scalar.one() object scales nothing.
    """
    out, one = Element(), Scalar.one()
    acc, last = out.terms, pos + arity - 1
    for (letters, cuts), c in x.terms.items():
        lo = cuts[pos - 1] if pos else 0
        hi = cuts[last] if last < len(cuts) else len(letters)
        inner = cuts[pos:last]
        if lo:
            inner = tuple([p - lo for p in inner])
        head, tail, width = cuts[:pos], cuts[last:], hi - lo
        pre, post = letters[:lo], letters[hi:]
        for (mid, mc), a in f((letters[lo:hi], inner)).terms.items():
            shift = len(mid) - width
            key = (pre + mid + post,
                   head + (tuple([lo + p for p in mc]) if lo else mc)
                   + (tuple([p + shift for p in tail]) if shift else tail))
            if c is not one:
                a = a * c
            # one hash for a new key: it grows the dict
            n = len(acc)
            cur = acc.setdefault(key, a)
            if len(acc) == n:
                s = cur + a
                if s.is_zero():
                    del acc[key]
                else:
                    acc[key] = s
    return out


def beta_slots(braiding):
    """beta as a slot map on two slots: u | v -> beta_{ij}(u v), cut after
    the j = len(v) letters that come first.  Its images are kept on the
    braiding, and each is built in a loop up from the longest image kept:
        beta_{ij}(u | v a) = (id (x) beta_{i1})(beta_{i,j-1}(u | v) (x) a),
        beta_{i1}(b u | a) = (sigma (x) id)(b (x) beta_{i-1,1}(u | a))."""
    images, sigma = braiding._beta_slot_cache, braiding.fwd

    def beta(key):
        img = images.get(key)
        if img is not None:
            return img
        steps = []
        while key not in images:
            letters, (i,) = key
            if not 0 < i < len(letters):
                images[key] = Element.basis(letters, (len(letters) - i,))
            else:
                steps.append(key)
                key = ((letters[:-1], (i,)) if len(letters) - i > 1
                       else (letters[1:], (i - 1,)))
        for key in reversed(steps):
            letters, (i,) = key
            j = len(letters) - i
            res = images[key] = Element()
            if j == 1:
                prev = images[(letters[1:], (i - 1,))]
                for (w, _), c in prev.terms.items():
                    head = sigma.column(letters[:1] + w[:1])
                    for (x, _), d in head.terms.items():
                        res.add_term((x + w[1:], (1,)), d * c)
                continue
            for (w, _), c in images[(letters[:-1], (i,))].terms.items():
                tail = beta((w[j - 1:] + letters[-1:], (i,)))
                for (x, _), d in tail.terms.items():
                    res.add_term((w[:j - 1] + x, (j,)), d * c)
        return images[key]
    return beta


def _slot_rows(report, space, degrees, label, rows):
    """Check (identity, lhs, rhs) pairs of slot programs, each a list of
    (f, arity, pos) steps of apply_slots, on the basis elements of
    V^{(x) d_1} (x) ... (x) V^{(x) d_m} inside T(V)^{(x) m}; label maps the
    slot words of a case to its name in a witness.  Case t is tagged by
    one more slot, after the others, holding the letter t."""
    cuts, n = tuple(itertools.accumulate(degrees))[:-1], sum(degrees)

    def run(steps, x):
        for f, arity, pos in steps:
            x = apply_slots(f, arity, pos, x)
        return x

    cases = [(label(ws), (sum(ws, ()), cuts))
             for ws in itertools.product(*(space.words(d) for d in degrees))]
    for identity, lhs, rhs in rows:
        lhs, rhs = partial(run, lhs), partial(run, rhs)
        report.check(identity, [(name, key, lhs, rhs) for name, key in cases],
                     lambda key, t: (key[0] + (t,), cuts + (n,)))
    return report


# -- braided coproduct on the pair coalgebra ------------------------------

def delta_beta(braiding, x):
    """Delta_beta = (id (x) beta (x) id)(delta (x) delta) on one-cut terms.

    Input terms have one cut; output terms have three.
    """
    if any(len(cuts) != 1 for _, cuts in x.terms):
        raise ValueError("delta_beta expects one cut")
    return _first_factor_delta_beta(braiding, x, False)


def _first_factor_delta_beta(braiding, x, reduced):
    """Apply Delta_beta (or its reduced form) to the first pair factor u|v
    of each term, the later factors kept: u1 | beta(u2 v1) | v2 over every
    split u = u1 u2 and v = v1 v2.  The reduced form runs over the splits
    with both pairs u1|v1 and u2|v2 nonempty, leaving out the unit splits
    1_C (x) u|v and u|v (x) 1_C; on the empty pair, where those are one
    split, it is Delta - 1_C (x) x - x (x) 1_C = -1_C (x) 1_C."""
    beta = beta_slots(braiding)
    out = Element()
    for (letters, cuts), c in x.terms.items():
        cut, rest = cuts[0], cuts[1:]
        end = rest[0] if rest else len(letters)
        if reduced and not end:
            out.add_term((letters, (0, 0, 0) + rest), -c)
            continue
        for a in range(cut + 1):
            for b in range(cut, end + 1):
                ncuts = (a, a + b - cut, b) + rest
                if a == cut or b == cut:
                    # beta with an empty block is the identity
                    if not (reduced and (a == 0 and b == cut
                                         or a == cut and b == end)):
                        out.add_term((letters, ncuts), c)
                    continue
                img = beta((letters[a:b], (cut - a,)))
                for (mw, _), s in img.terms.items():
                    out.add_term((letters[:a] + mw + letters[b:], ncuts),
                                 s * c)
    return out


def delta_beta_iter(braiding, x, n, reduced=False):
    """Delta_beta^{(n)} (or reduced): pair element -> (pair)^{(x) n+1}.

    Input terms have one cut; output terms have 2n+1 cuts.
    """
    for _ in range(n):
        x = _first_factor_delta_beta(braiding, x, reduced)
    return x


def delta_beta_via_w(braiding, x, n):
    """T^beta_{w_{n+1}} o (delta^{(n)})^{(x) 2} on a pair element: each
    slot of u | v is cut at every weak n-tuple of positions, v's first,
    then the 2(n+1) slots are braided by T^beta_{w_{n+1}}."""
    if any(len(cuts) != 1 for _, cuts in x.terms):
        raise ValueError("expects one cut")

    def cut(key):
        return _splits(key[0], n)
    x = apply_slots(cut, 1, 0, apply_slots(cut, 1, 1, x))
    return _braid_slots(braiding, w_block(n + 1), x)


def _braid_slots(braiding, w, x):
    """T^beta_w on the slots of x: beta at slots i-1, i for each letter i
    of w's reduced word, the last letter first."""
    beta = beta_slots(braiding)
    for i in reversed(perm_reduced_word(w)):
        x = apply_slots(beta, 2, i - 1, x)
    return x


def _braid_letters(braiding, w, x):
    """T_w on the plain element x: beta steps on one-letter slots."""
    cuts = tuple(range(1, len(w)))
    x = _braid_slots(braiding, w, Element(
        {(u, cuts): c for (u, _), c in x.terms.items()}))
    return Element({(u, ()): c for (u, _), c in x.terms.items()})


# -- the Nichols algebra ---------------------------------------------------

def nichols_basis(braiding, n):
    """Echelon bases of the degrees 0..n of the Nichols algebra B(V): the
    subalgebra of the quantum shuffle algebra generated by V.  The shuffle
    of d letters is the quantum symmetrizer sum_{w in S_d} T_w, so degree d
    is spanned by e_i sh b over the letters e_i and the basis b of degree
    d-1 (Rosso, Invent. Math. 133, 1998)."""
    space = braiding.space
    letters = [Element.basis((i,)) for i in range(space.dim)]
    bases = [[Element.unit()]]
    for d in range(1, n + 1):
        bases.append(column_echelon_basis(
            [qshuffle_product(e, b, braiding)
             for e in letters for b in bases[-1]], space, d))
    return bases


# -- power structures (Prop 2.2) ------------------------------------------

class InvalidBase(ValueError):
    pass


def power_product(i, mult, braiding):
    """Product on A^{(x) i}: multiply componentwise after the w_i braid,
    T_{w_i}, the leg program (m, 0), (m, 1), ..., (m, i-1).

    Returns a function on plain words of degree 2i (concatenated pair).
    """
    run = _program([(mult, t) for t in range(i)])

    def prod(letters, coeff=None):
        x = Element.basis(letters, (), coeff)
        return run(_braid_letters(braiding, w_block(i), x))
    return prod


def power_coproduct(i, comult, braiding):
    """Coproduct on A^{(x) i}: T_{w_i^{-1}} after componentwise comult, the
    leg program (Delta, i-1), ..., (Delta, 0), T_{w_i^{-1}}."""
    run = _program([(comult, t) for t in reversed(range(i))])

    def coprod(letters, coeff=None):
        x = run(Element.basis(letters, (), coeff))
        return _braid_letters(braiding, perm_inverse(w_block(i)), x)
    return coprod


# -- Def 2.1 checks --------------------------------------------------------

def check_yb_product_rows(mult, braiding):
    """The two product rows of the Def 2.1 YB algebra diagram on V^{(x)3}
    for V the braiding's space: "product-row-1" and "product-row-2"."""
    sig = braiding.fwd
    return _leg_rows(Report(), [braiding.space] * 3, [
        # sigma(m (x) id) = (id (x) m) sigma_1 sigma_2
        ("product-row-1", [(mult, 0), (sig, 0)],
         [(sig, 1), (sig, 0), (mult, 1)]),
        # sigma(id (x) m) = (m (x) id) sigma_2 sigma_1
        ("product-row-2", [(mult, 1), (sig, 0)],
         [(sig, 0), (sig, 1), (mult, 0)])])


def check_yb_algebra(mult, unit, braiding):
    """Def 2.1 YB algebra diagram on the braiding's space V: the product
    rows, then "unit-row-1" and "unit-row-2" on V."""
    sig, u = braiding.fwd, _point(unit)
    return _leg_rows(check_yb_product_rows(mult, braiding), [braiding.space], [
        # sigma(1 (x) x) = x (x) 1 and sigma(x (x) 1) = 1 (x) x
        ("unit-row-1", [(u, 0), (sig, 0)], [(u, 1)]),
        ("unit-row-2", [(u, 1), (sig, 0)], [(u, 0)])])


def check_yb_coalgebra(comult, counit_map, braiding):
    """Def 2.1 YB coalgebra diagram on the braiding's space V: Report
    entries "coproduct-row-1/2" and "counit-row-1/2" on V^{(x)2}."""
    sig, d, e = braiding.fwd, comult, counit_map
    return _leg_rows(Report(), [braiding.space] * 2, [
        # sigma_1 sigma_2 (Delta (x) id) = (id (x) Delta) sigma
        ("coproduct-row-1", [(d, 0), (sig, 1), (sig, 0)], [(sig, 0), (d, 1)]),
        # sigma_2 sigma_1 (id (x) Delta) = (Delta (x) id) sigma
        ("coproduct-row-2", [(d, 1), (sig, 0), (sig, 1)], [(sig, 0), (d, 0)]),
        # (eps (x) id) sigma = id (x) eps and its mirror
        ("counit-row-1", [(sig, 0), (e, 0)], [(e, 1)]),
        ("counit-row-2", [(sig, 0), (e, 1)], [(e, 0)])])


# -- graded YB algebra check for products on T(V) --------------------------

def triples(bound):
    """The degree triples (i, j, k) of positive integers with i + j + k at
    most the bound, in lexicographic order."""
    return [t for t in itertools.product(range(1, bound - 1), repeat=3)
            if sum(t) <= bound]


def check_tensor_yb_product(prod, braiding, i, j, k):
    """Def 2.1 product rows for a (possibly inhomogeneous) product on T(V).

    `prod` is the product as a slot map on two slots, u | v -> u v.  The
    rows are slot programs on u | v | w with deg (i, j, k), so both sides
    carry one cut; Report entries "row-1" and "row-2", each case named
    (u, v, w).
    """
    beta = beta_slots(braiding)
    return _slot_rows(Report(), braiding.space, (i, j, k), tuple, [
        # beta(prod (x) id) = (id (x) prod) beta_1 beta_2
        ("row-1", [(prod, 2, 0), (beta, 2, 0)],
         [(beta, 2, 1), (beta, 2, 0), (prod, 2, 1)]),
        # beta(id (x) prod) = (prod (x) id) beta_2 beta_1
        ("row-2", [(prod, 2, 1), (beta, 2, 0)],
         [(beta, 2, 0), (beta, 2, 1), (prod, 2, 0)])])


def check_tensor_yb_coproduct(components, braiding, p, q, r):
    """Def 2.1 coalgebra row for the quantum coproduct on T(V).

    Checks its (p, q) component, components(p, key), against beta on x | y
    with deg (p+q, r): a Report entry "corow-1", each case named (x, y, p).
    """
    beta, cop = beta_slots(braiding), partial(components, p)
    return _slot_rows(Report(), braiding.space, (p + q, r),
                      lambda ws: ws + (p,), [
        # sigma_1 sigma_2 (Delta (x) id) = (id (x) Delta) beta
        ("corow-1", [(cop, 1, 0), (beta, 2, 1), (beta, 2, 0)],
         [(beta, 2, 0), (cop, 1, 1)])])
