"""Graded operations on the tensor algebra of a braided vector space.

Elements of T(V) are plain words; elements of tensor powers of T(V) carry
"cuts" (split positions).  An element of T(V)^{(x) m} has m-1 cuts; the
braided coproduct of the pair algebra produces elements whose cut count
doubles with each iteration.
"""

from __future__ import annotations

from .braid import (Perm, apply_beta_letters, braid_lift_apply,
                    enumerate_shuffles, w_block)
from .linear import Element, LinMap, apply_at, tensor_elements
from .scalars import Scalar


class DegreeCapExceeded(ValueError):
    pass


class GradedAlg:
    """T(V) with a validated braiding, truncated above degree_cap."""

    def __init__(self, braiding, degree_cap):
        if degree_cap < 1:
            raise ValueError("degree_cap must be at least 1")
        if not braiding.validated:
            raise ValueError("braiding must be validated")
        self.space = braiding.space
        self.braiding = braiding
        self.degree_cap = degree_cap

    def check_cap(self, degree):
        if degree > self.degree_cap:
            raise DegreeCapExceeded(
                "degree %d exceeds cap %d" % (degree, self.degree_cap))


# -- products and coproducts ----------------------------------------------

def concat_product(x, y, cap=None):
    """Bilinear word concatenation (plain elements)."""
    out = Element()
    for (lw, lc), a in x.terms.items():
        for (rw, rc), b in y.terms.items():
            if lc or rc:
                raise ValueError("concat_product expects uncut elements")
            if cap is not None and len(lw) + len(rw) > cap:
                raise DegreeCapExceeded(
                    "degree %d exceeds cap %d" % (len(lw) + len(rw), cap))
            out.add_term((lw + rw, ()), a * b)
    return out


def counit(x):
    """Projection onto the degree-0 coefficient."""
    return x.terms.get(((), ()), Scalar.zero())


def deconcatenate(x):
    """delta: split every word at every position (result has one cut)."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        if cuts:
            raise ValueError("deconcatenate expects uncut elements")
        for i in range(len(letters) + 1):
            out.add_term((letters, (i,)), c)
    return out


def delta_component(x, i, j):
    """The (i, j) component of the deconcatenation."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        if len(letters) == i + j:
            out.add_term((letters, (i,)), c)
    return out


def delta_iter(x, n):
    """delta^{(n)}: T(V) -> T(V)^{(x) n+1}, so n cuts per term."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        if cuts:
            raise ValueError("delta_iter expects uncut elements")
        for cts in _weak_cut_tuples(len(letters), n):
            out.add_term((letters, cts), c)
    return out


def _weak_cut_tuples(length, n):
    """All weakly increasing n-tuples of cut positions in [0, length]."""
    if n == 0:
        yield ()
        return
    def rec(start, left):
        if left == 0:
            yield ()
            return
        for p in range(start, length + 1):
            for rest in rec(p, left - 1):
                yield (p,) + rest
    yield from rec(0, n)


def qshuffle_product(x, y, braiding, cap=None):
    """Quantum shuffle product: sum of braid lifts over (i,j)-shuffles."""
    out = Element()
    shuffle_cache = {}
    for (lw, lc), a in x.terms.items():
        for (rw, rc), b in y.terms.items():
            if lc or rc:
                raise ValueError("qshuffle_product expects uncut elements")
            i, j = len(lw), len(rw)
            if cap is not None and i + j > cap:
                raise DegreeCapExceeded(
                    "degree %d exceeds cap %d" % (i + j, cap))
            if (i, j) not in shuffle_cache:
                shuffle_cache[(i, j)] = enumerate_shuffles(i, j)
            coeff = a * b
            word = lw + rw
            for w in shuffle_cache[(i, j)]:
                img = braid_lift_apply(braiding, w, word)
                for key, s in img.terms.items():
                    out.add_term(key, s * coeff)
    return out


def quantum_coproduct(x, braiding):
    """Braided unshuffle coproduct; (p, n-p) component sums T_{w^{-1}}."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        if cuts:
            raise ValueError("quantum_coproduct expects uncut elements")
        n = len(letters)
        for p in range(n + 1):
            for w in enumerate_shuffles(p, n - p):
                img = braid_lift_apply(braiding, w.inverse(), letters)
                for (iw, _), s in img.terms.items():
                    out.add_term((iw, (p,)), s * c)
    return out


# -- block braids on cut elements -----------------------------------------

def slot_bounds(letters, cuts):
    """Boundaries 0 = b_0 <= b_1 <= ... <= b_m = len of the tensor slots."""
    return (0,) + tuple(cuts) + (len(letters),)


def apply_slot_transposition(braiding, x, i):
    """Braid tensor slots i and i+1 (1-indexed) of each term of x."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        b = slot_bounds(letters, cuts)
        lo, mid, hi = b[i - 1], b[i], b[i + 1]
        a_deg, b_deg = mid - lo, hi - mid
        img = apply_beta_letters(braiding, a_deg, b_deg, letters[lo:hi])
        new_cuts = list(cuts)
        new_cuts[i - 1] = lo + b_deg
        for (pw, _), s in img.terms.items():
            out.add_term((letters[:lo] + pw + letters[hi:],
                          tuple(new_cuts)), s * c)
    return out


def apply_block_lift(braiding, w, x):
    """T^beta_w for w permuting the tensor slots of x (slot count = w.n)."""
    from .braid import perm_reduced_word
    for i in reversed(perm_reduced_word(w)):
        x = apply_slot_transposition(braiding, x, i)
    return x


def apply_beta_pair(braiding, x):
    """beta on T(V) (x) T(V): braid across the single cut of each term."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        if len(cuts) != 1:
            raise ValueError("apply_beta_pair expects one cut")
        i = cuts[0]
        j = len(letters) - i
        img = apply_beta_letters(braiding, i, j, letters)
        for (pw, _), s in img.terms.items():
            out.add_term((pw, (j,)), s * c)
    return out


# -- braided coproduct on the pair coalgebra ------------------------------

def delta_beta(braiding, x):
    """Delta_beta = (id (x) beta (x) id)(delta (x) delta) on one-cut terms.

    Input terms have one cut; output terms have three.
    """
    out = Element()
    for (letters, cuts), c in x.terms.items():
        if len(cuts) != 1:
            raise ValueError("delta_beta expects one cut")
        cut = cuts[0]
        u, v = letters[:cut], letters[cut:]
        for a in range(len(u) + 1):
            u1, u2 = u[:a], u[a:]
            for bpos in range(len(v) + 1):
                v1, v2 = v[:bpos], v[bpos:]
                img = apply_beta_letters(braiding, len(u2), len(v1), u2 + v1)
                for (mw, _), s in img.terms.items():
                    word = u1 + mw + v2
                    ncuts = (len(u1), len(u1) + len(v1),
                             len(u1) + len(v1) + len(u2))
                    out.add_term((word, ncuts), s * c)
    return out


def _first_factor_delta_beta(braiding, x, reduced):
    """Apply Delta_beta (or its reduced form) to the first pair factor."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        prefix_len = cuts[1] if len(cuts) >= 2 else len(letters)
        first = Element.basis(letters[:prefix_len], (cuts[0],), c)
        rest_letters = letters[prefix_len:]
        rest_cuts = cuts[1:]
        expanded = delta_beta(braiding, first)
        if reduced:
            for (fl, fc), s in first.terms.items():
                # subtract 1_C (x) x and x (x) 1_C
                expanded.add_term((fl, (0, 0, fc[0])), -s)
                expanded.add_term((fl, (fc[0], len(fl), len(fl))), -s)
        for (fl, fc), s in expanded.terms.items():
            out.add_term((fl + rest_letters, fc + rest_cuts), s)
    return out


def delta_beta_iter(braiding, x, n, reduced=False):
    """Delta_beta^{(n)} (or reduced): pair element -> (pair)^{(x) n+1}.

    Input terms have one cut; output terms have 2n+1 cuts.
    """
    if n == 0:
        return x
    cur = x
    for _ in range(n):
        cur = _first_factor_delta_beta(braiding, cur, reduced)
    return cur


def delta_beta_via_w(braiding, x, n):
    """T^beta_{w_{n+1}} o (delta^{(n)})^{(x) 2} on a pair element."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        if len(cuts) != 1:
            raise ValueError("expects one cut")
        cut = cuts[0]
        u = Element.basis(letters[:cut], (), c)
        v = Element.basis(letters[cut:])
        du = delta_iter(u, n)
        dv = delta_iter(v, n)
        for (ul, uc), a in du.terms.items():
            for (vl, vc), b in dv.terms.items():
                word = ul + vl
                cts = uc + (len(ul),) + tuple(p + len(ul) for p in vc)
                out.add_term((word, cts), a * b)
    return apply_block_lift(braiding, w_block(n + 1), out)


def delta_n_coproduct(braiding, x, n):
    """Prop 2.2 power coproduct Delta_{beta,n} = T^beta_{w_n^{-1}} delta^{xn}.

    Input: element of T(V)^{(x) n} (n-1 cuts).  Output: 2n-1 cuts.
    """
    out = Element()
    for (letters, cuts), c in x.terms.items():
        bounds = slot_bounds(letters, cuts)
        pieces = [Element.basis(letters[bounds[t]:bounds[t + 1]])
                  for t in range(n)]
        acc = [((), (), c)]
        for piece in pieces:
            dp = deconcatenate(piece)
            nxt = []
            for (wl, wc, s) in acc:
                for (pl, pc), b in dp.terms.items():
                    nxt.append((wl + pl,
                                wc + (len(wl) + pc[0], len(wl) + len(pl)),
                                s * b))
            acc = nxt
        for (wl, wc, s) in acc:
            out.add_term((wl, wc[:-1]), s)
    return apply_block_lift(braiding, w_block(n).inverse(), out)


# -- symmetrizers ----------------------------------------------------------

def symmetrizer_image(k, braiding, sign=1):
    """Operator sum of (sign)^{l(w)} T_w over S_k, as a LinMap."""
    from .braid import braid_lift
    space = braiding.space
    perms = _all_perms(k)

    def column(word):
        acc = Element()
        for w in perms:
            img = braid_lift_apply(braiding, w, word)
            if sign < 0 and w.inversions() % 2:
                img = -img
            acc = acc + img
        return acc

    return LinMap.tabulate(space, k, column)


def _all_perms(k):
    from itertools import permutations
    return [Perm(p) for p in permutations(range(1, k + 1))]


# -- power structures (Prop 2.2) ------------------------------------------

class InvalidBase(ValueError):
    pass


def power_product(i, mult, braiding):
    """Product on A^{(x) i}: multiply componentwise after the w_i braid.

    Returns a function on plain words of degree 2i (concatenated pair).
    """
    def prod(letters, coeff=None):
        x = Element.basis(letters, (), coeff)
        y = apply_letter_lift(braiding, w_block(i), x)
        out = Element()
        for (wl, _), c in y.terms.items():
            acc = Element.basis((), (), c)
            for t in range(i):
                pair = wl[2 * t:2 * t + 2]
                factor = mult.apply_word(pair)
                acc = tensor_elements(acc, factor)
            for key, s in acc.terms.items():
                out.add_term(key, s)
        return out
    return prod


def power_coproduct(i, comult, braiding):
    """Coproduct on A^{(x) i}: T_{w_i^{-1}} after componentwise comult."""
    def coprod(letters, coeff=None):
        out = Element()
        acc = Element.basis((), (), coeff if coeff is not None
                            else Scalar.one())
        for t in range(i):
            factor = comult.apply_word(letters[t:t + 1])
            acc = tensor_elements(acc, factor)
        y = apply_letter_lift(braiding, w_block(i).inverse(), acc)
        return y
    return coprod


def apply_letter_lift(braiding, w, x):
    """T^sigma_w at the letter level on plain elements."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        img = braid_lift_apply(braiding, w, letters)
        for (iw, _), s in img.terms.items():
            out.add_term((iw, cuts), s * c)
    return out


# -- Def 2.1 checks --------------------------------------------------------

def check_yb_product_rows(space, mult, braiding):
    """The two product rows of the Def 2.1 YB algebra diagram on V^{(x)3}.

    Returns failures as (row, word, lhs, rhs).
    """
    sig = braiding.fwd
    failures = []
    for word in space.words(3):
        x = Element.basis(word)
        # sigma(m (x) id) = (id (x) m) sigma_1 sigma_2
        lhs = apply_at(sig, 2, 0, apply_at(mult, 2, 0, x))
        rhs = apply_at(mult, 2, 1,
                       apply_at(sig, 2, 0, apply_at(sig, 2, 1, x)))
        if lhs != rhs:
            failures.append(("product-row-1", word, lhs, rhs))
        # sigma(id (x) m) = (m (x) id) sigma_2 sigma_1
        lhs = apply_at(sig, 2, 0, apply_at(mult, 2, 1, x))
        rhs = apply_at(mult, 2, 0,
                       apply_at(sig, 2, 1, apply_at(sig, 2, 0, x)))
        if lhs != rhs:
            failures.append(("product-row-2", word, lhs, rhs))
    return failures


def check_yb_algebra(space, mult, unit, braiding):
    """Def 2.1 YB algebra diagram on a single space; list of failures."""
    failures = check_yb_product_rows(space, mult, braiding)
    sig = braiding.fwd
    for j in range(space.dim):
        x = Element.basis((j,))
        left = apply_at(sig, 2, 0, tensor_elements(unit, x))
        if left != tensor_elements(x, unit):
            failures.append(("unit-row-1", (j,), left, None))
        right = apply_at(sig, 2, 0, tensor_elements(x, unit))
        if right != tensor_elements(unit, x):
            failures.append(("unit-row-2", (j,), right, None))
    return failures


def check_yb_coalgebra(space, comult, counit_map, braiding):
    """Def 2.1 YB coalgebra diagram on a single space; list of failures."""
    failures = []
    sig = braiding.fwd
    for word in space.words(2):
        x = Element.basis(word)
        y = apply_at(sig, 2, 0, x)
        # sigma_1 sigma_2 (Delta (x) id) = (id (x) Delta) sigma
        lhs = apply_at(sig, 2, 0,
                       apply_at(sig, 2, 1, apply_at(comult, 1, 0, x)))
        rhs = apply_at(comult, 1, 1, y)
        if lhs != rhs:
            failures.append(("coproduct-row-1", word, lhs, rhs))
        # sigma_2 sigma_1 (id (x) Delta) = (Delta (x) id) sigma
        lhs = apply_at(sig, 2, 1,
                       apply_at(sig, 2, 0, apply_at(comult, 1, 1, x)))
        rhs = apply_at(comult, 1, 0, y)
        if lhs != rhs:
            failures.append(("coproduct-row-2", word, lhs, rhs))
        # counit rows: (eps (x) id) sigma = id (x) eps and its mirror
        left = apply_at(counit_map, 1, 0, y)
        expect = apply_at(counit_map, 1, 1, x)
        if left != expect:
            failures.append(("counit-row-1", word, left, expect))
        right = apply_at(counit_map, 1, 1, y)
        expect = apply_at(counit_map, 1, 0, x)
        if right != expect:
            failures.append(("counit-row-2", word, right, expect))
    return failures


# -- graded YB algebra check for products on T(V) --------------------------

def check_tensor_yb_product(product, braiding, i, j, k):
    """Def 2.1 product rows for a (possibly inhomogeneous) product on T(V).

    `product` maps two plain Elements to a plain Element.  Returns failures
    as (row, word, lhs, rhs) with results carrying one cut.
    """
    failures = []
    space = braiding.space
    for u in space.words(i):
        for v in space.words(j):
            for w in space.words(k):
                # row 1: beta(prod (x) id) = (id (x) prod) beta_1 beta_2
                p = product(Element.basis(u), Element.basis(v))
                lhs = Element()
                for (pw, _), c in p.terms.items():
                    img = apply_beta_letters(braiding, len(pw), k, pw + w)
                    for (zl, _), s in img.terms.items():
                        lhs.add_term((zl, (k,)), s * c)
                mid = Element.basis(u + v + w, (i, i + j))
                mid = apply_slot_transposition(braiding, mid, 2)
                mid = apply_slot_transposition(braiding, mid, 1)
                rhs = Element()
                for (zl, zc), c in mid.terms.items():
                    left = zl[:zc[0]]
                    p2 = product(Element.basis(zl[zc[0]:zc[1]]),
                                 Element.basis(zl[zc[1]:]))
                    for (pw, _), s in p2.terms.items():
                        rhs.add_term((left + pw, (len(left),)), s * c)
                if lhs != rhs:
                    failures.append(("row-1", (u, v, w), lhs, rhs))
                # row 2: beta(id (x) prod) = (prod (x) id) beta_2 beta_1
                p = product(Element.basis(v), Element.basis(w))
                lhs = Element()
                for (pw, _), c in p.terms.items():
                    img = apply_beta_letters(braiding, i, len(pw), u + pw)
                    for (zl, _), s in img.terms.items():
                        lhs.add_term((zl, (len(pw),)), s * c)
                mid = Element.basis(u + v + w, (i, i + j))
                mid = apply_slot_transposition(braiding, mid, 1)
                mid = apply_slot_transposition(braiding, mid, 2)
                rhs = Element()
                for (zl, zc), c in mid.terms.items():
                    tail = zl[zc[1]:]
                    p2 = product(Element.basis(zl[:zc[0]]),
                                 Element.basis(zl[zc[0]:zc[1]]))
                    for (pw, _), s in p2.terms.items():
                        rhs.add_term((pw + tail, (len(pw),)), s * c)
                if lhs != rhs:
                    failures.append(("row-2", (u, v, w), lhs, rhs))
    return failures


def check_tensor_yb_coproduct(braiding, p, q, r):
    """Def 2.1 coalgebra rows for the quantum coproduct on T(V).

    Checks the (p, q | r) and mirror components of Remark 3.2's coalgebra.
    """
    failures = []
    space = braiding.space
    for x in space.words(p + q):
        for y in space.words(r):
            # row 1: sigma_1 sigma_2 (Delta (x) id) = (id (x) Delta) beta
            cop = quantum_coproduct(Element.basis(x), braiding)
            cop = Element({k: c for k, c in cop.terms.items()
                           if k[1] == (p,)})
            lhs = Element()
            for (cl, cc), c in cop.terms.items():
                e = Element.basis(cl + y, (p, p + q), c)
                e = apply_slot_transposition(braiding, e, 2)
                e = apply_slot_transposition(braiding, e, 1)
                lhs = lhs + e
            flip = apply_beta_letters(braiding, p + q, r, x + y)
            rhs = Element()
            for (fl, _), c in flip.terms.items():
                cop2 = quantum_coproduct(Element.basis(fl[r:], (), c),
                                         braiding)
                for (cl, cc), s in cop2.terms.items():
                    if cc == (p,):
                        rhs.add_term((fl[:r] + cl, (r, r + p)), s)
            if lhs != rhs:
                failures.append(("corow-1", (x, y, p), lhs, rhs))
    return failures
