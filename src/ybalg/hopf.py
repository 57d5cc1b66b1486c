"""Finite-dimensional Hopf algebras and the braidings they induce.

A Hopf algebra is presented by structure constants: sparse linear maps for
multiplication, comultiplication, counit, and antipode on a named basis.
Sweedler sums are evaluated by explicit expansion of the comultiplication
columns; nothing is symbolic.

On top of this sit Yetter-Drinfel'd modules with their natural braiding
sigma_V, the four conjugation-style braidings on H itself, quasi-triangular
structures (R-matrices) with the induced coaction, and the tensor product of
two Yetter-Drinfel'd modules with its smash-type product, coproduct, and
braiding.
"""

from __future__ import annotations

from .braid import Braiding
from .linear import (Element, LinMap, Report, Singular, Space, apply_at,
                     element_from_obj, element_to_obj, linmap_from_obj,
                     linmap_to_obj, map_invert_exact, tensor_elements)
from .scalars import Scalar


class InvalidYD(ValueError):
    pass


class AntipodeNotInvertible(ValueError):
    pass


class InvalidRMatrix(ValueError):
    pass


class PredicateFailed(ValueError):
    pass


class HopfPresentation:
    """Hopf algebra on a finite basis, given by structure-constant maps.

    mult: degree 2 -> 1, comult: 1 -> 2, counit: 1 -> 0 (empty word),
    antipode: 1 -> 1.  The antipode inverse is computed on demand.
    """

    def __init__(self, space, mult, unit, comult, counit, antipode,
                 antipode_inv=None):
        self.space = space
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.antipode_inv = antipode_inv

    def antipode_inverse(self):
        if self.antipode_inv is None:
            try:
                self.antipode_inv = map_invert_exact(self.antipode,
                                                     self.space, 1)
            except Singular:
                raise AntipodeNotInvertible(
                    "antipode is singular on this presentation")
        return self.antipode_inv

    def sweedler(self, x, legs):
        """Iterated comultiplication of a one-leg element into `legs` legs."""
        cur = x
        for _ in range(legs - 1):
            cur = apply_at(self.comult, 1, 0, cur)
        return cur

    def product_fold(self, x):
        """Fold every multi-leg term of x down to a single leg."""
        out = Element()
        for (letters, cuts), c in x.terms.items():
            if cuts:
                raise ValueError("expected an uncut element")
            cur = Element.basis(letters, coeff=c)
            while len(next(iter(cur.terms))[0]) > 1:
                cur = apply_at(self.mult, 2, 0, cur)
                if cur.is_zero():
                    break
            if cur.is_zero():
                continue
            if next(iter(cur.terms))[0] == ():
                # scalar times the unit of H
                for (_, _), a in cur.terms.items():
                    out = out + self.unit.scale(a)
            else:
                out = out + cur
        return out

    def mul(self, x, y):
        """Product of two one-leg elements."""
        return self.mult.apply(tensor_elements(x, y))

    def counit_scalar(self, x):
        res = self.counit.apply(x)
        return res.terms.get(((), ()), Scalar.zero())

    def apply_antipode(self, x):
        return self.antipode.apply(x)


def _on_basis(space, degree, lhs, rhs):
    """(word, lhs(x), rhs(x)) cases over the basis words x of one degree."""
    for w in space.words(degree):
        x = Element.basis(w)
        yield w, lhs(x), rhs(x)


def hopf_validate(h):
    """Exhaustive structure-constant check of all Hopf axioms.

    Returns a Report with one entry per axiom; witnesses are
    (input word, lhs, rhs) triples on the first failing basis tuple.
    """
    # m, Delta, epsilon and S in the usual notation
    sp, m, d, e, s = h.space, h.mult, h.comult, h.counit, h.antipode
    report = Report()
    report.check("assoc", _on_basis(
        sp, 3, lambda x: apply_at(m, 2, 0, apply_at(m, 2, 0, x)),
        lambda x: apply_at(m, 2, 0, apply_at(m, 2, 1, x))))
    report.check("unit", _on_basis(
        sp, 1, lambda x: h.mul(h.unit, x), lambda x: x))
    report.check("unit-right", _on_basis(
        sp, 1, lambda x: h.mul(x, h.unit), lambda x: x))
    report.check("coassoc", _on_basis(
        sp, 1, lambda x: apply_at(d, 1, 0, d.apply(x)),
        lambda x: apply_at(d, 1, 1, d.apply(x))))
    report.check("counit", _on_basis(
        sp, 1, lambda x: apply_at(e, 1, 0, d.apply(x)), lambda x: x))
    report.check("counit-right", _on_basis(
        sp, 1, lambda x: apply_at(e, 1, 1, d.apply(x)), lambda x: x))
    # comultiplication is an algebra map: componentwise product with a flip
    report.check("comult-mult", _on_basis(
        sp, 2, lambda x: d.apply(apply_at(m, 2, 0, x)),
        lambda x: apply_at(m, 2, 0, apply_at(m, 2, 2, _flip_legs(
            apply_at(d, 1, 0, apply_at(d, 1, 1, x)), 1)))))
    report.record("comult-unit",
                  d.apply(h.unit) == tensor_elements(h.unit, h.unit))
    report.check("counit-mult", _on_basis(
        sp, 2, lambda x: e.apply(apply_at(m, 2, 0, x)),
        lambda x: apply_at(e, 1, 0, apply_at(e, 1, 1, x))))
    report.record("counit-unit", h.counit_scalar(h.unit) == Scalar.one())
    report.check("antipode-left", _on_basis(
        sp, 1, lambda x: apply_at(m, 2, 0, apply_at(s, 1, 0, d.apply(x))),
        lambda x: h.unit.scale(h.counit_scalar(x))))
    report.check("antipode-right", _on_basis(
        sp, 1, lambda x: apply_at(m, 2, 0, apply_at(s, 1, 1, d.apply(x))),
        lambda x: h.unit.scale(h.counit_scalar(x))))
    return report


def _flip_legs(x, pos):
    """Swap tensor legs pos and pos+1 of every term."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        lt = list(letters)
        lt[pos], lt[pos + 1] = lt[pos + 1], lt[pos]
        out.add_term((tuple(lt), cuts), c)
    return out


class YDModule:
    """Module-comodule over a Hopf algebra with the compatibility condition.

    action: (h, v) words -> V elements; coaction: (v,) -> two-leg (h, v)
    elements.  Optional algebra/coalgebra structure on V enables the
    module-algebra style predicates and the smash constructions.
    """

    def __init__(self, hopf, space, action, coaction,
                 algebra_on_V=None, coalgebra_on_V=None):
        self.hopf = hopf
        self.space = space
        self.action = action
        self.coaction = coaction
        self.algebra_on_V = algebra_on_V
        self.coalgebra_on_V = coalgebra_on_V

    def act(self, h_elem, v_elem):
        """Extend the action to arbitrary one-leg elements of H and V."""
        return self.action.apply(tensor_elements(h_elem, v_elem))


def yd_validate(m):
    """Module, comodule, and compatibility checks, plus the four optional
    (co)module-(co)algebra predicates when V carries the extra structure."""
    h, sp = m.hopf, m.space
    report = Report()

    def module_cases():
        for hw in h.space.words(2):
            ab = h.mult.apply_word(hw)
            for vw in sp.words(1):
                v = Element.basis(vw)
                lhs = m.act(Element.basis(hw[:1]),
                            m.act(Element.basis(hw[1:]), v))
                yield (hw + vw, lhs, m.act(ab, v))
        for vw in sp.words(1):
            v = Element.basis(vw)
            yield (vw, m.act(h.unit, v), v)

    report.check("module", module_cases())

    def comodule_cases():
        for vw in sp.words(1):
            rho = m.coaction.apply_word(vw)
            lhs = apply_at(h.comult, 1, 0, rho)
            rhs = apply_at(m.coaction, 1, 1, rho)
            yield (vw, lhs, rhs)
            yield (vw, apply_at(h.counit, 1, 0, rho), Element.basis(vw))

    report.check("comodule", comodule_cases())

    def yd_cases():
        for hw in h.space.words(1):
            dh = h.comult.apply_word(hw)
            for vw in sp.words(1):
                lhs = Element()
                rhs = Element()
                for (pair, _), c in dh.terms.items():
                    h1, h2 = pair
                    rho = m.coaction.apply_word(vw)
                    for (rv, _), a in rho.terms.items():
                        prod = h.mult.apply_word((h1, rv[0]))
                        img = m.action.apply_word((h2, rv[1]))
                        lhs = lhs + tensor_elements(prod, img).scale(c * a)
                    acted = m.action.apply_word((h1, vw[0]))
                    for (aw, _), b in acted.terms.items():
                        rho2 = m.coaction.apply_word(aw)
                        for (rv, _), a in rho2.terms.items():
                            prod = h.mult.apply_word((rv[0], h2))
                            rhs = rhs + tensor_elements(
                                prod, Element.basis(rv[1:])).scale(c * b * a)
                yield (hw + vw, lhs, rhs)

    report.check("yd-compat", yd_cases())

    if m.algebra_on_V is not None:
        mult_v, unit_v = m.algebra_on_V

        def malg_cases():
            for hw in h.space.words(1):
                dh = h.comult.apply_word(hw)
                for vw in sp.words(2):
                    prod = mult_v.apply_word(vw)
                    lhs = m.act(Element.basis(hw), prod)
                    rhs = Element()
                    for (pair, _), c in dh.terms.items():
                        a = m.action.apply_word((pair[0], vw[0]))
                        b = m.action.apply_word((pair[1], vw[1]))
                        rhs = rhs + mult_v.apply(
                            tensor_elements(a, b)).scale(c)
                    yield (hw + vw, lhs, rhs)
            for hw in h.space.words(1):
                x = Element.basis(hw)
                yield (hw, m.act(x, unit_v),
                       unit_v.scale(h.counit_scalar(x)))

        report.check("module-algebra", malg_cases())

        def calg_cases():
            for vw in sp.words(2):
                prod = mult_v.apply_word(vw)
                lhs = m.coaction.apply(prod)
                rhs = Element()
                ra = m.coaction.apply_word(vw[:1])
                rb = m.coaction.apply_word(vw[1:])
                for (pa, _), c in ra.terms.items():
                    for (pb, _), d in rb.terms.items():
                        hh = h.mult.apply_word((pa[0], pb[0]))
                        vv = mult_v.apply_word((pa[1], pb[1]))
                        rhs = rhs + tensor_elements(hh, vv).scale(c * d)
                yield (vw, lhs, rhs)
            yield ((), m.coaction.apply(unit_v),
                   tensor_elements(h.unit, unit_v))

        report.check("comodule-algebra", calg_cases())

    if m.coalgebra_on_V is not None:
        comult_v, counit_v = m.coalgebra_on_V

        def mcoalg_cases():
            for hw in h.space.words(1):
                dh = h.comult.apply_word(hw)
                for vw in sp.words(1):
                    acted = m.action.apply_word((hw[0], vw[0]))
                    lhs = comult_v.apply(acted)
                    rhs = Element()
                    dv = comult_v.apply_word(vw)
                    for (pair, _), c in dh.terms.items():
                        for (cv, _), d in dv.terms.items():
                            a = m.action.apply_word((pair[0], cv[0]))
                            b = m.action.apply_word((pair[1], cv[1]))
                            rhs = rhs + tensor_elements(a, b).scale(c * d)
                    yield (hw + vw, lhs, rhs)
                    lhs2 = counit_v.apply(acted)
                    eps = h.counit_scalar(Element.basis(hw)) \
                        * counit_v.apply_word(vw).terms.get(
                            ((), ()), Scalar.zero())
                    yield (hw + vw, lhs2,
                           Element.basis((), coeff=eps) if not eps.is_zero()
                           else Element.zero())

        report.check("module-coalgebra", mcoalg_cases())

        def ccoalg_cases():
            for vw in sp.words(1):
                rho = m.coaction.apply_word(vw)
                lhs = apply_at(comult_v, 1, 1, rho)
                rhs = Element()
                dv = comult_v.apply_word(vw)
                for (cv, _), d in dv.terms.items():
                    r1 = m.coaction.apply_word(cv[:1])
                    r2 = m.coaction.apply_word(cv[1:])
                    for (p1, _), a in r1.terms.items():
                        for (p2, _), b in r2.terms.items():
                            # product order in H follows the display
                            hh = h.mult.apply_word((p1[0], p2[0]))
                            rhs = rhs + tensor_elements(
                                hh, Element.basis((p1[1], p2[1]))).scale(
                                    d * a * b)
                yield (vw, lhs, rhs)
                lhs2 = Element()
                for (rv, _), a in rho.terms.items():
                    eps = counit_v.apply_word(rv[1:]).terms.get(
                        ((), ()), Scalar.zero())
                    lhs2 = lhs2 + Element.basis(rv[:1]).scale(a * eps)
                eps_v = counit_v.apply_word(vw).terms.get(((), ()),
                                                          Scalar.zero())
                yield (vw, lhs2, h.unit.scale(eps_v))

        report.check("comodule-coalgebra", ccoalg_cases())

    return report


def yd_braiding(m):
    """The natural braiding sigma(v (x) w) = sum v_(-1).w (x) v_(0)."""
    rep = yd_validate(m)
    core = [e for e in rep.entries
            if e["identity"] in ("module", "comodule", "yd-compat")]
    bad = [e for e in core if not e["ok"]]
    if bad:
        raise InvalidYD("axiom %s fails at %r"
                        % (bad[0]["identity"], bad[0]["witness"]))
    cols = {}
    for vw in m.space.words(2):
        rho = m.coaction.apply_word(vw[:1])
        res = Element()
        for (rv, _), a in rho.terms.items():
            acted = m.action.apply_word((rv[0], vw[1]))
            res = res + tensor_elements(acted,
                                        Element.basis(rv[1:])).scale(a)
        if not res.is_zero():
            cols[vw] = res
    return Braiding(m.space, LinMap(2, cols))


def yd_adjoint(h):
    """H over itself: adjoint action x.y = x_(1) y S(x_(2)), coaction Delta.

    Carries the algebra structure of H; module-algebra and comodule-algebra
    predicates hold, and the induced braiding is the conjugation braiding
    that sends a (x) b to a_(1) b S(a_(2)) (x) a_(3).
    """
    cols = {}
    for hw in h.space.words(2):
        dh = h.comult.apply_word(hw[:1])
        res = Element()
        for (pair, _), c in dh.terms.items():
            sx = h.antipode.apply_word(pair[1:])
            mid = h.mul(Element.basis(hw[1:]), sx)
            res = res + h.mul(Element.basis(pair[:1]), mid).scale(c)
        if not res.is_zero():
            cols[hw] = res
    action = LinMap(2, cols)
    coaction = LinMap(1, {w: h.comult.apply_word(w)
                          for w in h.space.words(1)})
    return YDModule(h, h.space, action, coaction,
                    algebra_on_V=(h.mult, h.unit))


def yd_regular(h):
    """H over itself: regular action x.y = xy, coaction h_(1)S(h_(3)) (x) h_(2).

    Carries the coalgebra structure of H; module-coalgebra and
    comodule-coalgebra predicates hold, and the induced braiding sends
    a (x) b to a_(1) S(a_(3)) b (x) a_(2).
    """
    action = LinMap(2, {w: h.mult.apply_word(w) for w in h.space.words(2)})
    cols = {}
    for hw in h.space.words(1):
        d3 = h.sweedler(Element.basis(hw), 3)
        res = Element()
        for (tri, _), c in d3.terms.items():
            s3 = h.antipode.apply_word(tri[2:])
            left = h.mul(Element.basis(tri[:1]), s3)
            res = res + tensor_elements(left,
                                        Element.basis(tri[1:2])).scale(c)
        if not res.is_zero():
            cols[hw] = res
    coaction = LinMap(1, cols)
    return YDModule(h, h.space, action, coaction,
                    coalgebra_on_V=(h.comult, h.counit))


def woronowicz_braiding(h, which):
    """The four conjugation-style braidings on H (x) H.

    which = "T":  a (x) b -> b_(2) (x) a S(b_(1)) b_(3)
    which = "T'": a (x) b -> b_(1) (x) S(b_(2)) a b_(3)
    which = "F":  a (x) b -> a_(1) S(a_(3)) b (x) a_(2)
    which = "F'": a (x) b -> a_(1) b S(a_(2)) (x) a_(3)

    Inverses use the closed formulas (S^{-1} where required); the braiding
    constructor re-verifies both composition identities and the YBE.
    """
    if which not in ("T", "T'", "F", "F'"):
        raise ValueError("which must be one of T, T', F, F'")
    S = h.antipode
    Sinv = h.antipode_inverse()

    def col(which, a, b):
        res = Element()
        if which in ("T", "T'"):
            d3 = h.sweedler(Element.basis((b,)), 3)
            for (tri, _), c in d3.terms.items():
                b1, b2, b3 = tri
                if which == "T":
                    right = h.product_fold(tensor_elements(
                        Element.basis((a,)),
                        tensor_elements(S.apply_word((b1,)),
                                        Element.basis((b3,)))))
                    res = res + tensor_elements(Element.basis((b2,)),
                                                right).scale(c)
                else:
                    right = h.product_fold(tensor_elements(
                        S.apply_word((b2,)),
                        Element.basis((a, b3))))
                    res = res + tensor_elements(Element.basis((b1,)),
                                                right).scale(c)
        else:
            d3 = h.sweedler(Element.basis((a,)), 3)
            for (tri, _), c in d3.terms.items():
                a1, a2, a3 = tri
                if which == "F":
                    left = h.product_fold(tensor_elements(
                        Element.basis((a1,)),
                        tensor_elements(S.apply_word((a3,)),
                                        Element.basis((b,)))))
                    res = res + tensor_elements(left,
                                                Element.basis((a2,))).scale(c)
                else:
                    left = h.product_fold(tensor_elements(
                        Element.basis((a1, b)), S.apply_word((a2,))))
                    res = res + tensor_elements(left,
                                                Element.basis((a3,))).scale(c)
        return res

    def inv_col(which, a, b):
        res = Element()
        if which in ("T", "T'"):
            d3 = h.sweedler(Element.basis((a,)), 3)
            for (tri, _), c in d3.terms.items():
                a1, a2, a3 = tri
                if which == "T":
                    left = h.product_fold(tensor_elements(
                        Element.basis((b,)),
                        tensor_elements(Sinv.apply_word((a3,)),
                                        Element.basis((a1,)))))
                    res = res + tensor_elements(left,
                                                Element.basis((a2,))).scale(c)
                else:
                    left = h.product_fold(tensor_elements(
                        Element.basis((a3, b)), Sinv.apply_word((a2,))))
                    res = res + tensor_elements(left,
                                                Element.basis((a1,))).scale(c)
        else:
            d3 = h.sweedler(Element.basis((b,)), 3)
            for (tri, _), c in d3.terms.items():
                b1, b2, b3 = tri
                if which == "F":
                    # F = T^{-1} over the opposite algebra, so invert back
                    right = h.product_fold(tensor_elements(
                        Element.basis((b3,)),
                        tensor_elements(Sinv.apply_word((b1,)),
                                        Element.basis((a,)))))
                    res = res + tensor_elements(Element.basis((b2,)),
                                                right).scale(c)
                else:
                    # F' = (T')^{-1} over the co-opposite coalgebra
                    right = h.product_fold(tensor_elements(
                        Sinv.apply_word((b2,)),
                        Element.basis((a, b1))))
                    res = res + tensor_elements(Element.basis((b3,)),
                                                right).scale(c)
        return res

    fwd_cols, inv_cols = {}, {}
    for w in h.space.words(2):
        f = col(which, w[0], w[1])
        g = inv_col(which, w[0], w[1])
        if not f.is_zero():
            fwd_cols[w] = f
        if not g.is_zero():
            inv_cols[w] = g
    return Braiding(h.space, LinMap(2, fwd_cols), LinMap(2, inv_cols))


# -- quasi-triangular structures -------------------------------------------

def _pair_product(h, x, y):
    """Componentwise product of two two-leg elements of H (x) H."""
    out = Element()
    for (pw, _), c in x.terms.items():
        for (qw, _), d in y.terms.items():
            left = h.mult.apply_word((pw[0], qw[0]))
            right = h.mult.apply_word((pw[1], qw[1]))
            out = out + tensor_elements(left, right).scale(c * d)
    return out


def _triple_product(h, x, y):
    """Componentwise product of two three-leg elements of H^{(x)3}."""
    out = Element()
    for (pw, _), c in x.terms.items():
        for (qw, _), d in y.terms.items():
            cur = Element.unit()
            for t in range(3):
                cur = tensor_elements(cur, h.mult.apply_word((pw[t], qw[t])))
            out = out + cur.scale(c * d)
    return out


def _embed_three(h, r, legs):
    """Place a two-leg element into the two stated legs of H^{(x)3}."""
    unit = h.unit
    out = Element()
    for (pw, _), c in r.terms.items():
        parts = [unit, unit, unit]
        parts[legs[0]] = Element.basis(pw[:1])
        parts[legs[1]] = Element.basis(pw[1:])
        cur = parts[0]
        for p in parts[1:]:
            cur = tensor_elements(cur, p)
        out = out + cur.scale(c)
    return out


class RMatrix:
    """Invertible element of H (x) H making H quasi-triangular.

    Construction validates the conjugation identity against the flipped
    comultiplication and both comultiplication expansion identities, plus
    invertibility; failures raise InvalidRMatrix with a witness.
    """

    def __init__(self, hopf, R, R_inv):
        self.hopf = hopf
        self.R = R
        self.R_inv = R_inv
        h = hopf
        unit2 = tensor_elements(h.unit, h.unit)
        if _pair_product(h, R, R_inv) != unit2 \
                or _pair_product(h, R_inv, R) != unit2:
            raise InvalidRMatrix("R and R_inv are not mutually inverse")
        for w in h.space.words(1):
            dx = h.comult.apply_word(w)
            lhs = _pair_product(h, R, dx)
            rhs = _pair_product(h, _flip_legs(dx, 0), R)
            if lhs != rhs:
                raise InvalidRMatrix(
                    "conjugation identity fails at %r" % (w,))
        lhs = apply_at(h.comult, 1, 0, R)
        rhs = _triple_product(h, _embed_three(h, R, (0, 2)),
                              _embed_three(h, R, (1, 2)))
        if lhs != rhs:
            raise InvalidRMatrix(
                "comultiplication expansion on the first leg fails",)
        lhs = apply_at(h.comult, 1, 1, R)
        rhs = _triple_product(h, _embed_three(h, R, (0, 2)),
                              _embed_three(h, R, (0, 1)))
        if lhs != rhs:
            raise InvalidRMatrix(
                "comultiplication expansion on the second leg fails")

    @staticmethod
    def from_element(hopf, R):
        """Compute R^{-1} in H (x) H by exact linear algebra."""
        sp = hopf.space
        mul = LinMap(4, {w: _pair_product(hopf, Element.basis(w[:2]),
                                          Element.basis(w[2:]))
                         for w in sp.words(4)})
        # right multiplication by R as a map on H (x) H
        cols = {}
        for w in sp.words(2):
            cols[w] = mul.apply(tensor_elements(Element.basis(w), R))
        try:
            inv = map_invert_exact(LinMap(2, cols), sp, 2)
        except Singular:
            raise InvalidRMatrix("R is not invertible in H (x) H")
        return RMatrix(hopf, R, inv.apply(tensor_elements(hopf.unit,
                                                          hopf.unit)))


def rmatrix_yd(r, space, action, algebra_on_V=None, coalgebra_on_V=None):
    """H-module plus coaction rho(m) = sum t_i (x) s_i.m, as a YD module."""
    h = r.hopf
    cols = {}
    for vw in space.words(1):
        res = Element()
        for (pw, _), c in r.R.terms.items():
            acted = action.apply_word((pw[0],) + vw)
            res = res + tensor_elements(Element.basis(pw[1:]),
                                        acted).scale(c)
        if not res.is_zero():
            cols[vw] = res
    coaction = LinMap(1, cols)
    return YDModule(h, space, action, coaction,
                    algebra_on_V=algebra_on_V,
                    coalgebra_on_V=coalgebra_on_V)


# -- tensor product of two YD modules --------------------------------------

class SmashStructures:
    """Product, coproduct, and braiding on the tensor product space.

    `space` enumerates the product basis; `encode` maps a (V word, W word)
    pair of single letters to the product-space letter.  `product` and
    `coproduct` are present only when both factors carry the corresponding
    validated structure.
    """

    def __init__(self, space, encode, decode, product, unit,
                 coproduct, counit, braiding):
        self.space = space
        self.encode = encode
        self.decode = decode
        self.product = product
        self.unit = unit
        self.coproduct = coproduct
        self.counit = counit
        self.braiding = braiding


def smash_structures(v, w):
    """Combine two YD modules over the same Hopf algebra.

    Builds the product (v (x) w)(v' (x) w') = v (w_(-1).v') (x) w_(0) w'
    when both factors are module/comodule-algebras, the dual coproduct when
    both are module/comodule-coalgebras, and always the braiding obtained by
    conjugating sigma_V (x) sigma_W with the two half-flips.  A present but
    failing predicate raises PredicateFailed naming it.
    """
    if v.hopf is not w.hopf and v.hopf.space is not w.hopf.space:
        raise ValueError("both modules must live over the same Hopf algebra")
    h = v.hopf
    rep_v, rep_w = yd_validate(v), yd_validate(w)
    for name, rep in (("V", rep_v), ("W", rep_w)):
        for e in rep.entries:
            if not e["ok"]:
                raise PredicateFailed("%s on factor %s fails at %r"
                                      % (e["identity"], name, e["witness"]))

    nv, nw = v.space.dim, w.space.dim
    names = ["%s.%s" % (a, b) for a in v.space.basis_names
             for b in w.space.basis_names]
    vw_space = Space(names)

    def encode(i, j):
        return i * nw + j

    def decode(k):
        return divmod(k, nw)

    def enc_pair(x, y):
        """Tensor a V element and a W element into one product-space leg."""
        out = Element()
        for (a, _), c in x.terms.items():
            for (b, _), d in y.terms.items():
                out.add_term(((encode(a[0], b[0]),), ()), c * d)
        return out

    product = unit = None
    if v.algebra_on_V is not None and w.algebra_on_V is not None:
        mult_v, unit_v = v.algebra_on_V
        mult_w, unit_w = w.algebra_on_V
        cols = {}
        for word in vw_space.words(2):
            (i1, j1), (i2, j2) = decode(word[0]), decode(word[1])
            res = Element()
            rho = w.coaction.apply_word((j1,))
            for (rv, _), c in rho.terms.items():
                acted = v.action.apply_word((rv[0], i2))
                left = mult_v.apply(tensor_elements(Element.basis((i1,)),
                                                    acted))
                right = mult_w.apply_word((rv[1], j2))
                res = res + enc_pair(left, right).scale(c)
            if not res.is_zero():
                cols[word] = res
        product = LinMap(2, cols)
        unit = enc_pair(unit_v, unit_w)

    coproduct = counit = None
    if v.coalgebra_on_V is not None and w.coalgebra_on_V is not None:
        comult_v, counit_v = v.coalgebra_on_V
        comult_w, counit_w = w.coalgebra_on_V
        cols = {}
        ccols = {}
        for word in vw_space.words(1):
            i, j = decode(word[0])
            res = Element()
            dv = comult_v.apply_word((i,))
            dw = comult_w.apply_word((j,))
            for (cv, _), c in dv.terms.items():
                r2 = v.coaction.apply_word(cv[1:])
                for (rv, _), a in r2.terms.items():
                    for (cw, _), d in dw.terms.items():
                        acted = w.action.apply_word((rv[0], cw[0]))
                        left = enc_pair(Element.basis(cv[:1]), acted)
                        right = enc_pair(Element.basis(rv[1:]),
                                         Element.basis(cw[1:]))
                        res = res + tensor_elements(left, right).scale(
                            c * a * d)
            if not res.is_zero():
                cols[word] = res
            eps = counit_v.apply_word((i,)).terms.get(((), ()),
                                                      Scalar.zero()) \
                * counit_w.apply_word((j,)).terms.get(((), ()),
                                                      Scalar.zero())
            if not eps.is_zero():
                ccols[word] = Element.basis((), coeff=eps)
        coproduct = LinMap(1, cols)
        counit = LinMap(1, ccols)

    # braiding: theta' on the middle legs, sigma_V and sigma_W, then theta
    sigma_v = yd_braiding(v)
    sigma_w = yd_braiding(w)
    cols = {}
    for word in vw_space.words(2):
        (i1, j1), (i2, j2) = decode(word[0]), decode(word[1])
        res = Element()
        rho_w = w.coaction.apply_word((j1,))
        for (rw, _), c in rho_w.terms.items():
            mid_v = v.action.apply_word((rw[0], i2))
            for (mv, _), a in mid_v.terms.items():
                sv = sigma_v.fwd.apply_word((i1, mv[0]))
                sw = sigma_w.fwd.apply_word((rw[1], j2))
                for (pv, _), b in sv.terms.items():
                    for (pw, _), d in sw.terms.items():
                        rho_v = v.coaction.apply_word(pv[1:])
                        for (rv, _), e in rho_v.terms.items():
                            acted = w.action.apply_word((rv[0], pw[0]))
                            for (aw, _), f in acted.terms.items():
                                res.add_term(
                                    ((encode(pv[0], aw[0]),
                                      encode(rv[1], pw[1])), ()),
                                    c * a * b * d * e * f)
        if not res.is_zero():
            cols[word] = res
    braiding = Braiding(vw_space, LinMap(2, cols))
    return SmashStructures(vw_space, encode, decode, product, unit,
                           coproduct, counit, braiding)


# -- serialization ---------------------------------------------------------

def hopf_to_obj(h):
    return {"basis": list(h.space.basis_names),
            "mult": linmap_to_obj(h.mult),
            "unit": element_to_obj(h.unit),
            "comult": linmap_to_obj(h.comult),
            "counit": linmap_to_obj(h.counit),
            "antipode": linmap_to_obj(h.antipode)}


def hopf_from_obj(obj):
    space = Space(obj["basis"])
    return HopfPresentation(space,
                            linmap_from_obj(obj["mult"], 2),
                            element_from_obj(obj["unit"]),
                            linmap_from_obj(obj["comult"], 1),
                            linmap_from_obj(obj["counit"], 1),
                            linmap_from_obj(obj["antipode"], 1))


def yd_to_obj(m):
    obj = {"hopf": hopf_to_obj(m.hopf),
           "basis": list(m.space.basis_names),
           "action": linmap_to_obj(m.action),
           "coaction": linmap_to_obj(m.coaction)}
    if m.algebra_on_V is not None:
        obj["mult"] = linmap_to_obj(m.algebra_on_V[0])
        obj["unit"] = element_to_obj(m.algebra_on_V[1])
    if m.coalgebra_on_V is not None:
        obj["comult"] = linmap_to_obj(m.coalgebra_on_V[0])
        obj["counit"] = linmap_to_obj(m.coalgebra_on_V[1])
    return obj


def yd_from_obj(obj):
    hopf = hopf_from_obj(obj["hopf"])
    space = Space(obj["basis"])
    algebra = None
    if "mult" in obj:
        algebra = (linmap_from_obj(obj["mult"], 2),
                   element_from_obj(obj["unit"]))
    coalgebra = None
    if "comult" in obj:
        coalgebra = (linmap_from_obj(obj["comult"], 1),
                     linmap_from_obj(obj["counit"], 1))
    return YDModule(hopf, space,
                    linmap_from_obj(obj["action"], 2),
                    linmap_from_obj(obj["coaction"], 1),
                    algebra_on_V=algebra, coalgebra_on_V=coalgebra)
