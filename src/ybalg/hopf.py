"""Finite-dimensional Hopf algebras and the braidings they induce.

A Hopf algebra is presented by structure constants: sparse linear maps for
multiplication, comultiplication, counit, and antipode on a named basis.
Every Sweedler sum is a leg program: a chain of structure maps applied at
given legs of a multi-leg element and leg permutations, resolved once by
`linear._program` and run one pass per term; nothing is symbolic.

On top of this sit Yetter-Drinfel'd modules with their natural braiding
sigma_V, the four conjugation-style braidings on H itself, quasi-triangular
structures (R-matrices) with the induced coaction, and the tensor product of
two Yetter-Drinfel'd modules with its smash-type product, coproduct, and
braiding.
"""

from __future__ import annotations

from .braid import Braiding
from .linear import (Element, FormatError, LinMap, Report, Singular, Space,
                     _checked, _leg_rows, _legs, _on_basis, _point, _program,
                     element_from_obj, element_to_obj,
                     linmap_from_obj, linmap_to_obj, map_invert_exact,
                     read_field, tensor_elements)


class InvalidYD(ValueError):
    pass


class InvalidRMatrix(ValueError):
    pass


class PredicateFailed(ValueError):
    pass


class HopfPresentation:
    """Hopf algebra on a finite basis, given by structure-constant maps.

    mult: degree 2 -> 1, comult: 1 -> 2, counit: 1 -> 0 (empty word),
    antipode: 1 -> 1.
    """

    def __init__(self, space, mult, unit, comult, counit, antipode):
        self.space = space
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode


def _program_map(space, degree, *steps):
    """The leg program as a LinMap on the basis words of one degree."""
    run = _program(steps)
    return LinMap.tabulate(space, degree, lambda w: run(Element.basis(w)))


def hopf_validate(h):
    """Exhaustive structure-constant check of all Hopf axioms.

    Returns a Report with one entry per axiom; witnesses are
    (input word, lhs, rhs) triples on the first failing basis tuple.
    """
    # m, Delta, epsilon, S and the unit in the usual notation
    sp, m, d, e, s = h.space, h.mult, h.comult, h.counit, h.antipode
    u = _point(h.unit)
    report = Report()

    def check(name, degree, lhs, rhs):
        _leg_rows(report, [sp] * degree, [(name, lhs, rhs)])

    check("assoc", 3, [(m, 0), (m, 0)], [(m, 1), (m, 0)])
    check("unit", 1, [(u, 0), (m, 0)], [])
    check("unit-right", 1, [(u, 1), (m, 0)], [])
    check("coassoc", 1, [(d, 0), (d, 0)], [(d, 0), (d, 1)])
    check("counit", 1, [(d, 0), (e, 0)], [])
    check("counit-right", 1, [(d, 0), (e, 1)], [])
    # comultiplication is an algebra map: componentwise product with a flip
    check("comult-mult", 2, [(m, 0), (d, 0)],
          [(d, 1), (d, 0), [0, 2, 1, 3], (m, 2), (m, 0)])
    check("comult-unit", 0, [(u, 0), (d, 0)], [(u, 0), (u, 0)])
    check("counit-mult", 2, [(m, 0), (e, 0)], [(e, 1), (e, 0)])
    check("counit-unit", 0, [(u, 0), (e, 0)], [])
    check("antipode-left", 1, [(d, 0), (s, 0), (m, 0)], [(e, 0), (u, 0)])
    check("antipode-right", 1, [(d, 0), (s, 1), (m, 0)], [(e, 0), (u, 0)])
    return report


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


def yd_validate(m):
    """Module, comodule, and compatibility checks, plus the four optional
    (co)module-(co)algebra predicates when V carries the extra structure."""
    h, sp, hs = m.hopf, m.space, m.hopf.space
    mu, d, e, u = h.mult, h.comult, h.counit, _point(h.unit)
    a, co = m.action, m.coaction
    report = Report()

    # g.(h.v) = (gh).v and 1.v = v
    report.check("module", _on_basis(
        [hs, hs, sp], ([(a, 1), (a, 0)], [(mu, 0), (a, 0)]))
        + _on_basis([sp], ([(u, 0), (a, 0)], [])))
    # (Delta (x) id) rho = (id (x) rho) rho and (eps (x) id) rho = id
    report.check("comodule", _on_basis(
        [sp], ([(co, 0), (d, 0)], [(co, 0), (co, 1)]),
        ([(co, 0), (e, 0)], [])))
    # h_(1) v_(-1) (x) h_(2).v_(0) = (h_(1).v)_(-1) h_(2) (x) (h_(1).v)_(0)
    report.check("yd-compat", _on_basis([hs, sp], (
        [(d, 0), (co, 2), [0, 2, 1, 3], (mu, 0), (a, 1)],
        [(d, 0), [0, 2, 1], (a, 0), (co, 0), [0, 2, 1], (mu, 0)])))

    if m.algebra_on_V is not None:
        mult_v, unit_v = m.algebra_on_V
        uv = _point(unit_v)
        # h.(vw) = (h_(1).v)(h_(2).w) and h.1 = eps(h) 1; then rho is an
        # algebra map into H (x) V
        report.check("module-algebra", _on_basis([hs, sp, sp], (
            [(mult_v, 1), (a, 0)],
            [(d, 0), [0, 2, 1, 3], (a, 0), (a, 1), (mult_v, 0)]))
            + _on_basis([hs], ([(uv, 1), (a, 0)], [(e, 0), (uv, 0)])))
        report.check("comodule-algebra", _on_basis([sp, sp], (
            [(mult_v, 0), (co, 0)],
            [(co, 0), (co, 2), [0, 2, 1, 3], (mu, 0), (mult_v, 1)]))
            + _on_basis([], ([(uv, 0), (co, 0)], [(uv, 0), (u, 0)])))

    if m.coalgebra_on_V is not None:
        comult_v, counit_v = m.coalgebra_on_V
        # Delta(h.v) = h_(1).v_(1) (x) h_(2).v_(2) and eps(h.v) = eps(h)eps(v)
        report.check("module-coalgebra", _on_basis(
            [hs, sp],
            ([(a, 0), (comult_v, 0)],
             [(d, 0), (comult_v, 2), [0, 2, 1, 3], (a, 0), (a, 1)]),
            ([(a, 0), (counit_v, 0)], [(e, 0), (counit_v, 0)])))
        # v_(-1) (x) Delta(v_(0)) = v_(1)(-1) v_(2)(-1) (x) v_(1)(0) (x)
        # v_(2)(0), the product in H in display order; and
        # v_(-1) eps(v_(0)) = eps(v) 1
        report.check("comodule-coalgebra", _on_basis(
            [sp],
            ([(co, 0), (comult_v, 1)],
             [(comult_v, 0), (co, 0), (co, 2), [0, 2, 1, 3], (mu, 0)]),
            ([(co, 0), (counit_v, 1)], [(counit_v, 0), (u, 0)])))

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
    return Braiding(m.space, _program_map(
        m.space, 2, (m.coaction, 0), [0, 2, 1], (m.action, 0)))


def yd_adjoint(h):
    """H over itself: adjoint action x.y = x_(1) y S(x_(2)), coaction Delta.

    Carries the algebra structure of H; module-algebra and comodule-algebra
    predicates hold, and the induced braiding is the conjugation braiding
    that sends a (x) b to a_(1) b S(a_(2)) (x) a_(3).
    """
    action = _program_map(h.space, 2, (h.comult, 0), (h.antipode, 1),
                          [0, 2, 1], (h.mult, 1), (h.mult, 0))
    return YDModule(h, h.space, action, h.comult,
                    algebra_on_V=(h.mult, h.unit))


def yd_regular(h):
    """H over itself: regular action x.y = xy, coaction h_(1)S(h_(3)) (x) h_(2).

    Carries the coalgebra structure of H; module-coalgebra and
    comodule-coalgebra predicates hold, and the induced braiding sends
    a (x) b to a_(1) S(a_(3)) b (x) a_(2).
    """
    coaction = _program_map(h.space, 1, (h.comult, 0), (h.comult, 0),
                            (h.antipode, 2), [0, 2, 1], (h.mult, 0))
    return YDModule(h, h.space, h.mult, coaction,
                    coalgebra_on_V=(h.comult, h.counit))


def woronowicz_braiding(h, which):
    """The four conjugation-style braidings on H (x) H.

    which = "T":  a (x) b -> b_(2) (x) a S(b_(1)) b_(3)
    which = "T'": a (x) b -> b_(1) (x) S(b_(2)) a b_(3)
    which = "F":  a (x) b -> a_(1) S(a_(3)) b (x) a_(2)
    which = "F'": a (x) b -> a_(1) b S(a_(2)) (x) a_(3)

    Only the forward map is built: Braiding inverts it exactly, then checks
    the inverse and the YBE.
    """
    if which not in ("T", "T'", "F", "F'"):
        raise ValueError("which must be one of T, T', F, F'")
    m, d, S = h.mult, h.comult, h.antipode
    # leg programs on a (x) b; the comultiplications split b (legs 1..3)
    # or a (legs 0..2) into three Sweedler legs
    on_b, on_a = [(d, 1), (d, 1)], [(d, 0), (d, 0)]
    programs = {
        "T": on_b + [(S, 1), [2, 0, 1, 3], (m, 1), (m, 1)],
        "T'": on_b + [(S, 2), [1, 2, 0, 3], (m, 1), (m, 1)],
        "F": on_a + [(S, 2), [0, 2, 3, 1], (m, 0), (m, 0)],
        "F'": on_a + [(S, 1), [0, 3, 1, 2], (m, 0), (m, 0)],
    }
    return Braiding(h.space, _program_map(h.space, 2, *programs[which]))


# -- quasi-triangular structures -------------------------------------------

def _legwise_product(h, x, y, n):
    """Product of two n-leg elements in the algebra H^{(x)n}: tensor them,
    interleave the legs and multiply each pair."""
    order = [i for t in range(n) for i in (t, t + n)]
    return _legs(tensor_elements(x, y), order,
                 *[(h.mult, t) for t in range(n)])


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
        u = _point(h.unit)
        unit2 = tensor_elements(h.unit, h.unit)
        if _legwise_product(h, R, R_inv, 2) != unit2 \
                or _legwise_product(h, R_inv, R, 2) != unit2:
            raise InvalidRMatrix("R and R_inv are not mutually inverse")
        # R Delta(w) = Delta^op(w) R, the legs interleaved and multiplied
        r, m = _point(R), [(h.mult, 0), (h.mult, 1)]
        report = _leg_rows(Report(), [h.space], [(
            "conjugation", [(h.comult, 0), (r, 0), [0, 2, 1, 3], *m],
            [(h.comult, 0), (r, 2), [1, 2, 0, 3], *m])])
        if not report.ok:
            raise InvalidRMatrix("conjugation identity fails at %r"
                                 % (report.entries[0]["witness"][0],))
        # R_13, R_23 and R_12 in H^{(x)3}: the unit fills the missing leg
        r13, r23, r12 = (_legs(R, (u, t)) for t in (1, 0, 2))
        if _legs(R, (h.comult, 0)) != _legwise_product(h, r13, r23, 3):
            raise InvalidRMatrix(
                "comultiplication expansion on the first leg fails",)
        if _legs(R, (h.comult, 1)) != _legwise_product(h, r13, r12, 3):
            raise InvalidRMatrix(
                "comultiplication expansion on the second leg fails")

    @staticmethod
    def from_element(hopf, R):
        """Compute R^{-1} in H (x) H by exact linear algebra."""
        sp = hopf.space
        # right multiplication by R as a map on H (x) H
        right = LinMap.tabulate(sp, 2, lambda w: _legwise_product(
            hopf, Element.basis(w), R, 2))
        try:
            inv = map_invert_exact(right, sp)
        except Singular:
            raise InvalidRMatrix("R is not invertible in H (x) H")
        return RMatrix(hopf, R, inv.apply(tensor_elements(hopf.unit,
                                                          hopf.unit)))


def rmatrix_yd(r, space, action, algebra_on_V=None, coalgebra_on_V=None):
    """H-module plus coaction rho(m) = sum t_i (x) s_i.m, as a YD module."""
    coaction = _program_map(space, 1, (_point(r.R), 0), [1, 0, 2],
                            (action, 1))
    return YDModule(r.hopf, space, action, coaction,
                    algebra_on_V=algebra_on_V,
                    coalgebra_on_V=coalgebra_on_V)


# -- tensor product of two YD modules --------------------------------------

class SmashStructures:
    """Product, coproduct, and braiding on the tensor product space.

    `space` enumerates the product basis; `encode` (degree 2 -> 1) maps a
    V letter followed by a W letter to the product-space letter and
    `decode` (1 -> 2) splits it back.  `product` and `coproduct` are present
    only when both factors carry the corresponding validated structure.
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
    rep_v, rep_w = yd_validate(v), yd_validate(w)
    for name, rep in (("V", rep_v), ("W", rep_w)):
        for e in rep.entries:
            if not e["ok"]:
                raise PredicateFailed("%s on factor %s fails at %r"
                                      % (e["identity"], name, e["witness"]))

    nw = w.space.dim
    names = ["%s.%s" % (a, b) for a in v.space.basis_names
             for b in w.space.basis_names]
    vw_space = Space(names)
    encode = LinMap(2, {divmod(k, nw): Element.basis((k,))
                        for k in range(vw_space.dim)})
    decode = LinMap.tabulate(vw_space, 1,
                             lambda k: Element.basis(divmod(k[0], nw)))
    split2 = [(decode, 1), (decode, 0)]  # v (x) w (x) v' (x) w'
    join2 = [(encode, 2), (encode, 0)]

    def half_flip(coaction, action):
        # x (x) y (x) x' (x) y' -> x (x) y_(-1).x' (x) y_(0) (x) y'
        return [(coaction, 1), [0, 1, 3, 2, 4], (action, 1)]

    product = unit = None
    if v.algebra_on_V is not None and w.algebra_on_V is not None:
        mult_v, unit_v = v.algebra_on_V
        mult_w, unit_w = w.algebra_on_V
        product = _program_map(
            vw_space, 2, *split2, *half_flip(w.coaction, v.action),
            (mult_v, 0), (mult_w, 1), (encode, 0))
        unit = encode.apply(tensor_elements(unit_v, unit_w))

    coproduct = counit = None
    if v.coalgebra_on_V is not None and w.coalgebra_on_V is not None:
        comult_v, counit_v = v.coalgebra_on_V
        comult_w, counit_w = w.coalgebra_on_V
        # v (x) w -> (v_(1) (x) v_(2)(-1).w_(1)) (x) (v_(2)(0) (x) w_(2))
        coproduct = _program_map(
            vw_space, 1, (decode, 0), (comult_w, 1), (comult_v, 0),
            *half_flip(v.coaction, w.action), *join2)
        counit = _program_map(vw_space, 1, (decode, 0), (counit_w, 1),
                              (counit_v, 0))

    # braiding: theta' on the middle legs, sigma_V and sigma_W, then theta
    sigma_v = yd_braiding(v)
    sigma_w = yd_braiding(w)
    braiding = Braiding(vw_space, _program_map(
        vw_space, 2, *split2, *half_flip(w.coaction, v.action),
        (sigma_v.fwd, 0), (sigma_w.fwd, 2), *half_flip(v.coaction, w.action),
        *join2))
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


def _algebra_from_obj(obj, space):
    """(mult, unit) on `space`, read from the fields of obj."""
    return (read_field(obj, "mult", linmap_from_obj, [space] * 2, [space]),
            read_field(obj, "unit", element_from_obj, [space]))


def _coalgebra_from_obj(obj, space):
    """(comult, counit) on `space`, read from the fields of obj."""
    return (read_field(obj, "comult", linmap_from_obj, [space], [space] * 2),
            read_field(obj, "counit", linmap_from_obj, [space], []))


def hopf_from_obj(obj):
    """The HopfPresentation of hopf_to_obj's JSON form; a malformed field
    raises linear.FormatError naming it."""
    H = Space(read_field(_checked(obj, dict), "basis", _checked, [str]))
    return HopfPresentation(
        H, *_algebra_from_obj(obj, H), *_coalgebra_from_obj(obj, H),
        read_field(obj, "antipode", linmap_from_obj, [H], [H]))


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
    """The YDModule of yd_to_obj's JSON form, where an algebra or coalgebra
    on V needs both its maps; a malformed field raises linear.FormatError."""
    V = Space(read_field(_checked(obj, dict), "basis", _checked, [str]))
    structures = []
    for keys, read in ((("mult", "unit"), _algebra_from_obj),
                       (("comult", "counit"), _coalgebra_from_obj)):
        if (keys[0] in obj) != (keys[1] in obj):
            raise FormatError("", "must give %s and %s together" % keys)
        structures.append(read(obj, V) if keys[0] in obj else None)
    hopf = read_field(obj, "hopf", hopf_from_obj)
    H = hopf.space
    return YDModule(hopf, V,
                    read_field(obj, "action", linmap_from_obj, [H, V], [V]),
                    read_field(obj, "coaction", linmap_from_obj, [V], [H, V]),
                    *structures)
