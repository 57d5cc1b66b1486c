"""Hopf presentations, Yetter-Drinfel'd data, and induced braidings."""

import pytest

from conftest import sweedler_h4
from ybalg.braid import check_yang_baxter
from ybalg.catalog import group_algebra_hopf
from ybalg.hopf import (HopfPresentation, InvalidRMatrix, InvalidYD, RMatrix,
                        PredicateFailed, YDModule, _program_map,
                        hopf_from_obj, hopf_to_obj,
                        hopf_validate, rmatrix_yd, smash_structures,
                        woronowicz_braiding, yd_adjoint, yd_braiding,
                        yd_from_obj, yd_regular, yd_to_obj, yd_validate)
from ybalg.linear import (Element, LinMap, Space, map_invert_exact,
                          tensor_elements)
from ybalg.scalars import Scalar, parse_scalar
from ybalg.tensoralg import check_yb_algebra, check_yb_coalgebra


def sign_action(h):
    """g acts by the algebra automorphism g -> -g on K[Z/2]."""
    return LinMap(2, {(0, 0): Element.basis((0,)),
                      (0, 1): Element.basis((1,)),
                      (1, 0): Element.basis((0,)),
                      (1, 1): Element.basis((1,), coeff=Scalar.from_int(-1))})


def swap_action(h):
    """g acts by the coalgebra automorphism swapping the two group-likes."""
    return LinMap(2, {(0, 0): Element.basis((0,)),
                      (0, 1): Element.basis((1,)),
                      (1, 0): Element.basis((1,)),
                      (1, 1): Element.basis((0,))})


def z2_rmatrix():
    h = group_algebra_hopf(2)
    half = parse_scalar("1/2")
    R = (Element.basis((0, 0), coeff=half)
         + Element.basis((0, 1), coeff=half)
         + Element.basis((1, 0), coeff=half)
         + Element.basis((1, 1), coeff=-half))
    return h, R


def test_group_algebra_axioms():
    for n in (1, 2, 3):
        rep = hopf_validate(group_algebra_hopf(n))
        assert rep.ok, rep.failures()


def test_corrupted_comult_fails_with_witness():
    h = group_algebra_hopf(2)
    comult = LinMap(1, {(0,): Element.basis((0, 0)),
                        (1,): Element.basis((1, 0))})
    bad = HopfPresentation(h.space, h.mult, h.unit, comult, h.counit,
                           h.antipode)
    rep = hopf_validate(bad)
    assert not rep.ok
    failing = {e["identity"] for e in rep.failures()}
    assert failing & {"coassoc", "counit", "counit-right"}
    assert all(e["witness"] is not None for e in rep.failures())


def test_antipode_inverse():
    h = group_algebra_hopf(3)
    sinv = map_invert_exact(h.antipode, h.space)
    ident = LinMap.identity(h.space, 1)
    assert h.antipode.compose(sinv).equals(ident, h.space, 1)
    assert sinv.compose(h.antipode).equals(ident, h.space, 1)


@pytest.mark.parametrize("which", ["T", "T'", "F", "F'"])
@pytest.mark.parametrize("n", [2, 3])
def test_woronowicz_braidings_validate(which, n):
    h = group_algebra_hopf(n)
    b = woronowicz_braiding(h, which)
    assert check_yang_baxter(b.fwd, b.space).ok
    ident = LinMap.identity(b.space, 2)
    assert b.fwd.compose(b.inv).equals(ident, b.space, 2)
    assert b.inv.compose(b.fwd).equals(ident, b.space, 2)


def closed_form_inverse(h, which):
    """The closed formula for the inverse of woronowicz_braiding(h, which),
    with S^{-1} where required, as a leg program on a (x) b; the
    comultiplications split b (legs 1..3) or a (legs 0..2) into three
    Sweedler legs."""
    m, d, Si = h.mult, h.comult, map_invert_exact(h.antipode, h.space)
    on_b, on_a = [(d, 1), (d, 1)], [(d, 0), (d, 0)]
    programs = {
        # a (x) b -> b S^{-1}(a_(3)) a_(1) (x) a_(2)
        "T": on_a + [(Si, 2), [3, 2, 0, 1], (m, 0), (m, 0)],
        # a (x) b -> a_(3) b S^{-1}(a_(2)) (x) a_(1)
        "T'": on_a + [(Si, 1), [2, 3, 1, 0], (m, 0), (m, 0)],
        # F = T^{-1} over the opposite algebra, so invert back:
        # a (x) b -> b_(2) (x) b_(3) S^{-1}(b_(1)) a
        "F": on_b + [(Si, 1), [2, 3, 1, 0], (m, 1), (m, 1)],
        # F' = (T')^{-1} over the co-opposite coalgebra:
        # a (x) b -> b_(3) (x) S^{-1}(b_(2)) a b_(1)
        "F'": on_b + [(Si, 2), [3, 2, 0, 1], (m, 1), (m, 1)],
    }
    return _program_map(h.space, 2, *programs[which])


@pytest.mark.parametrize("which", ["T", "T'", "F", "F'"])
@pytest.mark.parametrize("build", [lambda: group_algebra_hopf(2),
                                   lambda: group_algebra_hopf(3),
                                   sweedler_h4], ids=["Z2", "Z3", "H4"])
def test_woronowicz_inverse_is_the_closed_form(build, which):
    # the exact inverse Braiding computes is the closed formula
    h = build()
    b = woronowicz_braiding(h, which)
    assert b.inv.equals(closed_form_inverse(h, which), h.space, 2)


def test_woronowicz_group_like_goldens():
    # on a commutative group algebra all four conjugations reduce to the flip
    h = group_algebra_hopf(3)
    for which in ("T", "T'", "F", "F'"):
        b = woronowicz_braiding(h, which)
        for (i, j) in h.space.words(2):
            assert b.fwd.apply_word((i, j)) == Element.basis((j, i))


def test_woronowicz_rejects_unknown():
    with pytest.raises(ValueError):
        woronowicz_braiding(group_algebra_hopf(2), "G")


def test_yd_adjoint_braiding_is_fprime():
    h = group_algebra_hopf(2)
    m = yd_adjoint(h)
    assert yd_validate(m).ok
    sigma = yd_braiding(m)
    fprime = woronowicz_braiding(h, "F'")
    assert sigma.fwd.equals(fprime.fwd, h.space, 2)


def test_yd_regular_braiding_is_f():
    h = group_algebra_hopf(2)
    m = yd_regular(h)
    assert yd_validate(m).ok
    sigma = yd_braiding(m)
    f = woronowicz_braiding(h, "F")
    assert sigma.fwd.equals(f.fwd, h.space, 2)


def test_yd_compat_failure_raises():
    # the regular action with the comultiplication as coaction is not YD
    h = group_algebra_hopf(2)
    action = LinMap(2, {w: h.mult.apply_word(w) for w in h.space.words(2)})
    coaction = LinMap(1, {(i,): Element.basis((i, i)) for i in range(2)})
    m = YDModule(h, h.space, action, coaction)
    rep = yd_validate(m)
    assert not rep.ok
    assert any(e["identity"] == "yd-compat" for e in rep.failures())
    with pytest.raises(InvalidYD):
        yd_braiding(m)


def test_rmatrix_identities_and_inverse():
    h, R = z2_rmatrix()
    r = RMatrix.from_element(h, R)
    # for this R the inverse is R itself
    assert r.R_inv == R


def test_rmatrix_rejects_corruption():
    h, R = z2_rmatrix()
    bad = R + Element.basis((1, 1))  # flips the last coefficient's sign
    with pytest.raises(InvalidRMatrix):
        RMatrix.from_element(h, bad)
    noninv = Element.basis((0, 0)) - Element.basis((1, 1))
    with pytest.raises(InvalidRMatrix):
        RMatrix.from_element(h, noninv)


def test_rmatrix_conjugation_witness_is_the_first_failing_letter():
    # on Sweedler's H4, R = 1 (x) 1 is its own inverse, and R Delta(w) =
    # Delta^op(w) R holds for 1 and the group-like g but fails at x
    h = sweedler_h4()
    one = tensor_elements(h.unit, h.unit)
    with pytest.raises(InvalidRMatrix,
                       match=r"^conjugation identity fails at \(2,\)$"):
        RMatrix(h, one, one)


def test_rmatrix_yd_sign_action():
    h, R = z2_rmatrix()
    r = RMatrix.from_element(h, R)
    m = rmatrix_yd(r, h.space, sign_action(h),
                   algebra_on_V=(h.mult, h.unit))
    rep = yd_validate(m)
    assert rep.ok, rep.failures()
    sigma = yd_braiding(m)
    assert check_yb_algebra(h.mult, h.unit, sigma).ok


def test_rmatrix_yd_swap_action():
    h, R = z2_rmatrix()
    r = RMatrix.from_element(h, R)
    m = rmatrix_yd(r, h.space, swap_action(h),
                   coalgebra_on_V=(h.comult, h.counit))
    rep = yd_validate(m)
    assert rep.ok, rep.failures()
    sigma = yd_braiding(m)
    assert check_yb_coalgebra(h.comult, h.counit, sigma).ok


def test_trivial_rmatrix_gives_flip():
    h = group_algebra_hopf(2)
    r = RMatrix.from_element(h, tensor_elements(h.unit, h.unit))
    m = rmatrix_yd(r, h.space, sign_action(h))
    for (i,) in h.space.words(1):
        assert m.coaction.apply_word((i,)) == Element.basis((0, i))
    sigma = yd_braiding(m)
    for w in h.space.words(2):
        assert sigma.fwd.apply_word(w) == Element.basis((w[1], w[0]))


def trivial_module(h):
    """One-dimensional trivial module/comodule with its algebra structure."""
    sp = Space(["v"])
    action = LinMap(2, {(i, 0): Element.basis((0,))
                        for i in range(h.space.dim)})
    coaction = LinMap(1, {(0,): Element.basis((0, 0))})
    mult = LinMap(2, {(0, 0): Element.basis((0,))})
    return YDModule(h, sp, action, coaction,
                    algebra_on_V=(mult, Element.basis((0,))))


def test_smash_product_associative():
    h = group_algebra_hopf(2)
    s = smash_structures(yd_adjoint(h), yd_adjoint(h))
    sp = s.space
    assert sp.dim == 4
    for w in sp.words(3):
        left = Element()
        for (mw, _), c in s.product.apply_word(w[:2]).terms.items():
            left = left + s.product.apply_word(mw + w[2:]).scale(c)
        right = Element()
        for (mw, _), c in s.product.apply_word(w[1:]).terms.items():
            right = right + s.product.apply_word(w[:1] + mw).scale(c)
        assert left == right
    assert check_yb_algebra(s.product, s.unit, s.braiding).ok
    assert s.coproduct is None and s.counit is None


def test_smash_trivial_factor_reduces():
    h = group_algebra_hopf(2)
    s = smash_structures(yd_adjoint(h), trivial_module(h))
    # W is one dimensional, so the product space is a copy of H
    assert s.space.dim == 2
    for w in s.space.words(2):
        assert s.product.apply_word(w) == h.mult.apply_word(w)


def test_smash_rejects_failing_predicate():
    h = group_algebra_hopf(2)
    action = LinMap(2, {w: h.mult.apply_word(w) for w in h.space.words(2)})
    m = yd_regular(h)
    bad = YDModule(h, h.space, action, m.coaction,
                   algebra_on_V=(h.mult, h.unit))
    with pytest.raises(PredicateFailed):
        smash_structures(bad, trivial_module(h))


def test_hopf_roundtrip():
    h = group_algebra_hopf(3)
    h2 = hopf_from_obj(hopf_to_obj(h))
    assert hopf_validate(h2).ok
    assert h2.mult.equals(h.mult, h.space, 2)
    assert h2.antipode.equals(h.antipode, h.space, 1)


def test_yd_roundtrip():
    m = yd_adjoint(group_algebra_hopf(2))
    m2 = yd_from_obj(yd_to_obj(m))
    assert yd_validate(m2).ok
    assert m2.action.equals(m.action, m.space, 2)
    assert m2.coaction.apply_word((1,)) == m.coaction.apply_word((1,))
    assert m2.algebra_on_V is not None and m2.coalgebra_on_V is None
