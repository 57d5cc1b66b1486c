"""Verdicts and first failing cases of the two-sided identity checks.

check_reports_golden.json maps each case below to {identity: [ok, first
failing case]} for the Report a check returns, or to the text an invalid
construction raises ("ok" when it constructs).  The cases cover the
fixtures of conftest.py and planted faults; the witnesses' two sides are
not pinned, only which case of which identity fails first.
"""

import json
from pathlib import Path

from conftest import (dual_numbers_twoyb, flip_braiding, graded_base,
                      split_product, symbolic_diagonal, sweedler_h4,
                      unshuffle_components, zero_base)
from ybalg.binfty import QBStructure, TwoYB, YBBase, qb_validate
from ybalg.braid import Braiding, check_yang_baxter
from ybalg.catalog import (WedgeAlgebra, diagonal_braiding,
                           exterior_braiding, group_algebra_hopf,
                           qflip_compat_check)
from ybalg.hopf import yd_adjoint, yd_braiding, yd_regular
from ybalg.linear import Element, LinMap, Space
from ybalg.scalars import Scalar, parse_scalar
from ybalg.tensoralg import (check_tensor_yb_coproduct,
                             check_tensor_yb_product, check_yb_algebra,
                             check_yb_coalgebra, check_yb_product_rows,
                             qshuffle_product)

GOLDEN = Path(__file__).with_name("check_reports_golden.json")


def _broken_map():
    """An invertible map on a 2-space that fails the Yang-Baxter equation."""
    sp = Space(["a", "b"])
    cols = {w: Element.basis((w[1], w[0])) for w in sp.words(2)}
    cols[(0, 1)] = Element.basis((1, 0), coeff=Scalar.q_power(1))
    cols[(0, 0)] = Element.basis((0, 0)) + Element.basis((1, 1))
    return sp, LinMap(2, cols)


def _forced_braiding():
    """A braiding whose map is replaced by the broken one before any lift,
    while its caches are empty, so braid lifts run on the broken map."""
    sp, fwd = _broken_map()
    b = Braiding(sp, LinMap.identity(sp, 2))
    b.fwd = fwd
    return b


def _mismatched_shuffle():
    """The shuffle of one diagonal braiding, checked against another."""
    d = diagonal_braiding([[parse_scalar(e) for e in row] for row in
                           [["q^2", "q^-1"], ["q^-1", "q^2"]]])
    return lambda x, y: qshuffle_product(x, y, d)


def _wedge_fault(attr, subsets, image):
    """WedgeAlgebra(3) with one column of `attr` sent to a wrong monomial."""
    wa = WedgeAlgebra(3)
    f = getattr(wa, attr)
    cols = dict(f.columns)
    cols[tuple(wa.index[s] for s in subsets)] = Element.basis(
        tuple(wa.index[s] for s in image))
    setattr(wa, attr, LinMap(f.in_degree, cols))
    return wa


def _raises(build):
    try:
        build()
    except ValueError as e:
        return str(e)
    return "ok"


def _triples(bound):
    return [(i, j, k) for i in range(1, bound + 1)
            for j in range(1, bound + 1) for k in range(1, bound + 1)
            if i + j + k <= bound]


def _cases():
    cases = {}
    braidings = {"flip-2": flip_braiding(2),
                 "diagonal-2": symbolic_diagonal(2),
                 "diagonal-3": symbolic_diagonal(3),
                 "exterior-2": exterior_braiding(2),
                 "exterior-3": exterior_braiding(3),
                 "qflip-2": WedgeAlgebra(2).braiding}
    for name, b in braidings.items():
        cases["ybe/" + name] = lambda b=b: check_yang_baxter(b.fwd, b.space)
    cases["ybe/broken"] = lambda: check_yang_baxter(*_broken_map()[::-1])

    forced = _forced_braiding()
    ext = exterior_braiding(2)
    shuffles = [("exterior-2", ext, 4), ("forced", forced, 4),
                ("diagonal-2", symbolic_diagonal(2), 4)]
    for name, b, bound in shuffles:
        prod = split_product(lambda x, y, b=b: qshuffle_product(x, y, b))
        components = unshuffle_components(b)
        for t in _triples(bound):
            label = "%s/%d,%d,%d" % ((name,) + t)
            cases["tensor-product/" + label] = \
                lambda b=b, prod=prod, t=t: check_tensor_yb_product(
                    prod, b, *t)
            cases["tensor-coproduct/" + label] = \
                lambda b=b, c=components, t=t: check_tensor_yb_coproduct(
                    c, b, *t)
    mismatched = split_product(_mismatched_shuffle())
    for t in _triples(4):
        cases["tensor-product/mismatched/%d,%d,%d" % t] = \
            lambda t=t: check_tensor_yb_product(mismatched, ext, *t)

    g = graded_base()
    sd = symbolic_diagonal(2)
    planted = LinMap(2, {(0, 0): Element.basis((1,))})
    cases["product-rows/graded"] = \
        lambda: check_yb_product_rows(g.mult, g.braiding)
    cases["product-rows/planted"] = \
        lambda: check_yb_product_rows(planted, sd)
    cases["product-rows/planted-right"] = lambda: check_yb_product_rows(
        LinMap(2, {(1, 1): Element.basis((0,))}), sd)

    h2 = group_algebra_hopf(2)
    dual = dual_numbers_twoyb()
    h4 = sweedler_h4()
    algebras = {
        "dual-numbers": (dual.star, dual.unit, dual.braiding),
        "adjoint-z2": (h2.mult, h2.unit, yd_braiding(yd_adjoint(h2))),
        "adjoint-h4": (h4.mult, h4.unit, yd_braiding(yd_adjoint(h4))),
        "dual-numbers-diagonal": (dual.star, dual.unit, sd),
        "dual-numbers-unit-g1": (dual.star, Element.basis((1,)),
                                 dual.braiding),
    }
    for name, args in algebras.items():
        cases["yb-algebra/" + name] = lambda args=args: check_yb_algebra(
            *args)
    coalgebras = {
        "regular-z2": (h2.comult, h2.counit, yd_braiding(yd_regular(h2))),
        "regular-h4": (h4.comult, h4.counit, yd_braiding(yd_regular(h4))),
        "z2-diagonal": (h2.comult, h2.counit, sd),
    }
    for name, args in coalgebras.items():
        cases["yb-coalgebra/" + name] = lambda args=args: check_yb_coalgebra(
            *args)

    cases["qflip/2"] = lambda: qflip_compat_check(WedgeAlgebra(2))
    cases["qflip/3"] = lambda: qflip_compat_check(WedgeAlgebra(3))
    cases["qflip/wedge-fault"] = lambda: qflip_compat_check(
        _wedge_fault("wedge", [(1,), (2,)], [(1, 3)]))
    cases["qflip/coproduct-fault"] = lambda: qflip_compat_check(
        _wedge_fault("coproduct", [(1, 2)], [(1,), (3,)]))

    bad = QBStructure(ext, {(1, 1): planted}, degree_cap=4)
    bad_right = QBStructure(sd, {(1, 2): LinMap(3, {
        (0, 0, 1): Element.basis((1,))})}, degree_cap=4)
    towers = {"zero-base": zero_base(symbolic_diagonal(2)).qb_structure(4),
              "graded-base": g.qb_structure(4),
              "planted-11": bad, "planted-12": bad_right}
    for name, M in towers.items():
        cases["qb/" + name] = lambda M=M: qb_validate(M, 4)

    flip = flip_braiding(2)
    nonassoc = {w: Element.basis((w[0],)) for w in flip.space.words(2)}
    nonassoc[(1, 1)] = Element.basis((0,))
    messages = {
        "ybbase-planted": lambda: YBBase(planted, sd),
        "ybbase-planted-right": lambda: YBBase(
            LinMap(2, {(1, 1): Element.basis((0,))}), sd),
        "ybbase-graded": graded_base,
        "twoyb-dual-numbers": dual_numbers_twoyb,
        "twoyb-nonassociative": lambda: TwoYB(
            flip, LinMap(2, nonassoc), LinMap(2, nonassoc),
            Element.basis((0,))),
        "twoyb-nonunital": lambda: TwoYB(
            flip, dual.star, dual.dot, Element.basis((1,))),
        "twoyb-incompatible": lambda: TwoYB(
            sd, dual.star, dual.dot, dual.unit),
        "twoyb-dot-incompatible": lambda: TwoYB(
            dual.braiding, dual.star, h2.mult, dual.unit),
        "braiding-broken": lambda: Braiding(*_broken_map()),
        "braiding-wrong-inverse": lambda: Braiding(sd.space, sd.fwd, sd.fwd),
    }
    for name, build in messages.items():
        cases["message/" + name] = lambda build=build: _raises(build)
    return cases


def _summary(result):
    """{identity: [ok, first failing case]} of a Report, through JSON.

    A qb_validate witness is the bare failing word; every other witness is
    (case, lhs, rhs)."""
    if isinstance(result, str):
        return result
    out = {}
    for e in result.entries:
        w = e["witness"]
        if w is not None and not e["identity"].startswith(
                ("yb-", "assoc")):
            w = w[0]
        out[e["identity"]] = [e["ok"], w]
    return json.loads(json.dumps(out))


def test_check_reports_golden():
    expected = json.loads(GOLDEN.read_text())
    got = {name: _summary(run()) for name, run in _cases().items()}
    assert sorted(got) == sorted(expected)
    for name in sorted(expected):
        assert got[name] == expected[name], name
