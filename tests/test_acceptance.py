"""End-to-end acceptance checks, one summary line per criterion.

Each test exercises one headline guarantee of the library at a fixed degree
bound with exact arithmetic, collects every violation, and prints a single
pass/fail line to the terminal before asserting.
"""

from itertools import product as iproduct

import pytest

from conftest import (all_reduced_words, dual_numbers_twoyb, flip_braiding,
                      graded_base, lift_word, negated,
                      quasi_shuffle_reference, split_product,
                      symbolic_diagonal, unshuffle_components, zero_base)
from test_hopf import sign_action, z2_rmatrix
from test_tensoralg import UNIT_SPLIT_KEPT, _mutant_kernel
from ybalg import tensoralg
from ybalg.binfty import from_2yb, antipode, qb_validate, star_product
from ybalg.braid import check_yang_baxter
from ybalg.catalog import (WedgeAlgebra, diagonal_braiding, exterior_braiding,
                           exterior_relations_check, group_algebra_hopf,
                           qflip_compat_check)
from ybalg.hopf import (RMatrix, hopf_validate, rmatrix_yd, smash_structures,
                        woronowicz_braiding, yd_adjoint, yd_braiding,
                        yd_regular, yd_validate)
from ybalg.linear import Element, LinMap, Space, tensor_elements
from ybalg.scalars import Scalar, parse_scalar
from ybalg.tensoralg import (check_tensor_yb_coproduct,
                             check_tensor_yb_product, check_yb_algebra,
                             check_yb_coalgebra, counit, deconcatenate,
                             delta_beta_iter, delta_beta_via_w,
                             nichols_basis, qshuffle_product)
from ybalg.binfty import YBBase


def report(capsys, num, label, failures):
    ok = not failures
    with capsys.disabled():
        print("criterion %2d (%s): %s" % (num, label,
                                          "PASS" if ok else "FAIL"))
    assert ok, failures[:3]


def words_upto(space, bound, least=0):
    for n in range(least, bound + 1):
        for w in space.words(n):
            yield w


def test_criterion_01_braidings_satisfy_ybe(capsys):
    failures = []

    def check(name, b):
        rep = check_yang_baxter(b.fwd, b.space)
        if not rep.ok:
            failures.append((name, rep.failures()[0]))

    check("flip", flip_braiding(2))
    for n in (2, 3):
        check("diagonal dim %d" % n, symbolic_diagonal(n))
        check("deformed flip N=%d" % n, exterior_braiding(n))
        check("signed flip N=%d" % n, WedgeAlgebra(n).braiding)
    for n in (2, 3):
        h = group_algebra_hopf(n)
        ident = LinMap.identity(h.space, 2)
        for which in ("T", "T'", "F", "F'"):
            b = woronowicz_braiding(h, which)
            check("conjugation %s on K[Z/%d]" % (which, n), b)
            if not b.fwd.compose(b.inv).equals(ident, b.space, 2) \
                    or not b.inv.compose(b.fwd).equals(ident, b.space, 2):
                failures.append(("inverse of %s on K[Z/%d]" % (which, n),
                                 None))
        for maker in (yd_adjoint, yd_regular):
            check("%s module braiding on K[Z/%d]" % (maker.__name__, n),
                  yd_braiding(maker(h)))
    report(capsys, 1, "Yang-Baxter equation for every stock braiding",
           failures)


def test_criterion_02_shuffle_algebra_rows(capsys):
    failures = []
    for name, b in (("deformed flip N=2", exterior_braiding(2)),
                    ("diagonal dim 2", symbolic_diagonal(2))):
        prod = lambda x, y, bb=b: qshuffle_product(x, y, bb)
        shuffle, components = split_product(prod), unshuffle_components(b)
        for i, j, k in iproduct(range(1, 4), repeat=3):
            if i + j + k > 5:
                continue
            rep = check_tensor_yb_product(shuffle, b, i, j, k)
            if not rep.ok:
                failures.append((name, "product rows", (i, j, k),
                                 rep.failures()[0]))
            rep = check_tensor_yb_coproduct(components, b, i, j, k)
            if not rep.ok:
                failures.append((name, "coproduct rows", (i, j, k),
                                 rep.failures()[0]))
        for du in range(1, 5):
            for dv in range(1, 6 - du):
                dw = 6 - du - dv
                if dw < 1:
                    continue
                for u in b.space.words(du):
                    for v in b.space.words(dv):
                        for w in b.space.words(dw):
                            x, y, z = (Element.basis(t) for t in (u, v, w))
                            lhs = prod(prod(x, y), z)
                            rhs = prod(x, prod(y, z))
                            if lhs != rhs:
                                failures.append((name, "associativity",
                                                 (u, v, w)))
    report(capsys, 2,
           "braided shuffle: compatibility rows and degree-6 associativity",
           failures)


def test_criterion_03_lifts_independent_of_reduced_word(capsys):
    failures = []
    b = exterior_braiding(2)
    from itertools import permutations
    for w in permutations(range(1, 5)):
        words = all_reduced_words(w)
        for letters in b.space.words(4):
            x = Element.basis(letters)
            ref = lift_word(b, words[0], x)
            for word in words[1:]:
                if lift_word(b, word, x) != ref:
                    failures.append((w, word, letters))
    report(capsys, 3,
           "braid lifts agree across all reduced words of every w in S_4",
           failures)


def test_criterion_04_iterated_coproduct_forms_agree(capsys):
    failures = []
    b = symbolic_diagonal(2)
    for d in range(1, 5):
        for letters in b.space.words(d):
            for cut in range(d + 1):
                x = Element.basis(letters, cuts=(cut,))
                for n in range(1, 4):
                    if delta_beta_iter(b, x, n) != delta_beta_via_w(b, x, n):
                        failures.append((letters, cut, n))
    report(capsys, 4,
           "braided coproduct iterates match their permutation form",
           failures)


def big_shuffle_base(depth=3):
    """Base whose letters are the braided shuffle monomials of low degree.

    The underlying braiding is block diagonal with the product weights; the
    base product is the shuffle, truncated to zero above the depth.
    """
    v0 = symbolic_diagonal(2)
    blocks = [w for n in range(1, depth + 1) for w in v0.space.words(n)]
    index = {w: i for i, w in enumerate(blocks)}
    space = Space(["E" + "".join(str(c + 1) for c in w) for w in blocks])

    def pair_weight(w1, w2):
        out = Scalar.one()
        for i in w1:
            for j in w2:
                out = out * v0.fwd.apply_word((i, j)).terms[
                    ((j, i), ())]
        return out

    cols = {}
    for a, w1 in enumerate(blocks):
        for b, w2 in enumerate(blocks):
            cols[(a, b)] = Element.basis((b, a), coeff=pair_weight(w1, w2))
    braiding = diagonal_braiding(
        [[pair_weight(w1, w2) for w2 in blocks] for w1 in blocks])

    def encode(x):
        out = Element()
        for (w, _), c in x.terms.items():
            out.add_term(((index[w],), ()), c)
        return out

    mcols = {}
    for a, w1 in enumerate(blocks):
        for b, w2 in enumerate(blocks):
            if len(w1) + len(w2) > depth:
                continue
            prod = qshuffle_product(Element.basis(w1), Element.basis(w2), v0)
            mcols[(a, b)] = encode(prod)
    base = YBBase(LinMap(2, mcols), braiding)
    return base, index, encode, pair_weight, v0, blocks


def test_criterion_05_quasi_shuffle_structures(capsys):
    failures = []
    structures = [("zero base", zero_base(symbolic_diagonal(2))),
                  ("graded base", graded_base())]
    for name, base in structures:
        M = base.qb_structure(degree_cap=5)
        report_m = qb_validate(M, 5)
        if not report_m.ok:
            failures.append((name, "tower identities",
                             report_m.failures()[0]))
        for du in range(0, 4):
            for dv in range(0, 4):
                for dw in range(0, 4):
                    if du + dv + dw > 5 or du + dv + dw == 0:
                        continue
                    for u in base.space.words(du):
                        for v in base.space.words(dv):
                            for w in base.space.words(dw):
                                x, y, z = (Element.basis(t)
                                           for t in (u, v, w))
                                lhs = star_product(M, star_product(M, x, y),
                                                   z)
                                rhs = star_product(M, x,
                                                   star_product(M, y, z))
                                if lhs != rhs:
                                    failures.append((name, "associativity",
                                                     (u, v, w)))
        for u in words_upto(base.space, 2):
            for v in words_upto(base.space, 2):
                x, y = Element.basis(u), Element.basis(v)
                if star_product(M, x, y) != \
                        quasi_shuffle_reference(x, y, base):
                    failures.append((name, "recursion", (u, v)))

    # closed low-degree displays over a base of shuffle-monomial letters
    base, index, encode, pw, v0, blocks = big_shuffle_base(3)
    M = base.qb_structure(degree_cap=3)
    I, J, K = (0,), (1,), (0, 1)
    eI, eJ, eK = (Element.basis((index[w],)) for w in (I, J, K))
    qIJ, qJK, qIK = pw(I, J), pw(J, K), pw(I, K)

    def sh(w1, w2):
        return encode(qshuffle_product(Element.basis(w1),
                                       Element.basis(w2), v0))

    got = star_product(M, eI, eJ)
    want = sh(I, J) + tensor_elements(eI, eJ) \
        + tensor_elements(eJ, eI).scale(qIJ)
    if got != want:
        failures.append(("display", "pair", None))

    got = star_product(M, tensor_elements(eI, eJ), eK)
    want = tensor_elements(eI, sh(J, K)) \
        + tensor_elements(sh(I, K), eJ).scale(qJK) \
        + tensor_elements(tensor_elements(eI, eJ), eK) \
        + tensor_elements(tensor_elements(eI, eK), eJ).scale(qJK) \
        + tensor_elements(tensor_elements(eK, eI), eJ).scale(qIK * qJK)
    if got != want:
        failures.append(("display", "left pair", None))

    got = star_product(M, eI, tensor_elements(eJ, eK))
    want = tensor_elements(sh(I, J), eK) \
        + tensor_elements(eJ, sh(I, K)).scale(qIJ) \
        + tensor_elements(tensor_elements(eI, eJ), eK) \
        + tensor_elements(tensor_elements(eJ, eI), eK).scale(qIJ) \
        + tensor_elements(tensor_elements(eJ, eK), eI).scale(qIJ * qIK)
    if got != want:
        failures.append(("display", "right pair", None))
    report(capsys, 5,
           "quasi-shuffle: tower identities, associativity, closed displays",
           failures)


def test_criterion_06_top_degree_is_shuffle(capsys):
    failures = []
    for name, base in (("zero base", zero_base(symbolic_diagonal(2))),
                       ("graded base", graded_base())):
        M = base.qb_structure(degree_cap=5)
        b = base.braiding
        for du in range(1, 5):
            for dv in range(1, 6 - du):
                for u in base.space.words(du):
                    for v in base.space.words(dv):
                        x, y = Element.basis(u), Element.basis(v)
                        top = star_product(M, x, y).component(du + dv)
                        if top != qshuffle_product(x, y, b):
                            failures.append((name, u, v))
    report(capsys, 6,
           "top degree of the induced product is the braided shuffle",
           failures)


def test_criterion_07_two_product_peeling(capsys):
    failures = []
    a = dual_numbers_twoyb()
    M = from_2yb(a, 4)
    if not qb_validate(M, 4).ok:
        failures.append(("tower identities", qb_validate(M, 4).failures()[0]))
    sp = a.space
    sigma = a.braiding.fwd
    ident = LinMap.identity(sp, 1)

    def fold3(f2, g2, elem, low_first):
        out = Element()
        for (w, _), c in elem.terms.items():
            if low_first:
                mid, rest, left = f2.apply_word(w[:2]), w[2:], True
            else:
                mid, rest, left = f2.apply_word(w[1:]), w[:1], False
            for (mw, _), mc in mid.terms.items():
                pair = tensor_elements(Element.basis(mw),
                                       Element.basis(rest)) if left else \
                    tensor_elements(Element.basis(rest), Element.basis(mw))
                out = out + g2.apply(pair).scale(mc * c)
        return out

    for u, v in sp.words(2):
        pair = Element.basis((u, v))
        want = a.star.apply(pair) - a.dot.apply(sigma.apply(pair)) \
            - a.dot.apply(pair)
        if M.component(1, 1).apply_word((u, v)) != want:
            failures.append(("component 1,1", (u, v)))
    for w in sp.words(3):
        s2 = ident.tensor(sigma).apply(Element.basis(w))
        s1 = sigma.tensor(ident).apply(Element.basis(w))
        got21 = M.component(2, 1)
        got21 = got21.apply_word(w) if got21 is not None else Element()
        want21 = fold3(a.dot, a.star, Element.basis(w), True) \
            - fold3(a.star, a.dot, Element.basis(w), False) \
            + fold3(a.dot, a.dot, s2, True) - fold3(a.star, a.dot, s2, True)
        if got21 != want21:
            failures.append(("component 2,1", w))
        got12 = M.component(1, 2)
        got12 = got12.apply_word(w) if got12 is not None else Element()
        want12 = fold3(a.dot, a.star, Element.basis(w), False) \
            - fold3(a.star, a.dot, Element.basis(w), True) \
            + fold3(a.dot, a.dot, s1, True) - fold3(a.star, a.dot, s1, False)
        if got12 != want12:
            failures.append(("component 1,2", w))
    report(capsys, 7,
           "two-product peeling reproduces the closed component formulas",
           failures)


def test_criterion_08_hopf_and_yd_constructions(capsys):
    failures = []
    for n in (1, 2, 3):
        rep = hopf_validate(group_algebra_hopf(n))
        if not rep.ok:
            failures.append(("K[Z/%d] axioms" % n, rep.failures()[0]))
    h = group_algebra_hopf(2)

    m = yd_adjoint(h)
    if not yd_validate(m).ok:
        failures.append(("adjoint module axioms", None))
    rep = check_yb_algebra(h.mult, h.unit, yd_braiding(m))
    if not rep.ok:
        failures.append(("product compatible with the module braiding",
                         rep.failures()[0]))

    m = yd_regular(h)
    if not yd_validate(m).ok:
        failures.append(("regular module axioms", None))
    rep = check_yb_coalgebra(h.comult, h.counit, yd_braiding(m))
    if not rep.ok:
        failures.append(("coproduct compatible with the module braiding",
                         rep.failures()[0]))

    s = smash_structures(yd_adjoint(h), yd_adjoint(h))
    for w in s.space.words(3):
        left = Element()
        for (mw, _), c in s.product.apply_word(w[:2]).terms.items():
            left = left + s.product.apply_word(mw + w[2:]).scale(c)
        right = Element()
        for (mw, _), c in s.product.apply_word(w[1:]).terms.items():
            right = right + s.product.apply_word(w[:1] + mw).scale(c)
        if left != right:
            failures.append(("tensor-product algebra associativity", w))
    rep = check_yb_algebra(s.product, s.unit, s.braiding)
    if not rep.ok:
        failures.append(("tensor-product algebra compatibility",
                         rep.failures()[0]))

    h2, R = z2_rmatrix()
    r = RMatrix.from_element(h2, R)
    m = rmatrix_yd(r, h2.space, sign_action(h2),
                   algebra_on_V=(h2.mult, h2.unit))
    rep = yd_validate(m)
    if not rep.ok:
        failures.append(("universal-matrix module axioms",
                         rep.failures()[0]))
    rep = check_yb_algebra(h2.mult, h2.unit, yd_braiding(m))
    if not rep.ok:
        failures.append(("universal-matrix braiding compatibility",
                         rep.failures()[0]))
    report(capsys, 8,
           "Hopf-algebra constructions: axioms, module braidings, products",
           failures)


def _rational_diagonal():
    return diagonal_braiding([[parse_scalar(e) for e in row] for row in
                              [["(q^2+1)/(q+2)", "q"],
                               ["2/(q-3)", "-1"]]])


# (name, braiding, highest degree) for the reduced-iterate vanishing check
VANISHING_BRAIDINGS = [
    ("symbolic diagonal", lambda: symbolic_diagonal(2), 5),
    ("flip", lambda: flip_braiding(2), 5),
    ("deformed flip N=2", lambda: exterior_braiding(2), 5),
    ("deformed flip N=3", lambda: exterior_braiding(3), 4),
    ("signed flip N=2", lambda: WedgeAlgebra(2).braiding, 4),
    ("rational diagonal", _rational_diagonal, 5),
]


def _vanishing_failures():
    """Per braiding, the first u|v of degree 1 <= d <= its highest degree,
    at any cut, whose d-th reduced braided coproduct iterate is not zero."""
    failures = []
    for name, make, top in VANISHING_BRAIDINGS:
        b = make()
        for letters, cut in ((w, cut) for d in range(1, top + 1)
                             for w in b.space.words(d)
                             for cut in range(d + 1)):
            x = Element.basis(letters, cuts=(cut,))
            if not delta_beta_iter(b, x, len(letters),
                                   reduced=True).is_zero():
                failures.append((name, "vanishing", letters, cut))
                break
    return failures


def test_criterion_09_reduced_coproduct_and_antipode(capsys):
    failures = _vanishing_failures()
    for name, base in (("zero base", zero_base(symbolic_diagonal(2))),
                       ("graded base", graded_base())):
        M = base.qb_structure(degree_cap=5)
        for w in words_upto(base.space, 4):
            x = Element.basis(w)
            acc = Element()
            for (letters, cuts), c in deconcatenate(x).terms.items():
                cut = cuts[0]
                left = antipode(Element.basis(letters[:cut]), M)
                right = Element.basis(letters[cut:])
                acc = acc + star_product(M, left, right).scale(c)
            eps = counit(x)
            want = Element.basis((), (), eps) if not eps.is_zero() \
                else Element()
            if acc != want:
                failures.append((name, "convolution", w))
    report(capsys, 9,
           "reduced coproduct vanishing and the antipode convolution law",
           failures)


@pytest.mark.parametrize("old, new", UNIT_SPLIT_KEPT,
                         ids=["right-unit-kept", "left-unit-kept"])
def test_criterion_09_vanishing_catches_kept_unit_split(monkeypatch, old,
                                                        new):
    # the reduced iterate with u|v (x) 1_C or 1_C (x) u|v kept fails the
    # vanishing check on every braiding
    monkeypatch.setattr(tensoralg, "_first_factor_delta_beta",
                        _mutant_kernel(old, new))
    failed = {name for name, *_ in _vanishing_failures()}
    assert failed == {name for name, _, _ in VANISHING_BRAIDINGS}


def test_criterion_10_quadratic_and_signed_flip(capsys):
    failures = []
    for N in (2, 3):
        rep = exterior_relations_check(N)
        if not rep.ok:
            failures.append(("degree-2 relations N=%d" % N,
                             rep.failures()[0]))
        b = exterior_braiding(N)
        ident2 = LinMap.identity(b.space, 2)
        quad = b.fwd.add(ident2.scale(-Scalar.one())).compose(
            b.fwd.add(ident2.scale(Scalar.q_power(-2))))
        if not quad.equals(LinMap(2), b.space, 2):
            failures.append(("quadratic relation N=%d" % N, None))
        wa = WedgeAlgebra(N)
        sq = wa.braiding.fwd.compose(wa.braiding.fwd)
        if not sq.equals(LinMap.identity(wa.space, 2), wa.space, 2):
            failures.append(("signed flip involution N=%d" % N, None))
        rep = qflip_compat_check(wa)
        if not rep.ok:
            failures.append(("signed flip compatibility N=%d" % N,
                             rep.failures()[0]))
    # the signed symmetrizer of sigma is the symmetrizer of -sigma: its
    # degree-n image is the degree-n part of the Nichols algebra of -sigma
    for N, rank in ((3, 1), (2, 0)):
        if len(nichols_basis(negated(exterior_braiding(N)), 3)[3]) != rank:
            failures.append(("signed symmetrizer rank (%d, 3)" % N, None))
    report(capsys, 10,
           "quadratic relations and the signed flip on wedge monomials",
           failures)
