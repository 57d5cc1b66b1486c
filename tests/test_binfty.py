"""Induced products on the tensor algebra and the two-product peeling."""

import inspect
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import (apply_leg, assert_associative, diagonal_bases,
                      diagonal_braidings, dual_numbers_twoyb, first_failure,
                      flip_braiding, graded_base, quasi_shuffle_reference,
                      symbolic_diagonal, zero_base)
from ybalg import binfty, tensoralg
from ybalg.binfty import (QBStructure, TwoYB, YBBase, _apply_m_blocks,
                          _fold_dot, antipode, from_2yb, qb_from_obj,
                          qb_to_obj, qb_validate, quasi_shuffle, star_product)
from ybalg.catalog import exterior_braiding
from ybalg.linear import Element, LinMap, Space, tensor_elements
from ybalg.scalars import Scalar
from ybalg.tensoralg import (DegreeCapExceeded, InvalidBase,
                             _first_factor_delta_beta, counit, deconcatenate,
                             delta_beta_iter, qshuffle_product)


def words_upto(space, bound):
    for n in range(bound + 1):
        for w in space.words(n):
            yield w


def test_star_forms_agree():
    M = graded_base().qb_structure(degree_cap=5)
    for u in words_upto(M.space, 2):
        for v in words_upto(M.space, 2):
            x, y = Element.basis(u), Element.basis(v)
            assert star_product(M, x, y, form="reduced") == \
                star_product(M, x, y, form="via_w")
    # only the two forms are accepted
    with pytest.raises(ValueError, match="'word' is neither"):
        star_product(M, Element.basis((0,)), Element.basis((1,)), form="word")


def test_star_of_zero_base_is_shuffle():
    b = symbolic_diagonal(2)
    M = zero_base(b).qb_structure(degree_cap=6)
    for u in words_upto(b.space, 2):
        for v in words_upto(b.space, 2):
            x, y = Element.basis(u), Element.basis(v)
            assert star_product(M, x, y) == qshuffle_product(x, y, b)


def test_star_unital_and_associative():
    M = graded_base().qb_structure(degree_cap=6)
    one = Element.unit()
    e = Element.basis((0, 1))
    assert star_product(M, one, e) == e
    assert star_product(M, e, one) == e
    for u in words_upto(M.space, 2):
        for v in words_upto(M.space, 2):
            for w in words_upto(M.space, 2):
                x, y, z = (Element.basis(t) for t in (u, v, w))
                lhs = star_product(M, star_product(M, x, y), z)
                rhs = star_product(M, x, star_product(M, y, z))
                assert lhs == rhs


def _star_associative(base):
    M = base.qb_structure(4)
    assert_associative(lambda x, y: star_product(M, x, y), base.space, 4)


def _star_top_degree_is_shuffle(base):
    """The top degree of u * v is the quantum shuffle of u and v, on every
    pair with |u| + |v| <= 4."""
    M = base.qb_structure(4)
    for letters in words_upto(base.space, 4):
        for cut in range(len(letters) + 1):
            x = Element.basis(letters[:cut])
            y = Element.basis(letters[cut:])
            assert (star_product(M, x, y).component(len(letters))
                    == qshuffle_product(x, y, base.braiding)), (letters, cut)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagonal_bases())
def test_star_associative_on_generated_bases(base):
    _star_associative(base)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagonal_bases())
def test_star_top_degree_is_shuffle_on_generated_bases(base):
    _star_top_degree_is_shuffle(base)


@pytest.mark.parametrize("check, old, new", [
    (_star_associative, "ac = a * c",
     "ac = a if (s, t) == (1, 1) else a * c"),
    (_star_associative, "if f is None:", "if f is None or (s, t) == (0, 1):"),
    (_star_top_degree_is_shuffle, "ac = a * c", "ac = a"),
    (_star_top_degree_is_shuffle, "if f is None:",
     "if f is None or (s, t) == (0, 1):"),
], ids=["assoc-m11-braiding-scalar-dropped", "assoc-term-01-dropped",
        "top-braiding-scalar-dropped", "top-term-01-dropped"])
def test_generated_star_properties_catch_planted_faults(monkeypatch, check,
                                                        old, new):
    # dropping the braiding scalar of the M_11 terms leaves the top degree
    # alone, and dropping every braiding scalar leaves the unbraided
    # quasi-shuffle, which is associative: each property is shown a fault
    # that the other misses, and both a dropped (0, 1) term
    src = inspect.getsource(binfty._cofree_terms)
    assert src.count(old) == 1
    namespace = dict(vars(binfty))
    exec(src.replace(old, new), namespace)
    monkeypatch.setattr(binfty, "_cofree_terms", namespace["_cofree_terms"])
    with pytest.raises(AssertionError):
        first_failure(diagonal_bases(), check)


def test_degree_cap_refused():
    M = graded_base().qb_structure(degree_cap=5)
    e = Element.basis
    with pytest.raises(DegreeCapExceeded, match="^degree 6 exceeds cap 5$"):
        star_product(M, e((0, 1, 0)), e((1, 1, 0)))
    with pytest.raises(DegreeCapExceeded, match="^degree 6 exceeds cap 5$"):
        antipode(e((0, 1, 0, 1, 1, 0)), M)


def test_qb_validate_zero_base():
    b = symbolic_diagonal(2)
    M = zero_base(b).qb_structure(degree_cap=5)
    report = qb_validate(M, 5)
    assert report.ok
    assert not report.failures()


def test_qb_validate_graded_base():
    M = graded_base().qb_structure(degree_cap=5)
    assert qb_validate(M, 5).ok


def test_qb_validate_flags_incompatible_component():
    # a lone M_11 column that is not weight homogeneous breaks the rows
    b = symbolic_diagonal(2)
    M = QBStructure(b, {(1, 1): LinMap(2, {(0, 0): Element.basis((1,))})},
                    degree_cap=4)
    report = qb_validate(M, 4)
    assert not report.ok
    fail = report.failures()[0]
    assert fail["witness"] is not None


def test_quasi_shuffle_matches_star():
    # the star product of the base's tower against the three-term reference
    base = graded_base()
    M = base.qb_structure(degree_cap=6)
    for u in words_upto(base.space, 2):
        for v in words_upto(base.space, 2):
            x, y = Element.basis(u), Element.basis(v)
            ref = quasi_shuffle_reference(x, y, base)
            assert star_product(M, x, y) == ref
            assert quasi_shuffle(x, y, base) == ref


def _quasi_shuffle_agrees(base, bound, shuffle=False):
    """quasi_shuffle against the three-term reference, and against the
    quantum shuffle if `shuffle`, on every pair u | v with |u| + |v| <=
    bound; the assertion names the first pair that differs."""
    for letters in words_upto(base.space, bound):
        for cut in range(len(letters) + 1):
            x = Element.basis(letters[:cut])
            y = Element.basis(letters[cut:])
            got = quasi_shuffle(x, y, base)
            assert got == quasi_shuffle_reference(x, y, base), (letters, cut)
            if shuffle:
                assert got == qshuffle_product(x, y, base.braiding), \
                    (letters, cut)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagonal_bases())
def test_quasi_shuffle_matches_reference_on_generated_bases(base):
    _quasi_shuffle_agrees(base, 4)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagonal_braidings())
def test_quasi_shuffle_of_generated_zero_base_is_shuffle(b):
    _quasi_shuffle_agrees(zero_base(b), 4, shuffle=True)


def test_quasi_shuffle_zero_base_is_shuffle():
    """On a zero base the quasi-shuffle is the quantum shuffle and the
    three-term reference, on every word pair with |u| + |v| <= 5; the
    deformed flip is not diagonal."""
    for b in (flip_braiding(2), exterior_braiding(2)):
        _quasi_shuffle_agrees(zero_base(b), 5, shuffle=True)


# -- closed forms for the peeled components --------------------------------

def _pair_apply(f, x):
    """Apply a 2-in map to a possibly multi-term degree-2 element."""
    return f.apply(x)


def _fold(f2, g2, elem, first_legs):
    """g2 applied after f2 acting on two adjacent legs of a 3-leg element.

    first_legs is 0 for legs 1-2 and 1 for legs 2-3.
    """
    out = Element()
    for (w, _), c in elem.terms.items():
        if first_legs == 0:
            mid = f2.apply_word(w[:2])
            rest = Element.basis(w[2:])
            for (mw, _), mc in mid.terms.items():
                out = out + g2.apply(
                    tensor_elements(Element.basis(mw), rest)).scale(mc * c)
        else:
            mid = f2.apply_word(w[1:])
            rest = Element.basis(w[:1])
            for (mw, _), mc in mid.terms.items():
                out = out + g2.apply(
                    tensor_elements(rest, Element.basis(mw))).scale(mc * c)
    return out


def test_from_2yb_closed_forms():
    a = dual_numbers_twoyb()
    M = from_2yb(a, 4)
    sp = a.space
    sigma = a.braiding.fwd
    ident = LinMap.identity(sp, 1)
    sigma1 = sigma.tensor(ident)
    sigma2 = ident.tensor(sigma)

    for u, v in ((i, j) for i in range(2) for j in range(2)):
        got = M.component(1, 1).apply_word((u, v))
        pair = Element.basis((u, v))
        want = a.star.apply(pair) - a.dot.apply(sigma.apply(pair)) \
            - a.dot.apply(pair)
        assert got == want

    for w in sp.words(3):
        pair12 = Element.basis(w[:2])
        pair23 = Element.basis(w[1:])
        x1 = Element.basis(w[:1])
        x3 = Element.basis(w[2:])
        s2 = sigma2.apply(Element.basis(w))
        s1 = sigma1.apply(Element.basis(w))

        got21 = M.component(2, 1)
        got21 = got21.apply_word(w) if got21 is not None else Element()
        t1 = Element()
        for (dw, _), c in a.dot.apply(pair12).terms.items():
            t1 = t1 + a.star.apply(
                tensor_elements(Element.basis(dw), x3)).scale(c)
        t2 = Element()
        for (sw, _), c in a.star.apply(pair23).terms.items():
            t2 = t2 + a.dot.apply(
                tensor_elements(x1, Element.basis(sw))).scale(c)
        want21 = t1 - t2 + _fold(a.dot, a.dot, s2, 0) \
            - _fold(a.star, a.dot, s2, 0)
        assert got21 == want21

        got12 = M.component(1, 2)
        got12 = got12.apply_word(w) if got12 is not None else Element()
        t3 = Element()
        for (dw, _), c in a.dot.apply(pair23).terms.items():
            t3 = t3 + a.star.apply(
                tensor_elements(x1, Element.basis(dw))).scale(c)
        t4 = Element()
        for (sw, _), c in a.star.apply(pair12).terms.items():
            t4 = t4 + a.dot.apply(
                tensor_elements(Element.basis(sw), x3)).scale(c)
        want12 = t3 - t4 + _fold(a.dot, a.dot, s1, 0) \
            - _fold(a.star, a.dot, s1, 1)
        assert got12 == want12


def test_from_2yb_validates():
    M = from_2yb(dual_numbers_twoyb(), 4)
    assert qb_validate(M, 4).ok


def test_antipode_convolution_inverse():
    M = graded_base().qb_structure(degree_cap=6)
    for w in words_upto(M.space, 3):
        x = Element.basis(w)
        acc = Element()
        for (letters, cuts), c in deconcatenate(x).terms.items():
            cut = cuts[0]
            left = antipode(Element.basis(letters[:cut]), M)
            right = Element.basis(letters[cut:])
            acc = acc + star_product(M, left, right).scale(c)
        want = Element.basis((), (), counit(x)) if not counit(x).is_zero() \
            else Element()
        assert acc == want


def test_qb_serialization_roundtrip():
    base = graded_base()
    M = base.qb_structure(degree_cap=5)
    M2 = qb_from_obj(qb_to_obj(M), base.braiding)
    assert M2.degree_cap == 5
    assert set(M2.components) == set(M.components)
    for key, f in M.components.items():
        assert M2.components[key].equals(f, base.space, key[0] + key[1])
    obj = qb_to_obj(M)
    obj["M"].append(dict(obj["M"][0], map=[]))
    with pytest.raises(ValueError):
        qb_from_obj(obj, base.braiding)


def test_boundary_components_rejected():
    b = symbolic_diagonal(2)
    with pytest.raises(ValueError):
        QBStructure(b, {(0, 1): LinMap.identity(b.space, 1)})
    with pytest.raises(ValueError):
        QBStructure(b, {(3, 3): LinMap(6)}, degree_cap=4)
    # components must land in V
    for out in ((1, 1), ()):
        with pytest.raises(ValueError, match="outside V"):
            QBStructure(b, {(1, 1): LinMap(2, {(0, 1): Element.basis(out)})})
    M = zero_base(b).qb_structure(degree_cap=3)
    with pytest.raises(ValueError):
        qb_validate(M, 5)


def test_base_compatibility_enforced():
    # inhomogeneous column against a generic diagonal braiding
    b = symbolic_diagonal(2)
    with pytest.raises(InvalidBase):
        YBBase(LinMap(2, {(0, 0): Element.basis((1,))}), b)


def test_base_product_leaving_v_rejected():
    # the plain flip on one letter passes the compatibility rows for any
    # product, so only the landing check refuses e1 e1 = e1 (x) e1
    b = flip_braiding(1)
    for out in ((0, 0), ()):
        with pytest.raises(ValueError, match="outside V"):
            YBBase(LinMap(2, {(0, 0): Element.basis(out)}), b)


def test_twoyb_rejects_nonassociative():
    b = flip_braiding(2)
    cols = {w: Element.basis((w[0],)) for w in b.space.words(2)}
    cols[(1, 1)] = Element.basis((0,))
    mult = LinMap(2, cols)
    with pytest.raises(InvalidBase):
        TwoYB(b, mult, mult, Element.basis((0,)))


# -- the iterate stream and the star-form associativity row -----------------

def _towers(degree_cap=4):
    """The conftest towers and a planted false one: the plain flip makes
    every component compatible, so only the non-associative M_11 and the
    arbitrary M_12, M_21 break the tower."""
    b = flip_braiding(2)
    e = Element.basis
    planted = QBStructure(b, {
        (1, 1): LinMap(2, {(1, 1): e((0,)), (0, 1): e((0,))}),
        (1, 2): LinMap(3, {(0, 1, 1): e((1,)), (1, 0, 0): e((0,))}),
        (2, 1): LinMap(3, {(1, 1, 0): e((1,), (), Scalar.from_int(2))}),
    }, degree_cap=degree_cap)
    return [zero_base(symbolic_diagonal(2)).qb_structure(degree_cap),
            graded_base().qb_structure(degree_cap),
            from_2yb(dual_numbers_twoyb(), degree_cap), planted]


def _m_iterates(M, letters, cut):
    """The reference stream: the reduced iterates Delta_beta^{(n-1)},
    n = 1, ..., len(letters), of the pair word letters[:cut] |
    letters[cut:], on which M^{(x)n} acts; each expands the first pair
    factor of the one before once."""
    d = Element.basis(letters, (cut,))
    for n in range(len(letters)):
        if n:
            d = _first_factor_delta_beta(M.braiding, d, True)
        yield d


def _stream_star(M, letters, cut):
    """The star product of a pair word as the sum of M^{(x)n} over the
    reference stream."""
    if not letters:
        return Element.unit()
    return sum((_apply_m_blocks(M, d) for d in _m_iterates(M, letters, cut)),
               Element())


def test_iterate_stream_matches_from_scratch_iterates():
    # the reference stream, and one reduced step past its last iterate (the
    # assoc-vanishing value), against from-scratch iterates on every head
    # of every tower
    for M in _towers():
        for letters in words_upto(M.space, 4):
            for cut in range(len(letters) + 1):
                z = Element.basis(letters, (cut,))
                stream = list(_m_iterates(M, letters, cut))
                assert stream == [
                    delta_beta_iter(M.braiding, z, n, reduced=True)
                    for n in range(len(letters))]
                if stream:
                    assert _first_factor_delta_beta(
                        M.braiding, stream[-1], True) == delta_beta_iter(
                        M.braiding, z, len(letters), reduced=True)


def _star_agrees(M, bound, via_w_bound):
    """The recursion (star_product's reduced form) against the reference
    stream on every pair u | v with |u| + |v| <= bound, and against the
    via_w form up to via_w_bound; the assertion names the first pair that
    differs."""
    for letters in words_upto(M.space, bound):
        for cut in range(len(letters) + 1):
            x = Element.basis(letters[:cut])
            y = Element.basis(letters[cut:])
            got = star_product(M, x, y)
            assert got == _stream_star(M, letters, cut), (letters, cut)
            if len(letters) <= via_w_bound:
                assert got == star_product(M, x, y, "via_w"), (letters, cut)


def test_star_recursion_matches_stream_and_via_w():
    # via_w expands every weak cut tuple before braiding, about 7 s a tower
    # at degree 5, so it is held to degree 4
    for M in _towers(6):
        _star_agrees(M, 6, 4)


@pytest.mark.parametrize("old, new", [
    ("if f is None:", "if f is None or (s, t) == (1, 1):"),
    ("ac = a * c", "ac = a"),
], ids=["term-dropped", "braiding-scalar-dropped"])
def test_star_differential_catches_planted_fault(monkeypatch, old, new):
    src = inspect.getsource(binfty._cofree_terms)
    assert src.count(old) == 1
    namespace = dict(vars(binfty))
    exec(src.replace(old, new), namespace)
    monkeypatch.setattr(binfty, "_cofree_terms", namespace["_cofree_terms"])
    with pytest.raises(AssertionError):
        _star_agrees(graded_base().qb_structure(degree_cap=4), 4, 4)
    with pytest.raises(AssertionError):
        _quasi_shuffle_agrees(graded_base(), 4)


def test_from_2yb_matches_stream_peeling():
    # the peeling with each M_pq's shorter factorizations summed over the
    # reference stream of the incomplete M
    a = dual_numbers_twoyb()
    ref = QBStructure(a.braiding, degree_cap=5)
    for total in range(2, 6):
        for p in range(1, total):
            def column(z):
                prod = apply_leg(a.star, 0, tensor_elements(
                    _fold_dot(a, Element.basis(z[:p])),
                    _fold_dot(a, Element.basis(z[p:]))))
                return prod - _fold_dot(a, _stream_star(ref, z, p))
            f = LinMap.tabulate(a.space, total, column)
            if f.columns:
                ref.components[(p, total - p)] = f
    M = from_2yb(a, 5)
    assert set(M.components) == set(ref.components)
    for (p, q), f in ref.components.items():
        assert M.components[(p, q)].equals(f, a.space, p + q)


def _reference_eq5_side(M, letters, i, j, k, left):
    """The associativity side with the degree-r part of the inner product
    rebuilt from a from-scratch reduced iterate for each r."""
    if left:
        z, tail, inner, outer = Element.basis(letters[:i + j], (i,)), \
            letters[i + j:], i + j, k
    else:
        z, tail, inner, outer = Element.basis(letters[i:], (j,)), \
            letters[:i], j + k, i
    out = Element()
    for r in range(1, inner + 1):
        d = delta_beta_iter(M.braiding, z, r - 1, reduced=True)
        f = M.component(r, outer) if left else M.component(outer, r)
        if f is None:
            continue
        for (w, _), c in _apply_m_blocks(M, d).terms.items():
            out = out + f.apply_word(w + tail if left else tail + w).scale(c)
    return out


def test_assoc_rows_match_reference():
    failed = 0
    for M in _towers():
        entries = {e["identity"]: e for e in qb_validate(M, 4).entries}
        for i, j, k in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)):
            witness = next((z for z in M.space.words(i + j + k)
                            if _reference_eq5_side(M, z, i, j, k, True)
                            != _reference_eq5_side(M, z, i, j, k, False)),
                           None)
            got = entries["assoc %d,%d,%d" % (i, j, k)]
            assert (got["ok"], got["witness"]) == (witness is None, witness)
            failed += witness is not None
    assert failed  # the planted tower fails somewhere


def test_qb_validate_first_factor_step_count(monkeypatch):
    # the star streams of the distinct heads plus one step past each for
    # assoc-vanishing; a from-scratch re-expansion per triple (164 and 804
    # steps) would raise the counts
    calls = []

    def counting(braiding, x, reduced):
        calls.append(reduced)
        return _first_factor_delta_beta(braiding, x, reduced)

    monkeypatch.setattr(tensoralg, "_first_factor_delta_beta", counting)
    for bound, steps in ((4, 56), (5, 248)):
        calls.clear()
        assert qb_validate(graded_base().qb_structure(degree_cap=5),
                           bound).ok
        assert len(calls) == steps and all(calls)


def test_unreduced_iterate_fails_assoc_vanishing(monkeypatch):
    M = graded_base().qb_structure(degree_cap=4)
    assert qb_validate(M, 4).ok

    def unreduced(braiding, x, reduced):
        return _first_factor_delta_beta(braiding, x, False)

    monkeypatch.setattr(tensoralg, "_first_factor_delta_beta", unreduced)
    M = graded_base().qb_structure(degree_cap=4)
    vanishing = [e for e in qb_validate(M, 4).entries
                 if e["identity"].startswith("assoc-vanishing")]
    assert vanishing and not any(e["ok"] for e in vanishing)


# -- the antipode against Takeuchi's sum ------------------------------------

def _takeuchi_antipode(x, M):
    """The reference: Takeuchi's sum over the 2^{n-1} compositions of each
    word u of degree n into r nonempty blocks, of (-1)^r times the blocks'
    star product nested to the left; S(1) = 1."""
    out = Element()
    for (u, cuts), c in x.terms.items():
        assert not cuts
        if not u:
            out.add_scaled(Element.unit(), c)
        for r in range(1, len(u) + 1):
            sign = c if r % 2 == 0 else -c
            for inner in combinations(range(1, len(u)), r - 1):
                b = (0,) + inner + (len(u),)
                acc = Element.basis(u[:b[1]])
                for t in range(1, r):
                    acc = star_product(M, acc, Element.basis(u[b[t]:b[t + 1]]))
                out.add_scaled(acc, sign)
    return out


def _antipode_agrees(M, bound):
    """antipode against the reference on every word of degree <= bound; the
    two share M's star memo, and the assertion names the first word that
    differs."""
    for w in words_upto(M.space, bound):
        x = Element.basis(w)
        assert binfty.antipode(x, M) == _takeuchi_antipode(x, M), w


def test_antipode_recursion_matches_takeuchi():
    # the planted tower is not associative, and the recursion still expands
    # to the left-nested sum there
    for M in _towers(6):
        _antipode_agrees(M, 6)
    M = graded_base().qb_structure(degree_cap=4)
    x = Element.basis((0, 1)).scale(Scalar.q_power(2)) - Element.unit()
    assert antipode(x, M) == _takeuchi_antipode(x, M)
    with pytest.raises(ValueError, match="antipode expects uncut elements"):
        antipode(Element.basis((0, 1), (1,)), M)


@pytest.mark.parametrize("old, new", [
    ("table.append(-s)", "table.append(s)"),
    ("s = Element.basis(u[:m])", "s = Element()"),
], ids=["wrong-sign", "k0-term-dropped"])
def test_antipode_differential_catches_planted_fault(monkeypatch, old, new):
    src = inspect.getsource(binfty.antipode)
    assert src.count(old) == 1
    namespace = dict(vars(binfty))
    exec(src.replace(old, new), namespace)
    monkeypatch.setattr(binfty, "antipode", namespace["antipode"])
    with pytest.raises(AssertionError):
        _antipode_agrees(graded_base().qb_structure(degree_cap=4), 4)
