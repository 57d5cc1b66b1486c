"""Tensor-algebra operations: shuffles, braided coproducts, Def 2.1 checks."""

import inspect
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (OTHER_ONES, assert_associative, beta_lift,
                      braid_lift, diagonal_braidings, enumerate_shuffles,
                      first_failure, flip_braiding, graded_base,
                      kernel_coefficients, lift, negated, split_product,
                      symbolic_diagonal, symmetrizer_image,
                      unshuffle_components)
from ybalg import tensoralg
from ybalg.binfty import qb_validate, quasi_shuffle, star_product
from ybalg.braid import Braiding, check_yang_baxter, perm_inverse, w_block
from ybalg.catalog import (WedgeAlgebra, cartan_qmatrix, diagonal_braiding,
                           exterior_braiding)
from ybalg.linear import (Element, LinMap, Space, column_echelon_basis,
                          tensor_elements)
from ybalg.scalars import Scalar, parse_scalar
from ybalg.tensoralg import (_first_factor_delta_beta, _unshuffle_component,
                             apply_slots,
                             beta_slots, concat_product, counit, deconcatenate,
                             delta_beta, delta_beta_iter, delta_beta_via_w,
                             delta_iter, nichols_basis, power_coproduct,
                             power_product, qshuffle_product,
                             quantum_coproduct, check_tensor_yb_coproduct,
                             check_tensor_yb_product, slot_bounds)


def test_concat_and_cap():
    x = Element.basis((0,))
    y = Element.basis((1, 0))
    assert concat_product(x, y) == Element.basis((0, 1, 0))
    # concatenation has no cap of its own: degree caps belong to the
    # operations that a session exposes
    long = Element.basis((0, 1) * 4)
    assert concat_product(long, long) == Element.basis((0, 1) * 8)


def test_counit_projects_to_empty_word():
    x = Element.unit().scale(parse_scalar("q")) + Element.basis((0,))
    assert counit(x) == parse_scalar("q")


def test_deconcatenate_counts():
    d = deconcatenate(Element.basis((0, 1)))
    assert len(d.terms) == 3
    assert d.terms[((0, 1), (1,))] == Scalar.one()


def test_delta_iter_weak_cuts():
    d = delta_iter(Element.basis((0,)), 2)
    # 1|1|x + 1|x|1 + x|1|1 on one letter
    assert len(d.terms) == 3


def test_slot_bounds():
    assert slot_bounds((0, 1, 0), (1, 1)) == (0, 1, 1, 3)


def _join(x, y):
    """x | y: concatenation with a cut at the seam."""
    return tensor_elements(tensor_elements(x, Element.basis((), (0,))), y)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_apply_slots_matches_sliced_reference(data):
    # against the sliced reference; the quasi-shuffle and the base product
    # shorten words, so later cuts move
    base = graded_base()
    b = base.braiding
    k = data.draw(kernel_coefficients())
    arity, f = data.draw(st.sampled_from([
        # 1 -> 1: u -> k times its first letter, so images of two terms
        # often meet holding the same object k
        (1, lambda key: Element.basis(key[0][:1], (), k)),
        # 1 -> 2: the quantum coproduct
        (1, lambda key: quantum_coproduct(Element.basis(key[0]), b)),
        # 2 -> 1: the quasi-shuffle product, inhomogeneous in degree
        (2, lambda key: quasi_shuffle(Element.basis(key[0][:key[1][0]]),
                                      Element.basis(key[0][key[1][0]:]),
                                      base)),
        # 2 -> 2: braiding the two slots
        (2, beta_slots(b)),
        # 1 -> 1: the base product on a two-letter slot
        (1, lambda key: base.mult.apply_word(key[0]))]))
    m = data.draw(st.integers(arity, arity + 2))
    pos = data.draw(st.integers(0, m - arity))
    x, slots = Element(), None
    for _ in range(data.draw(st.integers(1, 3))):
        new = [tuple(data.draw(st.lists(st.integers(0, 1), max_size=2)))
               for _ in range(m)]
        # a later term may keep the other slots and the coefficient object
        # of the term before, so that their images often meet
        if slots and data.draw(st.booleans()):
            new[:pos], new[pos + arity:] = slots[:pos], slots[pos + arity:]
        else:
            c = data.draw(kernel_coefficients())
        slots = new
        x = x + reduce(_join, [Element.basis(w) for w in slots]).scale(c)
    assert apply_slots(f, arity, pos, x) == _sliced_reference(f, arity,
                                                              pos, x)


def _sliced_reference(f, arity, pos, x):
    """apply_slots by slicing each term into one Element per slot, applying
    f to the joined slots pos..pos+arity-1 and rejoining every slot."""
    ref = Element()
    for (letters, cuts), c in x.terms.items():
        bounds = slot_bounds(letters, cuts)
        slots = [Element.basis(letters[bounds[t]:bounds[t + 1]])
                 for t in range(len(bounds) - 1)]
        (key,) = reduce(_join, slots[pos:pos + arity]).terms
        ref = ref + reduce(_join, slots[:pos] + [f(key)]
                           + slots[pos + arity:]).scale(c)
    return ref


def _slots(*words, coeff=None):
    """The basis element words[0] | words[1] | ..., scaled by coeff."""
    x = reduce(_join, [Element.basis(w) for w in words])
    return x.scale(coeff) if coeff is not None else x


def test_apply_slots_edge_cases():
    b = symbolic_diagonal(2)
    q = Scalar.q_power(1)
    # u -> its first letter: two terms meet on one image key and cancel
    first = (lambda key: Element.basis(key[0][:1]))
    # u -> u + u u_1: one image keeps the slot length, one grows it
    grow = (lambda key: Element.basis(key[0])
            + Element.basis(key[0] + key[0][:1]))
    cop = (lambda key: quantum_coproduct(Element.basis(key[0]), b))
    minus = Scalar.from_int(-1)
    cancel = (_slots((0, 1), (1,)) + _slots((0, 0), (1,), coeff=minus)
              + _slots((1, 0), (0,), coeff=q))
    cases = [
        (first, 1, 0, cancel),
        (first, 1, 1, _slots((1,), (0, 1)) + _slots((1,), (0, 0),
                                                       coeff=minus)),
        # empty leading slots: pos > 0 with lo = 0
        (beta_slots(b), 2, 2, _slots((), (), (0, 1), (1,))),
        (beta_slots(b), 2, 1, _slots((), (0,), (1, 1), (0,), coeff=q)),
        (cop, 1, 1, _slots((), (0, 1), (1,))),
        (grow, 1, 0, _slots((), (1,), (0,))),
        # and lo > 0, so inner and image cuts move by lo
        (beta_slots(b), 2, 1, _slots((1,), (0,), (1, 1))),
        (cop, 1, 1, _slots((0,), (0, 1))),
        # kept and grown slot lengths, later cuts shifted or not
        (grow, 1, 1, _slots((0,), (1, 0), (1,)) + _slots((0,), (), (0,))),
        (grow, 1, 0, _slots((0, 1), (1,), ())),
        # images meeting on one key holding the very object the result
        # holds (Element.basis's Scalar.one()), the terms scaled by the
        # Scalar.one() object or by 1 that is another object
        (first, 1, 0, _slots((0, 1), (1,)) + _slots((0, 0), (1,))),
        (first, 1, 0, _slots((0, 1), (1,), coeff=OTHER_ONES[0])
         + _slots((0, 0), (1,), coeff=OTHER_ONES[1])),
    ]
    for f, arity, pos, x in cases:
        got = apply_slots(f, arity, pos, x)
        assert got == _sliced_reference(f, arity, pos, x)
        assert not any(c.is_zero() for c in got.terms.values())
    got = apply_slots(first, 1, 0, cancel)
    assert ((0, 1), (1,)) not in got.terms
    assert got == _slots((1,), (0,), coeff=q)
    assert all(c == Scalar.one() and c is not Scalar.one()
               for c in OTHER_ONES)
    for f, arity, pos, x in cases[-2:]:
        assert apply_slots(f, arity, pos, x) == _slots(
            (0,), (1,), coeff=Scalar.from_int(2))


def _rekeyed_beta(braiding, key):
    letters, (i,) = key
    j = len(letters) - i
    img = beta_lift(braiding, i, j, letters)
    return Element({(w, (j,)): c for (w, _), c in img.terms.items()})


def _beta_mismatches(braiding, kernel=beta_slots, bound=5):
    """The slot keys (u v, (i,)) with i + j <= bound on which the kernel's
    beta differs from the lift reference T_{chi_ij}, re-keyed.  Degrees run
    downwards, so the first image of each degree is built from sigma's
    columns alone and later ones also from the images it kept."""
    beta = kernel(braiding)
    return [key for n in range(bound, -1, -1)
            for w in braiding.space.words(n) for key in
            [(w, (i,)) for i in range(n + 1)]
            if beta(key) != _rekeyed_beta(braiding, key)]


BETA_DIFFERENTIAL = {"exterior-2": lambda: exterior_braiding(2),
                     "exterior-3": lambda: exterior_braiding(3),
                     "qflip-2": lambda: WedgeAlgebra(2).braiding}


@pytest.mark.parametrize("name", sorted(BETA_DIFFERENTIAL))
def test_beta_slots_match_the_lift_reference(name):
    assert _beta_mismatches(BETA_DIFFERENTIAL[name]()) == []


def test_beta_slots_match_the_lift_reference_on_generated_braidings():
    def check(b):
        assert _beta_mismatches(b) == []
    first_failure(diagonal_braidings(), check)


# beta_{ij}(u | v a) with the two hexagon factors composed in the wrong
# order, (beta_{i,j-1} (x) id)(id (x) beta_{i1}) on the word u v a
HEXAGON_STEP = (
    "for (w, _), c in images[(letters[:-1], (i,))].terms.items():\n"
    "                tail = beta((w[j - 1:] + letters[-1:], (i,)))\n"
    "                for (x, _), d in tail.terms.items():\n"
    "                    res.add_term((w[:j - 1] + x, (j,)), d * c)")
HEXAGON_SWAPPED = (
    "for (w, _), c in beta((letters[j - 1:], (i,))).terms.items():\n"
    "                w = letters[:j - 1] + w\n"
    "                for (x, _), d in beta((w[:-1], (i,))).terms.items():\n"
    "                    res.add_term((x + w[-1:], (j,)), d * c)")


def test_beta_differential_catches_swapped_hexagon_factors():
    mutant = _mutant_kernel(HEXAGON_STEP, HEXAGON_SWAPPED, beta_slots)

    def check(b):
        assert _beta_mismatches(b, mutant) == []
    with pytest.raises(AssertionError):
        first_failure(diagonal_braidings(), check)
    for make in BETA_DIFFERENTIAL.values():
        assert _beta_mismatches(make(), mutant)


def test_beta_slot_map_is_shared_per_braiding():
    # the shuffle and unshuffle rows and qb_validate's yb rows read the one
    # beta slot map of their braiding, and none of them mutates its images
    M = graded_base().qb_structure(3)
    b = M.braiding
    assert check_tensor_yb_product(split_product(
        lambda x, y: qshuffle_product(x, y, b)), b, 1, 1, 1).ok
    memo = b._beta_slot_cache
    snapshot = {key: dict(img.terms) for key, img in memo.items()}
    assert snapshot
    assert check_tensor_yb_coproduct(unshuffle_components(b), b, 1, 1, 1).ok
    assert qb_validate(M, 3).ok
    for key in snapshot:
        assert beta_slots(b)(key) is memo[key]
        assert memo[key].terms == snapshot[key]
    # images equal beta_{ij} re-keyed, from a braiding with its own caches
    fresh = Braiding(b.space, b.fwd, b.inv)
    for key, img in memo.items():
        assert img == _rekeyed_beta(fresh, key)
    # the inverse braiding keeps its own map, of inverse images
    inv = Braiding(b.space, b.inv, b.fwd)
    assert inv._beta_slot_cache is not memo
    assert check_tensor_yb_coproduct(unshuffle_components(inv), inv,
                                     1, 1, 1).ok
    assert inv._beta_slot_cache
    fresh_inv = Braiding(b.space, b.inv, b.fwd)
    for key, img in inv._beta_slot_cache.items():
        assert img == _rekeyed_beta(fresh_inv, key)
    key = ((0, 1), (1,))
    assert beta_slots(inv)(key) != beta_slots(b)(key)


def test_shuffle_degree_two():
    b = symbolic_diagonal(2)
    res = qshuffle_product(Element.basis((0,)), Element.basis((1,)), b)
    assert res == Element.basis((0, 1)) + \
        Element.basis((1, 0), coeff=Scalar.q_power(2))


def test_shuffle_associative_flip():
    b = flip_braiding(2)
    x, y, z = (Element.basis(w) for w in [(0,), (1, 0), (1,)])
    lhs = qshuffle_product(qshuffle_product(x, y, b), z, b)
    rhs = qshuffle_product(x, qshuffle_product(y, z, b), b)
    assert lhs == rhs


def test_shuffle_associative_exterior():
    b = exterior_braiding(2)
    x, y, z = (Element.basis(w) for w in [(0, 1), (1,), (0,)])
    lhs = qshuffle_product(qshuffle_product(x, y, b), z, b)
    rhs = qshuffle_product(x, qshuffle_product(y, z, b), b)
    assert lhs == rhs


def _shuffle_associative(b, shuffle=qshuffle_product):
    assert_associative(lambda x, y: shuffle(x, y, b), b.space, 4)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagonal_braidings())
def test_shuffle_associative_on_generated_braidings(b):
    _shuffle_associative(b)


def test_generated_shuffle_associativity_catches_a_dropped_shuffle():
    # every (p, q)-shuffle product with p, q >= 1 loses its last shuffle,
    # the one in which every letter of u crosses all of v
    mutant = _mutant_kernel(
        "for k in range(c + 1):",
        "for k in range(c if m == 0 and 0 < c == len(v) else c + 1):",
        qshuffle_product)
    with pytest.raises(AssertionError):
        first_failure(diagonal_braidings(),
                      lambda b: _shuffle_associative(b, mutant))


def _shuffles_match_lifts(b, shuffle=qshuffle_product,
                          component=_unshuffle_component):
    """On every word of degree n <= 5, split as u v after p letters: u sh v
    is the sum of T_w(u v) over the (p, n-p)-shuffles w, and the (p, n-p)
    unshuffle component the sum of T_{w^{-1}}(u v) cut after p, by the
    reference lifts, which apply sigma one generator at a time."""
    for n in range(6):
        for letters in b.space.words(n):
            for p in range(n + 1):
                shuffles = enumerate_shuffles(p, n - p)
                ref, x = Element(), Element.basis(letters)
                for w in shuffles:
                    ref.add_scaled(lift(b, w, x))
                assert shuffle(Element.basis(letters[:p]),
                               Element.basis(letters[p:]), b) == ref, \
                    (letters, p)
                ref, x = Element(), Element.basis(letters, (p,))
                for w in shuffles:
                    ref.add_scaled(lift(b, perm_inverse(w), x))
                assert component(b, letters, p) == ref, (letters, p)


@pytest.mark.parametrize("name", sorted(BETA_DIFFERENTIAL))
def test_shuffle_kernels_match_the_lift_reference(name):
    _shuffles_match_lifts(BETA_DIFFERENTIAL[name]())


def test_shuffle_kernels_match_the_lift_reference_on_generated_braidings():
    first_failure(diagonal_braidings(), _shuffles_match_lifts)


@pytest.mark.parametrize("role, old, new", [
    ("shuffle", "for k in range(c + 1):", "for k in range(c):"),
    ("shuffle", "end, cut = m + k + 1, (k,) if m else ()",
     "end, cut = m + k + 1, (c,) if m else ()"),
    ("component", "img = beta((w[i:] + a, (len(w) - i,)))",
     "img = Element.basis(a + w[i:])"),
], ids=["shuffle-longest-crossing-dropped", "shuffle-bound-never-falls",
        "unshuffle-left-letter-unbraided"])
def test_shuffle_differential_catches_planted_faults(role, old, new):
    kernel = {"shuffle": qshuffle_product,
              "component": _unshuffle_component}[role]
    mutant = _mutant_kernel(old, new, kernel)

    def check(b):
        _shuffles_match_lifts(b, **{role: mutant})
    with pytest.raises(AssertionError):
        first_failure(diagonal_braidings(), check)
    for make in BETA_DIFFERENTIAL.values():
        with pytest.raises(AssertionError):
            check(make())


def test_unshuffle_component_of_a_1500_letter_word():
    # e1 e2^1499 on q_ij = q^{2i+j+1}: one letter crosses the letters
    # before it (p = 1), or the letters after it cross one (p = 1499); a
    # kernel recursing once per letter would pass the recursion limit
    b, n = symbolic_diagonal(2), 1500
    word = (0,) + (1,) * (n - 1)
    q = Scalar.q_power

    def total(exponents):
        out = Scalar.zero()
        for e in exponents:
            out = out + q(e)
        return out
    assert _unshuffle_component(b, word, 1) == Element({
        (word, (1,)): Scalar.one(),
        ((1, 0) + word[2:], (1,)): total(4 * t - 2 for t in range(1, n))})
    assert _unshuffle_component(b, word, n - 1) == Element({
        (word[1:] + (0,), (n - 1,)): q(2 * (n - 1)),
        (word, (n - 1,)): total(4 * s for s in range(n - 1))})


def test_quantum_coproduct_counit():
    b = symbolic_diagonal(2)
    x = Element.basis((0, 1, 0))
    d = quantum_coproduct(x, b)
    # (counit (x) id) recovers x
    left = Element()
    for (letters, cuts), c in d.terms.items():
        if cuts[0] == 0:
            left.add_term((letters, ()), c)
    assert left == x


def _delta_beta_forms_agree(b):
    """Delta_beta^{(n)} by iteration and as T_{w_{n+1}} of the cut factors
    agree on every one-cut basis word of degree <= 3, n in {1, 2}."""
    for d in range(4):
        for letters in b.space.words(d):
            for cut in range(d + 1):
                x = Element.basis(letters, cuts=(cut,))
                for n in (1, 2):
                    assert delta_beta_iter(b, x, n) \
                        == delta_beta_via_w(b, x, n), (letters, cut, n)


def test_delta_beta_matches_w_form():
    for b in (symbolic_diagonal(2), exterior_braiding(2)):
        _delta_beta_forms_agree(b)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagonal_braidings())
def test_generated_delta_beta_matches_w_form(b):
    _delta_beta_forms_agree(b)


def test_delta_beta_forms_catch_an_unbraided_w_form(monkeypatch):
    # w_{n+1} replaced by the identity: the w form then only cuts
    monkeypatch.setattr(tensoralg, "w_block",
                        lambda i: tuple(range(1, 2 * i + 1)))
    with pytest.raises(AssertionError):
        first_failure(diagonal_braidings(), _delta_beta_forms_agree)
    with pytest.raises(AssertionError):
        _delta_beta_forms_agree(exterior_braiding(2))


def _reference_delta_beta(braiding, x):
    """(id (x) beta (x) id)(delta (x) delta) on one-cut terms, written out
    split by split."""
    out = Element()
    for (letters, (cut,)), c in x.terms.items():
        u, v = letters[:cut], letters[cut:]
        for a in range(len(u) + 1):
            u1, u2 = u[:a], u[a:]
            for bpos in range(len(v) + 1):
                v1, v2 = v[:bpos], v[bpos:]
                img = beta_lift(braiding, len(u2), len(v1), u2 + v1)
                for (mw, _), s in img.terms.items():
                    ncuts = (len(u1), len(u1) + len(v1),
                             len(u1) + len(v1) + len(u2))
                    out.add_term((u1 + mw + v2, ncuts), s * c)
    return out


def _reference_first_factor(braiding, x, reduced):
    """Delta_beta on the first pair factor in compositional form: split the
    first pair off each term, apply Delta_beta to it, subtract the two
    trivial terms 1_C (x) x and x (x) 1_C if reduced, and rejoin."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        prefix_len = cuts[1] if len(cuts) >= 2 else len(letters)
        first = Element.basis(letters[:prefix_len], (cuts[0],), c)
        expanded = _reference_delta_beta(braiding, first)
        if reduced:
            for (fl, fc), s in first.terms.items():
                expanded.add_term((fl, (0, 0, fc[0])), -s)
                expanded.add_term((fl, (fc[0], len(fl), len(fl))), -s)
        for (fl, fc), s in expanded.terms.items():
            out.add_term((fl + letters[prefix_len:], fc + cuts[1:]), s)
    return out


def _differential(kernel, braiding, ncuts, reduced):
    """Run kernel against the compositional form on generated elements
    whose terms have ncuts cuts; hypothesis re-raises a mismatch."""
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        x = Element()
        for _ in range(data.draw(st.integers(1, 3))):
            slots = [tuple(data.draw(st.lists(st.integers(0, 1),
                                              max_size=2)))
                     for _ in range(ncuts + 1)]
            c = Scalar.from_int(data.draw(st.integers(-2, 2))) \
                * Scalar.q_power(data.draw(st.integers(-2, 2)))
            x = x + reduce(_join, [Element.basis(w) for w in slots]).scale(c)
        assert kernel(braiding, x, reduced) == \
            _reference_first_factor(braiding, x, reduced)
    check()
    # fixed inputs the draws may miss: an empty first pair, whose one split
    # is both unit splits, and empty later pairs
    words = [(0, 1), (1,), (1, 0), (0,), (1, 1), ()]
    for slots in ([(), ()] + words[2:ncuts + 1],
                  words[:2] + [()] * (ncuts - 1)):
        x = _slots(*slots, coeff=Scalar.from_int(2) * Scalar.q_power(-1))
        assert kernel(braiding, x, reduced) == \
            _reference_first_factor(braiding, x, reduced)


DIFFERENTIAL_BRAIDINGS = {"exterior": lambda: exterior_braiding(2),
                          "symbolic-diagonal": lambda: symbolic_diagonal(2)}


@pytest.mark.parametrize("ncuts", [1, 3, 5])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_BRAIDINGS))
def test_first_factor_delta_beta_matches_compositional_form(name, ncuts):
    b = DIFFERENTIAL_BRAIDINGS[name]()
    for reduced in (False, True):
        _differential(_first_factor_delta_beta, b, ncuts, reduced)
    if ncuts == 1:
        _differential(lambda b, x, reduced: delta_beta(b, x), b, 1, False)


def _mutant_kernel(old, new, kernel=_first_factor_delta_beta):
    """A tensoralg kernel with one line of its source replaced."""
    src = inspect.getsource(kernel)
    assert src.count(old) == 1
    namespace = dict(vars(tensoralg))
    exec(src.replace(old, new), namespace)
    return namespace[kernel.__name__]


# the reduced form keeping one unit split: u|v (x) 1_C, then 1_C (x) u|v
UNIT_SPLIT_KEPT = [("a == cut and b == end", "False"),
                   ("a == 0 and b == cut", "False")]


@pytest.mark.parametrize("old, new", UNIT_SPLIT_KEPT + [
    ("out.add_term((letters, (0, 0, 0) + rest), -c)", "pass"),
    ("ncuts = (a, a + b - cut, b) + rest",
     "ncuts = (a, a + b - cut, b) + tuple(p + 1 for p in rest)"),
    ("out.add_term((letters, ncuts), c)",
     "out.add_term((letters, (a, a, b) + rest), c)"),
], ids=["right-unit-kept", "left-unit-kept", "empty-pair-dropped",
        "rest-cut-shifted", "identity-split-middle-cut"])
def test_first_factor_differential_catches_planted_fault(old, new):
    mutant = _mutant_kernel(old, new)
    with pytest.raises(AssertionError):
        _differential(mutant, exterior_braiding(2), 3, True)


def test_reduced_delta_beta_drops_unit_terms():
    b = symbolic_diagonal(2)
    x = Element.basis((0, 1), cuts=(1,))
    full = delta_beta(b, x)
    red = delta_beta_iter(b, x, 1, reduced=True)
    diff = full - red
    for (letters, cuts), _ in diff.terms.items():
        bounds = slot_bounds(letters, cuts)
        degs = [bounds[2 * t + 1] - bounds[2 * t] +
                bounds[2 * t + 2] - bounds[2 * t + 1] for t in (0, 1)]
        assert 0 in degs


def test_power_product_flip_is_componentwise():
    b = flip_braiding(2)
    mult = LinMap(2, {w: Element.basis((w[0],)) for w in b.space.words(2)})
    prod = power_product(2, mult, b)
    res = prod((0, 1, 1, 0))
    assert res == Element.basis((0, 1))


def test_power_coproduct_inverts_interleave():
    b = symbolic_diagonal(2)
    comult = LinMap(1, {(i,): Element.basis((i, i)) for i in range(2)})
    coprod = power_coproduct(2, comult, b)
    prod = power_product(2, LinMap(2, {
        (i, i): Element.basis((i,)) for i in range(2)}), b)
    # componentwise group-like comult then product recovers a scalar multiple
    x = (0, 1)
    back = Element()
    for (letters, cuts), c in coprod(x).terms.items():
        back = back + prod(letters, c)
    assert back.terms.get(((0, 1), ())) is not None


@pytest.mark.parametrize("make", [exterior_braiding, symbolic_diagonal])
@pytest.mark.parametrize("i", [1, 2, 3])
def test_power_structures_match_lifted_tensor_maps(make, i):
    b = make(2)
    q = parse_scalar("q")
    mult = LinMap(2, {(0, 0): Element.basis((1,)),
                      (0, 1): Element.basis((0,), coeff=q),
                      (1, 0): Element.basis((0,)) + Element.basis((1,))})
    comult = LinMap(1, {(0,): Element.basis((0, 1)),
                        (1,): Element.basis((1, 1), coeff=q)
                        + Element.basis((1, 0))})
    prod, coprod = power_product(i, mult, b), power_coproduct(i, comult, b)
    mult_i = reduce(LinMap.tensor, [mult] * i)
    comult_i = reduce(LinMap.tensor, [comult] * i)
    ref_prod = mult_i.compose(braid_lift(w_block(i), b))
    ref_coprod = braid_lift(perm_inverse(w_block(i)), b).compose(comult_i)
    for w in b.space.words(2 * i):
        assert prod(w) == ref_prod.column(w)
        assert prod(w, q) == ref_prod.column(w).scale(q)
    for w in b.space.words(i):
        assert coprod(w) == ref_coprod.column(w)
        assert coprod(w, q) == ref_coprod.column(w).scale(q)


def test_bilinear_products_refuse_cut_elements():
    b = symbolic_diagonal(2)
    base = graded_base()
    M = base.qb_structure(degree_cap=4)
    cut, plain = Element.basis((0, 1), (1,)), Element.basis((1,))
    for name, product in (
            ("concat_product", concat_product),
            ("qshuffle_product", lambda x, y: qshuffle_product(x, y, b)),
            ("star_product", lambda x, y: star_product(M, x, y)),
            ("quasi_shuffle", lambda x, y: quasi_shuffle(x, y, base))):
        for x, y in ((cut, plain), (plain, cut), (cut, Element()),
                     (Element(), cut)):
            with pytest.raises(ValueError) as e:
                product(x, y)
            assert type(e.value) is ValueError
            assert str(e.value) == "%s expects uncut elements" % name
    for name, linear in (
            ("deconcatenate", deconcatenate),
            ("delta_iter", lambda x: delta_iter(x, 2)),
            ("quantum_coproduct", lambda x: quantum_coproduct(x, b))):
        with pytest.raises(ValueError) as e:
            linear(cut + plain)
        assert type(e.value) is ValueError
        assert str(e.value) == "%s expects uncut elements" % name


def test_symmetrizer_rank_flip():
    b = negated(flip_braiding(2))
    sym = symmetrizer_image(2, b)
    img = [w for w in b.space.words(2) if not sym.column(w).is_zero()]
    # the symmetrizer of -flip, the antisymmetrizer, kills the diagonal words
    assert ((0, 0) not in img) and ((1, 1) not in img)


# -- the Nichols algebra ---------------------------------------------------

def _nichols_matches_symmetrizer(kernel, braiding, n):
    """kernel(braiding, n) against the symmetrizer reference, degree by
    degree.  A subspace has one reduced echelon basis (column_echelon_basis
    gives it), so equal lists are equal subspaces, not only equal ranks."""
    bases, space = kernel(braiding, n), braiding.space
    assert len(bases) == n + 1
    for d, basis in enumerate(bases):
        sym = symmetrizer_image(d, braiding)
        assert basis == column_echelon_basis(
            [sym.column(w) for w in space.words(d)], space, d), d


def _rational_diagonal():
    return diagonal_braiding([[parse_scalar(e) for e in row] for row in
                              [["(q^2+1)/(q+2)", "2/(q-3)"],
                               ["2/(q-3)", "-q^-1"]]])


# (braiding, degree): degree 5 at dim 2 and degree 4 at dim 3
NICHOLS_BRAIDINGS = {
    "deformed-flip": (lambda: exterior_braiding(2), 5),
    "minus-deformed-flip-3": (lambda: negated(exterior_braiding(3)), 4),
    "symbolic-diagonal": (lambda: symbolic_diagonal(2), 5),
    "rational-diagonal": (_rational_diagonal, 5),
}


@pytest.mark.parametrize("name", sorted(NICHOLS_BRAIDINGS))
def test_nichols_basis_matches_symmetrizer(name):
    make, n = NICHOLS_BRAIDINGS[name]
    _nichols_matches_symmetrizer(nichols_basis, make(), n)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagonal_braidings())
def test_nichols_basis_matches_symmetrizer_on_generated_braidings(b):
    _nichols_matches_symmetrizer(nichols_basis, b, 4)


def _root_heights(A):
    """Heights of the positive roots of the finite root system of the
    Cartan matrix A, grown from the simple roots by root strings:
    beta + alpha_i is a root exactly when p > <beta, alpha_i^vee> =
    sum_j a_ij c_j, where beta - p alpha_i ends the alpha_i-string down
    from beta = sum_j c_j alpha_j."""
    n = len(A)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, layer = set(simple), simple
    while layer:
        grown = set()
        for beta in layer:
            for i in range(n):
                p, down = 0, list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p > sum(a * c for a, c in zip(A[i], beta)):
                    grown.add(tuple(c + (j == i) for j, c in enumerate(beta)))
        roots |= grown
        layer = grown
    return [sum(r) for r in roots]


def _root_series(heights, n):
    """The t^0..t^n coefficients of prod_h 1/(1 - t^h)."""
    coeffs = [1] + [0] * n
    for h in heights:
        for k in range(h, n + 1):
            coeffs[k] += coeffs[k - h]
    return coeffs


# (Cartan matrix, symmetrizer d, number of positive roots)
CARTAN_TYPES = {
    "A2": ([[2, -1], [-1, 2]], [1, 1], 3),
    "B2": ([[2, -2], [-1, 2]], [1, 2], 4),
    "G2": ([[2, -1], [-3, 2]], [3, 1], 6),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1], 6),
}


def _nichols_ranks_match_roots(kernel, name, n):
    """Rosso's oracle: at generic q the Nichols algebra of a Cartan
    braiding is U_q^+, whose degree-d part has the t^d coefficient of
    prod over the positive roots of 1/(1 - t^{height})."""
    A, d, count = CARTAN_TYPES[name]
    heights = _root_heights(A)
    assert len(heights) == count
    b = diagonal_braiding(cartan_qmatrix(A, d))
    assert [len(basis) for basis in kernel(b, n)] == \
        _root_series(heights, n)


@pytest.mark.parametrize("name", sorted(CARTAN_TYPES))
def test_nichols_ranks_match_positive_root_heights(name):
    _nichols_ranks_match_roots(nichols_basis, name, 6)


def test_nichols_checks_catch_a_dropped_letter():
    mutant = _mutant_kernel("for e in letters for b",
                            "for e in letters[1:] for b", nichols_basis)
    with pytest.raises(AssertionError):
        _nichols_matches_symmetrizer(mutant, symbolic_diagonal(2), 2)
    with pytest.raises(AssertionError):
        _nichols_ranks_match_roots(mutant, "A2", 2)


def test_tensor_product_rows_shuffle():
    b = exterior_braiding(2)
    rep = check_tensor_yb_product(split_product(
        lambda x, y: qshuffle_product(x, y, b)), b, 1, 2, 1)
    assert rep.ok


def test_tensor_coproduct_rows():
    b = exterior_braiding(2)
    assert check_tensor_yb_coproduct(unshuffle_components(b), b, 1, 1, 2).ok
