"""Permutations, reduced words, braid lifts, and the Yang-Baxter check."""

import inspect
import textwrap
from itertools import permutations

import pytest
from hypothesis import given, settings

from conftest import (all_reduced_words, braid_lift, chi, compose,
                      diagonal_braidings, enumerate_shuffles, first_failure,
                      flip_braiding, inversions, lift, lift_word,
                      sweedler_h4, symbolic_diagonal)
from ybalg import braid
from ybalg.braid import (Braiding, check_yang_baxter, perm_inverse,
                         perm_reduced_word, w_block)
from ybalg.catalog import WedgeAlgebra, diagonal_braiding, exterior_braiding
from ybalg.hopf import yd_adjoint, yd_braiding
from ybalg.linear import Element, LinMap, Space, _legs
from ybalg.scalars import Scalar, parse_scalar
from ybalg.tensoralg import beta_slots


def all_perms(n):
    return list(permutations(range(1, n + 1)))


def test_perm_basics():
    w = (2, 3, 1)
    assert compose(w, (1, 3, 2)) == (2, 1, 3)
    assert perm_inverse(w) == (3, 1, 2)
    assert inversions(w) == 2


def test_reduced_word_is_reduced():
    # every w in S_n, n <= 5: perm_inverse is a two-sided inverse, and the
    # reduced word has l(w) letters and rebuilds w as s_{i_1} ... s_{i_l}
    for n in range(6):
        identity = tuple(range(1, n + 1))
        for w in all_perms(n):
            inv = perm_inverse(w)
            assert compose(w, inv) == compose(inv, w) == identity
            word = perm_reduced_word(w)
            assert len(word) == inversions(w)
            rebuilt = identity
            for i in word:
                rebuilt = compose(rebuilt, identity[:i - 1] + (i + 1, i)
                                  + identity[i + 1:])
            assert rebuilt == w


def test_all_reduced_words_longest_element():
    words = all_reduced_words((3, 2, 1))
    assert sorted(map(tuple, words)) == [(1, 2, 1), (2, 1, 2)]


def test_shuffle_count():
    assert len(enumerate_shuffles(2, 2)) == 6
    for w in enumerate_shuffles(2, 3):
        assert list(w[:2]) == sorted(w[:2])
        assert list(w[2:]) == sorted(w[2:])
    # lexicographic on image sequences, the order combinations yields
    for p in range(7):
        for q in range(7):
            shuffles = list(enumerate_shuffles(p, q))
            assert shuffles == sorted(shuffles)


def test_chi_images():
    assert chi(2, 1) == (2, 3, 1)
    assert chi(1, 2) == (3, 1, 2)
    assert inversions(chi(2, 2)) == 4


def test_w_block_interleaves():
    assert w_block(2) == (1, 3, 2, 4)
    assert w_block(3) == (1, 3, 5, 2, 4, 6)


def _inverse_lift_mismatches(b):
    """The pairs (w, word) with w in S_n, n <= 4, on whose basis word the
    lift of perm_inverse(w) does not undo the lift of w.  On an involutive
    braiding the lifts form a representation of S_n, so there are none;
    otherwise already T_{s_i} T_{s_i} = sigma^2 at legs i, i+1 is not the
    identity."""
    out = []
    for n in range(5):
        for w in all_perms(n):
            for word in b.space.words(n):
                x = Element.basis(word)
                back = lift(b, perm_inverse(w), lift(b, w, x))
                if back != x:
                    out.append((w, word))
    return out


@pytest.mark.parametrize("build", [lambda: flip_braiding(2),
                                   lambda: WedgeAlgebra(2).braiding],
                         ids=["flip-2", "qflip-2"])
def test_inverse_lift_undoes_the_lift_when_involutive(build):
    assert _inverse_lift_mismatches(build()) == []


def test_inverse_lift_is_no_inverse_on_a_non_involutive_braiding():
    # sigma^2 != id on the deformed flip, so the lift of perm_inverse(w),
    # the braid s_{i_l} ... s_{i_1}, is not the inverse braid of T_w
    mismatches = _inverse_lift_mismatches(exterior_braiding(2))
    assert len(mismatches) == 318
    assert ((2, 1), (0, 1)) in mismatches


def test_flip_is_braiding():
    b = flip_braiding(2)
    assert check_yang_baxter(b.fwd, b.space).ok


def test_braiding_rejects_broken_yb():
    sp = Space(["a", "b"])
    # swap with an asymmetric scalar on one diagonal entry only: fails YBE
    cols = {w: Element.basis((w[1], w[0])) for w in sp.words(2)}
    cols[(0, 1)] = Element.basis((1, 0), coeff=Scalar.q_power(1))
    cols[(0, 0)] = Element.basis((0, 0)) + Element.basis((1, 1))
    with pytest.raises(ValueError):
        Braiding(sp, LinMap(2, cols))


def test_braiding_rejects_a_wrong_inverse():
    # sigma^2 != id on the deformed flip, so sigma is no inverse of itself
    b = exterior_braiding(2)
    with pytest.raises(ValueError, match="not a right inverse"):
        Braiding(b.space, b.fwd, b.fwd)


_FLIP = flip_braiding(2)


@pytest.mark.parametrize("bad", [
    LinMap(3, {w + (0,): Element.basis((w[1], w[0], 0))
               for w in _FLIP.space.words(2)}),
    LinMap(1, {(0,): Element.basis((1,)), (1,): Element.basis((0,))}),
    LinMap(2, {**_FLIP.fwd.columns, (0, 1): Element.basis((1, 0, 0))}),
    LinMap(2, {**_FLIP.fwd.columns, (0, 1): Element.basis((1, 2))}),
], ids=["in-degree-3", "in-degree-1", "three-letter-out-word",
        "letter-outside-v"])
def test_braiding_refuses_a_map_off_v_v(bad):
    sp = _FLIP.space
    for role, args in (("map", (bad,)), ("inverse", (_FLIP.fwd, bad))):
        with pytest.raises(ValueError, match=r"^braiding %s is not a map "
                           r"V \(x\) V -> V \(x\) V$" % role):
            Braiding(sp, *args)


def _refusal(build):
    """The message of the ValueError that build() raises, or None."""
    try:
        build()
    except ValueError as e:
        return str(e)
    return None


def _inverse_is_decided(b):
    """An accepted braiding has inv o fwd = id, the left-inverse identity
    that its construction no longer checks, and a copy of inv with any one
    entry changed is refused as no right inverse."""
    sp = b.space
    assert b.inv.compose(b.fwd).equals(LinMap.identity(sp, 2), sp, 2)
    for w, col in b.inv.columns.items():
        for key in col.terms:
            changed = dict(b.inv.columns)
            changed[w] = col + Element({key: Scalar.one()})
            assert _refusal(lambda: Braiding(sp, b.fwd, LinMap(2, changed))) \
                == "supplied inverse is not a right inverse", (w, key)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagonal_braidings())
def test_generated_braidings_decide_their_inverse(b):
    _inverse_is_decided(b)


@pytest.mark.parametrize("build", [lambda: exterior_braiding(2),
                                   lambda: WedgeAlgebra(2).braiding],
                         ids=["exterior-2", "qflip-2"])
def test_braidings_decide_their_inverse(build):
    _inverse_is_decided(build())


def test_inverse_property_catches_a_skipped_right_inverse_check(
        monkeypatch):
    # with the right-inverse check skipped, a changed inverse is accepted
    src = textwrap.dedent(inspect.getsource(Braiding.__init__))
    old = 'raise ValueError("supplied inverse is not a right inverse")'
    assert src.count(old) == 1
    namespace = dict(vars(braid))
    exec(src.replace(old, "pass"), namespace)
    monkeypatch.setattr(Braiding, "__init__", namespace["__init__"])
    with pytest.raises(AssertionError):
        first_failure(diagonal_braidings(), _inverse_is_decided)
    for build in (lambda: exterior_braiding(2),
                  lambda: WedgeAlgebra(2).braiding):
        with pytest.raises(AssertionError):
            _inverse_is_decided(build())


def test_lift_respects_word_order():
    # sigma_{i_1} o ... o sigma_{i_l}: the rightmost generator acts first
    b = symbolic_diagonal(2)
    x = Element.basis((0, 1, 0))
    direct = _legs(x, (b.fwd, 1), (b.fwd, 0))
    assert lift_word(b, [1, 2], x) == direct


def test_matsumoto_small():
    b = exterior_braiding(2)
    for w in all_perms(3):
        images = {}
        for word in all_reduced_words(w):
            for letters in b.space.words(3):
                res = lift_word(b, word, Element.basis(letters))
                images.setdefault(letters, res)
                assert images[letters] == res


def test_beta_unit_components_are_identity():
    b = symbolic_diagonal(2)
    assert braid_lift(chi(0, 2), b).equals(LinMap.identity(b.space, 2),
                                           b.space, 2)
    assert beta_slots(b)(((0, 1), (2,))) == Element.basis((0, 1), (0,))


def test_beta_diagonal_scalar():
    b = symbolic_diagonal(2)
    # beta_{11} = sigma
    assert braid_lift(chi(1, 1), b).equals(b.fwd, b.space, 2)
    # on a diagonal braiding, beta_{ij} is the block flip times the product
    res = beta_slots(b)(((0, 1, 0), (2,)))
    coeff = Scalar.q_power(1) * Scalar.q_power(3)  # q_{00} q_{10}
    assert res == Element.basis((0, 0, 1), (1,), coeff=coeff)


def test_braiding_keeps_its_yang_baxter_report():
    b = symbolic_diagonal(2)
    assert [e["identity"] for e in b.ybe.entries] == ["yang-baxter"]
    assert b.ybe.ok


@pytest.mark.parametrize("build", [
    lambda: flip_braiding(2),
    lambda: symbolic_diagonal(2),
    lambda: exterior_braiding(2),
    lambda: exterior_braiding(3),
    lambda: WedgeAlgebra(2).braiding,
    lambda: diagonal_braiding([[parse_scalar(e) for e in row] for row in
                               [["(q^2+1)/(q+2)", "q"], ["2/(q-3)", "-1"]]]),
    lambda: yd_braiding(yd_adjoint(sweedler_h4())),
], ids=["flip-2", "diagonal-2", "exterior-2", "exterior-3", "qflip-2",
        "rational-2", "yd-adjoint-h4"])
def test_inverse_braiding(build):
    # the inverse of a braiding is a braiding: it constructs, so its
    # inverse and Yang-Baxter checks pass
    b = build()
    ib = Braiding(b.space, b.inv, b.fwd)
    assert ib.ybe.ok
    assert b.fwd.compose(ib.fwd).equals(LinMap.identity(b.space, 2),
                                        b.space, 2)


def test_beta_factorization():
    # beta_{i+j,k} = (beta_{ik} (x) id^j)(id^i (x) beta_{jk})
    b = exterior_braiding(2)
    i, j, k = 1, 1, 1
    lhs = braid_lift(chi(i + j, k), b)
    step1 = LinMap.identity(b.space, i).tensor(braid_lift(chi(j, k), b))
    step2 = braid_lift(chi(i, k), b).tensor(LinMap.identity(b.space, j))
    assert lhs.equals(step2.compose(step1), b.space, i + j + k)
