"""Words, elements, sparse maps, exact elimination, serialization."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (OTHER_ONES, apply_leg, kernel_coefficients,
                      legs_reference, permute_legs)
from ybalg.linear import (DegreeMismatch, Element, LinMap, Singular, Space,
                          _legs, column_echelon_basis,
                          element_from_obj, element_to_obj, in_span,
                          linmap_from_obj, linmap_to_obj, map_invert_exact,
                          map_kernel_basis, tensor_elements, term_sort_key)
from ybalg.scalars import Scalar, parse_scalar


def test_words_enumeration():
    sp = Space(["a", "b"])
    assert sp.words(0) == [()]
    assert sp.words(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_duplicate_basis_rejected():
    with pytest.raises(ValueError):
        Space(["a", "a"])


def test_element_arithmetic():
    x = Element.basis((0, 1))
    y = Element.basis((1, 0), coeff=parse_scalar("q"))
    s = x + y
    assert s - x == y
    assert (x - x).is_zero()
    assert (-x + x).is_zero()
    assert x.scale(Scalar.zero()).is_zero()


def test_tensor_shifts_cuts():
    x = Element.basis((0,), cuts=(1,))
    y = Element.basis((1, 0), cuts=(1,))
    t = tensor_elements(x, y)
    assert t == Element.basis((0, 1, 0), cuts=(1, 2))


def test_component_and_degrees():
    x = Element.basis((0,)) + Element.basis((0, 1))
    assert x.degrees() == [1, 2]
    assert x.component(1) == Element.basis((0,))


def test_linmap_compose_tensor():
    sp = Space(["a", "b"])
    f = LinMap(1, {(0,): Element.basis((1,)), (1,): Element.basis((0,))})
    assert f.compose(f).equals(LinMap.identity(sp, 1), sp, 1)
    ff = f.tensor(f)
    assert ff.apply_word((0, 1)) == Element.basis((1, 0))


def test_apply_degree_checks():
    f = LinMap(1, {(0,): Element.basis((0,))})
    with pytest.raises(DegreeMismatch):
        f.apply(Element.basis((0, 0)))


def test_invert_exact():
    sp = Space(["a", "b"])
    q = parse_scalar("q")
    f = LinMap(1, {(0,): Element.basis((0,), coeff=q) + Element.basis((1,)),
                   (1,): Element.basis((1,), coeff=q)})
    inv = map_invert_exact(f, sp)
    assert f.compose(inv).equals(LinMap.identity(sp, 1), sp, 1)
    assert inv.compose(f).equals(LinMap.identity(sp, 1), sp, 1)


def test_invert_singular():
    sp = Space(["a", "b"])
    f = LinMap(1, {(0,): Element.basis((0,)), (1,): Element.basis((0,))})
    with pytest.raises(Singular):
        map_invert_exact(f, sp)


# -- the sparse inverse against the dense Gauss-Jordan it replaced ---------

def _dense_invert(f, space):
    """Gauss-Jordan on the dense matrix of f beside the identity, with the
    same pivot rule: the first row at or below the column holding a
    nonzero entry."""
    degree = f.in_degree
    words = space.words(degree)
    index = {w: i for i, w in enumerate(words)}
    n = len(words)
    zero, one = Scalar.zero(), Scalar.one()
    mat = [[zero] * n for _ in range(n)]
    for w, col in f.columns.items():
        for (letters, _), c in col.terms.items():
            mat[index[letters]][index[w]] = c
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n)
                      if not mat[r][col].is_zero()), None)
        if pivot is None:
            raise Singular("map is singular on degree %d" % degree)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = mat[col][col].invert()
        mat[col] = [v * p for v in mat[col]]
        inv[col] = [v * p for v in inv[col]]
        for r in range(n):
            factor = mat[r][col]
            if r == col or factor.is_zero():
                continue
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
            inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    cols = {}
    for j, w in enumerate(words):
        e = Element()
        for i in range(n):
            if not inv[i][j].is_zero():
                e.add_term((words[i], ()), inv[i][j])
        if not e.is_zero():
            cols[w] = e
    return LinMap(degree, cols)


def laurent_entries():
    pair = st.tuples(st.integers(-2, 2), st.integers(-3, 3))
    return st.lists(pair, min_size=1, max_size=2).map(
        lambda ps: sum((Scalar.q_power(e, c) for e, c in ps),
                       Scalar.zero()))


def rational_entries():
    """Laurent numerators over a + b q with a, b nonzero."""
    den = st.tuples(st.integers(-3, 3).filter(bool),
                    st.integers(-3, 3).filter(bool)).map(
        lambda t: Scalar.from_int(t[0]) + Scalar.q_power(1, t[1]))
    return st.tuples(laurent_entries(), den).map(lambda t: t[0] / t[1])


@st.composite
def maps_to_invert(draw):
    """(f, space, degree, kind): f = P L U on a space of dim 1-3 at degree
    1-2, with L unit lower and U upper triangular with a nonzero diagonal
    and a third of their other entries drawn, P a row permutation; a "repeated" or "zero" kind then makes one column
    a copy of another, or zero."""
    dim, degree = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    space = Space(["e%d" % i for i in range(dim)])
    words = space.words(degree)
    n = len(words)
    entry = draw(st.sampled_from([laurent_entries(), rational_entries()]))
    nonzero = entry.filter(lambda c: not c.is_zero())
    lower, upper = {}, {}
    for j, w in enumerate(words):
        lower[w] = Element.basis(w)
        upper[w] = Element.basis(w, coeff=draw(nonzero))
        for i, v in enumerate(words):
            if i != j and draw(st.integers(0, 2)) == 0:
                part = lower if i > j else upper
                part[w] = part[w] + Element.basis(v, coeff=draw(entry))
    perm = draw(st.permutations(words))
    f = LinMap(degree, {w: Element.basis(v) for w, v in zip(words, perm)}
               ).compose(LinMap(degree, lower)).compose(
                   LinMap(degree, upper))
    kinds = ["invertible"] + (["repeated", "zero"] if n > 1 else ["zero"])
    kind = draw(st.sampled_from(kinds))
    if kind != "invertible":
        j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True)) if n > 1 else (0, 0)
        columns = dict(f.columns)
        if kind == "repeated":
            columns[words[j]] = f.column(words[k])
        else:
            columns.pop(words[j], None)
        f = LinMap(degree, columns)
    return f, space, degree, kind


def _layout(g):
    """Columns in order, each as its terms in order."""
    return [(w, list(c.terms.items())) for w, c in g.columns.items()]


@settings(max_examples=120, deadline=None)
@given(maps_to_invert())
def test_sparse_inverse_matches_dense(case):
    f, space, degree, kind = case
    outcomes = []
    for invert in (map_invert_exact, _dense_invert):
        try:
            outcomes.append(_layout(invert(f, space)))
        except Singular:
            outcomes.append(Singular)
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is Singular) == (kind != "invertible")


def elements():
    """Elements of up to four terms on words of 0-2 letters of two."""
    word = st.lists(st.integers(0, 1), max_size=2).map(tuple)
    return st.dictionaries(word, laurent_entries(), max_size=4).map(
        lambda d: Element({(w, ()): c for w, c in d.items()}))


@settings(max_examples=80, deadline=None)
@given(elements(), elements(),
       st.one_of(st.none(), st.just(Scalar.zero()), laurent_entries()))
def test_add_scaled_matches_add_term_loop(x, y, c):
    ref = Element(dict(x.terms))
    for key, a in y.terms.items():
        ref.add_term(key, a if c is None else a * c)
    before = dict(y.terms)
    out = Element(dict(x.terms))
    assert out.add_scaled(y, c) is out
    assert out.terms == ref.terms
    assert not any(v.is_zero() for v in out.terms.values())
    assert y.terms == before
    # a sum that cancels leaves no key behind
    assert Element(dict(y.terms)).add_scaled(y, -Scalar.one()).terms == {}


@settings(max_examples=60, deadline=None)
@given(maps_to_invert())
def test_elimination_rank_kernel_and_span(case):
    f, space, degree, kind = case
    words = space.words(degree)
    cols = [f.column(w) for w in words]
    rank = len(column_echelon_basis(cols, space, degree))
    # P L U has full rank; a repeated or a zero column costs exactly one
    assert rank == len(words) - (kind != "invertible")
    kernel = map_kernel_basis(f, space)
    assert rank + len(kernel) == len(words)
    assert all(f.apply(v).is_zero() for v in kernel)
    # membership in the span of the columns, which are in no echelon form
    total = Element()
    for t, c in enumerate(cols):
        total.add_scaled(c, Scalar.q_power(t))
    assert in_span(total, cols, space, degree)
    outside = [w for w in words
               if not in_span(Element.basis(w), cols, space, degree)]
    assert bool(outside) == (kind != "invertible")


def test_in_span_accepts_any_spanning_list():
    sp = Space(["a", "b"])
    e00, e11 = Element.basis((0, 0)), Element.basis((1, 1))
    assert in_span(e11, [e00 + e11, e00], sp, 2)
    assert not in_span(Element.basis((0, 1)), [e00 + e11, e00], sp, 2)
    assert in_span(Element(), [], sp, 2)


def test_kernel_basis():
    sp = Space(["a", "b"])
    f = LinMap(1, {(0,): Element.basis((0,)), (1,): Element.basis((0,))})
    ker = map_kernel_basis(f, sp)
    assert len(ker) == 1
    assert f.apply(ker[0]).is_zero()


def test_echelon_and_span():
    sp = Space(["a", "b"])
    v1 = Element.basis((0, 0)) + Element.basis((1, 1))
    v2 = Element.basis((1, 1))
    basis = column_echelon_basis([v1, v2, v1 + v2], sp, 2)
    assert len(basis) == 2
    assert in_span(v1.scale(parse_scalar("q")), basis, sp, 2)
    assert not in_span(Element.basis((0, 1)), basis, sp, 2)


def test_term_sort_key_grading():
    keys = [((1, 0), ()), ((0,), ()), ((0, 1), (1,))]
    assert sorted(keys, key=term_sort_key) == [
        ((0,), ()), ((0, 1), (1,)), ((1, 0), ())]


def test_element_roundtrip():
    x = (Element.basis((0, 1), cuts=(1,), coeff=parse_scalar("q^-1"))
         + Element.basis((1, 0, 1), cuts=(1, 2)))
    assert element_from_obj(element_to_obj(x)) == x


def test_linmap_roundtrip():
    f = LinMap(2, {(0, 1): Element.basis((1, 0), coeff=parse_scalar("1-q"))})
    sp = Space(["e1", "e2"])
    g = linmap_from_obj(linmap_to_obj(f), [sp, sp], [sp, sp])
    assert g.equals(f)
    with pytest.raises(ValueError):
        linmap_from_obj(linmap_to_obj(f) * 2, [sp, sp], [sp, sp])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 1), min_size=0, max_size=3),
                          st.integers(-3, 3)),
                min_size=0, max_size=4))
def test_linearity_of_apply(data):
    sp = Space(["a", "b"])
    f = LinMap(2, {w: Element.basis(tuple(reversed(w)))
                   for w in sp.words(2)})
    x = Element()
    y = Element()
    for word, c in data:
        word = tuple(word[:2]) if len(word) >= 2 else (0, 0)
        x.add_term((word, ()), Scalar.from_int(c))
        y.add_term((word, ()), Scalar.from_int(c * 2))
    assert f.apply(x + y) == f.apply(x) + f.apply(y)


@st.composite
def combinations_of(draw, words):
    """A random element: up to three terms with kernel_coefficients."""
    x = Element()
    for w, c in draw(st.lists(st.tuples(st.sampled_from(words),
                                        kernel_coefficients()),
                              max_size=3)):
        x.add_term((w, ()), c)
    return x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_at_matches_kronecker_reference(data):
    # the one-step leg program (f, pos) is id^pos (x) f (x) id^rest, cuts
    # untouched
    sp = Space(["a", "b"])
    arity, out = data.draw(st.sampled_from([(1, 0), (1, 1), (1, 2), (2, 1)]))
    f = LinMap(arity, {w: data.draw(combinations_of(sp.words(out)))
                       for w in sp.words(arity)})
    pos, rest = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    n = pos + arity + rest
    x = data.draw(combinations_of(sp.words(n)))
    ref = LinMap.identity(sp, pos).tensor(f).tensor(
        LinMap.identity(sp, rest)).apply(x)
    assert _legs(x, (f, pos)) == ref
    cuts = tuple(sorted(data.draw(st.lists(st.integers(0, n), max_size=2))))
    cut_x = Element({(w, cuts): c for (w, _), c in x.terms.items()})
    assert _legs(cut_x, (f, pos)) == Element(
        {(w, cuts): c for (w, _), c in ref.terms.items()})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permute_legs_matches_adjacent_flips(data):
    # new leg t is old leg order[t], in the reference and as one step of a
    # leg program; reference: adjacent flips by apply_leg
    sp = Space(["a", "b", "c"])
    n = data.draw(st.integers(1, 4))
    order = data.draw(st.permutations(range(n)))
    cuts = tuple(sorted(data.draw(st.lists(st.integers(0, n), max_size=2))))
    x = Element({(w, cuts): c for (w, _), c in
                 data.draw(combinations_of(sp.words(n))).terms.items()})
    tau = LinMap.tabulate(sp, 2, lambda w: Element.basis(w[::-1]))
    ref, legs = x, list(range(n))
    for t in range(n):
        for j in range(legs.index(order[t]), t, -1):
            ref = apply_leg(tau, j - 1, ref)
            legs[j - 1], legs[j] = legs[j], legs[j - 1]
    assert permute_legs(x, order) == ref
    assert _legs(x, list(order)) == ref


# (in-degree, out-degree) of the maps a leg program may apply: arity-0
# points, a counit, endomorphisms, comultiplications and products
_LEG_MAPS = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


@st.composite
def leg_programs(draw):
    """(x, steps): an element on 0-3 legs of a dim-2 space whose terms
    share cuts, and a leg program of 1-4 steps that fits its legs (at most
    4).  Coefficients are +-1 and +-q, 1 also as the OTHER_ONES, each a
    fixed object, so paths often meet holding the same coefficient object.
    On one leg or more, x is c u - c v for two words u, v; each map of
    arity 1 or 2 leaves out at most one column and draws the others, of 0-3
    terms, from a pool of two, so u and v often meet and cancel in the
    final sum."""
    sp = Space(["a", "b"])
    coeffs = [Scalar.one(), Scalar.from_int(-1), Scalar.q_power(1),
              Scalar.q_power(1, -1), *OTHER_ONES]

    def combination(words, least=0):
        x = Element()
        for w, c in draw(st.lists(st.tuples(st.sampled_from(words),
                                            st.sampled_from(coeffs)),
                                  min_size=least, max_size=3)):
            x.add_term((w, ()), c)
        return x

    n = draw(st.integers(0, 3))
    if n:
        # u and v differ in one letter, so a map at that leg whose two
        # columns agree sends c u - c v to zero
        u, t = draw(st.sampled_from(sp.words(n))), draw(st.integers(0, n - 1))
        c = draw(st.sampled_from(coeffs))
        x = Element({(u, ()): c, (u[:t] + (1 - u[t],) + u[t + 1:], ()): -c})
    else:
        x = combination([()], 1)
    cuts = tuple(sorted(draw(st.lists(st.integers(0, n), max_size=2))))
    x = Element({(w, cuts): c for (w, _), c in x.terms.items()})
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        if n and draw(st.booleans()):
            steps.append(list(draw(st.permutations(range(n)))))
            continue
        arity, out = draw(st.sampled_from(
            [m for m in _LEG_MAPS if m[0] <= n and n - m[0] + m[1] <= 4]))
        pool = [combination(sp.words(out), 1), combination(sp.words(out))]
        missing = (draw(st.sampled_from(sp.words(arity) + [None])) if arity
                   else None)
        cols = {w: draw(st.sampled_from(pool)) for w in sp.words(arity)
                if w != missing}
        steps.append((LinMap(arity, cols), draw(st.integers(0, n - arity))))
        n += out - arity
    return x, steps


# a program whose two paths always meet and cancel: a b - b b with cuts,
# the legs swapped, then a map sending a and b alike
_CANCELLING = (
    Element({((0, 1), (1,)): Scalar.one(), ((1, 1), (1,)): -Scalar.one()}),
    [[1, 0], (LinMap(1, {(0,): Element.basis((0,), (), Scalar.q_power(1)),
                         (1,): Element.basis((0,), (), Scalar.q_power(1))}),
              1)])


# a b and b b, each by the Scalar.one() object, sent by one map to the
# same key holding the same object q, then by 1 that is another object
_Q = Scalar.q_power(1)
_MERGING = (
    Element({((0, 1), ()): Scalar.one(), ((1, 1), ()): Scalar.one()}),
    [(LinMap(1, {(0,): Element.basis((0,), (), _Q),
                 (1,): Element.basis((0,), (), _Q)}), 0),
     (LinMap(1, {(1,): Element.basis((0,), (), OTHER_ONES[1])}), 1)])


@settings(max_examples=60, deadline=None)
@given(leg_programs())
@example(_CANCELLING)
@example(_MERGING)
def test_legs_matches_step_by_step_reference(program):
    # one pass per term, summed at the end, against one Element per step
    x, steps = program
    assert _legs(x, *steps) == legs_reference(x, *steps)


def test_tabulate_leaves_out_zero_columns():
    sp = Space(["a", "b"])
    f = LinMap.tabulate(sp, 2, lambda w: Element() if w[0] == w[1]
                        else Element.basis(w[::-1]))
    assert sorted(f.columns) == [(0, 1), (1, 0)]
    assert f.in_degree == 2
    assert f.apply_word((0, 1)) == Element.basis((1, 0))
