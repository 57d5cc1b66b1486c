"""Stock braidings: diagonal, deformed flip, signed wedge flip, q-data."""

import json

import pytest

from conftest import negated
from ybalg.braid import Braiding, check_yang_baxter
from ybalg.catalog import (NotSymmetrizable, WedgeAlgebra, ZeroEntry,
                           cartan_qmatrix, diagonal_braiding,
                           exterior_braiding, exterior_relations_check,
                           group_algebra_hopf, qflip_compat_check,
                           resolve_catalog, _flip_exponent)
from ybalg.hopf import HopfPresentation
from ybalg.linear import Element, FormatError, LinMap
from ybalg.scalars import Scalar, parse_scalar
from ybalg.tensoralg import nichols_basis


def test_diagonal_all_ones_is_flip():
    one = Scalar.one()
    b = diagonal_braiding([[one, one], [one, one]])
    for w in b.space.words(2):
        assert b.fwd.apply_word(w) == Element.basis((w[1], w[0]))


def test_diagonal_symbolic_entry():
    q = parse_scalar("q")
    b = diagonal_braiding([[q, q.invert()], [q, q]])
    assert b.fwd.apply_word((0, 1)) == Element.basis((1, 0),
                                                     coeff=q.invert())


def test_diagonal_zero_entry_rejected():
    with pytest.raises(ZeroEntry):
        diagonal_braiding([[Scalar.one(), Scalar.zero()],
                           [Scalar.one(), Scalar.one()]])


def test_exterior_goldens():
    b = exterior_braiding(2)
    qinv = Scalar.q_power(-1)
    assert b.fwd.apply_word((0, 1)) == Element.basis((1, 0), coeff=qinv)
    assert b.fwd.apply_word((1, 0)) == \
        Element.basis((0, 1), coeff=qinv) + \
        Element.basis((1, 0), coeff=Scalar.one() - Scalar.q_power(-2))
    assert b.fwd.apply_word((0, 0)) == Element.basis((0, 0))


def test_exterior_quadratic_relation():
    b = exterior_braiding(3)
    ident = LinMap.identity(b.space, 2)
    quad = b.fwd.add(ident.scale(-Scalar.one())).compose(
        b.fwd.add(ident.scale(Scalar.q_power(-2))))
    assert quad.equals(LinMap(2), b.space, 2)


def test_wrong_rank_one_term_fails_the_quadratic_relation():
    # with the closed-form inverse supplied, Braiding's right-inverse check
    # is the quadratic relation, which a wrong rank-one term breaks
    b = exterior_braiding(2)
    cols = dict(b.fwd.columns)
    cols[(1, 0)] = (Element.basis((0, 1), coeff=Scalar.q_power(-1))
                    + Element.basis((1, 0), coeff=Scalar.one()
                                    - Scalar.q_power(-3)))
    bad, q2 = LinMap(2, cols), Scalar.q_power(2)
    inv = bad.scale(q2).add(
        LinMap.identity(b.space, 2).scale(Scalar.one() - q2))
    with pytest.raises(ValueError,
                       match="^supplied inverse is not a right inverse$"):
        Braiding(b.space, bad, inv)


@pytest.mark.parametrize("N", [2, 3])
def test_exterior_relations(N):
    rep = exterior_relations_check(N)
    assert rep.ok, rep.failures()


def test_signed_symmetrizer_ranks():
    # the signed symmetrizer of sigma is the symmetrizer of -sigma, whose
    # image in degree n is the degree-n part of the Nichols algebra of -sigma
    def rank(N, n):
        return len(nichols_basis(negated(exterior_braiding(N)), n)[n])
    assert rank(3, 3) == 1
    assert rank(2, 3) == 0
    assert rank(2, 2) == 1


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_qflip_squares_to_identity(N):
    # WedgeAlgebra(N) constructs, with sigma supplied as its own inverse
    b = WedgeAlgebra(N).braiding
    ident = LinMap.identity(b.space, 2)
    assert b.fwd.compose(b.fwd).equals(ident, b.space, 2)
    assert check_yang_baxter(b.fwd, b.space).ok


def test_qflip_with_a_scaled_column_is_refused():
    # supplied as its own inverse, as WedgeAlgebra does, the copy fails the
    # inverse check that Braiding always makes
    b = WedgeAlgebra(2).braiding
    cols = dict(b.fwd.columns)
    cols[(1, 2)] = cols[(1, 2)].scale(Scalar.q_power(1))
    bad = LinMap(2, cols)
    with pytest.raises(ValueError, match="not a right inverse"):
        Braiding(b.space, bad, bad)


def test_qflip_golden_coefficient():
    wa = WedgeAlgebra(3)
    a = wa.index[(1, 2)]
    b = wa.index[(3,)]
    res = wa.braiding.fwd.apply_word((a, b))
    assert res == Element.basis((b, a), coeff=Scalar.q_power(-2))


def test_flip_exponent_antisymmetry():
    wa = WedgeAlgebra(3)
    for I in wa.subsets:
        for J in wa.subsets:
            if set(I) & set(J):
                assert _flip_exponent(I, J) == 0
            else:
                assert _flip_exponent(I, J) == -_flip_exponent(J, I)


def test_wedge_element_sign_rule():
    wa = WedgeAlgebra(3)
    assert wa.wedge_element((2, 1)) == Element.basis(
        (wa.index[(1, 2)],), coeff=-Scalar.q_power(-1))
    assert wa.wedge_element((1, 1)).is_zero()


def test_wedge_vanishes_on_overlap():
    wa = WedgeAlgebra(2)
    a = wa.index[(1,)]
    assert wa.wedge.apply_word((a, a)).is_zero()
    b = wa.index[(2,)]
    got = wa.wedge.apply_word((a, b))
    assert got == Element.basis((wa.index[(1, 2)],))


def test_unshuffle_coproduct_counts():
    wa = WedgeAlgebra(3)
    d = wa.coproduct.apply_word((wa.index[(1, 2)],))
    assert len(d.terms) == 4  # the four subsets of {1, 2}


@pytest.mark.parametrize("N", [2, 3])
def test_qflip_compat(N):
    rep = qflip_compat_check(WedgeAlgebra(N))
    assert rep.ok, rep.failures()


def test_cartan_goldens():
    Q = cartan_qmatrix([[2, -1], [-1, 2]], [1, 1])
    assert Q[0][0] == Scalar.q_power(2)
    assert Q[0][1] == Scalar.q_power(-1)
    Q = cartan_qmatrix([[2, -1], [-2, 2]], [2, 1])
    assert Q[0][1] == Scalar.q_power(-2)
    with pytest.raises(NotSymmetrizable):
        cartan_qmatrix([[2, -1], [-2, 2]], [1, 1])


@pytest.mark.parametrize("A", [[[2], [-1]], [[2, -1]], [[2, -1], [-1]]])
def test_cartan_refuses_a_matrix_that_is_not_square(A):
    with pytest.raises(ValueError, match="square"):
        cartan_qmatrix(A, [1] * len(A))


def test_group_algebra_shapes():
    h1 = group_algebra_hopf(1)
    assert h1.space.dim == 1
    h3 = group_algebra_hopf(3)
    ss = h3.antipode.compose(h3.antipode)
    assert ss.equals(LinMap.identity(h3.space, 1), h3.space, 1)
    with pytest.raises(ValueError):
        group_algebra_hopf(0)


def test_resolve_catalog_addresses(tmp_path):
    assert isinstance(resolve_catalog("exterior:N=2"), Braiding)
    assert isinstance(resolve_catalog("qflip:N=2"), WedgeAlgebra)
    assert isinstance(resolve_catalog("groupalgebra:n=2"), HopfPresentation)

    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps([["q", "1"], ["1", "q^-1"]]))
    b = resolve_catalog("diagonal:file=%s" % diag)
    assert isinstance(b, Braiding)
    assert b.fwd.apply_word((0, 0)) == Element.basis((0, 0),
                                                     coeff=parse_scalar("q"))

    cart = tmp_path / "cartan.json"
    cart.write_text(json.dumps({"A": [[2, -1], [-1, 2]], "d": [1, 1]}))
    b = resolve_catalog("cartan:file=%s" % cart)
    assert isinstance(b, Braiding)
    assert b.fwd.apply_word((1, 1)) == Element.basis(
        (1, 1), coeff=Scalar.q_power(2))

    with pytest.raises(FormatError, match="^is missing or malformed$"):
        resolve_catalog(123)
    with pytest.raises(ValueError):
        resolve_catalog("nonesuch:N=2")
    with pytest.raises(ValueError):
        resolve_catalog("exterior:N")
