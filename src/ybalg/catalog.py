"""Ready-made braidings and Hopf algebras on small spaces.

Diagonal braidings from a scalar matrix, the one-parameter deformation of the
exterior flip with its quadratic relation, the signed flip on wedge-monomial
bases, Cartan-matrix q-data, and cyclic group algebras.  Everything is built
over the symbolic parameter q and validated at construction.
"""

from __future__ import annotations

import json
from itertools import combinations

from .braid import Braiding
from .hopf import HopfPresentation
from .linear import (Element, FormatError, LinMap, Report, Space, _checked,
                     _on_basis, _point, column_echelon_basis, map_kernel_basis)
from .scalars import Scalar, parse_scalar


class ZeroEntry(ValueError):
    pass


class NotSymmetrizable(ValueError):
    pass


def diagonal_braiding(Q):
    """sigma(e_i (x) e_j) = q_ij e_j (x) e_i for a matrix of nonzero scalars."""
    n = len(Q)
    for row in Q:
        if len(row) != n:
            raise ValueError("Q must be square")
        for entry in row:
            if entry.is_zero():
                raise ZeroEntry("diagonal braiding entries must be nonzero")
    space = Space(["e%d" % (i + 1) for i in range(n)])
    fwd = {}
    inv = {}
    for i in range(n):
        for j in range(n):
            fwd[(i, j)] = Element.basis((j, i), coeff=Q[i][j])
            inv[(j, i)] = Element.basis((i, j), coeff=Q[i][j].invert())
    return Braiding(space, LinMap(2, fwd), LinMap(2, inv))


def exterior_braiding(N):
    """Deformed flip on an N-dimensional space, with the quadratic relation.

    e_i (x) e_i is fixed; e_i (x) e_j (i < j) goes to q^{-1} e_j (x) e_i;
    e_i (x) e_j (i > j) picks up the extra rank-one term (1 - q^{-2})
    e_i (x) e_j.  The inverse is supplied as q^2 sigma - (q^2 - 1) id, so
    the Braiding's right-inverse check sigma sigma^{-1} = id is exactly the
    quadratic relation (sigma - id)(sigma + q^{-2} id) = 0.
    """
    space = Space(["e%d" % (i + 1) for i in range(N)])
    qinv = Scalar.q_power(-1)
    extra = Scalar.one() - Scalar.q_power(-2)
    cols = {}
    for i in range(N):
        for j in range(N):
            if i == j:
                cols[(i, j)] = Element.basis((i, j))
            elif i < j:
                cols[(i, j)] = Element.basis((j, i), coeff=qinv)
            else:
                cols[(i, j)] = (Element.basis((j, i), coeff=qinv)
                                + Element.basis((i, j), coeff=extra))
    fwd = LinMap(2, cols)
    q2 = Scalar.q_power(2)
    return Braiding(space, fwd, fwd.scale(q2).add(
        LinMap.identity(space, 2).scale(Scalar.one() - q2)))


def exterior_relations_check(N):
    """Degree-2 relations of the quadratic exterior algebra.

    In the signed-symmetrizer model of the quotient, a relation holds
    exactly when sum_w (-1)^{l(w)} T_w kills its tensor representative; on
    two letters that sum is id - sigma.  e_i (x) e_i and e_j (x) e_i +
    q^{-1} e_i (x) e_j (i < j) must map to zero, and together they must
    span the fixed space Ker(id - sigma).
    """
    b = exterior_braiding(N)
    space = b.space
    fixer = LinMap.identity(space, 2).add(b.fwd.scale(-Scalar.one()))
    qinv = Scalar.q_power(-1)
    report = Report()
    relations = [("square e%d" % (i + 1), Element.basis((i, i)))
                 for i in range(N)]
    relations += [("skew e%d e%d" % (i + 1, j + 1), Element.basis((j, i))
                   + Element.basis((i, j), coeff=qinv))
                  for i in range(N) for j in range(i + 1, N)]
    for name, x in relations:
        img = fixer.apply(x)
        report.record(name, img.is_zero(), None if img.is_zero() else img)
    # the relations span the full fixed space of sigma: the two spans have
    # the dimension of their sum
    kernel = map_kernel_basis(fixer, space)
    span = column_echelon_basis([x for _, x in relations], space, 2)
    report.record("fixed-space span", len(kernel) == len(span) == len(
        column_echelon_basis(kernel + span, space, 2)))
    return report


# -- signed flip on wedge monomials ----------------------------------------

def _neg_q_power(k):
    return Scalar.q_power(k, -1 if k % 2 else 1)


def _flip_exponent(I, J):
    """Exponent (I|J): zero on overlapping index sets, otherwise twice the
    number of descending cross pairs minus the product of the lengths.

    The zero case makes the map the plain flip there, which is what squares
    to the identity.
    """
    if set(I) & set(J):
        return 0
    return 2 * _cross_inversions(I, J) - len(I) * len(J)


def _cross_inversions(I, J):
    return sum(1 for a in I for b in J if a > b)


class WedgeAlgebra:
    """Wedge-monomial basis of the quadratic exterior algebra on N letters.

    One Space letter per increasing index subset (the empty set is the
    unit).  Carries the signed-flip braiding, the wedge product, and the
    unshuffle coproduct; the braiding squares to the identity.
    """

    def __init__(self, N):
        self.N = N
        self.subsets = [()]
        for k in range(1, N + 1):
            self.subsets.extend(combinations(range(1, N + 1), k))
        self.index = {s: i for i, s in enumerate(self.subsets)}
        self.space = Space(["w" + "".join(map(str, s)) for s in self.subsets])
        self.unit = Element.basis((self.index[()],))

        cols = {}
        for a, I in enumerate(self.subsets):
            for b, J in enumerate(self.subsets):
                cols[(a, b)] = Element.basis(
                    (b, a), coeff=_neg_q_power(_flip_exponent(I, J)))
        # sigma is its own inverse; Braiding checks both compositions
        sigma = LinMap(2, cols)
        self.braiding = Braiding(self.space, sigma, sigma)

        wcols = {}
        for a, I in enumerate(self.subsets):
            for b, J in enumerate(self.subsets):
                if set(I) & set(J):
                    continue
                merged = tuple(sorted(I + J))
                coeff = _neg_q_power(-_cross_inversions(I, J))
                wcols[(a, b)] = Element.basis((self.index[merged],),
                                              coeff=coeff)
        self.wedge = LinMap(2, wcols)

        dcols = {}
        ccols = {}
        for a, J in enumerate(self.subsets):
            res = Element()
            for k in range(len(J) + 1):
                for S in combinations(J, k):
                    rest = tuple(x for x in J if x not in S)
                    coeff = _neg_q_power(-_cross_inversions(S, rest))
                    res.add_term(((self.index[S], self.index[rest]), ()),
                                 coeff)
            dcols[(a,)] = res
            if J == ():
                ccols[(a,)] = Element.unit()
        self.coproduct = LinMap(1, dcols)
        self.counit = LinMap(1, ccols)

    def wedge_element(self, I):
        """Basis monomial for an index sequence, sorted with the sign rule."""
        I = tuple(I)
        if len(set(I)) != len(I):
            return Element()
        inv = sum(1 for x in range(len(I)) for y in range(x + 1, len(I))
                  if I[x] > I[y])
        return Element.basis((self.index[tuple(sorted(I))],),
                             coeff=_neg_q_power(-inv))


def qflip_compat_check(wa):
    """Wedge and unshuffle compatibility of the signed flip.

    The identities hold on triples where the bystander monomial is disjoint
    from the other two; on overlapping index sets the flip degenerates to
    the plain transposition and the product rows do not apply.  Checked:
    both product rows, both coproduct rows, and the unit row `unit-flip`.
    """
    sig, wedge, delta = wa.braiding.fwd, wa.wedge, wa.coproduct
    u = _point(wa.unit)
    # the index set of each letter as a bitmask
    masks = [sum(1 << i for i in I) for I in wa.subsets]
    report = Report()

    def check(identity, degree, bystander, lhs, rhs):
        # a case is named by the index sets of its letters
        report.check(identity, [
            (tuple(wa.subsets[a] for a in w), key, lhs, rhs)
            for w, key, lhs, rhs in _on_basis([wa.space] * degree, (lhs, rhs))
            if not any(masks[w[bystander]] & masks[a]
                       for t, a in enumerate(w) if t != bystander)])

    check("wedge-left", 3, 0, [(sig, 0), (sig, 1), (wedge, 0)],
          [(wedge, 1), (sig, 0)])
    check("wedge-right", 3, 2, [(sig, 1), (sig, 0), (wedge, 1)],
          [(wedge, 0), (sig, 0)])
    check("coproduct-left", 2, 0, [(delta, 1), (sig, 0), (sig, 1)],
          [(sig, 0), (delta, 0)])
    check("coproduct-right", 2, 0, [(delta, 0), (sig, 1), (sig, 0)],
          [(sig, 0), (delta, 1)])
    # sigma(x (x) 1) = 1 (x) x and sigma(1 (x) x) = x (x) 1
    report.check("unit-flip", _on_basis(
        [wa.space], ([(u, 1), (sig, 0)], [(u, 0)]),
        ([(u, 0), (sig, 0)], [(u, 1)])))
    return report


def cartan_qmatrix(A, d):
    """q_ij = q^{d_i a_ij} from a symmetrizable integer Cartan matrix."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("A must be square")
    if len(d) != n:
        raise ValueError("d must match the size of A")
    for i in range(n):
        for j in range(n):
            if d[i] * A[i][j] != d[j] * A[j][i]:
                raise NotSymmetrizable(
                    "d_i a_ij != d_j a_ji at (%d, %d)" % (i, j))
    return [[Scalar.q_power(d[i] * A[i][j]) for j in range(n)]
            for i in range(n)]


def group_algebra_hopf(n):
    """K[Z/n]: group-like basis g^0, ..., g^{n-1} with S(g) = g^{-1}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    space = Space(["g%d" % i for i in range(n)])
    mult = LinMap(2, {(i, j): Element.basis(((i + j) % n,))
                      for i in range(n) for j in range(n)})
    comult = LinMap(1, {(i,): Element.basis((i, i)) for i in range(n)})
    counit = LinMap(1, {(i,): Element.unit() for i in range(n)})
    antipode = LinMap(1, {(i,): Element.basis(((-i) % n,))
                          for i in range(n)})
    return HopfPresentation(space, mult, Element.basis((0,)), comult,
                            counit, antipode)


# -- address resolution ----------------------------------------------------

def resolve_catalog(address):
    """Build a catalog object from an address like `exterior:N=3`.

    Supported kinds: exterior (Braiding), qflip (WedgeAlgebra), diagonal
    (Braiding from a JSON file of scalar strings), groupalgebra
    (HopfPresentation), cartan (the diagonal Braiding with entries
    q^{d_i a_ij}, from a JSON file with "A" and "d").  An address that is
    not a string, an unknown kind, a missing or malformed parameter, or a
    file whose JSON does not have its kind's form raises
    linear.FormatError.
    """
    kind, _, rest = _checked(address, str).partition(":")
    params = {}
    if rest:
        for piece in rest.split(","):
            key, _, value = piece.partition("=")
            if not _:
                raise FormatError("", "%r has the malformed parameter %r"
                                  % (address, piece))
            params[key.strip()] = value.strip()

    def param(key, read):
        try:
            return read(params[key])
        except (KeyError, ValueError):
            raise FormatError("", "%r needs %s=<%s>"
                              % (address, key, read.__name__)) from None

    def data(form, what):
        """The JSON of the file that the address names, refused unless it
        is JSON, not too deep to read, of the form `what` describes."""
        with open(param("file", str)) as fh:
            try:
                return _checked(json.load(fh), form)
            except (ValueError, RecursionError):
                raise FormatError("", "%r reads a file that is not %s"
                                  % (address, what)) from None

    if kind == "exterior":
        return exterior_braiding(param("N", int))
    if kind == "qflip":
        return WedgeAlgebra(param("N", int))
    if kind == "diagonal":
        rows = data([[str]], "a JSON list of rows of scalar strings")
        return diagonal_braiding([[parse_scalar(entry) for entry in row]
                                  for row in rows])
    if kind == "groupalgebra":
        return group_algebra_hopf(param("n", int))
    if kind == "cartan":
        obj = data({"A": [[int]], "d": [int]},
                   'a JSON object of integer rows "A" and integers "d"')
        return diagonal_braiding(cartan_qmatrix(obj["A"], obj["d"]))
    raise FormatError("", "%r names no catalog kind" % (address,))
