"""Quantum B-infinity structures on a braided vector space.

A QBStructure is a family of component maps M_pq: V^{(x)p} (x) V^{(x)q} -> V
with fixed boundary values.  It induces the star product on the tensor
algebra, the one coalgebra map T^c(V) (x) T^c(V) -> T^c(V) whose projection
onto V is M: u * v is computed by the cofree recursion on the first letter
of the output, with every shorter product memoised.  Validation checks the
compatibility with the braiding and, degree by degree, the associativity
condition in star form,
sum_r M_{r,k}((u*v)_r (x) w) = sum_r M_{i,r}(u (x) (v*w)_r), together
with the vanishing of the reduced coproduct iterate one past the summation
limit: structural, but still computed once per distinct head, the iterate
running over the splits with both pairs nonempty.

The quantum quasi-shuffle product of a YB base is the star product of the
base's tower, whose only interior component is M_11 = the base product; the
tower layer has that one product kernel.
"""

from __future__ import annotations

from functools import cache, partial

from .linear import (Element, FormatError, LinMap, Report, _checked,
                     _degree_cap, _leg_rows, _legs, _on_basis, _point,
                     linmap_from_obj, linmap_to_obj, read_field,
                     tensor_elements)
from .tensoralg import (DegreeCapExceeded, InvalidBase, _bilinear, _linear,
                        _slot_rows, beta_slots, check_yb_algebra,
                        check_yb_product_rows, delta_beta_iter,
                        delta_beta_via_w, slot_bounds, triples)


def _lands_in_v(f, what):
    """Refuse a map with an output word that is not a single letter."""
    if any(len(w) != 1 for col in f.columns.values() for w, _ in col.terms):
        raise ValueError("%s has an output word outside V" % what)


class QBStructure:
    """Component maps M_pq up to a degree cap, boundary values enforced.

    M_00 = 0, M_10 = M_01 = id, and M_n0 = M_0n = 0 for n >= 2.  Supplied
    components must have min(p, q) >= 1.
    """

    def __init__(self, braiding, components=None, degree_cap=6):
        self.space = braiding.space
        self.braiding = braiding
        self.degree_cap = degree_cap
        self.components = {}
        if components:
            for (p, q), f in components.items():
                if p < 1 or q < 1:
                    raise ValueError(
                        "boundary component (%d, %d) is fixed" % (p, q))
                if p + q > degree_cap:
                    raise ValueError(
                        "component (%d, %d) exceeds cap %d" % (p, q,
                                                               degree_cap))
                if f.in_degree != p + q:
                    raise ValueError("component (%d, %d) has wrong in-degree"
                                     % (p, q))
                _lands_in_v(f, "component (%d, %d)" % (p, q))
                self.components[(p, q)] = f
        self._id_v = LinMap.identity(self.space, 1)
        self._star_cache = {}

    def component(self, p, q):
        """M_pq as a LinMap, or None for an identically zero component."""
        if p == 0 or q == 0:
            if (p, q) in ((1, 0), (0, 1)):
                return self._id_v
            return None
        return self.components.get((p, q))


def _apply_m_blocks(M, x):
    """M^{(x)n} on an element with 2n-1 cuts; output is a plain element."""
    out = Element()
    for (letters, cuts), c in x.terms.items():
        b = slot_bounds(letters, cuts)
        maps = [M.component(b[t + 1] - b[t], b[t + 2] - b[t + 1])
                for t in range(0, len(b) - 1, 2)]
        if None in maps:
            continue
        acc = [((), c)]
        for t, f in enumerate(maps):
            img = f.apply_word(letters[b[2 * t]:b[2 * t + 2]]).terms.items()
            acc = [(wl + fl, s * a) for wl, s in acc for (fl, _), a in img]
        for wl, s in acc:
            out.add_term((wl, ()), s)
    return out


def _cofree_terms(M, letters, cut):
    """u * v on the pair word u | v = letters[:cut] | letters[cut:] by the
    recursion on the first letter of the output: the sum over the splits
    u = u1 u2, v = v1 v2 with (s, t) = (|u1|, |v1|) != (0, 0) of
    M_st(u1 (x) v1') . (u2' * v2), where beta(u2 v1) = v1' u2'.

    A component that is None contributes nothing, so on an incomplete M this
    is the product less the terms of the missing components.  The shorter
    products u2' * v2 go through the star memo.
    """
    u, v = letters[:cut], letters[cut:]
    out = Element()
    for s in range(cut + 1):
        for t in range(len(v) + 1):
            f = M.component(s, t)
            if f is None:
                continue
            img = beta_slots(M.braiding)((letters[s:cut + t], (cut - s,)))
            for (mw, _), c in img.terms.items():
                head = f.apply_word(u[:s] + mw[:t]).terms.items()
                if not head:
                    continue
                tail = _star_pair_word(M, mw[t:] + v[t:], cut - s,
                                       "reduced").terms.items()
                for (h, _), a in head:
                    ac = a * c
                    for (w, _), b in tail:
                        out.add_term((h + w, ()), b * ac)
    return out


def _star_pair_word(M, letters, cut, form):
    """The star product of the pair word letters[:cut] | letters[cut:], kept
    in M._star_cache.  The reduced form is the cofree recursion, 1 * 1 = 1;
    the via_w form sums M^{(x)n} over the block-braid iterates from scratch,
    as an independent cross-check."""
    key = (letters, cut, form)
    cached = M._star_cache.get(key)
    if cached is not None:
        return cached
    total = len(letters)
    if total > M.degree_cap:
        raise DegreeCapExceeded(
            "degree %d exceeds cap %d" % (total, M.degree_cap))
    if not total:
        res = Element.unit()
    elif form == "reduced":
        res = _cofree_terms(M, letters, cut)
    else:
        z = Element.basis(letters, (cut,))
        res = Element()
        for n in range(total):
            res.add_scaled(_apply_m_blocks(
                M, delta_beta_via_w(M.braiding, z, n)))
    M._star_cache[key] = res
    return res


def star_product(M, x, y, form="reduced"):
    """The induced product on T(V), evaluated exactly.

    `form` is the cofree recursion ("reduced") or the block-braid
    expansion ("via_w"), which agree (cross-checked in the test suite).
    """
    if form not in ("reduced", "via_w"):
        raise ValueError("star_product form %r is neither 'reduced' nor "
                         "'via_w'" % (form,))
    return _bilinear(x, y, lambda u, v: _star_pair_word(
        M, u + v, len(u), form), "star_product")


# -- validation ------------------------------------------------------------

def _eq5_side(M, x, i, j, k, left):
    """One side of the associativity condition, in star form, on each term
    of x, a basis word u v w of degrees (i, j, k), its cuts kept as a leg
    program keeps them: sum_r M_{r,k}((u*v)_r (x) w) if `left`, otherwise
    sum_r M_{i,r}(u (x) (v*w)_r).

    The degree r of a word of the star product is its length, since every
    component lands in V.  A side whose components are all zero for r = 1,
    ..., i+j (left) or j+k (right) is zero, with no star product built.
    """
    out = Element()
    if all((M.component(r, k) if left else M.component(i, r)) is None
           for r in range(1, (i if left else k) + j + 1)):
        return out
    for (letters, cuts), a in x.terms.items():
        if left:
            prod = _star_pair_word(M, letters[:i + j], i, "reduced")
            tail = letters[i + j:]
        else:
            prod = _star_pair_word(M, letters[i:], j, "reduced")
            tail = letters[:i]
        for (w, _), c in prod.terms.items():
            f = M.component(len(w), k) if left else M.component(i, len(w))
            if f is not None:
                ca = c * a
                for (v, _), b in f.apply_word(
                        w + tail if left else tail + w).terms.items():
                    out.add_term((v, cuts), b * ca)
    return out


def _tagged(image, x):
    """The sum over the terms c (u, tag) of x of c image(u), the tag paired
    with each image key: image, given on words, as a side of Report.check."""
    out = Element()
    for (u, tag), c in x.terms.items():
        for key, s in image(u).terms.items():
            out.add_term((key, tag), s * c)
    return out


def _zero(x):
    return Element()


def qb_validate(M, degree_bound=None):
    """Check the braiding-compatibility and associativity conditions.

    Every identity is checked on each basis word with i+j+k up to the
    bound.  Associativity is taken in star form,
    sum_r M_{r,k}((u*v)_r (x) w) = sum_r M_{i,r}(u (x) (v*w)_r), through
    the memoised star product; a side with no nonzero component among its
    M_{r,k} (or M_{i,r}) is zero, and no star product is built for it.
    "assoc-vanishing" checks that the reduced iterate one past the
    summation limit is zero on every head u|v and v|w: structural (no word
    splits into more nonempty pair factors than it has letters), but still
    computed, as delta_beta_iter on the head, once per distinct head and
    call; each reduced step runs over the splits with both pairs nonempty,
    so a head of n letters leaves no term after its n-th step.
    Entries are named like "assoc 1,2,1", ordered by identity and then
    triple; a failure's witness is its first failing word.
    """
    bound = degree_bound if degree_bound is not None else M.degree_cap
    if bound > M.degree_cap:
        raise DegreeCapExceeded("bound %d exceeds the tower's degree cap %d"
                                % (bound, M.degree_cap))
    space = M.space
    beta = beta_slots(M.braiding)
    vanish = cache(lambda a, u: delta_beta_iter(
        M.braiding, Element.basis(u, (a,)), len(u), reduced=True))
    # the iterate on the heads cut after a letters
    heads = {a: partial(_tagged, partial(vanish, a)) for a in range(1, bound)}
    rows = Report()
    for (i, j, k) in triples(bound):
        # slot programs on z_1 | z_2, each case named by the word z_1 z_2:
        # beta_{1k}(M_ij (x) id^k) = (id^k (x) M_ij) beta_{i+j,k} and
        # beta_{i1}(id^i (x) M_jk) = (M_jk (x) id^i) beta_{i,j+k}
        for name, f, degrees, pos in (
                ("yb-left", M.component(i, j), (i + j, k), 0),
                ("yb-right", M.component(j, k), (i, j + k), 1)):
            if f is None:
                rows.record((name, (i, j, k)), True)
                continue
            m = lambda key, f=f: f.apply_word(key[0])
            _slot_rows(rows, space, degrees, lambda ws: ws[0] + ws[1], [
                ((name, (i, j, k)), [(m, 1, pos), (beta, 2, 0)],
                 [(beta, 2, 0), (m, 1, 1 - pos)])])
        sides = [partial(_eq5_side, M, i=i, j=j, k=k, left=left)
                 for left in (True, False)]
        rows.check(("assoc", (i, j, k)), [
            (z, (z, ()), *sides) for z in space.words(i + j + k)])
        rows.check(("assoc-vanishing", (i, j, k)), [
            (head, (head, ()), heads[a], _zero)
            for a, b in ((i, j), (j, k)) for head in space.words(a + b)])
    report = Report()
    for e in sorted(rows.entries, key=lambda e: e["identity"]):
        name, triple = e["identity"]
        report.record("%s %s" % (name, ",".join(map(str, triple))), e["ok"],
                      e["witness"] and e["witness"][0])
    return report


# -- quasi-shuffle ---------------------------------------------------------

class YBBase:
    """A product on V compatible with the braiding (rows of the product
    compatibility diagram; no unit is required)."""

    def __init__(self, mult, braiding):
        if mult.in_degree != 2:
            raise InvalidBase("base product must have in-degree 2")
        _lands_in_v(mult, "base product")
        self.space = braiding.space
        self.mult = mult
        self.braiding = braiding
        bad = check_yb_product_rows(mult, braiding).first_failure()
        if bad is not None:
            raise InvalidBase("base fails compatibility at %r"
                              % ((bad["identity"], bad["witness"][0]),))

    def qb_structure(self, degree_cap=6):
        """The induced structure whose only interior component is M_11."""
        comps = {}
        if self.mult.columns:
            comps[(1, 1)] = self.mult
        return QBStructure(self.braiding, comps, degree_cap)


def quasi_shuffle(x, y, base):
    """The quantum quasi-shuffle product: the star product of the tower
    base.qb_structure(cap), cap the sum of the operands' top degrees and at
    least 2, so that M_11 = base.mult fits."""
    if any(cuts for z in (x, y) for _, cuts in z.terms):
        raise ValueError("quasi_shuffle expects uncut elements")
    cap = max(2, sum(max(z.degrees(), default=0) for z in (x, y)))
    return star_product(base.qb_structure(cap), x, y)


# -- the two-product construction ------------------------------------------

class TwoYB:
    """One space, two associative unital products, one braiding.

    Both products must be compatible with the braiding; the unit element is
    shared.  Validation is exhaustive over basis words.
    """

    def __init__(self, braiding, star, dot, unit):
        self.space = braiding.space
        self.braiding = braiding
        self.star = star
        self.dot = dot
        self.unit = unit
        report = self.validate()
        bad = report.failures()
        if bad:
            name, _, identity = bad[0]["identity"].partition(" ")
            if identity == "associativity":
                raise InvalidBase("%s product is not associative" % name)
            if identity == "unit":
                raise InvalidBase("%s product is not unital" % name)
            # the failure a case-by-case scan of the product rows, or else
            # of the unit rows, meets first
            first = report.first_failure(bad[0]["identity"][:-1])
            raise InvalidBase("%s product fails compatibility at %r"
                              % (name, (first["identity"].partition(" ")[2],
                                        first["witness"][0])))

    def validate(self):
        """Associativity, the shared unit and the Def 2.1 YB algebra rows of
        both products: entries named like "star associativity", "star unit"
        or "dot product-row-1"."""
        sp, u = self.space, _point(self.unit)
        report = Report()
        for name, f in (("star", self.star), ("dot", self.dot)):
            _leg_rows(report, [sp] * 3, [(name + " associativity",
                                          [(f, 0), (f, 0)], [(f, 1), (f, 0)])])
            report.check(name + " unit", _on_basis(
                [sp], ([(u, 0), (f, 0)], []),
                ([(u, 1), (f, 0)], [])))
            for e in check_yb_algebra(f, self.unit, self.braiding).entries:
                report.record("%s %s" % (name, e["identity"]), e["ok"],
                              e["witness"])
        return report


def _fold_dot(a, x):
    """Left fold of the dot product over the letters of each term."""
    out = Element()
    for n in x.degrees():
        out.add_scaled(_legs(x.component(n), *[(a.dot, 0)] * (n - 1)))
    return out


def from_2yb(a, degree_bound):
    """Component maps obtained by peeling the star product of two algebras.

    M_pq is the star product of the dot-collapsed blocks minus all shorter
    factorizations through previously built components.
    """
    # components join M as they are peeled; a factorization into k >= 2
    # pair factors only reaches components of lower total degree
    M = QBStructure(a.braiding, degree_cap=degree_bound)
    for total in range(2, degree_bound + 1):
        for p in range(1, total):
            f = LinMap.tabulate(a.space, total,
                                lambda z: _peeled_column(a, M, z, p))
            if f.columns:
                M.components[(p, total - p)] = f
    return M


def _peeled_column(a, M, z, p):
    """M_pq on the word z: the star product of the dot-collapsed blocks
    z[:p] and z[p:] minus its factorizations through the components of M."""
    left = _fold_dot(a, Element.basis(z[:p]))
    right = _fold_dot(a, Element.basis(z[p:]))
    # M_pq is not in M yet, so the recursion misses exactly its one-block
    # term; the top-level pair bypasses the star memo, and the shorter
    # products it memoises reach only components that are complete
    shorter = _cofree_terms(M, z, p)
    return (_legs(tensor_elements(left, right), (a.star, 0))
            - _fold_dot(a, shorter))


# -- antipode --------------------------------------------------------------

def antipode(x, M):
    """The convolution inverse of the identity for the star product, by the
    left recursion S(1) = 1, S(u) = -sum_{k<|u|} S(u[:k]) * u[k:], evaluated
    per word as a table of its prefixes' antipodes, shortest first; the
    k = 0 term is -u itself.  Expanded by bilinearity this is Takeuchi's sum
    over the compositions of u of the left-nested star products, signed by
    the number of blocks."""
    def word(u):
        table = [Element.unit()]
        for m in range(1, len(u) + 1):
            s = Element.basis(u[:m])
            for k in range(1, m):
                s.add_scaled(star_product(M, table[k], Element.basis(u[k:m])))
            table.append(-s)
        return table[-1]
    return _linear(x, word, "antipode")


# -- serialization ---------------------------------------------------------

def qb_to_obj(M):
    entries = [{"p": p, "q": q, "map": linmap_to_obj(f)}
               for (p, q), f in sorted(M.components.items())]
    return {"M": entries, "degree_cap": M.degree_cap}


def qb_from_obj(obj, braiding):
    """The QBStructure of qb_to_obj's JSON form on `braiding`.  M_pq reads
    as a map from words of p + q letters of V to V, one letter per out-word;
    a malformed value, a word off its legs (an out-word leaving V too), or a
    repeated in-word or block raises linear.FormatError."""
    V = braiding.space
    comps = {}
    entries = _checked(obj, {"M": [{"p": int, "q": int, "map": list}]})["M"]
    cap = read_field(obj, "degree_cap", _degree_cap)
    for e in entries:
        pq = (e["p"], e["q"])
        if pq in comps:
            raise FormatError("", "declares M_%d,%d twice" % pq)
        comps[pq] = linmap_from_obj(e["map"], [V] * sum(pq), [V])
    return QBStructure(braiding, comps, cap)
