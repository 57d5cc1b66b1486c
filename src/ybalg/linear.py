"""Finite-dimensional spaces, tensor words, and exact sparse linear maps.

Everything is basis-driven: a Word is a tuple of basis indices, an Element is
a finitely supported linear combination of words with Scalar coefficients,
and a LinMap is a sparse column map defined on words of one fixed degree.
A scaled sum of Elements is accumulated by one kernel, `Element.add_scaled`,
in place; a single term by `add_term`.

Elements may carry "cuts": a tuple of split positions marking how the word is
distributed over tensor factors of T(V) (one cut for T(V) x T(V), more for
iterated coproducts).  The map machinery here works on the plain letters:
a leg program is a chain of steps, each a map applied at given letters
("legs") or a leg permutation, and one kernel, `_program`, runs it, each
term keeping its cuts; `_legs` runs one on an Element.  Maps on whole
tensor slots, which move the cuts, are the slot programs of tensoralg.

Exact elimination is one kernel, `_row_reduce`, a sparse Gauss-Jordan on
rows {column: Scalar} that never multiplies a zero entry; the inverse,
kernel and echelon bases and span membership (by rank) read its result.

Every two-sided identity is decided by one kernel, `Report.check`, on its
whole basis in one pass: each side runs once on all the cases, their terms
tagged apart, and only on a mismatch are the cases scanned one by one for
the first failing case, its witness.

The readers (`element_from_obj`, `linmap_from_obj`, and on them those of
hopf and binfty) own the JSON session format: each checks the shape of what
it reads, each word against its map's legs and each entry for repeats, and
raises FormatError naming the field; a library caller gets the refusals
the CLI prints.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from .scalars import Scalar


class DegreeMismatch(ValueError):
    pass


class Singular(ValueError):
    pass


class Space:
    """Finite-dimensional vector space with a named basis."""

    def __init__(self, basis_names):
        names = list(basis_names)
        if not names:
            raise ValueError("dimension must be at least 1")
        if len(set(names)) != len(names):
            raise ValueError("basis labels must be distinct")
        self.basis_names = names
        self.dim = len(names)

    def words(self, degree):
        """All basis words of the given degree, lexicographic order."""
        return list(itertools.product(range(self.dim), repeat=degree))

    def __repr__(self):
        return "Space(%r)" % (self.basis_names,)


class Element:
    """Finitely supported linear combination of (word, cuts) pairs.

    `terms` maps (letters, cuts) -> Scalar with no stored zeros.  Plain
    elements of T(V) use cuts = ().
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if not c.is_zero():
                    self.terms[key] = c

    @staticmethod
    def basis(letters, cuts=(), coeff=None):
        c = coeff if coeff is not None else Scalar.one()
        return Element({(tuple(letters), tuple(cuts)): c})

    @staticmethod
    def unit():
        """The empty word, representing 1 in K = V^{0}."""
        return Element.basis(())

    def is_zero(self):
        return not self.terms

    def add_term(self, key, coeff):
        # in-place accumulation; callers must not share the dict
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def add_scaled(self, other, c=None):
        """self += c * other in place, or self += other when c is None: each
        term is summed into self.terms, a key whose sum is zero is deleted
        and no zero is stored.  other, which must not be self, is only
        read.  Returns self."""
        if c is not None and c.is_zero():
            return self
        terms = self.terms
        for key, a in other.terms.items():
            if c is not None:
                a = a * c
            cur = terms.get(key)
            if cur is None:
                terms[key] = a
                continue
            a = cur + a
            if a.is_zero():
                del terms[key]
            else:
                terms[key] = a
        return self

    def __add__(self, other):
        return Element(dict(self.terms)).add_scaled(other)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Element({k: -c for k, c in self.terms.items()})

    def scale(self, s):
        if s.is_zero():
            return Element()
        return Element({k: c * s for k, c in self.terms.items()})

    def degrees(self):
        return sorted({len(k[0]) for k in self.terms})

    def component(self, degree):
        return Element({k: c for k, c in self.terms.items()
                        if len(k[0]) == degree})

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s*%s|%s" % (c, k[0], k[1])
                          for k, c in sorted(self.terms.items()))


def tensor_elements(x, y):
    """Concatenate words of x and y; cuts of y are shifted accordingly."""
    out = Element()
    for (lw, lc), a in x.terms.items():
        n = len(lw)
        for (rw, rc), b in y.terms.items():
            out.add_term((lw + rw, lc + tuple(p + n for p in rc)), a * b)
    return out


def _point(x):
    """The arity-0 map inserting the element x as new legs."""
    return LinMap(0, {(): x})


def _program(steps):
    """A leg program, resolved once, as a function of an Element.

    A step (f, pos) applies the map f at legs pos..pos+f.in_degree of every
    term; a list [i_0, i_1, ...] permutes the legs, new leg t being old leg
    i_t.  The function runs each term of its argument through every step
    as a list of (letters, coeff) pairs, read straight from the columns of
    the maps, and sums the images once, at the end: a term keeps its cuts,
    a key whose sum is zero is dropped.  A running coefficient that is the
    Scalar.one() object scales nothing.
    """
    # a permutation is kept as (None, order, 0)
    resolved = [(None, tuple(step), 0) if isinstance(step, list)
                else (step[0].columns, step[1], step[1] + step[0].in_degree)
                for step in steps]

    def run(x):
        out, one = Element(), Scalar.one()
        terms = out.terms
        for (letters, cuts), c in x.terms.items():
            cur = [(letters, c)]
            for cols, pos, end in resolved:
                if cols is None:
                    cur = [(tuple([w[i] for i in pos]), a) for w, a in cur]
                    continue
                nxt = []
                add = nxt.append
                for w, a in cur:
                    col = cols.get(w[pos:end])
                    if col is not None:
                        head, tail = w[:pos], w[end:]
                        for (mid, _), b in col.terms.items():
                            add((head + mid + tail,
                                 b if a is one else b * a))
                cur = nxt
            for w, a in cur:
                key = (w, cuts)
                s = terms.get(key)
                if s is None:
                    terms[key] = a
                else:
                    s = s + a
                    if s.is_zero():
                        del terms[key]
                    else:
                        terms[key] = s
        return out
    return run


def _legs(x, *steps):
    """Run the leg program of `steps` (see _program) on x, left to right."""
    return _program(steps)(x)


def _on_basis(spaces, *sides):
    """The cases of Report.check for (lhs, rhs) pairs of leg programs, each
    a list of steps resolved once, on the basis words w of the tensor
    product of `spaces`: (w, key of w, lhs, rhs), each word taking every
    pair in turn."""
    sides = [(_program(lhs), _program(rhs)) for lhs, rhs in sides]
    return [(w, (w, ()), lhs, rhs)
            for w in itertools.product(*(range(sp.dim) for sp in spaces))
            for lhs, rhs in sides]


def _leg_rows(report, spaces, rows):
    """Check (identity, lhs, rhs) pairs of leg programs, each a list of
    steps, on the basis words of the tensor product of `spaces`."""
    for identity, lhs, rhs in rows:
        report.check(identity, _on_basis(spaces, (lhs, rhs)))
    return report


class Report:
    """Outcome of an identity check: one entry per identity.

    Entries are {"identity", "ok", "witness"}; a failing entry carries a
    witness, typically (input word, lhs, rhs).
    """

    def __init__(self):
        self.entries = []

    def record(self, identity, ok, witness=None):
        self.entries.append({"identity": identity, "ok": ok,
                             "witness": witness})

    def check(self, identity, cases, tag=lambda key, t: (key[0], t)):
        """Record `identity`, lhs(x) = rhs(x) on every case (name, key, lhs,
        rhs), x the basis element of key.  The cases sharing their sides
        run at once, case t as the key tag(key, t) (by default t in the
        cuts field, which leg programs keep), so no two can cancel, and the
        identity holds exactly when both images are equal.  Only otherwise
        are the cases scanned in order for the first failing one, its
        witness (name, lhs, rhs)."""
        one, batches = Scalar.one(), defaultdict(Element)
        for t, (_, key, lhs, rhs) in enumerate(cases):
            batches[lhs, rhs].terms[tag(key, t)] = one
        if all(lhs(x).terms == rhs(x).terms
               for (lhs, rhs), x in batches.items()):
            self.record(identity, True)
            return
        for name, key, lhs, rhs in cases:
            x = Element({key: one})
            left, right = lhs(x), rhs(x)
            if left != right:
                self.record(identity, False, (name, left, right))
                return
        raise AssertionError("%r fails on its cases at once but on none "
                             "alone" % (identity,))

    @property
    def ok(self):
        return all(e["ok"] for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e["ok"]]

    def first_failure(self, prefix=""):
        """Among the failed checks whose identity starts with `prefix`, the
        one a scan running every identity on each case in turn meets first:
        the earliest case, then the first identity by name; None if none."""
        fails = [(e["witness"][0], e["identity"], e) for e in self.entries
                 if not e["ok"] and e["identity"].startswith(prefix)]
        return min(fails, key=lambda t: t[:2])[2] if fails else None


class LinMap:
    """Sparse exact linear map defined on basis words of one degree.

    Absent columns are zero.  Columns are plain Elements (no cuts).
    """

    def __init__(self, in_degree, columns=None):
        self.in_degree = in_degree
        self.columns = dict(columns) if columns else {}

    @staticmethod
    def identity(space, degree):
        cols = {w: Element.basis(w) for w in space.words(degree)}
        return LinMap(degree, cols)

    @staticmethod
    def tabulate(space, degree, column):
        """The map sending each basis word w of one degree to column(w);
        zero columns are left out."""
        cols = {}
        for w in space.words(degree):
            res = column(w)
            if not res.is_zero():
                cols[w] = res
        return LinMap(degree, cols)

    def column(self, word):
        """The stored column of word, which callers only read; an empty
        Element, built only on a miss, for a zero column."""
        col = self.columns.get(tuple(word))
        return Element() if col is None else col

    def apply(self, x):
        """Linear extension to an Element (plain words only)."""
        out = Element()
        for (letters, cuts), c in x.terms.items():
            if cuts:
                raise DegreeMismatch("LinMap.apply expects uncut elements")
            if len(letters) != self.in_degree:
                raise DegreeMismatch(
                    "word degree %d, map expects %d" % (len(letters),
                                                        self.in_degree))
            col = self.columns.get(letters)
            if col is not None:
                out.add_scaled(col, c)
        return out

    apply_word = column

    def compose(self, other):
        """self o other."""
        cols = {}
        for w, col in other.columns.items():
            res = self.apply(col)
            if not res.is_zero():
                cols[w] = res
        return LinMap(other.in_degree, cols)

    def tensor(self, other):
        """Kronecker product acting on concatenated words."""
        cols = {}
        for w1, c1 in self.columns.items():
            for w2, c2 in other.columns.items():
                res = tensor_elements(c1, c2)
                if not res.is_zero():
                    cols[w1 + w2] = res
        return LinMap(self.in_degree + other.in_degree, cols)

    def add(self, other):
        if self.in_degree != other.in_degree:
            raise DegreeMismatch("cannot add maps of different in-degrees")
        cols = {w: Element(dict(c.terms)) for w, c in self.columns.items()}
        for w, c in other.columns.items():
            if cols.setdefault(w, Element()).add_scaled(c).is_zero():
                del cols[w]
        return LinMap(self.in_degree, cols)

    def scale(self, s):
        return LinMap(self.in_degree,
                      {w: c.scale(s) for w, c in self.columns.items()})

    def equals(self, other, space=None, degree=None):
        deg = degree if degree is not None else self.in_degree
        words = set(self.columns) | set(other.columns)
        if space is not None:
            words = set(space.words(deg))
        for w in words:
            if self.column(w) != other.column(w):
                return False
        return True

    def __repr__(self):
        return "LinMap(deg=%d, %d cols)" % (self.in_degree, len(self.columns))


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination, in place, of sparse rows {column: nonzero
    Scalar} on their first ncols columns, never multiplying a zero entry.

    Column by column, the first row at or below the next pivot place with
    an entry there moves up to that place, is scaled to 1 there, and the
    column is cleared from every other row; a column without one is
    skipped.  Returns the pivot columns: the rows are then in reduced row
    echelon form on those columns, row r holding pivot r.
    """
    pivots, one = [], Scalar.one()
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if col in rows[r]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank].pop(col).invert()
        prow = rows[rank] = {k: v * p for k, v in rows[rank].items()}
        for r, row in enumerate(rows):
            if r == rank or col not in row:
                continue
            factor = row.pop(col)
            for k, v in prow.items():
                new = row[k] - factor * v if k in row else -(factor * v)
                if new.is_zero():
                    del row[k]
                else:
                    row[k] = new
        prow[col] = one
        pivots.append(col)
    return pivots


def _map_rows(f, words):
    """The sparse rows of f on the input words, one per output word:
    {output letters: {index of the input word: entry}}."""
    rows = {}
    for j, w in enumerate(words):
        for (letters, _), c in f.column(w).terms.items():
            rows.setdefault(letters, {})[j] = c
    return rows


def map_invert_exact(f, space):
    """Exact inverse on f's degree component by _row_reduce on the sparse
    rows of [f | id].

    Raises Singular when the map is not invertible on that component.
    """
    words = space.words(f.in_degree)
    n = len(words)
    # row i (output word i), with the identity block in columns n..2n-1
    rows = _map_rows(f, words)
    rows = [{**rows.get(w, {}), n + i: Scalar.one()}
            for i, w in enumerate(words)]
    if len(_row_reduce(rows, n)) < n:
        raise Singular("map is singular on degree %d" % f.in_degree)
    # the left block is now the identity; the right block is the inverse
    cols = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for k, v in row.items():
            if k >= n:
                cols[k - n][(words[i], ())] = v
    return LinMap(f.in_degree,
                  {w: Element(t) for w, t in zip(words, cols) if t})


def column_echelon_basis(vectors, space, degree):
    """Echelon basis of the span of the given Elements: the nonzero rows
    that _row_reduce leaves of them, ordered by their leading words, each
    with coefficient 1 there and no term at another one's leading word.

    Deterministic pivot order: graded lexicographic on words.
    """
    words = space.words(degree)
    index = {w: i for i, w in enumerate(words)}
    rows = [{index[w]: c for (w, _), c in v.terms.items()} for v in vectors]
    rank = len(_row_reduce(rows, len(words)))
    return [Element({(words[k], ()): c for k, c in row.items()})
            for row in rows[:rank]]


def map_kernel_basis(f, space):
    """Basis of the kernel of f on its degree component: after _row_reduce
    on the rows of f, one vector per free column j, with coefficient 1 at
    word j and minus row r's entry in column j at pivot r."""
    words = space.words(f.in_degree)
    rows = list(_map_rows(f, words).values())
    pivots = _row_reduce(rows, len(words))
    kernel = []
    for j in sorted(set(range(len(words))) - set(pivots)):
        terms = {(words[p], ()): -row[j] for p, row in zip(pivots, rows)
                 if j in row}
        terms[(words[j], ())] = Scalar.one()
        kernel.append(Element(terms))
    return kernel


def in_span(x, basis, space, degree):
    """Exact membership of x in the span of a list of Elements, by rank."""
    return (len(column_echelon_basis(list(basis) + [x], space, degree))
            == len(column_echelon_basis(basis, space, degree)))


# -- serialization ---------------------------------------------------------

# JSON forms of the session format: a type, [form] for a list of that form,
# {key: form} for an object ("key?" marks an optional key), or a tuple of
# alternative forms
_ELEMENT = [{"word": [int], "coeff": str, "split?": (int, [int])}]
_LINMAP = [{"in": [int], "out": [{"word": [int], "coeff": str}]}]


class FormatError(ValueError):
    """Malformed session-format data.  `path` names the field, dotted from
    the value the outermost reader was given ("" for that value itself);
    `problem` says what is wrong with it."""

    def __init__(self, path, problem):
        self.path = path
        self.problem = problem
        super().__init__("%s %s" % (path, problem) if path else problem)


def _fits(value, form):
    """Whether a parsed JSON value has the given form."""
    if isinstance(form, tuple):
        return any(_fits(value, f) for f in form)
    if isinstance(form, list):
        return isinstance(value, list) and all(_fits(v, form[0])
                                               for v in value)
    if isinstance(form, dict):
        if not isinstance(value, dict):
            return False
        for key, f in form.items():
            name = key.rstrip("?")
            if name in value:
                if not _fits(value[name], f):
                    return False
            elif not key.endswith("?"):
                return False
        return True
    # bool is an int subclass that JSON keeps apart
    return type(value) is form


def _checked(value, form):
    """value, refused unless it has the given JSON form."""
    if not _fits(value, form):
        raise FormatError("", "is missing or malformed")
    return value


def read_field(obj, key, read, *args):
    """read(obj.get(key), *args), with `key` put in front of the path of a
    FormatError it raises."""
    try:
        return read(obj.get(key), *args)
    except FormatError as e:
        raise FormatError("%s.%s" % (key, e.path) if e.path else key,
                          e.problem) from None


def _word(word, legs, what):
    """The word as a tuple, refused unless it has one letter, a basis
    index, of each space of the list `legs`."""
    if len(word) != len(legs):
        raise FormatError("", "has the %s %r, not of degree %d"
                          % (what, word, len(legs)))
    for a, space in zip(word, legs):
        if not 0 <= a < space.dim:
            raise FormatError("", "has the word %r, with a letter outside "
                              "the basis 0..%d" % (word, space.dim - 1))
    return tuple(word)


def term_sort_key(key):
    """Canonical order: total degree, then letters, then split positions."""
    letters, cuts = key
    return (len(letters), letters, cuts)


def element_to_obj(x):
    out = []
    for key in sorted(x.terms, key=term_sort_key):
        letters, cuts = key
        entry = {"word": list(letters), "coeff": str(x.terms[key])}
        if len(cuts) == 1:
            entry["split"] = cuts[0]
        elif cuts:
            entry["split"] = list(cuts)
        out.append(entry)
    return out


def element_from_obj(obj, legs=None):
    """The Element of a JSON list of {"word", "coeff", "split"?} terms; with
    `legs`, each word is checked against them as linmap_from_obj does."""
    from .scalars import parse_scalar
    x = Element()
    for entry in _checked(obj, _ELEMENT):
        cuts = entry.get("split", ())
        if isinstance(cuts, int):
            cuts = (cuts,)
        word = entry["word"] if legs is None else _word(entry["word"], legs,
                                                         "word")
        x.add_term((tuple(word), tuple(cuts)), parse_scalar(entry["coeff"]))
    return x


def linmap_to_obj(f):
    out = []
    for w in sorted(f.columns):
        col = f.columns[w]
        outs = [{"word": list(k[0]), "coeff": str(col.terms[k])}
                for k in sorted(col.terms, key=term_sort_key)]
        out.append({"in": list(w), "out": outs})
    return out


def linmap_from_obj(obj, ins, outs):
    """The LinMap of a JSON list of {"in", "out"} columns from the tensor
    product of the spaces `ins` to that of the spaces `outs`."""
    from .scalars import parse_scalar
    cols = {}
    for entry in _checked(obj, _LINMAP):
        w = _word(entry["in"], ins, "in-word")
        if w in cols:
            raise FormatError("", "repeats the in-word %r" % (entry["in"],))
        col = cols[w] = Element()
        for t in entry["out"]:
            col.add_term((_word(t["word"], outs, "out-word"), ()),
                         parse_scalar(t["coeff"]))
    return LinMap(len(ins), cols)
