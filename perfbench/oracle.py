"""Independent exact oracle for the benchmark's output checks.

Nothing here imports ybalg.  Coefficient strings printed by the program are
evaluated at a few rational values q = t with Fractions, and compared with
this module's own Fraction implementations of the braid component, the
quantum shuffle, the deconcatenation, the braided quasi-shuffle and the
antipode.  The program's symbolic results are exact rational functions, so
agreement at several generic points is a strong independent check, and any
altered coefficient shows at every point.

Braidings given to these routines are diagonal (monomial): sigma(e_a e_b) =
Q[a][b] e_b e_a, so a braid lift is a product of Q entries over the
inversions it creates.  The deformed flip is the one non-monomial braiding
the benchmark runs; only its Yang-Baxter equation is recomputed here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

# Evaluation points: rationals whose numerators and denominators share no
# factor with the small integers the generated inputs use, so no generated
# denominator vanishes at them.
T_VALUES = (Fraction(13, 7), Fraction(-11, 5), Fraction(17, 3))


class OracleError(ValueError):
    pass


# -- coefficient strings -----------------------------------------------------

def _tokens(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch in "q+-*/^()":
            out.append(ch)
            i += 1
        else:
            raise OracleError("unexpected character %r in %r" % (ch, text))
    return out


class _Eval:
    """Recursive-descent evaluator: sums, products, quotients, integer powers
    and juxtaposition (`2q^3`), with q bound to a Fraction."""

    def __init__(self, text, t):
        self.toks = _tokens(text)
        self.pos = 0
        self.t = t
        self.text = text

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def run(self):
        value = self.expr()
        if self.peek() is not None:
            raise OracleError("trailing input in %r" % self.text)
        return value

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        acc = sign * self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            acc = acc + self.term() if op == "+" else acc - self.term()
        return acc

    def term(self):
        acc = self.factor()
        while self.peek() in ("*", "/", "q", "(") or isinstance(self.peek(),
                                                                int):
            tok = self.peek()
            if tok == "*":
                self.take()
                acc = acc * self.factor()
            elif tok == "/":
                self.take()
                acc = acc / self.factor()
            else:
                acc = acc * self.factor()
        return acc

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            e = self.take()
            if not isinstance(e, int):
                raise OracleError("bad exponent in %r" % self.text)
            return base ** (sign * e)
        return base

    def atom(self):
        tok = self.take()
        if isinstance(tok, int):
            return Fraction(tok)
        if tok == "q":
            return self.t
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise OracleError("unbalanced parenthesis in %r" % self.text)
            return inner
        raise OracleError("unexpected token %r in %r" % (tok, self.text))


def eval_coeff(text, t):
    """Value of a coefficient string at q = t."""
    return _Eval(text, t).run()


def eval_matrix(rows, t):
    return [[eval_coeff(entry, t) for entry in row] for row in rows]


def eval_json_element(obj, t):
    """`--format json` output -> {(word, split or None): Fraction}."""
    out = {}
    for entry in obj:
        split = entry.get("split")
        if isinstance(split, list):
            split = tuple(split)
        key = (tuple(entry["word"]), split)
        if key in out:
            raise OracleError("repeated term %r" % (key,))
        value = eval_coeff(entry["coeff"], t)
        if value == 0:
            raise OracleError("stored zero coefficient at %r" % (key,))
        out[key] = value
    return out


def eval_terms(terms, t):
    """Generated literal [(coeff string, word), ...] -> {word: Fraction}."""
    out = {}
    for coeff, word in terms:
        _acc(out, tuple(word), eval_coeff(coeff, t))
    return out


def _acc(d, key, value):
    total = d.get(key, 0) + value
    if total:
        d[key] = total
    else:
        d.pop(key, None)


def uncut(x):
    """{word: c} -> {(word, None): c}, the keys of an uncut JSON element."""
    return {(w, None): c for w, c in x.items()}


# -- monomial braidings --------------------------------------------------------

def braid_component(Q, i, j, x):
    """beta_ij on words of degree i + j: e_u e_v -> prod Q[a][b] e_v e_u."""
    out = {}
    for w, c in x.items():
        if len(w) != i + j:
            raise OracleError("word %r is not of degree %d" % (w, i + j))
        coeff = c
        for a in w[:i]:
            for b in w[i:]:
                coeff *= Q[a][b]
        _acc(out, w[i:] + w[:i], coeff)
    return out


def shuffle_words(Q, u, v):
    """Quantum shuffle of two words: a sum over interleavings, each weighted
    by Q[a][b] for every letter b of v placed before a letter a of u."""
    n = len(u) + len(v)
    out = {}
    for slots in combinations(range(n), len(u)):
        word = [None] * n
        slot_set = set(slots)
        vs = [p for p in range(n) if p not in slot_set]
        for p, a in zip(slots, u):
            word[p] = a
        for p, b in zip(vs, v):
            word[p] = b
        coeff = Fraction(1)
        for pa, a in zip(slots, u):
            for pb, b in zip(vs, v):
                if pb < pa:
                    coeff *= Q[a][b]
        _acc(out, tuple(word), coeff)
    return out


def bilinear(fn, x, y):
    out = {}
    for u, a in x.items():
        for v, b in y.items():
            for w, c in fn(u, v).items():
                _acc(out, w, a * b * c)
    return out


def shuffle(Q, x, y):
    return bilinear(lambda u, v: shuffle_words(Q, u, v), x, y)


def deconcatenate(x):
    out = {}
    for w, c in x.items():
        for k in range(len(w) + 1):
            _acc(out, (w, k), c)
    return out


class QuasiShuffle:
    """Braided quasi-shuffle on a diagonal braiding with product mu on V.

    With u = u'a and v = v'b:
      u * v = (u * v') b + Q[a][v] (u' * v) a + Q[a][v'] (u' * v') mu(a, b),
    where Q[a][v] is the product of Q[a][c] over the letters c of v.  This
    is the three-term recursion of the braided quasi-shuffle (Hoffman's
    quasi-shuffle, twisted by the braiding); with mu = 0 it is the shuffle.
    """

    def __init__(self, Q, mu):
        self.Q = Q
        self.mu = mu  # {(a, b): {t: Fraction}}
        self.memo = {}

    def _qa(self, a, word):
        c = Fraction(1)
        for b in word:
            c *= self.Q[a][b]
        return c

    def words(self, u, v):
        key = (u, v)
        if key in self.memo:
            return self.memo[key]
        if not v:
            res = {u: Fraction(1)}
        elif not u:
            res = {v: Fraction(1)}
        else:
            up, a = u[:-1], u[-1]
            vp, b = v[:-1], v[-1]
            res = {}
            for w, c in self.words(u, vp).items():
                _acc(res, w + (b,), c)
            qa = self._qa(a, v)
            for w, c in self.words(up, v).items():
                _acc(res, w + (a,), qa * c)
            prod_ab = self.mu.get((a, b), {})
            if prod_ab:
                qa2 = self._qa(a, vp)
                for w, c in self.words(up, vp).items():
                    for t, m in prod_ab.items():
                        _acc(res, w + (t,), qa2 * c * m)
        self.memo[key] = res
        return res

    def product(self, x, y):
        return bilinear(self.words, x, y)

    def antipode(self, x):
        """Convolution inverse of the identity against deconcatenation:
        S(1) = 1 and sum_k S(w[:k]) * w[k:] = 0 for every nonempty w."""
        memo = {(): {(): Fraction(1)}}

        def s_word(w):
            if w in memo:
                return memo[w]
            res = {}
            for k in range(len(w)):
                for z, c in self.product(s_word(w[:k]), {w[k:]: 1}).items():
                    _acc(res, z, -c)
            memo[w] = res
            return res

        out = {}
        for w, c in x.items():
            for z, d in s_word(w).items():
                _acc(out, z, c * d)
        return out


def top_degree(x):
    """Top-degree part of {(word, split): coefficient}."""
    if not x:
        return {}
    top = max(len(k[0]) for k in x)
    return {k: c for k, c in x.items() if len(k[0]) == top}


# -- Yang-Baxter and tower compatibility ----------------------------------------

def yang_baxter_holds(sigma, dim):
    """sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2 on V^{(x)3}.

    `sigma` maps a letter pair to {pair: Fraction}.
    """
    def act(pos, x):
        out = {}
        for w, c in x.items():
            for pw, a in sigma[w[pos:pos + 2]].items():
                _acc(out, w[:pos] + pw + w[pos + 2:], a * c)
        return out

    for w in product(range(dim), repeat=3):
        x = {w: Fraction(1)}
        if act(0, act(1, act(0, x))) != act(1, act(0, act(1, x))):
            return False
    return True


def diagonal_sigma(Q):
    n = len(Q)
    return {(a, b): {(b, a): Q[a][b]} for a in range(n) for b in range(n)}


def exterior_sigma(N, t):
    """The deformed flip: e_i e_i fixed, e_i e_j -> q^-1 e_j e_i (i < j),
    e_i e_j -> q^-1 e_j e_i + (1 - q^-2) e_i e_j (i > j)."""
    sigma = {}
    for i in range(N):
        for j in range(N):
            if i == j:
                sigma[(i, j)] = {(i, j): Fraction(1)}
            elif i < j:
                sigma[(i, j)] = {(j, i): 1 / t}
            else:
                sigma[(i, j)] = {(j, i): 1 / t, (i, j): 1 - t ** -2}
    return sigma


def yb_identity_holds(Q, mu, side, i, j, k, z):
    """One instance of the tower's braiding compatibility on the word z.

    Only M_11 = mu is nonzero.  `yb-left` is
    beta_{1k}(M_ij (x) id^k) = (id^k (x) M_ij) beta_{i+j,k}; `yb-right` is
    beta_{i1}(id^i (x) M_jk) = (M_jk (x) id^i) beta_{i,j+k}.  For a
    diagonal braiding both reduce to a multiplicativity of Q on the letters
    mu produces.
    """
    if side == "yb-left":
        if (i, j) != (1, 1):
            return True
        (a, b), rest = z[:2], z[2:]
        for t, m in mu.get((a, b), {}).items():
            lhs = m
            rhs = m
            for c in rest:
                lhs *= Q[t][c]
                rhs *= Q[a][c] * Q[b][c]
            if lhs != rhs:
                return False
        return True
    if (j, k) != (1, 1):
        return True
    head, (a, b) = z[:i], z[i:]
    for t, m in mu.get((a, b), {}).items():
        lhs = m
        rhs = m
        for h in head:
            lhs *= Q[h][t]
            rhs *= Q[h][a] * Q[h][b]
        if lhs != rhs:
            return False
    return True


def yb_verdict(Q, mu, dim, side, i, j, k):
    """True when the identity holds on every word of degree i + j + k."""
    return all(yb_identity_holds(Q, mu, side, i, j, k, z)
               for z in product(range(dim), repeat=i + j + k))
