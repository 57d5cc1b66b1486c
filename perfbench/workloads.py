"""Seeded request streams for the benchmark's workloads.

A workload is a stream of *rounds*.  Every round has the same make-up by
request class (so many requests of each class), and the seed and the
round's index draw each request's parameters (and the order of a round,
where it is shuffled).  A run attempts
whole rounds, so the classes keep their proportions whatever the run's
length, and the median and tail of a run land in the same request class on
every seed; because every request in a run is distinct, the median and tail
average over many inputs rather than over one round repeated.

Nothing here imports ybalg: sessions are written as JSON by this module, and
each request carries the data the oracle needs to check its output.
"""

from __future__ import annotations

import json
import os
import random

BOUND = 4
# A rational request at bound 4 costs 0.4-0.7 s, so a run held about fifty
# of them and its median moved by 9% between runs; at bound 3 it holds
# several hundred.
RATIONAL_BOUND = 3

CARTAN = {
    # name: (A, d) with d_i a_ij symmetric
    "A1xA1": ([[2, 0], [0, 2]], [1, 1]),
    "A2": ([[2, -1], [-1, 2]], [1, 1]),
    "B2": ([[2, -2], [-1, 2]], [1, 2]),
    "G2": ([[2, -3], [-1, 2]], [1, 3]),
}

# Products e_a e_b -> e_t on weights (1, 2) whose weight is not additive:
# the tower they define breaks braiding compatibility.
FALSE_PRODUCTS = (((0, 0), 0), ((0, 1), 1), ((1, 1), 0), ((1, 0), 0))


class Op:
    """One CLI request: argv (session path first after the verb), the class
    it belongs to, and the specification its output is checked against."""

    __slots__ = ("label", "argv", "kind", "spec")

    def __init__(self, label, argv, kind, spec):
        self.label = label
        self.argv = argv
        self.kind = kind
        self.spec = spec


class SessionWriter:
    """Writes each distinct session once under the run's work directory.
    Sessions are remembered by the hash of their text, not the text, so
    that the memory this takes barely grows with the length of a run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.paths = {}

    def path(self, objects, degree_cap=6):
        text = json.dumps({"version": 1, "degree_cap": degree_cap,
                           "objects": objects}, sort_keys=True)
        key = hash(text)
        if key not in self.paths:
            p = os.path.join(self.workdir, "s%03d.json" % len(self.paths))
            with open(p, "w") as fh:
                fh.write(text)
            self.paths[key] = p
        return self.paths[key]


# -- scalar strings -------------------------------------------------------------

def monomial(coeff, exp):
    """Coefficient string coeff * q^exp in the program's scalar grammar."""
    if exp == 0:
        return str(coeff)
    body = "q" if exp == 1 else "q^%d" % exp
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return "%d%s" % (coeff, body)


# Fixed assignments of distinct constants to the entries of a dim-2
# diagonal braiding: (q + a)/(q + b) for the linear pool, (q^2 + a)/(q + b)
# for the quadratic pool, whose requests cost about 1.5 times as much.  Every
# round runs the whole of both pools; the seed picks each braiding's basis
# order and the order of the round, which leave the cost unchanged, so the
# median (inside the linear class) and the tail (inside the quadratic class)
# do not depend on which constants a seed happened to draw.
def _pool(tag, size):
    return tuple(tuple(random.Random("rational/%s/%d" % (tag, k)).sample(
        [c for c in range(-6, 7) if c], 8)) for k in range(size))


RATIONAL_POOLS = (("rational", "q", _pool("linear", 5)),
                  ("rational-quadratic", "q^2", _pool("quadratic", 3)))


def rational_matrix(lead, consts, swap):
    """Entries (lead + a)/(q + b) with eight distinct constants, never
    Laurent polynomials.  `swap` relabels e1 and e2."""
    idx = (1, 0) if swap else (0, 1)
    return [["(%s%+d)/(q%+d)" % (lead, consts[4 * i + 2 * j],
                                 consts[4 * i + 2 * j + 1])
             for j in idx] for i in idx]


def weighted_matrix(w, k, signs):
    """q_ij = s_i s_j q^{k w_i w_j}: the diagonal braiding of a grading."""
    n = len(w)
    return [[monomial(signs[i] * signs[j], k * w[i] * w[j])
             for j in range(n)] for i in range(n)]


def linmap_obj(mu):
    """{(a, b): [(coeff, t), ...]} -> the session's sparse column format."""
    return [{"in": list(ab), "out": [{"word": [t], "coeff": c}
                                     for c, t in outs]}
            for ab, outs in sorted(mu.items())]


# -- workloads -------------------------------------------------------------------

def _braiding_verify(label, path, braiding, bound=BOUND):
    return Op(label, ["verify", path, "s", "--suite", "all",
                      "--bound", str(bound)],
              "verify-braiding", dict(braiding, bound=bound))


def shuffle_laurent(rng, sessions):
    """Laurent (den = 1) braidings: random monomial, Cartan, deformed flip."""
    ops = []
    for _ in range(3):
        rows = [[monomial(rng.choice((1, -1)), rng.randint(-3, 3))
                 for _ in range(2)] for _ in range(2)]
        p = sessions.path([{"name": "s", "kind": "diagonal",
                            "matrix": rows}])
        ops.append(_braiding_verify("diagonal", p, {"matrix": rows}))
    for _ in range(3):
        A, d = CARTAN[rng.choice(sorted(CARTAN))]
        m = rng.choice((1, 2))
        order = rng.choice(((0, 1), (1, 0)))
        rows = [[monomial(1, m * d[i] * A[i][j]) for j in order]
                for i in order]
        p = sessions.path([{"name": "s", "kind": "diagonal",
                            "matrix": rows}])
        ops.append(_braiding_verify("cartan", p, {"matrix": rows}))
    p = sessions.path([{"name": "s", "kind": "catalog",
                        "address": "exterior:N=2"}])
    for _ in range(2):
        ops.append(_braiding_verify("exterior", p, {"exterior": 2}))
    return ops


def shuffle_rational(rng, sessions):
    """Diagonal braidings with non-Laurent rational entries (gcd path)."""
    ops = []
    for label, lead, pool in RATIONAL_POOLS:
        for consts in pool:
            rows = rational_matrix(lead, consts, rng.random() < 0.5)
            p = sessions.path([{"name": "s", "kind": "diagonal",
                                "matrix": rows}])
            ops.append(_braiding_verify(label, p, {"matrix": rows},
                                        RATIONAL_BOUND))
    rng.shuffle(ops)
    return ops


def _tower_op(label, path, braiding, mu, expect_ok):
    return Op(label, ["verify", path, "M", "--suite", "qb-infinity",
                      "--bound", str(BOUND)],
              "verify-tower", dict(braiding, mu=mu, bound=BOUND,
                                   expect_ok=expect_ok))


def tower(rng, sessions):
    """Quasi-shuffle towers (zero and graded bases) and known-false towers on
    weighted diagonal braidings, and the zero-base tower on the deformed
    flip, whose non-monomial lifts make it the dearest class."""
    ops = []
    p = sessions.path([
        {"name": "s", "kind": "catalog", "address": "exterior:N=2"},
        {"name": "base", "kind": "yb-base", "braiding": "s", "mult": []},
        {"name": "M", "kind": "quasishuffle", "base": "base"}],
        degree_cap=BOUND + 1)
    for _ in range(3):
        ops.append(_tower_op("exterior-tower", p, {"exterior": 2}, {}, True))
    for _ in range(3):
        w = (rng.randint(1, 3), rng.randint(1, 3))
        rows = weighted_matrix(w, rng.choice((1, 2)),
                               (rng.choice((1, -1)), rng.choice((1, -1))))
        p = sessions.path([
            {"name": "s", "kind": "diagonal", "matrix": rows},
            {"name": "base", "kind": "yb-base", "braiding": "s", "mult": []},
            {"name": "M", "kind": "quasishuffle", "base": "base"}],
            degree_cap=BOUND + 1)
        ops.append(_tower_op("zero-base", p, {"matrix": rows}, {}, True))
    for _ in range(2):
        g = rng.choice((1, 2))
        rows = weighted_matrix((g, 2 * g), rng.choice((1, 2)), (1, 1))
        mu = {(0, 0): [(monomial(rng.choice((1, -1, 2)),
                                 rng.randint(-2, 2)), 1)]}
        p = sessions.path([
            {"name": "s", "kind": "diagonal", "matrix": rows},
            {"name": "base", "kind": "yb-base", "braiding": "s",
             "mult": linmap_obj(mu)},
            {"name": "M", "kind": "quasishuffle", "base": "base"}],
            degree_cap=BOUND + 1)
        ops.append(_tower_op("graded-base", p, {"matrix": rows}, mu, True))
    for ab, t in rng.sample(FALSE_PRODUCTS, 2):
        rows = weighted_matrix((1, 2), rng.choice((1, 2)), (1, 1))
        mu = {ab: [(monomial(rng.choice((1, -1)), rng.randint(-1, 1)), t)]}
        data = {"degree_cap": BOUND + 1,
                "M": [{"p": 1, "q": 1, "map": linmap_obj(mu)}]}
        p = sessions.path([
            {"name": "s", "kind": "diagonal", "matrix": rows},
            {"name": "M", "kind": "qb", "braiding": "s", "data": data}],
            degree_cap=BOUND + 1)
        ops.append(_tower_op("false-tower", p, {"matrix": rows}, mu, False))
    rng.shuffle(ops)
    return ops


def random_literal(rng, degree, nterms):
    """Homogeneous element on two letters: [(coeff string, word), ...] with
    distinct words.

    Coefficients are monomials, because the CLI literal parser cannot read
    a parenthesised sum as one coefficient.
    """
    words = set()
    while len(words) < nterms:
        words.add(tuple(rng.randrange(2) for _ in range(degree)))
    return [(monomial(rng.choice((1, -1, 2, -3)), rng.randint(-2, 2)), w)
            for w in sorted(words)]


def literal_text(terms):
    out = ""
    for coeff, word in terms:
        neg = coeff.startswith("-")
        body = coeff[1:] if neg else coeff
        name = "*".join("e%d" % (a + 1) for a in word)
        piece = name if body == "1" else "%s %s" % (body, name)
        if not out:
            out = ("-" if neg else "") + piece
        else:
            out += (" - " if neg else " + ") + piece
    return out


def _group_hopf(n):
    def lm(cols):
        return [{"in": list(k), "out": [{"word": list(w), "coeff": "1"}
                                        for w in v]}
                for k, v in cols]
    g = range(n)
    return {"basis": ["g%d" % i for i in g],
            "mult": lm([((i, j), [((i + j) % n,)]) for i in g for j in g]),
            "unit": [{"word": [0], "coeff": "1"}],
            "comult": lm([((i,), [(i, i)]) for i in g]),
            "counit": lm([((i,), [()]) for i in g]),
            "antipode": lm([((i,), [((-i) % n,)]) for i in g])}


def group_yd(n, which):
    """K[Z/n] over itself: adjoint (trivial action, coaction Delta, with the
    algebra of H) or regular (action by product, coaction 1 (x) g, with the
    coalgebra of H)."""
    h = _group_hopf(n)
    g = range(n)
    obj = {"hopf": h, "basis": list(h["basis"])}
    if which == "adjoint":
        obj["action"] = [{"in": [i, j], "out": [{"word": [j], "coeff": "1"}]}
                         for i in g for j in g]
        obj["coaction"] = [{"in": [i], "out": [{"word": [i, i],
                                                "coeff": "1"}]} for i in g]
        obj["mult"] = h["mult"]
        obj["unit"] = h["unit"]
    else:
        obj["action"] = [{"in": [i, j], "out": [{"word": [(i + j) % n],
                                                 "coeff": "1"}]}
                         for i in g for j in g]
        obj["coaction"] = [{"in": [i], "out": [{"word": [0, i],
                                                "coeff": "1"}]} for i in g]
        obj["comult"] = h["comult"]
        obj["counit"] = h["counit"]
    return obj


# Degrees and term counts of the operands of each computation, one request
# per shape in every round: (degree, terms) of x, then of y for products;
# (i, j, terms) for braid.  Fixing the shapes keeps the cost make-up of a
# round the same for every seed; the seed draws letters, coefficients and
# the session.
COMPUTE_SHAPES = {
    "shuffle": ((1, 2, 2, 1), (2, 1, 2, 2), (3, 2, 1, 1), (3, 1, 3, 1)),
    "quasishuffle": ((1, 2, 2, 1), (2, 1, 2, 2), (3, 2, 1, 1), (3, 1, 3, 1)),
    "star": ((1, 2, 2, 1), (2, 1, 2, 2), (3, 2, 1, 1), (3, 1, 3, 1)),
    "antipode": ((1, 2), (2, 2), (3, 1), (3, 2)),
    "coproduct": ((1, 2), (2, 2), (3, 1), (3, 2)),
    "braid": ((1, 1, 2), (1, 2, 1), (2, 1, 2), (1, 2, 2)),
}
YD_MODULES = (("adjoint", 2), ("regular", 2), ("adjoint", 3), ("regular", 3))


def cli_mix(rng, sessions):
    """Short requests: computations of degree 1-3 and small verify suites."""
    algebras = []
    for _ in range(2):
        g = rng.choice((1, 2))
        rows = weighted_matrix((g, 2 * g), 1, (1, 1))
        mu = {(0, 0): [(monomial(rng.choice((1, 2)), rng.randint(-1, 1)),
                        1)]}
        p = sessions.path([
            {"name": "s", "kind": "diagonal", "matrix": rows},
            {"name": "base", "kind": "yb-base", "braiding": "s",
             "mult": linmap_obj(mu)},
            {"name": "M", "kind": "quasishuffle", "base": "base"}])
        algebras.append((p, rows, mu))
    ops = []
    for op, shapes in COMPUTE_SHAPES.items():
        for shape in shapes:
            p, rows, mu = rng.choice(algebras)
            spec = {"op": op, "matrix": rows, "mu": mu}
            if op == "braid":
                i, j, terms = shape
                x = random_literal(rng, i + j, terms)
                spec.update(i=i, j=j, x=x)
                expr = "braid(s, %d, %d, %s)" % (i, j, literal_text(x))
            elif op in ("antipode", "coproduct"):
                x = random_literal(rng, *shape)
                spec.update(x=x)
                expr = ("antipode(M, %s)" % literal_text(x) if op == "antipode"
                        else "coproduct(%s)" % literal_text(x))
            else:
                x = random_literal(rng, *shape[:2])
                y = random_literal(rng, *shape[2:])
                spec.update(x=x, y=y)
                if op == "star":
                    expr = "star(M, %s, %s)" % (literal_text(x),
                                               literal_text(y))
                else:
                    expr = "%s(%s, %s)" % (op, literal_text(x),
                                           literal_text(y))
            ops.append(Op("compute-" + op,
                          ["compute", p, expr, "--format", "json"],
                          "compute", spec))
    for n in (2, 3, 4):
        p = sessions.path([{"name": "H", "kind": "catalog",
                            "address": "groupalgebra:n=%d" % n}])
        ops.append(Op("hopf", ["verify", p, "H", "--suite", "hopf"],
                      "verify-known", {"structure": "hopf"}))
    for which, n in YD_MODULES:
        p = sessions.path([{"name": "Y", "kind": "yd",
                            "data": group_yd(n, which)}])
        ops.append(Op("yd", ["verify", p, "Y", "--suite", "yd"],
                      "verify-known", {"structure": "yd-" + which}))
    for N in (2, 3, 3):
        p = sessions.path([{"name": "W", "kind": "catalog",
                            "address": "qflip:N=%d" % N}])
        ops.append(Op("qflip-%d" % N, ["verify", p, "W", "--suite", "all"],
                      "verify-known", {"structure": "qflip"}))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "shuffle-laurent": shuffle_laurent,
    "shuffle-rational": shuffle_rational,
    "tower": tower,
    "cli-mix": cli_mix,
}

# The tail percentile of each workload sits inside its most expensive
# request class (deformed flip 2 of 8, quadratic rational 3 of 8, tower on
# the deformed flip 3 of 10, signed flip on three letters 2 of 34), away from
# the class boundaries, so the tail does not jump between classes as the
# number of operations in a run varies with the machine's speed.
TAIL_PERCENTILE = {
    "shuffle-laurent": 0.9,
    "shuffle-rational": 0.75,
    "tower": 0.85,
    "cli-mix": 0.97,
}


def build_round(name, seed, index, sessions):
    """Round `index` of the workload's stream for `seed`."""
    rng = random.Random("%s/%d/%d" % (name, seed, index))
    return WORKLOADS[name](rng, sessions)
