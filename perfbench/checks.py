"""Output checks for every request class, and the planted errors they must
catch.

`check(op, code, out)` returns a list of problems (empty when the output is
right).  Expectations come from the oracle and from the paper's known
verdicts, never from stored program output.  `plants(op, code, out)` returns
altered copies of a correct output (one changed coefficient, verdict, exit
code or witness, or one dropped identity); the benchmark counts a check as live only when it rejects
every one of them.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import product

import oracle


def _triples(bound):
    return [(i, j, k) for i in range(1, bound + 1)
            for j in range(1, bound + 1) for k in range(1, bound + 1)
            if i + j + k <= bound]


def _report(op, code, out, want_code, problems):
    """Parse a verify report and check the fields every suite shares."""
    if code != want_code:
        problems.append("exit %r, expected %d" % (code, want_code))
    try:
        rep = json.loads(out)
    except ValueError:
        problems.append("report is not JSON")
        return None
    target, suite = op.argv[2], op.argv[4]
    if rep.get("target") != target or rep.get("suite") != suite:
        problems.append("report names %r/%r" % (rep.get("target"),
                                                 rep.get("suite")))
    entries = rep.get("entries")
    if not isinstance(entries, list) or not entries:
        problems.append("report has no entries")
        return None
    if rep.get("ok") != all(e.get("ok") is True for e in entries):
        problems.append("report ok disagrees with its entries")
    if rep.get("ok") != (want_code == 0):
        problems.append("report ok is %r" % (rep.get("ok"),))
    return rep


# The axioms each known structure must be checked against, by definition:
# a Hopf algebra's (co)algebra, bialgebra and antipode axioms; a YD module's
# module, comodule and compatibility axioms, plus the (co)module-algebra
# pair when V carries an algebra (adjoint) or the (co)module-coalgebra pair
# when it carries a coalgebra (regular); and for the signed flip, the
# Yang-Baxter equation with its wedge, coproduct and unit rows.
KNOWN_AXIOMS = {
    "hopf": ("assoc", "unit", "unit-right", "coassoc", "counit",
             "counit-right", "comult-mult", "comult-unit", "counit-mult",
             "counit-unit", "antipode-left", "antipode-right"),
    "yd-adjoint": ("module", "comodule", "yd-compat", "module-algebra",
                   "comodule-algebra"),
    "yd-regular": ("module", "comodule", "yd-compat", "module-coalgebra",
                   "comodule-coalgebra"),
    "qflip": ("yang-baxter", "wedge-left", "wedge-right", "coproduct-left",
              "coproduct-right", "unit-flip"),
}


def _names(rep):
    return Counter(e.get("identity") for e in rep["entries"])


def _matrices(spec):
    return [oracle.eval_matrix(spec["matrix"], t) for t in oracle.T_VALUES]


def _dim(spec):
    return spec["exterior"] if "exterior" in spec else len(spec["matrix"])


def _mus(spec):
    return [{ab: {tt: oracle.eval_coeff(c, t) for c, tt in outs}
             for ab, outs in spec["mu"].items()} for t in oracle.T_VALUES]


class Checker:
    """Checks outputs; keeps the oracle expectation of the last request
    only, which its planted errors are checked against again."""

    def __init__(self):
        self._op = None
        self._expect = None

    def _expected(self, op):
        if op is not self._op:
            self._expect = getattr(self, "_expect_" +
                                   op.kind.replace("-", "_"))(op.spec)
            self._op = op
        return self._expect

    # -- expectations -----------------------------------------------------------

    def _expect_verify_braiding(self, spec):
        names = Counter({"yang-baxter": 2})
        for trip in _triples(spec["bound"]):
            names["shuffle-product %d,%d,%d" % trip] += 1
            names["unshuffle-coproduct %d,%d,%d" % trip] += 1
        if "exterior" in spec:
            sigmas = [oracle.exterior_sigma(spec["exterior"], t)
                      for t in oracle.T_VALUES]
            dim = spec["exterior"]
        else:
            sigmas = [oracle.diagonal_sigma(Q) for Q in _matrices(spec)]
            dim = len(spec["matrix"])
        ybe = all(oracle.yang_baxter_holds(s, dim) for s in sigmas)
        return names, ybe

    def _expect_verify_known(self, spec):
        return Counter(KNOWN_AXIOMS[spec["structure"]])

    def _expect_verify_tower(self, spec):
        # with no interior component (mu = {}) both identities hold
        # whatever the braiding, so the deformed flip needs no matrix
        Qs = (_matrices(spec) if "matrix" in spec
              else [None] * len(oracle.T_VALUES))
        mus = _mus(spec)
        dim = _dim(spec)
        verdicts = {}
        for trip in _triples(spec["bound"]):
            for side in ("yb-left", "yb-right"):
                verdicts["%s %d,%d,%d" % ((side,) + trip)] = all(
                    oracle.yb_verdict(Q, mu, dim, side, *trip)
                    for Q, mu in zip(Qs, mus))
        return Qs, mus, verdicts

    def _expect_compute(self, spec):
        out = []
        for t, Q in zip(oracle.T_VALUES, _matrices(spec)):
            x = oracle.eval_terms(spec["x"], t)
            op = spec["op"]
            if op == "coproduct":
                out.append({"full": oracle.deconcatenate(x)})
                continue
            if op == "braid":
                full = oracle.braid_component(Q, spec["i"], spec["j"], x)
                out.append({"full": oracle.uncut(full)})
                continue
            mu = {ab: {tt: oracle.eval_coeff(c, t) for c, tt in outs}
                  for ab, outs in spec["mu"].items()}
            qs = oracle.QuasiShuffle(Q, mu)
            if op == "antipode":
                out.append({"full": oracle.uncut(qs.antipode(x))})
                continue
            y = oracle.eval_terms(spec["y"], t)
            if op == "shuffle":
                out.append({"full": oracle.uncut(oracle.shuffle(Q, x, y))})
            else:
                # on a quasi-shuffle tower the star product is the
                # quasi-shuffle, and its top degree is the shuffle
                out.append({"full": oracle.uncut(qs.product(x, y)),
                            "top": oracle.uncut(oracle.shuffle(Q, x, y))})
        return out

    # -- checks -----------------------------------------------------------------

    def check(self, op, code, out):
        problems = []
        try:
            getattr(self, "_check_" + op.kind.replace("-", "_"))(
                op, code, out, problems)
        except (ValueError, KeyError, TypeError, AttributeError,
                ZeroDivisionError) as e:
            problems.append("unreadable output: %s: %s"
                            % (type(e).__name__, e))
        return problems

    def _check_verify_braiding(self, op, code, out, problems):
        names, ybe = self._expected(op)
        if not ybe:
            problems.append("oracle: the braiding fails the Yang-Baxter "
                            "equation")
        rep = _report(op, code, out, 0, problems)
        if rep is None:
            return
        if _names(rep) != names:
            problems.append("identities differ from the bound-%d suite"
                            % op.spec["bound"])
        for e in rep["entries"]:
            if e.get("ok") is not True:
                problems.append("%s fails on a braiding that satisfies it"
                                % e.get("identity"))

    def _check_verify_tower(self, op, code, out, problems):
        Qs, mus, verdicts = self._expected(op)
        expect_ok = op.spec["expect_ok"]
        if expect_ok != all(verdicts.values()):
            problems.append("oracle: the tower's compatibility is %r, "
                            "seeded as %r" % (all(verdicts.values()),
                                              expect_ok))
        rep = _report(op, code, out, 0 if expect_ok else 1, problems)
        if rep is None:
            return
        want = Counter()
        for trip in _triples(op.spec["bound"]):
            for ident in ("yb-left", "yb-right", "assoc", "assoc-vanishing"):
                want["%s %d,%d,%d" % ((ident,) + trip)] += 1
        if _names(rep) != want:
            problems.append("identities differ from the bound-%d suite"
                            % op.spec["bound"])
        for e in rep["entries"]:
            name = e.get("identity", "")
            side, _, trip = name.partition(" ")
            if name in verdicts:
                if e.get("ok") is not verdicts[name]:
                    problems.append("%s is %r, oracle says %r"
                                    % (name, e.get("ok"), verdicts[name]))
                if e.get("ok") is False:
                    z = tuple(e.get("witness") or ())
                    i, j, k = map(int, trip.split(","))
                    if len(z) != i + j + k or all(
                            oracle.yb_identity_holds(Q, mu, side, i, j, k, z)
                            for Q, mu in zip(Qs, mus)):
                        problems.append("%s witness %r does not violate it"
                                        % (name, e.get("witness")))
            elif expect_ok and e.get("ok") is not True:
                problems.append("%s fails on a quasi-shuffle tower" % name)

    def _check_verify_known(self, op, code, out, problems):
        names = self._expected(op)
        rep = _report(op, code, out, 0, problems)
        if rep is None:
            return
        if _names(rep) != names:
            problems.append("axioms differ from those of %s"
                            % op.spec["structure"])
        for e in rep["entries"]:
            if e.get("ok") is not True:
                problems.append("%r fails on a stock structure" % (e,))

    def _check_compute(self, op, code, out, problems):
        if code != 0:
            problems.append("exit %r, expected 0" % (code,))
        obj = json.loads(out)
        for t, want in zip(oracle.T_VALUES, self._expected(op)):
            got = oracle.eval_json_element(obj, t)
            if got != want["full"]:
                problems.append("%s differs from the oracle at q = %s"
                                % (op.spec["op"], t))
            if "top" in want and oracle.top_degree(got) != want["top"]:
                problems.append("top degree of %s is not the shuffle at "
                                "q = %s" % (op.spec["op"], t))


# -- planted errors ---------------------------------------------------------------

def plants(op, code, out):
    """Altered copies (label, code, out) of a correct output."""
    if op.kind == "compute":
        obj = json.loads(out)
        if not obj:
            return []
        obj[0] = dict(obj[0], coeff="(%s)+1" % obj[0]["coeff"])
        return [("coefficient", code, json.dumps(obj))]
    rep = json.loads(out)
    planted = [("exit-code", 1 - code if code in (0, 1) else 0, out)]
    entries = rep["entries"]
    pick = next((n for n, e in enumerate(entries)
                 if e["identity"].startswith("yb-")), 0)
    flipped = json.loads(out)
    flipped["entries"][pick]["ok"] = not entries[pick]["ok"]
    planted.append(("verdict", code, json.dumps(flipped)))
    dropped = json.loads(out)
    del dropped["entries"][-1]
    planted.append(("dropped-entry", code, json.dumps(dropped)))
    if op.kind == "verify-tower":
        witness = _harmless_witness(op, entries)
        if witness is not None:
            planted.append(("witness", code, witness))
    return planted


def _harmless_witness(op, entries):
    """The report with a failing witness replaced by a word that satisfies
    the identity, or None when the report has no failing yb entry."""
    for n, e in enumerate(entries):
        side, _, trip = e["identity"].partition(" ")
        if not side.startswith("yb-") or e["ok"]:
            continue
        i, j, k = map(int, trip.split(","))
        Qs, mus = _matrices(op.spec), _mus(op.spec)
        for z in product(range(_dim(op.spec)), repeat=i + j + k):
            if all(oracle.yb_identity_holds(Q, mu, side, i, j, k, z)
                   for Q, mu in zip(Qs, mus)):
                rep = {"entries": [dict(x) for x in entries]}
                rep["entries"][n]["witness"] = list(z)
                return json.dumps(dict(rep, ok=False, target=op.argv[2],
                                       suite=op.argv[4]))
    return None

