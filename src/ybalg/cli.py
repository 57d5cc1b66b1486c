"""Command-line front end: sessions, verification suites, computations.

A session is a JSON file declaring named objects (braidings, Hopf algebras,
Yetter-Drinfel'd modules, tower structures, base algebras).  `verify` runs
an exhaustive identity suite against one object and reports each identity
with a deterministic JSON document; `compute` evaluates a small expression
language over the session and prints the exact result.

The format of each declaration's maps and elements belongs to the library
readers (`hopf.hopf_from_obj`, `hopf.yd_from_obj`, `binfty.qb_from_obj`,
`linear.linmap_from_obj`): they check its shape and legs and raise
`linear.FormatError` with the field's path, which `load_session` reports as
a ParseError naming the declaration.  A library caller gets the same
refusals as the CLI.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import binfty, catalog, hopf, tensoralg
from .braid import Braiding
from .linear import (Element, FormatError, Report, _checked,
                     element_to_obj, linmap_from_obj, read_field)
from .scalars import ScalarParseError, parse_scalar


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column)
        super().__init__(message)


class ValidationError(ValueError):
    def __init__(self, obj_name, axiom, witness=None):
        self.obj_name = obj_name
        self.axiom = axiom
        self.witness = witness
        super().__init__("object %r fails %s at %r"
                         % (obj_name, axiom, witness))


class UnknownTarget(LookupError):
    """A name or a kind of object the session does not declare."""


class SuiteMismatch(ValueError):
    pass


class Session:
    """Named objects plus a global degree cap."""

    def __init__(self, objects=None, degree_cap=6):
        self.objects = dict(objects) if objects else {}
        self.degree_cap = degree_cap

    def get(self, name):
        if name not in self.objects:
            raise UnknownTarget("no object named %r in the session" % name)
        return self.objects[name]

    def unique(self, kinds):
        """The single object of one of the given types, if unambiguous."""
        found = [(n, o) for n, o in sorted(self.objects.items())
                 if isinstance(o, kinds)]
        if len(found) != 1:
            raise UnknownTarget(
                "expected exactly one %s in the session, found %d"
                % ("/".join(k.__name__ for k in kinds), len(found)))
        return found[0][1]


def load_session(path):
    """Build and validate every declared object; abort on the first failure.

    Construction-time invariant violations surface as ValidationError naming
    the object and axiom; malformed files as ParseError with a location.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError("cannot read session %s: %s" % (path, e.strerror))
    except UnicodeDecodeError as e:
        raise ParseError("session %s is not UTF-8 text: %s" % (path, e.reason))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno)
    except RecursionError:
        raise ParseError("session %s is nested too deeply" % path) from None
    if not isinstance(data, dict):
        raise ParseError("a session must be a JSON object")
    if data.get("version") != 1:
        raise ParseError("unsupported session version %r"
                         % (data.get("version"),))
    cap = data.get("degree_cap", 6)
    if type(cap) is not int:
        raise ParseError("degree_cap must be an integer, got %r" % (cap,))
    decls = data.get("objects", [])
    if not isinstance(decls, list):
        raise ParseError("objects must be a list of declarations")
    session = Session(degree_cap=cap)
    for decl in decls:
        if not isinstance(decl, dict):
            raise ParseError("object declaration %r is not a JSON object"
                             % (decl,))
        name = decl.get("name")
        if not isinstance(name, str) or not name \
                or name in session.objects:
            raise ParseError("missing or duplicate object name %r" % (name,))
        try:
            session.objects[name] = _build_object(decl, session)
        except ScalarParseError as e:
            raise ParseError(str(e))
        except FormatError as e:
            raise ParseError("%s of %r %s" % (e.path, name, e.problem))
        except OSError as e:
            raise ParseError("object %r: %s" % (name, e))
        except (ParseError, ValidationError):
            raise
        except (ValueError, KeyError) as e:
            raise ValidationError(name, "construction", str(e))
    return session


def _ref(decl, key, session, kind):
    """The session object that decl[key] names, which must be declared
    before it and be a `kind`."""
    name = read_field(decl, key, _checked, str)
    if name not in session.objects:
        raise FormatError(key, "names no declared object %r" % name)
    obj = session.objects[name]
    if not isinstance(obj, kind):
        raise FormatError(key, "names %r, which is not a %s"
                          % (name, kind.__name__))
    return obj


def _build_object(decl, session):
    """The object one declaration builds, by its kind; its fields are read
    by the library readers."""
    kind = decl.get("kind")
    if kind == "catalog":
        return read_field(decl, "address", catalog.resolve_catalog)
    if kind == "diagonal":
        return catalog.diagonal_braiding(
            [[parse_scalar(entry) for entry in row]
             for row in read_field(decl, "matrix", _checked, [[str]])])
    if kind in ("hopf", "yd"):
        read, validate = ((hopf.hopf_from_obj, hopf.hopf_validate)
                          if kind == "hopf" else
                          (hopf.yd_from_obj, hopf.yd_validate))
        obj = read_field(decl, "data", read)
        bad = validate(obj).failures()
        if bad:
            raise ValidationError(decl["name"], bad[0]["identity"],
                                  bad[0]["witness"])
        return obj
    if kind == "yb-base":
        braiding = _ref(decl, "braiding", session, Braiding)
        V = braiding.space
        return binfty.YBBase(
            read_field(decl, "mult", linmap_from_obj, [V, V], [V]), braiding)
    if kind == "quasishuffle":
        base = _ref(decl, "base", session, binfty.YBBase)
        return base.qb_structure(
            read_field(decl, "degree_cap", _checked, int)
            if "degree_cap" in decl else session.degree_cap)
    if kind == "qb":
        return read_field(decl, "data", binfty.qb_from_obj,
                          _ref(decl, "braiding", session, Braiding))
    raise ParseError("unknown object kind %r" % (kind,))


# -- verify ----------------------------------------------------------------

def _witness_obj(w):
    if w is None:
        return None
    if isinstance(w, Element):
        return element_to_obj(w)
    if isinstance(w, tuple):
        return [_witness_obj(p) for p in w]
    if isinstance(w, (int, str)):
        return w
    return repr(w)


def _suite_entries(session, target, suite, bound):
    obj = session.get(target)
    for kind, (what, suites, run) in _SUITES.items():
        if isinstance(obj, kind):
            break
    else:
        raise SuiteMismatch("no suite applies to objects of type %s"
                            % type(obj).__name__)
    if suite not in suites:
        raise SuiteMismatch("suite %r does not apply to %s" % (suite, what))
    if suites == _BRAIDING_SUITES and bound > session.degree_cap:
        # a braiding's rows run over dim^bound cases per triple: the
        # session's cap bounds them, as a tower's own cap bounds qb_validate
        raise tensoralg.DegreeCapExceeded(
            "--bound %d exceeds the session's degree cap %d"
            % (bound, session.degree_cap))
    return [{"identity": e["identity"], "ok": bool(e["ok"]),
             "witness": _witness_obj(e["witness"])}
            for e in run(obj, suite, bound).entries]


CASE_BUDGET = 100000  # the most row cases one verify runs


def _within_budget(bound, cases_of_degree):
    """Refuse, before any row runs, a bound whose rows run more than
    CASE_BUDGET cases, cases_of_degree(n) on the triples of degree n."""
    cases = 0
    for n in range(3, bound + 1):
        cases += cases_of_degree(n)
        if cases > CASE_BUDGET:
            raise tensoralg.DegreeCapExceeded(
                "--bound %d needs more than the budget of %d row cases: %d "
                "by degree %d" % (bound, CASE_BUDGET, cases, n))


def _tower_report(M, suite, bound):
    """qb_validate within the case budget: on a triple (i, j, k), yb-left
    where M_ij is nonzero, yb-right where M_jk is and assoc run on
    dim^(i+j+k) words, assoc-vanishing on dim^(i+j) + dim^(j+k) heads."""
    d, comp = M.space.dim, M.component
    if bound <= M.degree_cap:  # else qb_validate refuses the bound
        _within_budget(bound, lambda n: sum(
            d ** n * (1 + (comp(i, j) is not None)
                      + (comp(j, n - i - j) is not None))
            + d ** (i + j) + d ** (n - i)
            for i in range(1, n - 1) for j in range(1, n - i)))
    return binfty.qb_validate(M, bound)


def _braiding_report(b, suite, bound):
    """The shuffle-product and unshuffle-coproduct rows up to the bound,
    each suite opening with its own Yang-Baxter entry, which the braiding's
    construction-time check decided, and one memo of its shuffles or
    unshuffle components for all triples.  The C(n-1, 2) triples of degree
    n run dim^n cases per row."""
    rows = 2 * (suite != "yb-coalgebra") + (suite != "yb-algebra")
    _within_budget(bound, lambda n: (
        rows * (n - 1) * (n - 2) // 2 * b.space.dim ** n))
    triples = tensoralg.triples(bound)
    report = Report()

    def record(identity, rows):
        # one entry per triple; the witness is (row, case, lhs, rhs) of the
        # failure a case-by-case scan of the rows meets first
        bad = rows.first_failure()
        report.record(identity, bad is None, None if bad is None
                      else (bad["identity"],) + bad["witness"])

    if suite in ("yb-algebra", "all"):
        report.entries += [dict(e) for e in b.ybe.entries]
        shuffle = functools.cache(lambda key: tensoralg.qshuffle_product(
            Element.basis(key[0][:key[1][0]]),
            Element.basis(key[0][key[1][0]:]), b))
        for i, j, k in triples:
            record("shuffle-product %d,%d,%d" % (i, j, k),
                   tensoralg.check_tensor_yb_product(shuffle, b, i, j, k))
    if suite in ("yb-coalgebra", "all"):
        report.entries += [dict(e) for e in b.ybe.entries]
        components = functools.cache(lambda p, key: (
            tensoralg._unshuffle_component(b, key[0], p)))
        for p, q, r in triples:
            record("unshuffle-coproduct %d,%d,%d" % (p, q, r),
                   tensoralg.check_tensor_yb_coproduct(components, b, p, q, r))
    return report


def _qflip_report(w, suite, bound):
    report = catalog.qflip_compat_check(w)
    report.entries[:0] = [dict(e) for e in w.braiding.ybe.entries]
    return report


# object type -> (what it is called, the suites that apply, its report)
_BRAIDING_SUITES = ("yb-algebra", "yb-coalgebra", "all")
_SUITES = {
    Braiding: ("a braiding", _BRAIDING_SUITES, _braiding_report),
    binfty.QBStructure: ("a tower", ("qb-infinity", "all"), _tower_report),
    hopf.HopfPresentation: ("a Hopf algebra", ("hopf", "all"),
                            lambda h, suite, bound: hopf.hopf_validate(h)),
    hopf.YDModule: ("a YD module", ("yd", "all"),
                    lambda m, suite, bound: hopf.yd_validate(m)),
    catalog.WedgeAlgebra: ("the signed flip", _BRAIDING_SUITES,
                           _qflip_report),
}


def cmd_verify(session, target, suite, bound):
    """Run one suite; returns (exit_code, report dict)."""
    if bound < 3:
        raise ParseError("--bound %d checks nothing: the smallest degree "
                         "i+j+k of a checked identity is 3" % bound)
    entries = _suite_entries(session, target, suite, bound)
    ok = all(e["ok"] for e in entries)
    report = {"target": target, "suite": suite, "bound": bound,
              "ok": ok, "entries": entries}
    return (0 if ok else 1), report


# -- compute ---------------------------------------------------------------

def _parse_element(text, space):
    """`e1*e2` words with optional scalar weights, joined by + and -.

    A term is an optional scalar literal followed by a `*`-joined word of
    basis names; the bare scalar `1` denotes the empty word.  Terms are
    split at signs outside parentheses that do not follow `^` or `*`.
    """
    stripped = text.strip()
    if not stripped or stripped[0] not in "+-":
        stripped = "+" + stripped
    cuts = [i for i in _outside_parens(stripped, "+-")
            if i == 0 or stripped[i - 1] not in "^*"]
    cuts.append(len(stripped))
    out = Element()
    index = {n: i for i, n in enumerate(space.basis_names)}
    for start, end in zip(cuts, cuts[1:]):
        sign, chunk = stripped[start], stripped[start + 1:end].strip()
        if not chunk:
            raise ParseError("empty term in element literal %r" % text)
        pieces = chunk.split()
        if len(pieces) > 2:
            raise ParseError("malformed term %r" % chunk)
        if len(pieces) == 2:
            coeff_text, word_text = pieces
        elif pieces[0].split("*")[0] in index:
            coeff_text, word_text = "1", pieces[0]
        else:
            coeff_text, word_text = pieces[0], ""
        try:
            coeff = parse_scalar(coeff_text)
        except ScalarParseError as e:
            raise ParseError(str(e))
        if sign == "-":
            coeff = -coeff
        if word_text:
            letters = []
            for name in word_text.split("*"):
                if name not in index:
                    raise ParseError("unknown basis name %r" % name)
                letters.append(index[name])
            out.add_term((tuple(letters), ()), coeff)
        else:
            out.add_term(((), ()), coeff)
    return out


def _outside_parens(text, marks):
    """The positions in text of the characters of `marks` that stand
    outside every parenthesis."""
    found, depth = [], 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in marks and depth == 0:
            found.append(i)
    return found


def _split_args(text):
    """Top-level comma split of a parenthesized argument list; blank text
    has no arguments."""
    if not text.strip():
        return []
    cuts = [-1] + _outside_parens(text, ",") + [len(text)]
    return [text[a + 1:b].strip() for a, b in zip(cuts, cuts[1:])]


# the objects with an underlying braided space, held as their `.space`
_BRAIDED = (Braiding, binfty.QBStructure, binfty.YBBase)


def compute_expression(session, text, cap=None):
    """Evaluate one expression; returns an Element."""
    return _evaluate(session, text, cap)[0]


def _evaluate(session, text, cap):
    """Evaluate one expression; returns the Element and the space whose
    letters it is written in.

    No operation's result has a degree above the sum of its operands'
    degrees, so that sum is checked against the cap before any work.
    """
    text = text.strip()
    m = re.match(r"^(\w+)\((.*)\)$", text, re.S)
    if not m:
        raise ParseError("expected op(args), got %r" % text)
    space, operands, run = _operation(session, m.group(1),
                                      _split_args(m.group(2)))
    xs = [_parse_element(t, space) for t in operands]
    cap = cap if cap is not None else session.degree_cap
    degree = sum(max(x.degrees(), default=0) for x in xs)
    if degree > cap:
        raise tensoralg.DegreeCapExceeded(
            "degree %d exceeds cap %d" % (degree, cap))
    return run(*xs), space


def _operation(session, op, args):
    """The space, the operand texts and the kernel of one operation: the
    only part of `compute` that depends on the operation."""

    def want(n):
        if len(args) != n:
            raise ParseError("%s expects %d arguments, got %d"
                             % (op, n, len(args)))

    def named(i, kinds, mismatch):
        """The session object args[i] names, which must be of `kinds`."""
        obj = session.get(args[i])
        if not isinstance(obj, kinds):
            raise SuiteMismatch(mismatch)
        return obj

    def trailing(kind, what):
        """A product's optional third argument, or else the session's
        single object of its kind."""
        if len(args) == 3:
            return named(2, kind, "%s expects a %s third" % (op, what))
        want(2)
        return session.unique((kind,))

    if op == "shuffle":
        b = trailing(Braiding, "braiding")
        return (b.space, args[:2],
                lambda x, y: tensoralg.qshuffle_product(x, y, b))
    if op == "quasishuffle":
        base = trailing(binfty.YBBase, "base")
        return (base.space, args[:2],
                lambda x, y: binfty.quasi_shuffle(x, y, base))
    if op in ("star", "antipode"):
        want(3 if op == "star" else 2)
        M = named(0, binfty.QBStructure,
                  "%s expects a tower structure first" % op)
        return M.space, args[1:], (
            (lambda x, y: binfty.star_product(M, x, y)) if op == "star"
            else (lambda x: binfty.antipode(x, M)))
    if op == "coproduct":
        if len(args) == 2:
            sp = named(1, _BRAIDED,
                       "object has no underlying braided space").space
        else:
            want(1)
            spaces = {tuple(obj.space.basis_names): obj.space
                      for obj in session.objects.values()
                      if isinstance(obj, _BRAIDED)}
            if len(spaces) != 1:
                raise UnknownTarget("expected a single underlying space, "
                                    "found %d" % len(spaces))
            sp, = spaces.values()
        return sp, args[:1], tensoralg.deconcatenate
    if op == "braid":
        want(4)
        b = named(0, Braiding, "braid expects a braiding first")
        try:
            i, j = int(args[1]), int(args[2])
        except ValueError:
            raise ParseError("braid degrees must be integers, got %r and %r"
                             % (args[1], args[2]))
        if i < 0 or j < 0:
            raise ParseError("braid degrees must be non-negative")

        def run(x):
            if x.degrees() not in ([], [i + j]):
                raise ParseError("braid(%d, %d) expects an element of "
                                 "degree %d" % (i, j, i + j))
            beta = tensoralg.beta_slots(b)
            y = tensoralg._linear(x, lambda u: beta((u, (i,))), "braid")
            return Element({(w, ()): c for (w, _), c in y.terms.items()})
        return b.space, args[3:], run
    raise ParseError("unknown operation %r" % op)


def format_element(x, space):
    """Canonical text: graded lexicographic terms, splits shown as `|`."""
    from .linear import term_sort_key
    if x.is_zero():
        return "0"
    parts = []
    for key in sorted(x.terms, key=term_sort_key):
        letters, cuts = key
        coeff = x.terms[key]
        bounds = tensoralg.slot_bounds(letters, cuts)
        blocks = []
        for t in range(len(bounds) - 1):
            seg = letters[bounds[t]:bounds[t + 1]]
            blocks.append("*".join(space.basis_names[i] for i in seg)
                          if seg else "1")
        word = "|".join(blocks)
        cs = str(coeff)
        if word == "1":
            parts.append(cs)
        elif cs == "1":
            parts.append(word)
        elif cs == "-1":
            parts.append("-%s" % word)
        else:
            # a quotient already parenthesizes its sums; a sum needs them
            if "/" not in cs and len(coeff.num.coeffs) > 1:
                cs = "(%s)" % cs
            parts.append("%s %s" % (cs, word))
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def cmd_compute(session, expression, fmt="text", cap=None):
    """Evaluate and render; returns (exit_code, text)."""
    x, space = _evaluate(session, expression, cap)
    if fmt == "json":
        return 0, json.dumps(element_to_obj(x), sort_keys=True)
    return 0, format_element(x, space)


@functools.cache
def _parser():
    """The `ybalg` argument parser, built on the first call and reused by
    every later request in the process; it holds no request's state."""
    parser = argparse.ArgumentParser(prog="ybalg")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run an identity suite on one object")
    pv.add_argument("session")
    pv.add_argument("target")
    pv.add_argument("--suite", default="all", choices=sorted(
        {suite for _, suites, _ in _SUITES.values() for suite in suites}))
    pv.add_argument("--bound", type=int, default=4)

    pc = sub.add_parser("compute", help="evaluate an expression")
    pc.add_argument("session")
    pc.add_argument("expression")
    pc.add_argument("--format", default="text", choices=["text", "json"])
    pc.add_argument("--cap", type=int, default=None)
    return parser


def main(argv=None):
    """One `ybalg` request; returns its exit code.  Only the parser is kept
    between calls, so each request loads its session and runs cold."""
    args = _parser().parse_args(argv)
    try:
        session = load_session(args.session)
        if args.command == "verify":
            code, report = cmd_verify(session, args.target, args.suite,
                                      args.bound)
            print(json.dumps(report, sort_keys=True, indent=2))
            return code
        code, text = cmd_compute(session, args.expression,
                                 fmt=args.format, cap=args.cap)
        print(text)
        return code
    except (ParseError, ValidationError, UnknownTarget, SuiteMismatch,
            tensoralg.DegreeCapExceeded) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
