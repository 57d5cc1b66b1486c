"""Session loading, verification suites, and the expression evaluator."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ybalg
from conftest import braid_lift, chi
from ybalg import binfty, braid, cli, hopf, tensoralg
from ybalg.binfty import QBStructure, YBBase, qb_from_obj, qb_to_obj
from ybalg.braid import Braiding, check_yang_baxter
from ybalg.catalog import (WedgeAlgebra, diagonal_braiding,
                           exterior_braiding, group_algebra_hopf)
from ybalg.cli import (ParseError, Session, SuiteMismatch, UnknownTarget,
                       ValidationError, cmd_compute, cmd_verify,
                       compute_expression, format_element, load_session,
                       main, _parse_element, _split_args)
from ybalg.hopf import hopf_to_obj, yd_adjoint, yd_regular, yd_to_obj
from ybalg.linear import (Element, FormatError, LinMap, Report, Space,
                          element_from_obj, linmap_from_obj, linmap_to_obj)
from ybalg.scalars import Scalar, parse_scalar


def write_session(tmp_path, data, name="session.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def basic_session(tmp_path):
    data = {"version": 1, "degree_cap": 6, "objects": [
        {"name": "sigma", "kind": "catalog", "address": "exterior:N=2"},
        {"name": "base", "kind": "yb-base", "braiding": "sigma",
         "mult": linmap_to_obj(LinMap(2))},
        {"name": "M", "kind": "quasishuffle", "base": "base"},
    ]}
    return write_session(tmp_path, data)


def test_load_session_builds_objects(tmp_path):
    session = load_session(basic_session(tmp_path))
    assert isinstance(session.get("sigma"), Braiding)
    assert isinstance(session.get("base"), YBBase)
    assert isinstance(session.get("M"), QBStructure)
    with pytest.raises(UnknownTarget):
        session.get("nonesuch")


def test_load_session_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1,\n  "objects": [}')
    with pytest.raises(ParseError) as exc:
        load_session(str(path))
    assert exc.value.line == 2
    assert exc.value.column is not None


def test_load_session_bad_version(tmp_path):
    path = write_session(tmp_path, {"version": 99})
    with pytest.raises(ParseError):
        load_session(path)


def test_load_session_bad_coefficient(tmp_path):
    path = write_session(tmp_path, {"version": 1, "objects": [
        {"name": "d", "kind": "diagonal", "matrix": [["q^"]]}]})
    with pytest.raises(ParseError):
        load_session(path)


def test_load_session_zero_entry_is_validation_error(tmp_path):
    path = write_session(tmp_path, {"version": 1, "objects": [
        {"name": "d", "kind": "diagonal", "matrix": [["0"]]}]})
    with pytest.raises(ValidationError) as exc:
        load_session(path)
    assert exc.value.obj_name == "d"


def test_verify_passes_and_is_deterministic(tmp_path):
    path = basic_session(tmp_path)
    texts = []
    for _ in range(2):
        session = load_session(path)
        code, report = cmd_verify(session, "sigma", "yb-algebra", 4)
        assert code == 0
        assert report["ok"]
        texts.append(json.dumps(report, sort_keys=True))
    assert texts[0] == texts[1]


def test_verify_failing_tower(tmp_path):
    # a lone inhomogeneous component fails the compatibility rows
    sigma = exterior_braiding(2)
    bad = QBStructure(sigma, {(1, 1): LinMap(
        2, {(0, 0): Element.basis((1,))})}, degree_cap=4)
    data = {"version": 1, "objects": [
        {"name": "sigma", "kind": "catalog", "address": "exterior:N=2"},
        {"name": "bad", "kind": "qb", "braiding": "sigma",
         "data": qb_to_obj(bad)}]}
    session = load_session(write_session(tmp_path, data))
    code, report = cmd_verify(session, "bad", "qb-infinity", 4)
    assert code == 1
    assert not report["ok"]
    assert any(e["witness"] is not None for e in report["entries"]
               if not e["ok"])


def test_verify_suite_mismatch(tmp_path):
    session = load_session(basic_session(tmp_path))
    with pytest.raises(SuiteMismatch):
        cmd_verify(session, "sigma", "hopf", 4)


@pytest.mark.parametrize("decl", [
    {"name": "T", "kind": "diagonal", "matrix": [["q", "2"], ["-1", "1/q"]]},
    {"name": "T", "kind": "catalog", "address": "qflip:N=2"},
])
def test_verify_decides_yang_baxter_once(tmp_path, capsys, monkeypatch,
                                         decl):
    calls = []

    def counted(sigma, space):
        calls.append(sigma)
        return check_yang_baxter(sigma, space)

    monkeypatch.setattr(braid, "check_yang_baxter", counted)
    path = write_session(tmp_path, {"version": 1, "objects": [decl]})
    assert main(["verify", path, "T", "--suite", "all", "--bound", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [e["identity"] for e in report["entries"]].count(
        "yang-baxter") == (2 if decl["kind"] == "diagonal" else 1)
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["diagonal", "qflip"])
def test_verify_report_copies_the_stored_yang_baxter_report(case):
    b = diagonal_braiding([[parse_scalar("q"), Scalar.one()],
                           [Scalar.one(), parse_scalar("-q")]])
    if case == "qflip":
        w = WedgeAlgebra(2)
        b, report = w.braiding, cli._qflip_report(w, "all", 3)
    else:
        report = cli._braiding_report(b, "all", 3)
    ybe = [e for e in report.entries if e["identity"] == "yang-baxter"]
    assert ybe and all(e["ok"] for e in ybe)
    stored = [dict(e) for e in b.ybe.entries]
    for e in report.entries:
        e["ok"] = False
        e["witness"] = "edited"
    report.entries.clear()
    assert b.ybe.entries == stored and b.ybe.ok


def test_parse_element_literals():
    sp = exterior_braiding(2).space
    x = _parse_element("e1*e2 + q^2 e2*e1", sp)
    assert x == Element.basis((0, 1)) + \
        Element.basis((1, 0), coeff=Scalar.q_power(2))
    assert _parse_element("1", sp) == Element.unit()
    assert _parse_element("-e1", sp) == Element.basis((0,)).scale(
        Scalar.from_int(-1))
    assert _parse_element("1/2 e1 - e2", sp) == \
        Element.basis((0,), coeff=parse_scalar("1/2")) - Element.basis((1,))
    with pytest.raises(ParseError):
        _parse_element("e9", sp)
    with pytest.raises(ParseError):
        _parse_element("q^ e1", sp)


def test_compute_shuffle_golden(tmp_path):
    session = load_session(basic_session(tmp_path))
    code, text = cmd_compute(session, "shuffle(e1, e2)")
    assert code == 0
    assert text == "e1*e2 + q^-1 e2*e1"


def test_compute_quasishuffle_matches_shuffle(tmp_path):
    session = load_session(basic_session(tmp_path))
    _, t1 = cmd_compute(session, "quasishuffle(e1, e2)")
    _, t2 = cmd_compute(session, "shuffle(e1, e2)")
    _, t3 = cmd_compute(session, "star(M, e1, e2)")
    assert t1 == t2 == t3


def test_compute_coproduct_golden(tmp_path):
    session = load_session(basic_session(tmp_path))
    _, text = cmd_compute(session, "coproduct(e1*e2)")
    assert text == "1|e1*e2 + e1|e2 + e1*e2|1"


def test_compute_antipode_golden(tmp_path):
    session = load_session(basic_session(tmp_path))
    _, text = cmd_compute(session, "antipode(M, e1)")
    assert text == "-e1"


def test_compute_braid_golden(tmp_path):
    session = load_session(basic_session(tmp_path))
    _, text = cmd_compute(session, "braid(sigma, 1, 1, e1*e2)")
    assert text == "q^-1 e2*e1"


def test_compute_braid_lifts_only_the_operand_words(tmp_path):
    # beta_33 is built for the operand word alone, from shorter images,
    # not tabulated on the 2^6 words of degree 6
    session = load_session(basic_session(tmp_path))
    compute_expression(session, "braid(sigma, 3, 3, e1*e2*e1*e2*e1*e2)")
    sigma = session.get("sigma")
    assert [key for key in sigma._beta_slot_cache if len(key[0]) == 6] == \
        [((0, 1, 0, 1, 0, 1), (3,))]
    assert len(sigma._beta_slot_cache) < 2 ** 6


@pytest.mark.parametrize("i, j", [(40, 0), (20, 20)])
def test_compute_braid_of_zero_lifts_nothing(tmp_path, i, j):
    session = load_session(basic_session(tmp_path))
    assert cmd_compute(session, "braid(sigma, %d, %d, 0)" % (i, j)) == \
        (0, "0")
    sigma = session.get("sigma")
    assert not sigma._beta_slot_cache


BRAID_DIFFERENTIAL = [
    ("deformed flip N=2", lambda: exterior_braiding(2)),
    ("rational diagonal", lambda: diagonal_braiding(
        [[parse_scalar(e) for e in row] for row in
         [["(q^2+1)/(q+2)", "q"], ["2/(q-3)", "-1"]]])),
]


def _braid_mismatches(make):
    """The (x, i, j) with deg x = i + j <= 4 on which `compute braid`
    differs from beta_ij = T_{chi_ij} tabulated by braid_lift on a separate
    copy of the braiding.  x runs over the words of each degree and their
    sum weighted by distinct powers of q."""
    b, ref = make(), make()
    session = Session({"b": b})
    mismatches = []
    for d in range(5):
        words = b.space.words(d)
        mixed = Element()
        for k, w in enumerate(words):
            mixed.add_scaled(Element.basis(w), Scalar.q_power(k))
        for i in range(d + 1):
            beta = braid_lift(chi(i, d - i), ref)
            for x in [Element.basis(w) for w in words] + [mixed]:
                got = compute_expression(session, "braid(b, %d, %d, %s)" % (
                    i, d - i, format_element(x, b.space)))
                if got != beta.apply(x):
                    mismatches.append((x, i, d - i))
    return mismatches


@pytest.mark.parametrize("make", [m for _, m in BRAID_DIFFERENTIAL],
                         ids=[n for n, _ in BRAID_DIFFERENTIAL])
def test_compute_braid_matches_tabulated_beta(make):
    assert _braid_mismatches(make) == []


def test_compute_braid_differential_catches_swapped_degrees(monkeypatch):
    # beta_ji where beta_ij is asked for: the cut moved to len(u v) - i
    beta_slots = tensoralg.beta_slots
    monkeypatch.setattr(tensoralg, "beta_slots",
                        lambda b: lambda key: beta_slots(b)(
                            (key[0], (len(key[0]) - key[1][0],))))
    for _, make in BRAID_DIFFERENTIAL:
        assert _braid_mismatches(make)


def test_compute_json_roundtrip(tmp_path):
    session = load_session(basic_session(tmp_path))
    code, text = cmd_compute(session, "shuffle(e1, e2)", fmt="json")
    assert code == 0
    x = element_from_obj(json.loads(text))
    assert x == compute_expression(session, "shuffle(e1, e2)")


@pytest.mark.parametrize("expr", [
    "shuffle((1-q) e1, e2)",
    "shuffle((q^2-q+1) e1*e2 - 2q^-1 e2, e1 + (1+q^-1) e2)",
    "shuffle((q+1)/(q-1) e1 - q/(q+1) e2, (1-q)/2 e2)",
])
def test_compute_output_parses_back(tmp_path, expr):
    session = load_session(basic_session(tmp_path))
    x = compute_expression(session, expr)
    assert any(len(c.num.coeffs) > 1 or len(c.den.coeffs) > 1
               for c in x.terms.values())
    _, text = cmd_compute(session, expr)
    assert _parse_element(text, session.get("sigma").space) == x
    _, text = cmd_compute(session, expr, fmt="json")
    assert element_from_obj(json.loads(text)) == x


def test_parse_element_splits_outside_parentheses():
    sp = exterior_braiding(2).space
    assert _parse_element("(1-q) e1 - (q+1)/(q-1) e2", sp) == \
        Element.basis((0,), coeff=parse_scalar("1-q")) \
        - Element.basis((1,), coeff=parse_scalar("(q+1)/(q-1)"))


@pytest.mark.parametrize("text, args", [
    ("", []),
    ("   ", []),
    ("e1", ["e1"]),
    ("e1,,e2", ["e1", "", "e2"]),
    ("e1, e2,", ["e1", "e2", ""]),
    ("M, (1+q)/(q-(1-q)) e1, f(a, (b, c))", [
        "M", "(1+q)/(q-(1-q)) e1", "f(a, (b, c))"]),
    ("  M ,\te1*e2  ", ["M", "e1*e2"]),
], ids=["empty", "blank", "one", "empty-between-commas", "trailing-comma",
        "nested-parentheses", "surrounding-spaces"])
def test_split_args_edge_cases(text, args):
    assert _split_args(text) == args


def test_missing_or_ambiguous_object_is_named(tmp_path, capsys):
    path = basic_session(tmp_path)
    base = {"name": "base2", "kind": "yb-base", "braiding": "sigma",
            "mult": linmap_to_obj(LinMap(2))}
    two_bases = write_session(tmp_path, {"version": 1, "objects": [
        SIGMA, dict(base, name="base"), base]}, "two_bases.json")
    two_spaces = write_session(tmp_path, {"version": 1, "objects": [
        SIGMA, {"name": "tau", "kind": "catalog", "address": "exterior:N=3"}
    ]}, "two_spaces.json")
    missing = "no object named 'nope' in the session"
    for argv, message in (
            (["verify", path, "nope"], missing),
            (["compute", path, "quasishuffle(e1, e2, nope)"], missing),
            (["compute", two_bases, "quasishuffle(e1, e2)"],
             "expected exactly one YBBase in the session, found 2"),
            (["compute", two_spaces, "coproduct(e1)"],
             "expected a single underlying space, found 2")):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


def test_compute_parse_and_target_errors(tmp_path):
    session = load_session(basic_session(tmp_path))
    with pytest.raises(ParseError):
        compute_expression(session, "frobnicate(e1)")
    with pytest.raises(UnknownTarget):
        compute_expression(session, "star(missing, e1, e2)")
    with pytest.raises(SuiteMismatch):
        compute_expression(session, "star(sigma, e1, e2)")
    for expr in ("braid(sigma, x, 1, e1)", "braid(sigma, -1, 1, e1)",
                 "braid(sigma, 1, 1, e1*e2*e1)"):
        with pytest.raises(ParseError):
            compute_expression(session, expr)


@pytest.mark.parametrize("expr", ["shuffle(e1, e2, base)",
                                  "quasishuffle(e1, e2, sigma)"])
def test_compute_object_of_other_kind_exits_2(tmp_path, capsys, expr):
    path = basic_session(tmp_path)
    with pytest.raises(SuiteMismatch):
        compute_expression(load_session(path), expr)
    assert main(["compute", path, expr]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_compute_names_letters_after_its_space(tmp_path, capsys):
    # the first braided object has two letters, the braiding used three
    path = write_session(tmp_path, {"version": 1, "objects": [
        {"name": "sigma", "kind": "catalog", "address": "exterior:N=2"},
        {"name": "b", "kind": "diagonal", "matrix": [
            ["1", "1", "1"], ["1", "1", "1"], ["q", "1", "1"]]}]})
    assert main(["compute", path, "shuffle(e3, e1, b)"]) == 0
    assert capsys.readouterr().out.strip() == "q e1*e3 + e3*e1"


def test_format_element_coefficient_rules():
    sp = exterior_braiding(2).space
    x = Element.basis((0,), coeff=Scalar.one() - Scalar.q_power(2)) \
        + Element.basis((1,), coeff=Scalar.from_int(-1))
    assert format_element(x, sp) == "(-q^2+1) e1 - e2"
    assert format_element(Element(), sp) == "0"
    assert format_element(Element.unit(), sp) == "1"


def test_main_exit_codes(tmp_path, capsys):
    path = basic_session(tmp_path)
    assert main(["verify", path, "sigma", "--suite", "yb-algebra",
                 "--bound", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]

    assert main(["compute", path, "shuffle(e1, e2)"]) == 0
    assert capsys.readouterr().out.strip() == "e1*e2 + q^-1 e2*e1"

    assert main(["verify", path, "missing"]) == 2
    assert main(["verify", path, "sigma", "--suite", "hopf"]) == 2
    assert main(["compute", path, "shuffle(e1, e2)", "--cap", "1"]) == 2
    assert main(["compute", path, "antipode(M, e1*e2*e1*e2*e1*e2*e1)"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "error: degree 7 exceeds cap 6" in err


# one request per operation whose operands' degrees sum past 4, with the
# module attribute of the kernel it runs
OVER_CAP = [
    ("shuffle(e1*e2*e1, e2*e1)", 5, tensoralg, "qshuffle_product"),
    ("quasishuffle(e1*e2, e2*e1*e2, base)", 5, binfty, "quasi_shuffle"),
    ("star(M, e1*e2*e1, e1*e2*e1)", 6, binfty, "star_product"),
    ("antipode(M, e1*e2*e1*e2*e1)", 5, binfty, "antipode"),
    ("coproduct(e1*e2*e1*e2*e1, sigma)", 5, tensoralg, "deconcatenate"),
    ("braid(sigma, 3, 3, e1*e2*e1*e2*e1*e2)", 6, tensoralg, "beta_slots"),
]


@pytest.mark.parametrize("expr, degree, module, kernel", OVER_CAP,
                         ids=[e.split("(")[0] for e, *_ in OVER_CAP])
def test_compute_refuses_operands_over_cap_before_any_work(
        tmp_path, capsys, monkeypatch, expr, degree, module, kernel):
    path = basic_session(tmp_path)

    def refuse(*args):
        raise AssertionError("%s ran past the cap" % kernel)
    with monkeypatch.context() as m:
        m.setattr(module, kernel, refuse)
        assert main(["compute", path, expr, "--cap", "4"]) == 2
    assert capsys.readouterr().err == \
        "error: degree %d exceeds cap 4\n" % degree
    # the bound is the operands' degree sum itself
    assert main(["compute", path, expr, "--cap", str(degree)]) == 0


def test_compute_refuses_a_cancelled_top_degree_over_cap(tmp_path, capsys):
    # on q_11 = -1, e1 sh e1 = e1*e1 - e1*e1 = 0: the result has no degree,
    # but its operands' degrees sum to 2
    path = write_session(tmp_path, {"version": 1, "objects": [
        {"name": "s", "kind": "diagonal", "matrix": [["-1"]]}]})
    assert main(["compute", path, "shuffle(e1, e1)"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["compute", path, "shuffle(e1, e1)", "--cap", "1"]) == 2
    assert capsys.readouterr().err == "error: degree 2 exceeds cap 1\n"


@pytest.mark.parametrize("declaration, crossing", [
    ({"kind": "catalog", "address": "exterior:N=2"}, Scalar.q_power(-1)),
    ({"kind": "diagonal", "matrix": [["1", "q^2"], ["q", "-1"]]},
     Scalar.q_power(2)),
], ids=["exterior-2", "diagonal-2"])
def test_compute_shuffles_a_1500_letter_word(tmp_path, capsys, declaration,
                                             crossing):
    # e1 sh e2^n is the sum over k of c^k e2^k e1 e2^(n-k), where
    # sigma(e1 e2) = c e2 e1: no recursion as deep as the word, and seconds
    path = write_session(tmp_path, {"version": 1, "objects": [
        dict(name="s", **declaration)]})
    n = 1500
    start = time.perf_counter()
    assert main(["compute", path, "shuffle(e1, %s)" % "*".join(["e2"] * n),
                 "--cap", str(n + 1)]) == 0
    assert time.perf_counter() - start < 20
    expected, c = Element(), Scalar.one()
    for k in range(n + 1):
        expected.add_term(((1,) * k + (0,) + (1,) * (n - k), ()), c)
        c = c * crossing
    assert capsys.readouterr().out == \
        format_element(expected, Space(["e1", "e2"])) + "\n"


def run_alone(argv):
    """(exit code, stdout, stderr) of one request made in a fresh process,
    which imports ybalg from where these tests did."""
    root = str(Path(ybalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ybalg.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_main_subprocess(tmp_path):
    code, out, _ = run_alone(["compute", basic_session(tmp_path),
                              "coproduct(e1)"])
    assert code == 0
    assert out.strip() == "1|e1 + e1|1"


def test_main_is_reentrant(tmp_path, capsys, monkeypatch):
    # every call of one process prints what the same call prints alone:
    # no option of one call reaches the next, and a usage error leaves the
    # parser fit for the next call
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
    path = basic_session(tmp_path)
    calls = [
        ["compute", path, "shuffle(e1, e2*e1)", "--format", "json"],
        ["compute", path, "shuffle(e1, e2*e1)"],
        ["verify", path, "sigma", "--bound", "3", "--suite", "yb-algebra"],
        ["verify", path, "sigma"],
        ["verify", path, "sigma", "--suite", "nope"],
        ["compute", path, "coproduct(e1*e2)"],
    ]
    seen = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        seen.append((code,) + tuple(capsys.readouterr()))
    assert [s[0] for s in seen] == [0, 0, 0, 0, 2, 0]
    report = json.loads(seen[3][1])
    assert (report["bound"], report["suite"]) == (4, "all")
    assert seen[4][2].startswith("usage: ybalg verify ")
    for argv, got in zip(calls, seen):
        assert got == run_alone(argv), argv


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    path = basic_session(tmp_path)
    assert main(["compute", path, "shuffle(e1, e2)"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["compute", path, "shuffle(e1, e2)", "--format", "json"]) == 0
    assert main(["verify", path, "sigma", "--bound", "3"]) == 0
    assert built == []


SIGMA = {"name": "sigma", "kind": "catalog", "address": "exterior:N=2"}


def qb_map(in_word, out_word, kind="qb"):
    """A qb (or yb-base) declaration over exterior:N=2 whose one map sends
    in_word to out_word."""
    lin = [{"in": in_word, "out": [{"word": out_word, "coeff": "1"}]}]
    decl = {"name": "d", "kind": kind, "braiding": "sigma"}
    if kind == "qb":
        decl["data"] = {"M": [{"p": 1, "q": 1, "map": lin}], "degree_cap": 4}
    else:
        decl["mult"] = lin
    return {"version": 1, "objects": [SIGMA, decl]}


def yd_without(maker, key):
    """A yd declaration of maker(K[Z/2]) with one structure key left out."""
    data = yd_to_obj(maker(group_algebra_hopf(2)))
    del data[key]
    return {"version": 1, "objects": [{"name": "d", "kind": "yd",
                                       "data": data}]}


def edited(data, edit):
    """data after edit(data), which changes it in place."""
    edit(data)
    return data


def hopf_edited(edit):
    """A hopf declaration of K[Z/2] with edit applied to its data."""
    return {"version": 1, "objects": [{"name": "d", "kind": "hopf", "data":
                                       edited(hopf_to_obj(
                                           group_algebra_hopf(2)), edit)}]}


def trivial_yd(edit=lambda data: None):
    """A yd declaration of the trivial module over K[Z/2], one-dimensional
    unlike H (h.v = eps(h) v, v -> 1 (x) v), with edit applied to its data."""
    one = [{"word": [0], "coeff": "1"}]
    data = {"hopf": hopf_to_obj(group_algebra_hopf(2)), "basis": ["v"],
            "action": [{"in": [h, 0], "out": one} for h in (0, 1)],
            "coaction": [{"in": [0], "out": [{"word": [0, 0],
                                              "coeff": "1"}]}]}
    return {"version": 1, "objects": [{"name": "d", "kind": "yd",
                                       "data": edited(data, edit)}]}


def graded_qb(*maps):
    """A qb declaration on the diagonal braiding of weights (1, 2) with one
    M_11 entry per map, each a list of (in-word, out-words) columns; the
    map [E1E1] alone (e1 e1 = e2) is a valid tower."""
    graded = {"name": "graded", "kind": "diagonal",
              "matrix": [["q", "q^2"], ["q^2", "q^4"]]}
    return {"version": 1, "objects": [graded, {
        "name": "d", "kind": "qb", "braiding": "graded", "data": {
            "M": [{"p": 1, "q": 1, "map": [
                {"in": w, "out": [{"word": o, "coeff": "1"} for o in outs]}
                for w, outs in m]} for m in maps], "degree_cap": 4}}]}


E1E1 = ([0, 0], [[1]])


CATALOG_FILES = Path(__file__).resolve().parent / "catalog_files"


def catalog_address(address):
    """A catalog declaration of the given address."""
    return {"version": 1, "objects": [{"name": "d", "kind": "catalog",
                                       "address": address}]}


def test_cartan_catalog_builds_a_braiding(tmp_path, capsys):
    cart = tmp_path / "a2.json"
    cart.write_text(json.dumps({"A": [[2, -1], [-1, 2]], "d": [1, 1]}))
    path = write_session(tmp_path, catalog_address("cartan:file=%s" % cart))
    assert main(["verify", path, "d", "--bound", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert main(["compute", path, "shuffle(e1, e2, d)"]) == 0
    assert capsys.readouterr().out.strip() == "e1*e2 + q^-1 e2*e1"


# (id, session, field named in the error) for declarations that are
# malformed only in a word, a repeated entry or a catalog parameter
MALFORMED_FIELDS = [
    ("hopf-antipode-out-letter-past-dim", hopf_edited(
        lambda h: h["antipode"][0]["out"][0].update(word=[7])),
     "data.antipode"),
    ("hopf-mult-in-word-wrong-degree", hopf_edited(
        lambda h: h["mult"][0].update({"in": [0, 0, 1]})), "data.mult"),
    ("hopf-counit-out-word-wrong-degree", hopf_edited(
        lambda h: h["counit"][0]["out"][0].update(word=[0])),
     "data.counit"),
    ("hopf-unit-letter-past-dim", hopf_edited(
        lambda h: h["unit"][0].update(word=[2])), "data.unit"),
    ("hopf-comult-in-word-repeated", hopf_edited(
        lambda h: h["comult"].append(h["comult"][0])), "data.comult"),
    ("yd-action-v-letter-past-v", trivial_yd(
        lambda d: d["action"].append({"in": [0, 1], "out": []})),
     "data.action"),
    ("yd-coaction-h-letter-past-h", trivial_yd(
        lambda d: d["coaction"][0]["out"][0].update(word=[2, 0])),
     "data.coaction"),
    ("yd-coaction-v-letter-past-v", trivial_yd(
        lambda d: d["coaction"][0]["out"][0].update(word=[1, 1])),
     "data.coaction"),
    ("yd-hopf-antipode-out-letter-past-dim", trivial_yd(
        lambda d: d["hopf"]["antipode"][1]["out"][0].update(word=[7])),
     "data.hopf.antipode"),
    ("qb-block-repeated", graded_qb([E1E1], []), "data"),
    ("qb-in-word-repeated", graded_qb([E1E1, ([0, 0], [])]), "data"),
    ("qb-out-word-leaves-v", qb_map([0, 1], [1, 1]), "data"),
    ("yb-base-in-word-repeated", edited(
        qb_map([0, 0], [1], "yb-base"),
        lambda s: s["objects"][1]["mult"].append(
            {"in": [0, 0], "out": []})), "mult"),
    ("yb-base-out-word-leaves-v", qb_map([0, 0], [1, 1], "yb-base"), "mult"),
    ("yb-base-braiding-undeclared", {"version": 1, "objects": [
        {"name": "d", "kind": "yb-base", "braiding": "nope", "mult": []}]},
     "braiding"),
] + [
    ("catalog-" + address, catalog_address(address), "address")
    for address in ("exterior", "qflip:n=2", "groupalgebra:N=2",
                    "exterior:N=x", "cartan", "diagonal")] + [
    # a catalog file whose JSON has not its kind's form, or that is not JSON
    ("catalog-file-" + name, catalog_address("%s:file=%s" % (
        name.split("-")[0], CATALOG_FILES / (name + ".json"))), "address")
    for name in ("diagonal-number", "diagonal-int-entry", "cartan-list",
                 "cartan-int-a", "diagonal-not-json")]


def test_well_formed_fixtures_load(tmp_path):
    session = load_session(write_session(tmp_path, trivial_yd()))
    assert hopf.yd_validate(session.get("d")).ok
    path = write_session(tmp_path, graded_qb([E1E1]))
    assert main(["verify", path, "d", "--suite", "qb-infinity"]) == 0


@pytest.mark.parametrize("data, field",
                         [case[1:] for case in MALFORMED_FIELDS],
                         ids=[case[0] for case in MALFORMED_FIELDS])
def test_malformed_declaration_names_field(tmp_path, capsys, data, field):
    assert main(["verify", write_session(tmp_path, data), "d"]) == 2
    assert capsys.readouterr().err.startswith("error: %s of 'd' " % field)


@pytest.mark.parametrize("data", [
    [{"version": 1}],
    {"version": 1, "objects": "x"},
    {"version": 1, "objects": [
        {"name": "d", "kind": "diagonal", "matrix": [[1, 2], [3, 4]]}]},
    {"version": 1, "degree_cap": "6", "objects": []},
    {"version": 1, "objects": [
        {"name": "d", "kind": "diagonal", "matrix": [["1/0"]]}]},
    {"version": 1, "objects": [
        {"name": "d", "kind": "catalog",
         "address": "diagonal:file=no-such-dir/matrix.json"}]},
    {"version": 1, "objects": [SIGMA, {"name": "d", "kind": "quasishuffle",
                                       "base": "sigma"}]},
    {"version": 1, "objects": [
        {"name": "H", "kind": "catalog", "address": "groupalgebra:n=2"},
        {"name": "d", "kind": "yb-base", "braiding": "H", "mult": []}]},
    {"version": 1, "objects": [
        {"name": "W", "kind": "catalog", "address": "qflip:N=2"},
        {"name": "d", "kind": "qb", "braiding": "W",
         "data": {"M": [], "degree_cap": 4}}]},
    {"version": 1, "objects": [{"name": "d", "kind": "hopf", "data": "x"}]},
    {"version": 1, "objects": [{"name": "d", "kind": "yd", "data": [1]}]},
    {"version": 1, "objects": [SIGMA, {"name": "d", "kind": "qb",
                                       "braiding": "sigma", "data": []}]},
    {"version": 1, "objects": [SIGMA, {"name": "d", "kind": "yb-base",
                                       "braiding": "sigma", "mult": "x"}]},
    {"version": 1, "objects": [SIGMA, {
        "name": "d", "kind": "qb", "braiding": "sigma",
        "data": {"M": [], "degree_cap": "4"}}]},
    {"version": 1, "objects": [
        SIGMA, {"name": "base", "kind": "yb-base", "braiding": "sigma",
                "mult": []},
        {"name": "d", "kind": "quasishuffle", "base": "base",
         "degree_cap": "4"}]},
    {"version": 1, "objects": [{"name": "d", "kind": "catalog",
                                "address": 3}]},
    {"version": 1, "objects": [{"name": ["a"], "kind": "catalog",
                                "address": "exterior:N=2"}]},
    yd_without(yd_adjoint, "unit"),
    yd_without(yd_adjoint, "mult"),
    yd_without(yd_regular, "counit"),
    yd_without(yd_regular, "comult"),
    qb_map([0, 1], [7]),
    qb_map([0, 1, 1], [0]),
    qb_map([0, -1], [0]),
    qb_map([0], [1], "yb-base"),
    qb_map([0, 1], [2], "yb-base"),
] + [case[1] for case in MALFORMED_FIELDS], ids=[
        "top-level-list", "objects-not-a-list", "matrix-not-strings",
        "cap-not-an-integer", "matrix-divides-by-zero",
        "catalog-file-missing", "quasishuffle-base-is-a-braiding",
        "yb-base-braiding-is-a-hopf-algebra", "qb-braiding-is-qflip",
        "hopf-data-not-an-object", "yd-data-not-an-object",
        "qb-data-empty-list", "yb-base-mult-not-a-map", "qb-cap-a-string",
        "quasishuffle-cap-a-string", "catalog-address-not-a-string",
        "name-not-a-string", "yd-mult-without-unit", "yd-unit-without-mult",
        "yd-comult-without-counit", "yd-counit-without-comult",
        "qb-out-letter-past-dim", "qb-in-word-wrong-degree",
        "qb-negative-letter", "yb-base-in-word-wrong-degree",
        "yb-base-out-letter-past-dim"]
    + [case[0] for case in MALFORMED_FIELDS])
def test_main_malformed_session_exits_2(tmp_path, capsys, data):
    path = write_session(tmp_path, data)
    with pytest.raises(ParseError):
        load_session(path)
    assert main(["verify", path, "d"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_qb_component_leaving_v_exits_2(tmp_path, capsys):
    path = write_session(tmp_path, qb_map([0, 1], [1, 1]))
    with pytest.raises(ParseError):
        load_session(path)
    assert main(["verify", path, "d"]) == 2
    assert "the out-word [1, 1], not of degree 1" in capsys.readouterr().err


def test_yb_base_product_leaving_v_exits_2(tmp_path, capsys):
    # the plain flip on one letter passes the compatibility rows for any
    # product, so only the reader's degree check refuses e1 e1 = e1 (x) e1
    data = {"version": 1, "objects": [
        {"name": "s", "kind": "diagonal", "matrix": [["1"]]},
        {"name": "d", "kind": "yb-base", "braiding": "s",
         "mult": [{"in": [0, 0], "out": [{"word": [0, 0], "coeff": "1"}]}]}]}
    path = write_session(tmp_path, data)
    with pytest.raises(ParseError):
        load_session(path)
    assert main(["compute", path, "quasishuffle(e1, e1)"]) == 2
    assert "the out-word [0, 0], not of degree 1" in capsys.readouterr().err


def graded_braiding():
    """The braiding of graded_qb's sessions."""
    return diagonal_braiding([[parse_scalar(c) for c in row]
                              for row in (["q", "q^2"], ["q^2", "q^4"])])


V2 = Space(["e1", "e2"])

# (id, a reader called on malformed data, the path of its FormatError)
READER_REFUSALS = [
    ("hopf-antipode-out-letter-past-dim", lambda: hopf.hopf_from_obj(
        hopf_edited(lambda h: h["antipode"][0]["out"][0].update(word=[7]))
        ["objects"][0]["data"]), "antipode"),
    ("yd-hopf-antipode-out-letter-past-dim", lambda: hopf.yd_from_obj(
        trivial_yd(lambda d: d["hopf"]["antipode"][1]["out"][0].update(
            word=[7]))["objects"][0]["data"]), "hopf.antipode"),
    ("yd-mult-without-unit", lambda: hopf.yd_from_obj(
        yd_without(yd_adjoint, "unit")["objects"][0]["data"]), ""),
    ("qb-block-repeated", lambda: qb_from_obj(
        graded_qb([E1E1], [])["objects"][1]["data"], graded_braiding()), ""),
    ("qb-in-word-repeated", lambda: qb_from_obj(
        graded_qb([E1E1, ([0, 0], [])])["objects"][1]["data"],
        graded_braiding()), ""),
    ("linmap-in-word-off-legs", lambda: linmap_from_obj(
        [{"in": [0, 2], "out": []}], [V2, V2], V2), ""),
]


@pytest.mark.parametrize("read, path",
                         [case[1:] for case in READER_REFUSALS],
                         ids=[case[0] for case in READER_REFUSALS])
def test_reader_refuses_malformed_data(read, path):
    with pytest.raises(FormatError) as exc:
        read()
    assert exc.value.path == path
    assert str(exc.value) == " ".join(filter(None, (path,
                                                    exc.value.problem)))


@pytest.mark.parametrize("bound", [0, 2])
def test_main_verify_bound_checking_nothing_exits_2(tmp_path, capsys, bound):
    path = basic_session(tmp_path)
    for target, suite in (("M", "qb-infinity"), ("sigma", "all")):
        assert main(["verify", path, target, "--suite", suite,
                     "--bound", str(bound)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--bound" in err


def test_yd_structure_keys_named_together(tmp_path, capsys):
    path = write_session(tmp_path, yd_without(yd_adjoint, "unit"))
    assert main(["verify", path, "d"]) == 2
    err = capsys.readouterr().err
    assert "mult" in err and "unit" in err


@pytest.mark.parametrize("expr", ["shuffle(1/0 e1, e2)",
                                  "shuffle(1/(q-q) e1, e2)"])
def test_main_compute_divides_by_zero_exits_2(tmp_path, capsys, expr):
    assert main(["compute", basic_session(tmp_path), expr]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# a coefficient and a JSON value nested deeper than a parser can recurse
NESTED_SCALAR = "(" * 3000 + "q" + ")" * 3000
NESTED_JSON = "[" * 100000 + "]" * 100000


def write_text(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (lambda tmp: ["compute", basic_session(tmp),
                  "shuffle(%s e1, e2)" % NESTED_SCALAR],
     "is nested too deeply"),
    (lambda tmp: ["verify", write_session(tmp, {"version": 1, "objects": [
        {"name": "d", "kind": "diagonal", "matrix": [[NESTED_SCALAR]]}]}),
        "d"], "is nested too deeply"),
    (lambda tmp: ["verify", write_text(
        tmp / "session.json",
        '{"version": 1, "objects": %s}' % NESTED_JSON), "d"],
     "is nested too deeply"),
    (lambda tmp: ["verify", write_session(tmp, catalog_address(
        "diagonal:file=%s" % write_text(tmp / "deep.json", NESTED_JSON))),
        "d"], "reads a file that is not"),
], ids=["compute-coefficient", "diagonal-entry", "session-objects",
        "catalog-file"])
def test_main_deeply_nested_input_exits_2(tmp_path, capsys, argv, message):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    lambda tmp: ["compute", basic_session(tmp), "shuffle((q+1)^1000 e1, e2)"],
    lambda tmp: ["verify", write_session(tmp, {"version": 1, "objects": [
        {"name": "d", "kind": "diagonal", "matrix": [["(2q)^300"]]}]}),
        "d"],
    lambda tmp: ["compute", basic_session(tmp),
                 "shuffle((q^100000+1) e1, e2)"],
    lambda tmp: ["verify", write_session(tmp, {"version": 1, "objects": [
        {"name": "d", "kind": "diagonal", "matrix": [["q^100000+1"]]}]}),
        "d"],
], ids=["compute-coefficient", "diagonal-entry", "span-compute-coefficient",
        "span-diagonal-entry"])
def test_main_power_past_the_limit_exits_2(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "past the limit" in err


def test_main_unreadable_session_exits_2(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"version": 1, "objects": [\xff]}')
    for path in (str(tmp_path / "missing.json"), str(binary)):
        with pytest.raises(ParseError):
            load_session(path)
        assert main(["verify", path, "sigma"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_main_verify_bound_above_tower_cap_exits_2(tmp_path, capsys):
    data = {"version": 1, "objects": [
        {"name": "sigma", "kind": "catalog", "address": "exterior:N=2"},
        {"name": "base", "kind": "yb-base", "braiding": "sigma",
         "mult": linmap_to_obj(LinMap(2))},
        {"name": "M", "kind": "quasishuffle", "base": "base",
         "degree_cap": 5},
    ]}
    path = write_session(tmp_path, data)
    assert main(["verify", path, "M", "--suite", "qb-infinity",
                 "--bound", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "degree cap 5" in err


def test_main_verify_bound_above_session_cap_exits_2(tmp_path, capsys,
                                                    monkeypatch):
    # a braiding's rows grow as dim^bound, so its bound is capped by the
    # session before any triple is built; the signed flip shares its suites
    data = {"version": 1, "degree_cap": 3, "objects": [
        SIGMA,
        {"name": "W", "kind": "catalog", "address": "qflip:N=2"},
        {"name": "H", "kind": "catalog", "address": "groupalgebra:n=2"},
        {"name": "base", "kind": "yb-base", "braiding": "sigma",
         "mult": []},
        {"name": "M", "kind": "quasishuffle", "base": "base",
         "degree_cap": 4},
    ]}
    path = write_session(tmp_path, data)

    def refuse(bound):
        raise AssertionError("triples built for bound %d" % bound)
    for target in ("sigma", "W"):
        with monkeypatch.context() as m:
            m.setattr(tensoralg, "triples", refuse)
            assert main(["verify", path, target, "--bound", "4"]) == 2
        assert capsys.readouterr().err == \
            "error: --bound 4 exceeds the session's degree cap 3\n"
        assert main(["verify", path, target, "--bound", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["bound"] == 3
    # a Hopf algebra takes no bound, and a tower keeps its own cap
    assert main(["verify", path, "H", "--bound", "4"]) == 0
    assert main(["verify", path, "M", "--bound", "4"]) == 0


# a braiding's suites at bound 4 on dim 2: the triples of degree 3 and 4
# hold 8 + 3 * 16 = 56 cases for each row, two product rows and one
# coproduct row
SUITE_CASES = {"all": 168, "yb-algebra": 112, "yb-coalgebra": 56}


@pytest.mark.parametrize("suite", sorted(SUITE_CASES))
def test_verify_counts_its_cases_against_the_budget(tmp_path, capsys,
                                                     monkeypatch, suite):
    path = write_session(tmp_path, {"version": 1, "objects": [SIGMA]})
    argv = ["verify", path, "sigma", "--suite", suite, "--bound", "4"]
    cases = SUITE_CASES[suite]
    # the count is the number of cases the rows' batches then hold
    ran = []
    check = Report.check
    session = load_session(path)
    with monkeypatch.context() as m:
        m.setattr(Report, "check", lambda self, identity, batch, *tag: check(
            self, identity, ran.append(batch) or batch, *tag))
        assert cmd_verify(session, "sigma", suite, 4)[0] == 0
    assert sum(map(len, ran)) == cases
    # a count at the budget runs, one above it is refused
    monkeypatch.setattr(cli, "CASE_BUDGET", cases)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "CASE_BUDGET", cases - 1)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: --bound 4 needs more than the budget of %d row cases: "
        "%d by degree 4\n" % (cases - 1, cases))


def test_verify_over_the_case_budget_exits_2_before_any_row(tmp_path, capsys,
                                                            monkeypatch):
    # the session's cap allows bound 40, whose rows would run some 10^15
    # cases on dim 2: the count passes the budget at degree 10
    path = write_session(tmp_path, {"version": 1, "degree_cap": 40,
                                    "objects": [SIGMA]})

    def refuse(bound):
        raise AssertionError("triples built for bound %d" % bound)
    monkeypatch.setattr(tensoralg, "triples", refuse)
    start = time.perf_counter()
    assert main(["verify", path, "sigma", "--bound", "40"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: --bound 40 needs more than the budget of %d row cases: "
        "178152 by degree 10\n" % cli.CASE_BUDGET)
    assert cli.CASE_BUDGET == 100000


# the quasi-shuffle tower of the dim-2 base e1 e1 = e2 with weights (1, 2),
# whose one interior component is M_11; at bound 4 its rows hold 3 * 8 +
# 4 + 4 cases at degree 3 and (2 * 16 + 4 + 8) + (16 + 8 + 8) + (2 * 16 +
# 8 + 4) at degree 4, yb-left and yb-right running only at M_11
TOWER = [{"name": "sigma", "kind": "diagonal",
          "matrix": [["q", "q^2"], ["q^2", "q^4"]]},
         {"name": "base", "kind": "yb-base", "braiding": "sigma",
          "mult": [{"in": [0, 0], "out": [{"word": [1], "coeff": "1"}]}]},
         {"name": "M", "kind": "quasishuffle", "base": "base",
          "degree_cap": 40}]
TOWER_CASES = 32 + 120


def test_tower_verify_counts_its_cases_against_the_budget(tmp_path, capsys,
                                                          monkeypatch):
    path = write_session(tmp_path, {"version": 1, "objects": TOWER})
    argv = ["verify", path, "M", "--suite", "qb-infinity", "--bound", "4"]
    # the count is the number of cases the rows' batches then hold
    ran = []
    check = Report.check
    session = load_session(path)
    with monkeypatch.context() as m:
        m.setattr(Report, "check", lambda self, identity, batch, *tag: check(
            self, identity, ran.append(batch) or batch, *tag))
        assert cmd_verify(session, "M", "qb-infinity", 4)[0] == 0
    assert sum(map(len, ran)) == TOWER_CASES
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(cli, "CASE_BUDGET", TOWER_CASES)
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    monkeypatch.setattr(cli, "CASE_BUDGET", TOWER_CASES - 1)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: --bound 4 needs more than the budget of %d row cases: "
        "%d by degree 4\n" % (TOWER_CASES - 1, TOWER_CASES))


def test_tower_verify_over_the_case_budget_exits_2_before_any_row(
        tmp_path, capsys, monkeypatch):
    # the tower's cap allows bound 40; without a budget this request ran
    # past 10 s with no output
    path = write_session(tmp_path, {"version": 1, "objects": TOWER})

    def refuse(M, bound):
        raise AssertionError("qb_validate ran to bound %d" % bound)
    monkeypatch.setattr(binfty, "qb_validate", refuse)
    start = time.perf_counter()
    assert main(["verify", path, "M", "--suite", "qb-infinity",
                 "--bound", "40"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: --bound 40 needs more than the budget of "
                          "100000 row cases: ")


# a dim-2 diagonal braiding and the deformed flip; each suite's rows at
# bound 4 need 20 distinct split shuffles (4 of degrees (1, 1), 8 each of
# (1, 2) and (2, 1)) and 20 distinct unshuffle components (4 of (1, 1), 8
# each of (1, 2) and (2, 1)), where its triples ask for 44 and 24
REUSE_BRAIDINGS = {
    "diagonal": {"kind": "diagonal", "matrix": [["q", "-q^2"],
                                                ["q^-1", "-1"]]},
    "exterior": {"kind": "catalog", "address": "exterior:N=2"}}


@pytest.mark.parametrize("name", sorted(REUSE_BRAIDINGS))
def test_verify_computes_each_shuffle_and_unshuffle_component_once(
        tmp_path, monkeypatch, name):
    path = write_session(tmp_path, {"version": 1, "objects": [
        dict(REUSE_BRAIDINGS[name], name="s")]})
    session = load_session(path)
    b = session.get("s")
    attributes = set(vars(b))
    shuffles, components = [], []
    shuffle, component = (tensoralg.qshuffle_product,
                          tensoralg._unshuffle_component)
    monkeypatch.setattr(tensoralg, "qshuffle_product", lambda x, y, br: (
        shuffles.append((tuple(x.terms), tuple(y.terms)))
        or shuffle(x, y, br)))
    monkeypatch.setattr(tensoralg, "_unshuffle_component",
                        lambda br, letters, p: components.append(
                            (letters, p)) or component(br, letters, p))
    # a second report on the same braiding computes them all again: the
    # memos live for one report and are kept on no object
    for _ in range(2):
        assert cmd_verify(session, "s", "all", 4)[0] == 0
        assert len(shuffles) == len(set(shuffles)) == 20
        assert len(components) == len(set(components)) == 20
        shuffles.clear()
        components.clear()
    assert set(vars(b)) == attributes


def test_compute_braid_of_long_blocks_needs_no_recursion(tmp_path, capsys):
    # beta_{i1} and beta_{1j} with i, j past the interpreter's recursion
    # limit: each hexagon step is one turn of a loop
    n = sys.getrecursionlimit() + 10
    path = write_session(tmp_path, {"version": 1, "objects": [
        {"name": "s", "kind": "diagonal", "matrix": [["-1", "q"],
                                                     ["q", "-1"]]}]})
    word = "*".join(["e1"] * n)
    for i, j, out in ((n, 1, "q^%d e2*%s" % (n, word)),
                      (1, n, "q^%d %s*e2" % (n, word))):
        operand = "e2*" + word if i == 1 else word + "*e2"
        assert main(["compute", path, "braid(s, %d, %d, %s)" % (i, j, operand),
                     "--cap", str(n + 1)]) == 0
        assert capsys.readouterr().out == out + "\n"


GOLDEN = Path(__file__).with_name("verify_reports_golden.json")

# (case, target, suite, bound) for test_verify_reports_golden
GOLDEN_CASES = [
    ("exterior", "sigma", "all", 3),
    ("diagonal-rational", "rational", "all", 3),
    ("quasishuffle-tower", "M", "qb-infinity", 4),
    ("failing-tower", "bad", "qb-infinity", 4),
    ("hopf", "H", "hopf", 4),
    ("yd", "Y", "yd", 4),
    ("qflip", "W", "all", 4),
]


def golden_session(tmp_path):
    """One session holding every target of the golden verify reports."""
    sigma = exterior_braiding(2)
    bad = QBStructure(sigma, {(1, 1): LinMap(
        2, {(0, 0): Element.basis((1,))})}, degree_cap=4)
    data = {"version": 1, "objects": [
        {"name": "sigma", "kind": "catalog", "address": "exterior:N=2"},
        {"name": "rational", "kind": "diagonal",
         "matrix": [["(q+1)/(q-1)", "q/(q^2+2)"],
                    ["-3/(2q+1)", "(1-q^2)/(q^3+q+1)"]]},
        {"name": "graded", "kind": "diagonal",
         "matrix": [["q", "q^2"], ["q^2", "q^4"]]},
        {"name": "base", "kind": "yb-base", "braiding": "graded",
         "mult": linmap_to_obj(LinMap(2, {(0, 0): Element.basis((1,))}))},
        {"name": "M", "kind": "quasishuffle", "base": "base",
         "degree_cap": 4},
        {"name": "bad", "kind": "qb", "braiding": "sigma",
         "data": qb_to_obj(bad)},
        {"name": "H", "kind": "catalog", "address": "groupalgebra:n=2"},
        {"name": "Y", "kind": "yd",
         "data": yd_to_obj(yd_adjoint(group_algebra_hopf(2)))},
        {"name": "W", "kind": "catalog", "address": "qflip:N=2"},
    ]}
    return write_session(tmp_path, data)


def test_verify_reports_golden(tmp_path, capsys):
    # verify_reports_golden.json holds {case: {"code", "report"}}; stdout
    # must match the canonical dump of each stored report byte for byte
    expected = json.loads(GOLDEN.read_text())
    path = golden_session(tmp_path)
    assert sorted(expected) == sorted(c[0] for c in GOLDEN_CASES)
    for case, target, suite, bound in GOLDEN_CASES:
        code = main(["verify", path, target, "--suite", suite,
                     "--bound", str(bound)])
        out = capsys.readouterr().out
        want = expected[case]
        assert code == want["code"], case
        assert out == json.dumps(want["report"], sort_keys=True,
                                 indent=2) + "\n", case
