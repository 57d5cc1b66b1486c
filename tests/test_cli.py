"""Session loading, verification suites, and the expression evaluator."""

import json
import subprocess
import sys

import pytest

from ybalg.binfty import QBStructure, YBBase, qb_to_obj
from ybalg.braid import Braiding
from ybalg.catalog import exterior_braiding
from ybalg.cli import (ParseError, SuiteMismatch, UnknownTarget,
                       ValidationError, cmd_compute, cmd_verify,
                       compute_expression, format_element, load_session,
                       main, _parse_element)
from ybalg.linear import Element, LinMap, element_from_obj, linmap_to_obj
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


def test_compute_parse_and_target_errors(tmp_path):
    session = load_session(basic_session(tmp_path))
    with pytest.raises(ParseError):
        compute_expression(session, "frobnicate(e1)")
    with pytest.raises(UnknownTarget):
        compute_expression(session, "star(missing, e1, e2)")
    with pytest.raises(SuiteMismatch):
        compute_expression(session, "star(sigma, e1, e2)")


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
    err = capsys.readouterr().err
    assert "error:" in err


def test_main_subprocess(tmp_path):
    path = basic_session(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "ybalg.cli", "compute", path,
         "coproduct(e1)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1|e1 + e1|1"


@pytest.mark.parametrize("data", [
    [{"version": 1}],
    {"version": 1, "objects": "x"},
    {"version": 1, "objects": [
        {"name": "d", "kind": "diagonal", "matrix": [[1, 2], [3, 4]]}]},
    {"version": 1, "degree_cap": "6", "objects": []},
], ids=["top-level-list", "objects-not-a-list", "matrix-not-strings",
        "cap-not-an-integer"])
def test_main_malformed_session_exits_2(tmp_path, capsys, data):
    path = write_session(tmp_path, data)
    with pytest.raises(ParseError):
        load_session(path)
    assert main(["verify", path, "d"]) == 2
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
