"""Report.check decides each identity on all its cases at once; these tests
hold it to a case-by-case reference that never tags or batches a case."""

import json

import pytest
from hypothesis import given, settings

from conftest import diagonal_braidings
from ybalg import cli, tensoralg
from ybalg.catalog import exterior_braiding
from ybalg.linear import Element, LinMap, Report, Space, _leg_rows
from ybalg.scalars import Scalar


def reference_check(self, identity, cases, tag=None):
    """Report.check as a scan: each case on its own basis element, in
    order, up to the first whose sides differ."""
    for name, key, lhs, rhs in cases:
        x = Element({key: Scalar.one()})
        left, right = lhs(x), rhs(x)
        if left != right:
            self.record(identity, False, (name, left, right))
            return
    self.record(identity, True)


def both(monkeypatch, run):
    """The entries run() returns by the kernel, then by the reference."""
    batched = run()
    with monkeypatch.context() as m:
        m.setattr(Report, "check", reference_check)
        scanned = run()
    return batched, scanned


@settings(max_examples=10, deadline=None, derandomize=True)
@given(diagonal_braidings())
def test_braiding_rows_match_the_reference_on_generated_braidings(b):
    with pytest.MonkeyPatch.context() as monkeypatch:
        batched, scanned = both(
            monkeypatch, lambda: cli._braiding_report(b, "all", 4).entries)
    assert batched == scanned and all(e["ok"] for e in batched)


SESSION = {"version": 1, "objects": [
    {"name": "sigma", "kind": "catalog", "address": "exterior:N=2"},
    {"name": "W", "kind": "catalog", "address": "qflip:N=2"}]}


@pytest.mark.parametrize("target", ["sigma", "W"])
def test_catalog_reports_match_the_reference(tmp_path, monkeypatch, target):
    # the session is built under each, so its braiding checks are compared
    path = tmp_path / "session.json"
    path.write_text(json.dumps(SESSION))
    batched, scanned = both(monkeypatch, lambda: cli.cmd_verify(
        cli.load_session(str(path)), target, "all", 4)[1]["entries"])
    assert batched == scanned and all(e["ok"] for e in batched)


def test_a_scaled_beta_image_fails_with_the_reference_witness(monkeypatch):
    q = Scalar.q_power(1)

    def planted():
        # beta_{11} on e1 | e2 scaled by q, before any longer image uses it
        b = exterior_braiding(2)
        key = ((0, 1), (1,))
        b._beta_slot_cache[key] = tensoralg.beta_slots(b)(key).scale(q)
        return cli._braiding_report(b, "all", 4).entries
    batched, scanned = both(monkeypatch, planted)
    assert batched == scanned
    assert [e["identity"] for e in batched if not e["ok"]]
    assert all(e["witness"] is not None for e in batched if not e["ok"])


def test_a_dropped_shuffle_term_fails_with_the_reference_witness(monkeypatch):
    shuffle = tensoralg.qshuffle_product

    def dropped(x, y, b):
        # e1 sh e2 loses the term of its first word
        out = shuffle(x, y, b)
        if set(x.terms) == {((0,), ())} and set(y.terms) == {((1,), ())}:
            out = Element(dict(out.terms))
            del out.terms[min(out.terms)]
        return out
    monkeypatch.setattr(tensoralg, "qshuffle_product", dropped)
    batched, scanned = both(
        monkeypatch, lambda: cli._braiding_report(exterior_braiding(2),
                                                  "all", 4).entries)
    assert batched == scanned
    failed = [e for e in batched if not e["ok"]]
    assert failed and all(e["identity"].startswith("shuffle-product")
                          for e in failed)


# errors of +d on e1 and -d on e2, d = e1: an untagged sum over the cases
# cancels them, the kernel must not
E1, E2 = Element.basis((0,)), Element.basis((1,))
SPACE = Space(["e1", "e2"])


def test_opposite_errors_on_two_leg_cases_do_not_cancel():
    f = LinMap.identity(SPACE, 1)
    g = LinMap(1, {(0,): E1 + E1, (1,): E2 - E1})
    assert f.apply(E1 + E2) == g.apply(E1 + E2)
    report = _leg_rows(Report(), [SPACE], [("f = g", [(f, 0)], [(g, 0)])])
    assert report.entries == [{"identity": "f = g", "ok": False,
                               "witness": ((0,), E1, E1 + E1)}]


def test_opposite_errors_on_two_slot_cases_do_not_cancel():
    def f(key):
        return Element.basis(*key)

    def g(key):
        return f(key).add_scaled(E1, Scalar.from_int(1 if key[0] == (0,)
                                                     else -1))
    report = tensoralg._slot_rows(Report(), SPACE, (1, 1), tuple, [
        ("f = g", [(f, 1, 1)], [(g, 1, 1)])])
    # the first case whose second slot is e1: e1 | e1
    assert report.entries == [{"identity": "f = g", "ok": False, "witness": (
        ((0,), (0,)), Element.basis((0, 0), (1,)),
        Element.basis((0, 0), (1,), Scalar.from_int(2)))}]


def test_a_side_that_mixes_its_cases_is_refused():
    # a side that keeps cases apart gives the batch and the scan the same
    # answer; one that reads the whole batch is caught, not trusted
    def lone(x):
        return x if len(x.terms) == 1 else Element()

    def same(x):
        return x
    with pytest.raises(AssertionError, match="on none alone"):
        Report().check("lone", [(w, (w, ()), lone, same)
                                for w in ((0,), (1,))])
