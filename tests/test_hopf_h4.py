"""The Hopf-layer constructions on Sweedler's four-dimensional algebra H4.

H4 is neither commutative nor cocommutative, so these outputs pin the leg
order of every Sweedler sum.  hopf_h4_golden.json holds {case: output};
regenerate it with `PYTHONPATH=src python3 tests/test_hopf_h4.py` only when
an output is meant to change.
"""

import json
from pathlib import Path

import pytest

from conftest import sweedler_h4, sweedler_r
from ybalg.hopf import (HopfPresentation, RMatrix, hopf_validate, rmatrix_yd,
                        smash_structures, woronowicz_braiding, yd_adjoint,
                        yd_braiding, yd_regular, yd_validate)
from ybalg.linear import Element, LinMap, element_to_obj
from ybalg.scalars import Scalar

GOLDEN = Path(__file__).with_name("hopf_h4_golden.json")

T_VALUES = (("0", Scalar.zero()), ("1", Scalar.one()),
            ("q", Scalar.q_power(1)))


def _obj(w):
    """JSON form of a report witness: words become lists, Elements their
    canonical term lists."""
    if isinstance(w, Element):
        return element_to_obj(w)
    if isinstance(w, tuple):
        return [_obj(p) for p in w]
    return w


def report_obj(report):
    return [[e["identity"], e["ok"], _obj(e["witness"])]
            for e in report.entries]


def map_obj(f, space):
    """The nonzero columns of f over every basis word of its degree."""
    return [[list(w), element_to_obj(f.apply_word(w))]
            for w in space.words(f.in_degree)
            if not f.apply_word(w).is_zero()]


def corrupted_h4():
    # Delta x replaced by the co-opposite x (x) g + 1 (x) x
    h = sweedler_h4()
    cols = dict(h.comult.columns)
    cols[(2,)] = Element.basis((2, 1)) + Element.basis((0, 2))
    return HopfPresentation(h.space, h.mult, h.unit, LinMap(1, cols),
                            h.counit, h.antipode)


def module_obj(m):
    """Action, coaction, yd_validate entries and, when the core axioms
    hold, the induced braiding."""
    h = m.hopf
    action = [[list(hw + vw), element_to_obj(m.action.apply_word(hw + vw))]
              for hw in h.space.words(1) for vw in m.space.words(1)
              if not m.action.apply_word(hw + vw).is_zero()]
    report = yd_validate(m)
    out = {"action": action,
           "coaction": map_obj(m.coaction, m.space),
           "yd_validate": report_obj(report)}
    if all(e["ok"] for e in report.entries
           if e["identity"] in ("module", "comodule", "yd-compat")):
        out["yd_braiding"] = map_obj(yd_braiding(m).fwd, m.space)
    return out


def _woronowicz(which):
    h = sweedler_h4()
    b = woronowicz_braiding(h, which)
    return {"fwd": map_obj(b.fwd, h.space), "inv": map_obj(b.inv, h.space)}


def _rmatrices():
    h = sweedler_h4()
    return {t: element_to_obj(RMatrix.from_element(h, sweedler_r(s)).R_inv)
            for t, s in T_VALUES}


def _rmatrix_yd(algebra):
    h = sweedler_h4()
    out = {}
    for t, s in T_VALUES:
        r = RMatrix.from_element(h, sweedler_r(s))
        m = rmatrix_yd(r, h.space, h.mult,
                       algebra_on_V=(h.mult, h.unit) if algebra else None)
        out[t] = module_obj(m)
    return out


def _smash_adjoint():
    h = sweedler_h4()
    s = smash_structures(yd_adjoint(h), yd_adjoint(h))
    return {"product": map_obj(s.product, s.space),
            "unit": element_to_obj(s.unit),
            "braiding": map_obj(s.braiding.fwd, s.space)}


def _smash_regular():
    h = sweedler_h4()
    s = smash_structures(yd_regular(h), yd_regular(h))
    return {"coproduct": map_obj(s.coproduct, s.space),
            "counit": map_obj(s.counit, s.space),
            "braiding": map_obj(s.braiding.fwd, s.space)}


CASES = {
    "hopf_validate": lambda: report_obj(hopf_validate(sweedler_h4())),
    "hopf_validate-corrupted": lambda: report_obj(
        hopf_validate(corrupted_h4())),
    "woronowicz-T": lambda: _woronowicz("T"),
    "woronowicz-T'": lambda: _woronowicz("T'"),
    "woronowicz-F": lambda: _woronowicz("F"),
    "woronowicz-F'": lambda: _woronowicz("F'"),
    "yd_adjoint": lambda: module_obj(yd_adjoint(sweedler_h4())),
    "yd_regular": lambda: module_obj(yd_regular(sweedler_h4())),
    "rmatrix-inverse": _rmatrices,
    "rmatrix_yd-left": lambda: _rmatrix_yd(False),
    "rmatrix_yd-left-algebra": lambda: _rmatrix_yd(True),
    "smash-adjoint": _smash_adjoint,
    "smash-regular": _smash_regular,
}


def test_h4_is_a_hopf_algebra_not_commutative_nor_cocommutative():
    h = sweedler_h4()
    assert hopf_validate(h).ok
    assert h.mult.apply_word((2, 1)) != h.mult.apply_word((1, 2))
    flipped = Element.basis((0, 2)) + Element.basis((2, 1))
    assert h.comult.apply_word((2,)) != flipped


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_h4_golden(case):
    want = json.loads(GOLDEN.read_text())[case]
    assert json.loads(json.dumps(CASES[case]())) == want


if __name__ == "__main__":
    # one case per line keeps diffs readable and the file small
    GOLDEN.write_text("{\n" + ",\n".join(
        "%s: %s" % (json.dumps(c), json.dumps(f(), sort_keys=True))
        for c, f in sorted(CASES.items())) + "\n}\n")
