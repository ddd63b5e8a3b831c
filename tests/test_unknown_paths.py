"""Budget exhaustion and bounded-fallback behavior for k > 1."""

from wadet.estimator import build_detector, build_observer
from wadet.model import validate
from wadet.selfcomp import build_self_composition, check_sd
from wadet.verdict import FAILS, HOLDS, UNKNOWN
from wadet.verify import check_all, check_spd, check_wd, check_wpd


def weighted_silent_loop():
    # a silent self-loop with nonzero vector weight: silent walk weights
    # never repeat, so a bounded enumeration cannot close
    return validate({
        "k": 2,
        "states": ["r", "s", "t"],
        "initial": {"r": [0, 0]},
        "events": {"u": None, "a": "a", "b": "a"},
        "transitions": [
            ("r", "u", "r", [1, 1]),
            ("r", "a", "s", [1, 0]),
            ("r", "b", "t", [0, 1]),
            ("s", "a", "s", [1, 1]),
            ("t", "a", "t", [1, 1]),
        ],
    })


def test_tiny_budget_marks_selfcomp_unknown():
    a = weighted_silent_loop()
    cc = build_self_composition(a, budget=1)
    assert cc.unknown_queries
    verdict = check_sd(a, cc)
    assert verdict.status == UNKNOWN


def test_generous_budget_decides_sd():
    a = weighted_silent_loop()
    cc = build_self_composition(a)
    assert not cc.unknown_queries
    # the two branches can never synchronize at equal weights: the silent
    # loop shifts both coordinates together while the branch weights differ
    assert {t.target for t in cc.transitions} == {("s", "s"), ("t", "t")}
    assert check_sd(a, cc).status == HOLDS


def test_truncated_estimator_degrades_to_unknown():
    a = weighted_silent_loop()
    observer = build_observer(a)
    detector = build_detector(a)
    assert not observer.exact and not detector.exact
    assert check_spd(a, detector).status == UNKNOWN
    # weak detectability is still decided: the silent loop means some
    # infinite run produces no output at all
    assert check_wd(a, observer).status == HOLDS
    assert check_wd(a, observer).witness["kind"] == "silent-cycle"
    # and the singleton initial estimate can stall, hence WPD holds too
    assert check_wpd(a, observer).status == HOLDS


def test_wpd_unknown_when_inexact_and_undecided_by_structure():
    # ambiguous from the start (two initials), a silent weighted loop at an
    # a-source keeps the enumeration open, and the holds-routes don't apply
    a = validate({
        "k": 2,
        "states": ["p", "q", "z"],
        "initial": {"p": [0, 0], "q": [0, 0]},
        "events": {"u": None, "a": "a"},
        "transitions": [
            ("z", "u", "z", [1, 1]),
            ("z", "a", "z", [1, 0]),
            ("p", "a", "p", [1, 0]),
            ("q", "a", "q", [1, 0]),
            ("p", "u", "z", [1, 1]),
        ],
    })
    observer = build_observer(a)
    assert not observer.exact
    assert check_wpd(a, observer).status == UNKNOWN
    assert check_wd(a, observer).witness["kind"] == "silent-cycle"


def test_exact_k2_fallback_decides_everything():
    # no silent cycles: the bounded enumeration closes and verdicts are firm
    a = validate({
        "k": 2,
        "states": ["r", "s", "t"],
        "initial": {"r": [0, 0]},
        "events": {"u": None, "a": "a"},
        "transitions": [
            ("r", "u", "s", [1, 0]),
            ("r", "a", "t", [1, 1]),
            ("s", "a", "t", [0, 1]),
            ("t", "a", "t", [1, 1]),
        ],
    })
    res = check_all(a)
    assert res.observer.exact and res.detector.exact
    assert all(v.status in (HOLDS, FAILS) for v in res.verdicts.values())
