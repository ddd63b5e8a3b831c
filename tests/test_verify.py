import random
from fractions import Fraction

from wadet import estimator, verify
from wadet.corpus import load_fixture
from wadet.estimator import EstTransition, build_detector, build_observer
from wadet.model import normalize, scale_to_integers, scale_weights, structure_report, validate
from wadet.verdict import FAILS, HOLDS, SD, SPD, WD, WPD
from wadet.verify import check_all, check_spd, check_wd, check_wpd

from conftest import A0_description, A1_description
from test_model import chain_description
from test_selfcomp import random_automaton_raw


def statuses(a):
    return check_all(a).statuses()


# -- corpus verdict table --------------------------------------------------


def test_verdicts_a1(aut_a1):
    assert statuses(aut_a1) == {SD: HOLDS, SPD: FAILS, WD: HOLDS, WPD: HOLDS}


def test_verdicts_a0(aut_a0):
    assert statuses(aut_a0) == {SD: FAILS, SPD: FAILS, WD: HOLDS, WPD: HOLDS}


def test_verdicts_chain_with_solution():
    a = validate(chain_description((2, 3), 5))
    assert statuses(a) == {SD: FAILS, SPD: FAILS, WD: HOLDS, WPD: HOLDS}


def test_verdicts_chain_without_solution():
    a = validate(chain_description((2, 4), 5))
    assert statuses(a) == {SD: HOLDS, SPD: HOLDS, WD: HOLDS, WPD: HOLDS}


def test_spd_failure_reasons(aut_a1, aut_a0):
    r1 = check_all(aut_a1).verdicts[SPD]
    assert r1.witness["kind"] == "ambiguous-estimate-can-stall"
    assert set(r1.witness["state"]) == {"q1", "q2"}
    r0 = check_all(aut_a0).verdicts[SPD]
    # A0's ambiguous pair cannot stall silently; the detector loops on it
    assert r0.witness["kind"] == "ambiguous-cycle"
    assert ["q3", "q4"] in r0.witness["cycle_states"]


def test_wd_wpd_reasons(aut_a0):
    res = check_all(aut_a0)
    assert res.verdicts[WD].witness["kind"] == "silent-cycle"
    assert res.verdicts[WPD].witness["kind"] == "singleton-estimate-can-stall"
    assert res.verdicts[WPD].witness["state"] == ["q0"]


def test_wd_holds_vacuously_when_no_infinite_run():
    raw = {
        "k": 1,
        "states": ["p", "q"],
        "initial": {"p": [0]},
        "events": {"a": "a"},
        "transitions": [("p", "a", "q", [1])],
    }
    a = validate(raw)
    res = check_all(a)
    assert res.verdicts[WD].status == HOLDS
    assert res.verdicts[WD].witness["kind"] == "no-infinite-run"
    assert res.verdicts[WPD].status == HOLDS
    assert res.verdicts[SD].status == HOLDS
    assert res.verdicts[SPD].status == HOLDS


def test_weak_detectability_fails_on_twin_loops():
    raw = {
        "k": 1,
        "states": ["p", "q"],
        "initial": {"p": [0], "q": [0]},
        "events": {"a": "a"},
        "transitions": [("p", "a", "p", [1]), ("q", "a", "q", [1])],
    }
    a = validate(raw)
    got = statuses(a)
    assert got == {SD: FAILS, SPD: FAILS, WD: FAILS, WPD: FAILS}


# -- dual evaluation and invariances ----------------------------------------


def test_detector_observer_agreement_on_random_instances():
    rng = random.Random(31)
    for _ in range(40):
        a = validate(random_automaton_raw(rng))
        prepared, _ = scale_to_integers(normalize(a))
        det = build_detector(prepared)
        obs = build_observer(prepared)
        check_spd(prepared, det, obs)  # raises InternalError on disagreement


# A1 fails SPD on its detector; a one-state observer says it holds
DISAGREEING_SPD = """
from wadet.corpus import load_fixture
from wadet.estimator import EstimatorAutomaton, build_detector
from wadet.model import normalize, scale_to_integers
from wadet.verdict import InternalError
from wadet.verify import check_spd

if __debug__:
    raise SystemExit("not optimized")
a, _ = scale_to_integers(normalize(load_fixture("A1").automaton))
one_state = EstimatorAutomaton("observer", 1, frozenset({"q0"}),
                               frozenset({frozenset({"q0"})}), (), True)
try:
    check_spd(a, build_detector(a), one_state)
except InternalError:
    raise SystemExit(0)
raise SystemExit("disagreement not detected")
"""


def test_spd_cross_check_runs_optimized():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-O", "-c", DISAGREEING_SPD],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_scaling_invariance_on_corpus_and_random():
    rng = random.Random(37)
    automata = [validate(A0_description()), validate(A1_description()),
                validate(chain_description((2, 3), 5))]
    automata += [validate(random_automaton_raw(rng)) for _ in range(10)]
    for a in automata:
        base = statuses(a)
        for m in (2, 3, 7):
            assert statuses(scale_weights(a, m)) == base, (a, m)


def test_rational_weights_round_trip_through_scaling(aut_a1):
    a = scale_weights(aut_a1, Fraction(1, 6))
    assert statuses(a) == statuses(aut_a1)


def test_sd_implies_spd_when_deadlock_and_divergence_free():
    rng = random.Random(41)
    found = 0
    for _ in range(120):
        a = validate(random_automaton_raw(rng))
        rep = structure_report(a)
        if not (rep.deadlock_free and rep.divergence_free):
            continue
        found += 1
        got = statuses(a)
        if got[SD] == HOLDS:
            assert got[SPD] == HOLDS, a
    assert found >= 10


def test_analysis_result_exposes_structures(aut_a1):
    res = check_all(aut_a1)
    assert res.scale == 1
    assert res.observer.kind == "observer"
    assert res.detector.kind == "detector"
    assert res.self_composition.states


def test_checkers_share_one_step_map_per_structure(aut_a0, aut_a1, monkeypatch):
    calls = []
    steps = verify._est_steps
    monkeypatch.setattr(verify, "_est_steps",
                        lambda est: calls.append((est, steps(est))) or calls[-1][1])
    results = [check_all(a) for a in (aut_a0, aut_a1, validate(chain_description((2, 3), 5)))]
    structures = [est for res in results for est in (res.observer, res.detector)]
    assert len(calls) > len(structures)  # some structure is read by two checkers
    for est in structures:
        assert len({id(fn) for e, fn in calls if e is est}) <= 1


def test_check_all_builds_no_estimator_transitions(aut_a0, aut_a1, monkeypatch):
    # the checkers read the successor lists; EstTransition objects are made
    # only when est.transitions is read
    made = []

    def counted(*args):
        made.append(EstTransition(*args))
        return made[-1]

    monkeypatch.setattr(estimator, "EstTransition", counted)
    results = [check_all(a) for a in (aut_a0, aut_a1, load_fixture("robot").automaton)]
    assert made == []
    for est in [s for res in results for s in (res.observer, res.detector)]:
        before = len(made)
        transitions = est.transitions
        assert len(made) - before == len(transitions) > 0
