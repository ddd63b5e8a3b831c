import random
from fractions import Fraction

import pytest

from wadet import estimator, graphutil, io, model, selfcomp, verify
from wadet.corpus import load_fixture, random_automaton
from wadet.estimator import EstTransition, build_detector, build_observer
from wadet.graphutil import find_cycle, find_path, reachable
from wadet.model import normalize, scale_to_integers, scale_weights, structure_report, validate
from wadet.verdict import FAILS, HOLDS, SD, SPD, UNKNOWN, WD, WPD
from wadet.verify import check_all, check_spd, check_wd, check_wpd

from conftest import A0_description, A1_description
from graph_reference import states_on_cycles
from test_acceptance import replay_spd_witness
from test_model import chain_description
from test_selfcomp import random_automaton_raw
from test_structure_digests import AUTOMATA


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


def test_wd_without_silent_cycle_searches_no_reachable_states(monkeypatch):
    # an infinite run and no silent cycle: the silent-cycle case is ruled
    # out without a search for the reachable states
    expected = check_wd(scale_to_integers(normalize(validate(chain_description())))[0])
    a = scale_to_integers(normalize(validate(chain_description())))[0]
    assert a.has_infinite_run and not a.silent_cycle_states
    calls = []

    def counting(starts, succ):
        calls.append(starts)
        return reachable(starts, succ)

    monkeypatch.setattr(model, "reachable", counting)
    verdict = check_wd(a)
    assert calls == []
    assert verdict.to_json() == expected.to_json()
    assert verdict.status == HOLDS and verdict.witness["kind"] == "singleton-cycle"


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


# -- SPD, WD and WPD by one search of the estimates --------------------------


def est_steps(est):
    """Per estimate, its ((symbol, weight), target) steps in the canonical
    order of est.successors."""
    return lambda x: [((s, w), y) for s, w, y, _ in est.successors[x]]


def cycle_within(est, allowed, anchors):
    """Test-only reference: a cycle reachable from the initial estimate
    that stays in allowed and passes an estimate of anchors, through the
    least such anchor (by sorted), as the checkers found it on a whole
    built structure before their searches: its access events, its events
    and its states."""
    cyclic = states_on_cycles(allowed, lambda x: [
        y for _, _, y, _ in est.successors[x] if y in allowed]) & anchors
    if not cyclic:
        return None
    target = min(cyclic, key=sorted)
    steps = est_steps(est)
    sub = lambda x: [(step, y) for (step, y) in steps(x) if y in allowed]
    access, _ = find_path(steps, est.initial, {target})
    cycle = find_cycle(sub, target)
    return {"access": verify._events_of(access), "cycle": verify._events_of(cycle),
            "cycle_states": [sorted(x) for x in [target] + [y for (_, _, y) in cycle]]}


def reference_spd_fails_on(a, est, cycle_rule):
    """Test-only reference: SPD evaluated on a whole built structure, as
    check_spd did before its search.  The least stalled ambiguous estimate
    by sorted, if any; else the least estimate on a cycle of estimates
    that cycle_rule allows (two states on the detector, more than one on
    the observer)."""
    stalled = [x for x in est.states if len(x) > 1 and not a.stall_states.isdisjoint(x)]
    if stalled:
        x = min(stalled, key=sorted)
        access, _ = find_path(est_steps(est), est.initial, {x})
        return {"kind": "ambiguous-estimate-can-stall",
                "access": verify._events_of(access), "state": sorted(x),
                "anchor": min(x & a.stall_states)}
    allowed = {x for x in est.states if cycle_rule(x)}
    found = cycle_within(est, allowed, allowed)
    return None if found is None else {"kind": "ambiguous-cycle", **found}


def reference_weak_status(a, observer, prop):
    """Test-only reference: the status of WD or WPD on a whole exact
    observer, as check_wd and check_wpd found it before their searches."""
    if not a.has_infinite_run or (prop == WD and verify._silent_cycle_witness(a)):
        return HOLDS
    singletons = {x for x in observer.states if len(x) == 1}
    if prop == WPD and any(x <= a.stall_states for x in singletons):
        return HOLDS
    allowed = singletons if prop == WD else observer.states
    return FAILS if cycle_within(observer, allowed, singletons) is None else HOLDS


def spd_documents():
    """Prepared automata: those of the structure digests, then the k = 2
    and k = 3 draws of seeds 0-39."""
    docs = list(AUTOMATA.values())
    docs += [random_automaton(seed, k=k) for k in (2, 3) for seed in range(40)]
    return [scale_to_integers(normalize(a))[0] for a in docs]


def test_spd_search_routes_agree():
    # each search over a fresh structure, which it explores on demand,
    # and over one explored whole before: byte-identical verdicts,
    # inexact draws included
    for a in spd_documents():
        detector, observer = build_detector(a), build_observer(a)
        assert detector.states and observer.states  # explored whole
        for lazy, built in ((check_spd(a), check_spd(a, detector)),
                            (check_wd(a), check_wd(a, observer)),
                            (check_wpd(a), check_wpd(a, observer))):
            assert io.dumps(built.to_json()) == io.dumps(lazy.to_json()), a


def test_spd_search_agrees_with_full_detector_reference():
    statuses = {HOLDS: 0, FAILS: 0}
    for a in spd_documents():
        detector = build_detector(a)
        if not detector.exact:
            continue
        want = HOLDS if reference_spd_fails_on(a, detector, lambda x: len(x) == 2) is None \
            else FAILS
        assert check_spd(a).status == want, a
        observer_fails = reference_spd_fails_on(a, build_observer(a), lambda x: len(x) > 1)
        assert (observer_fails is not None) == (want == FAILS), a
        statuses[want] += 1
    assert min(statuses.values()) >= 20, statuses


def test_weak_searches_agree_with_full_observer_reference():
    statuses = {HOLDS: 0, FAILS: 0}
    for a in spd_documents():
        observer = build_observer(a)
        if not observer.exact:
            continue
        for prop, check in ((WD, check_wd), (WPD, check_wpd)):
            want = reference_weak_status(a, observer, prop)
            assert check(a).status == want, (a, prop)
            statuses[want] += 1
    assert min(statuses.values()) >= 20, statuses


# the tests of _lasso per property: (allowed, anchor)
LASSO_TESTS = {SPD: (lambda x: len(x) == 2, lambda x: True),
               WD: (lambda x: len(x) == 1, lambda x: len(x) == 1),
               WPD: (lambda x: True, lambda x: len(x) == 1)}


def test_lasso_cycles_stay_allowed_and_start_at_an_anchor():
    # a search that reports a cycle as soon as it sees one still reports a
    # cycle of allowed estimates, and starts it at an anchor
    cycles = {prop: 0 for prop in LASSO_TESTS}
    for a in AUTOMATA.values():
        for prop, verdict in check_all(a).verdicts.items():
            if prop == SD or "cycle_states" not in (verdict.witness or {}):
                continue
            allowed, anchor = LASSO_TESTS[prop]
            states = verdict.witness["cycle_states"]
            assert len(states) >= 2 and states[0] == states[-1], (a, prop)
            assert anchor(states[0]) and all(map(allowed, states)), (a, prop)
            cycles[prop] += 1
    assert min(cycles.values()) >= 10, cycles


def test_robot_spd_search_stops_at_the_first_cycle_it_sees(monkeypatch):
    # the search reports a cycle of two-element estimates the moment it
    # sees it, 4 estimates in, not when its component closes (70 estimates)
    read = []
    steps = estimator.successor_steps

    def counted(a, split):
        fn = steps(a, split)
        return lambda x: read.append(x) or fn(x)

    monkeypatch.setattr(estimator, "successor_steps", counted)
    a = scale_to_integers(normalize(load_fixture("robot").automaton))[0]
    spd = check_spd(a)
    assert spd.status == FAILS and spd.witness["kind"] == "ambiguous-cycle"
    assert len(read) == len(set(read)) == 4


def test_spd_search_computes_no_menu_after_the_step_that_stops_it():
    # silent-dense style: every state stalls, and the a-menu of {s0} has an
    # ambiguous target (weight 1 reaches the a-arcs of s1 and s2), so the
    # search stops on its a step before it computes the b menu
    a = validate({
        "k": 1, "states": ["s0", "s1", "s2"], "initial": {"s0": [0]},
        "events": {"u": None, "a": "a", "b": "b"},
        "transitions": [(p, "u", q, [1]) for p in ("s0", "s1", "s2")
                        for q in ("s0", "s1", "s2") if p != q]
        + [("s0", "a", "s1", [0]), ("s1", "a", "s2", [0]), ("s2", "a", "s0", [0])]
        + [(p, "b", p, [1]) for p in ("s0", "s1", "s2")]})
    prepared = model.prepare(a)[0]
    spd = check_spd(prepared)
    assert spd.status == FAILS and spd.witness["kind"] == "ambiguous-estimate-can-stall"
    assert spd.witness["access"] == [("a", 1)] and spd.witness["state"] == ["s0", "s2"]
    x0 = frozenset({"s0"})
    assert set(estimator.tables(prepared).menus) == {(x0, "a")}


def test_check_all_builds_no_detector(monkeypatch):
    # nor explores any other structure whole: each is explored whole when
    # its states are first read
    built = []
    explore = graphutil.explore
    monkeypatch.setattr(estimator, "explore", lambda roots, succ, targets:
                        built.append(succ.__self__.kind) or explore(roots, succ, targets))
    monkeypatch.setattr(selfcomp, "explore", lambda roots, succ, targets:
                        built.append("selfcomp") or explore(roots, succ, targets))
    fixtures = [load_fixture(name).automaton for name in ("A0", "A1", "robot")]
    results = [check_all(a) for a in fixtures]
    assert built == []
    for res in results:
        for kind, build in (("observer", build_observer), ("detector", build_detector)):
            est = getattr(res, kind)
            assert est.states and built == [kind] and getattr(res, kind) is est  # on first read
            assert io.estimator_to_json(est) == io.estimator_to_json(build(res.automaton))
            built.clear()
        cc = res.self_composition
        assert cc.states and built == ["selfcomp"] and res.self_composition is cc
        built.clear()


def test_check_all_result_keeps_what_its_searches_read(monkeypatch):
    # check_all explores no structure whole; its result's structures, once
    # read whole, serialize as fresh builds of a fresh preparation do; and
    # the witnesses of the SD witness's edges expand no composition state
    # that the SD search did not
    explored, calls = [], []
    explore = graphutil.explore
    successors_of = selfcomp.SelfComposition.successors_of
    monkeypatch.setattr(estimator, "explore", lambda roots, succ, targets:
                        explored.append(succ.__self__.kind) or explore(roots, succ, targets))
    monkeypatch.setattr(selfcomp, "explore", lambda roots, succ, targets:
                        explored.append("selfcomp") or explore(roots, succ, targets))
    monkeypatch.setattr(selfcomp.SelfComposition, "successors_of",
                        lambda cc, s: calls.append(s) or successors_of(cc, s))
    documents = [load_fixture(name).automaton for name in ("A0", "A1", "robot")]
    documents += [random_automaton(seed, k=2) for seed in (0, 5, 11, 23)]
    witnessed = 0
    for raw in documents:
        calls.clear()
        result = check_all(raw)
        assert explored == [], raw
        cc, searched = result.self_composition, set(calls)
        sd = result.verdicts[SD]
        if sd.status == FAILS:
            calls.clear()
            for part in ("cc_access", "cc_cycle", "cc_split_path"):
                for tr in sd.witness[part]:
                    assert cc.witnesses[tr]
            assert calls and set(calls) <= searched == set(cc.expanded), raw
            witnessed += 1
        fresh, m = model.prepare(raw)
        assert io.selfcomp_to_json(cc, m) \
            == io.selfcomp_to_json(selfcomp.build_self_composition(fresh), m), raw
        for kind, build in (("observer", build_observer), ("detector", build_detector)):
            assert io.estimator_to_json(getattr(result, kind), m) \
                == io.estimator_to_json(build(fresh), m), (raw, kind)
        explored.clear()
    assert witnessed == 2


@pytest.mark.parametrize("k, seed", [(2, 11), (2, 17), (2, 38), (2, 39), (3, 17), (3, 39)])
def test_inexact_draws_fail_spd_with_replaying_witness(k, seed):
    # the detector of these draws is inexact, which made SPD UNKNOWN while
    # the whole detector was read; the search meets a stalled ambiguous
    # estimate of genuine steps first (the composition's budget of 10^5
    # keeps draws 17 and 39 to seconds)
    res = check_all(random_automaton(seed, k=k), 10 ** 5)
    spd = res.verdicts[SPD]
    assert spd.status == FAILS and spd.witness["kind"] == "ambiguous-estimate-can-stall"
    assert not res.detector.exact
    replay_spd_witness(res)


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
one_state = EstimatorAutomaton("observer", 1, frozenset({"q0"}), lambda x: iter([([], True)]))
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


def test_witness_arc_weights_print_as_strings(aut_a0):
    # arcs hold int weights, which print as a document writes them; the
    # weights of observed steps stay JSON numbers
    result = check_all(io.loads(io.dumps(io.serialize(aut_a0))))
    sd, spd, wd = (result.verdicts[p] for p in (SD, SPD, WD))
    assert sd.witness["a_cycle"] == [("q3", "a", "q3", (1,))]
    assert type(sd.witness["a_cycle"][0][3][0]) is int
    assert sd.to_json()["witness"]["a_cycle"] == [["q3", "a", "q3", ["1"]]]
    assert wd.witness["kind"] == "silent-cycle"
    assert wd.to_json()["witness"]["path"] == [["q0", "u", "q2", ["1"]]]
    assert wd.to_json()["witness"]["cycle"] == [["q2", "u", "q2", ["1"]]]
    steps = spd.to_json()["witness"]["access"]
    assert steps and all(type(w) is int for _, w in steps)


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


def test_verdict_relations_hold_with_and_without_stalls():
    # without a stall state SD implies SPD and WD implies WPD; with one, SD
    # HOLDS beside SPD FAILS only through an ambiguous estimate that can
    # stall, and WD HOLDS beside WPD FAILS only through a silent cycle
    draws = [load_fixture(name).automaton for name in ("A0", "A1", "robot")]
    draws += [random_automaton(seed, k=1, unobs_fraction=fraction)
              for fraction in (0.35, 0.6) for seed in range(120)]
    draws += [random_automaton(seed, k=2) for seed in range(40) if seed not in (17, 39)]
    counts = {"stall-free": 0, "stalled": 0, "SPD": 0, "WPD": 0}
    for raw in draws:
        result = check_all(raw)
        got, verdicts = result.statuses(), result.verdicts
        if UNKNOWN in got.values():
            continue
        if not result.automaton.stall_states:
            counts["stall-free"] += 1
            assert got[SD] != HOLDS or got[SPD] == HOLDS, raw
            assert got[WD] != HOLDS or got[WPD] == HOLDS, raw
            continue
        counts["stalled"] += 1
        if got[SD] == HOLDS and got[SPD] == FAILS:
            counts["SPD"] += 1
            assert verdicts[SPD].witness["kind"] == "ambiguous-estimate-can-stall", raw
        if got[WD] == HOLDS and got[WPD] == FAILS:
            counts["WPD"] += 1
            assert verdicts[WD].witness["kind"] == "silent-cycle", raw
    assert counts["stall-free"] == 160 and counts["stalled"] == 119, counts
    assert counts["SPD"] and counts["WPD"], counts


def test_analysis_result_exposes_structures(aut_a1):
    res = check_all(aut_a1)
    assert res.scale == 1
    assert res.observer.kind == "observer"
    assert res.detector.kind == "detector"
    assert res.self_composition.states


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
