"""Cross-validation of the structural checkers against the brute-force
oracle on a randomized population.

Only logically one-directional facts are asserted, so the bounded oracle
can never produce a spurious failure:

* a falsification counterexample for a strong notion forces the checker
  to say FAILS (counterexamples are proofs);
* a weak notion the checker rejects admits no bounded witness;
* every failing strong verdict replays to ambiguous estimates;
* every WD or WPD witness replays to the estimates it names.
"""

import random

from wadet import estimator
from wadet.corpus import random_automaton
from wadet.estimator import estimate
from wadet.verdict import FAILS, HOLDS, SD, SPD, WD, WPD
from wadet.verify import check_all

from oracle_reference import oracle_falsify
from test_acceptance import replay_sd_witness, replay_spd_witness
from test_estimator import accumulate


def population(count):
    rng = random.Random(424242)
    for i in range(count):
        yield random_automaton(
            50_000 + i,
            max_states=rng.choice([3, 4, 5]),
            max_events=3,
            weight_range=rng.choice([(-2, 2), (-1, 1), (0, 2)]),
            unobs_fraction=rng.choice([0.2, 0.35, 0.6]),
            arc_factor=rng.choice([1.5, 2.5, 3.5]),
        )


def test_checkers_and_oracle_never_contradict():
    checked = replays = 0
    for a in population(150):
        res = check_all(a)
        got = res.statuses()
        prepared = res.automaton

        for prop in (SD, SPD):
            ce = oracle_falsify(prepared, prop, horizon=5, stem_cap=4000)
            if ce is not None:
                assert got[prop] == FAILS, (a, prop, ce.kind)
        for prop in (WD, WPD):
            if got[prop] == FAILS:
                assert oracle_falsify(prepared, prop, horizon=5,
                                      stem_cap=4000) is not None, (a, prop)

        if got[SD] == FAILS:
            replay_sd_witness(res)
            replays += 1
        if got[SPD] == FAILS:
            replay_spd_witness(res)
            replays += 1
        checked += 1
    assert checked == 150 and replays > 40


def test_singleton_cycle_witnesses_replay_to_singletons():
    # the estimates along a WD or WPD witness (estimator.estimate) are the
    # estimates it names: along the cycle, pumped twice, or at a stalling singleton
    hits = {WD: 0, WPD: 0}
    for a in population(120):
        res = check_all(a)
        for prop in (WD, WPD):
            witness = res.verdicts[prop].witness or {}
            access = list(witness.get("access", ()))
            if witness.get("kind") == "singleton-estimate-can-stall":
                found = estimate(res.automaton, accumulate(access))
                assert len(found) == 1 and found == set(witness["state"]), (a, prop)
                assert found <= res.automaton.stall_states
            elif witness.get("kind") == "singleton-cycle":
                cycle, states = witness["cycle"], witness["cycle_states"]
                assert (all if prop == WD else any)(len(x) == 1 for x in states), (a, prop)
                gamma = accumulate(access + list(cycle) * 2)
                for i in range(2 * len(cycle) + 1):
                    found = estimate(res.automaton, gamma[:len(access) + i])
                    assert found == set(states[i % len(cycle)]), (a, prop, i)
            else:
                continue
            assert res.verdicts[prop].status == HOLDS
            hits[prop] += 1
    assert min(hits.values()) >= 10, hits


def test_stall_witnesses_expose_real_silent_cycles():
    hits = 0
    for a in population(120):
        res = check_all(a)
        spd = res.verdicts[SPD]
        if spd.status != FAILS or spd.witness["kind"] != "ambiguous-estimate-can-stall":
            continue
        assert spd.witness["anchor"] in res.automaton.stall_states
        gamma = accumulate(spd.witness["access"])
        assert len(estimate(res.automaton, gamma)) > 1
        hits += 1
    assert hits >= 10


def vector_population():
    rng = random.Random(11001)
    for i in range(40):
        yield i, random_automaton(
            700_000 + i, max_states=rng.choice([3, 4, 5]), max_events=3,
            weight_range=rng.choice([(-2, 2), (-1, 1)]),
            unobs_fraction=rng.choice([0.25, 0.5]),
            arc_factor=rng.choice([2.0, 3.0]), k=2)


def test_vector_weight_population_stays_sound():
    """k = 2 instances: UNKNOWN only with a bounded structure to blame, and
    definite verdicts still replay."""
    from wadet.verdict import UNKNOWN

    unknowns = definite = 0
    for i, a in vector_population():
        res = check_all(a)
        got = res.statuses()
        if UNKNOWN in got.values():
            unknowns += 1
            assert (not res.observer.exact) or (not res.detector.exact) \
                or res.self_composition.unknown_queries, (i, got)
        else:
            definite += 1
        if got[SD] == FAILS:
            replay_sd_witness(res)
    assert definite >= 20  # most small instances resolve exactly


def test_composition_read_after_check_all_asks_no_decided_query(monkeypatch):
    # the tables of the prepared automaton keep every YES and NO of the
    # product route, so the whole composition, built after check_sd has
    # searched part of it, asks only the keys check_sd never decided
    calls = []
    real = estimator.has_path_with_weight

    def recorded(arcs, u, v, z, budget):
        answer = real(arcs, u, v, z, budget)
        calls.append(((u, v, z), answer.status))
        return answer

    monkeypatch.setattr(estimator, "has_path_with_weight", recorded)
    decided_total = asked = 0
    for i, a in vector_population():
        calls.clear()
        res = check_all(a)
        decided = {key for key, status in calls if status != "UNKNOWN"}
        calls.clear()
        assert res.self_composition.states
        assert [key for key, _ in calls if key in decided] == [], i
        decided_total += len(decided)
        asked += len(calls)
    assert decided_total >= 20 and asked >= 20, (decided_total, asked)
