import itertools
import random

import pytest

from wadet.corpus import (
    fixture_names,
    load_fixture,
    random_automaton,
    subset_sum_automaton,
)
from wadet.epset import EPSet
from wadet.estimator import build_observer
from wadet.io import serialize
from wadet.model import validate
from wadet.selfcomp import check_sd
from wadet.verdict import FAILS, HOLDS, SD, SPD, WD, WPD
from wadet.verify import check_all


def brute_subset_sum(weights, target):
    return any(sum(c) == target
               for r in range(len(weights) + 1)
               for c in itertools.combinations(weights, r))


# -- subset-sum generator ----------------------------------------------------


def test_generator_shape():
    a = subset_sum_automaton((2, 3), 5)
    assert len(a.states) == 5
    assert a.label("e") == "e"
    assert a.label("u1") is None and a.label("u2") is None
    weights = {t[:3]: t[3][0] for t in a.transitions}
    assert weights[("q0", "e", "f2")] == 6
    assert weights[("q2", "e", "f1")] == 1


def test_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        subset_sum_automaton((), 5)
    with pytest.raises(ValueError):
        subset_sum_automaton((0, 2), 5)


def test_sd_tracks_subset_sum_examples():
    assert check_sd(subset_sum_automaton((2, 3), 5)).status == FAILS
    assert check_sd(subset_sum_automaton((2, 4), 5)).status == HOLDS
    assert check_sd(subset_sum_automaton((7,), 7)).status == FAILS


@pytest.mark.parametrize("seed", range(40))
def test_sd_equals_brute_force_subset_sum(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 10)
    weights = [rng.randint(1, 12) for _ in range(m)]
    target = rng.randint(1, 40)
    a = subset_sum_automaton(weights, target)
    want = FAILS if brute_subset_sum(weights, target) else HOLDS
    assert check_sd(a).status == want, (weights, target)


# -- fixtures ----------------------------------------------------------------


def test_fixture_names():
    assert fixture_names() == ["A0", "A1", "robot"]
    with pytest.raises(KeyError):
        load_fixture("nope")


def test_fixture_expected_verdicts_reproduced():
    for name in ("A0", "A1"):
        fx = load_fixture(name)
        got = check_all(fx.automaton).statuses()
        for prop, want in fx.expected.items():
            assert got[prop] == want, (name, prop)


def robot_description() -> dict:
    """The generator of the robot fixture: a patrolling robot on four
    positions with quantized energy 0..10.

    Position deviations are encoded as differences of standard basis
    vectors of Z^4; moving right costs one energy unit (silently between
    positions 2 and 3, sometimes for free), moving left regains one, and
    the energy saturates at 10.  The start is position 1 at energy 5,
    announced by an initial weight equal to that position's basis vector.
    """
    def basis(j):
        return tuple(1 if i == j - 1 else 0 for i in range(4))

    def diff(j_to, j_from):
        return tuple(a - b for a, b in zip(basis(j_to), basis(j_from)))

    states = [f"e{i}p{j}" for i in range(11) for j in range(1, 5)]
    transitions = []
    for i in range(1, 11):
        for k in (1, 3):  # announced right moves cost one energy unit
            transitions.append((f"e{i}p{k}", "a", f"e{i-1}p{k+1}", diff(k + 1, k)))
        # silent right move between positions 2 and 3, costing 0 or 1
        transitions.append((f"e{i}p2", "u", f"e{i-1}p3", diff(3, 2)))
        transitions.append((f"e{i}p2", "u", f"e{i}p3", diff(3, 2)))
    for l in (2, 3, 4):  # announced left moves regain one energy unit
        for j in range(0, 10):
            transitions.append((f"e{j}p{l}", "b", f"e{j+1}p{l-1}", diff(l - 1, l)))
        transitions.append((f"e10p{l}", "b", f"e10p{l-1}", diff(l - 1, l)))
    return {
        "k": 4,
        "states": states,
        "initial": {"e5p1": basis(1)},
        "events": {"a": "a", "u": None, "b": "b"},
        "transitions": transitions,
    }


def test_robot_fixture_matches_its_generator():
    assert load_fixture("robot").automaton == validate(robot_description())


def test_robot_fixture_verdicts():
    fx = load_fixture("robot")
    assert fx.automaton.k == 4
    assert len(fx.automaton.states) == 44
    res = check_all(fx.automaton)
    got = res.statuses()
    for prop, want in fx.expected.items():
        assert got[prop] == want, prop
    # the bounded successor enumeration closes on this instance
    assert res.observer.exact and res.detector.exact
    assert got == {SD: FAILS, SPD: FAILS, WD: HOLDS, WPD: HOLDS}


def test_robot_initial_weight_routes_through_normalization():
    fx = load_fixture("robot")
    res = check_all(fx.automaton)
    prepared = res.automaton
    fresh = set(prepared.initial) - fx.automaton.states
    assert len(fresh) == 1
    (q,) = fresh
    added = [t for t in prepared.transitions if t[0] == q]
    assert len(added) == 1
    assert added[0][2] == "e5p1"
    assert tuple(int(x) for x in added[0][3]) == (1, 0, 0, 0)


# -- random generator ----------------------------------------------------------


def test_random_automaton_is_deterministic_per_seed():
    for seed in range(20):
        assert serialize(random_automaton(seed)) == serialize(random_automaton(seed))


def test_random_automaton_seed0_golden():
    doc = serialize(random_automaton(0))
    assert doc == {
        "format_version": 1,
        "k": 1,
        "states": ["s0", "s1", "s2", "s3"],
        "initial": [{"state": s, "weight": ["0"]} for s in ("s0", "s1", "s2", "s3")],
        "events": [{"name": "e0", "label": None}, {"name": "e1", "label": "y"}],
        "transitions": [
            {"from": "s0", "event": "e0", "to": "s2", "weight": ["1"]},
            {"from": "s0", "event": "e1", "to": "s1", "weight": ["0"]},
            {"from": "s0", "event": "e1", "to": "s3", "weight": ["0"]},
            {"from": "s1", "event": "e0", "to": "s2", "weight": ["-1"]},
            {"from": "s1", "event": "e1", "to": "s3", "weight": ["2"]},
            {"from": "s2", "event": "e0", "to": "s0", "weight": ["-2"]},
            {"from": "s2", "event": "e1", "to": "s2", "weight": ["2"]},
        ],
    }


def test_random_zero_weights_all_observable_have_singleton_cells():
    a = random_automaton(7, weight_range=(0, 0), unobs_fraction=0.0)
    assert all(l is not None for l in a.events.values())
    obs = build_observer(a)
    for t in obs.transitions:
        assert t.weight == 0
        assert t.cell == EPSet.finite([0])


def test_random_seed_sweep_is_buildable():
    for seed in range(60):
        a = random_automaton(seed)
        assert a.initial
        check_all(a)
