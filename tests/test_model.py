import random
from fractions import Fraction

import pytest

from wadet import estimator, model
from wadet.corpus import random_automaton
from wadet.graphutil import reachable, strongly_connected_components
from wadet.model import (
    ValidationError,
    WeightedAutomaton,
    instantaneous_closure,
    make_weight,
    normalize,
    scale_to_integers,
    scale_weights,
    structure_report,
    validate,
    zero_weight,
)

from conftest import A0_description, A1_description
from graph_reference import can_reach


def chain_description(weights=(2, 3), target=5):
    """Silent chain with weighted/zero parallel steps, two observable sinks."""
    m = len(weights)
    states = [f"q{i}" for i in range(m + 1)] + ["f1", "f2"]
    transitions = []
    for i, n in enumerate(weights):
        transitions.append((f"q{i}", "u1", f"q{i+1}", [n]))
        transitions.append((f"q{i}", "u2", f"q{i+1}", [0]))
    transitions += [
        (f"q{m}", "e", "f1", [1]),
        ("q0", "e", "f2", [target + 1]),
        ("f1", "e", "f1", [1]),
        ("f2", "e", "f2", [1]),
    ]
    return {
        "k": 1,
        "states": states,
        "initial": {"q0": [0]},
        "events": {"u1": None, "u2": None, "e": "e"},
        "transitions": transitions,
    }


# -- validate -----------------------------------------------------------


def test_validate_accepts_a1(aut_a1):
    assert aut_a1.k == 1
    assert aut_a1.sigma == {"rho"}
    assert len(aut_a1.transitions) == 8


def test_validate_rejects_dimension_mismatch():
    raw = A1_description()
    raw["transitions"][0] = ("q0", "a", "q1", [1, 2])
    with pytest.raises(ValidationError) as err:
        validate(raw)
    assert any("dimension" in p for p in err.value.problems)
    # a bool is an int in Python, but not a dimension
    with pytest.raises(ValidationError) as err:
        validate({**A1_description(), "k": True})
    assert any("dimension k" in p for p in err.value.problems)


@pytest.mark.parametrize("k", [0, -1, True, "1", None])
def test_invalid_k_is_the_only_problem_reported(k):
    # two-dimensional weights are not checked against a fallback k = 1
    raw = A1_description()
    raw.update(k=k, initial={"q0": [0, 0]},
               transitions=[(s, e, d, w * 2) for (s, e, d, w) in raw["transitions"]])
    with pytest.raises(ValidationError) as err:
        validate(raw)
    assert err.value.problems == [f"dimension k must be a positive integer, got {k!r}"]


def test_validate_rejects_missing_initial():
    raw = A1_description()
    raw["initial"] = {}
    with pytest.raises(ValidationError) as err:
        validate(raw)
    assert any("initial" in p for p in err.value.problems)


def test_validate_collects_all_problems():
    raw = A1_description()
    raw["initial"] = {}
    raw["transitions"].append(("ghost", "a", "q1", [1]))
    with pytest.raises(ValidationError) as err:
        validate(raw)
    assert len(err.value.problems) >= 2


def test_validate_rejects_conflicting_duplicate():
    raw = A1_description()
    raw["transitions"].append(("q0", "a", "q1", [7]))
    with pytest.raises(ValidationError) as err:
        validate(raw)
    assert any("conflicting" in p for p in err.value.problems)


# -- normalize ----------------------------------------------------------


def test_normalize_identity_when_alpha_zero(aut_a1):
    assert normalize(aut_a1) is aut_a1


def test_normalize_rewrites_nonzero_alpha():
    raw = A1_description()
    raw["initial"] = {"q0": [3]}
    a = validate(raw)
    n = normalize(a)
    assert n.is_normalized()
    (fresh,) = set(n.initial) - a.states
    added = [t for t in n.transitions - a.transitions]
    assert added == [(fresh, added[0][1], "q0", (Fraction(3),))]
    assert n.label(added[0][1]) is None
    assert normalize(n) is n  # idempotent


def test_normalize_mixed_initials_keeps_zero_ones():
    raw = A1_description()
    raw["initial"] = {"q0": [3], "q1": [0]}
    n = normalize(validate(raw))
    assert "q1" in n.initial
    assert "q0" not in n.initial
    assert n.is_normalized()


# -- scaling ------------------------------------------------------------


def test_scale_to_integers_simple():
    raw = A1_description()
    raw["transitions"][0] = ("q0", "a", "q1", ["1/2"])
    raw["transitions"][1] = ("q0", "a", "q2", ["2/3"])
    a = validate(raw)
    scaled, m = scale_to_integers(a)
    assert m == 6
    weights = {t[3][0] for t in scaled.transitions if t[0] == "q0"}
    assert weights == {3, 4}
    # rational round trip
    assert scale_weights(scaled, Fraction(1, m)) == a


def test_scale_to_integers_identity_on_integral(aut_a0):
    scaled, m = scale_to_integers(aut_a0)
    assert m == 1 and scaled is aut_a0


def test_scale_to_integers_mixed_denominators():
    raw = A1_description()
    raw["transitions"][0] = ("q0", "a", "q1", ["5/4"])
    raw["transitions"][1] = ("q0", "a", "q2", ["-1/6"])
    raw["transitions"][2] = ("q1", "u", "q1", [0])
    a = validate(raw)
    scaled, m = scale_to_integers(a)
    assert m == 12
    got = {t[:3]: t[3][0] for t in scaled.transitions}
    assert got[("q0", "a", "q1")] == 15
    assert got[("q0", "a", "q2")] == -2
    assert got[("q1", "u", "q1")] == 0


# -- instantaneous closure ----------------------------------------------


def test_closure_ignores_weighted_silent_loops(aut_a1):
    assert instantaneous_closure(aut_a1, {"q0"}) == {"q0"}


def test_closure_follows_zero_weight_chain():
    a = validate(chain_description((2, 3), 5))
    assert instantaneous_closure(a, {"q0"}) == {"q0", "q1", "q2"}


def test_closure_of_empty_is_empty(aut_a1):
    assert instantaneous_closure(aut_a1, set()) == frozenset()


def test_closure_is_a_closure_operator():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        states = [f"s{i}" for i in range(n)]
        by_key = {}
        for _ in range(rng.randint(0, 8)):
            key = (rng.choice(states), "u", rng.choice(states))
            by_key.setdefault(key, key + ((rng.choice([0, 0, 1]),),))
        transitions = list(by_key.values())
        raw = {
            "k": 1,
            "states": states,
            "initial": {states[0]: [0]},
            "events": {"u": None},
            "transitions": set(transitions),
        }
        a = validate(raw)
        xs = set(rng.sample(states, rng.randint(0, n)))
        ys = xs | set(rng.sample(states, rng.randint(0, n)))
        cx, cy = instantaneous_closure(a, xs), instantaneous_closure(a, ys)
        assert xs <= cx  # extensive
        assert cx <= cy  # monotone
        assert instantaneous_closure(a, cx) == cx  # idempotent


# -- structure report ---------------------------------------------------


def test_a1_is_ambiguous(aut_a1):
    rep = structure_report(aut_a1)
    assert not rep.unambiguous_checked_to_bound
    assert not rep.deterministic
    assert not rep.all_observable


def test_a0_not_divergence_free(aut_a0):
    rep = structure_report(aut_a0)
    assert not rep.divergence_free
    assert rep.unambiguous_checked_to_bound
    assert rep.deadlock_free  # every reachable state has an outgoing arc


def test_chain_is_deadlock_and_divergence_free():
    a = validate(chain_description((2, 3), 5))
    rep = structure_report(a)
    assert rep.deadlock_free
    assert rep.divergence_free
    assert rep.deterministic  # the silent choices are distinct events


def test_reachable_states_match_path_enumeration(aut_a0):
    rep = structure_report(aut_a0)
    assert rep.reachable_states == aut_a0.states


def test_states_reaching_unobs_cycle(aut_a0, aut_a1):
    assert aut_a0.stall_states == {"q0", "q2"}
    assert aut_a1.stall_states == {"q1", "q2"}


# -- silent structure ---------------------------------------------------


def silent_distances(a, q, zero_only):
    """Breadth-first over the raw transition set, apart from the model's
    cached adjacency: silent-path length from q to each reached state."""
    z = zero_weight(a.k)
    dist, queue = {q: 0}, [q]
    for s in queue:
        for (src, e, d, w) in a.transitions:
            if src == s and a.label(e) is None and (w == z or not zero_only) \
                    and d not in dist:
                dist[d] = dist[s] + 1
                queue.append(d)
    return dist


def walk_reach(a, starts, silent):
    """States reached from starts by walks (silent ones only if silent) over
    the raw transition set, apart from the model's cached adjacency."""
    seen = set(starts)
    queue = list(seen)
    for s in queue:
        for (src, e, d, w) in a.transitions:
            if src == s and (a.label(e) is None or not silent) and d not in seen:
                seen.add(d)
                queue.append(d)
    return seen


def on_closed_walks(a, silent):
    """States q with a closed walk of at least one arc through q: some arc
    out of q leads back to q."""
    return {src for (src, e, d, w) in a.transitions
            if (a.label(e) is None or not silent) and src in walk_reach(a, {d}, silent)}


def test_silent_structure_matches_definitions():
    seen_paths = seen_stalls = seen_reachers = 0
    draws = (random_automaton(seed, unobs_fraction=f) for seed in range(60) for f in (0.35, 0.7))
    for a in draws:
        z = zero_weight(a.k)
        reach = {q: set(silent_distances(a, q, zero_only=False)) for q in a.states}
        for q in a.states:
            assert a.silent_reach[q] == reach[q]
            assert set(a.silent_arcs[q]) == {t for t in a.transitions
                                             if t[0] == q and a.label(t[1]) is None}
            dist = silent_distances(a, q, zero_only=True)
            paths = a.zero_paths[q]
            assert paths.keys() == instantaneous_closure(a, {q}) == a.closures[q] == dist.keys()
            for r, path in paths.items():
                at = q
                for t in path:  # replays as a silent zero-weight walk
                    assert t in a.transitions and t[0] == at
                    assert a.label(t[1]) is None and t[3] == z
                    at = t[2]
                assert at == r and len(path) == dist[r]
                seen_paths += len(path) > 0
        self_reaching = {r for r in a.states
                         if any(r in reach[t[2]] for t in a.transitions
                                if t[0] == r and a.label(t[1]) is None)}
        assert a.stall_states == {q for q in a.states if reach[q] & self_reaching}
        cycles = on_closed_walks(a, silent=False)
        assert (a.cycle_states, a.silent_cycle_states, a.has_infinite_run) == (
            cycles, on_closed_walks(a, silent=True),
            bool(cycles & walk_reach(a, a.initial, silent=False)))
        reachers = {q for q in a.states if walk_reach(a, {q}, silent=False) & cycles}
        assert a.cycle_reachers == reachers
        seen_stalls += bool(a.stall_states)
        seen_reachers += bool(reachers - cycles)
    assert seen_paths >= 10 and seen_stalls >= 10 and seen_reachers >= 10


def test_scale_to_integers_records_is_prepared():
    # read off the scan of denominators, not a second scan of the weights
    for desc in (chain_description(), A0_description(), A1_description()):
        desc["transitions"][0] = desc["transitions"][0][:3] + ([Fraction(1, 3)],)
        for a in (validate(desc), scale_weights(validate(desc), 3)):
            scaled, _ = scale_to_integers(a)
            assert scaled.__dict__["is_prepared"] is True
    desc = A0_description()
    desc["initial"] = {"q0": [Fraction(1, 2)]}
    assert not scale_to_integers(validate(desc))[0].is_prepared
    assert scale_to_integers(normalize(validate(desc)))[0].is_prepared


def test_live_states_match_backward_reach():
    # the k > 1 rows keep the silent arcs into live states, those with a
    # silent walk to an observable arc's source
    dropped = 0
    for seed in range(60):
        a = scale_to_integers(normalize(random_automaton(seed, k=2)))[0]
        live = can_reach(a.states, lambda q: (t[2] for t in a.silent_arcs[q]),
                         {t[0] for t in a.obs_transitions})
        kept = estimator.tables(a).arcs
        for q, arcs in a.silent_arcs.items():
            assert [t for t, _, _ in kept[q]] == [t for t in arcs if t[2] in live]
        dropped += sum(t[2] not in live for t in a.unobs_transitions)
    assert dropped >= 10


def test_silent_structure_reads_no_reachability_search(monkeypatch):
    # one component pass over a silent chain of 200 states, not one search
    # per state and another for the reachable states
    n = 200
    a = validate({
        "k": 1,
        "states": [f"s{i}" for i in range(n)],
        "initial": {"s0": [0]},
        "events": {"u": None},
        "transitions": [(f"s{i}", "u", f"s{i + 1}", [1]) for i in range(n - 1)]
                       + [(f"s{n - 1}", "u", f"s{n - 1}", [1])],
    })
    calls = []

    def counting(starts, succ):
        calls.append(starts)
        return reachable(starts, succ)

    monkeypatch.setattr(model, "reachable", counting)
    assert a.silent_reach["s0"] == a.states and a.silent_reach[f"s{n - 1}"] == {f"s{n - 1}"}
    assert a.silent_cycle_states == {f"s{n - 1}"}
    assert a.stall_states == a.states
    assert a.has_infinite_run
    assert calls == []


def test_strongly_connected_components_calls_succ_once_per_vertex():
    # a self-loop is seen in Tarjan's own scan, not by asking again
    arcs = {"p": ["p", "q"], "q": ["r"], "r": ["q"], "s": ["s"], "t": ["p"], "u": []}
    calls = []

    def succ(v):
        calls.append(v)
        return arcs[v]

    assert {v for comp, cyclic in strongly_connected_components(arcs, succ)
            if cyclic for v in comp} == {"p", "q", "r", "s"}
    assert sorted(calls) == sorted(arcs)
