import json
import random
from functools import partial

from wadet import estimator, io, selfcomp
from wadet.corpus import load_fixture, random_automaton
from wadet.epl import WeightSetSolver, has_path_with_weight
from wadet.estimator import tables
from wadet.graphutil import find_cycle, find_path, reachable
from wadet.model import normalize, scale_to_integers, validate
from wadet.selfcomp import CCTransition, build_self_composition, check_sd
from wadet.verdict import FAILS, HOLDS, SD, UNKNOWN, Verdict
from wadet.verify import check_all

from conftest import A0_description, A1_description
from graph_reference import can_reach, silent_automaton, states_on_cycles
from test_model import chain_description
from test_structure_digests import AUTOMATA


def arcs_of(cc):
    return {(t.source, t.events, t.target) for t in cc.transitions}


def test_cc_of_a1_matches_known_structure(aut_a1):
    cc = build_self_composition(aut_a1)
    assert cc.states == {
        ("q0", "q0"), ("q1", "q1"), ("q1", "q2"), ("q2", "q1"), ("q2", "q2"),
        ("q3", "q3"), ("q4", "q4"),
    }
    expected = {(("q0", "q0"), ("a", "a"), (p, q))
                for p in ("q1", "q2") for q in ("q1", "q2")}
    expected |= {((p, q), ("b", "b"), ("q3", "q3"))
                 for p in ("q1", "q2") for q in ("q1", "q2")}
    expected |= {
        (("q3", "q3"), ("a", "a"), ("q4", "q4")),
        (("q4", "q4"), ("a", "a"), ("q4", "q4")),
    }
    assert arcs_of(cc) == expected
    assert len(cc.transitions) == 10


def test_cc_of_a0_matches_known_structure(aut_a0):
    cc = build_self_composition(aut_a0)
    fan = [("q3", "q4"), ("q4", "q3"), ("q3", "q3"), ("q4", "q4")]
    expected = {(("q0", "q0"), ("a", "a"), t) for t in fan}
    expected |= {(t, ("a", "a"), t) for t in fan}
    assert arcs_of(cc) == expected
    # the distinct-component part is the published picture
    off_diag = {t for t in arcs_of(cc)
                if t[0][0] != t[0][1] or t[2][0] != t[2][1]}
    assert off_diag == {
        (("q0", "q0"), ("a", "a"), ("q3", "q4")),
        (("q0", "q0"), ("a", "a"), ("q4", "q3")),
        (("q3", "q4"), ("a", "a"), ("q3", "q4")),
        (("q4", "q3"), ("a", "a"), ("q4", "q3")),
    }


def test_all_observable_fast_path_skips_solver():
    raw = {
        "k": 1,
        "states": ["p", "q"],
        "initial": {"p": [0]},
        "events": {"a": "a"},
        "transitions": [("p", "a", "q", [1])],
    }
    cc = build_self_composition(validate(raw))
    assert cc.stats["fast_path"] is True
    assert cc.stats["epl_queries"] == 0
    assert arcs_of(cc) == {(("p", "p"), ("a", "a"), ("q", "q"))}


def check_witnesses(aut, cc):
    for tr in cc.witnesses:
        check_witness(aut, cc, tr)


def check_witness(aut, cc, tr):
    left, right = cc.witnesses[tr]
    for side, path in (("L", left), ("R", right)):
        start = tr.source[0] if side == "L" else tr.source[1]
        end = tr.target[0] if side == "L" else tr.target[1]
        cur = start
        for (s, e, d, w) in path:
            assert s == cur
            cur = d
        assert cur == end
        # exactly one observable event per synchronized step
        obs = [t for t in path if aut.label(t[1]) is not None]
        assert len(obs) == 1
    # weights agree up to the silent zero-weight suffixes (which are zero)
    weight = lambda path: [sum(t[3][i] for t in path) for i in range(aut.k)]
    assert weight(left) == weight(right)


def test_cc_witnesses_replay_as_paths(aut_a1):
    cc = build_self_composition(aut_a1)
    check_witnesses(aut_a1, cc)


def test_cc_witnesses_replay_on_all_observable():
    raw = {
        "k": 1,
        "states": ["p", "q"],
        "initial": {"p": [0], "q": [0]},
        "events": {"a": "a", "b": "a"},
        "transitions": [("p", "a", "q", [1]), ("q", "b", "p", [1]),
                        ("q", "a", "q", [1])],
    }
    a = validate(raw)
    cc = build_self_composition(a)
    assert cc.stats["fast_path"]
    check_witnesses(a, cc)


def test_deciding_builds_no_silent_walks(monkeypatch):
    # silent loops 9973 and -9910: the walk of weight -1 that pairs (a, b)
    # has 3156 arcs, and the search for it visits about 5 million states
    raw = {
        "k": 1,
        "states": ["s", "p", "r"],
        "initial": {"s": [0]},
        "events": {"u": None, "v": None, "a": "a", "b": "a"},
        "transitions": [("s", "u", "s", [9973]), ("s", "v", "s", [-9910]),
                        ("s", "a", "p", [1]), ("s", "b", "r", [0]),
                        ("p", "a", "p", [0]), ("r", "a", "r", [0])],
    }

    def no_walk(self, u, v, z):
        raise AssertionError(f"walk {u}->{v} of weight {z} built while deciding")

    monkeypatch.setattr(WeightSetSolver, "witness_walk", no_walk)
    result = check_all(validate(raw))
    assert {p: v.status for p, v in result.verdicts.items()} == {
        "SD": FAILS, "SPD": FAILS, "WD": HOLDS, "WPD": HOLDS}
    cc = result.self_composition
    assert len(cc.witnesses) == len(cc.transitions) == 8
    monkeypatch.undo()
    # a pair is still built when read
    split = CCTransition(("p", "r"), ("a", "a"), ("p", "r"))
    assert cc.witnesses[split] == ((("p", "a", "p", (0,)),), (("r", "a", "r", (0,)),))


def test_witness_membership_builds_no_walks(monkeypatch):
    # (a, b) out of (s, s) pairs the silent walks of weights 0 and 1 that
    # the loops 97 and -91 make; membership reads the keys alone
    raw = {
        "k": 1,
        "states": ["s", "p", "r"],
        "initial": {"s": [0]},
        "events": {"u": None, "v": None, "a": "a", "b": "a"},
        "transitions": [("s", "u", "s", [97]), ("s", "v", "s", [-91]),
                        ("s", "a", "p", [1]), ("s", "b", "r", [0])],
    }
    cc = build_self_composition(scale_to_integers(normalize(validate(raw)))[0])
    walks = []
    walk = WeightSetSolver.witness_walk
    monkeypatch.setattr(WeightSetSolver, "witness_walk",
                        lambda self, *args: walks.append(args) or walk(self, *args))
    members = list(cc.transitions)
    assert CCTransition(("s", "s"), ("a", "b"), ("p", "r")) in members
    assert all(tr in cc.witnesses for tr in members)
    assert CCTransition(("s", "s"), ("a", "a"), ("p", "r")) not in cc.witnesses
    assert CCTransition(("p", "p"), ("a", "a"), ("p", "p")) not in cc.witnesses
    assert walks == []
    assert ("s", "s") not in cc.witnesses


def test_deciding_builds_no_k1_intersection(monkeypatch):
    # silent loops 3 and -2 at s: which prefix pairs synchronize is a
    # question about W(s, s) = Z only, and eps_meets answers it
    raw = {
        "k": 1,
        "states": ["s", "p", "r"],
        "initial": {"s": [0]},
        "events": {"u": None, "v": None, "a": "a", "b": "a"},
        "transitions": [("s", "u", "s", [3]), ("s", "v", "s", [-2]),
                        ("s", "a", "p", [1]), ("s", "b", "r", [0]),
                        ("p", "a", "p", [0]), ("r", "a", "r", [0])],
    }

    def no_intersection(s, t):
        raise AssertionError("intersection built while deciding")

    monkeypatch.setattr(estimator, "eps_intersect", no_intersection)
    result = check_all(validate(raw))
    assert {p: v.status for p, v in result.verdicts.items()} == {
        "SD": FAILS, "SPD": FAILS, "WD": HOLDS, "WPD": HOLDS}
    monkeypatch.undo()
    # each witness pair is built when read, and its two sides weigh the same
    cc = result.self_composition
    check_witnesses(result.automaton, cc)
    for left, right in cc.witnesses.values():
        assert sum(t[3][0] for t in left) == sum(t[3][0] for t in right)


def test_cc_witnesses_replay_on_random_instances():
    rng = random.Random(77)
    for _ in range(30):
        a = validate(random_automaton_raw(rng))
        check_witnesses(a, build_self_composition(a))


def random_automaton_raw(rng, n_states=4):
    states = [f"s{i}" for i in range(rng.randint(2, n_states))]
    events = {"u": None, "a": "x", "b": rng.choice(["x", "y"])}
    by_key = {}
    for _ in range(rng.randint(2, 10)):
        key = (rng.choice(states), rng.choice(list(events)), rng.choice(states))
        by_key.setdefault(key, key + ((rng.randint(-2, 2),),))
    return {
        "k": 1,
        "states": states,
        "initial": {q: [0] for q in rng.sample(states, rng.randint(1, len(states)))},
        "events": events,
        "transitions": list(by_key.values()),
    }


def test_mirror_symmetry_on_random_instances():
    rng = random.Random(11)
    for _ in range(25):
        a = validate(random_automaton_raw(rng))
        cc = build_self_composition(a)
        arcs = arcs_of(cc)
        for (s, ev, t) in arcs:
            mirrored = ((s[1], s[0]), (ev[1], ev[0]), (t[1], t[0]))
            assert mirrored in arcs, (a, (s, ev, t))


def test_diagonal_soundness_on_random_instances():
    rng = random.Random(13)
    for _ in range(25):
        a = validate(random_automaton_raw(rng))
        cc = build_self_composition(a)
        # states entered by an observable arc from a reachable state
        entered = set()
        frontier = set(a.initial)
        seen = set(frontier)
        while frontier:
            q = frontier.pop()
            for (s, e, d, w) in a.arcs_from[q]:
                if a.label(e) is not None:
                    entered.add(d)
                if d not in seen:
                    seen.add(d)
                    frontier.add(d)
        for q in entered:
            assert (q, q) in cc.states, (a, q)


def test_sd_verdicts_on_corpus(aut_a1, aut_a0):
    assert check_sd(aut_a1).status == HOLDS
    v0 = check_sd(aut_a0)
    assert v0.status == FAILS
    assert v0.witness["split_state"] in {("q3", "q4"), ("q4", "q3")}


def test_sd_fails_iff_subset_sums():
    with_solution = validate(chain_description((2, 3), 5))
    without = validate(chain_description((2, 4), 5))
    assert check_sd(with_solution).status == FAILS
    assert check_sd(without).status == HOLDS


def reference_check_sd(a, cc):
    """check_sd by the three-pass definition, over cc.transitions: the
    composition's cycle states, the split states reachable from them, and
    the cycle states that reach a split state are the anchors."""
    succ = {s: [] for s in cc.states}
    for t in sorted(cc.transitions, key=lambda t: (t.source, t.events, t.target)):
        succ[t.source].append(t)
    steps = lambda v: [(t, t.target) for t in succ[v]]
    targets = lambda v: (t.target for t in succ[v])
    a_steps = lambda q: [(t, t[2]) for t in a.arcs_from[q]]
    a_reachers = can_reach(a.states, lambda q: (t[2] for t in a.arcs_from[q]), a.cycle_states)
    cycle_states = states_on_cycles(cc.states, targets)
    split = {s for s in reachable(cycle_states, targets) if s[0] != s[1] and s[0] in a_reachers}
    anchors = cycle_states & can_reach(cc.states, targets, split)
    if not anchors:
        if cc.unknown_queries:
            return anchors, Verdict(SD, UNKNOWN, None,
                                    "self-composition has possibly-missing transitions")
        return anchors, Verdict(SD, HOLDS, None)
    q1p = min(anchors)
    split_path, q2p = find_path(steps, q1p, split)
    start, access = next((s, p) for s in sorted(cc.initial) if (p := find_path(steps, s, {q1p})))
    a_path, anchor = find_path(a_steps, q2p[0], a.cycle_states)
    edges = lambda path: [t for (_, t, _) in path]
    return anchors, Verdict(SD, FAILS, {
        "kind": "self-composition-lasso",
        "origin": start,
        "cc_access": edges(access[0]),
        "cc_cycle": edges(find_cycle(steps, q1p)),
        "cc_split_path": edges(split_path),
        "split_state": q2p,
        "a_path_to_cycle": edges(a_path),
        "a_cycle": edges(find_cycle(a_steps, anchor)),
    })


def reference_first_anchor_sd(a, cc):
    """check_sd by its definition as a search: a recursive depth-first
    search over cc.transitions from the initial pairs in sorted order that
    numbers the states it visits and keeps a stack of roots, one per part
    of an open component, each with the number it starts at, whether it
    holds a cycle and whether it reaches a split state (Couvreur, FM 1999).
    It stops the moment the top root is both; the least visited state of
    that part, numbered from its root on and not yet in a closed
    component, anchors the witness, whose paths are searched among the
    states the search visited."""
    succ = {s: [] for s in cc.states}
    for t in sorted(cc.transitions, key=lambda t: (t.source, t.events, t.target)):
        succ[t.source].append(t)
    a_reachers = can_reach(a.states, lambda q: (t[2] for t in a.arcs_from[q]), a.cycle_states)
    split = lambda s: s[0] != s[1] and s[0] in a_reachers
    index, closed, reaching, roots = {}, set(), set(), []

    def part():
        return {s for s in index if s not in closed and index[s] >= roots[-1][0]}

    def visit(v):
        index[v] = len(index)
        roots.append([index[v], False, split(v)])
        for t in succ[v]:
            w = t.target
            if w in index and w not in closed:
                while roots[-1][0] > index[w]:
                    _, _, reaches = roots.pop()
                    roots[-1][2] |= reaches
                roots[-1][1] = True
            elif w not in index and (found := visit(w)) is not None:
                return found
            if w in reaching:
                roots[-1][2] = True
            if roots[-1][1] and roots[-1][2]:
                return min(part())
        if roots[-1][0] == index[v]:
            comp = part()
            closed.update(comp)
            if roots.pop()[2]:
                reaching.update(comp)
        return None

    anchor = None
    for root in sorted(cc.initial):
        if root not in index and (anchor := visit(root)) is not None:
            break
    if anchor is None:
        if cc.unknown_queries:
            return Verdict(SD, UNKNOWN, None, "self-composition has possibly-missing transitions")
        return Verdict(SD, HOLDS, None)
    steps = lambda v: [(t, t.target) for t in succ[v] if t.target in index]
    a_steps = lambda q: [(t, t[2]) for t in a.arcs_from[q]]
    split_path, q2p = find_path(steps, anchor, {s for s in index if split(s)})
    start, access = next((s, p) for s in sorted(cc.initial)
                         if s in index and (p := find_path(steps, s, {anchor})))
    a_path, a_anchor = find_path(a_steps, q2p[0], a.cycle_states)
    edges = lambda path: [t for (_, t, _) in path]
    return Verdict(SD, FAILS, {
        "kind": "self-composition-lasso",
        "origin": start,
        "cc_access": edges(access[0]),
        "cc_cycle": edges(find_cycle(steps, anchor)),
        "cc_split_path": edges(split_path),
        "split_state": q2p,
        "a_path_to_cycle": edges(a_path),
        "a_cycle": edges(find_cycle(a_steps, a_anchor)),
    })


def check_sd_witness(a, cc, witness):
    """The lasso's edges are composition transitions that chain from the
    origin through the cycle, which returns to its start, to a split state,
    and each edge's pair of paths replays."""
    at = witness["origin"]
    for part in ("cc_access", "cc_cycle", "cc_split_path"):
        start = at
        for tr in witness[part]:
            assert tr.source == at and tr in cc.transitions, (part, tr)
            check_witness(a, cc, tr)
            at = tr.target
        if part == "cc_cycle":
            assert witness[part] and at == start
    assert at == witness["split_state"] and at[0] != at[1]


def test_one_pass_anchors_match_three_pass_reference():
    # k = 2 compositions are built with a budget of 10^5 nodes, which keeps
    # draws 17 and 39 to seconds and gives every draw its default SD
    # status; the deciders read the same composition, and the search that
    # explores it on the fly (check_all's call) answers the same
    draws = [(a, 10 ** 6) for a in AUTOMATA.values()]
    draws += [(random_automaton(seed, k=2), 10 ** 5) for seed in range(60)]
    statuses = set()
    for a, budget in draws:
        a = scale_to_integers(normalize(a))[0]
        cc = build_self_composition(a, budget)
        anchors, expected = reference_check_sd(a, cc)
        verdict = check_sd(a, cc)
        assert verdict.status == expected.status
        assert json.dumps(verdict.to_json()) == json.dumps(reference_first_anchor_sd(a, cc).to_json())
        assert json.dumps(check_sd(a, budget=budget).to_json()) == json.dumps(verdict.to_json())
        if verdict.status == FAILS:
            assert verdict.witness["cc_cycle"][0].source in anchors
            check_sd_witness(a, cc, verdict.witness)
        statuses.add(verdict.status)
    assert statuses == {HOLDS, FAILS, UNKNOWN}


def test_failed_search_with_unknown_queries_is_unknown():
    # the search ends without an anchor, but some product queries ran out
    # of budget, so a transition may be missing: UNKNOWN, never HOLDS
    for seed, k in ((17, 2), (39, 2), (17, 3)):
        a = random_automaton(seed, k=k)
        assert check_all(a, 10 ** 5).verdicts[SD].status == UNKNOWN
        prepared = scale_to_integers(normalize(a))[0]
        cc = build_self_composition(prepared, 10 ** 5)
        assert check_sd(prepared, cc).status == UNKNOWN


def test_check_all_explores_part_of_the_composition(monkeypatch):
    # robot: SD fails on a cycle that the search closes before it reaches
    # most of the composition, which is built whole only when it is read
    visited = []
    successors = selfcomp._Expander.successors
    monkeypatch.setattr(selfcomp._Expander, "successors",
                        lambda self, state: visited.append(state) or successors(self, state))
    a = load_fixture("robot").automaton
    result = check_all(a)
    assert result.verdicts[SD].status == FAILS
    explored = set(visited)
    assert len(explored) == len(visited)
    whole = build_self_composition(result.automaton)
    assert len(explored) < len(whole.states)
    assert io.selfcomp_to_json(result.self_composition, result.scale) \
        == io.selfcomp_to_json(whole, result.scale)
    check_sd_witness(result.automaton, result.self_composition, result.verdicts[SD].witness)


def test_robot_sd_search_stops_at_the_first_cycle_it_sees(monkeypatch):
    # the search reports a cycle that reaches a split candidate the moment
    # it sees it, 6 states in, not when its component closes (67 states)
    visited = []
    successors = selfcomp._Expander.successors
    monkeypatch.setattr(selfcomp._Expander, "successors",
                        lambda self, state: visited.append(state) or successors(self, state))
    a = scale_to_integers(normalize(load_fixture("robot").automaton))[0]
    assert check_sd(a).status == FAILS
    assert len(visited) == len(set(visited)) == 6


def test_check_all_sd_equals_the_built_route():
    for a in AUTOMATA.values():
        prepared = scale_to_integers(normalize(a))[0]
        built = check_sd(prepared, build_self_composition(prepared))
        assert json.dumps(check_all(a).verdicts[SD].to_json()) == json.dumps(built.to_json())


def test_deciding_sd_builds_no_transition_objects(monkeypatch):
    # the composition keeps (events, target) keys; only the edges of the
    # SD witness paths become CCTransition objects
    made = []

    def counted(*args):
        made.append(CCTransition(*args))
        return made[-1]

    monkeypatch.setattr(selfcomp, "CCTransition", counted)
    for a, status in ((load_fixture("robot").automaton, FAILS), (validate(A1_description()), HOLDS)):
        made.clear()
        sd = check_all(a).verdicts["SD"]
        assert sd.status == status
        parts = ("cc_access", "cc_cycle", "cc_split_path")
        witness_edges = [t for part in parts for t in sd.witness[part]] if sd.witness else []
        assert made == witness_edges


def test_synchronizer_built_only_when_a_total_is_none():
    # the table builds product arcs and keeps walk-query answers only once
    # a pair with a None total asks it, so a build that never asks keeps
    # no unknown queries
    silent_without = silent_with = 0
    for seed in range(40):
        if seed in (17, 39):
            continue
        a = scale_to_integers(normalize(random_automaton(seed, k=2)))[0]
        cc = build_self_composition(a)
        table = tables(a)
        assert bool(table.products) == bool(table.answers)
        if table.answers:
            silent_with += 1
        else:
            assert cc.unknown_queries == ()
            silent_without += bool(a.unobs_transitions)
    assert silent_without >= 5 and silent_with >= 1, (silent_without, silent_with)


def product_automaton(a, q1, q2):
    """The asynchronous product of the kept silent arcs of a from
    (q1, q2), left moves keeping their weight and right moves negated, as
    a silent automaton on the states repr((p1, p2))."""
    reach = lambda q: reachable([q], lambda p: (t[2] for t in a.silent_arcs[p]))
    lefts, rights = sorted(reach(q1)), sorted(reach(q2))
    arcs = []
    for (s, _, d, w) in tables(a).kept:
        if s in lefts and d in lefts:
            arcs += [(repr((s, p2)), w, repr((d, p2))) for p2 in rights]
        if s in rights and d in rights:
            arcs += [(repr((p1, s)), tuple(-x for x in w), repr((p1, d))) for p1 in lefts]
    return silent_automaton(a.k, [repr((p1, p2)) for p1 in lefts for p2 in rights], arcs)


def test_sync_memo_answers_as_fresh_queries():
    # k = 2 draws with the default and with a mostly silent event mix, and
    # the robot fixture (k = 4); seed 17 of both and seed 39 of the first
    # take seconds and are left out.  Same-label pairs whose totals are both
    # finite are decided by the table (estimator.tables), the others by
    # the product graph, one answer per key: both routes must agree with a
    # fresh product query.
    seen = []
    routes = {"rows": 0, "product": 0}
    draws = [random_automaton(seed, k=2) for seed in range(40) if seed not in (17, 39)]
    draws += [random_automaton(seed, k=2, unobs_fraction=0.6) for seed in range(40)
              if seed != 17]
    draws.append(scale_to_integers(normalize(load_fixture("robot").automaton))[0])
    for a in draws:
        cc = build_self_composition(a)
        table = tables(a)
        answers, asked = [], set()
        for q1, q2 in sorted(cc.states):
            for arc1 in table[q1][0]:
                for arc2 in table[q2][1].get(arc1[1], ()):
                    (t1, _, p1), (t2, _, p2) = arc1, arc2
                    met = table.meets(p1, p2)
                    key = (q1, q2, t1[0], t2[0], tuple(y - x for x, y in zip(t1[3], t2[3])))
                    if met is None:
                        # the memo's own answer, under the budget it was kept for
                        asked.add(((q1, q2), key[2:4], key[4]))
                        budget = table.answers[(q1, q2), key[2:4], key[4]][1]
                        answers.append((key, table.sync(q1, q2, t1, t2, budget), "product"))
                    else:
                        answer = partial(table.prefixes, q1, arc1, q2, arc2) if met else None
                        answers.append((key, answer, "rows"))
        assert asked == set(table.answers)
        fresh_status = {}
        for key, answer, route in answers:
            q1, q2, s1, s2, z = key
            routes[route] += 1
            if key not in fresh_status:
                arcs = product_automaton(a, q1, q2).unobs_transitions
                fresh_status[key] = has_path_with_weight(
                    arcs, repr((q1, q2)), repr((s1, s2)), z).status
            fresh = fresh_status[key]
            status = ("NO" if answer is None else
                      "UNKNOWN" if answer == "UNKNOWN" else "YES")
            assert status == fresh, (a, q1, q2, s1, s2, z)
            if status == "YES":
                left, right = answer()
                for cur, end, walk in ((q1, s1, left), (q2, s2, right)):
                    for (s, e, d, w) in walk:
                        assert s == cur and a.label(e) is None
                        cur = d
                    assert cur == end
                total = [sum(t[3][i] for t in left) - sum(t[3][i] for t in right)
                         for i in range(a.k)]
                assert tuple(total) == z, (a, total, z)
            seen.append(status)
    assert seen.count("YES") > 10 and seen.count("NO") > 10, seen
    assert min(routes.values()) >= 10, routes
