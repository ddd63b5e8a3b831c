import random
import time
from fractions import Fraction

import pytest

from wadet import check_all, epl, validate
from wadet.epl import EplAnswer, _Budget, has_path_with_weight, WeightSetSolver
from wadet.epset import EPSet, eps_shift, eps_union_many

from graph_reference import (can_reach, enumerate_walk_weights, reachable, replay_walk,
                             silent_automaton, walk_weight)
from test_epset import nspan


def fewest_arcs(g, u, v, z, max_len=12):
    """First step at which enumerate_walk_weights reaches (v, z), or None."""
    return next((n for n in range(max_len + 1)
                 if z in enumerate_walk_weights(g.unobs_transitions, u, n)[v]), None)


def ref_weight_set(g, u, v):
    """Walk weights u -> v by decomposition: every walk is a simple path
    plus simple cycles that attach, transitively, to its vertex set; the
    repeatable part is the N-span of the cycle weights inside the final
    vertex set.  Exponential in the size of a strongly connected part."""
    succ = g.silent_arcs
    heads = lambda x: (t[2] for t in succ[x])
    region = reachable([u], heads) & can_reach(g.states, heads, [v])

    def simple(start, stop_at, anchor=None):
        """(vertex set, weight) of simple walks from start to stop_at(h);
        with an anchor, only through vertices ordered after it."""
        found, layer = set(), {(start, frozenset([start])): {0}}
        while layer:
            nxt = {}
            for (cur, seen), weights in layer.items():
                for t in succ[cur]:
                    h, shifted = t[2], {w + t[3][0] for w in weights}
                    if stop_at(h):
                        found.update((seen | {h}, w) for w in shifted)
                    elif h in region and h not in seen and (anchor is None or order[h] > anchor):
                        nxt.setdefault((h, seen | {h}), set()).update(shifted)
            layer = nxt
        return found

    order = {x: i for i, x in enumerate(sorted(region, key=repr))}
    cycles = set()
    for x in region:
        cycles |= simple(x, lambda h, x=x: h == x, order[x])
    paths = {(frozenset([u]), 0)} if u == v else simple(u, lambda h: h == v)
    pieces = []
    for (pvs, pw) in paths:
        states, frontier = {(pvs, 0)}, [(pvs, 0)]
        while frontier:  # insert cycles that meet the vertex set and grow it
            nxt = []
            for (vs, base) in frontier:
                for (cvs, cw) in cycles:
                    state = (vs | cvs, base + cw)
                    if cvs & vs and not cvs <= vs and state not in states:
                        states.add(state)
                        nxt.append(state)
            frontier = nxt
        for (vs, base) in states:
            gens = [cw for (cvs, cw) in cycles if cvs <= vs]
            pieces.append(eps_shift(nspan(gens), pw + base))
    return eps_union_many(pieces)


# -- hand-checked examples ----------------------------------------------------


def test_isolated_vertex_self_set_is_zero():
    g = silent_automaton(1, ["v"], [])
    assert WeightSetSolver(g).weight_set("v", "v") == EPSet.finite([0])


def test_positive_self_loop_gives_naturals():
    # the unobservable part of a state with a weight-1 self-loop
    g = silent_automaton(1, ["q1"], [("q1", 1, "q1")])
    s = WeightSetSolver(g).weight_set("q1", "q1")
    brute = enumerate_walk_weights(g.unobs_transitions, "q1", 12)["q1"]
    assert {n for n in range(-40, 41) if n in s} == {n for n in range(13)} | set(range(13, 41))
    assert brute <= {n for n in range(0, 50) if n in s}


def test_product_graph_difference_contains_zero():
    # asynchronous product of a 10/1-weighted unobservable fan with itself,
    # right-hand weights negated
    base = [("q0", 10, "q1"), ("q0", 1, "q2"), ("q2", 1, "q2")]
    verts = ["q0", "q1", "q2"]
    pverts = [f"{a}|{b}" for a in verts for b in verts]
    parcs = []
    for (a, w, b) in base:
        for other in verts:
            parcs.append((f"{a}|{other}", w, f"{b}|{other}"))   # left move keeps weight
            parcs.append((f"{other}|{a}", -w, f"{other}|{b}"))  # right move negated
    g = silent_automaton(1, pverts, parcs)
    s = WeightSetSolver(g).weight_set("q0|q0", "q1|q2")
    assert 0 in s


def test_has_path_self_loop_minus_one():
    # k = 1 walk questions go to the weight-set solver, not the k > 1 search
    g = silent_automaton(1, ["x"], [("x", 1, "x"), ("x", -1, "x")])
    with pytest.raises(ValueError, match="WeightSetSolver"):
        has_path_with_weight(g.unobs_transitions, "x", "x", (-1,))
    walk = WeightSetSolver(g).witness_walk("x", "x", -1)
    assert len(walk) == 1 and walk[0][3] == (-1,)


def test_has_path_no_outgoing_is_no():
    g = silent_automaton(1, ["u", "v"], [("v", 1, "v")])
    assert WeightSetSolver(g).witness_walk("u", "v", 5) is None


def test_has_path_two_dimensional_chain():
    g = silent_automaton(2, ["u", "m", "v"],
                         [("u", (1, 0), "m"), ("m", (0, 1), "v")]).unobs_transitions
    ans = has_path_with_weight(g, "u", "v", (1, 1))
    assert ans.status == "YES"
    assert walk_weight(ans.walk, 2) == (1, 1)
    assert replay_walk(ans.walk, "u", "v")
    assert has_path_with_weight(g, "u", "v", (2, 1)).status == "NO"


def test_empty_walk_answers_zero_vector():
    assert has_path_with_weight((), "u", "u", (0, 0)).status == "YES"
    assert has_path_with_weight((), "u", "u", (1, 0)).status == "NO"


def test_non_integral_entries_are_refused_not_truncated():
    g = silent_automaton(2, ["u", "v"], [("u", (1, 0), "v")]).unobs_transitions
    for target in ((Fraction(3, 2), 0), (1.9, 0), (Fraction(1), 0)):
        with pytest.raises(ValueError, match="ints"):
            has_path_with_weight(g, "u", "v", target)
    for weight in ((Fraction(3, 2), 0), (Fraction(1), 0), (1.0, 0), (1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="ints"):
            has_path_with_weight([("u", "e", "v", weight)], "u", "v", (1, 0))
    # the weight sets are read off a prepared automaton only
    with pytest.raises(ValueError, match="ints"):
        WeightSetSolver(silent_automaton(1, ["u", "v"], [("u", Fraction(3, 2), "v")]))


# -- randomized agreement with brute force -------------------------------


def random_graph(rng, max_vertices=6, weight_range=(-3, 3)):
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    arcs = []
    for _ in range(rng.randint(0, 2 * n)):
        arcs.append((rng.choice(verts), rng.randint(*weight_range), rng.choice(verts)))
    return silent_automaton(1, verts, arcs)


@pytest.mark.parametrize("seed", range(40))
def test_weight_set_matches_walk_enumeration(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    u = rng.choice(sorted(g.states))
    solver = WeightSetSolver(g)
    brute = enumerate_walk_weights(g.unobs_transitions, u, 12)
    for v in sorted(g.states):
        s = solver.weight_set(u, v)
        for w in range(-36, 37):
            if w in brute[v]:
                assert w in s, (g, u, v, w)
            elif w in s:
                # claimed but not reached in 12 steps: a witness walk must replay
                walk = solver.witness_walk(u, v, w)
                assert replay_walk(walk, u, v)
                assert walk_weight(walk, 1) == (w,)


# (graph, u, v, {member weight: fewest arcs of a walk}, non-member weights)
HAND_WALKS = {
    # the only walk leaves any window around z = 0 by 1000
    "far-excursion": (silent_automaton(1, ["u", "m", "v"],
                                       [("u", 1000, "m"), ("m", -1000, "v")]),
                      "u", "v", {0: 2}, [1, 1000]),
    # 89 is the Frobenius number of {10, 11}; 1001 = 91 * 11
    "past-frobenius": (silent_automaton(1, ["x"], [("x", 10, "x"), ("x", 11, "x")]),
                       "x", "x", {0: 0, 90: 9, 1001: 91}, [89, -10]),
    # 1 = 78 * 97 - 85 * 89 and -1 = 11 * 97 - 12 * 89, both with the fewest loops
    "mixed-loops": (silent_automaton(1, ["x"], [("x", 97, "x"), ("x", -89, "x")]),
                    "x", "x", {1: 163, -1: 23, 8: 2}, []),
}


def walk_case(case):
    if case in HAND_WALKS:
        return HAND_WALKS[case]
    rng = random.Random(1000 + case)
    g = random_graph(rng, max_vertices=5)
    u, v = rng.choice(sorted(g.states)), rng.choice(sorted(g.states))
    s = WeightSetSolver(g).weight_set(u, v)
    hits = [w for w in range(-30, 31) if w in s][:12]
    misses = [w for w in range(-30, 31) if w not in s][:4]
    return g, u, v, {w: fewest_arcs(g, u, v, w) for w in hits}, misses


@pytest.mark.parametrize("seed", [*range(25), *HAND_WALKS])
def test_witness_walks_replay(seed):
    g, u, v, members, non_members = walk_case(seed)
    solver = WeightSetSolver(g)
    s = solver.weight_set(u, v)
    for w in non_members:
        assert w not in s and solver.witness_walk(u, v, w) is None
    for w, arcs in members.items():
        walk = solver.witness_walk(u, v, w)
        assert replay_walk(walk, u, v) and walk_weight(walk, 1) == (w,)
        if arcs is not None:  # known within 12 steps, or by hand
            assert len(walk) == arcs, (w, walk)


def test_self_weight_set_contains_zero_always():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng)
        u = rng.choice(sorted(g.states))
        assert 0 in WeightSetSolver(g).weight_set(u, u)


# -- N-span witnesses: walks on a bouquet (one vertex, one loop per generator) --


def bouquet_walk(generators, target):
    g = silent_automaton(1, ["x"], [("x", w, "x") for w in generators])
    return WeightSetSolver(g).witness_walk("x", "x", target)


@pytest.mark.parametrize("seed", range(60))
def test_nspan_witness_sums_correctly(seed):
    rng = random.Random(seed)
    gens = [rng.randint(-8, 8) for _ in range(rng.randint(1, 4))]
    target = rng.randint(-120, 120)
    walk = bouquet_walk(gens, target)
    assert (walk is None) == (target not in nspan(gens))
    if walk is not None:
        assert all(t[3][0] in gens for t in walk)
        assert sum(t[3][0] for t in walk) == target


def test_nspan_witness_large_positive_target():
    walk = bouquet_walk([3, 5], 10 ** 6 + 1)
    assert sum(t[3][0] for t in walk) == 10 ** 6 + 1
    assert len(walk) == 2 + 199999  # two 3s, the rest 5s
    assert bouquet_walk([4, 6], 7) is None
    assert bouquet_walk([], 0) == ()
    assert bouquet_walk([], 3) is None


# -- the SCC engine against the decomposition -----------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_weight_sets_equal_decomposition(seed):
    rng = random.Random(seed)
    for _ in range(60):
        g = random_graph(rng, max_vertices=5, weight_range=(-9, 9))
        solver = WeightSetSolver(g)
        for u in sorted(g.states):
            for v in sorted(g.states):
                assert solver.weight_set(u, v) == ref_weight_set(g, u, v), (g, u, v)


def probe_arcs(n, mixed):
    """Complete silent digraph on s0..s{n-1}; positive or mixed-sign weights."""
    return [(f"s{i}", (37 * i + 101 * j) % 97 + (-48 if mixed else 1), f"s{j}")
            for i in range(n) for j in range(n) if i != j]


@pytest.mark.parametrize("mixed", [False, True], ids=["positive", "mixed"])
def test_complete_silent_digraph_of_seven(mixed):
    # one silent SCC of 7 states: the decomposition enumerates its simple
    # cycles, paths and chain states, and did not finish within 100 s
    arcs = probe_arcs(7, mixed)
    a = validate({"k": 1, "states": [f"s{i}" for i in range(7)], "initial": {"s0": (0,)},
                  "events": {"u": None, "a": "a"},
                  "transitions": [(s, "u", d, (w,)) for (s, w, d) in arcs]
                  + [("s0", "a", "s1", (1,)), ("s6", "a", "s0", (2,))]})
    start = time.perf_counter()
    check_all(a)
    assert time.perf_counter() - start < 2
    g = silent_automaton(1, [f"s{i}" for i in range(7)], arcs)
    solver = WeightSetSolver(g)
    brute = enumerate_walk_weights(g.unobs_transitions, "s0", 12)
    for v in sorted(g.states):
        s = solver.weight_set("s0", v)
        assert all(w in s for w in brute[v]), v
        for w in range(-100, 101):
            if w in s and w not in brute[v]:
                walk = solver.witness_walk("s0", v, w)
                assert replay_walk(walk, "s0", v) and walk_weight(walk, 1) == (w,)


# -- chained one-sign silent SCCs C(W) ----------------------------------------------


def chained_arcs(W, sign=1):
    """The silent arcs of C(W), weights times sign: loops W and W + 1 at p,
    p -> q of weight 0, loops W + 7 and W + 11 at q."""
    return [("p", sign * W, "p"), ("p", sign * (W + 1), "p"), ("p", 0, "q"),
            ("q", sign * (W + 7), "q"), ("q", sign * (W + 11), "q")]


def bounded_weights(arcs, u, bound):
    """Per vertex, the weights of the walks from u within [-bound, bound],
    breadth-first over (vertex, weight) states.  With arc weights of one
    sign, every prefix of such a walk stays within the bound too."""
    seen, frontier = {(u, 0)}, {(u, 0)}
    while frontier:
        frontier = {(h, w + dw) for x, w in frontier for t, dw, h in arcs
                    if t == x and abs(w + dw) <= bound} - seen
        seen |= frontier
    reach = {}
    for x, w in seen:
        reach.setdefault(x, set()).add(w)
    return reach


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("W", range(6, 17))
def test_chained_silent_rows_match_bounded_search(W, sign):
    # W(p, q) adds the progressions of q's SCC to the infinite set of p's;
    # the bound is past the largest gap of either SCC
    arcs = chained_arcs(W, sign)
    bound = 2 * (W + 7) * (W + 11)
    solver = WeightSetSolver(silent_automaton(1, ["p", "q"], arcs))
    for u in ("p", "q"):
        reach = bounded_weights(arcs, u, bound)
        for v in ("p", "q"):
            s = solver.weight_set(u, v)
            assert {n for n in range(-bound, bound + 1) if n in s} == reach.get(v, set())


def test_check_all_on_chained_silent_sccs_is_fast():
    # C(40) with observable q -a/1-> r, q -a/2-> p and r -a/3-> p: the
    # general sumset of progression pairs gave no answer in 300 s
    events = {"u": None, "v": None, "a": "a"}
    silent = [(t, "u" if i % 2 == 0 else "v", h, (w,))
              for i, (t, w, h) in enumerate(chained_arcs(40))]
    a = validate({"k": 1, "states": ["p", "q", "r"], "initial": {"p": (0,)}, "events": events,
                  "transitions": silent + [("q", "a", "r", (1,)), ("q", "a", "p", (2,)),
                                           ("r", "a", "p", (3,))]})
    start = time.perf_counter()
    result = check_all(a)
    assert time.perf_counter() - start < 1
    assert {p: v.status for p, v in result.verdicts.items()} == \
        {"SD": "FAILS", "SPD": "FAILS", "WD": "HOLDS", "WPD": "HOLDS"}


# -- the k > 1 probe: an exhausted, unpruned probe decides NO ----------------------


def count_support_calls(monkeypatch, fail=False):
    """Patch epl._solve_support to count its calls, or to fail on any."""
    calls = []
    original = epl._solve_support

    def solve(*args):
        if fail:
            raise AssertionError("support search reached")
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(epl, "_solve_support", solve)
    return calls


def test_exhausted_probe_answers_no(monkeypatch):
    count_support_calls(monkeypatch, fail=True)
    # a zero-weight cycle: the probe's states close after three steps
    g = silent_automaton(2, ["x", "y"],
                         [("x", (1, -1), "y"), ("y", (-1, 1), "x")]).unobs_transitions
    assert has_path_with_weight(g, "x", "y", (2, -2)).status == "NO"
    assert has_path_with_weight(g, "x", "x", (1, 0)).status == "NO"
    chain = silent_automaton(2, ["u", "m", "v"],
                             [("u", (1, 0), "m"), ("m", (0, 1), "v")]).unobs_transitions
    assert has_path_with_weight(chain, "u", "v", (2, 1)).status == "NO"


def test_window_pruned_probe_falls_back_to_supports(monkeypatch):
    calls = count_support_calls(monkeypatch)
    # the only walk leaves the probe's window around z = 0 by 1000
    g = silent_automaton(2, ["u", "m", "v"],
                         [("u", (1000, 0), "m"), ("m", (-1000, 0), "v")]).unobs_transitions
    ans = has_path_with_weight(g, "u", "v", (0, 0))
    assert ans.status == "YES" and calls
    assert replay_walk(ans.walk, "u", "v") and walk_weight(ans.walk, 2) == (0, 0)


def test_window_pruned_no_is_still_correct(monkeypatch):
    calls = count_support_calls(monkeypatch)
    g = silent_automaton(2, ["u", "m", "v"],
                         [("u", (1000, 0), "m"), ("m", (-1000, 0), "v")]).unobs_transitions
    assert has_path_with_weight(g, "u", "v", (1, 0)).status == "NO"
    assert calls


def test_probe_spends_the_shared_budget():
    # the probe reaches the weights (c, 0) with |c| <= 64, two arcs per
    # state, and stops at its length bound; the support search answers
    g = silent_automaton(2, ["x"], [("x", (1, 0), "x"), ("x", (-1, 0), "x")]).unobs_transitions
    budget = _Budget(10 ** 6)
    assert has_path_with_weight(g, "x", "x", (0, 1), budget).status == "NO"
    assert budget.nodes < 10 ** 6 - 2 * 127
    # the probe alone spends more than 100 nodes, which leaves the support
    # search nothing
    small = _Budget(100)
    assert has_path_with_weight(g, "x", "x", (0, 1), small).status == "UNKNOWN"
