import random
from itertools import combinations

import pytest

from wadet import epset, estimator, io
from wadet.corpus import load_fixture, random_automaton
from wadet.epl import digraph, has_path_with_weight
from wadet.epset import (
    EPSet,
    eps_intersect,
    eps_min_abs_witness,
    eps_union,
    eps_union_many,
)
from wadet.estimator import (
    EstTransition,
    build_detector,
    build_observer,
    estimate_step,
    successor_cells,
)
from wadet.model import instantaneous_closure, normalize, scale_to_integers, validate
from wadet.oracle import _deltas_of, oracle_estimate, oracle_runs
from wadet.selfcomp import build_self_composition, check_sd
from wadet.verify import check_all, check_spd

from conftest import A0_description, A1_description
from test_model import chain_description
from test_epset import eps_complement
from test_selfcomp import random_automaton_raw
from test_structure_digests import AUTOMATA


def arcs(est):
    return {(t.source, t.symbol, t.weight, t.target) for t in est.transitions}


# -- successor cells ------------------------------------------------------


def test_cells_a0_initial(aut_a0):
    cells = successor_cells(aut_a0, {"q0"}, "a")
    by_target = {tuple(sorted(t)): (cell, w) for (t, cell, w) in cells}
    assert set(by_target) == {("q3", "q4"), ("q4",)}
    cell_34, w_34 = by_target[("q3", "q4")]
    assert cell_34 == EPSet.finite([11]) and w_34 == 11
    cell_4, w_4 = by_target[("q4",)]
    assert w_4 == 2
    assert {n for n in range(-5, 40) if n in cell_4} == set(range(2, 40)) - {11}


def test_cells_a1_pair(aut_a1):
    cells = successor_cells(aut_a1, {"q1", "q2"}, "rho")
    assert len(cells) == 1
    target, cell, witness = cells[0]
    assert target == {"q3"} and witness == 1
    assert {n for n in range(-10, 50) if n in cell} == set(range(1, 50))


def test_cells_empty_when_no_targets(aut_a1):
    assert successor_cells(aut_a1, {"q3"}, "rho") != []  # q3 reaches q4's loop
    assert successor_cells(aut_a1, {"q4"}, "zeta") == []  # no such label anywhere


# every entry point that reads estimator.tables, called on an unscaled automaton
REFUSING = {
    "successor_cells": lambda a: successor_cells(a, {"p"}, "a"),
    "successor_steps": lambda a: estimator.successor_steps(a, estimator._whole),
    "estimate_step": lambda a: estimate_step(a, {"p"}, "a", (1,)),
    "build_self_composition": build_self_composition,
    "build_observer": build_observer,
    "build_detector": build_detector,
    "check_sd": check_sd,
    "check_spd": check_spd,
}


@pytest.mark.parametrize("entry", sorted(REFUSING))
def test_unscaled_automaton_is_refused(entry):
    # no answer at all before integer scaling: the silent weight 1/2 would
    # otherwise be read as 0
    unscaled = validate({"k": 1, "states": ["p", "q", "r"], "initial": {"p": [0]},
                         "events": {"u": None, "a": "a"},
                         "transitions": [("p", "u", "q", ["1/2"]), ("q", "a", "r", [1])]})
    for _ in range(2):  # refused on every call, not only the first
        with pytest.raises(ValueError, match="integer-scale"):
            REFUSING[entry](unscaled)


def target_sets(a, x, sigma):
    """T(q2) per target q2 of sigma from x: the union of the pieces
    P(q, t) of the sigma-arcs t into q2."""
    tsets = {}
    for piece, q2 in estimator._successor_pieces(a, x, sigma):
        tsets[q2] = eps_union(tsets[q2], piece) if q2 in tsets else piece
    return tsets


def test_cells_partition_union_of_targets(aut_a0, aut_a1):
    for aut in (aut_a0, aut_a1):
        for x in [{"q0"}, {"q1", "q2"}, {"q3", "q4"}, set(aut.states)]:
            for sigma in aut.sigma:
                tsets = target_sets(aut, x, sigma)
                cells = successor_cells(aut, x, sigma)
                union_t = eps_union_many(list(tsets.values()))
                union_c = eps_union_many([c for (_, c, _) in cells])
                assert union_t == union_c
                for (_, c1, _), (_, c2, _) in combinations(cells, 2):
                    assert eps_intersect(c1, c2).is_empty()


def pattern_cells(a, x, sigma):
    """Test-only reference for successor_cells: one intersection of every
    T-set or its complement per nonempty pattern, 2^(distinct T-sets)
    patterns in all."""
    groups = {}
    for q2, s in sorted(target_sets(a, x, sigma).items()):
        groups.setdefault(s, []).append(q2)
    reps = sorted(groups.items(), key=lambda kv: sorted(kv[1]))
    out = []
    for pick in range(1, 1 << len(reps)):
        cell = None
        for i, (s, _) in enumerate(reps):
            part = s if pick >> i & 1 else eps_complement(s)
            cell = part if cell is None else eps_intersect(cell, part)
        if cell.is_empty():
            continue
        raw_target = {q2 for i, (_, qs) in enumerate(reps) if pick >> i & 1 for q2 in qs}
        out.append((instantaneous_closure(a, raw_target), cell, eps_min_abs_witness(cell)))
    out.sort(key=lambda c: (abs(c[2]), c[2] < 0, sorted(c[0])))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_refined_cells_equal_pattern_enumeration(seed):
    a = scale_to_integers(normalize(random_automaton(seed, k=1, unobs_fraction=0.5)))[0]
    estimates = set(build_observer(a).states) | {frozenset([q]) for q in a.states}
    for x in sorted(estimates, key=sorted):
        for sigma in sorted(a.sigma):
            assert successor_cells(a, x, sigma) == pattern_cells(a, x, sigma)


def fan(weights, silent_loop):
    """One state with a silent loop and one observable arc per weight, each
    to its own target."""
    return scale_to_integers(normalize(validate({
        "k": 1,
        "states": ["p"] + [f"t{i}" for i in range(len(weights))],
        "initial": {"p": [0]},
        "events": {"u": None, "a": "a"},
        "transitions": [("p", "u", "p", [silent_loop])]
        + [("p", "a", f"t{i}", [w]) for i, w in enumerate(weights)],
    })))[0]


def fan_draw(seed):
    """A fan of 2-10 drawn weights, some repeated, and its weights."""
    rng = random.Random(seed)
    weights = [rng.choice([0, 1, 2, 3, 5, 7, 12, -4]) for _ in range(rng.randint(2, 10))]
    return fan(weights, rng.choice([2, 3, 4, 6, -5])), weights


@pytest.mark.parametrize("seed", range(12))
def test_refined_cells_equal_pattern_enumeration_on_fans(seed):
    a, weights = fan_draw(seed)
    cells = successor_cells(a, {"p"}, "a")
    assert cells == pattern_cells(a, {"p"}, "a")
    # per residue class of the loop, each distinct weight opens one cell
    assert len(cells) == len(set(weights))


SILENT_DENSE = {
    "k": 1,
    "states": ["s0", "s1", "s2"],
    "initial": {"s0": [0]},
    "events": {"u": None, "a": "a", "b": "b"},
    "transitions": [("s0", "u", "s1", [2]), ("s0", "u", "s2", [3]), ("s1", "u", "s0", [1]),
                    ("s1", "u", "s2", [3]), ("s2", "u", "s0", [2]), ("s2", "u", "s1", [1]),
                    ("s0", "a", "s1", [0]), ("s1", "a", "s1", [2]), ("s2", "a", "s0", [1])]
    + [(q, "b", q, [1]) for q in ("s0", "s1", "s2")],
}


def test_successor_cells_sweep_the_cuts_once(monkeypatch):
    """Every menu comes from one sweep over the cuts of its pieces: no
    T-set union and no set operation per cell."""
    menus = [(fan_draw(seed)[0], frozenset(["p"]), "a") for seed in range(12)]
    dense = scale_to_integers(normalize(validate(SILENT_DENSE)))[0]
    menus += [(dense, x, sigma) for x in sorted(build_observer(dense).states, key=sorted)
              for sigma in sorted(dense.sigma)]
    for a, x, sigma in menus:
        successor_cells(a, x, sigma)  # the silent weight sets are solved once
    sweeps = []
    sweep = epset._sweep
    monkeypatch.setattr(epset, "_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    for a, x, sigma in menus:
        sweeps.clear()
        assert successor_cells(a, x, sigma) != []
        assert len(sweeps) == 1, (x, sigma)


def test_each_piece_is_shifted_once_per_automaton(monkeypatch):
    """The piece P(q, t) = W(q, s) + w of a state q and a usable observable
    arc t = s -e/w-> d is shifted once per automaton (estimator.tables)
    and read from there by the self-composition and by every menu."""
    shifts = []
    shift = estimator.eps_shift
    monkeypatch.setattr(estimator, "eps_shift", lambda s, c: shifts.append(c) or shift(s, c))
    for raw in (SILENT_DENSE, A0_description(), A1_description()):
        shifts.clear()
        a = check_all(validate(raw)).automaton
        pieces = sum(t[0] in a.silent_reach[q] for q in a.states for t in a.obs_transitions)
        assert 0 < len(shifts) <= pieces, (raw, len(shifts), pieces)


# -- observer -------------------------------------------------------------


def test_observer_of_a0_reproduces_known_picture(aut_a0):
    obs = build_observer(aut_a0)
    x0 = frozenset(["q0"])
    both = frozenset(["q3", "q4"])
    one = frozenset(["q4"])
    assert obs.initial == x0
    assert obs.states == {x0, both, one}
    assert arcs(obs) == {
        (x0, "a", 11, both),
        (x0, "a", 2, one),
        (both, "a", 1, both),
        (one, "a", 1, one),
    }
    cells = {(t.source, t.target): t.cell for t in obs.transitions}
    assert cells[(x0, both)] == EPSet.finite([11])
    hole = cells[(x0, one)]
    assert 11 not in hole and 2 in hole and 1 not in hole and 1000 in hole


def test_observer_of_a1_reproduces_known_picture(aut_a1):
    obs = build_observer(aut_a1)
    x0 = frozenset(["q0"])
    pair = frozenset(["q1", "q2"])
    q3 = frozenset(["q3"])
    q4 = frozenset(["q4"])
    assert arcs(obs) == {
        (x0, "rho", 1, pair),
        (pair, "rho", 1, q3),
        (q3, "rho", 2, q4),
        (q4, "rho", 1, q4),
    }


def test_observer_all_observable_is_subset_construction():
    raw = {
        "k": 1,
        "states": ["p", "q", "r"],
        "initial": {"p": [0]},
        "events": {"a": "a", "b": "a"},
        "transitions": [
            ("p", "a", "q", [1]),
            ("p", "b", "r", [2]),
            ("q", "a", "q", [1]),
            ("r", "a", "q", [1]),
        ],
    }
    a = validate(raw)
    obs = build_observer(a)
    # distinct weights separate the two branches; all cells are singletons
    assert all(t.cell == EPSet.finite([t.weight]) for t in obs.transitions)
    assert frozenset(["q"]) in obs.states and frozenset(["r"]) in obs.states


def test_observer_deterministic_cells(aut_a0, aut_a1):
    for aut in (aut_a0, aut_a1):
        obs = build_observer(aut)
        per_source = {}
        for t in obs.transitions:
            per_source.setdefault((t.source, t.symbol), []).append(t.cell)
        for cells in per_source.values():
            for c1, c2 in combinations(cells, 2):
                assert eps_intersect(c1, c2).is_empty()


def test_observer_states_are_closures(aut_a0, aut_a1):
    for aut in (aut_a0, aut_a1):
        for x in build_observer(aut).states:
            assert instantaneous_closure(aut, x) == x


# -- detector ---------------------------------------------------------------


def test_detector_of_a1_equals_observer(aut_a1):
    obs, det = build_observer(aut_a1), build_detector(aut_a1)
    assert arcs(obs) == arcs(det)


def test_detector_of_a0_equals_observer(aut_a0):
    obs, det = build_observer(aut_a0), build_detector(aut_a0)
    assert arcs(obs) == arcs(det)


def prepared_fixture(name):
    return scale_to_integers(normalize(load_fixture(name).automaton))[0]


@pytest.mark.parametrize("name", ["A0", "A1"])
def test_silent_solver_and_menus_are_built_once(name, monkeypatch):
    built = []

    class CountingSolver(estimator.WeightSetSolver):
        def __init__(self, graph):
            built.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(estimator, "WeightSetSolver", CountingSolver)
    check_all(load_fixture(name).automaton)
    assert len(built) == 1  # shared by the self-composition, observer and detector

    calls = []
    cells = estimator.successor_cells
    monkeypatch.setattr(estimator, "successor_cells",
                        lambda *args: calls.append(args) or cells(*args))
    a = prepared_fixture(name)
    build_observer(a)
    calls.clear()
    detector = build_detector(a)
    assert calls == []  # every menu the detector reads, the observer computed
    assert io.estimator_to_json(detector) == io.estimator_to_json(
        build_detector(prepared_fixture(name)))


def test_detector_sizes_are_bounded(aut_a0, aut_a1):
    chain = validate(chain_description((2, 3), 5))
    for aut in (aut_a0, aut_a1, chain):
        det = build_detector(aut)
        for x in det.states:
            assert x == det.initial or 1 <= len(x) <= 2


def test_detector_of_chain_has_ambiguous_loop():
    det = build_detector(validate(chain_description((2, 3), 5)))
    pair = frozenset(["f1", "f2"])
    assert (pair, "e", 1, pair) in arcs(det)
    # and without a solution the pair state never appears
    det2 = build_detector(validate(chain_description((2, 4), 5)))
    assert frozenset(["f1", "f2"]) not in det2.states


# -- agreement with the oracle ---------------------------------------------


def observer_paths(obs, max_len):
    paths = [(obs.initial, ())]
    out = []
    for _ in range(max_len):
        nxt = []
        for (x, evs) in paths:
            for t in obs.transitions:
                if t.source == x:
                    nxt.append((t.target, evs + ((t.symbol, t.weight),)))
        out.extend(nxt)
        paths = nxt
    return out


def accumulate(events):
    total = None
    out = []
    for sigma, w in events:
        vec = w if isinstance(w, tuple) else (w,)
        total = vec if total is None else tuple(a + b for a, b in zip(total, vec))
        out.append((sigma, total if len(total) > 1 else total[0]))
    return out


def test_observer_paths_agree_with_oracle(aut_a0, aut_a1):
    for aut in (aut_a0, aut_a1):
        obs = build_observer(aut)
        for target, events in observer_paths(obs, 4):
            assert oracle_estimate(aut, accumulate(events)) == target


def test_observer_paths_agree_with_oracle_random():
    rng = random.Random(5)
    for _ in range(20):
        a = validate(random_automaton_raw(rng))
        obs = build_observer(a)
        for target, events in observer_paths(obs, 3)[:200]:
            assert oracle_estimate(a, accumulate(events)) == target, (a, events)


# -- detector covers the observer (pre-structure coverage) -------------------


def detector_covers_observer(a, obs, det):
    det_by = {}
    for t in det.transitions:
        det_by.setdefault((t.symbol, t.target), []).append(t)
    for t in obs.transitions:
        subsets = [frozenset(p) for p in combinations(sorted(t.target), 2)] \
            if len(t.target) >= 2 else [t.target]
        want_size = 2 if len(t.source) > 1 else 1
        for sub in subsets:
            good = False
            for cand in det_by.get((t.symbol, sub), []):
                if not cand.source <= t.source:
                    continue
                if t.source == det.initial and cand.source == det.initial:
                    pass
                elif len(cand.source) != min(want_size, len(t.source)):
                    continue
                if cand.cell is not None and t.weight in cand.cell:
                    good = True
                    break
            if not good:
                return False, (t, sub)
    return True, None


def test_detector_covers_observer_on_corpus(aut_a0, aut_a1):
    for aut in (aut_a0, aut_a1, validate(chain_description((2, 3), 5)),
                validate(chain_description((3, 4, 5), 9))):
        obs, det = build_observer(aut), build_detector(aut)
        ok, bad = detector_covers_observer(aut, obs, det)
        assert ok, bad


# -- silent rows and menus for k > 1 ----------------------------------------


def observed(a):
    """a with an observable zero-weight self-loop at every state: every
    state is then live, and its silent row lists all its silent walks."""
    return validate({
        "k": a.k, "states": sorted(a.states), "initial": dict(a.initial),
        "events": {**a.events, "obs": "obs"},
        "transitions": sorted(a.transitions) + [(q, "obs", q, (0,) * a.k)
                                                for q in sorted(a.states)]})


def silent_graph(*arcs):
    """A k = 2 automaton of silent arcs (x, weight, y) on states s0, s1, ...,
    observed at every state."""
    states = sorted({f"s{v}" for (x, _, y) in arcs for v in (x, y)})
    return observed(validate({
        "k": 2, "states": states, "initial": {states[0]: [0, 0]},
        "events": {f"u{i}": None for i in range(len(arcs))},
        "transitions": [(f"s{x}", f"u{i}", f"s{y}", list(w))
                        for i, (x, w, y) in enumerate(arcs)]}))


@pytest.mark.parametrize("arcs, finite", [
    ([(0, (1, 0), 1), (1, (-1, 0), 0)], {"s0", "s1"}),  # zero-weight 2-cycle
    ([(0, (1, 1), 0)], set()),  # (1, 1) self-loop
    ([(0, (0, 0), 1), (1, (1, 1), 1)], set()),  # s0 is upstream of the loop
    ([(0, (1, 1), 0), (0, (0, 0), 1), (1, (0, 2), 2)], {"s1", "s2"}),  # downstream only
])
def test_finite_silent_states(arcs, finite):
    a = silent_graph(*arcs)
    rows = estimator.tables(a).rows
    assert {q for q in a.states if rows[q] is not None} == finite


def test_silent_cycle_that_reaches_no_observable_arc_leaves_rows_finite():
    # s1's (1, 1) loop leads to no observable arc, so no row lists it
    a = validate({"k": 2, "states": ["s0", "s1"], "initial": {"s0": [0, 0]},
                  "events": {"u": None, "v": None, "a": "a"},
                  "transitions": [("s0", "u", "s1", [0, 0]), ("s1", "v", "s1", [1, 1]),
                                  ("s0", "a", "s0", [0, 0])]})
    rows = estimator.tables(a).rows
    assert {q for q in a.states if rows[q] is not None} == {"s0", "s1"}
    assert rows["s0"][1] == {"s0": [(0, 0)]}


def closed_enumeration(a, q, levels):
    """The (state, weight) nodes of silent walks from q, when a breadth-first
    enumeration adds no node after at most `levels` levels; None otherwise."""
    frontier = {(q, (0, 0))}
    seen = set(frontier)
    for _ in range(levels):
        frontier = {(t[2], (w[0] + int(t[3][0]), w[1] + int(t[3][1])))
                    for (x, w) in frontier for t in a.silent_arcs[x]} - seen
        if not frontier:
            return seen
        seen |= frontier
    return None


def test_finite_silent_states_match_enumeration():
    # a finite row has every node at the end of a simple path, so it closes
    # within |states| levels; an infinite one never closes
    counts = {True: 0, False: 0}
    for seed in range(150):
        a = observed(random_automaton(seed, max_states=4, weight_range=(-1, 1), k=2,
                                      unobs_fraction=1.0))
        rows = estimator.tables(a).rows
        for q in sorted(a.states):
            nodes = closed_enumeration(a, q, 3 * len(a.states))
            assert (rows[q] is not None) == (nodes is not None), (seed, q)
            if nodes is not None:
                parent, weights = rows[q]
                assert set(parent) == nodes
                assert {(y, w) for y, ws in weights.items() for w in ws} == nodes
                for node in parent:
                    walk = estimator.row_walk(parent, node)
                    assert walk == () or walk[0][0] == q and walk[-1][2] == node[0]
                    assert all(s[2] == t[0] for s, t in zip(walk, walk[1:]))
                    assert tuple(sum(int(t[3][i]) for t in walk) for i in (0, 1)) == node[1]
            counts[nodes is not None] += 1
    assert min(counts.values()) > 50, counts


def test_menu_without_sigma_sources_in_reach_is_exact():
    # r's (1, 1) loop cannot reach the a-arc, so the menu closes and SPD is
    # decided as for the k = 1 analogue
    def doc(k, weights):
        return validate({
            "k": k, "states": ["q", "r"], "initial": {"q": [0] * k},
            "events": {"u": None, "a": "a"},
            "transitions": [(s, e, d, list(w)) for (s, e, d), w in zip(
                [("q", "u", "r"), ("r", "u", "r"), ("q", "a", "q")], weights)]})

    result = check_all(doc(2, [(1, 0), (1, 1), (0, 1)]))
    assert result.detector.exact and result.observer.exact
    assert result.verdicts["SPD"].status == "HOLDS"
    assert result.statuses() == check_all(doc(1, [(1,), (1,), (1,)])).statuses()


def silent_chain(k, n=20):
    """n states in a silent chain of unit steps, the last with an
    observable loop: the menu of the first state lies n - 1 arcs deep."""
    unit = [1] + [0] * (k - 1)
    return validate({
        "k": k, "states": [f"c{i}" for i in range(n)], "initial": {"c0": [0] * k},
        "events": {"u": None, "a": "a"},
        "transitions": [(f"c{i}", "u", f"c{i + 1}", unit) for i in range(n - 1)]
        + [(f"c{n - 1}", "a", f"c{n - 1}", unit[::-1])]})


def test_deep_silent_chain_menus_are_exact():
    result = check_all(silent_chain(2))
    assert result.observer.exact and result.detector.exact
    assert result.statuses() == check_all(silent_chain(1)).statuses()
    assert set(result.statuses().values()) == {"HOLDS"}


class CountingDict(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_infinite_rows_stop_at_depth_not_cap(monkeypatch):
    # with the cap far out of reach, a row whose level |Q| is not empty is
    # None after at most |Q| levels, one arc lookup per node of each level
    monkeypatch.setattr(estimator, "NODE_CAP", 10 ** 5)
    chain = silent_chain(2)
    ring = validate({"k": 2, "states": sorted(chain.states), "initial": dict(chain.initial),
                     "events": dict(chain.events),
                     "transitions": sorted(chain.transitions) + [("c19", "u", "c0", (1, 0))]})
    for a in (silent_graph((0, (1, 1), 0)), ring):
        rows = estimator.tables(a).rows
        rows.arcs = CountingDict(rows.arcs)
        for q in sorted(a.states):
            rows.arcs.lookups = 0
            assert rows[q] is None, q
            assert rows.arcs.lookups <= len(a.states) + 1, (q, rows.arcs.lookups)


def ref_menu(a, x, sigma):
    """Test-only reference for the k > 1 menus: a plain breadth-first search
    over (state, silent weight) nodes from x at states that silently reach
    a sigma-source, then every sigma-arc out of every node; None when the
    search passes NODE_CAP nodes."""
    arcs = [t for t in a.obs_transitions if a.label(t[1]) == sigma]
    useful = {q for q in a.states if a.silent_reach[q] & {t[0] for t in arcs}}
    seen = frontier = {(q, (0,) * a.k) for q in x if q in useful}
    while frontier:
        frontier = {(t[2], tuple(v + int(d) for v, d in zip(w, t[3])))
                    for (q, w) in frontier for t in a.silent_arcs[q] if t[2] in useful} - seen
        seen = seen | frontier
        if len(seen) > estimator.NODE_CAP:
            return None
    by_weight = {}
    for (q, w) in seen:
        for t in arcs:
            if t[0] == q:
                by_weight.setdefault(tuple(v + int(d) for v, d in zip(w, t[3])),
                                     set()).add(t[2])
    by_target = {}
    for w, qs in by_weight.items():
        by_target.setdefault(instantaneous_closure(a, qs), []).append(w)
    return tuple((target, None, min(ws)) for target, ws in sorted(
        by_target.items(), key=lambda kv: sorted(kv[0])))


def prepared_draws(seeds):
    """The k = 2 random draws of the seeds, default and mostly silent."""
    return [scale_to_integers(normalize(random_automaton(seed, k=2, **extra)))[0]
            for seed in seeds for extra in ({}, {"unobs_fraction": 0.6})]


def test_exact_menus_equal_reference_harvest():
    exact = 0
    for a in prepared_draws(range(40)) + [prepared_fixture("robot")]:
        estimates = (set(build_observer(a).states) | set(build_detector(a).states)
                     | {frozenset([q]) for q in a.states})
        for x in sorted(estimates, key=sorted):
            for sigma in sorted(a.sigma):
                menu, ok = estimator._successor_menu(a, x, sigma)
                if ok:
                    assert menu == ref_menu(a, x, sigma), (x, sigma)
                    exact += 1
    assert exact > 500, exact


def silent_digraph(a):
    """Every silent arc of a as one digraph, not only the kept ones."""
    return digraph(a.k, sorted(a.states),
                   [(s, tuple(map(int, w)), d) for (s, _, d, w) in a.unobs_transitions])


def walk_query_step(a, graph, x, sigma, delta, budget=10 ** 4):
    """Test-side reference for a k > 1 estimate step: per sigma-arc
    q1 -w-> q2, in arc order, and state q of x, one budgeted walk query
    q -> q1 of weight delta - w on graph, until one answers YES; None
    when a query is undecided."""
    raw = set()
    for (q1, e, q2, w) in a.obs_transitions:
        if a.label(e) != sigma or q2 in raw:
            continue
        need = tuple(d - int(wi) for d, wi in zip(delta, w))
        for q in sorted(x):
            status = has_path_with_weight(graph, q, q1, need, budget).status
            if status == "UNKNOWN":
                return None
            if status == "YES":
                raw.add(q2)
                break
    return instantaneous_closure(a, raw)


def test_inexact_structures_agree_with_oracle_steps():
    # an inexact structure lists only transitions of closed menus, each of
    # which is a true step of the estimate (a detector target is a subset);
    # the hand-made document is exact at {q0} and not at {q1, q2}, where
    # q1's silent (1, 1) loop leads to an a-arc
    late = validate({
        "k": 2, "states": ["q0", "q1", "q2"], "initial": {"q0": [0, 0]},
        "events": {"u": None, "a": "a", "b": "a"},
        "transitions": [("q0", "a", "q1", [1, 0]), ("q0", "b", "q2", [1, 0]),
                        ("q1", "u", "q1", [1, 1]), ("q1", "a", "q0", [0, 1]),
                        ("q2", "a", "q2", [0, 0])]})
    checked = 0
    for a in [scale_to_integers(normalize(late))[0]] + prepared_draws(range(400)):
        graph = silent_digraph(a)
        for est in (build_observer(a), build_detector(a)):
            if est.exact:
                continue
            for t in est.transitions:
                step = walk_query_step(a, graph, t.source, t.symbol, t.weight)
                if step is None:
                    continue
                assert t.target == step if est.kind == "observer" else t.target <= step
                checked += 1
    assert checked >= 10, checked


@pytest.mark.parametrize("k", [2, 3])
def test_estimates_equal_walk_query_reference(k, monkeypatch):
    # draws 17 and 39 have infinite silent rows, so some steps fall back
    # to walk queries; the reference asks one per arc and state, always
    queries = []
    real = estimator.has_path_with_weight
    monkeypatch.setattr(estimator, "has_path_with_weight",
                        lambda *args: queries.append(args) or real(*args))
    for seed in (17, 39):
        raw = random_automaton(seed, k=k)
        norm = normalize(raw)
        a, m = scale_to_integers(norm)
        graph = silent_digraph(a)
        x0 = instantaneous_closure(a, a.initial.keys())
        sequences = [gamma for gamma in dict.fromkeys(
            run.label_sequence(norm) for run in oracle_runs(norm, 5)) if gamma]
        for gamma in sequences[::len(sequences) // 8][:8]:
            sigma, last = gamma[-1]
            for seq in (gamma, gamma[:-1] + ((sigma, (last[0] + 1,) + last[1:]),)):
                x = x0
                for step_sigma, delta in _deltas_of(seq, k, m):
                    x = walk_query_step(a, graph, x, step_sigma, delta)
                    assert x is not None, (seed, seq)  # decided at this budget
                assert oracle_estimate(raw, seq, budget=10 ** 4) == x, (seed, seq)
    assert queries


# -- successor lists in canonical order ----------------------------------------


def reference_transitions(kind, a):
    """Test-only reference for the order of the successor lists: a flat
    EstTransition list explored depth first over the same menus, then one
    global sort by sorted source, symbol, repr(weight) and sorted target."""
    split = (lambda target: [target]) if kind == "observer" else estimator._pairs
    x0 = instantaneous_closure(a, a.initial.keys())
    seen, stack, flat = {x0}, [x0], []
    while stack:
        x = stack.pop()
        for sigma in a.sigma:
            for target, cell, witness in estimator._successor_menu(a, x, sigma)[0]:
                for sub in split(target) if target else ():
                    flat.append(EstTransition(x, sigma, witness, sub, cell))
                    if sub not in seen:
                        seen.add(sub)
                        stack.append(sub)
    return seen, tuple(sorted(flat, key=lambda t: (
        sorted(t.source), t.symbol, repr(t.weight), sorted(t.target))))


def test_successor_lists_follow_the_global_order():
    draws = list(AUTOMATA.values()) + [random_automaton(seed, k=2) for seed in range(60)]
    for raw in draws:
        a = scale_to_integers(normalize(raw))[0]
        for est in (build_observer(a), build_detector(a)):
            states, transitions = reference_transitions(est.kind, a)
            assert set(est.successors) == est.states == states
            assert est.transitions == transitions
