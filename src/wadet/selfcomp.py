"""Self-composition and the strong-detectability check.

The self-composition synchronizes pairs of equally-labeled observable
events whose preceding silent-prefix-plus-event weights coincide.  The
answer depends only on the key (q1, q2, source 1, source 2, z = w2 - w1),
so one answer is kept per such key and build.  For one-dimensional
weights the synchronization test is decided exactly on the silent
subgraph: a pair of observable arcs from sources reachable from the pair
(q1, q2) synchronizes iff the shifted achievable-weight sets intersect.
Each key keeps only that yes/no answer, decided by epset.eps_meets; the
intersection itself is built only when a witness is read.
For higher dimensions the silent rows of q1 and q2 answer first
(estimator.silent_rows): a row is the finite set of (state, weight) nodes
that silent walks from a state reach at live states, those that silently
reach an observable-arc source.  It is finite iff no nonzero silent cycle
lies at a live state in reach, and the key is then a lookup in two finite
sets.  Only when a row is infinite or larger than estimator.NODE_CAP is
the asynchronous product of the same silent arcs (left arcs keep their
weight, right arcs negated) queried for a walk of weight z.  Most such
queries are settled by the exact-path-length engine's breadth-first
probe: YES with a walk, or an exact NO when it runs out of states inside
its window.  The query is budgeted and an exhausted budget marks the
transition as possibly missing, which downgrades a would-be HOLDS
verdict to UNKNOWN.

Strong detectability fails exactly when the self-composition can run
forever, afterwards split into two distinct states, and the left
component can still run forever in the original automaton.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import partial
from operator import sub

from .epl import Vec, _Budget, digraph, has_path_with_weight
from .epset import eps_intersect, eps_meets, eps_min_abs_witness, eps_shift
from .estimator import row_walk, silent_rows, unobs_solver
from .graphutil import can_reach, find_cycle, find_path, reachable, states_on_cycles
from .model import Transition, WeightedAutomaton
from .verdict import FAILS, HOLDS, SD, UNKNOWN, Verdict

Pair = tuple[str, str]


@dataclass(frozen=True)
class CCTransition:
    source: Pair
    events: tuple[str, str]
    target: Pair


Paths = tuple[tuple[Transition, ...], tuple[Transition, ...]]


class Witnesses(Mapping[CCTransition, Paths]):
    """Per transition, one realizing pair of paths of the original
    automaton, built each time it is read: deciding the properties reads
    none, and a k = 1 silent walk can be long (epl.witness_walk)."""

    def __init__(self) -> None:
        self.make: dict[CCTransition, Callable[[], Paths]] = {}

    def __getitem__(self, tr: CCTransition) -> Paths:
        return self.make[tr]()

    def __iter__(self) -> Iterator[CCTransition]:
        return iter(self.make)

    def __len__(self) -> int:
        return len(self.make)


@dataclass
class SelfComposition:
    initial: frozenset[Pair]
    states: frozenset[Pair]
    transitions: frozenset[CCTransition]
    witnesses: Witnesses
    unknown_queries: tuple = ()
    stats: dict = field(default_factory=dict)


class _Synchronizer:
    """Decides and witnesses weight-synchronized silent prefixes.  The
    answer depends only on the key (q1, q2, source 1, source 2, w2 - w1),
    so each distinct key is decided once per build.  For k > 1 the silent
    rows of q1 and q2 decide it (_sync_rows), and the product graph only
    when one of them is infinite or over the cap (_sync_product)."""

    def __init__(self, a: WeightedAutomaton, budget: int):
        self.a = a
        self.budget = _Budget(budget)  # shared across all queries of one build
        self.unknown: list[tuple] = []
        self.queries = 0
        self.answers: dict[tuple, object] = {}
        if a.k == 1:
            self.solver = unobs_solver(a)
        else:
            self._rows = silent_rows(a)
            self._products: dict[Pair, tuple] = {}
            self._silent = [(t, w) for q in sorted(a.states) for t, _, w in self._rows.arcs[q]]

    def sync(self, q1: str, q2: str, t1: Transition, w1: Vec, t2: Transition, w2: Vec):
        """A silent pair of paths q1->src(t1), q2->src(t2) with equal total
        weights including the observable arcs, whose weights w1 and w2 are
        given as integer tuples?  Returns None, "UNKNOWN", or a function
        that builds the (left, right) walks of the original automaton."""
        self.queries += 1
        key = (q1, q2, t1[0], t2[0], tuple(y - x for x, y in zip(w1, w2)))
        if key not in self.answers:
            decide = self._sync_dim1 if self.a.k == 1 else self._sync_rows
            self.answers[key] = decide(*key)
        answer = self.answers[key]
        if answer is None:
            return None
        if self.a.k == 1:
            return partial(self._walks_dim1, key, w1[0])
        if answer == "UNKNOWN":
            self.unknown.append(((q1, q2), t1, t2))
        return answer

    def _sync_dim1(self, q1, q2, s1, s2, z):
        """True when W(q1, s1) & (W(q2, s2) + z) is nonempty, else None;
        decided by eps_meets, which builds no set."""
        return eps_meets(self.solver.weight_set(q1, s1),
                         self.solver.weight_set(q2, s2), z[0]) or None

    def _walks_dim1(self, key, w1: int) -> Paths:
        """The prefixes whose total weight, observable arcs included, is
        the member of common + w1 nearest 0, common being W(q1, s1) &
        (W(q2, s2) + z), built only now that a witness is read."""
        q1, q2, s1, s2, z = key
        common = eps_intersect(self.solver.weight_set(q1, s1),
                               eps_shift(self.solver.weight_set(q2, s2), z[0]))
        left = eps_min_abs_witness(eps_shift(common, w1)) - w1
        return self._walk(q1, s1, left), self._walk(q2, s2, left - z[0])

    def _walk(self, u: str, v: str, z: int) -> tuple[Transition, ...]:
        return tuple(self.a.unobs_transitions[arc.aid]
                     for arc in self.solver.witness_walk(u, v, z))

    def _sync_rows(self, q1, q2, s1, s2, z):
        """Some x in W(q1, s1) with x - z in W(q2, s2), W being the silent
        walk weights that the rows of q1 and q2 list.  This is the product
        query: a product walk from (q1, q2) to (s1, s2) interleaves a silent
        walk q1 -> s1 of weight x with one q2 -> s2 of weight y, the latter
        negated, so it weighs x - y; and any two such walks interleave into
        one, the left walk first.  Hence a product walk of weight z exists
        exactly when some x in W(q1, s1) has x - z in W(q2, s2).  When
        either row is None the product graph answers instead."""
        row1, row2 = self._rows[q1], self._rows[q2]
        if row1 is None or row2 is None:
            return self._sync_product(q1, q2, s1, s2, z)
        (parent1, weights1), (parent2, _) = row1, row2
        for x in weights1[s1]:
            y = tuple(map(sub, x, z))
            if (s2, y) in parent2:
                return lambda: (row_walk(parent1, (s1, x)), row_walk(parent2, (s2, y)))
        return None

    def _product(self, q1: str, q2: str):
        key = (q1, q2)
        if key in self._products:
            return self._products[key]
        left_reach, right_reach = self.a.silent_reach[q1], self.a.silent_reach[q2]
        verts = [(p1, p2) for p1 in sorted(left_reach) for p2 in sorted(right_reach)]
        arcs = []
        origin = []
        for t, w in self._silent:
            s, d = t[0], t[2]
            if s in left_reach and d in left_reach:
                for p2 in sorted(right_reach):
                    arcs.append(((s, p2), w, (d, p2)))
                    origin.append(("L", t))
            if s in right_reach and d in right_reach:
                negated = tuple(-x for x in w)
                for p1 in sorted(left_reach):
                    arcs.append(((p1, s), negated, (p1, d)))
                    origin.append(("R", t))
        graph = digraph(self.a.k, verts, arcs)
        self._products[key] = (graph, origin)
        return graph, origin

    def _sync_product(self, q1, q2, s1, s2, z):
        graph, origin = self._product(q1, q2)
        ans = has_path_with_weight(graph, (q1, q2), (s1, s2), z, self.budget)
        if ans.status != "YES":
            return None if ans.status == "NO" else "UNKNOWN"
        left, right = [], []
        for arc in ans.walk:
            side, orig = origin[arc.aid]
            (left if side == "L" else right).append(orig)
        walks = (tuple(left), tuple(right))
        return lambda: walks


def _joined(prefixes: Callable[[], Paths], t1: Transition, tail1: tuple,
            t2: Transition, tail2: tuple) -> Paths:
    left, right = prefixes()
    return left + (t1,) + tail1, right + (t2,) + tail2


def build_self_composition(a: WeightedAutomaton,
                           budget: int = 10 ** 6) -> SelfComposition:
    a.require_prepared()
    # per state, the observable arcs usable from it (those whose source is
    # silently reachable) as (transition, label, integer weight)
    obs = [(t, a.label(t[1]), tuple(int(x) for x in t[3])) for t in a.obs_transitions]
    usable = {q: [o for o in obs if o[0][0] in a.silent_reach[q]] for q in a.states}
    stats = {"epl_queries": 0, "fast_path": not a.unobs_transitions}

    sync = None if stats["fast_path"] else _Synchronizer(a, budget)

    initial = frozenset((p, q) for p in a.initial for q in a.initial)
    states: set[Pair] = set(initial)
    transitions: set[CCTransition] = set()
    witnesses = Witnesses()
    queue = sorted(initial)
    seen = set(queue)
    while queue:
        q1, q2 = queue.pop(0)
        for t1, label1, w1 in usable[q1]:
            for t2, label2, w2 in usable[q2]:
                if label1 != label2:
                    continue
                if stats["fast_path"]:
                    if t1[0] != q1 or t2[0] != q2 or w1 != w2:
                        continue
                    prefixes = lambda: ((), ())  # no silent prefixes exist
                else:
                    prefixes = sync.sync(q1, q2, t1, w1, t2, w2)
                    if prefixes == "UNKNOWN" or prefixes is None:
                        continue
                for q3 in sorted(a.zero_paths[t1[2]]):
                    for q4 in sorted(a.zero_paths[t2[2]]):
                        tr = CCTransition((q1, q2), (t1[1], t2[1]), (q3, q4))
                        if tr in transitions:
                            continue
                        transitions.add(tr)
                        witnesses.make[tr] = partial(
                            _joined, prefixes, t1, a.zero_paths[t1[2]][q3],
                            t2, a.zero_paths[t2[2]][q4])
                        if tr.target not in seen:
                            seen.add(tr.target)
                            states.add(tr.target)
                            queue.append(tr.target)
        states.add((q1, q2))
    if sync is not None:
        stats["epl_queries"] = sync.queries
        unknown = tuple(sync.unknown)
    else:
        unknown = ()
    return SelfComposition(initial, frozenset(states), frozenset(transitions),
                           witnesses, unknown, stats)


# ---------------------------------------------------------------------
# strong detectability
# ---------------------------------------------------------------------


def check_sd(a: WeightedAutomaton, cc: SelfComposition | None = None,
             budget: int = 10 ** 6) -> Verdict:
    """Strong detectability via the self-composition.

    Fails iff some composition state on a cycle can reach a state with
    distinct components whose left component can still reach a cycle of
    the automaton."""
    a.require_prepared()
    if cc is None:
        cc = build_self_composition(a, budget)

    cc_succ_map: dict[Pair, list[CCTransition]] = {s: [] for s in cc.states}
    for t in cc.transitions:
        cc_succ_map[t.source].append(t)
    for lst in cc_succ_map.values():
        lst.sort(key=lambda t: (t.source, t.events, t.target))

    def cc_succ(v):
        return [(t, t.target) for t in cc_succ_map[v]]

    a_on_cycle = states_on_cycles(a.states, lambda q: (t[2] for t in a.arcs_from[q]))
    a_cycle_reachers = can_reach(a.states, lambda q: (t[2] for t in a.arcs_from[q]), a_on_cycle)

    cc_cycle_states = states_on_cycles(cc.states, lambda v: (t.target for t in cc_succ_map[v]))
    split_states = {
        s for s in reachable(cc_cycle_states, lambda v: (t.target for t in cc_succ_map[v]))
        if s[0] != s[1] and s[0] in a_cycle_reachers
    }

    def a_steps(q):
        return [(t, t[2]) for t in a.arcs_from[q]]

    witness = None
    for q1p in sorted(cc_cycle_states):
        into = find_path(cc_succ, q1p, split_states)
        if into is None:
            continue
        cycle = find_cycle(cc_succ, q1p)
        access = start = None
        for q0p in sorted(cc.initial):
            access = find_path(cc_succ, q0p, {q1p})
            if access is not None:
                start = q0p
                break
        if access is None or cycle is None:
            continue
        split_path, q2p = into
        a_path, anchor = find_path(a_steps, q2p[0], a_on_cycle)
        a_cycle = find_cycle(a_steps, anchor)
        witness = {
            "kind": "self-composition-lasso",
            "origin": start,
            "cc_access": [t for (_, t, _) in access[0]],
            "cc_cycle": [t for (_, t, _) in cycle],
            "cc_split_path": [t for (_, t, _) in split_path],
            "split_state": q2p,
            "a_path_to_cycle": [t for (_, t, _) in a_path],
            "a_cycle": [t for (_, t, _) in a_cycle],
        }
        break

    if witness is not None:
        return Verdict(SD, FAILS, witness)
    if cc.unknown_queries:
        return Verdict(SD, UNKNOWN, None,
                       "self-composition has possibly-missing transitions")
    return Verdict(SD, HOLDS, None)
