"""Self-composition and the strong-detectability check.

The self-composition synchronizes pairs of equally-labeled observable
events whose preceding silent-prefix-plus-event weights coincide.  For a
composition state (q1, q2) and same-label arcs t1, t2 usable from q1 and
q2 it reads the totals P(q1, t1) and P(q2, t2) of estimator.tables,
the weights of a silent walk from the state to the arc's source plus the
arc's weight, and the pair synchronizes iff the two share a member,
which the table's meets decides; its prefixes builds the silent walks
behind a witness.  Only when meets answers None, for an open total, is
the asynchronous product of the kept silent arcs (left arcs keep their
weight, right arcs negated) queried for a walk of weight w2 - w1, one
answer per key (q1, q2, source 1, source 2, w2 - w1) and build; each
product arc is tagged with its side and the transition it moves along,
so the walk found is read back as the two silent walks.  The
query is budgeted, and an exhausted budget marks the transition as
possibly missing, which downgrades a would-be HOLDS verdict to UNKNOWN.

The successors of a composition state are sorted (events, target) keys,
each with the first arc pair that synchronizes into it, computed by one
function (_Expander.successors) for the breadth-first build and for the
SD search alike.  The transitions as objects and their witness walks are
made from those lists only when read; deciding SD reads neither.

Strong detectability fails exactly when the self-composition can run
forever, afterwards split into two distinct states, and the left
component can still run forever in the original automaton: when some
reachable composition state on a cycle (an anchor) reaches a split
candidate, a pair of distinct states whose left state reaches a cycle of
the automaton.  check_sd decides this with one depth-first search from
the initial pairs in sorted order, which computes a state's successors
when it first reaches it and reports an anchor as soon as it sees one
(on-the-fly emptiness checking, Couvreur, FM 1999).  The search,
graphutil.strong_components, is Gabow's path-based strong components:
a stack of roots, one per part of an open component found strongly
connected so far, each with two flags, cyclic (the part holds a cycle)
and reaching (it reaches a candidate).  A candidate flags its own part
when first seen; an arc back into an open part merges the parts above
it, ORing their flags, and makes the result cyclic; a component that
closes reaching flags the part that entered it, as does any later arc
into it.  The search stops the moment a part is both cyclic and
reaching, before its component closes.

- That part is made of anchors.  Every visited state is reachable, and
  the part is strongly connected and holds a cycle, so each of its
  states lies on one.  Each reaches a candidate: one in the part, or
  one that a closed component it has an arc into reaches.  A closed
  component's flag is exact, since a component closes only after every
  component it has an arc into (induction on the closing order).
- A search that ends without one has visited every state reachable
  from an initial pair and closed every component with exact flags,
  none both cyclic and reaching: there is no anchor in the composition.
  The verdict is then HOLDS, or UNKNOWN when a product query ran out of
  budget, since a missing transition could hide an anchor.

The witness is anchored at the least state q of that part.  Its access
path (from the first initial pair that reaches q), its cycle through q
and its split path from q are shortest paths among the visited states.
Those hold the search's path from its root to q, the part, and every
closed component, whose states the search has expanded in full; so the
split path runs through the part to a candidate in it, or into a closed
component that reaches one.  check_sd(a, cc) runs the same search over
cc.successors, so it gives the same witness.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from operator import sub

from .epl import DEFAULT_BUDGET, _Budget, has_path_with_weight
from .estimator import tables
from .graphutil import find_cycle, find_path, strong_components
from .model import Transition, WeightedAutomaton
from .verdict import FAILS, HOLDS, SD, UNKNOWN, InternalError, Verdict

Pair = tuple[str, str]


@dataclass(frozen=True)
class CCTransition:
    source: Pair
    events: tuple[str, str]
    target: Pair


Paths = tuple[tuple[Transition, ...], tuple[Transition, ...]]
# the synchronizing arc pair t1, t2 behind a transition: a function that
# builds the silent prefixes, then t1, the zero-weight tails after t1 by
# end state, t2 and the tails after t2
Sync = tuple[Callable[[], Paths], Transition, Mapping, Transition, Mapping]
Successors = dict[Pair, dict[tuple[tuple[str, str], Pair], Sync]]


class Witnesses(Mapping[CCTransition, Paths]):
    """Per transition, one realizing pair of paths of the original
    automaton, built each time it is read: deciding the properties reads
    none, and a silent walk can be long (epl.witness_walk)."""

    def __init__(self, successors: Successors) -> None:
        self.successors = successors

    def __getitem__(self, tr: CCTransition) -> Paths:
        prefixes, t1, tails1, t2, tails2 = self.successors[tr.source][tr.events, tr.target]
        left, right = prefixes()
        return left + (t1,) + tails1[tr.target[0]], right + (t2,) + tails2[tr.target[1]]

    def __contains__(self, tr: object) -> bool:
        return (isinstance(tr, CCTransition)
                and (tr.events, tr.target) in self.successors.get(tr.source, ()))

    def __iter__(self) -> Iterator[CCTransition]:
        for source in sorted(self.successors):
            for events, target in self.successors[source]:
                yield CCTransition(source, events, target)

    def __len__(self) -> int:
        return sum(map(len, self.successors.values()))


@dataclass
class SelfComposition:
    """successors[s] maps the key (events, target) of each transition out
    of s, in sorted order, to the first arc pair that synchronizes into it;
    transitions and witnesses are built from it when first read."""
    initial: frozenset[Pair]
    states: frozenset[Pair]
    successors: Successors
    unknown_queries: tuple = ()
    stats: dict = field(default_factory=dict)

    @cached_property
    def witnesses(self) -> Witnesses:
        return Witnesses(self.successors)

    @cached_property
    def transitions(self) -> frozenset[CCTransition]:
        return frozenset(self.witnesses)


class _Synchronizer:
    """The budgeted product route, for same-label pairs with an open total
    (an infinite row, or one over estimator.NODE_CAP).  The answer
    depends only on the key (q1, q2, source 1, source 2, w2 - w1), so each
    distinct key is decided once per build."""

    def __init__(self, a: WeightedAutomaton, budget: int):
        self.a = a
        self.budget = _Budget(budget)  # shared across all queries of one build
        self.unknown: list[tuple] = []
        self.answers: dict[tuple, object] = {}
        self._products: dict[Pair, list[tuple]] = {}

    def sync(self, q1: str, q2: str, t1: Transition, t2: Transition):
        """A silent pair of paths q1->src(t1), q2->src(t2) with equal total
        weights including the observable arcs?  Returns None, or a function
        that builds the (left, right) walks of the original automaton; an
        exhausted budget is None and recorded in unknown."""
        key = (q1, q2, t1[0], t2[0], tuple(map(sub, t2[3], t1[3])))
        if key not in self.answers:
            self.answers[key] = self._sync_product(*key)
        answer = self.answers[key]
        if answer == "UNKNOWN":
            self.unknown.append(((q1, q2), t1, t2))
            return None
        return answer

    def _product(self, q1: str, q2: str) -> list[tuple]:
        """The arcs of the product of the kept silent arcs from (q1, q2),
        in the order of the kept arcs: ((s, p2), ("L", t), (d, p2), w) for a
        left move along t = s -e/w-> d, ((p1, s), ("R", t), (p1, d), -w) for
        a right one.  A walk's arcs carry the transitions it interleaves."""
        key = (q1, q2)
        if key in self._products:
            return self._products[key]
        left_reach, right_reach = self.a.silent_reach[q1], self.a.silent_reach[q2]
        lefts, rights = sorted(left_reach), sorted(right_reach)
        arcs = []
        for t in tables(self.a).kept:
            s, d, w = t[0], t[2], t[3]
            if s in left_reach and d in left_reach:
                arcs += [((s, p2), ("L", t), (d, p2), w) for p2 in rights]
            if s in right_reach and d in right_reach:
                negated = tuple(-x for x in w)
                arcs += [((p1, s), ("R", t), (p1, d), negated) for p1 in lefts]
        self._products[key] = arcs
        return arcs

    def _sync_product(self, q1, q2, s1, s2, z):
        """A product walk from (q1, q2) to (s1, s2) interleaves a silent
        walk q1 -> s1 of weight x with one q2 -> s2 of weight y, the latter
        negated, so it weighs x - y; and any two such walks interleave into
        one, the left walk first.  Hence a product walk of weight z = w2 - w1
        exists exactly when some x in W(q1, s1) has x - z in W(q2, s2), that
        is when x + w1 lies in both totals P(q1, t1) and P(q2, t2): the
        question the build answers from the totals when neither is None."""
        ans = has_path_with_weight(self._product(q1, q2), (q1, q2), (s1, s2), z, self.budget)
        if ans.status != "YES":
            return None if ans.status == "NO" else "UNKNOWN"
        walks = tuple(tuple(tag[1] for _, tag, _, _ in ans.walk if tag[0] == side)
                      for side in "LR")
        return lambda: walks


def _no_prefixes() -> Paths:
    """The prefixes of an automaton with no silent arc: none exist."""
    return (), ()


class _Expander:
    """The successors of one composition state at a time: the breadth-first
    build and the SD search both call successors, so they share one code
    path, one product synchronizer (one budget) and one query count.  The
    synchronizer is built when a total that is None first asks for it."""

    def __init__(self, a: WeightedAutomaton, budget: int):
        self.a = a
        self.budget = budget
        self.table = tables(a)
        self.fast = not a.unobs_transitions
        self.sync: _Synchronizer | None = None
        self.queries = 0
        self.ends = {q: sorted(tails) for q, tails in a.zero_paths.items()}

    @property
    def unknown(self) -> tuple:
        return tuple(self.sync.unknown) if self.sync is not None else ()

    def successors(self, state: Pair) -> dict[tuple[tuple[str, str], Pair], Sync]:
        """The (events, target) keys out of state, in sorted order, each
        with the first arc pair that synchronizes into it."""
        a, fast, ends, meets = self.a, self.fast, self.ends, self.table.meets
        queries = 0
        q1, q2 = state
        by_label2 = self.table[q2][1]
        out: dict = {}
        # q1's arcs in the order of a.obs_transitions: the first pair that
        # yields a transition gives its witness, and product queries spend
        # one shared budget in this order
        for arc1 in self.table[q1][0]:
            t1, label, p1 = arc1
            arcs2 = by_label2.get(label)
            if arcs2 is None:
                continue
            for arc2 in arcs2:
                t2, _, p2 = arc2
                if fast:
                    if t1[3] != t2[3]:
                        continue
                    prefixes = _no_prefixes
                else:
                    queries += 1
                    met = meets(p1, p2)
                    if met is None:  # an open total: the product route decides
                        if self.sync is None:
                            self.sync = _Synchronizer(a, self.budget)
                        prefixes = self.sync.sync(q1, q2, t1, t2)
                        if prefixes is None:
                            continue
                    elif met:
                        prefixes = None  # a table.prefixes call, bound if a key is new
                    else:
                        continue
                events, pair = (t1[1], t2[1]), None
                for target in product(ends[t1[2]], ends[t2[2]]):
                    if (events, target) not in out:
                        if pair is None:
                            pair = (prefixes or partial(self.table.prefixes, q1, arc1, q2, arc2),
                                    t1, a.zero_paths[t1[2]], t2, a.zero_paths[t2[2]])
                        out[events, target] = pair
        self.queries += queries
        return dict(sorted(out.items()))


def _initial_pairs(a: WeightedAutomaton) -> frozenset[Pair]:
    return frozenset((p, q) for p in a.initial for q in a.initial)


def build_self_composition(a: WeightedAutomaton,
                           budget: int = DEFAULT_BUDGET) -> SelfComposition:
    expander = _Expander(a, budget)
    initial = _initial_pairs(a)
    successors: Successors = {}
    queue = deque(sorted(initial))
    seen = set(queue)
    while queue:
        state = queue.popleft()
        successors[state] = out = expander.successors(state)
        for _, target in out:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return SelfComposition(initial, frozenset(seen), successors, expander.unknown,
                           {"epl_queries": expander.queries, "fast_path": expander.fast})


# ---------------------------------------------------------------------
# strong detectability
# ---------------------------------------------------------------------


def _first_anchor(a: WeightedAutomaton, initial: frozenset[Pair],
                  successors: Callable[[Pair], Mapping]) -> tuple[Pair | None, dict, set[Pair]]:
    """The search of the composition from the initial pairs in sorted
    order, reading successors(s) once per state it reaches, until it first
    sees a cycle that reaches a split candidate (see the module docstring).
    Returns the least state of that cycle's component as far as the search
    has seen it (None if the search ends without one), the successors of
    every visited state, and the visited split candidates."""
    a_cycle_reachers = a.cycle_reachers
    outs: dict[Pair, Mapping] = {}
    split = lambda s: s[0] != s[1] and s[0] in a_cycle_reachers

    def targets(s: Pair) -> list[Pair]:
        outs[s] = successors(s)
        return [w for _, w in outs[s]]

    for comp, cyclic, reaching in strong_components(sorted(initial), targets, split, reach=True):
        if cyclic and reaching:
            return min(comp), outs, set(filter(split, outs))
    return None, outs, set()


def check_sd(a: WeightedAutomaton, cc: SelfComposition | None = None,
             budget: int = DEFAULT_BUDGET) -> Verdict:
    """Strong detectability via the self-composition.

    Fails iff some composition state on a cycle can reach a state with
    distinct components whose left component can still reach a cycle of
    the automaton.  Without cc the composition is explored only as far as
    the search needs; with cc the same search reads cc.successors, so both
    give the same verdict and witness."""
    if cc is None:
        expander = _Expander(a, budget)
        initial, successors = _initial_pairs(a), expander.successors
    else:
        initial, successors = cc.initial, cc.successors.__getitem__
    q1p, outs, candidates = _first_anchor(a, initial, successors)
    if q1p is not None:
        # the witness paths stay within the visited states, which hold the
        # DFS path from an initial pair to q1p, its part and a way from it
        # to a candidate (see the module docstring); only their edges
        # become transition objects
        cc_steps = lambda v: [(key, key[1]) for key in outs[v] if key[1] in outs]
        edges = lambda path: [CCTransition(v, key[0], w) for (v, key, w) in path]
        a_steps = lambda q: [(t, t[2]) for t in a.arcs_from[q]]
        split_path, q2p = find_path(cc_steps, q1p, candidates)
        cycle = find_cycle(cc_steps, q1p)
        for start in sorted(s for s in initial if s in outs):
            access = find_path(cc_steps, start, {q1p})
            if access is not None:
                break
        else:
            raise InternalError(f"composition state {q1p} is not reached from an initial pair")
        a_path, anchor = find_path(a_steps, q2p[0], a.cycle_states)
        a_cycle = find_cycle(a_steps, anchor)
        return Verdict(SD, FAILS, {
            "kind": "self-composition-lasso",
            "origin": start,
            "cc_access": edges(access[0]),
            "cc_cycle": edges(cycle),
            "cc_split_path": edges(split_path),
            "split_state": q2p,
            "a_path_to_cycle": [t for (_, t, _) in a_path],
            "a_cycle": [t for (_, t, _) in a_cycle],
        })
    # the search ended without an anchor, so it visited every reachable
    # state and made every synchronization query
    if (expander.unknown if cc is None else cc.unknown_queries):
        return Verdict(SD, UNKNOWN, None,
                       "self-composition has possibly-missing transitions")
    return Verdict(SD, HOLDS, None)
