"""Self-composition and the strong-detectability check.

The self-composition synchronizes pairs of equally-labeled observable
events whose preceding silent-prefix-plus-event weights coincide.  For a
composition state (q1, q2) and same-label arcs t1, t2 usable from q1 and
q2 it reads the totals P(q1, t1) and P(q2, t2) of estimator.tables,
the weights of a silent walk from the state to the arc's source plus the
arc's weight, and the pair synchronizes iff the two share a member,
which the table's meets decides; its prefixes builds the silent walks
behind a witness.  Only when meets answers None, for an open total, does
the table's sync decide the pair (estimator._Rows.sync): a walk query on
the asynchronous product of the kept silent arcs, whose YES or NO the
table keeps per key for the prepared automaton.  The queries of one
build or search share one budget, and an exhausted budget marks the
transition as possibly missing, which downgrades a would-be HOLDS
verdict to UNKNOWN.

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

from .epl import DEFAULT_BUDGET, _Budget
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


def _no_prefixes() -> Paths:
    """The prefixes of an automaton with no silent arc: none exist."""
    return (), ()


class _Expander:
    """The successors of one composition state at a time: the breadth-first
    build and the SD search both call successors, so they share one code
    path, one budget for the walk queries of open totals (_Rows.sync), one
    query count and one list of the queries left UNKNOWN."""

    def __init__(self, a: WeightedAutomaton, budget: int):
        self.a = a
        self.budget = _Budget(budget)
        self.table = tables(a)
        self.fast = not a.unobs_transitions
        self.queries = 0
        self.unknown: list[tuple] = []
        self.ends = {q: sorted(tails) for q, tails in a.zero_paths.items()}

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
                    if met is None:  # an open total: a walk query decides
                        prefixes = self.table.sync(q1, q2, t1, t2, self.budget)
                        if prefixes == UNKNOWN:
                            self.unknown.append(((q1, q2), t1, t2))
                        if prefixes is None or prefixes == UNKNOWN:
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
    return SelfComposition(initial, frozenset(seen), successors, tuple(expander.unknown),
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
