"""Self-composition and the strong-detectability check.

The self-composition synchronizes pairs of equally-labeled observable
events whose preceding silent-prefix-plus-event weights coincide.  For a
composition state (q1, q2) and same-label arcs t1, t2 usable from q1 and
q2 it reads the totals P(q1, t1) and P(q2, t2) of estimator.tables,
the weights of a silent walk from the state to the arc's source plus the
arc's weight, and the pair synchronizes iff the two share a member.
The composition asks the table two questions: sync, whether the pair
synchronizes, and walks, the silent walks behind a pair that does, asked
only when a witness is read.  An automaton with no silent arc compares
the arcs' weights instead of asking sync, since those are its totals.
For k > 1 an open total makes sync a walk query on the asynchronous
product of the kept silent arcs (estimator._Rows.sync), whose YES or NO
the table keeps per key for the prepared automaton, walks reading its
walk from there.  The queries of one composition share one budget, and an exhausted
budget marks the transition as possibly missing, which downgrades a
would-be HOLDS verdict to UNKNOWN.

A SelfComposition is explored on demand: successors_of(s) computes the
successors of a state s once, as sorted (events, target) keys, each with
the first arc pair that synchronizes into it.  The SD search reads only
that, and a read of the whole composition explores the rest with the
same budget (graphutil.explore).  The transitions as objects and their
witness walks are made only when read; deciding SD reads neither.

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
cc, explored or not, and keeps its own record of the states it visits,
so it gives the same witness.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .epl import DEFAULT_BUDGET, _Budget
from .estimator import tables
from .graphutil import explore, find_cycle, find_path, strong_components
from .model import Transition, WeightedAutomaton
from .verdict import FAILS, HOLDS, SD, UNKNOWN, InternalError, Verdict

Pair = tuple[str, str]


@dataclass(frozen=True)
class CCTransition:
    source: Pair
    events: tuple[str, str]
    target: Pair

    def to_json(self) -> dict:
        """The edge as io.selfcomp_to_json writes it."""
        return {"from": list(self.source), "events": list(self.events), "to": list(self.target)}


Paths = tuple[tuple[Transition, ...], tuple[Transition, ...]]
# per (events, target) key out of a state, the first arc pair that
# synchronizes into it: two entries (transition, label, total) of tables(a)
Out = dict[tuple[tuple[str, str], Pair], tuple[tuple, tuple]]
Successors = dict[Pair, Out]


class Witnesses(Mapping[CCTransition, Paths]):
    """Per transition, one realizing pair of paths of the original
    automaton, built each time it is read: deciding the properties reads
    none, and a silent walk can be long (epl.witness_walk).  Reading the
    witness of a transition out of an expanded state expands no other."""

    def __init__(self, cc: SelfComposition) -> None:
        self.cc = cc

    def __getitem__(self, tr: CCTransition) -> Paths:
        cc, source = self.cc, tr.source
        # an unexpanded source is looked up in the whole composition, so a
        # pair that is no state of it is a KeyError
        out = cc.successors_of(source) if source in cc.expanded else cc.successors[source]
        arc1, arc2 = out[tr.events, tr.target]
        left, right = cc.table.walks(source[0], arc1, source[1], arc2)
        t1, t2, tails = arc1[0], arc2[0], cc.a.zero_paths
        return left + (t1,) + tails[t1[2]][tr.target[0]], right + (t2,) + tails[t2[2]][tr.target[1]]

    def __contains__(self, tr: object) -> bool:
        return (isinstance(tr, CCTransition)
                and (tr.events, tr.target) in self.cc.successors.get(tr.source, ()))

    def __iter__(self) -> Iterator[CCTransition]:
        out = self.cc.successors
        return (CCTransition(s, events, target) for s in sorted(out) for events, target in out[s])

    def __len__(self) -> int:
        return sum(map(len, self.cc.successors.values()))


def _same_weight(q1: str, arc1: tuple, q2: str, arc2: tuple, budget: _Budget) -> bool:
    """The synchronization test of an automaton with no silent arc, whose
    totals are the arcs' own weights."""
    return arc1[0][3] == arc2[0][3]


class SelfComposition:
    """The self-composition of a prepared automaton: successors_of(s)
    expands the state s once and keeps its successors in expanded, the
    walk queries of every expansion spending one budget (queries counts
    the table's sync calls, unknown lists those left UNKNOWN).  Reading
    successors, states, unknown_queries or stats first explores the rest
    breadth-first from the sorted initial pairs (graphutil.explore)."""

    def __init__(self, a: WeightedAutomaton, budget: int = DEFAULT_BUDGET):
        self.initial = frozenset((p, q) for p in a.initial for q in a.initial)
        self.expanded: Successors = {}
        self.budget = _Budget(budget)
        self.queries = 0
        self.unknown: list[tuple] = []
        self.a = a
        self.table = tables(a)
        self.fast = not a.unobs_transitions
        self.sync = _same_weight if self.fast else self.table.sync
        self.ends = {q: sorted(tails) for q, tails in a.zero_paths.items()}

    def successors_of(self, state: Pair) -> Out:
        """The (events, target) keys out of state, in sorted order, each
        with the first arc pair that synchronizes into it."""
        if state in self.expanded:
            return self.expanded[state]
        ends, sync, budget = self.ends, self.sync, self.budget
        calls = 0
        q1, q2 = state
        by_label2 = self.table[q2][1]
        out: dict = {}
        # q1's arcs in the order of a.obs_transitions: the first pair that
        # yields a transition gives its witness, and product queries spend
        # one shared budget in this order
        for arc1 in self.table[q1][0]:
            arcs2 = by_label2.get(arc1[1])
            if arcs2 is None:
                continue
            t1 = arc1[0]
            for arc2 in arcs2:
                calls += 1
                met = sync(q1, arc1, q2, arc2, budget)
                if met is not True:
                    if met == UNKNOWN:
                        self.unknown.append(((q1, q2), t1, arc2[0]))
                    continue
                t2, pair = arc2[0], (arc1, arc2)
                events = (t1[1], t2[1])
                for target in product(ends[t1[2]], ends[t2[2]]):
                    if (events, target) not in out:
                        out[events, target] = pair
        if not self.fast:
            self.queries += calls
        out = self.expanded[state] = dict(sorted(out.items()))
        return out

    @cached_property
    def successors(self) -> Successors:
        return explore(sorted(self.initial), self.successors_of, lambda out: (w for _, w in out))

    @cached_property
    def states(self) -> frozenset[Pair]:
        return frozenset(self.successors)

    @property
    def unknown_queries(self) -> tuple:
        self.successors  # explores the rest first
        return tuple(self.unknown)

    @property
    def stats(self) -> dict:
        self.successors  # explores the rest first
        return {"epl_queries": self.queries, "fast_path": self.fast}

    @property
    def witnesses(self) -> Witnesses:
        return Witnesses(self)  # not kept: that would be a reference cycle

    @cached_property
    def transitions(self) -> frozenset[CCTransition]:
        return frozenset(self.witnesses)


def build_self_composition(a: WeightedAutomaton,
                           budget: int = DEFAULT_BUDGET) -> SelfComposition:
    """The self-composition of a, explored as far as it is read."""
    return SelfComposition(a, budget)


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
    the automaton.  The search reads cc, or a fresh composition with the
    given budget, through successors_of, so it explores only as much of
    it as it needs."""
    cc = cc or build_self_composition(a, budget)
    q1p, outs, candidates = _first_anchor(a, cc.initial, cc.successors_of)
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
        for start in sorted(s for s in cc.initial if s in outs):
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
    if cc.unknown:
        return Verdict(SD, UNKNOWN, None,
                       "self-composition has possibly-missing transitions")
    return Verdict(SD, HOLDS, None)
