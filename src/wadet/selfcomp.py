"""Self-composition and the strong-detectability check.

The self-composition synchronizes pairs of equally-labeled observable
events whose preceding silent-prefix-plus-event weights coincide.  For a
composition state (q1, q2) and same-label arcs t1, t2 usable from q1 and
q2 it reads the totals P(q1, t1) and P(q2, t2) of estimator.tables,
the weights of a silent walk from the state to the arc's source plus the
arc's weight, and the pair synchronizes iff the two share a member.  For
one-dimensional weights the totals are eventually periodic sets and
epset.eps_meets decides that without building a set.  For higher
dimensions they are the finite sets read off the silent rows
(estimator.Tables.rows), finite iff no nonzero silent cycle lies at a
live state in reach.  Only when a row is infinite or larger than
estimator.NODE_CAP, so that its totals are None, is the asynchronous
product of the same silent arcs (left arcs keep their weight, right arcs
negated) queried for a walk of weight w2 - w1, one answer per key (q1,
q2, source 1, source 2, w2 - w1) and build.  The query is budgeted, and
an exhausted budget marks the transition as possibly missing, which
downgrades a would-be HOLDS verdict to UNKNOWN.

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
the automaton.  check_sd decides this with one Tarjan search from the
initial pairs in sorted order, which computes a state's successors when
it first reaches it (on-the-fly SCC-based emptiness checking, Couvreur,
FM 1999), and stops when the first cyclic component that reaches a
candidate closes.

- That component is made of anchors.  Tarjan closes a component only
  after every component it has an arc into, so by induction on the
  closing order each closed component is known to reach a candidate
  exactly when it holds one or has an arc into a component known to
  reach one.  A cyclic component puts each of its states on a cycle,
  and every state the search visits is reachable.
- A search that ends without one has visited every state reachable from
  an initial pair, and has decided every component exactly: there is no
  anchor in the composition.  The verdict is then HOLDS, or UNKNOWN when
  a product query ran out of budget, since a missing transition could
  hide an anchor.

The witness is anchored at the least state q of that component.  Its
access path (from the first initial pair that reaches q), its cycle
through q and its split path from q are shortest paths among the visited
states: those hold the search's path from its root to q and all that q
reaches, which closed before q's component did.  check_sd(a, cc) runs
the same search over cc.successors, so it gives the same witness.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from operator import sub

from .epl import DEFAULT_BUDGET, Vec, _Budget, digraph, has_path_with_weight
from .epset import eps_intersect, eps_meets, eps_min_abs_witness
from .estimator import row_walk, tables
from .graphutil import find_cycle, find_path, strongly_connected_components
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
    none, and a k = 1 silent walk can be long (epl.witness_walk)."""

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
    """The budgeted product route, for k > 1 same-label pairs whose totals
    are None (an infinite row, or one over estimator.NODE_CAP).  The answer
    depends only on the key (q1, q2, source 1, source 2, w2 - w1), so each
    distinct key is decided once per build."""

    def __init__(self, a: WeightedAutomaton, budget: int):
        self.a = a
        self.budget = _Budget(budget)  # shared across all queries of one build
        self.unknown: list[tuple] = []
        self.answers: dict[tuple, object] = {}
        self._products: dict[Pair, tuple] = {}
        arcs = tables(a).arcs
        self._silent = [(t, w) for q in sorted(a.states) for t, _, w in arcs[q]]

    def sync(self, q1: str, q2: str, t1: Transition, w1: Vec, t2: Transition, w2: Vec):
        """A silent pair of paths q1->src(t1), q2->src(t2) with equal total
        weights including the observable arcs, whose weights w1 and w2 are
        given as integer tuples?  Returns None, or a function that builds
        the (left, right) walks of the original automaton; an exhausted
        budget is None and recorded in unknown."""
        key = (q1, q2, t1[0], t2[0], tuple(map(sub, w2, w1)))
        if key not in self.answers:
            self.answers[key] = self._sync_product(*key)
        answer = self.answers[key]
        if answer == "UNKNOWN":
            self.unknown.append(((q1, q2), t1, t2))
            return None
        return answer

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
        """A product walk from (q1, q2) to (s1, s2) interleaves a silent
        walk q1 -> s1 of weight x with one q2 -> s2 of weight y, the latter
        negated, so it weighs x - y; and any two such walks interleave into
        one, the left walk first.  Hence a product walk of weight z = w2 - w1
        exists exactly when some x in W(q1, s1) has x - z in W(q2, s2), that
        is when x + w1 lies in both totals P(q1, t1) and P(q2, t2): the
        question the build answers from the totals when neither is None."""
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


def _prefixes(a: WeightedAutomaton, arc1: tuple, q1: str, arc2: tuple, q2: str) -> Paths:
    """The silent prefixes q1 -> s1 and q2 -> s2 of two arcs (transition,
    label, weight, totals) of tables(a) whose totals share a member m,
    each prefix of weight m minus its arc's weight: for k = 1 m is the
    member of P1 & P2 nearest 0 and epl.witness_walk builds the walks; for
    k > 1 m is the least common total and the rows' parent pointers give
    them.  Built only when a witness is read."""
    (t1, _, w1, p1), (t2, _, w2, p2) = arc1, arc2
    table = tables(a)
    if a.k == 1:
        m = eps_min_abs_witness(eps_intersect(p1, p2))
        solver = table.solver
        return tuple(tuple(a.unobs_transitions[arc.aid]
                           for arc in solver.witness_walk(q, t[0], m - w[0]))
                     for q, t, w in ((q1, t1, w1), (q2, t2, w2)))
    m = min(p1 & p2)
    rows = table.rows
    return tuple(row_walk(rows[q][0], (t[0], tuple(map(sub, m, w))))
                 for q, t, w in ((q1, t1, w1), (q2, t2, w2)))


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
        a, fast, ends = self.a, self.fast, self.ends
        queries = 0
        q1, q2 = state
        by_label2 = self.table[q2][1]
        out: dict = {}
        # q1's arcs in the order of a.obs_transitions: the first pair that
        # yields a transition gives its witness, and product queries spend
        # one shared budget in this order
        for arc1 in self.table[q1][0]:
            t1, label, w1, p1 = arc1
            arcs2 = by_label2.get(label)
            if arcs2 is None:
                continue
            for arc2 in arcs2:
                t2, _, w2, p2 = arc2
                if fast:
                    if w1 != w2:
                        continue
                    prefixes = _no_prefixes
                else:
                    queries += 1
                    if p1 is None or p2 is None:
                        if self.sync is None:
                            self.sync = _Synchronizer(a, self.budget)
                        prefixes = self.sync.sync(q1, q2, t1, w1, t2, w2)
                        if prefixes is None:
                            continue
                    # totals share a member: EPSets for k = 1, finite sets for k > 1
                    elif eps_meets(p1, p2) if a.k == 1 else not p1.isdisjoint(p2):
                        prefixes = None  # a _prefixes call, bound if a key is new
                    else:
                        continue
                events, pair = (t1[1], t2[1]), None
                for target in product(ends[t1[2]], ends[t2[2]]):
                    if (events, target) not in out:
                        if pair is None:
                            pair = (prefixes or partial(_prefixes, a, arc1, q1, arc2, q2),
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
    """Tarjan's search of the composition from the initial pairs in sorted
    order, reading successors(s) once per state it reaches, until the first
    cyclic component that reaches a split candidate closes (see the module
    docstring).  Returns the least state of that component (None if the
    search ends without one), the successors of every visited state, and
    the visited split candidates."""
    a_cycle_reachers = a.cycle_reachers
    outs: dict[Pair, Mapping] = {}
    candidates: set[Pair] = set()
    reaching: set[Pair] = set()

    def targets(s: Pair) -> list[Pair]:
        outs[s] = successors(s)
        if s[0] != s[1] and s[0] in a_cycle_reachers:
            candidates.add(s)
        return [w for _, w in outs[s]]

    for comp, cyclic in strongly_connected_components(sorted(initial), targets):
        if any(s in candidates or any(w in reaching for _, w in outs[s]) for s in comp):
            if cyclic:
                return min(comp), outs, candidates
            reaching.update(comp)
    return None, outs, candidates


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
        # DFS path from an initial pair to q1p and everything q1p reaches;
        # only their edges become transition objects
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
