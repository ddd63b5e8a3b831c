"""Observer and detector construction.

Both structures concatenate current-state estimates along (symbol, weight)
events.  For one-dimensional integer weights the set of weights reaching
a target state q2 from the current estimate x under a symbol is an exact
eventually periodic set T(q2), the union of the pieces W(q, q1) + w over
the states q of x and the symbol's arcs q1 -w-> q2.  The cells are the
atoms of all those pieces labelled by their targets (epset.eps_partition:
one pass over their points when every piece is finite, as on an acyclic
silent graph, else one sweep over their common cuts): the cell of a set
L of states holds the weights that lie in T(q2) exactly for the q2 in L,
and each nonempty cell yields exactly one transition, whose target is
the instantaneous closure of L.  Cells make the infinite-alphabet
pre-observer finite: any member of a cell is a valid representative
weight, and the stored witness is the member of smallest absolute value.

For k > 1 the menus are read off the silent rows: the row of a state is
the set of (state, weight) nodes its silent walks reach at live states,
those that silently reach the source of an observable arc.  A row is
finite iff no nonzero silent cycle lies at a live state in reach, and
then every node ends a walk with no repeated state, so a breadth-first
search that still finds new nodes |Q| levels deep has met an infinite
row.  A menu that meets an infinite row, or one over NODE_CAP, is empty
and inexact, and downstream verdicts degrade to UNKNOWN rather than
guessing.

Both kinds of menu read one table per automaton (tables(a)): per state
q and observable arc t = s -e/w-> d usable from q, the totals P(q, t) =
{x + w : x the weight of a silent walk q -> s}, which is the piece
W(q, s) + w for k = 1 and a finite set read off the row of q for k > 1.
The self-composition decides its synchronizations from the same table,
and the estimate step under one observed (symbol, increment)
(estimate_step, behind wadet estimate) tests the increment's membership
in it.

Each prepared automaton owns one Tables object, tables(a), that holds
all of this, each part built on first use: the k = 1 solver over its
silent arcs; for k > 1 the kept silent arcs, the finite silent row of
each state over them and their digraph; the totals; and one successor
menu per (estimate, symbol), which the observer and the detector share.
tables(a) is also the one test that a construction is given a prepared
automaton.

A built structure keeps, per estimate, its steps as (symbol, weight,
target, cell) tuples in canonical order (EstimatorAutomaton.successors);
the checkers and the exports read these lists, and EstTransition objects
are made only when transitions is read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import add, sub
from typing import Callable, Iterable, Mapping

from .epl import DEFAULT_BUDGET, WeightedDigraph, WeightSetSolver, digraph, has_path_with_weight
from .epset import EPSet, eps_min_abs_witness, eps_partition, eps_shift
from .model import Transition, WeightedAutomaton, instantaneous_closure


@dataclass(frozen=True)
class EstTransition:
    source: frozenset[str]
    symbol: str
    weight: object  # int for k = 1, tuple[int, ...] otherwise
    target: frozenset[str]
    cell: EPSet | None  # all weights inducing this target; None for k > 1


@dataclass(frozen=True)
class EstimatorAutomaton:
    """An observer or a detector.  successors[x] lists the steps out of
    the estimate x as (symbol, weight, target, cell), in canonical order:
    by symbol, then repr(weight) and sorted target.  transitions holds the
    same steps as EstTransition objects, sources in sorted order, built
    when first read; deciding the properties reads none."""

    kind: str  # "observer" | "detector"
    k: int
    initial: frozenset[str]
    states: frozenset[frozenset[str]]
    successors: Mapping[frozenset[str], tuple[tuple, ...]] = field(hash=False)
    exact: bool

    @cached_property
    def transitions(self) -> tuple[EstTransition, ...]:
        return tuple(EstTransition(x, *step) for x in sorted(self.successors, key=sorted)
                     for step in self.successors[x])


def _successor_pieces(a: WeightedAutomaton, x: Iterable[str],
                      sigma: str) -> list[tuple[EPSet, str]]:
    """(P(q, t), d) per state q of x and sigma-arc t = s -e/w-> d usable
    from q, P(q, t) = W(q, s) + w being read off tables(a)."""
    table = tables(a)
    return [(totals, t[2]) for q in sorted(set(x))
            for t, _, _, totals in table[q][1].get(sigma, ())]


def successor_cells(a: WeightedAutomaton, x: Iterable[str],
                    sigma: str) -> list[tuple[frozenset[str], EPSet, int]]:
    """All (target, cell, witness) triples for estimates from x under sigma.

    The cells partition the union of the T(q2); for any concrete weight t
    exactly one cell contains t, and its target is the estimate
    M(A, (sigma, t) | x).  The cell of raw target L holds the weights that
    lie in T(q2) exactly for the q2 in L.  T(q2) is the union of the
    pieces W(q, q1) + w, one per state q of x and sigma-arc q1 -w-> q2, so
    that cell is the atom of L of eps_partition over the pieces labelled
    by q2: the weights in some piece of every label in L and in no piece
    of another label.  Finite pieces are split point by point; otherwise
    one sweep over the cuts of all the pieces, bit operations per run and
    one canonical form per cell build them all.
    Canonical forms are unique, so each cell, and with it its witness
    (the member of least absolute value), is the one any other exact route
    builds, partition refinement by the T-sets say; the cells are
    disjoint, so no two share a witness, and the sort below fixes the
    order of the menu.
    """
    if a.k != 1:
        raise ValueError("exact cells require k = 1; k > 1 menus come from the silent rows")
    out = [(instantaneous_closure(a, raw_target), cell, eps_min_abs_witness(cell))
           for raw_target, cell in eps_partition(_successor_pieces(a, x, sigma)).items()]
    out.sort(key=lambda c: (abs(c[2]), c[2] < 0, sorted(c[0])))
    return out


# ---------------------------------------------------------------------
# the tables of a prepared automaton
# ---------------------------------------------------------------------


NODE_CAP = 20000  # most (state, weight) nodes a silent row holds


def tables(a: WeightedAutomaton) -> Tables:
    """The tables of a, built on first call and kept in a.__dict__, as
    functools.cached_property keeps its values.  Every construction reads
    them, so this is the one test of the precondition of every
    construction: a is normalized and integer-scaled (normalize, then
    scale_to_integers, which records is_prepared from its scan of the
    denominators), and a ValueError is raised on every call otherwise.
    Tables holds what it reads of a, never a itself, and its rows hold
    only the kept silent arcs, so keeping it in a.__dict__ makes no
    reference cycle: the automaton and its tables are freed as soon as the
    automaton is dropped."""
    found = a.__dict__.get("_tables")
    if found is None:
        if not a.is_prepared:
            raise ValueError("normalize and integer-scale the automaton first")
        found = a.__dict__["_tables"] = Tables(a)
    return found


class Tables(dict):
    """What the self-composition, the successor menus and the estimate
    step read of one prepared automaton, each part built on first use.

    As a mapping it sends a state q, on first lookup, to (arcs, by_label):
    arcs lists the observable arcs t = s -e/w-> d usable from q (s silently
    reachable from q) as (transition, label, integer weight, totals) in
    the order of a.obs_transitions, which is sorted, and by_label maps
    each label to its arcs, in the same order.  The totals are P(q, t) =
    {x + w : x the weight of a silent walk q -> s}, the one fact that the
    self-composition's synchronization test and every successor menu read:
    the EPSet W(q, s) + w for k = 1 (solver), and for k > 1 the finite set
    of weight vectors read off the silent row of q, or None when that row
    is None (rows).  Every observable-arc source is live, so a row lists
    every silent walk to it.  The observable arcs are indexed by source
    (by_source), so a state's arcs are gathered from its reach set.  menus
    holds the successor menu of each (estimate, symbol), computed once for
    the observer, the detector and the searches alike (successor_steps)."""

    def __init__(self, a: WeightedAutomaton):
        super().__init__()
        self.k = a.k
        self.states = sorted(a.states)
        self.unobs = a.unobs_transitions
        self.silent = a.silent_arcs
        self.reach = a.silent_reach
        self.by_source: dict[str, list[tuple]] = {}
        for t in a.obs_transitions:
            self.by_source.setdefault(t[0], []).append((t, a.label(t[1]), tuple(map(int, t[3]))))
        self.menus: dict[tuple[frozenset[str], str], tuple[tuple, bool]] = {}

    @cached_property
    def solver(self) -> WeightSetSolver:
        """The weight-set solver over the silent arcs (k = 1); its arc ids
        index a.unobs_transitions."""
        arcs = [(s, int(w[0]), d) for (s, e, d, w) in self.unobs]
        return WeightSetSolver(digraph(1, self.states, arcs))

    @cached_property
    def arcs(self) -> dict[str, tuple]:
        """The silent arcs with integer weight vectors per source as
        (transition, target, weight), kept only when they enter a live
        state, one with a silent walk to the source of an observable arc.
        Every state of a silent walk to a live state is live, so the kept
        arcs carry every such walk, and the rows, read only at
        observable-arc sources, lose nothing."""
        live = {q for q, reach in self.reach.items() if not reach.isdisjoint(self.by_source)}
        return {q: tuple((t, t[2], tuple(map(int, t[3]))) for t in arcs if t[2] in live)
                for q, arcs in self.silent.items()}

    @cached_property
    def rows(self) -> _SilentRows:
        """The silent row of each state over the kept arcs (k > 1)."""
        return _SilentRows(self.arcs, len(self.states), self.k)

    @cached_property
    def graph(self) -> WeightedDigraph:
        """The kept silent arcs as one digraph, on which estimate_step asks
        its walk queries for states whose row is None."""
        return digraph(self.k, self.states,
                       [(q, w, d) for q in self.states for _, d, w in self.arcs[q]])

    def __missing__(self, q: str) -> tuple[tuple, dict]:
        usable = sorted(arc for s in self.reach[q] for arc in self.by_source.get(s, ()))
        arcs = tuple((t, label, w, self._totals(q, t[0], w)) for t, label, w in usable)
        by_label: dict[str, list] = {}
        for arc in arcs:
            by_label.setdefault(arc[1], []).append(arc)
        entry = self[q] = arcs, by_label
        return entry

    def _totals(self, q: str, s: str, w: tuple):
        if self.k == 1:
            return eps_shift(self.solver.weight_set(q, s), w[0])
        row = self.rows[q]
        return None if row is None else frozenset(tuple(map(add, x, w)) for x in row[1][s])


class _SilentRows(dict):
    """Per state q, the silent row R(q) as (parent, weights), built on first
    lookup, or None when R(q) is infinite or holds more than NODE_CAP
    nodes.  R(q) is the set of (y, weight of w) over all walks w from q to
    y of kept silent arcs (Tables.arcs).  A row is built breadth-first, for
    at most |Q| levels and up to the first empty one, and it is None when
    level |Q| is not empty.  That test is exact.  If q reaches a kept cycle
    of weight c != 0, a walk P to it followed by n turns gives the node
    P + n c for every n, so in a finite row every kept cycle in reach
    weighs zero.  Cutting a closed sub-walk out of a walk then keeps both
    ends and the weight, so every node is the end of a walk with no
    repeated state, at most |Q| - 1 levels deep.  An infinite row, whose
    levels are each finite, has nodes at every depth.  parent maps every
    node to (previous node, silent transition), the arc that first reached
    it, and the start (q, 0) to None; weights maps every state y to the
    weights of R(q) at y, fewest arcs first."""

    def __init__(self, arcs: dict[str, tuple], depth: int, k: int):
        super().__init__()
        self.arcs = arcs
        self.depth = depth
        self.zero = (0,) * k

    def __missing__(self, q: str) -> tuple[dict, dict] | None:
        row = self[q] = self._build(q)
        return row

    def _build(self, q: str) -> tuple[dict, dict] | None:
        start = (q, self.zero)
        parent: dict[tuple[str, tuple], tuple | None] = {start: None}
        frontier = [start]
        for _ in range(self.depth):
            if not frontier:
                break
            nxt = []
            for node in frontier:
                x, w = node
                for t, d, wt in self.arcs[x]:
                    reached = (d, tuple(map(add, w, wt)))
                    if reached not in parent:
                        parent[reached] = (node, t)
                        nxt.append(reached)
                        if len(parent) > NODE_CAP:
                            return None
            frontier = nxt
        if frontier:
            return None
        weights: dict[str, list[tuple]] = {}
        for y, w in parent:
            weights.setdefault(y, []).append(w)
        return parent, weights


def row_walk(parent: dict, node: tuple) -> tuple[Transition, ...]:
    """The silent walk that first reached node, read off parent pointers."""
    walk = []
    while (step := parent[node]) is not None:
        node, t = step
        walk.append(t)
    return tuple(reversed(walk))


# ---------------------------------------------------------------------
# successor menus for k > 1
# ---------------------------------------------------------------------


def _row_menu(a: WeightedAutomaton, x: Iterable[str], sigma: str) -> tuple[tuple, bool]:
    """Per successor estimate, the least weight vector of a silent walk
    from x followed by one sigma-arc, read off the totals of the states of
    x (tables(a)); and whether every row of those states closed.  If one
    did not, the menu is empty and inexact."""
    table = tables(a)
    rows = table.rows
    by_weight: dict[tuple, set[str]] = {}
    for q in x:
        if rows[q] is None:
            return (), False
        for t, _, _, totals in table[q][1].get(sigma, ()):
            for w in totals:
                by_weight.setdefault(w, set()).add(t[2])
    by_target: dict[frozenset[str], list[tuple]] = {}
    for w, qs in by_weight.items():
        by_target.setdefault(instantaneous_closure(a, qs), []).append(w)
    return tuple((target, None, min(ws)) for target, ws in sorted(
        by_target.items(), key=lambda kv: sorted(kv[0]))), True


# ---------------------------------------------------------------------
# the estimate step
# ---------------------------------------------------------------------


class OracleUndecided(RuntimeError):
    """An estimate step's walk query exhausted its budget."""


def estimate_step(a: WeightedAutomaton, x: Iterable[str], sigma: str, delta: tuple[int, ...],
                  budget: int = DEFAULT_BUDGET) -> frozenset[str]:
    """The estimate after observing sigma with weight increment delta from
    the estimate x: the instantaneous closure of the targets d of the
    sigma-arcs t = s -e/w-> d usable from some state q of x with delta in
    P(q, t), read off tables(a), the table the menus and the
    self-composition's synchronization test read.  Only a k > 1 total that
    is None (Tables.rows) asks for a silent walk q -> s of weight
    delta - w, on the kept silent arcs and with a fresh budget per query,
    and only for a target that no membership test has reached.  The
    queries go by arc, in the order of a.obs_transitions, then by state,
    and a target's queries stop at its first YES, so an exhausted query,
    which raises OracleUndecided, is one that a search asking every arc
    and state in that order asks too."""
    table = tables(a)
    member = delta[0] if a.k == 1 else tuple(delta)
    raw: set[str] = set()
    pending = []
    for q in sorted(set(x)):
        for t, _, w, totals in table[q][1].get(sigma, ()):
            if totals is None:
                pending.append((q, t, w))
            elif member in totals:
                raw.add(t[2])
    pending.sort(key=lambda entry: entry[1])  # a.obs_transitions is sorted; stable
    for q, t, w in pending:
        if t[2] in raw:
            continue
        need = tuple(map(sub, delta, w))
        answer = has_path_with_weight(table.graph, q, t[0], need, budget)
        if answer.status == "UNKNOWN":
            raise OracleUndecided(f"estimate step undecided at {(q, t[0], need)}")
        if answer.status == "YES":
            raw.add(t[2])
    return instantaneous_closure(a, raw)


# ---------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------


def _successor_menu(a: WeightedAutomaton, x: frozenset[str], sigma: str):
    """Uniform view: tuple of (target, cell_or_None, witness_weight), exact
    flag; successor_steps keeps it in Tables.menus."""
    return (tuple(successor_cells(a, x, sigma)), True) if a.k == 1 else _row_menu(a, x, sigma)


def successor_steps(a: WeightedAutomaton,
                    split: Callable[[frozenset[str]], list[frozenset[str]]]):
    """The successor function of a structure: per estimate x, its steps as
    (symbol, weight, target, cell) in canonical order, and whether every
    menu it read was exact.  split(target) gives the states each successor
    estimate becomes, in sorted order.  Symbols come sorted, the entries
    of a menu by repr(witness), which no two entries share (k = 1 cells
    are disjoint, and a k > 1 target keeps the least weight of its own
    weights).  _explore and the searches of verify.check_spd, check_wd
    and check_wpd read it, so a search computes the steps only of the
    estimates it reaches, and each menu is computed once per automaton
    (Tables.menus)."""
    menus = tables(a).menus
    symbols = sorted(a.sigma)

    def steps(x: frozenset[str]) -> tuple[tuple[tuple, ...], bool]:
        out = []
        exact = True
        for sigma in symbols:
            if (x, sigma) not in menus:
                menus[x, sigma] = _successor_menu(a, x, sigma)
            menu, ok = menus[x, sigma]
            exact = exact and ok
            if len(menu) > 1:  # most menus have one entry or none
                menu = sorted(menu, key=lambda entry: repr(entry[2]))
            for target, cell, witness in menu:
                if target:
                    for sub in split(target):
                        out.append((sigma, witness, sub, cell))
        return tuple(out), exact

    return steps


def _explore(kind: str, a: WeightedAutomaton,
             split: Callable[[frozenset[str]], list[frozenset[str]]]) -> EstimatorAutomaton:
    """Breadth-first concatenation of current-state estimates from the
    initial closure, over successor_steps(a, split)."""
    steps = successor_steps(a, split)
    x0 = instantaneous_closure(a, a.initial.keys())
    states: set[frozenset[str]] = {x0}
    successors: dict[frozenset[str], tuple[tuple, ...]] = {}
    exact = True
    queue = deque([x0])
    while queue:
        x = queue.popleft()
        successors[x], ok = steps(x)
        exact = exact and ok
        for _, _, y, _ in successors[x]:
            if y not in states:
                states.add(y)
                queue.append(y)
    return EstimatorAutomaton(kind, a.k, x0, frozenset(states), successors, exact)


def _whole(target: frozenset[str]) -> list[frozenset[str]]:
    return [target]


def _pairs(target: frozenset[str]) -> list[frozenset[str]]:
    if len(target) == 1:
        return [target]
    return [frozenset(pair) for pair in combinations(sorted(target), 2)]


def build_observer(a: WeightedAutomaton) -> EstimatorAutomaton:
    """Deterministic estimator over (symbol, weight) events; one transition
    per nonempty cell."""
    return _explore("observer", a, _whole)


def build_detector(a: WeightedAutomaton) -> EstimatorAutomaton:
    """Nondeterministic estimator whose states (besides the initial one)
    are the 1- and 2-element state sets; estimates of size >= 2 fan out to
    all their 2-element subsets."""
    return _explore("detector", a, _pairs)
