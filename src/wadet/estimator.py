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

Both kinds of menu read one table per prepared automaton, tables(a),
built part by part on first use.  It holds, per state q and observable
arc t = s -e/w-> d usable from q, the totals P(q, t) = {x + w : x the
weight of a silent walk q -> s}, and one successor menu per (estimate,
symbol), which the observer and the detector share.  tables(a) picks
the kind of table once: _Periodic for k = 1, whose totals are the pieces
W(q, s) + w, read off one epl.WeightSetSolver over the silent arcs and
the silent components of a, or _Rows for k > 1, whose totals are finite
sets read off the row of q, or None (open) where that row is.  _Rows
decides an open total by a walk query over its kept silent arcs, the
only calls of epl.has_path_with_weight, and keeps each YES and NO for
the prepared automaton.  The kind's methods answer every question about
a total: the self-composition's two (sync and walks), the menus, and
the membership test of the estimate step under one observed (symbol,
increment) (estimate_step; estimate, behind wadet estimate, chains it
along an observed sequence).

A menu of x reads only the generators of x (Tables.generators): its
states in the instantaneous closure of no other of its states, and the
least of states in each other's.  If q' is in the closure of q, a
zero-weight silent walk q -> q' prefixes every silent walk from q', so
P(q', t) lies in P(q, t); for k > 1 the row of q' is None only when that
of q is (a state that is not live has a finite row, and the walk to a
live one is kept).  So no cell, witness, target or exactness flag
changes.  estimate_step reads every state: any may be the one whose
walk query runs out of budget.

An observer or a detector is explored on demand: an EstimatorAutomaton
holds the initial estimate and its successor function (successor_steps),
which the searches of verify read, and explores the rest only when the
whole structure is read; EstTransition objects are made only when
transitions is read.  The menus themselves come in no fixed order:
successor_steps is the one place that orders them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .epl import DEFAULT_BUDGET, EplAnswer, WeightSetSolver, _Budget, has_path_with_weight
from .epset import EPSet, eps_intersect, eps_meets, eps_min_abs_witness, eps_partition, eps_shift
from .graphutil import explore
from .model import Transition, WeightedAutomaton, instantaneous_closure, make_weight, prepare
from .verdict import UNKNOWN


@dataclass(frozen=True)
class EstTransition:
    source: frozenset[str]
    symbol: str
    weight: object  # int for k = 1, tuple[int, ...] otherwise
    target: frozenset[str]
    cell: EPSet | None  # all weights inducing this target; None for k > 1


@dataclass(frozen=True, eq=False)
class EstimatorAutomaton:
    """An observer or a detector: steps(x) gives the steps out of the
    estimate x as (symbol, weight, target, cell) in canonical order, one
    batch per symbol with whether its menu was exact (successor_steps).
    Reading states, successors[x] (the steps of x joined), exact or
    transitions (the steps as EstTransition objects, sources sorted) first
    explores every estimate reachable from initial (graphutil.explore)."""

    kind: str  # "observer" | "detector"
    k: int
    initial: frozenset[str]
    steps: Callable[[frozenset[str]], Iterator[tuple[list[tuple], bool]]]

    @cached_property
    def _explored(self) -> tuple[dict[frozenset[str], tuple[tuple, ...]], bool]:
        outs = explore([self.initial], self._joined, lambda out: (step[2] for step in out[0]))
        return {x: steps for x, (steps, _) in outs.items()}, all(ok for _, ok in outs.values())

    def _joined(self, x: frozenset[str]) -> tuple[tuple[tuple, ...], bool]:
        """The steps of x, joined, and whether every menu of x was exact."""
        batches = list(self.steps(x))
        return tuple(step for batch, _ in batches for step in batch), all(ok for _, ok in batches)

    @property
    def successors(self) -> Mapping[frozenset[str], tuple[tuple, ...]]:
        return self._explored[0]

    @property
    def exact(self) -> bool:
        return self._explored[1]

    @cached_property
    def states(self) -> frozenset[frozenset[str]]:
        return frozenset(self.successors)

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
            for t, _, totals in table[q][1].get(sigma, ())]


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
    of another label.  Canonical forms are unique, so each cell, and with
    it its witness (the member of least absolute value), is the one any
    other exact route builds, partition refinement by the T-sets say; the
    cells are disjoint, so no two share a witness.  They come in
    eps_partition's order; successor_steps orders the menu.
    """
    if a.k != 1:
        raise ValueError("exact cells require k = 1; k > 1 menus come from the silent rows")
    return [(instantaneous_closure(a, raw_target), cell, eps_min_abs_witness(cell))
            for raw_target, cell in eps_partition(_successor_pieces(a, x, sigma)).items()]


# ---------------------------------------------------------------------
# the tables of a prepared automaton
# ---------------------------------------------------------------------


NODE_CAP = 20000  # most (state, weight) nodes a silent row holds


def tables(a: WeightedAutomaton) -> Tables:
    """The tables of a, built on first call and kept in a.__dict__, as
    functools.cached_property keeps its values, and the one place that
    picks their kind: _Periodic for k = 1, _Rows for k > 1.  Every
    construction reads them, so this is the one test of the precondition
    of every construction: a is normalized and every weight entry is an
    int (normalize, then scale_to_integers, which records is_prepared from
    its scan of the entries), and a ValueError is raised on every call
    otherwise.
    Tables holds what it reads of a, never a itself (nor does its
    solver), and its rows hold only the kept silent arcs, so keeping it
    in a.__dict__ makes no reference cycle: the automaton and its tables
    are freed as soon as the automaton is dropped."""
    found = a.__dict__.get("_tables")
    if found is None:
        if not a.is_prepared:
            raise ValueError("normalize and integer-scale the automaton first")
        found = a.__dict__["_tables"] = (_Periodic if a.k == 1 else _Rows)(a)
    return found


class Tables(dict):
    """What the self-composition, the successor menus and the estimate
    step read of one prepared automaton, each part built on first use
    (the k = 1 solver with the tables).

    As a mapping it sends a state q, on first lookup, to (arcs, by_label):
    arcs lists the observable arcs t = s -e/w-> d usable from q (s silently
    reachable from q) as (transition, label, total) in the order of
    a.obs_transitions, which is sorted, and by_label maps each label to
    its arcs, in the same order; the total is P(q, t), read off
    total(q, s, w), and the weight w of an arc is t[3].  The observable
    arcs are indexed by source as (transition, label) (by_source), so a
    state's arcs are gathered from its reach set.  menus holds the
    successor menu of each (estimate, symbol), read off the generators
    of the estimate (successor_steps), its cells in no fixed order.

    Each kind of totals is a subclass, _Periodic or _Rows, whose methods
    answer every question about a total: sync(q1, arc1, q2, arc2, budget),
    whether the totals of two arcs share a member (True, False or
    UNKNOWN); walks(q1, arc1, q2, arc2), the silent walks behind a pair
    that does; has(total, delta), None for an open total; menu(a, x,
    sigma).  Only a walk query of _Rows decides an open total (query).
    A kind is never an object that points back at its Tables: that cycle
    would keep every Tables, and its automaton, alive until the cycle
    collector runs."""

    def __init__(self, a: WeightedAutomaton):
        super().__init__()
        self.k = a.k
        self.states = sorted(a.states)
        self.silent = a.silent_arcs
        self.reach = a.silent_reach
        self.by_source: dict[str, list[tuple]] = {}
        for t in a.obs_transitions:
            self.by_source.setdefault(t[0], []).append((t, a.label(t[1])))
        self.menus: dict[tuple[frozenset[str], str], tuple[tuple, bool]] = {}
        self.closures = {q: c for q, c in a.closures.items() if len(c) > 1}

    def generators(self, x: frozenset[str]) -> frozenset[str]:
        """x without each r in the closure of another state q of x, but
        the least of states whose closures hold each other."""
        closures = self.closures  # {} when no silent arc weighs zero
        dropped = closures and {r for q in x if q in closures for r in closures[q] & x
                                if r != q and (q < r or q not in closures.get(r, ()))}
        return x - dropped if dropped else x

    def __missing__(self, q: str) -> tuple[tuple, dict]:
        usable = sorted(arc for s in self.reach[q] for arc in self.by_source.get(s, ()))
        arcs = tuple((t, label, self.total(q, t[0], t[3])) for t, label in usable)
        by_label: dict[str, list] = {}
        for arc in arcs:
            by_label.setdefault(arc[1], []).append(arc)
        entry = self[q] = arcs, by_label
        return entry


class _Periodic(Tables):
    """The k = 1 tables: a total is the EPSet W(q, s) + w, read off the
    weight-set solver of a (solver), built with the tables; sync is
    eps_meets of the two totals, which are never open; every menu is
    exact (successor_cells)."""

    def __init__(self, a: WeightedAutomaton):
        super().__init__(a)
        self.solver = WeightSetSolver(a)

    def total(self, q: str, s: str, w: tuple) -> EPSet:
        return eps_shift(self.solver.weight_set(q, s), w[0])

    def has(self, total: EPSet, delta: tuple) -> bool:
        return delta[0] in total

    def sync(self, q1: str, arc1: tuple, q2: str, arc2: tuple, budget: _Budget) -> bool:
        return eps_meets(arc1[2], arc2[2])

    def walks(self, q1: str, arc1: tuple, q2: str, arc2: tuple) -> tuple:
        """The silent walks behind the shared member nearest 0 (epl.witness_walk)."""
        m = eps_min_abs_witness(eps_intersect(arc1[2], arc2[2]))
        return tuple(self.solver.witness_walk(q, t[0], m - t[3][0])
                     for q, (t, _, _) in ((q1, arc1), (q2, arc2)))

    def menu(self, a: WeightedAutomaton, x: frozenset[str], sigma: str) -> tuple[tuple, bool]:
        return tuple(successor_cells(a, x, sigma)), True


class _Rows(Tables):
    """The k > 1 tables: a total is the finite set of weight vectors read
    off the silent row of q (row), or None, open, when that row is.  Only
    a walk query decides an open total (query, asked by sync for the
    self-composition and by estimate_step), and answers keeps each YES
    and NO for the prepared automaton, so none is asked twice (walks
    reads the walk behind an open pair off the YES that sync kept).

    rows holds, per state q, the silent row R(q) as (parent, weights),
    built on first read (row), or None when R(q) is infinite or holds more
    than NODE_CAP nodes.  R(q) is the set of (y, weight of w) over all
    walks w from q to y of kept silent arcs (arcs).  A row is built
    breadth-first, for at most |Q| levels and up to the first empty one,
    and it is None when level |Q| is not empty.  That test is exact.  If q
    reaches a kept cycle of weight c != 0, a walk P to it followed by n
    turns gives the node P + n c for every n, so in a finite row every
    kept cycle in reach weighs zero.  Cutting a closed sub-walk out of a
    walk then keeps both ends and the weight, so every node is the end of
    a walk with no repeated state, at most |Q| - 1 levels deep.  An
    infinite row, whose levels are each finite, has nodes at every depth.
    parent maps every node to (previous node, silent transition), the arc
    that first reached it, and the start (q, 0) to None; weights maps
    every state y to the weights of R(q) at y, fewest arcs first."""

    def __init__(self, a: WeightedAutomaton):
        super().__init__(a)
        self.rows: dict[str, tuple[dict, dict] | None] = {}
        self.products: dict[tuple[str, str], list[tuple]] = {}
        self.answers: dict[tuple, tuple[EplAnswer, _Budget]] = {}

    @cached_property
    def arcs(self) -> dict[str, tuple]:
        """The silent arcs per source, kept only when they enter a live
        state, one with a silent walk to the source of an observable arc.
        Every state of a silent walk to a live state is live, so the kept
        arcs carry every such walk, and the rows, read only at
        observable-arc sources, lose nothing."""
        live = {q for q, reach in self.reach.items() if not reach.isdisjoint(self.by_source)}
        return {q: tuple(t for t in arcs if t[2] in live) for q, arcs in self.silent.items()}

    @cached_property
    def kept(self) -> tuple[Transition, ...]:
        """The kept silent arcs, sorted: the arcs of every walk query."""
        return tuple(t for q in self.states for t in self.arcs[q])

    def row(self, q: str) -> tuple[dict, dict] | None:
        if q not in self.rows:
            self.rows[q] = self._build(q)
        return self.rows[q]

    def _build(self, q: str) -> tuple[dict, dict] | None:
        arcs, start = self.arcs, (q, (0,) * self.k)
        parent: dict[tuple[str, tuple], tuple | None] = {start: None}
        frontier = [start]
        for _ in range(len(self.states)):
            if not frontier:
                break
            nxt = []
            for node in frontier:
                x, w = node
                for t in arcs[x]:
                    reached = (t[2], tuple(map(add, w, t[3])))
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

    def total(self, q: str, s: str, w: tuple) -> frozenset[tuple] | None:
        row = self.row(q)
        return None if row is None else frozenset(tuple(map(add, x, w)) for x in row[1][s])

    def has(self, total: frozenset | None, delta: tuple) -> bool | None:
        return None if total is None else tuple(delta) in total

    def walk(self, q: str, node: tuple) -> tuple[Transition, ...]:
        """The silent walk from q that first reached node of R(q), read
        off the row's parent pointers."""
        parent, walk = self.rows[q][0], []
        while (step := parent[node]) is not None:
            node, t = step
            walk.append(t)
        return tuple(reversed(walk))

    def walks(self, q1: str, arc1: tuple, q2: str, arc2: tuple) -> tuple:
        """The silent walks behind the least shared member of two finite
        totals (walk), else the two sides of the product walk in answers."""
        (t1, _, p1), (t2, _, p2) = arc1, arc2
        if p1 is None or p2 is None:
            z = tuple(map(sub, t2[3], t1[3]))
            walk = self.answers[(q1, q2), (t1[0], t2[0]), z][0].walk
            return tuple(tuple(tag[1] for _, tag, _, _ in walk if tag[0] == side) for side in "LR")
        m = min(p1 & p2)
        return tuple(self.walk(q, (t[0], tuple(map(sub, m, t[3])))) for q, t in ((q1, t1), (q2, t2)))

    def query(self, arcs: Sequence[tuple], u, v, z: tuple, budget: _Budget) -> EplAnswer:
        """Is there a walk u -> v of weight z over arcs, which u fixes: the
        kept arcs from a state, their product from a pair of states?  A YES
        or NO is kept per (u, v, z), an UNKNOWN only for the budget that
        ran out on it."""
        found = self.answers.get((u, v, z))
        if found is None or found[0].status == UNKNOWN and found[1] is not budget:
            found = self.answers[u, v, z] = has_path_with_weight(arcs, u, v, z, budget), budget
        return found[0]

    def sync(self, q1: str, arc1: tuple, q2: str, arc2: tuple, budget: _Budget):
        """Whether the totals of arc1 from q1 and arc2 from q2 share a
        member: True, False, or UNKNOWN.  Two finite totals answer at once.
        Else a walk query on the product decides, spending budget: a walk
        of the product from (q1, q2) to (s1, s2) interleaves a walk q1 -> s1
        of weight x with one q2 -> s2 of weight y, negated, so it weighs
        x - y; and any two such walks interleave into one.  So one of weight
        z = w2 - w1 exists exactly when x + w1 lies in both totals."""
        (t1, _, p1), (t2, _, p2) = arc1, arc2
        if p1 is not None and p2 is not None:
            return not p1.isdisjoint(p2)
        z = tuple(map(sub, t2[3], t1[3]))
        status = self.query(self.product(q1, q2), (q1, q2), (t1[0], t2[0]), z, budget).status
        return UNKNOWN if status == UNKNOWN else status == "YES"

    def product(self, q1: str, q2: str) -> list[tuple]:
        """The arcs of the product of the kept silent arcs from (q1, q2),
        in the order of kept: ((s, p2), ("L", t), (d, p2), w) for a left
        move along t = s -e/w-> d, ((p1, s), ("R", t), (p1, d), -w) for a
        right one.  A walk's arcs carry the transitions it interleaves."""
        if (q1, q2) not in self.products:
            left_reach, right_reach = self.reach[q1], self.reach[q2]
            lefts, rights = sorted(left_reach), sorted(right_reach)
            arcs = []
            for t in self.kept:
                s, d, w = t[0], t[2], t[3]
                if s in left_reach and d in left_reach:
                    arcs += [((s, p2), ("L", t), (d, p2), w) for p2 in rights]
                if s in right_reach and d in right_reach:
                    negated = tuple(-x for x in w)
                    arcs += [((p1, s), ("R", t), (p1, d), negated) for p1 in lefts]
            self.products[q1, q2] = arcs
        return self.products[q1, q2]

    def menu(self, a: WeightedAutomaton, x: frozenset[str], sigma: str) -> tuple[tuple, bool]:
        """Per successor estimate, the least weight vector of a silent walk
        from x followed by one sigma-arc; and whether every row of the
        states of x closed (if one did not, the menu is empty)."""
        by_weight: dict[tuple, set[str]] = {}
        for q in x:
            if self.row(q) is None:
                return (), False
            for t, _, total in self[q][1].get(sigma, ()):
                for w in total:
                    by_weight.setdefault(w, set()).add(t[2])
        by_target: dict[frozenset[str], list[tuple]] = {}
        for w, qs in by_weight.items():
            by_target.setdefault(instantaneous_closure(a, qs), []).append(w)
        return tuple((target, None, min(ws)) for target, ws in by_target.items()), True


# ---------------------------------------------------------------------
# the estimate step
# ---------------------------------------------------------------------


class EstimateUndecided(RuntimeError):
    """An estimate step's walk query exhausted its budget."""


def estimate_step(a: WeightedAutomaton, x: Iterable[str], sigma: str, delta: tuple[int, ...],
                  budget: int = DEFAULT_BUDGET) -> frozenset[str]:
    """The estimate after observing sigma with weight increment delta from
    the estimate x: the instantaneous closure of the targets d of the
    sigma-arcs t = s -e/w-> d usable from some state q of x with delta in
    P(q, t), read off tables(a), the table the menus and the
    self-composition's synchronization test read.  Only an open total,
    where Tables.has answers None, asks for a silent walk q -> s of weight
    delta - w (_Rows.query, over the kept silent arcs with a fresh budget
    per query), and only for a target that no membership test has
    reached.  The queries go by arc, in the order of a.obs_transitions,
    then by state, and a target's queries stop at its first YES, so an
    exhausted query, which raises EstimateUndecided, is one that a search
    asking every arc and state in that order asks too."""
    table = tables(a)
    raw: set[str] = set()
    pending = []
    for q in sorted(set(x)):
        for t, _, total in table[q][1].get(sigma, ()):
            found = table.has(total, delta)
            if found is None:
                pending.append((q, t))
            elif found:
                raw.add(t[2])
    pending.sort(key=lambda entry: entry[1])  # a.obs_transitions is sorted; stable
    for q, t in pending:
        if t[2] in raw:
            continue
        need = tuple(map(sub, delta, t[3]))
        status = table.query(table.kept, q, t[0], need, _Budget(budget)).status
        if status == UNKNOWN:
            raise EstimateUndecided(f"estimate step undecided at {(q, t[0], need)}")
        if status == "YES":
            raw.add(t[2])
    return instantaneous_closure(a, raw)


def estimate(a: WeightedAutomaton, gamma: Sequence, budget: int = DEFAULT_BUDGET,
             ) -> frozenset[str]:
    """The current-state estimate of a after the observed (symbol,
    accumulated weight) pairs gamma (wadet estimate): the increments,
    scaled as a is, fed one at a time to estimate_step from the initial
    closure of a, normalized and scaled to integers.  A weight is a list or
    tuple of k entries, each anything Fraction accepts, and any other value
    is a one-entry weight (a scalar when k = 1); one of another dimension
    is a ValueError.  An increment that does not scale to integers is
    unachievable, and the estimate is then empty."""
    prepared, m = prepare(a)
    totals = []
    for sigma, total in gamma:
        if not isinstance(total, (list, tuple)):
            total = (total,)
        vec = make_weight(total)
        if len(vec) != a.k:
            raise ValueError(f"weight {total!r} has dimension {len(vec)}, expected {a.k}")
        totals.append((sigma, vec))
    deltas, prev = [], (0,) * a.k
    for sigma, total in totals:
        delta = tuple((t - p) * m for t, p in zip(total, prev))
        if any(d.denominator != 1 for d in delta):
            return frozenset()
        deltas.append((sigma, tuple(map(int, delta))))
        prev = total
    x = instantaneous_closure(prepared, prepared.initial.keys())
    for sigma, delta in deltas:
        x = estimate_step(prepared, x, sigma, delta, budget)
    return x


# ---------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------


def successor_steps(a: WeightedAutomaton,
                    split: Callable[[frozenset[str]], list[frozenset[str]]]):
    """The successor function of a structure: per estimate x, its steps as
    (symbol, weight, target, cell) in canonical order, in one batch per
    symbol with whether its menu was exact.  split(target) gives the
    states each successor estimate becomes, in sorted order.  Symbols come
    sorted, the entries of a menu by repr(witness), which no two entries
    share (k = 1 cells are disjoint, and a k > 1 target keeps the least
    weight of its own weights).  The searches of verify and graphutil.explore read
    it, so a search computes the menus only of the estimates it reaches,
    up to the batch it stops at, each once per automaton (Tables.menus)."""
    table = tables(a)
    menus = table.menus
    symbols = sorted(a.sigma)

    def steps(x: frozenset[str]) -> Iterator[tuple[list[tuple], bool]]:
        sources = None
        for sigma in symbols:
            if (x, sigma) not in menus:
                sources = sources or table.generators(x)
                menus[x, sigma] = table.menu(a, sources, sigma)
            menu, ok = menus[x, sigma]
            if len(menu) > 1:  # most menus have one entry or none
                menu = sorted(menu, key=lambda entry: repr(entry[2]))
            batch = []
            for target, cell, witness in menu:
                if target:
                    for sub in split(target):
                        batch.append((sigma, witness, sub, cell))
            yield batch, ok

    return steps


def _whole(target: frozenset[str]) -> list[frozenset[str]]:
    return [target]


def _pairs(target: frozenset[str]) -> list[frozenset[str]]:
    if len(target) == 1:
        return [target]
    return [frozenset(pair) for pair in combinations(sorted(target), 2)]


def build_observer(a: WeightedAutomaton) -> EstimatorAutomaton:
    """Deterministic estimator over (symbol, weight) events; one transition
    per nonempty cell."""
    return EstimatorAutomaton("observer", a.k, instantaneous_closure(a, a.initial.keys()),
                              successor_steps(a, _whole))


def build_detector(a: WeightedAutomaton) -> EstimatorAutomaton:
    """Nondeterministic estimator whose states (besides the initial one)
    are the 1- and 2-element state sets; estimates of size >= 2 fan out to
    all their 2-element subsets."""
    return EstimatorAutomaton("detector", a.k, instantaneous_closure(a, a.initial.keys()),
                              successor_steps(a, _pairs))
