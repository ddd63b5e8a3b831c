"""Observer and detector construction.

Both structures concatenate current-state estimates along (symbol, weight)
events.  For one-dimensional integer weights the set of weights reaching
a target state q2 from the current estimate x under a symbol is an exact
eventually periodic set T(q2); the distinct boolean patterns over the
family {T(q2)} partition the achievable weights into cells, and each
nonempty cell yields exactly one transition whose target is the
instantaneous closure of the pattern.  Cells make the infinite-alphabet
pre-observer finite: any member of a cell is a valid representative
weight, and the stored witness is the member of smallest absolute value.

For k > 1 a bounded walk enumeration replaces the cell algebra.  The
construction notes whether the enumeration reached a fixed point; when it
did not, downstream verdicts degrade to UNKNOWN rather than guessing.

Each prepared automaton owns one k = 1 solver over its silent arcs
(unobs_solver, shared with the self-composition), for k > 1 the finite
silent row of each state (silent_rows, read by the self-composition),
and one successor menu per (estimate, symbol), which the observer and
the detector share.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Callable, Iterable, Mapping

from .epl import WeightSetSolver, digraph
from .epset import (
    EPSet,
    eps_difference,
    eps_intersect,
    eps_meets,
    eps_min_abs_witness,
    eps_shift,
    eps_union,
    eps_union_many,
)
from .graphutil import can_reach, strongly_connected_components
from .model import Transition, WeightedAutomaton, instantaneous_closure


@dataclass(frozen=True)
class EstTransition:
    source: frozenset[str]
    symbol: str
    weight: object  # int for k = 1, tuple[int, ...] otherwise
    target: frozenset[str]
    cell: EPSet | None  # all weights inducing this target; None in bounded mode


@dataclass(frozen=True)
class EstimatorAutomaton:
    kind: str  # "observer" | "detector"
    k: int
    initial: frozenset[str]
    states: frozenset[frozenset[str]]
    transitions: tuple[EstTransition, ...]
    exact: bool


def unobs_solver(a: WeightedAutomaton) -> WeightSetSolver:
    """The weight-set solver over the unobservable subgraph (k = 1); its
    arc ids index a.unobs_transitions.  Built once per automaton and kept
    in its __dict__, as functools.cached_property keeps its values."""
    if "_unobs_solver" not in a.__dict__:
        a.require_prepared()
        arcs = [(s, int(w[0]), d) for (s, e, d, w) in a.unobs_transitions]
        a.__dict__["_unobs_solver"] = WeightSetSolver(digraph(1, sorted(a.states), arcs))
    return a.__dict__["_unobs_solver"]


def successor_target_sets(a: WeightedAutomaton, x: Iterable[str],
                          sigma: str) -> dict[str, EPSet]:
    """T(q2): all weights of paths (silent prefix + one sigma-event) from x to q2."""
    solver = unobs_solver(a)
    tsets: dict[str, EPSet] = {}
    xs = sorted(set(x))
    for (q1, e, q2, w) in a.obs_transitions:
        if a.label(e) != sigma:
            continue
        for q in xs:
            ws = solver.weight_set(q, q1)
            if ws.is_empty():
                continue
            piece = eps_shift(ws, int(w[0]))
            tsets[q2] = eps_union(tsets[q2], piece) if q2 in tsets else piece
    return tsets


def successor_cells(a: WeightedAutomaton, x: Iterable[str],
                    sigma: str) -> list[tuple[frozenset[str], EPSet, int]]:
    """All (target, cell, witness) triples for estimates from x under sigma.

    The cells partition the union of the T(q2); for any concrete weight t
    exactly one cell contains t, and its target is the estimate
    M(A, (sigma, t) | x).  They come from partition refinement: starting
    from the union, every cell is split by each distinct T-set into the
    part inside and the part outside, and empty parts are dropped, so the
    work grows with cells times T-sets.  A cell that does not meet the
    T-set (eps_meets) is its own outside part, and no set is built for it.
    """
    a.require_prepared()
    if a.k != 1:
        raise ValueError("exact cells require k = 1; use the bounded builders")
    tsets = successor_target_sets(a, x, sigma)
    groups: dict[EPSet, list[str]] = {}
    for q2, s in sorted(tsets.items()):
        groups.setdefault(s, []).append(q2)
    if not groups:
        return []
    cells: list[tuple[EPSet, frozenset[str]]] = [(eps_union_many(groups), frozenset())]
    for s, qs in groups.items():
        split = []
        for cell, raw_target in cells:
            if not eps_meets(cell, s):
                split.append((cell, raw_target))
                continue
            split.append((eps_intersect(cell, s), raw_target.union(qs)))
            outside = eps_difference(cell, s)
            if not outside.is_empty():
                split.append((outside, raw_target))
        cells = split
    out = [(instantaneous_closure(a, raw_target), cell, eps_min_abs_witness(cell))
           for cell, raw_target in cells]
    out.sort(key=lambda c: (abs(c[2]), c[2] < 0, sorted(c[0])))
    return out


# ---------------------------------------------------------------------
# bounded successor enumeration for k > 1
# ---------------------------------------------------------------------


WALK_LEN = 16  # longest silent walk the k > 1 enumeration follows
NODE_CAP = 20000  # most (state, weight) nodes it visits per menu


def _integer_arcs(a: WeightedAutomaton) -> tuple[dict, dict]:
    """The arcs as (target, integer weight vector): silent ones per source,
    observable ones per (source, label).  Built once per automaton and
    kept in its __dict__, like unobs_solver."""
    if "_integer_arcs" not in a.__dict__:
        silent = {q: tuple((d, tuple(map(int, w))) for (_, _, d, w) in arcs)
                  for q, arcs in a.silent_arcs.items()}
        observable: dict[tuple[str, str], list] = {}
        for (s, e, d, w) in a.obs_transitions:
            observable.setdefault((s, a.label(e)), []).append((d, tuple(map(int, w))))
        a.__dict__["_integer_arcs"] = silent, observable
    return a.__dict__["_integer_arcs"]


def finite_silent_states(a: WeightedAutomaton) -> frozenset[str]:
    """The states q whose silent row R(q), the set of (y, weight of w) over
    all silent walks w from q to y, is finite.

    R(q) is finite exactly when every silent cycle that q reaches weighs
    zero.  If q reaches a cycle C at y of weight c != 0, a walk P from q to
    y followed by n turns of C gives (y, P + n c), a new node for every n.
    If every cycle q reaches weighs zero, cutting a closed sub-walk out of
    a walk from q keeps its ends and its weight (a closed walk splits into
    simple cycles), so every node of R(q) is the end of a simple path, and
    there are finitely many.

    A cycle lies inside one strongly connected component (SCC), and every
    cycle of an SCC C weighs zero exactly when potentials p along a search
    tree of C agree on every arc of C, p(tail) + w = p(head) in every
    coordinate.  If they agree, a cycle weighs the telescoping sum of
    p(head) - p(tail), which is zero.  If an arc x -w-> y of C disagrees,
    take a walk B from y back to the root inside C: the tree path to y
    then B, and the tree path to x, the arc, then B, are closed walks
    whose weights differ by p(x) + w - p(y) != 0, so one of them is
    nonzero and so is one of its simple cycles.  R(q) is therefore finite
    exactly when q reaches no SCC whose potentials disagree."""
    silent, _ = _integer_arcs(a)

    def succ(q):
        return (d for d, _ in silent[q])

    infinite: set[str] = set()
    for comp in strongly_connected_components(sorted(a.states), succ):
        inside = set(comp)
        p = {comp[0]: (0,) * a.k}
        stack = [comp[0]]
        while stack:
            x = stack.pop()
            for d, w in silent[x]:
                if d in inside and d not in p:
                    p[d] = tuple(map(add, p[x], w))
                    stack.append(d)
        if any(d in inside and tuple(map(add, p[x], w)) != p[d]
               for x in comp for d, w in silent[x]):
            infinite.update(comp)
    return frozenset(a.states - can_reach(a.states, succ, infinite))


class _SilentRows(dict):
    """state -> its silent row, built on first lookup.  It keeps the arcs
    rather than the automaton, so that holding it in a.__dict__ makes no
    reference cycle and the automaton is freed as soon as it is dropped."""

    def __init__(self, a: WeightedAutomaton):
        super().__init__()
        silent, _ = _integer_arcs(a)
        self.arcs = {q: tuple(zip(a.silent_arcs[q], silent[q])) for q in a.states}
        self.finite = finite_silent_states(a)
        self.zero = (0,) * a.k

    def __missing__(self, q: str) -> tuple[dict, dict] | None:
        row = self[q] = self._build(q) if q in self.finite else None
        return row

    def _build(self, q: str) -> tuple[dict, dict] | None:
        start = (q, self.zero)
        parent: dict[tuple[str, tuple], tuple | None] = {start: None}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                x, w = node
                for t, (d, wt) in self.arcs[x]:
                    reached = (d, tuple(map(add, w, wt)))
                    if reached not in parent:
                        parent[reached] = (node, t)
                        nxt.append(reached)
                        if len(parent) > NODE_CAP:
                            return None
            frontier = nxt
        weights: dict[str, list[tuple]] = {}
        for y, w in parent:
            weights.setdefault(y, []).append(w)
        return parent, weights


def silent_rows(a: WeightedAutomaton) -> Mapping[str, tuple[dict, dict] | None]:
    """Per state q, the silent row R(q) as (parent, weights), or None when
    R(q) is infinite (finite_silent_states) or holds more than NODE_CAP
    nodes.  A row is built breadth-first on first lookup, once per state
    and automaton: parent maps every node to (previous node, silent
    transition), the arc that first reached it, and the start (q, 0) to
    None; weights maps every state y to the weights of R(q) at y, fewest
    arcs first.  Kept in a.__dict__, like unobs_solver."""
    if "_silent_rows" not in a.__dict__:
        a.__dict__["_silent_rows"] = _SilentRows(a)
    return a.__dict__["_silent_rows"]


def row_walk(parent: dict, node: tuple) -> tuple[Transition, ...]:
    """The silent walk that first reached node, read off parent pointers."""
    walk = []
    while (step := parent[node]) is not None:
        node, t = step
        walk.append(t)
    return tuple(reversed(walk))


def _reaching_sigma(a: WeightedAutomaton, sigma: str) -> frozenset[str]:
    """The states with a silent walk to the source of a sigma-arc.  Kept
    in a.__dict__ per symbol, like unobs_solver."""
    cache = a.__dict__.setdefault("_reaching_sigma", {})
    if sigma not in cache:
        silent, observable = _integer_arcs(a)
        sources = {s for (s, label) in observable if label == sigma}
        cache[sigma] = frozenset(can_reach(a.states, lambda q: (d for d, _ in silent[q]), sources))
    return cache[sigma]


def _bounded_menu(a: WeightedAutomaton, x: Iterable[str], sigma: str) -> tuple[tuple, bool]:
    """The menu from silent walks of at most WALK_LEN arcs, and whether the
    enumeration closed (fixed point).  It visits only states that silently
    reach a sigma-source: a node at any other state has no sigma-arc and
    leads to none, so dropping it leaves a closed menu as it was, and with
    no such state the menu is empty and exact."""
    silent, _ = _integer_arcs(a)
    useful = _reaching_sigma(a, sigma)
    zero = (0,) * a.k
    seen: set[tuple[str, tuple]] = {(q, zero) for q in x if q in useful}
    frontier = set(seen)
    for _ in range(WALK_LEN):
        nxt: set[tuple[str, tuple]] = set()
        for (q, w) in frontier:
            for d, wt in silent[q]:
                w2 = tuple(map(add, w, wt))
                if d in useful and (d, w2) not in seen:
                    seen.add((d, w2))
                    nxt.add((d, w2))
                    if len(seen) > NODE_CAP:
                        return _harvest(a, seen, sigma), False
        frontier = nxt
    return _harvest(a, seen, sigma), not frontier


def _harvest(a: WeightedAutomaton, seen: set, sigma: str) -> tuple:
    """Per successor estimate, the least weight vector of a sigma-arc out
    of the (state, silent weight) nodes seen."""
    _, observable = _integer_arcs(a)
    by_weight: dict[tuple, set[str]] = {}
    for (q1, w) in seen:
        for q2, wt in observable.get((q1, sigma), ()):
            by_weight.setdefault(tuple(map(add, w, wt)), set()).add(q2)
    by_target: dict[frozenset[str], list[tuple]] = {}
    for w, qs in by_weight.items():
        by_target.setdefault(instantaneous_closure(a, qs), []).append(w)
    return tuple((target, None, min(ws)) for target, ws in sorted(
        by_target.items(), key=lambda kv: sorted(kv[0])))


# ---------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------


def _successor_menu(a: WeightedAutomaton, x: frozenset[str], sigma: str):
    """Uniform view: tuple of (target, cell_or_None, witness_weight), exact
    flag.  Computed once per (x, sigma) and automaton, for the observer and
    the detector alike, and kept in a.__dict__ like unobs_solver."""
    menus = a.__dict__.setdefault("_successor_menus", {})
    if (x, sigma) not in menus:
        menus[x, sigma] = ((tuple(successor_cells(a, x, sigma)), True) if a.k == 1
                           else _bounded_menu(a, x, sigma))
    return menus[x, sigma]


def _canonical_order(transitions: list[EstTransition]) -> tuple[EstTransition, ...]:
    return tuple(sorted(transitions, key=lambda t: (
        sorted(t.source), t.symbol, repr(t.weight), sorted(t.target))))


def _explore(kind: str, a: WeightedAutomaton,
             split: Callable[[frozenset[str]], list[frozenset[str]]]) -> EstimatorAutomaton:
    """Breadth-first concatenation of current-state estimates from the
    initial closure; split(target) gives the states each successor
    estimate becomes."""
    a.require_prepared()
    x0 = instantaneous_closure(a, a.initial.keys())
    states: set[frozenset[str]] = {x0}
    transitions: list[EstTransition] = []
    exact = True
    queue = [x0]
    while queue:
        x = queue.pop(0)
        for sigma in sorted(a.sigma):
            menu, ok = _successor_menu(a, x, sigma)
            exact = exact and ok
            for target, cell, witness in menu:
                if not target:
                    continue
                for sub in split(target):
                    transitions.append(EstTransition(x, sigma, witness, sub, cell))
                    if sub not in states:
                        states.add(sub)
                        queue.append(sub)
    return EstimatorAutomaton(kind, a.k, x0, frozenset(states),
                              _canonical_order(transitions), exact)


def _pairs(target: frozenset[str]) -> list[frozenset[str]]:
    if len(target) == 1:
        return [target]
    return [frozenset(pair) for pair in combinations(sorted(target), 2)]


def build_observer(a: WeightedAutomaton) -> EstimatorAutomaton:
    """Deterministic estimator over (symbol, weight) events; one transition
    per nonempty cell."""
    return _explore("observer", a, lambda target: [target])


def build_detector(a: WeightedAutomaton) -> EstimatorAutomaton:
    """Nondeterministic estimator whose states (besides the initial one)
    are the 1- and 2-element state sets; estimates of size >= 2 fan out to
    all their 2-element subsets."""
    return _explore("detector", a, _pairs)
