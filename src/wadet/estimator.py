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
(unobs_solver, shared with the self-composition) and one successor menu
per (estimate, symbol), which the observer and the detector share.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Callable, Iterable

from .epl import WeightSetSolver, digraph
from .epset import (
    EPSet,
    eps_difference,
    eps_intersect,
    eps_min_abs_witness,
    eps_shift,
    eps_union,
    eps_union_many,
)
from .model import WeightedAutomaton, instantaneous_closure


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
    work grows with cells times T-sets.
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
            inside, outside = eps_intersect(cell, s), eps_difference(cell, s)
            if not inside.is_empty():
                split.append((inside, raw_target.union(qs)))
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


def _bounded_menu(a: WeightedAutomaton, x: Iterable[str], sigma: str) -> tuple[tuple, bool]:
    """The menu from silent walks of at most WALK_LEN arcs, and whether the
    enumeration closed (fixed point)."""
    silent, _ = _integer_arcs(a)
    zero = (0,) * a.k
    seen: set[tuple[str, tuple]] = {(q, zero) for q in x}
    frontier = set(seen)
    for _ in range(WALK_LEN):
        nxt: set[tuple[str, tuple]] = set()
        for (q, w) in frontier:
            for d, wt in silent[q]:
                w2 = tuple(map(add, w, wt))
                if (d, w2) not in seen:
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
