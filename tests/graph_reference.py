"""Reference graph routines for the tests: cycle membership and backward
reach, each by its plain definition over graphutil.reachable, so neither
shares the product's strong-component search; walk weights by
breadth-first enumeration and walk replay; and silent_automaton, which
makes an automaton of weighted arcs for the walk engines.

An arc is a (tail, tag, head, weight) tuple, the shape of a transition."""

from __future__ import annotations

from collections import defaultdict

from wadet.graphutil import reachable
from wadet.model import validate


def states_on_cycles(vertices, succ) -> set:
    """Vertices lying on some cycle (self-loops included): those reachable
    from their own successors."""
    return {v for v in vertices if v in reachable(succ(v), succ)}


def can_reach(vertices, succ, targets) -> set:
    """Vertices from which some target is reachable (targets included)."""
    verts = list(vertices)
    preds = {v: [] for v in verts}
    for v in verts:
        for w in succ(v):
            if w in preds:
                preds[w].append(v)
    return reachable([t for t in targets if t in preds], lambda v: preds[v])


def silent_automaton(k, vertices, arcs):
    """The validated automaton on vertices, the first one initial, with a
    silent transition per (tail, weight, head) arc, each its own event, so
    parallel arcs do not conflict; a weight may be a scalar when k = 1."""
    arcs = [(s, (w,) if k == 1 and not isinstance(w, (tuple, list)) else w, d)
            for s, w, d in arcs]
    return validate({"k": k, "states": list(vertices), "initial": {vertices[0]: (0,) * k},
                     "events": {f"e{i}": None for i in range(len(arcs))},
                     "transitions": [(s, f"e{i}", d, w) for i, (s, w, d) in enumerate(arcs)]})


def enumerate_walk_weights(arcs, u, max_len=12):
    """Per vertex, the weights of the walks from u of at most max_len arcs
    (one-entry weights), breadth-first over (vertex, weight) states."""
    succ = defaultdict(list)
    for t in arcs:
        succ[t[0]].append(t)
    seen = frontier = {(u, 0)}
    for _ in range(max_len):
        frontier = {(t[2], w + t[3][0]) for x, w in frontier for t in succ[x]} - seen
        seen = seen | frontier
    reach = defaultdict(set)
    for x, w in seen:
        reach[x].add(w)
    return reach


def walk_weight(walk, k):
    """The total weight of a walk of k-dimensional arcs."""
    total = [0] * k
    for t in walk:
        for i, w in enumerate(t[3]):
            total[i] += w
    return tuple(total)


def replay_walk(walk, u, v):
    """Do the arcs of walk chain from u to v (the empty walk only when
    u == v)?"""
    if not walk:
        return u == v
    if walk[0][0] != u or walk[-1][2] != v:
        return False
    return all(a[2] == b[0] for a, b in zip(walk, walk[1:]))
