"""Reference graph routines for the tests: cycle membership and backward
reach, each by its plain definition over graphutil.reachable, so neither
shares the product's strong-component search."""

from __future__ import annotations

from wadet.graphutil import reachable


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
