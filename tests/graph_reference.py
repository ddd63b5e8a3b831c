"""Reference graph routines for the tests: cycle membership and backward
reach, each by its plain definition over graphutil's primitives."""

from __future__ import annotations

from wadet.graphutil import reachable, strongly_connected_components


def states_on_cycles(vertices, succ) -> set:
    """Vertices lying on some cycle (self-loops included)."""
    return {v for comp, cyclic in strongly_connected_components(vertices, succ)
            if cyclic for v in comp}


def can_reach(vertices, succ, targets) -> set:
    """Vertices from which some target is reachable (targets included)."""
    verts = list(vertices)
    preds = {v: [] for v in verts}
    for v in verts:
        for w in succ(v):
            if w in preds:
                preds[w].append(v)
    return reachable([t for t in targets if t in preds], lambda v: preds[v])
