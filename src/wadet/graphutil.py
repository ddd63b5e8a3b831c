"""Small graph routines shared by the analysis modules."""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

V = TypeVar("V", bound=Hashable)


def reachable(starts: Iterable[V], succ: Callable[[V], Iterable[V]]) -> set[V]:
    seen = set(starts)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in succ(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def strongly_connected_components(
        vertices: Iterable[V],
        succ: Callable[[V], Iterable[V]]) -> Iterator[tuple[list[V], bool]]:
    """Tarjan, iterative, one succ call per vertex.  Yields each component
    as it closes, so in reverse topological order (sinks first), with
    whether it holds a cycle: more than one vertex, or a self-loop."""
    index: dict[V, int] = {}
    low: dict[V, int] = {}
    on_stack: set[V] = set()
    looped: set[V] = set()
    stack: list[V] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        work: list[tuple[V, Iterator]] = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
                    if w == v:
                        looped.add(v)
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                yield comp, len(comp) > 1 or v in looped


def find_path(steps: Callable[[V], Iterable[tuple]], start: V,
              targets: set[V]) -> tuple[list, V] | None:
    """Shortest (edge list, endpoint) from start into targets, edges being
    (v, step, v') triples; the empty path when start is already a target."""
    if start in targets:
        return [], start
    parents: dict[V, tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for step, w in steps(v):
            if w not in parents:
                parents[w] = (v, step)
                if w in targets:
                    path = []
                    x = w
                    while parents[x] is not None:
                        pv, pstep = parents[x]
                        path.append((pv, pstep, x))
                        x = pv
                    return list(reversed(path)), w
                queue.append(w)
    return None


def find_cycle(steps: Callable[[V], Iterable[tuple]], at: V) -> list | None:
    """A concrete cycle through `at` as a list of (v, step, v') triples."""
    parents: dict[V, tuple] = {}
    queue = deque([at])
    seen: set[V] = set()
    while queue:
        v = queue.popleft()
        for step, w in steps(v):
            if w == at:
                cyc = [(v, step, w)]
                while v != at:
                    pv, pstep = parents[v]
                    cyc.append((pv, pstep, v))
                    v = pv
                return list(reversed(cyc))
            if w not in seen:
                seen.add(w)
                parents[w] = (v, step)
                queue.append(w)
    return None
