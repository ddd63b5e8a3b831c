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


def strong_components(
        roots: Iterable[V], succ: Callable[[V], Iterable[V]],
        marked: Callable[[V], bool] | None = None,
        reach: bool = False) -> Iterator[tuple[list[V], bool, bool]]:
    """Path-based strong components (Gabow, IPL 2000), iterative, one succ
    and one marked call per vertex, of the part of the graph reachable
    from roots in depth-first order.  Yields (vertices, cyclic, marked)
    for each component as it closes, so in reverse topological order
    (sinks first).  Cyclic means it holds a cycle: two or more vertices,
    or a self-loop.  Without reach, marked means it holds a vertex that
    marked accepts; with reach, that it reaches one.

    Each entry of the root stack is a strongly connected part of an open
    component, the vertices of stack from its start on, and carries both
    flags; a merge ORs them, and with reach a closed marked component
    also marks each entry that has an arc into it.  The moment an entry
    is both cyclic and marked the search yields it, flags True, True, as
    it stands, and stops (Couvreur, FM 1999).  So no closed component is
    both: a search that yields no such entry has closed every component
    with its flags complete, and no cycle holds (or, with reach, reaches)
    a marked vertex."""
    pos: dict[V, int] = {}  # open vertex -> its index in stack
    closed: set[V] = set()
    reaching: set[V] = set()  # closed vertices that reach a mark (reach only)
    stack: list[V] = []
    starts: list[int] = []
    cyclic: list[bool] = []
    marks: list[bool] = []

    def push(v: V) -> Iterator[V]:
        pos[v] = len(stack)
        stack.append(v)
        starts.append(pos[v])
        cyclic.append(False)
        marks.append(marked is not None and marked(v))
        return iter(succ(v))

    for root in roots:
        if root in pos or root in closed:
            continue
        work = [(root, push(root))]
        while work:
            v, it = work[-1]
            for w in it:
                if w in pos:  # a cycle: merge the entries from w's on
                    at, mark = pos[w], False
                    while starts[-1] > at:
                        starts.pop()
                        cyclic.pop()
                        mark |= marks.pop()
                    cyclic[-1] = True
                    marks[-1] |= mark
                    if marks[-1]:
                        yield stack[starts[-1]:], True, True
                        return
                elif w not in closed:
                    work.append((w, push(w)))
                    break
                elif w in reaching and not marks[-1]:
                    marks[-1] = True
                    if cyclic[-1]:
                        yield stack[starts[-1]:], True, True
                        return
            else:
                work.pop()
                if starts[-1] == pos[v]:  # v's component closes
                    starts.pop()
                    comp = stack[pos[v]:]
                    del stack[pos[v]:]
                    for x in comp:
                        del pos[x]
                    closed.update(comp)
                    mark = marks.pop()
                    yield comp, cyclic.pop(), mark
                    if mark and reach:  # the arc into it marks v's parent
                        reaching.update(comp)
                        if work and not marks[-1]:
                            marks[-1] = True
                            if cyclic[-1]:
                                yield stack[starts[-1]:], True, True
                                return


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
