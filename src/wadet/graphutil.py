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


def marked_cycle(roots: Iterable[V], succ: Callable[[V], Iterable[V]],
                 marked: Callable[[V], bool], reach: bool) -> list[V] | None:
    """The first cycle through a mark that a depth-first search from roots
    meets, as the part of its strong component seen so far; None when the
    search ends without one.  Path-based strong components (Gabow, IPL
    2000), iterative, one succ and one marked call per vertex.  Each entry
    of the root stack is a strongly connected part of an open component,
    the vertices of stack from its start on, and carries two flags:
    cyclic (it holds a cycle: two or more vertices, or a self-loop) and
    marked.  Without reach, marked means it holds a marked vertex; with
    reach, that it reaches one, so a closed marked component also marks
    each entry that has an arc into it.  A merge ORs the flags, and the
    search returns the entry's vertices the moment both hold (Couvreur,
    FM 1999).  A search that ends without one has closed every component
    with its flags complete: no cycle holds (or, with reach, reaches) a
    marked vertex."""
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
        marks.append(marked(v))
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
                        return stack[starts[-1]:]
                elif w not in closed:
                    work.append((w, push(w)))
                    break
                elif w in reaching and not marks[-1]:
                    marks[-1] = True
                    if cyclic[-1]:
                        return stack[starts[-1]:]
            else:
                work.pop()
                if starts[-1] == pos[v]:  # v's component closes
                    starts.pop()
                    cyclic.pop()
                    comp = stack[pos[v]:]
                    del stack[pos[v]:]
                    for x in comp:
                        del pos[x]
                    closed.update(comp)
                    if marks.pop() and reach:  # the arc into it marks v's parent
                        reaching.update(comp)
                        if work and not marks[-1]:
                            marks[-1] = True
                            if cyclic[-1]:
                                return stack[starts[-1]:]
    return None


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
