"""Spans around the calls each wadet layer makes into the layer below.

Nothing here edits wadet.  While `instrumented` is active, the names a
calling module bound at import (`wadet.selfcomp.eps_intersect`,
`wadet.estimator.WeightSetSolver`, ...) point at wrappers that record a
span: name, start, end, parent span and instance id.  Spans stay in
memory; `write` stores them when the run ends.  A call from inside a
layer to its own public functions (witness_walk -> weight_set) is not a
boundary and records nothing; `estimator.successor_cells`, the stage the
observer and the detector share, is recorded from inside its layer.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# modules whose calls into the engines are traced
ENGINE_CALLERS = ("selfcomp", "estimator", "epl")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, instance]
        self.stack: list[int] = []
        self.instance = -1
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.instance])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, name: str, fn, on_result=None, inner: bool = False):
        """fn recording a span; `inner` records it also when called from
        its own layer."""
        layer = None if inner else name.split(".")[0] + "."
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if layer and stack and spans[stack[-1]][0].startswith(layer):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.instance])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    def profile(self, first: int = 0):
        """Over spans[first:]: name -> [calls, self s, inclusive s], and
        self s per call chain (span name, then its callers' names)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans[first:]:
            if s[3] >= first:
                child[s[3]] += s[2] - s[1]
        names: dict[str, list] = {}
        chains: dict[tuple, float] = {}
        chain_of: dict[int, tuple] = {}
        for i in range(first, len(spans)):
            name, start, end, parent, _ = spans[i]
            slot = names.setdefault(name, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += end - start - child[i]
            slot[2] += end - start
            chain = (name,) + chain_of.get(parent, ())
            chain_of[i] = chain
            chains[chain] = chains.get(chain, 0.0) + end - start - child[i]
        return names, chains

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")


def _solver_class(tracer: Tracer, base):
    """WeightSetSolver with traced entry points and construction count."""
    ws_span = tracer.wrap("epl.weight_set", base.weight_set)
    walk_span = tracer.wrap("epl.witness_walk", base.witness_walk)

    class TracedSolver(base):
        def __init__(self, graph):
            tracer.count("epl.solvers_built")
            super().__init__(graph)
            self._keys_seen = set()

        def weight_set(self, u, v):
            if tracer.stack and tracer.spans[tracer.stack[-1]][0].startswith("epl."):
                return base.weight_set(self, u, v)
            if (u, v) not in self._keys_seen:
                self._keys_seen.add((u, v))
                tracer.count("epl.weight_set_distinct")
            return ws_span(self, u, v)

        def witness_walk(self, u, v, z):
            return walk_span(self, u, v, z)

    return TracedSolver


@contextmanager
def instrumented(wadet, tracer: Tracer):
    """Point the calling modules' bindings at traced wrappers, then restore."""
    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def unknown(args, answer):
        if answer.status == "UNKNOWN":
            tracer.count("epl.has_path_unknown")

    solver = _solver_class(tracer, wadet.epl.WeightSetSolver)
    try:
        for caller in ENGINE_CALLERS:
            module = getattr(wadet, caller)
            for attr, value in list(vars(module).items()):
                if callable(value) and getattr(value, "__module__", "") == "wadet.epset" \
                        and not isinstance(value, type):
                    patch(module, attr, tracer.wrap(f"epset.{attr}", value))
            if caller == "epl":
                continue
            if hasattr(module, "WeightSetSolver"):
                patch(module, "WeightSetSolver", solver)
            if hasattr(module, "has_path_with_weight"):
                patch(module, "has_path_with_weight",
                      tracer.wrap("epl.has_path", module.has_path_with_weight, unknown))
        patch(wadet.estimator, "successor_cells",
              tracer.wrap("estimator.successor_cells", wadet.estimator.successor_cells,
                          inner=True))
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
