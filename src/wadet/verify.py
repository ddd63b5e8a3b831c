"""Decision procedures for the four detectability notions.

Strong periodic detectability (SPD) is decided on the detector, whose
states besides the initial estimate are the estimates of one or two
states.  SPD fails iff some reachable estimate of two or more states
contains a state with a silent path to a silent cycle (it can stall
silently while ambiguous), or the detector has a reachable cycle of
two-element estimates.  Both are lasso facts, so check_spd decides them
with one search from the initial estimate, which reads an estimate's
steps only when it first reaches it and stops at the first violation
(on-the-fly SCC-based emptiness checking, Couvreur, FM 1999).

- The search runs graphutil.strongly_connected_components (Tarjan) over
  the two-element estimates; the initial estimate and the singletons are
  expanded from a worklist that feeds it its roots.  Each estimate is
  tested for stalling when the search first sees it.  The search stops
  at the first stalled ambiguous estimate or at the first cyclic
  component, whichever comes first.  Every estimate it sees is
  reachable, and a cyclic component of two-element estimates puts each
  of them on a cycle, so a violation it stops at is genuine.
- A search that ends without one has seen every reachable estimate and
  tested it, and has split the reachable two-element estimates into
  their components, every cycle of them lying inside one.  So there is
  no violation.
- A menu that is inexact (a k > 1 silent row did not close) adds no
  steps, and the search carries on past it.  Its violations are still
  made of genuine estimates and steps, so FAILS stays sound.  A search
  that ends without a violation after it read an inexact menu may have
  missed a step to one: UNKNOWN.
- The witness is the first stalled estimate, or the least estimate (by
  sorted) of the cyclic component.  Its access path and its cycle are
  shortest paths among the visited estimates, which hold the search's
  path to it and all that the component reaches.  check_spd(a, detector)
  runs the same search over detector.successors, so it gives the same
  verdict and witness.  Given an exact observer, check_spd also runs the
  search over it, with every estimate of two or more states allowed on a
  cycle, and raises InternalError when the two decided answers differ.

Weak (periodic) detectability is decided on the observer: the property
holds vacuously when no infinite run exists or when some infinite run
stops producing output (it enters a silent cycle), and otherwise requires
a reachable observer cycle consisting of singletons (all singletons for
WD, at least one for WPD on the cycle).

Verdicts carry replayable witnesses; UNKNOWN appears only when a bounded
fallback (k > 1) failed to close or an exact-path-length budget ran out.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property

from .estimator import (EstimatorAutomaton, _pairs, build_detector, build_observer,
                        successor_steps)
from .graphutil import find_cycle, find_path, states_on_cycles, strongly_connected_components
from .model import WeightedAutomaton, instantaneous_closure, normalize, scale_to_integers
from .selfcomp import SelfComposition, build_self_composition, check_sd
from .verdict import FAILS, HOLDS, SD, SPD, UNKNOWN, WD, WPD, InternalError, Verdict


# ---------------------------------------------------------------------
# estimator graph helpers
# ---------------------------------------------------------------------


def _est_steps(est: EstimatorAutomaton):
    """Per estimate, its ((symbol, weight), target) steps in the canonical
    order of est.successors.  The checkers share one map per structure,
    kept in its __dict__ as estimator.unobs_solver keeps its solver;
    equality reads fields only."""
    if "_steps" not in est.__dict__:
        succ = est.successors
        est.__dict__["_steps"] = lambda x: [((s, w), y) for s, w, y, _ in succ[x]]
    return est.__dict__["_steps"]


def _events_of(path: list) -> list[tuple[str, object]]:
    return [step for (_, step, _) in path]


def _silent_cycle_witness(a: WeightedAutomaton) -> dict | None:
    """A reachable silent cycle of the automaton, with an access path."""
    on_cycle = a.silent_cycle_states & a.reachable_states
    if not on_cycle:
        return None
    steps = lambda q: [(t, t[2]) for t in a.arcs_from[q]]
    for q0 in sorted(a.initial):
        hit = find_path(steps, q0, on_cycle)
        if hit is not None:
            path, anchor = hit
            cycle = find_cycle(lambda q: [(t, t[2]) for t in a.silent_arcs[q]], anchor)
            return {"kind": "silent-cycle", "origin": q0,
                    "path": [t for (_, t, _) in path],
                    "cycle": [t for (_, t, _) in cycle]}
    return None


# ---------------------------------------------------------------------
# strong periodic detectability
# ---------------------------------------------------------------------


class _Stalled(Exception):
    """Ends the SPD search at the first stalled ambiguous estimate."""


def _spd_search(a: WeightedAutomaton, x0: frozenset[str], successors,
                allowed) -> tuple[dict | None, bool]:
    """The first SPD violation that one search from x0 meets (see the
    module docstring), as a witness, or None; and whether the search read
    an inexact menu.  successors(x) gives the steps of x as (symbol,
    weight, target, cell) and whether they are exact; it is called once
    per estimate the search reaches.  allowed(x) says whether x may lie on
    an ambiguous cycle."""
    outs: dict[frozenset[str], tuple] = {}
    seen = {x0}
    queue = deque([x0])  # estimates outside allowed to expand, and roots
    inexact = False

    def stalls(x: frozenset[str]) -> bool:
        return len(x) > 1 and not a.stall_states.isdisjoint(x)

    def read(x: frozenset[str]) -> tuple:
        nonlocal inexact
        outs[x], exact = successors(x)
        inexact = inexact or not exact
        for _, _, y, _ in outs[x]:
            if y not in seen:
                seen.add(y)
                if stalls(y):
                    raise _Stalled(y)
                if not (allowed(x) and allowed(y)):
                    queue.append(y)
        return outs[x]

    def roots():
        while queue:
            x = queue.popleft()
            if allowed(x):
                yield x  # skipped when the search has already visited it
            else:
                read(x)

    def steps(x: frozenset[str]) -> list:  # among the visited estimates
        return [((s, w), y) for s, w, y, _ in outs.get(x, ())]

    try:
        if stalls(x0):
            raise _Stalled(x0)
        for comp, cyclic in strongly_connected_components(
                roots(), lambda x: [y for _, _, y, _ in read(x) if allowed(y)]):
            if cyclic:
                target = min(comp, key=sorted)
                access, _ = find_path(steps, x0, {target})
                cycle = find_cycle(lambda x: [(step, y) for step, y in steps(x) if allowed(y)],
                                   target)
                return {"kind": "ambiguous-cycle", "access": _events_of(access),
                        "cycle": _events_of(cycle),
                        "cycle_states": [sorted(x) for x in
                                         [target] + [y for (_, _, y) in cycle]]}, inexact
    except _Stalled as stop:
        x = stop.args[0]
        access, _ = find_path(steps, x0, {x})
        return {"kind": "ambiguous-estimate-can-stall", "access": _events_of(access),
                "state": sorted(x), "anchor": min(x & a.stall_states)}, inexact
    return None, inexact


def _cycle_within(est: EstimatorAutomaton, allowed: Set[frozenset],
                  anchors: Set[frozenset]) -> dict | None:
    """A cycle reachable from the initial estimate that stays in `allowed`
    and passes a state of `anchors`: its access events, its events and its
    states."""
    cyclic = states_on_cycles(allowed, lambda x: [
        y for _, _, y, _ in est.successors[x] if y in allowed]) & anchors
    if not cyclic:
        return None
    target = min(cyclic, key=sorted)
    steps = _est_steps(est)
    sub = lambda x: [(step, y) for (step, y) in steps(x) if y in allowed]
    access, _ = find_path(steps, est.initial, {target})
    cycle = find_cycle(sub, target)
    return {"access": _events_of(access), "cycle": _events_of(cycle),
            "cycle_states": [sorted(x) for x in [target] + [y for (_, _, y) in cycle]]}


def check_spd(a: WeightedAutomaton, detector: EstimatorAutomaton | None = None,
              observer: EstimatorAutomaton | None = None) -> Verdict:
    """Strong periodic detectability, by one search of the detector (see
    the module docstring).  Without a detector the search computes the
    steps of each estimate it reaches (estimator.successor_steps); with
    one it reads detector.successors.  An exact observer is searched as a
    cross-check."""
    if detector is None:
        x0 = instantaneous_closure(a, a.initial.keys())
        successors = successor_steps(a, _pairs)
    else:
        x0 = detector.initial
        successors = lambda x: (detector.successors[x], detector.exact)
    witness, inexact = _spd_search(a, x0, successors, lambda x: len(x) == 2)
    if observer is not None and observer.exact and (witness is not None or not inexact):
        other, _ = _spd_search(a, observer.initial, lambda x: (observer.successors[x], True),
                               lambda x: len(x) > 1)
        if (witness is None) != (other is None):
            raise InternalError("detector and observer searches disagree")
    if witness is not None:
        return Verdict(SPD, FAILS, witness)
    if inexact:
        # an inexact menu may have left out the step to a violation
        return Verdict(SPD, UNKNOWN, None, "bounded estimator did not close")
    return Verdict(SPD, HOLDS, None)


# ---------------------------------------------------------------------
# weak detectability and weak periodic detectability
# ---------------------------------------------------------------------


def check_wd(a: WeightedAutomaton, observer: EstimatorAutomaton | None = None) -> Verdict:
    """Weak detectability via the observer."""
    if not a.has_infinite_run:
        return Verdict(WD, HOLDS, {"kind": "no-infinite-run"},
                       "no infinite run exists")
    silent = _silent_cycle_witness(a)
    if silent is not None:
        return Verdict(WD, HOLDS, silent, "some infinite run stops producing output")
    if observer is None:
        observer = build_observer(a)
    if not observer.exact:
        return Verdict(WD, UNKNOWN, None, "bounded estimator did not close")
    singletons = {x for x in observer.states if len(x) == 1}
    found = _cycle_within(observer, singletons, singletons)
    if found is not None:
        return Verdict(WD, HOLDS, {"kind": "singleton-cycle", **found})
    return Verdict(WD, FAILS, {"kind": "no-detection-route",
                               "nonsingleton_cycles_only": True})


def check_wpd(a: WeightedAutomaton, observer: EstimatorAutomaton | None = None) -> Verdict:
    """Weak periodic detectability via the observer."""
    if not a.has_infinite_run:
        return Verdict(WPD, HOLDS, {"kind": "no-infinite-run"},
                       "no infinite run exists")
    if observer is None:
        observer = build_observer(a)
    # the initial estimate is an exact closure even in bounded mode
    if len(observer.initial) == 1 and next(iter(observer.initial)) in a.stall_states:
        return Verdict(WPD, HOLDS, {
            "kind": "singleton-estimate-can-stall",
            "access": [], "state": sorted(observer.initial)})
    if not observer.exact:
        return Verdict(WPD, UNKNOWN, None, "bounded estimator did not close")
    stalled = [x for x in observer.states if len(x) == 1 and next(iter(x)) in a.stall_states]
    if stalled:
        x = min(stalled, key=sorted)
        access, _ = find_path(_est_steps(observer), observer.initial, {x})
        return Verdict(WPD, HOLDS, {
            "kind": "singleton-estimate-can-stall",
            "access": _events_of(access), "state": sorted(x)})
    found = _cycle_within(observer, observer.states,
                          {x for x in observer.states if len(x) == 1})
    if found is not None:
        return Verdict(WPD, HOLDS, {"kind": "singleton-cycle", **found})
    return Verdict(WPD, FAILS, {"kind": "no-detection-route"})


# ---------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------


@dataclass
class AnalysisResult:
    automaton: WeightedAutomaton  # normalized, integer-scaled
    scale: int
    verdicts: dict[str, Verdict]
    observer: EstimatorAutomaton
    budget: int

    @cached_property
    def self_composition(self) -> SelfComposition:
        """The whole self-composition, built on first read: deciding SD
        explores only as much of it as its search needs."""
        return build_self_composition(self.automaton, self.budget)

    @cached_property
    def detector(self) -> EstimatorAutomaton:
        """The whole detector, built on first read: deciding SPD explores
        only as much of it as its search needs."""
        return build_detector(self.automaton)

    def statuses(self) -> dict[str, str]:
        return {p: v.status for p, v in self.verdicts.items()}


def check_all(a: WeightedAutomaton, budget: int = 10 ** 6) -> AnalysisResult:
    """Normalize, scale, build the observer, decide all four notions; the
    self-composition and the detector are built when they are read."""
    prepared, m = scale_to_integers(normalize(a))
    observer = build_observer(prepared)
    verdicts = {
        SD: check_sd(prepared, budget=budget),
        SPD: check_spd(prepared),
        WD: check_wd(prepared, observer),
        WPD: check_wpd(prepared, observer),
    }
    return AnalysisResult(prepared, m, verdicts, observer, budget)
