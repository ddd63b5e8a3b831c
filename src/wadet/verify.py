"""Decision procedures for the four detectability notions.

SPD is decided on the detector, WD and WPD on the observer, and each
verdict is a lasso fact about the estimates reachable from the initial
one: a reachable cycle of estimates, or a reachable estimate that can
stall (it holds a state with a silent path to a silent cycle).

- SPD fails iff some reachable ambiguous estimate (two or more states)
  can stall, or the detector has a reachable cycle of two-element
  estimates.
- WD and WPD hold vacuously when no infinite run exists.  WD also holds
  when some infinite run stops producing output (a reachable silent
  cycle of the automaton); otherwise it holds iff the observer has a
  reachable cycle of singletons.  Otherwise WPD holds iff some reachable
  singleton can stall or the observer has a reachable cycle through a
  singleton.

One search from the initial estimate decides each of them (_lasso).  It
reads an estimate's steps only when it first reaches it and reports the
first lasso as soon as it sees it (on-the-fly emptiness checking,
Couvreur, FM 1999).  It takes three tests of an estimate: allowed (it
may lie on the cycle), anchor (the cycle must pass one) and stops
(seeing it ends the search).

  property   allowed        anchor       stops
  SPD        two states     any          an ambiguous estimate that can stall
  WD         one state      one state    none
  WPD        any            one state    a singleton that can stall

- The search runs graphutil.strong_components (Gabow's path-based strong
  components) over the allowed estimates, with the anchors as marks;
  the others are expanded from a worklist that feeds it its roots.
  Each estimate is tested by stops when the search first sees it.  The
  search ends at the first estimate that stops it, or the moment an arc
  back into an open component merges a part that holds an anchor and a
  cycle, before the component closes; whichever comes first.
  Every estimate it sees is reachable, and that part is strongly
  connected among allowed estimates, so it puts each of them on a cycle
  through the anchor: a lasso it ends at is genuine.
- A search that ends without one has seen every reachable estimate and
  tested it, and has closed every component of the reachable allowed
  estimates, none both cyclic and holding an anchor; every cycle of
  allowed estimates lies inside one.  So there is no lasso.
- A menu that is inexact (a k > 1 silent row did not close) adds no
  steps, and the search carries on past it.  A lasso it finds is still
  made of genuine estimates and steps, so it decides the property: SPD
  FAILS, WD or WPD HOLDS.  A search that ends without one after it read
  an inexact menu may have missed a step to one: UNKNOWN.  Otherwise SPD
  HOLDS and WD or WPD FAILS.
- The witness is the estimate that stopped the search, or the least
  anchor (by sorted) of that part.  Its access path and its cycle are
  shortest paths among the visited estimates, which hold the search's
  path to it and the part.

Each checker searches the structure passed in, or a fresh one, through
its steps (EstimatorAutomaton.steps), one symbol at a time, so a search
that stops at x computes no later menu of x; it keeps its own record of
the estimates it visits, so a structure explored before gives the same
verdict and witness.  Given an exact observer, check_spd also searches
it, with every estimate of two or more states allowed on a cycle, and
raises InternalError when the two decided answers differ; reading
whether it is exact explores it whole, so check_all passes none.

Verdicts carry replayable witnesses; UNKNOWN appears only when a bounded
fallback (k > 1) failed to close or an exact-path-length budget ran out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .epl import DEFAULT_BUDGET
from .estimator import EstimatorAutomaton, build_detector, build_observer
from .graphutil import find_cycle, find_path, strong_components
from .model import WeightedAutomaton, prepare
from .selfcomp import SelfComposition, build_self_composition, check_sd
from .verdict import FAILS, HOLDS, SD, SPD, UNKNOWN, WD, WPD, InternalError, Verdict


def _events_of(path: list) -> list[tuple[str, object]]:
    return [step for (_, step, _) in path]


def _silent_cycle_witness(a: WeightedAutomaton) -> dict | None:
    """A reachable silent cycle of the automaton, with an access path."""
    if not a.silent_cycle_states:
        return None
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
# the lasso search
# ---------------------------------------------------------------------


class _Stop(Exception):
    """Ends a search at the first estimate that stops it."""


def _lasso(est: EstimatorAutomaton, allowed, anchor, stops) -> tuple[dict | None, bool]:
    """The first lasso that one search of est from its initial estimate x0
    meets (see the module docstring), or None; and whether the search read
    an inexact menu.  est.steps(x) gives the steps of x as (symbol, weight,
    target, cell) in batches, each with whether it is exact; it is called
    once per estimate the search reaches.  A lasso is {access, state} for
    an estimate that stops the search, and {access, cycle, cycle_states}
    for a cycle of allowed estimates through an anchor."""
    x0, successors = est.initial, est.steps
    outs: dict[frozenset[str], list] = {}
    seen = {x0}
    queue = deque([x0])  # estimates outside allowed to expand, and roots
    inexact = False

    def read(x: frozenset[str]) -> list:
        nonlocal inexact
        out = outs[x] = []
        for batch, exact in successors(x):
            inexact = inexact or not exact
            out += batch
            for _, _, y, _ in batch:
                if y not in seen:
                    seen.add(y)
                    if stops(y):
                        raise _Stop(y)
                    if not (allowed(x) and allowed(y)):
                        queue.append(y)
        return out

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
        if stops(x0):
            raise _Stop(x0)
        for comp, cyclic, anchored in strong_components(
                roots(), lambda x: [y for _, _, y, _ in read(x) if allowed(y)], anchor):
            if not (cyclic and anchored):
                continue
            target = min(filter(anchor, comp), key=sorted)
            access, _ = find_path(steps, x0, {target})
            cycle = find_cycle(lambda x: [(step, y) for step, y in steps(x) if allowed(y)],
                               target)
            return {"access": _events_of(access), "cycle": _events_of(cycle),
                    "cycle_states": [sorted(x) for x in
                                     [target] + [y for (_, _, y) in cycle]]}, inexact
    except _Stop as stop:
        x = stop.args[0]
        access, _ = find_path(steps, x0, {x})
        return {"access": _events_of(access), "state": sorted(x)}, inexact
    return None, inexact


def _anywhere(x: frozenset[str]) -> bool:
    return True


def _alone(x: frozenset[str]) -> bool:
    return len(x) == 1


# ---------------------------------------------------------------------
# strong periodic detectability
# ---------------------------------------------------------------------


def check_spd(a: WeightedAutomaton, detector: EstimatorAutomaton | None = None,
              observer: EstimatorAutomaton | None = None) -> Verdict:
    """Strong periodic detectability, by one search of the detector (see
    the module docstring).  An exact observer is searched as a
    cross-check."""
    stalls = lambda x: len(x) > 1 and not a.stall_states.isdisjoint(x)
    found, inexact = _lasso(detector or build_detector(a), lambda x: len(x) == 2,
                            _anywhere, stalls)
    if observer is not None and observer.exact and (found is not None or not inexact):
        other, _ = _lasso(observer, lambda x: len(x) > 1, _anywhere, stalls)
        if (found is None) != (other is None):
            raise InternalError("detector and observer searches disagree")
    if found is None:
        if inexact:
            # an inexact menu may have left out the step to a violation
            return Verdict(SPD, UNKNOWN, None, "bounded estimator did not close")
        return Verdict(SPD, HOLDS, None)
    if "cycle" in found:
        return Verdict(SPD, FAILS, {"kind": "ambiguous-cycle", **found})
    anchor = min(frozenset(found["state"]) & a.stall_states)
    return Verdict(SPD, FAILS, {"kind": "ambiguous-estimate-can-stall", **found,
                                "anchor": anchor})


# ---------------------------------------------------------------------
# weak detectability and weak periodic detectability
# ---------------------------------------------------------------------


def _weak(prop: str, found: dict | None, inexact: bool, no_route: dict) -> Verdict:
    """The verdict of a WD or WPD search: a lasso is a detection route."""
    if found is not None:
        kind = "singleton-cycle" if "cycle" in found else "singleton-estimate-can-stall"
        return Verdict(prop, HOLDS, {"kind": kind, **found})
    if inexact:
        return Verdict(prop, UNKNOWN, None, "bounded estimator did not close")
    return Verdict(prop, FAILS, no_route)


def check_wd(a: WeightedAutomaton, observer: EstimatorAutomaton | None = None) -> Verdict:
    """Weak detectability, by one search of the observer for a cycle of
    singletons once the vacuous cases are ruled out."""
    if not a.has_infinite_run:
        return Verdict(WD, HOLDS, {"kind": "no-infinite-run"},
                       "no infinite run exists")
    silent = _silent_cycle_witness(a)
    if silent is not None:
        return Verdict(WD, HOLDS, silent, "some infinite run stops producing output")
    found, inexact = _lasso(observer or build_observer(a), _alone, _alone, lambda x: False)
    return _weak(WD, found, inexact, {"kind": "no-detection-route",
                                      "nonsingleton_cycles_only": True})


def check_wpd(a: WeightedAutomaton, observer: EstimatorAutomaton | None = None) -> Verdict:
    """Weak periodic detectability, by one search of the observer for a
    singleton that can stall or a cycle through a singleton."""
    if not a.has_infinite_run:
        return Verdict(WPD, HOLDS, {"kind": "no-infinite-run"},
                       "no infinite run exists")
    found, inexact = _lasso(observer or build_observer(a), _anywhere, _alone,
                            lambda x: len(x) == 1 and not a.stall_states.isdisjoint(x))
    return _weak(WPD, found, inexact, {"kind": "no-detection-route"})


# ---------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------


@dataclass
class AnalysisResult:
    """The verdicts, and the structures their searches explored: each is
    explored further only when it is read."""
    automaton: WeightedAutomaton  # normalized, integer-scaled
    scale: int
    verdicts: dict[str, Verdict]
    self_composition: SelfComposition
    observer: EstimatorAutomaton
    detector: EstimatorAutomaton

    def statuses(self) -> dict[str, str]:
        return {p: v.status for p, v in self.verdicts.items()}


def check_all(a: WeightedAutomaton, budget: int = DEFAULT_BUDGET) -> AnalysisResult:
    """Normalize, scale and decide all four notions, each by its own
    search of the self-composition, the detector or the observer, each
    built once and explored only as far as the searches need."""
    prepared, m = prepare(a)
    cc = build_self_composition(prepared, budget)
    observer, detector = build_observer(prepared), build_detector(prepared)
    verdicts = {
        SD: check_sd(prepared, cc),
        SPD: check_spd(prepared, detector),
        WD: check_wd(prepared, observer),
        WPD: check_wpd(prepared, observer),
    }
    return AnalysisResult(prepared, m, verdicts, cc, observer, detector)
