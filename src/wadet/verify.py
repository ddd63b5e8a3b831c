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
reads an estimate's steps only when it first reaches it and stops at the
first lasso (on-the-fly SCC-based emptiness checking, Couvreur, FM 1999).
It takes three tests of an estimate: allowed (it may lie on the cycle),
anchor (a cyclic component must hold one) and stops (seeing it ends the
search).

  property   allowed        anchor       stops
  SPD        two states     any          an ambiguous estimate that can stall
  WD         one state      one state    none
  WPD        any            one state    a singleton that can stall

- The search runs graphutil.strongly_connected_components (Tarjan) over
  the allowed estimates; the others are expanded from a worklist that
  feeds it its roots.  Each estimate is tested by stops when the search
  first sees it.  The search ends at the first estimate that stops it or
  at the first cyclic component that holds an anchor, whichever comes
  first.  Every estimate it sees is reachable, and a cyclic component of
  allowed estimates puts each of them on a cycle, so a lasso it ends at
  is genuine.
- A search that ends without one has seen every reachable estimate and
  tested it, and has split the reachable allowed estimates into their
  components, every cycle of them lying inside one.  So there is no
  lasso.
- A menu that is inexact (a k > 1 silent row did not close) adds no
  steps, and the search carries on past it.  A lasso it finds is still
  made of genuine estimates and steps, so it decides the property: SPD
  FAILS, WD or WPD HOLDS.  A search that ends without one after it read
  an inexact menu may have missed a step to one: UNKNOWN.  Otherwise SPD
  HOLDS and WD or WPD FAILS.
- The witness is the estimate that stopped the search, or the least
  anchor (by sorted) of the cyclic component.  Its access path and its
  cycle are shortest paths among the visited estimates, which hold the
  search's path to it and all that the component reaches.

Each checker computes the steps of each estimate it reaches
(estimator.successor_steps), or reads the successors of a structure
passed in, with the same verdict and witness.  Given an exact observer,
check_spd also searches it, with every estimate of two or more states
allowed on a cycle, and raises InternalError when the two decided
answers differ.

Verdicts carry replayable witnesses; UNKNOWN appears only when a bounded
fallback (k > 1) failed to close or an exact-path-length budget ran out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .epl import DEFAULT_BUDGET
from .estimator import (EstimatorAutomaton, _pairs, _whole, build_detector, build_observer,
                        successor_steps)
from .graphutil import find_cycle, find_path, strongly_connected_components
from .model import WeightedAutomaton, instantaneous_closure, normalize, scale_to_integers
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


def _route(a: WeightedAutomaton, est: EstimatorAutomaton | None, split):
    """The initial estimate and the successor function of a search: the
    steps of est when a structure is passed in, else those that
    successor_steps(a, split) computes for each estimate reached."""
    if est is None:
        return instantaneous_closure(a, a.initial.keys()), successor_steps(a, split)
    return est.initial, lambda x: (est.successors[x], est.exact)


def _lasso(x0: frozenset[str], successors, allowed, anchor,
           stops) -> tuple[dict | None, bool]:
    """The first lasso that one search from x0 meets (see the module
    docstring), or None; and whether the search read an inexact menu.
    successors(x) gives the steps of x as (symbol, weight, target, cell)
    and whether they are exact; it is called once per estimate the search
    reaches.  A lasso is {access, state} for an estimate that stops the
    search, and {access, cycle, cycle_states} for a cycle of allowed
    estimates through an anchor."""
    outs: dict[frozenset[str], tuple] = {}
    seen = {x0}
    queue = deque([x0])  # estimates outside allowed to expand, and roots
    inexact = False

    def read(x: frozenset[str]) -> tuple:
        nonlocal inexact
        outs[x], exact = successors(x)
        inexact = inexact or not exact
        for _, _, y, _ in outs[x]:
            if y not in seen:
                seen.add(y)
                if stops(y):
                    raise _Stop(y)
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
        if stops(x0):
            raise _Stop(x0)
        for comp, cyclic in strongly_connected_components(
                roots(), lambda x: [y for _, _, y, _ in read(x) if allowed(y)]):
            anchors = [x for x in comp if anchor(x)] if cyclic else ()
            if anchors:
                target = min(anchors, key=sorted)
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
    found, inexact = _lasso(*_route(a, detector, _pairs), lambda x: len(x) == 2,
                            _anywhere, stalls)
    if observer is not None and observer.exact and (found is not None or not inexact):
        other, _ = _lasso(*_route(a, observer, _whole), lambda x: len(x) > 1,
                          _anywhere, stalls)
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
    found, inexact = _lasso(*_route(a, observer, _whole), _alone, _alone,
                            lambda x: False)
    return _weak(WD, found, inexact, {"kind": "no-detection-route",
                                      "nonsingleton_cycles_only": True})


def check_wpd(a: WeightedAutomaton, observer: EstimatorAutomaton | None = None) -> Verdict:
    """Weak periodic detectability, by one search of the observer for a
    singleton that can stall or a cycle through a singleton."""
    if not a.has_infinite_run:
        return Verdict(WPD, HOLDS, {"kind": "no-infinite-run"},
                       "no infinite run exists")
    found, inexact = _lasso(*_route(a, observer, _whole), _anywhere, _alone,
                            lambda x: len(x) == 1 and not a.stall_states.isdisjoint(x))
    return _weak(WPD, found, inexact, {"kind": "no-detection-route"})


# ---------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------


@dataclass
class AnalysisResult:
    automaton: WeightedAutomaton  # normalized, integer-scaled
    scale: int
    verdicts: dict[str, Verdict]
    budget: int

    @cached_property
    def self_composition(self) -> SelfComposition:
        """The whole self-composition, built on first read: deciding SD
        explores only as much of it as its search needs."""
        return build_self_composition(self.automaton, self.budget)

    @cached_property
    def observer(self) -> EstimatorAutomaton:
        """The whole observer, built on first read: deciding WD and WPD
        explores only as much of it as their searches need."""
        return build_observer(self.automaton)

    @cached_property
    def detector(self) -> EstimatorAutomaton:
        """The whole detector, built on first read: deciding SPD explores
        only as much of it as its search needs."""
        return build_detector(self.automaton)

    def statuses(self) -> dict[str, str]:
        return {p: v.status for p, v in self.verdicts.items()}


def check_all(a: WeightedAutomaton, budget: int = DEFAULT_BUDGET) -> AnalysisResult:
    """Normalize, scale and decide all four notions, each by its own
    on-the-fly search; the self-composition, the observer and the
    detector are built when they are read."""
    prepared, m = scale_to_integers(normalize(a))
    verdicts = {
        SD: check_sd(prepared, budget=budget),
        SPD: check_spd(prepared),
        WD: check_wd(prepared),
        WPD: check_wpd(prepared),
    }
    return AnalysisResult(prepared, m, verdicts, budget)
