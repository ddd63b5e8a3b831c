"""Decision procedures for the four detectability notions.

Strong periodic detectability is decided on the detector: it fails iff
some reachable estimate of size >= 2 contains a state with a silent path
to a silent cycle, or the detector has a reachable cycle visiting only
two-element estimates.  A cross-check re-evaluates the same property on
the observer (fails iff an ambiguous reachable estimate can stall
silently, or some reachable observer cycle avoids singletons) and the two
answers must agree; a disagreement raises InternalError.

Weak (periodic) detectability is decided on the observer: the property
holds vacuously when no infinite run exists or when some infinite run
stops producing output (it enters a silent cycle), and otherwise requires
a reachable observer cycle consisting of singletons (all singletons for
WD, at least one for WPD on the cycle).

Verdicts carry replayable witnesses; UNKNOWN appears only when a bounded
fallback (k > 1) failed to close or an exact-path-length budget ran out.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property

from .estimator import EstimatorAutomaton, build_detector, build_observer
from .graphutil import find_cycle, find_path, states_on_cycles
from .model import WeightedAutomaton, normalize, scale_to_integers
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


def _spd_fails_on(a: WeightedAutomaton, est: EstimatorAutomaton,
                  cycle_rule) -> dict | None:
    """Shared body of the detector (Thm-9 style) and observer (Thm-8 style)
    evaluations; cycle_rule picks the states allowed on an ambiguous cycle."""
    stalled = [x for x in est.states if len(x) > 1 and not a.stall_states.isdisjoint(x)]
    if stalled:
        x = min(stalled, key=sorted)
        access, _ = find_path(_est_steps(est), est.initial, {x})
        return {"kind": "ambiguous-estimate-can-stall",
                "access": _events_of(access), "state": sorted(x),
                "anchor": min(x & a.stall_states)}

    allowed = {x for x in est.states if cycle_rule(x)}
    found = _cycle_within(est, allowed, allowed)
    return None if found is None else {"kind": "ambiguous-cycle", **found}


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
    """Strong periodic detectability, decided on the detector; when an
    observer is supplied the observer-side evaluation must agree."""
    if detector is None:
        detector = build_detector(a)
    if not detector.exact:
        # a truncated enumeration can understate estimates, so neither a
        # found violation nor its absence can be trusted
        return Verdict(SPD, UNKNOWN, None, "bounded estimator did not close")
    witness = _spd_fails_on(a, detector, lambda x: len(x) == 2)
    if observer is not None and observer.exact:
        other = _spd_fails_on(a, observer, lambda x: len(x) > 1)
        if (witness is None) != (other is None):
            raise InternalError("detector and observer evaluations disagree")
    if witness is not None:
        return Verdict(SPD, FAILS, witness)
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
    detector: EstimatorAutomaton
    budget: int

    @cached_property
    def self_composition(self) -> SelfComposition:
        """The whole self-composition, built on first read: deciding SD
        explores only as much of it as its search needs."""
        return build_self_composition(self.automaton, self.budget)

    def statuses(self) -> dict[str, str]:
        return {p: v.status for p, v in self.verdicts.items()}


def check_all(a: WeightedAutomaton, budget: int = 10 ** 6) -> AnalysisResult:
    """Normalize, scale, build the observer and the detector, decide all
    four notions; the self-composition is built when it is read."""
    prepared, m = scale_to_integers(normalize(a))
    observer = build_observer(prepared)
    detector = build_detector(prepared)
    verdicts = {
        SD: check_sd(prepared, budget=budget),
        SPD: check_spd(prepared, detector, observer),
        WD: check_wd(prepared, observer),
        WPD: check_wpd(prepared, observer),
    }
    return AnalysisResult(prepared, m, verdicts, observer, detector, budget)
