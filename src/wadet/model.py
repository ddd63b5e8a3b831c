"""Labeled weighted automata over the monoid (Q^k, +).

States and events are opaque strings, transition weights are tuples of
exact rationals, each entry an int when it is integral and a Fraction in
lowest terms otherwise (make_weight), labels are output symbols or None
for the silent label.  All operations treat automata as immutable values.

Each automaton computes its structure once, on first read, in few
passes: one over the sorted transitions for the arc tables, one
strong-component pass (graphutil.strong_components) over the silent arcs
for the silent components, silent reach and silent cycles, shared by the
k = 1 weight-set solver (epl.WeightSetSolver), one over all arcs for
cycles and the states that reach one, and one breadth-first search per
state with a zero-weight silent arc for the instantaneous closures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping

from .graphutil import reachable, strong_components

Weight = tuple[int | Fraction, ...]
Transition = tuple[str, str, str, Weight]  # (source, event, target, weight)


def zero_weight(k: int) -> Weight:
    return (0,) * k


def exact(x: int | Fraction) -> int | Fraction:
    """x, an int or a Fraction, as an int when its denominator is 1."""
    return x.numerator if x.denominator == 1 else x


def make_weight(entries: Iterable) -> Weight:
    """The entries as a weight: each an exact rational (anything Fraction
    accepts), an int when it is integral and a Fraction otherwise.  A
    tuple already in that form, as io.parse builds them, is kept as it
    is."""
    if type(entries) is tuple and all(type(e) is int or type(e) is Fraction and e.denominator != 1
                                      for e in entries):
        return entries
    return tuple(exact(e if type(e) is Fraction else Fraction(e)) for e in entries)


class ValidationError(ValueError):
    """Raised with the full list of problems found in a description."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class WeightedAutomaton:
    k: int
    states: frozenset[str]
    initial: Mapping[str, Weight]
    events: Mapping[str, str | None]  # event -> label, None = unobservable
    transitions: frozenset[Transition]

    def label(self, event: str) -> str | None:
        return self.events[event]

    @cached_property
    def sigma(self) -> frozenset[str]:
        """Output alphabet: the non-silent labels actually used."""
        return frozenset(l for l in self.events.values() if l is not None)

    # the arc tables: one pass over the sorted transitions

    @cached_property
    def _arc_tables(self) -> tuple[Mapping, Mapping, tuple, tuple]:
        arcs: dict[str, list[Transition]] = {q: [] for q in self.states}
        silent: dict[str, list[Transition]] = {q: [] for q in self.states}
        unobs: list[Transition] = []
        obs: list[Transition] = []
        for t in sorted(self.transitions):
            arcs[t[0]].append(t)
            if self.events[t[1]] is None:
                silent[t[0]].append(t)
                unobs.append(t)
            else:
                obs.append(t)
        return ({q: tuple(v) for q, v in arcs.items()},
                {q: tuple(v) for q, v in silent.items()}, tuple(unobs), tuple(obs))

    @cached_property
    def arcs_from(self) -> Mapping[str, tuple[Transition, ...]]:
        """Per state, its outgoing arcs in sorted order."""
        return self._arc_tables[0]

    @cached_property
    def silent_arcs(self) -> Mapping[str, tuple[Transition, ...]]:
        """Per state, its outgoing silent arcs in sorted order."""
        return self._arc_tables[1]

    @cached_property
    def unobs_transitions(self) -> tuple[Transition, ...]:
        return self._arc_tables[2]

    @cached_property
    def obs_transitions(self) -> tuple[Transition, ...]:
        return self._arc_tables[3]

    @cached_property
    def reachable_states(self) -> frozenset[str]:
        return frozenset(reachable(
            self.initial.keys(),
            lambda q: (t[2] for t in self.arcs_from[q]),
        ))

    # silent structure: computed once, shared by every construction

    @cached_property
    def _silent_components(self) -> tuple[Mapping[str, frozenset[str]], frozenset[str], tuple]:
        """One strong-component pass over the silent arcs, rooted at the
        states that have one.  A component closes after every component it
        has an arc into, so its reach set is the component joined with
        theirs, and it is shared by its members.  A state outside the pass
        is a component of its own and reaches only itself."""
        silent = self.silent_arcs
        reach: dict[str, frozenset[str]] = {}
        on_cycle: list[str] = []
        comps: list[frozenset[str]] = []
        for comp, cyclic, _ in strong_components(
                [q for q in self.states if silent[q]],
                lambda q: (t[2] for t in silent[q])):
            members = frozenset(comp)
            joined = members.union(*{reach[t[2]] for q in comp for t in silent[q]
                                     if t[2] not in members})
            for q in comp:
                reach[q] = joined
            comps.append(members)
            if cyclic:
                on_cycle += comp
        for q in self.states:
            if q not in reach:
                reach[q] = frozenset((q,))
                comps.append(reach[q])
        return reach, frozenset(on_cycle), tuple(comps)

    @cached_property
    def silent_reach(self) -> Mapping[str, frozenset[str]]:
        """States reachable from each state by silent paths (any weights);
        the members of a silent component share one set."""
        return self._silent_components[0]

    @cached_property
    def silent_components(self) -> tuple[frozenset[str], ...]:
        """The silent strong components, every state in one, in the order
        the silent pass closes them: each after every component it has a
        silent arc into (sinks first).  The k = 1 weight-set solver reads
        them in reverse."""
        return self._silent_components[2]

    @cached_property
    def silent_cycle_states(self) -> frozenset[str]:
        """States on a silent cycle (any weights, self-loops included)."""
        return self._silent_components[1]

    @cached_property
    def stall_states(self) -> frozenset[str]:
        """States with a silent path (any weights) to a silent cycle."""
        cyc = self.silent_cycle_states
        return frozenset(q for q, reach in self.silent_reach.items() if not reach.isdisjoint(cyc))

    @cached_property
    def zero_paths(self) -> Mapping[str, Mapping[str, tuple[Transition, ...]]]:
        """Per state, a shortest silent zero-weight path to each member of
        its instantaneous closure (breadth-first over sorted arcs, from the
        states with a zero-weight silent arc; any other state's closure is
        itself)."""
        z = zero_weight(self.k)
        zero_arcs = {q: [t for t in arcs if t[3] == z] for q, arcs in self.silent_arcs.items()}
        out = {}
        for start in self.states:
            paths: dict[str, tuple[Transition, ...]] = {start: ()}
            if zero_arcs[start]:
                queue = deque([start])
                while queue:
                    q = queue.popleft()
                    for t in zero_arcs[q]:
                        if t[2] not in paths:
                            paths[t[2]] = paths[q] + (t,)
                            queue.append(t[2])
            out[start] = paths
        return out

    @cached_property
    def closures(self) -> Mapping[str, frozenset[str]]:
        """Per state, its instantaneous closure: the keys of zero_paths."""
        return {q: frozenset(paths) for q, paths in self.zero_paths.items()}

    @cached_property
    def _components(self) -> tuple[frozenset[str], frozenset[str]]:
        """One strong-component pass over all arcs: the states on a cycle,
        and the states with a path to one, a component reaching one when it
        is cyclic or has an arc into a component that does."""
        arcs = self.arcs_from
        on_cycle: list[str] = []
        reachers: set[str] = set()
        for comp, cyclic, _ in strong_components(
                self.states, lambda q: (t[2] for t in arcs[q])):
            if cyclic:
                on_cycle += comp
            if cyclic or any(t[2] in reachers for q in comp for t in arcs[q]):
                reachers.update(comp)
        return frozenset(on_cycle), frozenset(reachers)

    @cached_property
    def cycle_states(self) -> frozenset[str]:
        """States on a cycle (any labels, self-loops included)."""
        return self._components[0]

    @cached_property
    def cycle_reachers(self) -> frozenset[str]:
        """States with a path (any labels, possibly empty) to a cycle."""
        return self._components[1]

    @cached_property
    def has_infinite_run(self) -> bool:
        """Does some infinite run exist, i.e. is a cycle reachable?"""
        return not self.cycle_reachers.isdisjoint(self.initial)

    def is_integral(self) -> bool:
        """Is every weight entry an int?  A validated automaton holds an
        integral entry as an int (make_weight)."""
        if any(type(x) is not int for w in self.initial.values() for x in w):
            return False
        return all(type(x) is int for t in self.transitions for x in t[3])

    def is_normalized(self) -> bool:
        z = zero_weight(self.k)
        return all(w == z for w in self.initial.values())

    @cached_property
    def is_prepared(self) -> bool:
        """Normalized and integral, the precondition of every construction
        (estimator.tables tests it): one scan of the weights per automaton."""
        return self.is_normalized() and self.is_integral()


# ---------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------


def validate(raw: Mapping) -> WeightedAutomaton:
    """Check a parsed description and build the canonical automaton.

    Collects every violation before failing so callers see all problems
    at once.
    """
    problems: list[str] = []

    k = raw.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        problems.append(f"dimension k must be a positive integer, got {k!r}")
        k = None  # no dimension to check the weights against

    states = [str(s) for s in raw.get("states", [])]
    state_set = frozenset(states)
    if not state_set:
        problems.append("no states declared")

    events: dict[str, str | None] = {}
    for name, label in dict(raw.get("events", {})).items():
        events[str(name)] = None if label is None else str(label)

    def weight_of(entries, where: str) -> Weight:
        try:
            w = make_weight(entries)
        except (TypeError, ValueError, ZeroDivisionError):
            problems.append(f"{where}: not a rational vector: {entries!r}")
            return ()
        if k is not None and len(w) != k:
            problems.append(f"{where}: weight has dimension {len(w)}, expected {k}")
            return ()
        return w

    initial: dict[str, Weight] = {}
    for q, entries in dict(raw.get("initial", {})).items():
        q = str(q)
        if q not in state_set:
            problems.append(f"initial state {q!r} not declared")
        initial[q] = weight_of(entries, f"initial weight of {q!r}")
    if not initial:
        problems.append("no initial state")

    seen: dict[tuple[str, str, str], Weight] = {}
    transitions: set[Transition] = set()
    for item in raw.get("transitions", []):
        src, event, dst, entries = item
        src, event, dst = str(src), str(event), str(dst)
        if src not in state_set:
            problems.append(f"transition source {src!r} not declared")
        if dst not in state_set:
            problems.append(f"transition target {dst!r} not declared")
        if event not in events:
            problems.append(f"transition event {event!r} not declared")
        w = weight_of(entries, f"transition {src}-{event}->{dst}")
        key = (src, event, dst)
        if key in seen and seen[key] != w:
            problems.append(f"conflicting weights for transition {key}")
        seen[key] = w
        transitions.add((src, event, dst, w))

    if problems:
        raise ValidationError(problems)
    return WeightedAutomaton(k, state_set, initial, events, frozenset(transitions))


# ---------------------------------------------------------------------
# normalization and scaling
# ---------------------------------------------------------------------


def _fresh(taken: Iterable[str], base: str) -> str:
    name = base
    taken = set(taken)
    while name in taken:
        name += "_"
    return name


def normalize(a: WeightedAutomaton) -> WeightedAutomaton:
    """Rewrite initial weights into a fresh silent transition so that all
    initial weights become the zero vector.  Already-normalized automata
    are returned unchanged."""
    z = zero_weight(a.k)
    weighted = {q: w for q, w in a.initial.items() if w != z}
    if not weighted:
        return a
    q_new = _fresh(a.states, "init")
    e_new = _fresh(a.events, "alpha")
    states = a.states | {q_new}
    events = dict(a.events)
    events[e_new] = None
    transitions = set(a.transitions)
    for q, w in weighted.items():
        transitions.add((q_new, e_new, q, w))
    initial = {q: z for q in a.initial if q not in weighted}
    initial[q_new] = z
    return WeightedAutomaton(a.k, states, initial, events, frozenset(transitions))


def scale_weights(a: WeightedAutomaton, factor: Fraction | int) -> WeightedAutomaton:
    """Every weight entry times factor, an int when the product is
    integral."""
    if type(factor) is not int:
        factor = Fraction(factor)
    scale = lambda w: tuple(exact(x * factor) for x in w)
    return WeightedAutomaton(
        a.k,
        a.states,
        {q: scale(w) for q, w in a.initial.items()},
        a.events,
        frozenset((s, e, d, scale(w)) for (s, e, d, w) in a.transitions),
    )


def scale_to_integers(a: WeightedAutomaton) -> tuple[WeightedAutomaton, int]:
    """Multiply all weights by the least common multiple of their
    denominators, so that every entry is an int; an automaton whose
    entries all are is returned unchanged, with scale 1.  Detectability is
    preserved (and tested, not assumed)."""
    entries = [x for w in a.initial.values() for x in w]
    entries += [x for t in a.transitions for x in t[3]]
    if all(type(x) is int for x in entries):
        scaled, m = a, 1
    else:
        m = lcm(*(x.denominator for x in entries))
        scaled = scale_weights(a, m)
    scaled.__dict__["is_prepared"] = scaled.is_normalized()  # every entry an int, as above
    return scaled, m


def prepare(a: WeightedAutomaton) -> tuple[WeightedAutomaton, int]:
    """scale_to_integers(normalize(a)), never a itself: what the
    constructions keep on it must not decide a later analysis of a."""
    prepared, m = scale_to_integers(normalize(a))
    if prepared is a:  # a copy, with the is_prepared recorded on a
        prepared = WeightedAutomaton(a.k, a.states, a.initial, a.events, a.transitions)
        prepared.__dict__["is_prepared"] = a.is_prepared
    return prepared, m


# ---------------------------------------------------------------------
# closures and structural analysis
# ---------------------------------------------------------------------


def instantaneous_closure(a: WeightedAutomaton, x: Iterable[str]) -> frozenset[str]:
    """x plus everything reachable through silent zero-weight transitions:
    the union of the cached closures, or for one state its cached set."""
    closures = a.closures
    sets = [closures[q] for q in x]
    return sets[0] if len(sets) == 1 else frozenset().union(*sets)


@dataclass(frozen=True)
class StructureReport:
    deadlock_free: bool
    divergence_free: bool
    deterministic: bool
    unambiguous: bool
    all_observable: bool
    reachable_states: frozenset[str]


def _unambiguous(a: WeightedAutomaton, targets: Mapping[str, Mapping[str, set[str]]]) -> bool:
    """Twin-run product: ambiguous iff two distinct runs of one event
    sequence meet in the same state.  targets[q][e] holds the targets of
    the e-arcs out of q, so each pair of states is expanded in time linear
    in its arcs."""
    inits = sorted(a.initial)
    starts = {(q1, q2, q1 != q2) for q1 in inits for q2 in inits}
    seen = set(starts)
    stack = list(starts)
    while stack:
        p, q, diverged = stack.pop()
        if p == q and diverged:
            return False
        q_targets = targets[q]
        for e, p_targets in targets[p].items():
            for p2 in p_targets:
                for q2 in q_targets.get(e, ()):
                    nxt = (p2, q2, diverged or p2 != q2)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return True


def structure_report(a: WeightedAutomaton) -> StructureReport:
    reach = a.reachable_states
    deadlock_free = all(a.arcs_from[q] for q in reach)

    targets: dict[str, dict[str, set[str]]] = {q: {} for q in a.states}
    for (s, e, d, w) in a.transitions:
        targets[s].setdefault(e, set()).add(d)
    deterministic = len(a.initial) == 1 and all(
        len(ds) == 1 for by_event in targets.values() for ds in by_event.values())

    return StructureReport(
        deadlock_free=deadlock_free,
        divergence_free=a.stall_states.isdisjoint(reach),
        deterministic=deterministic,
        unambiguous=_unambiguous(a, targets),
        all_observable=all(l is not None for l in a.events.values()),
        reachable_states=reach,
    )
