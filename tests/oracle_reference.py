"""Reference brute force for the tests: bounded runs, a path-enumeration
estimate, and bounded falsification of the four detectability notions.

The path-enumeration estimate (oracle_estimate_enum) shares no engine
with wadet's own (estimator.estimate) and cross-checks it on small
instances.

Falsification searches lasso-shaped infinite paths: each stem one of
the first `stem_cap` runs of at most `horizon` arcs from an initial state
(_runs, in length order), each cycle one of at most CYCLE_CAP simple
cycles at the stem's end, turned until the estimate entering a turn
repeats, at most MAX_ROUNDS times; the observations step through
estimator.estimate_step.  The lassos of an automaton are followed once
per horizon and stem cap, with one step memo, and every property reads
them.  Counterexamples for the strong notions are genuine proofs of
failure; for the weak notions the search is a bounded cross-check only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count, islice
from typing import Callable, Iterator, Sequence

from wadet.estimator import estimate_step
from wadet.model import (
    Transition,
    WeightedAutomaton,
    instantaneous_closure,
    normalize,
    scale_to_integers,
    zero_weight,
)

CYCLE_CAP = 64  # most simple cycles the lasso search tries at one state
MAX_ROUNDS = 40  # most turns of a cycle a lasso follows to a repeated estimate


# ---------------------------------------------------------------------
# bounded runs
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedRun:
    start: str
    path: tuple[Transition, ...]

    @property
    def end(self) -> str:
        return self.path[-1][2] if self.path else self.start


def _runs(a: WeightedAutomaton, horizon: int) -> Iterator[BoundedRun]:
    """Paths from initial states in length order, up to `horizon`
    transitions, each built when it is asked for."""
    layer = [BoundedRun(q, ()) for q in sorted(a.initial)]
    yield from layer
    for _ in range(horizon):
        nxt = []
        for run in layer:
            for t in a.arcs_from[run.end]:
                nxt.append(BoundedRun(run.start, run.path + (t,)))
                yield nxt[-1]
        layer = nxt


# ---------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------


def _as_vector(value, k: int) -> tuple[Fraction, ...]:
    if isinstance(value, (int, Fraction, str)):
        value = (value,)
    vec = tuple(Fraction(x) for x in value)
    if len(vec) != k:
        raise ValueError(f"weight {value!r} has dimension {len(vec)}, expected {k}")
    return vec


def _enum_estimates(a: WeightedAutomaton, horizon: int) -> dict[tuple, set[str]]:
    """Per observed sequence, the end states of the runs of at most
    `horizon` arcs from an initial state that show it and whose arcs after
    the last observable one weigh zero.  The runs are enumerated once per
    automaton and horizon, each extending its parent's accumulated weight
    and observations; kept in a.__dict__ apart from estimator.tables, so
    that this reference shares no table with the engine it checks."""
    cache = a.__dict__.setdefault("_enum_estimates", {})
    if horizon in cache:
        return cache[horizon]
    norm = normalize(a)
    index: dict[tuple, set[str]] = {}
    # (state, accumulated weight, observations, zero-weight since the last
    # observation) per run of the current length
    layer = [(q, zero_weight(norm.k), (), True) for q in sorted(norm.initial)]
    for depth in count():
        for q, _, labels, instantaneous in layer:
            if instantaneous:
                index.setdefault(labels, set()).add(q)
        if depth >= horizon:
            break
        nxt = []
        for q, total, labels, instantaneous in layer:
            for (_, e, d, w) in norm.arcs_from[q]:
                step = tuple(x + y for x, y in zip(total, w))
                label = norm.label(e)
                if label is None:
                    nxt.append((d, step, labels, instantaneous and not any(w)))
                else:
                    nxt.append((d, step, labels + ((label, step),), True))
        layer = nxt
    cache[horizon] = index
    return index


def oracle_estimate_enum(a: WeightedAutomaton, gamma: Sequence,
                         horizon: int = 8) -> frozenset[str]:
    """Path-enumeration variant of the estimate, bounded by `horizon`."""
    gamma = tuple((sigma, _as_vector(t, a.k)) for sigma, t in gamma)
    return frozenset(_enum_estimates(a, horizon).get(gamma, ()))


# ---------------------------------------------------------------------
# lasso falsification
# ---------------------------------------------------------------------


def _observed_steps(a: WeightedAutomaton, arcs: Sequence[Transition],
                    carry: tuple[int, ...]):
    """Fold a concrete arc sequence into observed (symbol, increment) steps,
    returning the trailing unobserved weight as the new carry."""
    steps = []
    acc = carry
    for (s, e, d, w) in arcs:
        acc = tuple(int(x) + int(y) for x, y in zip(acc, w))
        if a.label(e) is not None:
            steps.append((a.label(e), acc))
            acc = tuple(0 for _ in acc)
    return steps, acc


@dataclass(frozen=True)
class Counterexample:
    property: str
    kind: str
    stem: tuple[Transition, ...]
    cycle: tuple[Transition, ...]
    details: dict


def _simple_cycles_at(a: WeightedAutomaton, q: str,
                      horizon: int) -> list[tuple[Transition, ...]]:
    cycles = []
    stack = [((), q, frozenset([q]))]
    while stack and len(cycles) < CYCLE_CAP:
        path, cur, visited = stack.pop()
        if len(path) >= horizon:
            continue
        for t in a.arcs_from[cur]:
            if t[2] == q:
                cycles.append(path + (t,))
            elif t[2] not in visited:
                stack.append((path + (t,), t[2], visited | {t[2]}))
    return cycles


def _recurrent(step: Callable, a: WeightedAutomaton, x: frozenset[str], carry: tuple[int, ...],
               cycle: Sequence[Transition]) -> list[frozenset[str]]:
    """The estimates at the observed positions of the rounds of cycle^n
    entered with estimate x and trailing unobserved weight carry, step(x,
    sigma, delta) giving each next one, from the first round whose entry
    (estimate, carry) repeats, or of the last of MAX_ROUNDS rounds."""
    rounds = []
    seen_entries = {}
    entry = (x, carry)
    for r in range(MAX_ROUNDS):
        if entry in seen_entries:
            return [y for rnd in rounds[seen_entries[entry]:] for y in rnd]
        seen_entries[entry] = r
        steps, carry = _observed_steps(a, cycle, entry[1])
        x = entry[0]
        positions = []
        for sigma, delta in steps:
            x = step(x, sigma, delta)
            positions.append(x)
        rounds.append(positions)
        entry = (x, carry)
    return rounds[-1]


def _lassos(a: WeightedAutomaton, horizon: int, stem_cap: int) -> tuple[int, list[tuple]]:
    """The number of stems, and per stem and simple cycle at its end, in
    search order, (stem, cycle, estimate at the end of the stem, recurrent
    estimates), the last None for a silent cycle.  Followed once per
    automaton, horizon and stem cap, through one step memo, and kept in
    a.__dict__, so every property reads the same lassos."""
    found = a.__dict__.setdefault("_lassos", {})
    if (horizon, stem_cap) in found:
        return found[horizon, stem_cap]
    norm, _ = scale_to_integers(normalize(a))

    @cache
    def step(x: frozenset[str], sigma: str, delta: tuple[int, ...]) -> frozenset[str]:
        return estimate_step(norm, x, sigma, delta)

    stems = list(islice(_runs(norm, horizon), stem_cap))
    x0 = instantaneous_closure(norm, norm.initial.keys())
    lassos = []
    for stem in stems:
        steps, carry = _observed_steps(norm, stem.path, zero_weight(norm.k))
        x = x0
        for sigma, delta in steps:
            x = step(x, sigma, delta)
        for cycle in _simple_cycles_at(norm, stem.end, horizon):
            observable = any(norm.label(e) is not None for (_, e, _, _) in cycle)
            lassos.append((stem.path, cycle, x,
                           _recurrent(step, norm, x, carry, cycle) if observable else None))
    found[horizon, stem_cap] = len(stems), lassos
    return found[horizon, stem_cap]


def oracle_falsify(a: WeightedAutomaton, prop: str, horizon: int = 8,
                   stem_cap: int = 20000) -> Counterexample | None:
    """Bounded search for a definition-level violation of SD/SPD/WD/WPD.

    Sound for the strong notions: a returned counterexample replays to
    recurring ambiguous estimates.  For the weak notions the result is a
    bounded exhaustion report, usable only as a cross-check.
    """
    prop = prop.upper()
    if prop not in ("SD", "SPD", "WD", "WPD"):
        raise ValueError(f"unknown property {prop!r}")
    stems, lassos = _lassos(a, horizon, stem_cap)

    found_wd_witness = False
    found_wpd_witness = False
    found_unobs_cycle = False

    for stem, cycle, final, rec_positions in lassos:
        if rec_positions is None:  # a silent cycle
            found_unobs_cycle = True
            if len(final) == 1:
                found_wpd_witness = True
            if prop == "SPD" and len(final) > 1:
                return Counterexample(prop, "silent-cycle-after-ambiguity", stem, cycle,
                                      {"estimate": sorted(final)})
            continue
        if not rec_positions:
            continue
        if prop == "SD" and any(len(x) > 1 for x in rec_positions):
            return Counterexample(prop, "recurring-ambiguity", stem, cycle,
                                  {"estimates": [sorted(x) for x in rec_positions]})
        if prop == "SPD" and all(len(x) > 1 for x in rec_positions):
            return Counterexample(prop, "persistent-ambiguity", stem, cycle,
                                  {"estimates": [sorted(x) for x in rec_positions]})
        if all(len(x) == 1 for x in rec_positions):
            found_wd_witness = True
            found_wpd_witness = True
        elif any(len(x) == 1 for x in rec_positions):
            found_wpd_witness = True

    if prop in ("SD", "SPD"):
        return None
    if prop == "WD":
        if not lassos or found_unobs_cycle or found_wd_witness:
            return None
    elif not lassos or found_wpd_witness:
        return None
    return Counterexample(prop, "bounded-exhaustion", (), (),
                          {"horizon": horizon, "stems": stems})
