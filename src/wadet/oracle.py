"""Definition-level brute force: bounded run enumeration, current-state
estimates, and bounded falsification of the four detectability notions.

The estimate itself is the product's: oracle_estimate feeds the observed
(symbol, accumulated weight) pairs one at a time, as increments, to
estimator.estimate_step.  The path-enumeration variant
(oracle_estimate_enum) shares no engine with it and cross-checks it on
small instances.

Falsification searches lasso-shaped infinite paths (bounded stem and
cycle), stepping their observations through estimate_step.
Counterexamples for the strong notions are genuine proofs of failure; for
the weak notions the search is a bounded cross-check only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count, islice
from typing import Callable, Iterator, Sequence

from .epl import DEFAULT_BUDGET
from .estimator import OracleUndecided, estimate_step
from .model import (
    Transition,
    WeightedAutomaton,
    instantaneous_closure,
    normalize,
    scale_to_integers,
    zero_weight,
)

Obs = tuple[str, tuple[Fraction, ...]]  # (symbol, accumulated weight)
MAX_HORIZON = 16  # longest path oracle_runs enumerates exhaustively


def _as_vector(value, k: int) -> tuple[Fraction, ...]:
    if isinstance(value, (int, Fraction, str)):
        value = (value,)
    vec = tuple(Fraction(x) for x in value)
    if len(vec) != k:
        raise ValueError(f"weight {value!r} has dimension {len(vec)}, expected {k}")
    return vec


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

    @property
    def weighted_word(self) -> tuple[tuple[str, tuple[Fraction, ...]], ...]:
        out = []
        total = None
        for (s, e, d, w) in self.path:
            total = w if total is None else tuple(a + b for a, b in zip(total, w))
            out.append((e, total))
        return tuple(out)

    def label_sequence(self, a: WeightedAutomaton) -> tuple[Obs, ...]:
        return tuple((a.label(e), t) for (e, t) in self.weighted_word
                     if a.label(e) is not None)


def oracle_runs(a: WeightedAutomaton, horizon: int = 12) -> list[BoundedRun]:
    """Every path from an initial state with at most `horizon` transitions."""
    if horizon > MAX_HORIZON:
        raise ValueError("horizon too large for exhaustive enumeration")
    return list(_runs(a, horizon))


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


def _deltas_of(gamma: Sequence[Obs], k: int, scale: int) -> list | None:
    """Observed increments, scaled to integers; None if unachievable."""
    prev = zero_weight(k)
    out = []
    for sigma, total in gamma:
        total = _as_vector(total, k)
        delta = tuple((t - p) * scale for t, p in zip(total, prev))
        if any(d.denominator != 1 for d in delta):
            return None
        out.append((sigma, tuple(int(d) for d in delta)))
        prev = total
    return out


def oracle_estimate(a: WeightedAutomaton, gamma: Sequence, budget: int = DEFAULT_BUDGET,
                    ) -> frozenset[str]:
    """The current-state estimate for an observed weighted label sequence
    (accumulated-weight convention)."""
    norm = normalize(a)
    scaled, m = scale_to_integers(norm)
    gamma = [(sigma, _as_vector(t, a.k)) for sigma, t in gamma]
    deltas = _deltas_of(gamma, a.k, m)
    if deltas is None:
        return frozenset()
    x = instantaneous_closure(scaled, scaled.initial.keys())
    for sigma, delta in deltas:
        x = estimate_step(scaled, x, sigma, delta, budget)
    return x


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
    if horizon > MAX_HORIZON:
        raise ValueError("horizon too large for exhaustive enumeration")
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


def _simple_cycles_at(a: WeightedAutomaton, q: str, horizon: int,
                      cap: int = 64) -> list[tuple[Transition, ...]]:
    cycles = []
    stack = [((), q, frozenset([q]))]
    while stack and len(cycles) < cap:
        path, cur, visited = stack.pop()
        if len(path) >= horizon:
            continue
        for t in a.arcs_from[cur]:
            if t[2] == q:
                cycles.append(path + (t,))
            elif t[2] not in visited:
                stack.append((path + (t,), t[2], visited | {t[2]}))
    return cycles


def _lasso_estimates(step: Callable, a: WeightedAutomaton,
                     stem: Sequence[Transition], cycle: Sequence[Transition],
                     max_rounds: int = 40):
    """Estimates along stem . cycle^n, step(x, sigma, delta) giving each
    next one: the list of estimates at each observed position of the stem,
    then per-round position lists until the round-entry estimate repeats.
    Returns (stem_estimates, rounds, recurrent_slice)."""
    zero = tuple(0 for _ in range(a.k))
    stem_steps, carry = _observed_steps(a, stem, zero)
    x = instantaneous_closure(a, a.initial.keys())
    stem_estimates = [x]
    for sigma, delta in stem_steps:
        x = step(x, sigma, delta)
        stem_estimates.append(x)
    rounds = []
    seen_entries = {}
    entry = (x, carry)
    for r in range(max_rounds):
        if entry in seen_entries:
            return stem_estimates, rounds, rounds[seen_entries[entry]:]
        seen_entries[entry] = r
        steps, carry = _observed_steps(a, cycle, entry[1])
        x = entry[0]
        positions = []
        for sigma, delta in steps:
            x = step(x, sigma, delta)
            positions.append(x)
        rounds.append(positions)
        entry = (x, carry)
    return stem_estimates, rounds, rounds[-1:]


def oracle_falsify(a: WeightedAutomaton, prop: str, horizon: int = 8,
                   stem_cap: int = 20000) -> Counterexample | None:
    """Bounded search for a definition-level violation of SD/SPD/WD/WPD.

    Sound for the strong notions: a returned counterexample replays to
    recurring ambiguous estimates.  For the weak notions the result is a
    bounded exhaustion report, usable only as a cross-check.
    """
    prop = prop.upper()
    norm, _ = scale_to_integers(normalize(a))

    @cache
    def step(x: frozenset[str], sigma: str, delta: tuple[int, ...]) -> frozenset[str]:
        return estimate_step(norm, x, sigma, delta)

    stems = list(islice(_runs(norm, horizon), stem_cap))

    found_wd_witness = False
    found_wpd_witness = False
    found_unobs_cycle = False
    any_cycle = False

    for stem in stems:
        for cycle in _simple_cycles_at(norm, stem.end, horizon):
            any_cycle = True
            observable = any(norm.label(e) is not None for (_, e, _, _) in cycle)
            if not observable:
                found_unobs_cycle = True
                stem_est, _, _ = _lasso_estimates(step, norm, stem.path, cycle)
                final = stem_est[-1]
                if len(final) == 1:
                    found_wpd_witness = True
                if prop == "SPD" and len(final) > 1:
                    return Counterexample(prop, "silent-cycle-after-ambiguity",
                                          stem.path, cycle,
                                          {"estimate": sorted(final)})
                continue
            stem_est, rounds, recurrent = _lasso_estimates(step, norm, stem.path, cycle)
            rec_positions = [x for rnd in recurrent for x in rnd]
            if not rec_positions:
                continue
            if prop == "SD" and any(len(x) > 1 for x in rec_positions):
                return Counterexample(prop, "recurring-ambiguity", stem.path, cycle,
                                      {"estimates": [sorted(x) for x in rec_positions]})
            if prop == "SPD" and all(len(x) > 1 for x in rec_positions):
                return Counterexample(prop, "persistent-ambiguity", stem.path, cycle,
                                      {"estimates": [sorted(x) for x in rec_positions]})
            if all(len(x) == 1 for x in rec_positions):
                found_wd_witness = True
                found_wpd_witness = True
            elif any(len(x) == 1 for x in rec_positions):
                found_wpd_witness = True

    if prop in ("SD", "SPD"):
        return None
    if prop == "WD":
        if not any_cycle or found_unobs_cycle or found_wd_witness:
            return None
        return Counterexample(prop, "bounded-exhaustion", (), (),
                              {"horizon": horizon, "stems": len(stems)})
    if prop == "WPD":
        if not any_cycle or found_wpd_witness:
            return None
        return Counterexample(prop, "bounded-exhaustion", (), (),
                              {"horizon": horizon, "stems": len(stems)})
    raise ValueError(f"unknown property {prop!r}")
