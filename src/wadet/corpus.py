"""Bundled example automata and instance generators.

The fixtures A0, A1 and robot are JSON documents in wadet/fixtures; the
generator of the robot document lives with the tests, which check the
document against it.

The subset-sum instance family encodes "does some subset of the given
positive integers sum to the target?" as a strong-detectability question:
a silent chain either adds each weight or skips it for free, then a
weight-1 observable step enters the first sink, while a direct observable
step of weight target+1 enters the second sink; both sinks loop with
weight 1.  The two sinks stay indistinguishable forever exactly when a
subset hits the target.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .model import WeightedAutomaton, validate
from .verdict import FAILS, HOLDS, SD, SPD, WD, WPD


@dataclass(frozen=True)
class Fixture:
    name: str
    automaton: WeightedAutomaton
    expected: dict[str, str]  # property -> expected status
    provenance: str


def subset_sum_automaton(weights: Sequence[int], target: int) -> WeightedAutomaton:
    """The subset-sum reduction instance for the given positive weights."""
    weights = [int(n) for n in weights]
    target = int(target)
    if not weights or any(n < 1 for n in weights) or target < 1:
        raise ValueError("weights and target must be positive")
    m = len(weights)
    states = [f"q{i}" for i in range(m + 1)] + ["f1", "f2"]
    transitions = []
    for i, n in enumerate(weights):
        transitions.append((f"q{i}", "u1", f"q{i+1}", (n,)))
        transitions.append((f"q{i}", "u2", f"q{i+1}", (0,)))
    transitions += [
        (f"q{m}", "e", "f1", (1,)),
        ("q0", "e", "f2", (target + 1,)),
        ("f1", "e", "f1", (1,)),
        ("f2", "e", "f2", (1,)),
    ]
    return validate({
        "k": 1,
        "states": states,
        "initial": {"q0": (0,)},
        "events": {"u1": None, "u2": None, "e": "e"},
        "transitions": transitions,
    })


_EXPECTED = {
    "A0": {SD: FAILS, SPD: FAILS, WD: HOLDS, WPD: HOLDS},
    "A1": {SD: HOLDS, SPD: FAILS, WD: HOLDS, WPD: HOLDS},
    "robot": {SD: FAILS, WD: HOLDS},
}

_PROVENANCE = {
    "A0": "bundled corpus: silent fan into two looping observable branches",
    "A1": "bundled corpus: two indistinguishable branches merging on one label",
    "robot": "bundled corpus: patrolling robot with vector-encoded positions",
}


def load_fixture(name: str) -> Fixture:
    if name not in _EXPECTED:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(_EXPECTED)}")
    from .io import parse  # deferred import; io depends on model only
    doc = json.loads(resources.files("wadet.fixtures").joinpath(f"{name}.json").read_text())
    return Fixture(name, parse(doc), dict(_EXPECTED[name]), _PROVENANCE[name])


def fixture_names() -> list[str]:
    return sorted(_EXPECTED)


def random_automaton(seed: int, max_states: int = 5, max_events: int = 3,
                     weight_range: tuple[int, int] = (-2, 2), k: int = 1,
                     unobs_fraction: float = 0.35,
                     arc_factor: float = 2.0) -> WeightedAutomaton:
    """Reproducible random instance; always has at least one initial state."""
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    labels = ["x", "y"]
    events: dict[str, str | None] = {}
    for i in range(rng.randint(1, max_events)):
        name = f"e{i}"
        events[name] = None if rng.random() < unobs_fraction else rng.choice(labels)
    by_key = {}
    for _ in range(rng.randint(1, max(1, int(arc_factor * n)) + 2)):
        key = (rng.choice(states), rng.choice(sorted(events)), rng.choice(states))
        weight = tuple(rng.randint(*weight_range) for _ in range(k))
        by_key.setdefault(key, key + (weight,))
    initial = rng.sample(states, rng.randint(1, n))
    return validate({
        "k": k,
        "states": states,
        "initial": {q: (0,) * k for q in initial},
        "events": events,
        "transitions": list(by_key.values()),
    })
