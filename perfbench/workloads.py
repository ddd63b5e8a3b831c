"""Seeded instance generators and the answers each instance must get.

Every workload turns a seed into a list of automaton documents (JSON
text, the only thing the program under test sees) plus, where one is
known without running the program, the expected status per property.
Expected answers come from arithmetic in this file, never from wadet.

Sizes cycle through their range by instance index rather than being
drawn, so every draw has the same mix of sizes and differs only in the
seeded details; per-instance cost grows steeply with size (2^fan-out,
silent-SCC size), and a drawn mix made whole-draw figures depend on the
seed more than on the code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

SD, SPD, WD, WPD = "SD", "SPD", "WD", "WPD"
HOLDS, FAILS = "HOLDS", "FAILS"

# instances per pass; chosen so one pass takes a few seconds on a 2-core
# sandbox and a run fits several passes
DOCS = {
    "wide-weights": 45,
    "silent-dense": 60,
    "cell-fanout": 75,
    "vector-robot": 61,
}

WHY = {
    "wide-weights": "subset-sum weights 50-600: EPSet window scans grow with weight magnitude",
    "silent-dense": "dense silent SCCs on 3 states: self-composition sync and witness walks",
    "cell-fanout": "fan of 6-10 observable arcs with placed weight collisions: 2^(distinct weights) cell enumeration",
    "vector-robot": "robot family, k = 3-4: the k > 1 paths, product-graph walk search and bounded enumeration",
}


@dataclass(frozen=True)
class Doc:
    name: str
    text: str  # the automaton document, as the program reads it
    expected: dict  # property -> status known independently; may be empty


def _doc(k: int, states, initial: dict, events: dict, transitions) -> str:
    """A document in wadet's JSON format, written without wadet."""
    def vec(w):
        return [str(x) for x in (w if isinstance(w, (list, tuple)) else (w,))]

    return json.dumps({
        "format_version": 1,
        "k": k,
        "states": list(states),
        "initial": [{"state": q, "weight": vec(w)} for q, w in initial.items()],
        "events": [{"name": e, "label": l} for e, l in events.items()],
        "transitions": [{"from": s, "event": e, "to": d, "weight": vec(w)}
                        for (s, e, d, w) in transitions],
    }, indent=2)


def subset_sums(weights) -> set[int]:
    """Sums of the nonempty subsets of weights (dynamic programming)."""
    sums: set[int] = set()
    for w in weights:
        sums |= {s + w for s in sums} | {w}
    return sums


def wide_weights(rng: random.Random, n: int, wadet) -> list[Doc]:
    """subset_sum_automaton on 3-5 weights from [50, 600] that sum to
    350 per weight (cost follows the magnitude of the sums, so the total
    is placed, the split drawn); even instances aim at a drawn subset
    sum, odd ones at a number no subset reaches."""
    docs = []
    for i in range(n):
        count = 3 + i % 3
        weights = [0]
        while not 50 <= weights[-1] <= 600:
            weights = [rng.randint(50, 600) for _ in range(count - 1)]
            weights.append(350 * count - sum(weights))
        sums = subset_sums(weights)
        if i % 2 == 0:
            target = sum(w for w in weights if rng.random() < 0.5) or weights[0]
        else:
            target = rng.choice([t for t in range(1, sum(weights)) if t not in sums])
        a = wadet.corpus.subset_sum_automaton(weights, target)
        docs.append(Doc(f"subset{weights}->{target}",
                        wadet.io.dumps(wadet.io.serialize(a)),
                        {SD: FAILS if target in sums else HOLDS}))
    return docs


def silent_dense(rng: random.Random, n: int, wadet) -> list[Doc]:
    """Three states with silent arcs (weights 1-3) on all six ordered
    pairs, or on five for odd instances; each state has one observable
    `a` arc of weight 0-2 to a drawn state and an observable `b`
    self-loop of weight 1.  (A four-state instance costs 0.4-1.1 s, ten
    times a three-state one, so a few of them would set the pass time.)"""
    docs = []
    states = ["s0", "s1", "s2"]
    pairs = [(p, q) for p in states for q in states if p != q]
    for i in range(n):
        skip = rng.randrange(len(pairs)) if i % 2 else None
        arcs = [(p, "u", q, rng.randint(1, 3))
                for j, (p, q) in enumerate(pairs) if j != skip]
        arcs += [(p, "a", rng.choice(states), rng.randint(0, 2)) for p in states]
        arcs += [(p, "b", p, 1) for p in states]
        text = _doc(1, states, {"s0": 0}, {"u": None, "a": "a", "b": "b"}, arcs)
        docs.append(Doc(f"dense#{i}", text, {}))
    return docs


def cell_fanout(rng: random.Random, n: int, wadet) -> list[Doc]:
    """A root with 6-10 observable `a` arcs (label x) into targets that
    loop on `b` (label x) with weight 1.  The estimate after the first
    step is the set of targets sharing its weight and never changes, so
    SD and SPD fail iff two fan weights coincide, and WD and WPD hold iff
    some fan weight is unique.

    Cost grows as 2^(distinct weights), so it is placed: each block of
    15 instances holds every pair of fan-out and number of weights used
    twice (0, 1 or 2) once, the distinct weights are 0, 3, 6, ..., and
    the seed picks the weights that repeat and which target gets which.
    The distinct-weight counts 4-10 then centre on 7, where the median
    instance falls; an 11-way fan (0.7 s) made whole-run figures swing
    with the host's speed during a few long checks."""
    docs = []
    for i in range(n):
        fan, repeats = 6 + i % 5, i // 5 % 3
        weights = [3 * j for j in range(fan - repeats)]
        weights += rng.sample(weights, repeats)
        rng.shuffle(weights)
        targets = [f"t{j}" for j in range(fan)]
        arcs = [("r", "a", t, w) for t, w in zip(targets, weights)]
        arcs += [(t, "b", t, 1) for t in targets]
        text = _doc(1, ["r"] + targets, {"r": 0}, {"a": "x", "b": "x"}, arcs)
        collide = len(set(weights)) < fan
        unique = any(weights.count(w) == 1 for w in weights)
        docs.append(Doc(f"fan{weights}", text, {
            SD: FAILS if collide else HOLDS, SPD: FAILS if collide else HOLDS,
            WD: HOLDS if unique else FAILS, WPD: HOLDS if unique else FAILS}))
    return docs


def _robot(rng: random.Random, positions: int, energy: int, silent: int) -> str:
    """The bundled robot generalised: `positions` places, weights are
    place-basis differences in Z^positions, energy 0..`energy`, start in
    place 1 at half energy.  Moving right costs one energy unit and is
    announced (`a`), except from place `silent`, where it is silent and
    costs 0 or 1; moving left (`b`) regains one unit, saturating at
    `energy`.  rng renames the states and orders the arcs."""
    def basis(j):
        return [1 if i == j - 1 else 0 for i in range(positions)]

    def step(to, frm):
        return [x - y for x, y in zip(basis(to), basis(frm))]

    places = [(i, j) for i in range(energy + 1) for j in range(1, positions + 1)]
    codes = rng.sample(range(10 * len(places)), len(places))
    name = {p: f"r{c}" for p, c in zip(places, codes)}
    arcs = []
    for i in range(1, energy + 1):
        for j in range(1, positions):
            if j == silent:
                arcs.append((name[i, j], "u", name[i - 1, j + 1], step(j + 1, j)))
                arcs.append((name[i, j], "u", name[i, j + 1], step(j + 1, j)))
            else:
                arcs.append((name[i, j], "a", name[i - 1, j + 1], step(j + 1, j)))
    for j in range(2, positions + 1):
        for i in range(energy + 1):
            arcs.append((name[i, j], "b", name[min(i + 1, energy), j - 1], step(j - 1, j)))
    rng.shuffle(arcs)
    return _doc(positions, [name[p] for p in places], {name[energy // 2, 1]: basis(1)},
                {"a": "a", "u": None, "b": "b"}, arcs)


# (places, energy levels, silent place), cycled through by instance index
ROBOTS = [(p, e, s) for p in (3, 4) for e in (6, 8, 10) for s in range(1, p)]


def vector_robot(rng: random.Random, n: int, wadet) -> list[Doc]:
    """The bundled `robot` fixture, then the ROBOTS family in turn.  The
    seed only renames states and orders arcs: across random k = 2
    automata, cost per instance ranged from 1 ms to 13 s and the share
    of UNKNOWN verdicts from 8% to 23% between draws of 100."""
    fixture = wadet.corpus.load_fixture("robot")
    docs = [Doc("robot", wadet.io.dumps(wadet.io.serialize(fixture.automaton)),
                dict(fixture.expected))]
    for i in range(1, n):
        p, e, s = ROBOTS[(i - 1) % len(ROBOTS)]
        docs.append(Doc(f"robot{p}x{e}/u{s}#{i}", _robot(rng, p, e, s), {}))
    return docs


GENERATORS = {
    "wide-weights": wide_weights,
    "silent-dense": silent_dense,
    "cell-fanout": cell_fanout,
    "vector-robot": vector_robot,
}


def generate(workload: str, seed: int, wadet, n: int | None = None) -> list[Doc]:
    """The documents of one workload draw; `wadet` is the imported package."""
    rng = random.Random(f"{workload}/{seed}")
    return GENERATORS[workload](rng, DOCS[workload] if n is None else n, wadet)
