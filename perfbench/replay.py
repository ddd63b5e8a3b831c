"""Answer checks that use the document and plain arithmetic only.

A FAILS witness is replayed against the automaton read straight from the
JSON document: every arc must exist with its weight (times the scale the
program reports), walks must chain, paired walks must agree in labels
and weights, and claimed estimates must be reachable by a search over
(state, accumulated weight) written here.  WD and WPD FAILS witnesses
("no-detection-route") carry no path; they are checked only against the
expected answers a workload supplies.
"""

from __future__ import annotations

import json
from fractions import Fraction

FAILS, UNKNOWN = "FAILS", "UNKNOWN"


class Automaton:
    """The document's automaton with weights scaled by `scale`, plus the
    fresh silent arcs from `fresh` that stand for nonzero initial weights."""

    def __init__(self, text: str, scale: int, fresh: str | None, fresh_event: str | None):
        doc = json.loads(text)
        self.k = doc["k"]
        vec = lambda ws: tuple(Fraction(x) * scale for x in ws)
        self.labels = {e["name"]: e["label"] for e in doc["events"]}
        self.states = set(doc["states"])
        self.arcs = {(t["from"], t["event"], t["to"], vec(t["weight"]))
                     for t in doc["transitions"]}
        zero = (Fraction(0),) * self.k
        self.initial = set()
        for entry in doc["initial"]:
            w = vec(entry["weight"])
            if w == zero:
                self.initial.add(entry["state"])
            else:
                self.arcs.add((fresh, fresh_event, entry["state"], w))
        if fresh is not None:
            self.states.add(fresh)
            self.labels[fresh_event] = None
            self.initial.add(fresh)
        self.out: dict[str, list] = {q: [] for q in self.states}
        for t in sorted(self.arcs, key=repr):
            self.out[t[0]].append(t)
        self.zero = zero
        signs = {x > 0 for t in self.arcs if self.silent(t) for x in t[3] if x != 0}
        # with one sign, a silent partial sum past the goal never comes back
        self.one_sign = len(signs) <= 1
        obs = [t[3] for t in self.arcs if not self.silent(t)] or [zero]
        self.max_obs = tuple(max(abs(w[i]) for w in obs) for i in range(self.k))

    def silent(self, t) -> bool:
        return self.labels[t[1]] is None

    def closure(self, xs) -> set:
        """xs plus every state reached by silent zero-weight arcs."""
        seen, todo = set(xs), list(xs)
        while todo:
            for t in self.out[todo.pop()]:
                if self.silent(t) and t[3] == self.zero and t[2] not in seen:
                    seen.add(t[2])
                    todo.append(t[2])
        return seen

    def step(self, xs, symbol: str, weight: tuple) -> set:
        """Targets of silent walk + one `symbol` arc from xs with total
        `weight`, closed under silent zero-weight arcs.  Exact when the
        silent weights share a sign or the silent arcs form no cycle;
        otherwise the search stops at 200 000 (state, weight) pairs."""
        hits = set()
        seen = {(q, self.zero) for q in xs}
        todo = list(seen)
        while todo:
            q, acc = todo.pop()
            for t in self.out[q]:
                total = tuple(a + b for a, b in zip(acc, t[3]))
                if not self.silent(t):
                    if self.labels[t[1]] == symbol and total == weight:
                        hits.add(t[2])
                    continue
                if self.one_sign and any(abs(a) > abs(g) + b for a, g, b
                                         in zip(total, weight, self.max_obs)):
                    continue
                if (t[2], total) not in seen and len(seen) < 200_000:
                    seen.add((t[2], total))
                    todo.append((t[2], total))
        return self.closure(hits)

    def estimate(self, events) -> set:
        xs = self.closure(self.initial)
        for symbol, weight in events:
            xs = self.step(xs, symbol, as_vec(weight))
        return xs

    def stalls(self, q: str) -> bool:
        """Does a silent walk from q reach a silent cycle?"""
        succ = lambda s: {t[2] for t in self.out[s] if self.silent(t)}
        reach, todo = {q}, [q]
        while todo:
            for d in succ(todo.pop()):
                if d not in reach:
                    reach.add(d)
                    todo.append(d)
        for s in reach:  # s lies on a silent cycle iff s is silently reachable from s
            back, todo = set(), [s]
            while todo:
                for d in succ(todo.pop()):
                    if d == s:
                        return True
                    if d not in back:
                        back.add(d)
                        todo.append(d)
        return False


def as_vec(w) -> tuple:
    return tuple(Fraction(x) for x in (w if isinstance(w, (tuple, list)) else (w,)))


def _walk(aut: Automaton, arcs, start, end, what: str) -> list[str]:
    """Problems with `arcs` as a walk of aut from start to end."""
    at = start
    for t in arcs:
        if t not in aut.arcs:
            return [f"{what}: arc {t!r} is not in the document"]
        if t[0] != at:
            return [f"{what}: arc {t!r} does not leave {at!r}"]
        at = t[2]
    return [] if at == end else [f"{what}: walk ends at {at!r}, not {end!r}"]


def _chain(pairs_path, start, what: str) -> tuple[list[str], object]:
    at = start
    for tr in pairs_path:
        if tr.source != at:
            return [f"{what}: {tr!r} does not leave {at!r}"], at
        at = tr.target
    return [], at


def replay_sd(aut: Automaton, result, witness: dict) -> list[str]:
    """A self-composition lasso: two runs with equal observations that
    split into distinct states, the left one able to run forever."""
    cc = result.self_composition
    origin = tuple(witness["origin"])
    if not set(origin) <= aut.initial:
        return [f"SD: origin {origin!r} is not a pair of initial states"]
    problems, loop = _chain(witness["cc_access"], origin, "SD access")
    more, back = _chain(witness["cc_cycle"], loop, "SD cycle")
    problems += more
    if not witness["cc_cycle"] or back != loop:
        problems.append("SD: the self-composition cycle does not close")
    more, split = _chain(witness["cc_split_path"], loop, "SD split path")
    problems += more
    if split != tuple(witness["split_state"]) or split[0] == split[1]:
        problems.append(f"SD: split state {split!r} is not a distinct pair")
    for part in ("cc_access", "cc_cycle", "cc_split_path"):
        for tr in witness[part]:
            left, right = cc.witnesses[tr]
            problems += _walk(aut, left, tr.source[0], tr.target[0], "SD left walk")
            problems += _walk(aut, right, tr.source[1], tr.target[1], "SD right walk")
            obs = [[aut.labels[t[1]] for t in w if not aut.silent(t)] for w in (left, right)]
            sums = [tuple(map(sum, zip(aut.zero, *(t[3] for t in w)))) for w in (left, right)]
            if len(obs[0]) != 1 or obs[0] != obs[1] or sums[0] != sums[1]:
                problems.append(f"SD: {tr!r} pairs walks with different observations")
    a_path, a_cycle = witness["a_path_to_cycle"], witness["a_cycle"]
    anchor = a_path[-1][2] if a_path else split[0]
    problems += _walk(aut, a_path, split[0], anchor, "SD path to cycle")
    problems += _walk(aut, a_cycle, anchor, anchor, "SD automaton cycle")
    if not a_cycle:
        problems.append("SD: empty automaton cycle")
    return problems


def replay_spd(aut: Automaton, witness: dict) -> list[str]:
    """An observation after which the estimate stays ambiguous forever."""
    x = aut.estimate(witness["access"])
    if witness["kind"] == "ambiguous-estimate-can-stall":
        state = set(witness["state"])
        if len(state) < 2 or not state <= x:
            return [f"SPD: estimate {sorted(x)} does not contain {sorted(state)}"]
        if witness["anchor"] not in state or not aut.stalls(witness["anchor"]):
            return [f"SPD: {witness['anchor']!r} cannot stall silently"]
        return []
    if witness["kind"] != "ambiguous-cycle":
        return [f"SPD: unknown witness kind {witness['kind']!r}"]
    claimed = [set(s) for s in witness["cycle_states"]]
    if not witness["cycle"] or claimed[0] != claimed[-1]:
        return ["SPD: the estimate cycle does not close"]
    if not claimed[0] <= x:
        return [f"SPD: estimate {sorted(x)} does not contain {sorted(claimed[0])}"]
    for _ in range(2):  # pump the cycle twice
        for (symbol, weight), want in zip(witness["cycle"], claimed[1:]):
            x = aut.step(x, symbol, as_vec(weight))
            if len(want) < 2 or not want <= x:
                return [f"SPD: estimate {sorted(x)} does not contain {sorted(want)}"]
    return []


def check(doc, result, outputs: dict) -> list[str]:
    """Every problem with one document's verdicts; empty when correct."""
    problems = []
    statuses = {p: v["status"] for p, v in outputs.items()}
    for prop, want in doc.expected.items():
        if statuses[prop] not in (want, UNKNOWN):
            problems.append(f"{prop}: {statuses[prop]}, expected {want}")
    prepared = result.automaton
    base = json.loads(doc.text)
    fresh = sorted(set(prepared.states) - set(base["states"]))
    fresh_event = sorted(set(prepared.events) - {e["name"] for e in base["events"]})
    aut = Automaton(doc.text, result.scale, fresh[0] if fresh else None,
                    fresh_event[0] if fresh_event else None)
    if set(prepared.transitions) != aut.arcs or set(prepared.initial) != aut.initial:
        return problems + ["prepared automaton is not the scaled document"]
    verdicts = result.verdicts
    if statuses.get("SD") == FAILS:
        problems += replay_sd(aut, result, verdicts["SD"].witness)
    if statuses.get("SPD") == FAILS:
        problems += replay_spd(aut, verdicts["SPD"].witness)
    return problems
