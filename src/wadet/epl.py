"""Exact-path-length engine over integer-weighted arcs.

An arc is a (tail, tag, head, weight) tuple, the shape of a transition of
a model.WeightedAutomaton, and a walk is a tuple of arcs.  For
one-dimensional weights the full achievable-weight set of the silent
walks between two states of a prepared automaton is computed exactly as
an eventually periodic set, one row W(u, .) per source, silent strongly
connected component (SCC) by SCC in topological order: the components
of the model's one silent pass (WeightedAutomaton.silent_components).
Inside an SCC the set has a closed form: a point, a congruence class,
or, when the nonzero cycles have one sign, the union of the
progressions m + c * N, where c is the weight of a closed walk of that
sign and m the least weight of each residue class mod c
(epset.least_by_residue; mirrored for negative cycles).  The SCCs are
composed from these forms (epset.eps_add_progressions).  Once a weight
is known to be a member, a witness walk with the fewest arcs comes from
a breadth-first search over (vertex, accumulated weight) states
(WeightSetSolver.witness_walk), which ends because the set is exact.
That search is pseudo-polynomial in the weights, so callers that only
need to decide ask for the set.

For higher dimensions the decision question (is there a walk of exactly
weight z over a sequence of arcs?) is has_path_with_weight, which
refuses dimension 1.  It is first put to a breadth-first probe over
(vertex, weight) states inside a window around z.  It answers YES with
the walk it finds, and NO when it runs out of states without having
dropped one for leaving the window: the states it saw are then closed
under successors, so the answer is exact.  Otherwise the question goes
to an enumeration of candidate arc supports, in the order of the
sequence, whose flow-with-weight systems are solved by bounded
depth-first search.  The probe and the search spend one budget, and
exhaustion surfaces as UNKNOWN, never as a silent wrong answer.  YES
always carries a walk that is replayed before being returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf
from typing import Sequence

from .epset import (EPSet, eps_add_progressions, eps_reflect, eps_shift, eps_union_many,
                    from_minima, least_by_residue)
from .graphutil import reachable
from .verdict import InternalError

Vec = tuple[int, ...]


@dataclass(frozen=True)
class EplAnswer:
    status: str  # "YES" | "NO" | "UNKNOWN"
    walk: tuple[tuple, ...] | None = None


def _chains(walk: Sequence[tuple], u, v) -> bool:
    """Do the arcs of walk chain from u to v (the empty walk only when
    u == v)?"""
    if not walk:
        return u == v
    return (walk[0][0] == u and walk[-1][2] == v
            and all(a[2] == b[0] for a, b in zip(walk, walk[1:])))


# ---------------------------------------------------------------------
# one-dimensional machinery
# ---------------------------------------------------------------------


class WeightSetSolver:
    """Memoizing solver for the weight sets of the silent walks of one
    prepared automaton of dimension 1.  It reads the automaton's silent
    arcs, reach sets and strong components once and keeps no reference
    to the automaton."""

    def __init__(self, a):
        if a.k != 1 or not a.is_prepared:
            raise ValueError("weight sets require a prepared automaton of dimension 1, "
                             "its weight entries ints")
        self._succ = a.silent_arcs
        self._reach = a.silent_reach
        self._sccs = a.silent_components[::-1]  # sources first
        self._scc = {x: c for c in self._sccs for x in c}
        self._rows: dict[object, dict[object, EPSet]] = {}
        self._withins: dict[object, tuple] = {}

    # -- public ---------------------------------------------------------

    def weight_set(self, u, v) -> EPSet:
        return self._row(u).get(v, EPSet.empty())

    def witness_walk(self, u, v, z: int) -> tuple[tuple, ...] | None:
        """A silent u->v walk of weight z with the fewest arcs, as a tuple of
        transitions, or None when z is not in the weight set.
        Breadth-first over (vertex, accumulated weight) states of the
        states on some u->v walk; the search ends because the set is
        exact.  It visits every state that a shorter walk reaches: loops
        997 and -991 on one vertex give weight 1 with 1657 arcs after
        about 1.4 million states."""
        if z not in self.weight_set(u, v):
            return None
        reach = self._reach
        # per vertex on a u->v walk, the arc that first reached each weight
        parent: dict[object, dict[int, tuple | None]] = {x: {} for x in reach[u] if v in reach[x]}
        parent[u][0] = None
        frontier = [(u, 0)]
        while z not in parent[v]:
            if not frontier:
                raise InternalError(f"no walk {u!r}->{v!r} of weight {z} in its weight set")
            nxt = []
            for x, w in frontier:
                for t in self._succ[x]:
                    reached = parent.get(t[2])
                    if reached is not None and w + t[3][0] not in reached:
                        reached[w + t[3][0]] = t
                        nxt.append((t[2], w + t[3][0]))
            frontier = nxt
        walk = []
        x, w = v, z
        while (t := parent[x][w]) is not None:
            walk.append(t)
            x, w = t[0], w - t[3][0]
        walk.reverse()
        if not (_chains(walk, u, v) and sum(t[3][0] for t in walk) == z):
            raise InternalError(f"witness walk {u!r}->{v!r} does not replay to weight {z}")
        return tuple(walk)

    # -- SCC by SCC ---------------------------------------------------------

    def _row(self, u) -> dict[object, EPSet]:
        """W(u, y) for every y reachable from u.  A walk from u enters each
        SCC it meets once, at some b, and stays inside until it leaves:
        W(u, y) is the union over b of entry[b] + W_C(b, y)."""
        if u in self._rows:
            return self._rows[u]
        row: dict[object, EPSet] = {}
        pending: dict[object, list[EPSet]] = {u: [EPSet.finite([0])]}
        for comp in self._sccs:
            entry = {b: _union(pending.pop(b)) for b in comp if b in pending}
            if not entry:
                continue
            for y in comp:
                row[y] = _union([self._plus(e, b, y) for b, e in entry.items()])
                for a in self._succ[y]:
                    if a[2] not in comp:
                        pending.setdefault(a[2], []).append(eps_shift(row[y], a[3][0]))
        self._rows[u] = row
        return row

    def _plus(self, s: EPSet, b, y) -> EPSet:
        """s + W_C(b, y), composed from the form _within built it in."""
        table, p, d, c, minima = self._within(b)
        if s.is_finite() and len(s.exceptions) == 1:
            return eps_shift(table[y], next(iter(s.exceptions)))
        if d == 0:
            return eps_shift(s, p[y])
        if c:
            return eps_add_progressions(s, minima[y], c)
        # p(y) + dZ = (p(y) + dN) - dN
        return eps_add_progressions(eps_add_progressions(s, [p[y]], d), [0], -d)

    def _within(self, b) -> tuple:
        """W_C(b, y) for y in the SCC C of b, the weights of walks that stay
        in C, and their form.  With potentials p along a search tree from b,
        a walk to y weighs p(y) plus the excesses p(tail) + w - p(head) of
        its arcs.  Let d be their gcd: d = 0 gives {p(y)}; cycles of both
        signs give p(y) + dZ; one sign gives, per residue mod the weight c of
        a closed walk of that sign at b, the least weight, which starts a
        progression.  Returns (W_C(b, .), p, d, c with that sign or 0 without
        one, minima): W_C(b, y) is the union of m + cN over minima[y]."""
        if b in self._withins:
            return self._withins[b]
        comp = self._scc[b]
        out = {x: [a for a in self._succ[x] if a[2] in comp] for x in comp}
        p = {b: 0}
        stack = [b]
        while stack:
            x = stack.pop()
            for a in out[x]:
                if a[2] not in p:
                    p[a[2]] = p[x] + a[3][0]
                    stack.append(a[2])
        d = gcd(*(p[x] + a[3][0] - p[a[2]] for x in comp for a in out[x]))
        c, minima = 0, {}
        for sign in (1, -1) if d else ():
            if (g := _distances_to(b, out, sign)) is None:
                continue
            # weights times sign, whose cycles are >= 0; g(x) is the least
            # weight of a walk x -> b, so w - g(x) + g(y) >= 0 on each arc
            c = min(t for x in comp for a in out[x]
                    if (t := sign * (p[x] + a[3][0]) + g[a[2]]) > 0)
            least = least_by_residue(
                b, lambda x: [(a[2], sign * a[3][0] - g[x] + g[a[2]]) for a in out[x]], c)
            minima = {y: [m - g[y] for m in least[y].values()] for y in comp}
            table = {y: from_minima(minima[y], c) for y in comp}
            if sign < 0:
                minima = {y: [-m for m in ms] for y, ms in minima.items()}
                table = {y: eps_reflect(s) for y, s in table.items()}
            c *= sign
            break
        else:
            table = {y: EPSet.congruent(p[y], d) if d else EPSet.finite([p[y]]) for y in comp}
        self._withins[b] = (table, p, d, c, minima)
        return self._withins[b]


def _union(sets: list[EPSet]) -> EPSet:
    return sets[0] if len(sets) == 1 else eps_union_many(sets)


def _distances_to(b, out: dict, sign: int) -> dict | None:
    """Least weight of a walk x -> b for every x, the arc weights times
    sign, or None when some cycle is negative (Bellman-Ford)."""
    g = dict.fromkeys(out, inf)
    g[b] = 0
    for _ in range(len(out)):
        changed = False
        for x, arcs in out.items():
            for a in arcs:
                if sign * a[3][0] + g[a[2]] < g[x]:
                    g[x] = sign * a[3][0] + g[a[2]]
                    changed = True
        if not changed:
            return g
    return None


# ---------------------------------------------------------------------
# the decision operation
# ---------------------------------------------------------------------


DEFAULT_BUDGET = 10 ** 6
PROBE_NODES = 20000  # most budget one breadth-first probe may spend
PROBE_DEPTH = 64  # most arcs of a walk the probe extends


@dataclass
class _Budget:
    nodes: int

    def spend(self, n: int = 1) -> bool:
        self.nodes -= n
        return self.nodes >= 0


def has_path_with_weight(arcs: Sequence[tuple], u, v, z: Sequence[int],
                         budget: "int | _Budget" = DEFAULT_BUDGET) -> EplAnswer:
    """Is there a walk from u to v with total weight exactly z?  (k > 1)

    The arcs are distinct (tail, tag, head, weight) tuples, the weights of
    the dimension of z, and the walk of a YES is a tuple of them.  A
    breadth-first probe (at most PROBE_NODES steps) decides YES, and
    decides NO when it exhausts its states without dropping one for
    leaving its window.  Otherwise the arc supports are enumerated, in the
    order of arcs, and their balance/weight systems solved.  Probe and
    enumeration spend the same node budget; passing a _Budget instance
    lets callers share one budget across many queries.  Dimension 1 is
    exact through the weight sets instead (WeightSetSolver), and is
    refused here.
    """
    z = tuple(z)
    if len(z) == 1:
        raise ValueError("k = 1 walk questions go to WeightSetSolver")
    if any(type(x) is not int for x in z):
        raise ValueError(f"target entries must be ints: {z}")
    out: dict[object, list[tuple]] = {}
    into: dict[object, list[tuple]] = {}
    for a in arcs:
        if len(a[3]) != len(z) or any(type(x) is not int for x in a[3]):
            raise ValueError(f"arc weights must be {len(z)} ints: {a}")
        out.setdefault(a[0], []).append(a)
        into.setdefault(a[2], []).append(a)
    if isinstance(budget, int):
        budget = _Budget(budget)
    if u == v and not any(z):
        return EplAnswer("YES", ())
    # the vertices on some u->v walk
    region = (reachable([u], lambda x: (a[2] for a in out.get(x, ())))
              & reachable([v], lambda x: (a[0] for a in into.get(x, ()))))
    if u not in region:
        return EplAnswer("NO")

    cap = max(0, min(budget.nodes, PROBE_NODES))
    probe = _Budget(cap)
    answer = _bounded_walk_probe(out, region, u, v, z, probe)
    budget.spend(cap - max(probe.nodes, 0))  # charge what the probe spent
    if answer is not None:
        return answer

    arcs = [a for a in arcs if a[0] in region and a[2] in region]
    if len(arcs) > 14:  # support enumeration is 2^|arcs|
        return EplAnswer("UNKNOWN")

    unknown = False
    for mask in range(1, 1 << len(arcs)):
        if not budget.spend():
            return EplAnswer("UNKNOWN")
        support = [a for i, a in enumerate(arcs) if mask >> i & 1]
        result = _solve_support(len(z), support, u, v, z, budget)
        if result == "UNKNOWN":
            unknown = True
        elif result is not None:
            walk = _euler_walk(result, u, v)
            if walk is not None:
                if tuple(map(sum, zip(*(a[3] for a in walk)))) != z:
                    raise InternalError(f"walk for weight {z} does not replay")
                return EplAnswer("YES", tuple(walk))
    return EplAnswer("UNKNOWN") if unknown else EplAnswer("NO")


def _bounded_walk_probe(out: dict, region, u, v, z: Vec,
                        budget: _Budget) -> EplAnswer | None:
    """Breadth-first over (vertex, accumulated weight) states whose
    coordinates stay within a window around z: YES with the walk that
    first reaches (v, z), or NO when the frontier empties and no
    successor was dropped for leaving the window.  The NO is exact: the
    states seen are then closed under successors within the region, and
    every walk from u to v stays in the region, so (v, z) is not
    reachable.  Running out of budget or of PROBE_DEPTH steps, or a dropped
    successor, leaves the question open (None)."""
    start = (u, (0,) * len(z))
    seen: set[tuple[object, Vec]] = {start}
    frontier: dict[tuple[object, Vec], tuple] = {start: ()}
    window = 4 * max(map(abs, z), default=1) + 64
    pruned = False
    for _ in range(PROBE_DEPTH):
        nxt: dict[tuple[object, Vec], tuple] = {}
        for (x, w), walk in frontier.items():
            for a in out.get(x, ()):
                if a[2] not in region:
                    continue
                if not budget.spend():
                    return None
                w2 = tuple(wi + ai for wi, ai in zip(w, a[3]))
                key = (a[2], w2)
                if key in seen:
                    continue
                walk2 = walk + (a,)
                if a[2] == v and w2 == z:
                    return EplAnswer("YES", walk2)
                if all(abs(c) <= window for c in w2):
                    seen.add(key)
                    nxt[key] = walk2
                else:
                    pruned = True
        frontier = nxt
        if not frontier:
            return None if pruned else EplAnswer("NO")
    return None


def _solve_support(k: int, support: list[tuple], u, v, z: Vec, budget: _Budget):
    """Multiplicities y_a >= 1 on the support with flow balance u->v and
    total weight z, or None; 'UNKNOWN' when the budget runs out."""
    verts = {a[0] for a in support} | {a[2] for a in support}
    if u not in verts or v not in verts:
        return None
    # connectivity: every support arc must be usable on some u->v walk
    s_succ: dict[object, list[tuple]] = {x: [] for x in verts}
    s_pred: dict[object, list[tuple]] = {x: [] for x in verts}
    for a in support:
        s_succ[a[0]].append(a)
        s_pred[a[2]].append(a)
    from_u = reachable([u], lambda x: (a[2] for a in s_succ[x]))
    to_v = reachable([v], lambda x: (a[0] for a in s_pred[x]))
    if verts - (from_u & to_v):
        return None

    # unknowns x_a >= 0 with y_a = 1 + x_a
    eqs: list[tuple[list[int], int]] = []  # (coeffs per arc, rhs)
    for x in verts:
        bal = (1 if x == u else 0) - (1 if x == v else 0)
        coeffs = [(1 if a[0] == x else 0) - (1 if a[2] == x else 0) for a in support]
        rhs = bal - sum(coeffs)
        eqs.append((coeffs, rhs))
    for i in range(k):
        coeffs = [a[3][i] for a in support]
        rhs = z[i] - sum(coeffs)
        eqs.append((coeffs, rhs))

    if _linear_screen(eqs) == "infeasible":
        return None

    amax = max((abs(c) for coeffs, _ in eqs for c in coeffs), default=1) or 1
    bmax = max((abs(r) for _, r in eqs), default=1) or 1
    n, m = len(support), len(eqs)
    var_bound = min(((n + m) * (amax + bmax + 1)) ** (min(m, 6) + 1), 10 ** 9)

    result = _dfs_solve(eqs, n, var_bound, budget)
    if result == "UNKNOWN":
        return "UNKNOWN"
    if result is None:
        return None
    return {a: 1 + result[i] for i, a in enumerate(support)}


def _linear_screen(eqs):
    """Gaussian elimination over Q; 'infeasible' when no rational solution
    exists or some variable is forced to a negative or fractional value."""
    from fractions import Fraction

    rows = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in eqs]
    if not rows:
        return None
    cols = len(rows[0]) - 1
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    for row in rows:
        support = [(j, c) for j, c in enumerate(row[:-1]) if c]
        if not support and row[-1] != 0:
            return "infeasible"
        if len(support) == 1:
            value = row[-1] / support[0][1]
            if value < 0 or value.denominator != 1:
                return "infeasible"
    return None


def _dfs_solve(eqs, n: int, var_bound: int, budget: _Budget):
    """Values 0..var_bound of the n unknowns, in order, that satisfy every
    equation, by depth-first search; None, or 'UNKNOWN' when the budget
    runs out.  A node carries the gap of each equation (the sum of its
    fixed prefix less its right-hand side), and each suffix of
    coefficients is read once: per position i and equation, its gcd and
    whether it is all >= 0 or all <= 0."""
    coeffs = [c for c, _ in eqs]
    gcds = [[gcd(*cs[i:]) for cs in coeffs] for i in range(n + 1)]
    signs = [[(min(cs[i:], default=0) >= 0, max(cs[i:], default=0) <= 0) for cs in coeffs]
             for i in range(n + 1)]
    assignment = [0] * n

    def solve(idx: int, gaps: list[int]):
        if not budget.spend():
            return "UNKNOWN"
        if idx == n:
            return None if any(gaps) else list(assignment)
        # residual feasibility: an equation whose free variables all have
        # zero coefficient must already match; gcd of free coefficients
        # must divide
        if any(d % g if g else d for d, g in zip(gaps, gcds[idx])):
            return None
        step = [cs[idx] for cs in coeffs]
        rows = list(zip(signs[idx + 1], step))
        for val in range(var_bound + 1):
            assignment[idx] = val
            # prune on the first equation whose remaining coefficients have
            # one sign that cannot close its gap; stop scanning entirely
            # once larger values cannot recover it
            for d, ((nonneg, nonpos), c) in zip(gaps, rows):
                if d > 0 and nonneg or d < 0 and nonpos:
                    if d * c >= 0:
                        return None
                    break
            else:
                found = solve(idx + 1, gaps)
                if found is not None:
                    return found
            if not budget.spend():
                return "UNKNOWN"
            gaps = [d + c for d, c in zip(gaps, step)]
        return None

    return solve(0, [-r for _, r in eqs])


def _euler_walk(multiplicity: dict[tuple, int], u, v) -> list[tuple] | None:
    """Walk using each arc exactly its multiplicity, the arc that comes
    first in multiplicity first."""
    remaining = {a: c for a, c in multiplicity.items() if c > 0}
    out: dict[object, list[tuple]] = {}
    for a in remaining:
        out.setdefault(a[0], []).append(a)
    total = sum(remaining.values())
    trail: list[tuple] = []
    arc_stack: list[tuple] = []
    avail = dict(remaining)

    def next_arc(x):
        for a in out.get(x, []):
            if avail.get(a, 0) > 0:
                return a
        return None

    vertex_stack = [u]
    while vertex_stack:
        x = vertex_stack[-1]
        a = next_arc(x)
        if a is None:
            vertex_stack.pop()
            if arc_stack:
                trail.append(arc_stack.pop())
        else:
            avail[a] -= 1
            arc_stack.append(a)
            vertex_stack.append(a[2])
    trail.reverse()
    if len(trail) != total or not _chains(trail, u, v):
        return None
    return trail
