"""Exact algebra of eventually periodic subsets of Z.

An eventually periodic set is a finite set of integers together with at
most one upward tail {n >= U : n mod d in R} and at most one downward
tail {n <= L : n mod d in R}.  These are exactly the subsets of Z
definable by a one-variable Presburger formula, and they are closed
under union, intersection, complement, shift, reflection and sumset.
Every operation returns the canonical form, so structural equality
coincides with set equality.  The boolean operations also accept raw
presentations (an EPSet built directly); eps_shift and eps_reflect move
a canonical set without re-canonicalizing it.  The yes/no question
eps_meets(s, t), whether s & t is nonempty, is answered at the size of
the two representations and builds no set at all: the tails that run
the same way first, by their residues mod the gcd of the periods, then
the exceptions, then an up tail against a down tail.  eps_partition
splits the union of labelled raw pieces into its atoms, the sets of
integers with one pattern of labels, in the one sweep over the cuts that
a boolean operation makes.  When no input has a tail, eps_union_many and
eps_partition work on the points alone and make no sweep: a finite set
is canonical as it stands.  eps_add_progressions(s, minima, c) adds to
s the union of the progressions m + c * N over minima.

Canonical form:
  * tail periods are minimal (residue sets are folded),
  * tail thresholds are extremal (the tails absorb as much as possible),
  * exceptions are finite, disjoint from the tails, and lie strictly
    between the down threshold and the up threshold,
  * a set that is exactly periodic on all of Z is anchored at the split
    U = 0 / L = -1 so that its representation is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from itertools import count
from math import gcd, inf, lcm
from operator import or_
from typing import Callable, Hashable, Iterable


@dataclass(frozen=True)
class Core:
    """One periodic tail: up = {n >= threshold : n % period in residues},
    down = {n <= threshold : n % period in residues}."""

    threshold: int
    period: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if not self.residues:
            raise ValueError("empty residue set; drop the core instead")
        if any(not (0 <= r < self.period) for r in self.residues):
            raise ValueError("residues must be reduced mod period")


@dataclass(frozen=True)
class EPSet:
    exceptions: frozenset[int] = frozenset()
    up: Core | None = None
    down: Core | None = None

    # -- membership ----------------------------------------------------

    def __contains__(self, n: int) -> bool:
        # union semantics so that raw, overlapping presentations read correctly
        if self.up is not None and n >= self.up.threshold and \
                n % self.up.period in self.up.residues:
            return True
        if self.down is not None and n <= self.down.threshold and \
                n % self.down.period in self.down.residues:
            return True
        return n in self.exceptions

    def is_empty(self) -> bool:
        return not self.exceptions and self.up is None and self.down is None

    def is_finite(self) -> bool:
        return self.up is None and self.down is None

    # -- constructors --------------------------------------------------

    @staticmethod
    def empty() -> "EPSet":
        return EPSet()

    @staticmethod
    def finite(members: Iterable[int]) -> "EPSet":
        return EPSet(frozenset(members), None, None)

    @staticmethod
    def congruent(residue: int, modulus: int) -> "EPSet":
        """All n with n = residue (mod modulus)."""
        r = frozenset([residue % modulus])
        return EPSet(frozenset(), Core(0, modulus, r), Core(-1, modulus, r))

    # -- presentation ---------------------------------------------------

    def __str__(self) -> str:
        if self.is_empty():
            return "{}"
        parts = []
        if self.down is not None:
            c = self.down
            rs = ",".join(str(r) for r in sorted(c.residues))
            parts.append(f"<={c.threshold}" + (f"=={rs}(mod {c.period})" if c.period > 1 else ""))
        if self.exceptions:
            parts.append("{" + ",".join(str(n) for n in sorted(self.exceptions)) + "}")
        if self.up is not None:
            c = self.up
            rs = ",".join(str(r) for r in sorted(c.residues))
            parts.append(f">={c.threshold}" + (f"=={rs}(mod {c.period})" if c.period > 1 else ""))
        return " | ".join(parts)

    def to_json(self) -> dict:
        def core(c: Core | None) -> dict | None:
            if c is None:
                return None
            return {"threshold": c.threshold, "period": c.period, "residues": sorted(c.residues)}

        return {
            "exceptions": sorted(self.exceptions),
            "up": core(self.up),
            "down": core(self.down),
        }


# ---------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in increasing order, by trial division up to
    the square root."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# Residue sets mod a modulus m are bitsets: bit r stands for residue r.


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x >= 0, lowest first."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _spread(core: Core | None, modulus: int) -> int:
    """The residues of a core mod a multiple of its period."""
    if core is None:
        return 0
    mask, width = sum(1 << r for r in core.residues), core.period
    while width < modulus:
        mask |= mask << width
        width *= 2
    return mask & ((1 << modulus) - 1)


def _window(mask: int, a: int, b: int, modulus: int) -> int:
    """Bit i is set iff a + i lies in [a, b) and has its residue in mask;
    needs b - a <= modulus."""
    k = a % modulus
    rotated = (mask >> k) | (mask << (modulus - k))
    return rotated & ((1 << (b - a)) - 1)


def _fold(mask: int, modulus: int) -> tuple[int, frozenset[int]]:
    """Least period e | modulus of a residue set, and its residues mod e."""
    full = (1 << modulus) - 1
    e = next(e for e in _divisors(modulus)
             if ((mask << e) | (mask >> (modulus - e))) & full == mask)
    return e, frozenset(_bits(mask & ((1 << e) - 1)))


def _canonical(lo: int, hi: int, modulus: int, dn_res: int, up_res: int,
               runs: list[tuple[int, int, int]]) -> EPSet:
    """Build the canonical EPSet whose membership is: up_res mod modulus on
    [hi, oo), dn_res mod modulus on (-oo, lo], and the residues res on each
    run [a, b) of (lo, hi).  The descent and the ascent of the thresholds
    read, per run, the last (or first) residue that differs from the tail;
    exceptions are listed only where they are members."""
    u_thr, l_thr = hi, lo
    up = down = None
    start, end = 0, len(runs)  # the runs that may hold exceptions
    if up_res:
        for end in range(len(runs), 0, -1):
            a, b, res = runs[end - 1]
            a = max(a, b - modulus)
            w = _window(res ^ up_res, a, b, modulus)
            if w:
                u_thr = a + w.bit_length()
                break
        else:
            if dn_res == up_res:
                d, r = _fold(up_res, modulus)
                return EPSet(frozenset(), Core(0, d, r), Core(-1, d, r))
            w = _window(dn_res ^ up_res, lo + 1 - modulus, lo + 1, modulus)
            u_thr, end = lo + 1 - modulus + w.bit_length(), 0
        up = Core(u_thr, *_fold(up_res, modulus))
    if dn_res:
        for start in range(len(runs)):
            a, b, res = runs[start]
            w = _window(res ^ dn_res, a, min(b, a + modulus), modulus)
            if w:
                l_thr = a + (w & -w).bit_length() - 2
                break
        else:
            # dn_res == up_res with an agreeing middle has returned above
            w = _window(dn_res ^ up_res, hi, hi + modulus, modulus)
            l_thr, start = hi + (w & -w).bit_length() - 2, len(runs)
        down = Core(l_thr, *_fold(dn_res, modulus))
    members: list[int] = []
    for a, b, res in runs[start:end]:
        a, b = max(a, l_thr + 1), min(b, u_thr)
        if a < b:
            for i in _bits(_window(res, a, min(b, a + modulus), modulus)):
                members.extend(range(a + i, b, modulus))
    return EPSet(frozenset(members), up, down)


def _sweep(sets: list[EPSet], value: Callable[[list[int], int], object]) -> tuple:
    """One pass over the common cuts of raw presentations.

    The thresholds of the inputs cut the line into runs on which every
    input is periodic mod the lcm of the periods; each exception point of
    an input is a run of its own.  Below the lowest cut only the down
    cores count, from the highest cut on only the up cores.  On each run
    value(masks, keep) reads the inputs' residue masks (bitsets mod the
    modulus, see _spread): keep is every residue on an interval, where it
    is called once per stretch between thresholds, and the residue of the
    point at an exception point, where the masks say membership.

    Returns (lo, hi, modulus, value at the down tail (-oo, lo], value at
    the up tail [hi, oo), runs), each run (a, b, value) over [a, b)."""
    modulus = 1
    thresholds: set[int] = set()
    points: set[int] = set()
    for s in sets:
        points |= s.exceptions
        if s.up is not None:
            modulus = lcm(modulus, s.up.period)
            thresholds.add(s.up.threshold)
        if s.down is not None:
            modulus = lcm(modulus, s.down.period)
            thresholds.add(s.down.threshold + 1)
    cuts = sorted(thresholds | points | {e + 1 for e in points}) or [0]
    lo, hi = cuts[0] - 1, cuts[-1]
    full = (1 << modulus) - 1
    # per input: up threshold, up residues, down threshold, down residues
    cores = [(s.up.threshold if s.up is not None else hi + 1, _spread(s.up, modulus),
              s.down.threshold if s.down is not None else lo - 1, _spread(s.down, modulus))
             for s in sets]

    def pattern(n: int) -> object:
        """The value on the run through n, exceptions aside."""
        return value([(up if n >= u else 0) | (dn if n <= d else 0)
                      for u, up, d, dn in cores], full)

    runs: list[tuple[int, int, object]] = []
    current = None
    for a, b in zip(cuts, cuts[1:]):
        if a in thresholds:
            current = None
        if a in points:
            bit = 1 << a % modulus
            runs.append((a, b, value([bit if a in s else 0 for s in sets], bit)))
        else:
            if current is None:
                current = pattern(a)
            runs.append((a, b, current))
    return lo, hi, modulus, pattern(lo), pattern(hi), runs


def _combine(sets: list[EPSet], f: Callable[..., int]) -> EPSet:
    """Boolean combination; accepts non-canonical presentations.  f acts
    bitwise on ints (|, &, ~), so one call combines whole residue sets."""
    return _canonical(*_sweep(sets, lambda masks, keep: f(*masks) & keep))


# ---------------------------------------------------------------------
# boolean operations
# ---------------------------------------------------------------------


def eps_intersect(s: EPSet, t: EPSet) -> EPSet:
    return _combine([s, t], lambda a, b: a & b)


def eps_union_many(sets: Iterable[EPSet]) -> EPSet:
    sets = list(sets)
    if all(s.is_finite() for s in sets):
        return EPSet(frozenset().union(*(s.exceptions for s in sets)))
    return _combine(sets, lambda *masks: reduce(or_, masks))


def eps_partition(pieces: Iterable[tuple[EPSet, Hashable]]) -> dict[frozenset, EPSet]:
    """The atoms of the union of labelled raw pieces: per set of labels L,
    the integers that lie in some piece of every label in L and in no
    piece of any other label, keyed by L; empty atoms are left out.

    When every piece is finite, one pass over the points keys each by its
    labels (_partition_points).  Otherwise one _sweep over the cuts of all
    the pieces: on each run the residues of a label are the OR of its
    pieces' masks, and the run's residues are split by those masks with
    bit operations, so that each atom gets its residues run by run (bit i
    of an atom's key stands for the i-th label).  An atom absent from a
    stretch of runs gets one empty run over it, and one _canonical call
    makes its canonical form."""
    pieces = list(pieces)
    labels = list(dict.fromkeys(label for _, label in pieces))
    owner = [labels.index(label) for _, label in pieces]
    if all(s.is_finite() for s, _ in pieces):
        return _partition_points(pieces, labels, owner)

    def split(masks: list[int], keep: int) -> list[tuple[int, int]]:
        """(key, residues) of each atom that has residues on the run."""
        by_label = [0] * len(labels)
        for i, m in zip(owner, masks):
            by_label[i] |= m
        parts = [(0, keep)]
        for i, m in enumerate(by_label):
            if m & keep:
                parts = [part for key, c in parts
                         for part in ((key | 1 << i, c & m), (key, c & ~m)) if part[1]]
        return [part for part in parts if part[0]]

    lo, hi, modulus, down, up, runs = _sweep([s for s, _ in pieces], split)
    atoms: dict[int, list] = {}  # key -> [down residues, up residues, runs, end]
    for key, res in down:
        atoms[key] = [res, 0, [], lo + 1]
    for key, res in up:
        atoms.setdefault(key, [0, 0, [], lo + 1])[1] = res
    for a, b, parts in runs:
        for key, res in parts:
            atom = atoms.get(key)
            if atom is None:
                atom = atoms[key] = [0, 0, [], lo + 1]
            if atom[3] < a:
                atom[2].append((atom[3], a, 0))
            atom[2].append((a, b, res))
            atom[3] = b
    out: dict[frozenset, EPSet] = {}
    for key, (dn_res, up_res, atom_runs, end) in atoms.items():
        if end < hi:
            atom_runs.append((end, hi, 0))
        s = _canonical(lo, hi, modulus, dn_res, up_res, atom_runs)
        if not s.is_empty():
            out[frozenset(label for i, label in enumerate(labels) if key >> i & 1)] = s
    return out


def _partition_points(pieces: list[tuple[EPSet, Hashable]], labels: list,
                      owner: list[int]) -> dict[frozenset, EPSet]:
    """eps_partition of finite pieces: each point keyed by the bitmask of
    its labels, the points grouped by key in ascending order, so the atoms
    come in the order the sweep meets them."""
    keys: dict[int, int] = {}
    for (s, _), i in zip(pieces, owner):
        bit = 1 << i
        for n in s.exceptions:
            keys[n] = keys.get(n, 0) | bit
    atoms: dict[int, list[int]] = {}
    for n in sorted(keys):
        atoms.setdefault(keys[n], []).append(n)
    return {frozenset(label for i, label in enumerate(labels) if key >> i & 1):
            EPSet(frozenset(points)) for key, points in atoms.items()}


def eps_meets(s: EPSet, t: EPSet) -> bool:
    """Whether s & t is nonempty, at the size of the two representations
    (raw presentations are read with union semantics).

    Cheapest first: the tails of s and t that run the same way
    (_cores_meet), then each exception of either side by membership in the
    other, last an up tail against a down tail (_opposite_cores_meet).  No
    residue set mod the lcm of the periods is built."""
    if s.up is not None and t.up is not None and _cores_meet(s.up, t.up):
        return True
    if s.down is not None and t.down is not None and _cores_meet(s.down, t.down):
        return True
    if any(n in t for n in s.exceptions) or any(n in s for n in t.exceptions):
        return True
    return (s.up is not None and t.down is not None and _opposite_cores_meet(s.up, t.down)
            or s.down is not None and t.up is not None and _opposite_cores_meet(t.up, s.down))


def _cores_meet(x: Core, y: Core) -> bool:
    """Some n in both tails x and y, running the same way?  Such an n has
    n = r (mod p) and n = s (mod q) for residues r of x and s of y, which
    is solvable iff r = s (mod g), g = gcd(p, q); the solutions form one
    class mod lcm(p, q), and the half-line the two tails share holds
    members of every class.  So g = 1 answers yes, and otherwise the
    residues of x and of y mod g meet."""
    g = gcd(x.period, y.period)
    return g == 1 or not {r % g for r in x.residues}.isdisjoint(s % g for s in y.residues)


def _opposite_cores_meet(x: Core, y: Core) -> bool:
    """Some n in the up tail x and in the down tail y?  The two share only
    the interval [lo, hi] = [x.threshold, y.threshold].  As in _cores_meet,
    a compatible pair of residues r of x and s of y gives one class of
    solutions mod m = lcm(p, q); an interval narrower than m holds a
    member iff the least solution >= lo of some pair is <= hi, found in
    closed form by the Chinese remainder theorem."""
    lo, hi = x.threshold, y.threshold
    if lo > hi:
        return False
    p, q = x.period, y.period
    g = gcd(p, q)
    m = p // g * q
    if hi - lo + 1 >= m:
        return _cores_meet(x, y)
    by_class: dict[int, list[int]] = {}
    for r in x.residues:
        by_class.setdefault(r % g, []).append(r)
    qg = q // g
    inv = pow(p // g, -1, qg)
    for s in y.residues:
        for r in by_class.get(s % g, ()):
            n = r + p * ((s - r) // g * inv % qg)  # n = r (mod p), n = s (mod q)
            if lo + (n - lo) % m <= hi:
                return True
    return False


def _is_periodic(s: EPSet) -> bool:
    """Whether a canonical set is periodic on all of Z (anchored at 0/-1)."""
    return (s.up is not None and s.down is not None and not s.exceptions
            and s.up.threshold == 0 and s.down.threshold == -1
            and s.up.period == s.down.period and s.up.residues == s.down.residues)


def eps_shift(s: EPSet, c: int) -> EPSet:
    """{n + c : n in s} for a canonical s.  Translation keeps the canonical
    form; a set periodic on all of Z stays anchored at 0/-1, and a shift by
    0 returns s itself."""
    if c == 0:
        return s

    def core(k: Core | None, threshold: int) -> Core | None:
        if k is None:
            return None
        return Core(threshold, k.period, frozenset((r + c) % k.period for r in k.residues))

    if _is_periodic(s):
        return EPSet(frozenset(), core(s.up, 0), core(s.down, -1))
    return EPSet(frozenset(n + c for n in s.exceptions),
                 core(s.up, s.up.threshold + c) if s.up is not None else None,
                 core(s.down, s.down.threshold + c) if s.down is not None else None)


def eps_reflect(s: EPSet) -> EPSet:
    """{-n : n in s} for a canonical s.  Reflection keeps the canonical
    form; a set periodic on all of Z stays anchored at 0/-1."""

    def core(k: Core | None, threshold: int) -> Core | None:
        if k is None:
            return None
        return Core(threshold, k.period, frozenset((-r) % k.period for r in k.residues))

    if _is_periodic(s):
        return EPSet(frozenset(), core(s.up, 0), core(s.down, -1))
    return EPSet(frozenset(-n for n in s.exceptions),
                 core(s.down, -s.down.threshold) if s.down is not None else None,
                 core(s.up, -s.up.threshold) if s.up is not None else None)


# ---------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------


def eps_min_abs_witness(s: EPSet) -> int | None:
    """Member of smallest absolute value, ties broken toward nonnegative.
    The candidates are the exceptions and, per tail residue, the members
    nearest 0 on either side of it, clipped to the tail."""
    candidates = list(s.exceptions)
    if s.up is not None:
        u, p = s.up.threshold, s.up.period
        for r in s.up.residues:
            first = u + (r - u) % p
            candidates.extend([first] if first >= 0 else [r % p, r % p - p])
    if s.down is not None:
        l, p = s.down.threshold, s.down.period
        for r in s.down.residues:
            last = l - (l - r) % p
            candidates.extend([last] if last <= 0 else [r % p, r % p - p])
    return min(candidates, key=lambda n: (abs(n), n < 0), default=None)


# ---------------------------------------------------------------------
# additive structure: least members per residue
# ---------------------------------------------------------------------


def least_by_residue(start, succ: Callable, c: int) -> dict:
    """Least weight per (vertex, residue mod c) of the walks from start, as
    {vertex: {residue: weight}}; succ(x) yields (y, w) pairs with w >= 0.
    Dijkstra over (vertex, residue) states, so at most c per vertex."""
    best: dict = {}
    heap = [(0, 0, start)]
    tie = count(1)  # vertices need not be comparable
    while heap:
        w, _, x = heappop(heap)
        row = best.setdefault(x, {})
        if w % c in row:
            continue
        row[w % c] = w
        for y, dw in succ(x):
            if (w + dw) % c not in best.get(y, ()):
                heappush(heap, (w + dw, next(tie), y))
    return best


def eps_add_progressions(s: EPSet, minima: Iterable[int], c: int) -> EPSet:
    """s + T for T the union of the progressions m + c * N over minima, at
    most one m per residue mod c; s may be a raw presentation.  A negative
    c gives downward progressions, the reflection of the case -c.

    In one class mod c, a union of progressions of period c is its least
    member plus c * N, or the whole class when it has none.  s + c * N
    and T are such unions, and s + T = (s + c * N) + T as T + c * N = T.
    So class rho of the sum is whole when an m carries into it a class of
    s that a down tail meets, and otherwise M + c * N, M the least
    x + m = rho (mod c) over the m and the least members x of s per class.
    Those come from the exceptions and, per up-tail residue of period q
    and first member f, from f + k * q for k < c / gcd(q, c): these meet,
    in increasing order, every class that f + q * N meets.  The cost is
    that many members plus one step per pair of a class of s and an m; no
    lcm of the periods is formed."""
    if c < 0:
        return eps_reflect(eps_add_progressions(eps_reflect(s), [-m for m in minima], -c))
    members = list(s.exceptions)
    if s.up is not None:
        u, q = s.up.threshold, s.up.period
        members += [u + (r - u) % q + k * q for r in s.up.residues for k in range(c // gcd(q, c))]
    least = {x % c: x for x in sorted(members, reverse=True)}  # the least is written last
    if s.down is not None:
        g = gcd(s.down.period, c)
        met = {r % g for r in s.down.residues}
        least.update((r, None) for r in range(c) if r % g in met)
    whole, best = 0, {}
    for m in minima:
        for r, x in least.items():
            rho = (r + m) % c
            if x is None:
                whole |= 1 << rho
            elif x + m < best.get(rho, inf):
                best[rho] = x + m
    return _progressions(sorted(x for rho, x in best.items() if not whole >> rho & 1), c, whole)


def from_minima(minima: Iterable[int], c: int) -> EPSet:
    """The union of m + c * N over minima, at most one m per residue mod c."""
    return _progressions(sorted(minima), c, 0)


def _progressions(cuts: list[int], c: int, whole: int) -> EPSet:
    """The classes mod c in the bitset whole, and m + c * N for each m of
    the sorted cuts, one per residue outside whole."""
    if not cuts:
        return _canonical(-1, 0, c, whole, whole, [])
    runs, mask = [], whole
    for a, b in zip(cuts, cuts[1:]):
        mask |= 1 << a % c
        runs.append((a, b, mask))
    return _canonical(cuts[0] - 1, cuts[-1], c, whole, mask | 1 << cuts[-1] % c, runs)
