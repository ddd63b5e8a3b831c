"""Exact algebra of eventually periodic subsets of Z.

An eventually periodic set is a finite set of integers together with at
most one upward tail {n >= U : n mod d in R} and at most one downward
tail {n <= L : n mod d in R}.  These are exactly the subsets of Z
definable by a one-variable Presburger formula, and they are closed
under union, intersection, complement, shift, reflection and sumset.
Every constructor canonicalizes, so structural equality coincides with
set equality.

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
from math import gcd, lcm
from typing import Callable, Iterable

from .verdict import InternalError


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
    def universe() -> "EPSet":
        full = frozenset([0])
        return EPSet(frozenset(), Core(0, 1, full), Core(-1, 1, full))

    @staticmethod
    def finite(members: Iterable[int]) -> "EPSet":
        return EPSet(frozenset(members), None, None)

    @staticmethod
    def congruent(residue: int, modulus: int) -> "EPSet":
        """All n with n = residue (mod modulus)."""
        r = frozenset([residue % modulus])
        return EPSet(frozenset(), Core(0, modulus, r), Core(-1, modulus, r))

    @staticmethod
    def upward(threshold: int, period: int = 1, residues: Iterable[int] | None = None) -> "EPSet":
        res = frozenset(r % period for r in residues) if residues is not None else frozenset(range(period))
        return _recanon(EPSet(frozenset(), Core(threshold, period, res), None))

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


def _up_period(s: EPSet) -> int:
    return s.up.period if s.up is not None else 1


def _down_period(s: EPSet) -> int:
    return s.down.period if s.down is not None else 1


def _hi_safe(s: EPSet) -> int:
    """Least H such that membership on [H, oo) is governed by the up core
    alone (period _up_period).  Safe for non-canonical presentations."""
    cands = [0]
    if s.up is not None:
        cands.append(s.up.threshold)
    if s.exceptions:
        cands.append(max(s.exceptions) + 1)
    if s.down is not None:
        cands.append(s.down.threshold + 1)
    return max(cands)


def _lo_safe(s: EPSet) -> int:
    cands = [0]
    if s.down is not None:
        cands.append(s.down.threshold)
    if s.exceptions:
        cands.append(min(s.exceptions) - 1)
    if s.up is not None:
        cands.append(s.up.threshold - 1)
    return min(cands)


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _min_shift_period(residues: frozenset[int], modulus: int) -> int:
    """Smallest e | modulus with residues + e = residues (mod modulus)."""
    for e in _divisors(modulus):
        if {(r + e) % modulus for r in residues} == set(residues):
            return e
    return modulus


def _canonical(lo: int, dn_res: frozenset[int], middle: frozenset[int],
               hi: int, up_res: frozenset[int], modulus: int) -> EPSet:
    """Build the canonical EPSet whose membership is: up_res mod modulus on
    [hi, oo), dn_res mod modulus on (-oo, lo], and `middle` on (lo, hi)."""

    def mem(n: int) -> bool:
        if n >= hi:
            return n % modulus in up_res
        if n <= lo:
            return n % modulus in dn_res
        return n in middle

    d_up = _min_shift_period(up_res, modulus) if up_res else 1
    r_up = frozenset(r % d_up for r in up_res)
    d_dn = _min_shift_period(dn_res, modulus) if dn_res else 1
    r_dn = frozenset(r % d_dn for r in dn_res)

    if up_res and dn_res and d_up == d_dn and r_up == r_dn and \
            all(mem(n) == (n % d_up in r_up) for n in range(lo + 1, hi)):
        return EPSet(frozenset(), Core(0, d_up, r_up), Core(-1, d_up, r_up))

    up = None
    u_thr = hi
    if up_res:
        guard = lo - 2 * modulus - 2 * d_up
        while u_thr - 1 > guard and mem(u_thr - 1) == ((u_thr - 1) % d_up in r_up):
            u_thr -= 1
        if u_thr - 1 <= guard:
            raise InternalError("threshold descent did not terminate")
        up = Core(u_thr, d_up, r_up)

    down = None
    l_thr = lo
    if dn_res:
        guard = hi + 2 * modulus + 2 * d_dn
        while l_thr + 1 < guard and mem(l_thr + 1) == ((l_thr + 1) % d_dn in r_dn):
            l_thr += 1
        if l_thr + 1 >= guard:
            raise InternalError("threshold ascent did not terminate")
        down = Core(l_thr, d_dn, r_dn)

    lo_bound = l_thr + 1 if down is not None else lo + 1
    hi_bound = u_thr if up is not None else hi
    exceptions = frozenset(n for n in range(lo_bound, hi_bound) if mem(n))
    return EPSet(exceptions, up, down)


def _combine(sets: list[EPSet], f: Callable[..., bool]) -> EPSet:
    """Pointwise boolean combination; accepts non-canonical presentations."""
    modulus = 1
    for s in sets:
        modulus = lcm(modulus, _up_period(s), _down_period(s))
    hi = max(_hi_safe(s) for s in sets)
    lo = min(_lo_safe(s) for s in sets)
    up_res = frozenset(r for r in range(modulus)
                       if f(*((hi + ((r - hi) % modulus)) in s for s in sets)))
    dn_res = frozenset(r for r in range(modulus)
                       if f(*((lo - ((lo - r) % modulus)) in s for s in sets)))
    middle = frozenset(n for n in range(lo + 1, hi) if f(*(n in s for s in sets)))
    return _canonical(lo, dn_res, middle, hi, up_res, modulus)


def _recanon(s: EPSet) -> EPSet:
    return _combine([s], lambda a: a)


# ---------------------------------------------------------------------
# boolean operations
# ---------------------------------------------------------------------


def eps_union(s: EPSet, t: EPSet) -> EPSet:
    return _combine([s, t], lambda a, b: a or b)


def eps_intersect(s: EPSet, t: EPSet) -> EPSet:
    return _combine([s, t], lambda a, b: a and b)


def eps_difference(s: EPSet, t: EPSet) -> EPSet:
    return _combine([s, t], lambda a, b: a and not b)


def eps_complement(s: EPSet) -> EPSet:
    return _combine([s], lambda a: not a)


def eps_union_many(sets: Iterable[EPSet]) -> EPSet:
    sets = list(sets)
    if not sets:
        return EPSet.empty()
    return _combine(sets, lambda *flags: any(flags))


def eps_shift(s: EPSet, c: int) -> EPSet:
    """{n + c : n in s}."""

    def core(k: Core | None) -> Core | None:
        if k is None:
            return None
        return Core(k.threshold + c, k.period, frozenset((r + c) % k.period for r in k.residues))

    return _recanon(EPSet(frozenset(n + c for n in s.exceptions), core(s.up), core(s.down)))


def eps_reflect(s: EPSet) -> EPSet:
    """{-n : n in s}."""

    def core(k: Core | None) -> Core | None:
        if k is None:
            return None
        return Core(-k.threshold, k.period, frozenset((-r) % k.period for r in k.residues))

    return _recanon(EPSet(frozenset(-n for n in s.exceptions), core(s.down), core(s.up)))


# ---------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------


def _witness_scan_bound(s: EPSet) -> int:
    b = 1
    if s.exceptions:
        b = max(b, max(abs(n) for n in s.exceptions))
    if s.up is not None:
        b = max(b, abs(s.up.threshold) + s.up.period)
    if s.down is not None:
        b = max(b, abs(s.down.threshold) + s.down.period)
    return b + 1


def eps_min_abs_witness(s: EPSet) -> int | None:
    """Member of smallest absolute value, ties broken toward nonnegative."""
    if s.is_empty():
        return None
    for a in range(_witness_scan_bound(s) + 1):
        if a in s:
            return a
        if -a in s:
            return -a
    raise InternalError("nonempty EPSet without witness in scan bound")


# ---------------------------------------------------------------------
# additive structure: N-spans and sumsets
# ---------------------------------------------------------------------


def nspan(generators: Iterable[int]) -> EPSet:
    """{ sum_i n_i * g_i : n_i in N } for the given integer generators.

    All zero or empty -> {0}.  Same sign -> a numerical semigroup scaled
    by the gcd: computed by sieving up to max|g|^2 + max|g|, beyond which
    exactly the multiples of the gcd remain (the largest gap of the
    coprime semigroup is below max|g|^2 / gcd).  Mixed signs -> the full
    group gcd * Z.
    """
    gens = sorted({g for g in generators if g != 0})
    if not gens:
        return EPSet.finite([0])
    pos = [g for g in gens if g > 0]
    neg = [g for g in gens if g < 0]
    if pos and neg:
        d = 0
        for g in gens:
            d = gcd(d, abs(g))
        return EPSet.congruent(0, d)
    if neg:
        return eps_reflect(nspan([-g for g in gens]))
    d = 0
    for g in pos:
        d = gcd(d, g)
    m = max(pos)
    threshold = m * m + m
    reach = bytearray(threshold + 1)
    reach[0] = 1
    for n in range(1, threshold + 1):
        reach[n] = any(g <= n and reach[n - g] for g in pos)
    members = frozenset(n for n in range(threshold) if reach[n])
    return _recanon(EPSet(members, Core(threshold, d, frozenset([0])), None))


def eps_sumset(s: EPSet, t: EPSet) -> EPSet:
    """{a + b : a in s, b in t}."""
    if s.is_empty() or t.is_empty():
        return EPSet.empty()
    pieces: list[EPSet] = []
    for kind_a, a, pa in _pieces(s):
        for kind_b, b, pb in _pieces(t):
            pieces.append(_sum_piece(kind_a, a, pa, kind_b, b, pb))
    return eps_union_many(pieces)


def _pieces(s: EPSet) -> list[tuple[str, int, int]]:
    """Decompose into ('fin', n, 0), ('up', first, period), ('down', first, period)."""
    out: list[tuple[str, int, int]] = [("fin", n, 0) for n in s.exceptions]
    if s.up is not None:
        c = s.up
        for r in c.residues:
            first = c.threshold + ((r - c.threshold) % c.period)
            out.append(("up", first, c.period))
    if s.down is not None:
        c = s.down
        for r in c.residues:
            first = c.threshold - ((c.threshold - r) % c.period)
            out.append(("down", first, c.period))
    return out


def _progression(kind: str, first: int, period: int) -> EPSet:
    if kind == "fin":
        return EPSet.finite([first])
    if kind == "up":
        return EPSet(frozenset(), Core(first, period, frozenset([first % period])), None)
    return EPSet(frozenset(), None, Core(first, period, frozenset([first % period])))


def _sum_piece(ka: str, a: int, pa: int, kb: str, b: int, pb: int) -> EPSet:
    if ka == "fin":
        return eps_shift(_progression(kb, b, pb), a)
    if kb == "fin":
        return eps_shift(_progression(ka, a, pa), b)
    if ka == "up" and kb == "up":
        return eps_shift(nspan([pa, pb]), a + b)
    if ka == "down" and kb == "down":
        return eps_shift(eps_reflect(nspan([pa, pb])), a + b)
    # one up, one down: every value of the right congruence class is hit
    return EPSet.congruent(a + b, gcd(pa, pb))
