import itertools
import time
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from wadet import epset
from wadet.corpus import subset_sum_automaton
from wadet.epset import (
    Core,
    EPSet,
    eps_add_progressions,
    eps_intersect,
    eps_meets,
    eps_min_abs_witness,
    eps_partition,
    eps_reflect,
    eps_shift,
    eps_union_many,
    from_minima,
    least_by_residue,
    _combine,
    _divisors,
)
from wadet.verify import check_all

WINDOW = range(-200, 201)


def eps_complement(s):
    """Test algebra: the complement, which no product path takes."""
    return _combine([s], lambda a: ~a)


def recanon(s):
    """Test algebra: the canonical form of a raw presentation."""
    return _combine([s], lambda a: a)


def upward(threshold):
    """{n >= threshold} in canonical form."""
    return eps_union_many([EPSet(frozenset(), Core(threshold, 1, frozenset([0])), None)])


def members(s, window=WINDOW):
    return {n for n in window if n in s}


# -- raw (possibly non-canonical) presentations for randomized tests ----

core_st = st.builds(
    lambda thr, period, res: Core(thr, period, frozenset(r % period for r in res) or frozenset([0])),
    st.integers(-20, 20),
    st.integers(1, 6),
    st.sets(st.integers(0, 5), min_size=1, max_size=6),
)

raw_epset_st = st.builds(
    lambda exc, up, down: EPSet(frozenset(exc), up, down),
    st.sets(st.integers(-30, 30), max_size=8),
    st.one_of(st.none(), core_st),
    st.one_of(st.none(), core_st),
)

epset_st = raw_epset_st.map(recanon)

# tail-free sets take the point-set path of eps_union_many and eps_partition
finite_epset_st = st.builds(lambda exc: EPSet(frozenset(exc)),
                            st.sets(st.integers(-30, 30), max_size=8))


def naive_member(raw, n):
    """Evaluate the raw description directly, without canonicalization."""
    if raw.up is not None and n >= raw.up.threshold and n % raw.up.period in raw.up.residues:
        return True
    if raw.down is not None and n <= raw.down.threshold and n % raw.down.period in raw.down.residues:
        return True
    return n in raw.exceptions


# -- pointwise reference for the set algebra ---------------------------------
#
# wadet.epset works run by run between the cuts of its inputs; this
# reference tests every integer between the safe bounds and steps the
# thresholds one integer at a time, which is cheap on the small
# presentations drawn here.


def ref_canonical(lo, dn_res, middle, hi, up_res, modulus):
    """The canonical EPSet with membership up_res mod modulus on [hi, oo),
    dn_res on (-oo, lo] and `middle` on (lo, hi), found by stepping the
    thresholds one integer at a time."""

    def mem(n):
        if n >= hi:
            return n % modulus in up_res
        if n <= lo:
            return n % modulus in dn_res
        return n in middle

    def fold(res):
        for e in range(1, modulus + 1):
            if modulus % e == 0 and {(r + e) % modulus for r in res} == set(res):
                return e, frozenset(r % e for r in res)

    d_up, r_up = fold(up_res) if up_res else (1, frozenset())
    d_dn, r_dn = fold(dn_res) if dn_res else (1, frozenset())
    if up_res and dn_res and (d_up, r_up) == (d_dn, r_dn) and \
            all(mem(n) == (n % d_up in r_up) for n in range(lo + 1, hi)):
        return EPSet(frozenset(), Core(0, d_up, r_up), Core(-1, d_up, r_up))
    up, u_thr = None, hi
    if up_res:
        while mem(u_thr - 1) == ((u_thr - 1) % d_up in r_up):
            u_thr -= 1
        up = Core(u_thr, d_up, r_up)
    down, l_thr = None, lo
    if dn_res:
        while mem(l_thr + 1) == ((l_thr + 1) % d_dn in r_dn):
            l_thr += 1
        down = Core(l_thr, d_dn, r_dn)
    return EPSet(frozenset(n for n in range(l_thr + 1, u_thr) if mem(n)), up, down)


def ref_combine(sets, f):
    """Pointwise boolean combination of raw presentations; f takes bools."""
    modulus, hi, lo = 1, 0, 0
    for s in sets:
        for c in (s.up, s.down):
            if c is not None:
                modulus = lcm(modulus, c.period)
        hi = max([hi, *(n + 1 for n in s.exceptions)]
                 + ([s.up.threshold] if s.up else []) + ([s.down.threshold + 1] if s.down else []))
        lo = min([lo, *(n - 1 for n in s.exceptions)]
                 + ([s.down.threshold] if s.down else []) + ([s.up.threshold - 1] if s.up else []))
    up_res = frozenset(r for r in range(modulus)
                       if f(*((hi + (r - hi) % modulus) in s for s in sets)))
    dn_res = frozenset(r for r in range(modulus)
                       if f(*((lo - (lo - r) % modulus) in s for s in sets)))
    middle = frozenset(n for n in range(lo + 1, hi) if f(*(n in s for s in sets)))
    return ref_canonical(lo, dn_res, middle, hi, up_res, modulus)


def raw_shift(raw, c):
    """The presentation moved by c, not canonicalized."""

    def core(k):
        return k and Core(k.threshold + c, k.period, frozenset((r + c) % k.period for r in k.residues))

    return EPSet(frozenset(n + c for n in raw.exceptions), core(raw.up), core(raw.down))


def raw_reflect(raw):
    def core(k):
        return k and Core(-k.threshold, k.period, frozenset((-r) % k.period for r in k.residues))

    return EPSet(frozenset(-n for n in raw.exceptions), core(raw.down), core(raw.up))


@settings(max_examples=300, deadline=None)
@given(raw_epset_st, raw_epset_st, st.integers(-40, 40), finite_epset_st)
def test_set_algebra_equals_pointwise_reference(a, b, c, f):
    assert recanon(a) == ref_combine([a], lambda x: x)
    assert eps_union_many([a, b]) == ref_combine([a, b], lambda x, y: x or y)
    assert eps_intersect(a, b) == ref_combine([a, b], lambda x, y: x and y)
    assert eps_intersect(a, eps_complement(b)) == ref_combine([a, b], lambda x, y: x and not y)
    assert eps_complement(a) == ref_combine([a], lambda x: not x)
    assert eps_union_many([a, b, raw_shift(b, c)]) == ref_combine(
        [a, b, raw_shift(b, c)], lambda *xs: any(xs))
    assert eps_shift(recanon(a), c) == ref_combine([raw_shift(a, c)], lambda x: x)
    assert eps_reflect(recanon(a)) == ref_combine([raw_reflect(a)], lambda x: x)
    for sets in ([f, raw_shift(f, c)], [f, a], [f]):
        assert eps_union_many(sets) == ref_combine(sets, lambda *xs: any(xs))
    assert eps_union_many([]) == EPSet.empty()


def labelled_st(sets):
    return st.lists(st.tuples(sets, st.sampled_from(["x", "y", "z"])), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(labelled_st(raw_epset_st), labelled_st(finite_epset_st))
def test_partition_equals_pointwise_reference(raw_pieces, finite_pieces):
    for pieces in (raw_pieces, finite_pieces):
        sets = [s for s, _ in pieces]

        def labels_at(xs):
            return frozenset(label for (_, label), x in zip(pieces, xs) if x)

        atoms = eps_partition(pieces)
        for key, atom in atoms.items():
            assert key and not atom.is_empty()
            assert atom == ref_combine(sets, lambda *xs: labels_at(xs) == key)
        for s, t in combinations(atoms.values(), 2):
            assert eps_intersect(s, t).is_empty()
        assert eps_union_many(atoms.values()) == ref_combine(sets, lambda *xs: any(xs))
        seen = {labels_at([n in s for s in sets]) for n in WINDOW}
        assert seen - {frozenset()} <= set(atoms)
    # finite atoms come in the order of their least members, as a sweep meets them
    atoms = list(eps_partition(finite_pieces).values())
    assert atoms == sorted(atoms, key=lambda s: min(s.exceptions))


def test_tail_free_union_and_partition_make_no_sweep(monkeypatch):
    # finite sets are unioned and partitioned as point sets; so is every
    # weight set of an acyclic silent graph, the subset-sum reduction's
    def sweep(*args):
        raise AssertionError("tail-free inputs reached the window sweep")

    monkeypatch.setattr(epset, "_sweep", sweep)
    sets = [EPSet.finite(ns) for ns in ([0, 120, 460], [5, 120], [], [-7, 460, 461])]
    assert eps_union_many(sets) == ref_combine(sets, lambda *xs: any(xs))
    labels = ["x", "y", "x", "z"]
    atoms = eps_partition(zip(sets, labels))
    assert set(atoms) == {frozenset("x"), frozenset("xy"), frozenset("xz"), frozenset("z"),
                          frozenset("y")}
    for key, atom in atoms.items():
        assert atom == ref_combine(sets, lambda *xs: {l for l, x in zip(labels, xs) if x} == key)
    for target, status in ((460, "FAILS"), (461, "HOLDS")):
        result = check_all(subset_sum_automaton([120, 340, 515], target))
        assert result.verdicts["SD"].status == status
    tail = EPSet(up=Core(3, 1, frozenset([0])))  # a raw tail, built without a sweep
    with pytest.raises(AssertionError):
        eps_union_many([tail, EPSet.finite([1])])


@settings(max_examples=300, deadline=None)
@given(raw_epset_st, st.one_of(st.integers(-10 ** 9, 10 ** 9),
                               st.sampled_from([10 ** 9, -10 ** 9, 999_999_937])))
def test_canonical_form_is_translation_invariant(raw, c):
    # no window scan: the shifted presentation spans up to 10^9 integers
    assert recanon(raw_shift(raw, c)) == eps_shift(recanon(raw), c)
    assert recanon(raw_reflect(raw_shift(raw, c))) == eps_reflect(eps_shift(recanon(raw), c))


@settings(max_examples=300, deadline=None)
@given(raw_epset_st)
def test_min_abs_witness_equals_scan(raw):
    s = recanon(raw)
    scan = next((n for a in range(200) for n in (a, -a) if naive_member(raw, n)), None)
    assert eps_min_abs_witness(s) == eps_min_abs_witness(raw) == scan


def test_divisors_by_trial_division():
    for n in range(1, 400):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    assert _divisors(10 ** 12) == sorted(2 ** i * 5 ** j for i in range(13) for j in range(13))


# -- hand-checked examples ----------------------------------------------------


def test_complement_of_universe_is_empty():
    assert eps_complement(EPSet.congruent(0, 1)).is_empty()
    assert eps_complement(EPSet.empty()) == EPSet.congruent(0, 1)


def test_intersect_tail_with_singleton():
    tail = upward(2)
    assert eps_intersect(tail, EPSet.finite([11])) == EPSet.finite([11])


def test_difference_punches_hole_and_recanonicalizes():
    s = eps_intersect(upward(2), eps_complement(EPSet.finite([11])))
    assert s.up == Core(12, 1, frozenset([0]))
    assert s.down is None
    assert s.exceptions == frozenset(range(2, 11))
    assert members(s, range(0, 31)) == set(range(2, 31)) - {11}


def test_witnesses():
    assert eps_min_abs_witness(EPSet.empty()) is None
    assert EPSet.empty().is_empty()
    assert eps_min_abs_witness(EPSet.finite([11])) == 11
    holed = eps_intersect(upward(2), eps_complement(EPSet.finite([11])))
    assert eps_min_abs_witness(holed) == 2


def test_min_abs_witness_tie_breaks_nonnegative():
    assert eps_min_abs_witness(EPSet.finite([-3, 3])) == 3
    assert eps_min_abs_witness(EPSet.finite([-2, 5])) == -2
    assert eps_min_abs_witness(EPSet.congruent(0, 1)) == 0


def test_fully_periodic_sets_are_anchored():
    evens = EPSet.congruent(0, 2)
    assert evens.up == Core(0, 2, frozenset([0]))
    assert evens.down == Core(-1, 2, frozenset([0]))
    assert evens.exceptions == frozenset()
    assert eps_union_many([evens, EPSet.congruent(1, 2)]) == EPSet.congruent(0, 1)


def test_shift_and_reflect():
    s = eps_shift(upward(2), 3)
    assert members(s, range(0, 20)) == set(range(5, 20))
    r = eps_reflect(upward(2))
    assert members(r, range(-20, 20)) == set(range(-20, -1))
    assert eps_reflect(eps_reflect(s)) == s


# -- randomized algebra laws -------------------------------------------


@settings(max_examples=300, deadline=None)
@given(raw_epset_st, raw_epset_st, st.integers(-60, 60))
def test_meets_equals_nonempty_intersection(a, b, c):
    assert eps_meets(a, eps_shift(b, c)) == (not eps_intersect(a, eps_shift(b, c)).is_empty())


def test_meets_large_coprime_periods_in_closed_form():
    # an up tail mod P and a down tail mod Q built to share the member n0;
    # the common members are n0 + P*Q*Z, so n0 is the only one in
    # [n0 - P*Q + 1, n0] and the window's upper end decides the answer.
    # A search that steps through the class would need up to P*Q steps.
    P, Q = 10 ** 7 + 19, 10 ** 6 + 3
    start = time.perf_counter()
    for n0, c in [(123_456_789_012, 0), (98_765_432_101, -31_337), (5, 7)]:
        lo = n0 - P * Q + 1
        up = EPSet(frozenset(), Core(lo, P, frozenset([n0 % P])), None)
        for hi, want in [(n0, True), (n0 - 1, False)]:
            down = EPSet(frozenset(), None, Core(hi - c, Q, frozenset([(n0 - c) % Q])))
            assert (n0 in up and n0 - c in down) == want
            assert eps_meets(up, eps_shift(down, c)) is want
            assert eps_meets(down, eps_shift(up, -c)) is want
        # two tails in one direction always share a class here, gcd 1
        assert eps_meets(up, eps_shift(EPSet(frozenset(), Core(-lo, Q, frozenset([3])), None), c))
    assert time.perf_counter() - start < 0.5


def test_meets_answers_same_direction_tails_first(monkeypatch):
    # coprime periods meet in every class, so two up tails (or two down
    # tails) answer before any exception is looked up or any up/down pair
    # reaches the Chinese remainder window
    def refuse(*args):
        raise AssertionError("same-direction tails of coprime periods did not answer first")

    monkeypatch.setattr(epset, "_opposite_cores_meet", refuse)
    monkeypatch.setattr(EPSet, "__contains__", refuse)
    s = EPSet(frozenset([1000]), Core(0, 4, frozenset([1])), Core(-5, 9, frozenset([2])))
    ups = EPSet(frozenset([2000]), Core(0, 9, frozenset([5])), Core(-7, 6, frozenset([3])))
    downs = EPSet(frozenset([2000]), Core(0, 6, frozenset([2])), Core(-7, 4, frozenset([3])))
    for c in (0, 7, -13):
        assert eps_meets(s, eps_shift(ups, c))  # up tails mod 4 and 9
        # down tails mod 9 and 4; the up tails never meet at c = 0
        assert eps_meets(s, eps_shift(downs, c))


@pytest.mark.parametrize("direction", ["up", "down"])
def test_meets_same_direction_tails_by_residues_mod_gcd(direction):
    # 1 mod 4 and 2 mod 6 + c share a class iff 1 = 2 + c (mod 2), so
    # c = 0 gives no member and c = 1 gives 9 mod 12
    x, y = Core(0, 4, frozenset([1])), Core(0, 6, frozenset([2]))
    s, t = EPSet(**{direction: x}), EPSet(**{direction: y})
    assert eps_meets(s, t) is False
    assert eps_meets(s, eps_shift(t, 1)) is True
    for c in range(-12, 13):
        want = c % 2 == 1
        shifted = eps_shift(t, c)
        assert eps_meets(s, shifted) == want == (not eps_intersect(s, shifted).is_empty())


@settings(max_examples=150, deadline=None)
@given(raw_epset_st)
def test_canonical_matches_naive_description(raw):
    s = recanon(raw)
    for n in WINDOW:
        assert (n in s) == naive_member(raw, n)


@settings(max_examples=150, deadline=None)
@given(raw_epset_st)
def test_canonicalization_is_idempotent(raw):
    s = recanon(raw)
    assert recanon(s) == s


@settings(max_examples=100, deadline=None)
@given(epset_st, epset_st)
def test_union_and_intersection_pointwise(s, t):
    u = eps_union_many([s, t])
    i = eps_intersect(s, t)
    for n in WINDOW:
        assert (n in u) == ((n in s) or (n in t))
        assert (n in i) == ((n in s) and (n in t))


@settings(max_examples=100, deadline=None)
@given(epset_st, epset_st)
def test_de_morgan_structurally(s, t):
    assert eps_complement(eps_union_many([s, t])) == \
        eps_intersect(eps_complement(s), eps_complement(t))
    assert eps_complement(eps_intersect(s, t)) == \
        eps_union_many([eps_complement(s), eps_complement(t)])


@settings(max_examples=150, deadline=None)
@given(epset_st)
def test_double_complement_structurally(s):
    assert eps_complement(eps_complement(s)) == s


@settings(max_examples=100, deadline=None)
@given(epset_st, st.integers(-15, 15))
def test_shift_pointwise(s, c):
    shifted = eps_shift(s, c)
    for n in range(-150, 151):
        assert (n in shifted) == ((n - c) in s)


@settings(max_examples=60, deadline=None)
@given(raw_epset_st, raw_epset_st)
def test_canonical_unique_across_presentations(raw_a, raw_b):
    a, b = recanon(raw_a), recanon(raw_b)
    same = all(naive_member(raw_a, n) == naive_member(raw_b, n) for n in WINDOW)
    # window is wide enough for these bounded raw parts to determine the set
    if same:
        assert a == b
    else:
        assert a != b


# -- N-span (the reference for walk weights in test_epl) and sums --------


def nspan(generators):
    """{ sum_i n_i * g_i : n_i in N } for the given integer generators.

    All zero or empty -> {0}.  Mixed signs -> the full group d * Z, d the
    gcd.  Same sign -> a numerical semigroup: with c the smallest
    generator it is the union of m + c * N over the least member m of
    each residue class mod c, the walks of a one-vertex graph.
    """
    gens = sorted({g for g in generators if g != 0})
    if not gens:
        return EPSet.finite([0])
    if gens[0] < 0 < gens[-1]:
        return EPSet.congruent(0, gcd(*gens))
    if gens[0] < 0:
        return eps_reflect(nspan([-g for g in gens]))
    least = least_by_residue(0, lambda _: [(0, g) for g in gens], gens[0])
    return from_minima(least[0].values(), gens[0])


def brute_span(gens, count_bound=12):
    sums = {0}
    for _ in range(count_bound):
        sums |= {s + g for s in sums for g in gens}
    return sums


@settings(max_examples=80, deadline=None)
@given(st.sets(st.integers(-6, 6), min_size=0, max_size=4))
def test_nspan_against_coin_sums(gens):
    span = nspan(gens)
    brute = brute_span(gens, count_bound=12)
    # completeness: everything brute force reaches is claimed
    for n in brute:
        if -150 <= n <= 150:
            assert n in span
    # soundness on same-signed generators: 12 coins exhaust |n| <= 12*min|g|
    nonzero = [abs(g) for g in gens if g]
    if nonzero and (all(g >= 0 for g in gens) or all(g <= 0 for g in gens)):
        cap = 12 * min(nonzero)
        for n in range(-cap, cap + 1):
            if n in span:
                assert n in brute


def test_nspan_of_large_generators_is_the_scaled_small_span():
    start = time.perf_counter()
    thousand, pair = nspan([1000]), nspan([600, 900])
    assert time.perf_counter() - start < 0.5
    assert thousand == EPSet(frozenset(), Core(-999, 1000, frozenset([0])), None)
    assert members(thousand, range(-3000, 3001)) == {0, 1000, 2000, 3000}
    small = nspan([2, 3])
    assert members(pair, range(-1000, 10_000)) == {300 * n for n in range(-3, 34) if n in small}
    assert nspan([-600, -900]) == eps_reflect(pair)


def test_nspan_mixed_signs_is_full_gcd_class():
    span = nspan([4, -6])
    assert span == EPSet.congruent(0, 2)
    assert nspan([4, -6, 3]) == EPSet.congruent(0, 1)


def test_nspan_positive_semigroup():
    span = nspan([3, 5])
    # numerical semigroup <3,5>: gaps 1,2,4,7
    want = {0, 3, 5, 6} | set(range(8, 60))
    assert members(span, range(0, 60)) == want
    assert members(span, range(-30, 0)) == set()


def progressions_st(c_max=7):
    """(c, least members): at most one m per residue mod c, |m| < 4c."""
    return st.integers(1, c_max).flatmap(lambda c: st.tuples(
        st.just(c),
        st.dictionaries(st.integers(0, c - 1), st.integers(-3, 3), max_size=c)
        .map(lambda lifts: [r + c * j for r, j in lifts.items()])))


TAILS = {"up": (core_st, st.none()), "down": (st.none(), core_st), "both": (core_st, core_st)}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("tails", sorted(TAILS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_add_progressions_pointwise_on_window(tails, sign, data):
    # s + sign * T, for T the progressions m + c * N, against the sums of
    # their members.  A member of the sum in [-60, 60] is a sum of an s
    # member in [-150, 150] and a member of sign * T in [-250, 250]:
    # outside [-30, 30] the tails of s repeat with a period that, with c,
    # divides at most 42
    up, down = TAILS[tails]
    s = recanon(EPSet(frozenset(data.draw(st.sets(st.integers(-30, 30), max_size=8))),
                       data.draw(up), data.draw(down)))
    c, minima = data.draw(progressions_st())
    total = eps_add_progressions(s, [sign * m for m in minima], sign * c)
    ms = members(s, range(-150, 151))
    mt = {sign * n for n in range(-30, 251) if any(n >= m and (n - m) % c == 0 for m in minima)}
    sums = {a + b for a in ms for b in mt}
    window = range(-60, 61)
    assert members(total, window) == {n for n in window if n in sums}
