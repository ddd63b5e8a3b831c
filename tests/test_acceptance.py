"""Acceptance suite.

One test per criterion; each prints a PASS line with its measurements
when it completes.  Expected structures and verdicts are frozen from the
bundled corpus derivations; the observer is cross-checked against the
estimate (estimator.estimate), and failing verdicts against the bounded
falsifier of tests/oracle_reference.py.
"""

import itertools
import random
import time

from wadet.corpus import load_fixture, random_automaton, subset_sum_automaton
from wadet.epl import WeightSetSolver
from wadet.epset import EPSet, eps_intersect, eps_union_many
from wadet.estimator import build_detector, build_observer, estimate
from wadet.model import normalize, scale_to_integers, scale_weights, validate
from wadet.verdict import FAILS, HOLDS, SD, SPD, WD, WPD
from wadet.verify import check_all, check_spd

from graph_reference import enumerate_walk_weights, replay_walk, silent_automaton, walk_weight
from oracle_reference import oracle_falsify
from test_epset import eps_complement, naive_member, recanon
from test_estimator import accumulate, detector_covers_observer, observer_paths


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


# -- criterion 1: worked-example verdict table --------------------------------


def test_criterion_1_verdict_table():
    cases = [
        ("A1", load_fixture("A1").automaton,
         {SD: HOLDS, SPD: FAILS, WD: HOLDS, WPD: HOLDS}),
        ("A0", load_fixture("A0").automaton,
         {SD: FAILS, SPD: FAILS, WD: HOLDS, WPD: HOLDS}),
        ("subset-sum(2,3;5)", subset_sum_automaton((2, 3), 5),
         {SD: FAILS, SPD: FAILS, WD: HOLDS, WPD: HOLDS}),
        ("subset-sum(2,4;5)", subset_sum_automaton((2, 4), 5),
         {SD: HOLDS, SPD: HOLDS, WD: HOLDS, WPD: HOLDS}),
    ]
    timings = []
    for name, automaton, want in cases:
        t0 = time.perf_counter()
        got = check_all(automaton).statuses()
        elapsed = time.perf_counter() - t0
        assert got == want, (name, got, want)
        assert elapsed < 2.0, (name, elapsed)
        timings.append(f"{name} {elapsed * 1000:.0f}ms")
    report(1, "verdict table exact; " + ", ".join(timings))


# -- criterion 2: structure reproduction --------------------------------------


def test_criterion_2_structures():
    a1 = load_fixture("A1").automaton
    cc1 = check_all(a1).self_composition
    arcs1 = {(t.source, t.events, t.target) for t in cc1.transitions}
    want1 = {(("q0", "q0"), ("a", "a"), (p, q))
             for p in ("q1", "q2") for q in ("q1", "q2")}
    want1 |= {((p, q), ("b", "b"), ("q3", "q3"))
              for p in ("q1", "q2") for q in ("q1", "q2")}
    want1 |= {(("q3", "q3"), ("a", "a"), ("q4", "q4")),
              (("q4", "q4"), ("a", "a"), ("q4", "q4"))}
    assert len(cc1.states) == 7
    assert arcs1 == want1

    a0 = load_fixture("A0").automaton
    res0 = check_all(a0)
    arcs0 = {(t.source, t.events, t.target) for t in res0.self_composition.transitions}
    published = {
        (("q0", "q0"), ("a", "a"), ("q3", "q4")),
        (("q0", "q0"), ("a", "a"), ("q4", "q3")),
        (("q3", "q4"), ("a", "a"), ("q3", "q4")),
        (("q4", "q3"), ("a", "a"), ("q4", "q3")),
    }
    forced_diagonal = {
        (("q0", "q0"), ("a", "a"), ("q3", "q3")),
        (("q0", "q0"), ("a", "a"), ("q4", "q4")),
        (("q3", "q3"), ("a", "a"), ("q3", "q3")),
        (("q4", "q4"), ("a", "a"), ("q4", "q4")),
    }
    assert arcs0 == published | forced_diagonal

    obs0 = res0.observer
    x0, both, one = frozenset(["q0"]), frozenset(["q3", "q4"]), frozenset(["q4"])
    got = {(t.source, t.symbol, t.weight, t.target) for t in obs0.transitions}
    assert got == {(x0, "a", 11, both), (x0, "a", 2, one),
                   (both, "a", 1, both), (one, "a", 1, one)}
    cells = {(t.source, t.target): t.cell for t in obs0.transitions}
    assert cells[(x0, both)] == EPSet.finite([11])
    hole = cells[(x0, one)]
    window = {n for n in range(-40, 200) if n in hole}
    assert window == set(range(2, 200)) - {11}

    res1 = check_all(a1)
    fig8 = {
        (frozenset(["q0"]), "rho", 1, frozenset(["q1", "q2"])),
        (frozenset(["q1", "q2"]), "rho", 1, frozenset(["q3"])),
        (frozenset(["q3"]), "rho", 2, frozenset(["q4"])),
        (frozenset(["q4"]), "rho", 1, frozenset(["q4"])),
    }
    got_obs = {(t.source, t.symbol, t.weight, t.target) for t in res1.observer.transitions}
    got_det = {(t.source, t.symbol, t.weight, t.target) for t in res1.detector.transitions}
    assert got_obs == fig8 and got_det == fig8

    report(2, "self-compositions, observer cells {11} / {>=2, !=11}, "
              "observer = detector with witness (rho,1)")


# -- criterion 3: estimate reproduction ----------------------------------------


def test_criterion_3_estimates():
    a1 = load_fixture("A1").automaton
    assert estimate(a1, [("rho", 1), ("rho", 2)]) == {"q3"}
    assert estimate(a1, [("rho", 1), ("rho", 3)]) == {"q3"}
    a2 = subset_sum_automaton((2, 3), 5)
    assert estimate(a2, []) == {"q0", "q1", "q2"}
    report(3, "estimates {q3}, {q3}, {q0..qm} reproduced exactly")


# -- criterion 4: subset-sum equivalence sweep ----------------------------------


def brute_subset_sum(weights, target):
    return any(sum(c) == target
               for r in range(len(weights) + 1)
               for c in itertools.combinations(weights, r))


def test_criterion_4_subset_sum_sweep():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    cases = 0
    from wadet.selfcomp import check_sd
    while cases < 300:
        m = rng.randint(1, 8)
        weights = [rng.randint(1, 10) for _ in range(m)]
        target = rng.randint(1, 30)
        verdict = check_sd(subset_sum_automaton(weights, target))
        want = FAILS if brute_subset_sum(weights, target) else HOLDS
        assert verdict.status == want, (weights, target)
        cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    report(4, f"{cases} instances agree with brute force in {elapsed:.1f}s")


# -- criterion 5: oracle-equivalence property suite ------------------------------


def test_criterion_5_oracle_equivalence_suite():
    t0 = time.perf_counter()
    n_automata = 200
    checked_paths = checked_graphs = 0
    for seed in range(n_automata):
        a = random_automaton(seed, max_states=5, max_events=3, weight_range=(-2, 2))
        prepared, _ = scale_to_integers(normalize(a))
        observer = build_observer(prepared)
        detector = build_detector(prepared)

        # (a) every observer path of length <= 4 agrees with the estimate
        for target, events in observer_paths(observer, 4):
            assert estimate(prepared, accumulate(events)) == target, (seed, events)
            checked_paths += 1

        # (b) weight sets agree with 12-step walk enumeration on [-36, 36]
        arcs = [(s, int(w[0]), d) for (s, e, d, w) in prepared.transitions]
        g = silent_automaton(1, sorted(prepared.states), arcs)
        solver = WeightSetSolver(g)
        u = sorted(prepared.initial)[0]
        brute = enumerate_walk_weights(g.unobs_transitions, u, 12)
        for v in sorted(g.states):
            s = solver.weight_set(u, v)
            for w in range(-36, 37):
                if w in brute[v]:
                    assert w in s, (seed, u, v, w)
                elif w in s:
                    walk = solver.witness_walk(u, v, w)
                    assert replay_walk(walk, u, v) and walk_weight(walk, 1) == (w,)
        checked_graphs += 1

        # (c) detector-based and observer-based periodic evaluations agree
        check_spd(prepared, detector, observer)  # internal assertion

        # (d) the detector covers every observer transition (pre-structure)
        ok, bad = detector_covers_observer(prepared, observer, detector)
        assert ok, (seed, bad)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, elapsed
    report(5, f"{n_automata} automata, {checked_paths} observer paths, "
              f"{checked_graphs} weight-set cross-checks in {elapsed:.1f}s")


# -- criterion 6: invariance suite -----------------------------------------------


def test_criterion_6_invariances():
    rng = random.Random(99)
    corpus = [load_fixture("A0").automaton, load_fixture("A1").automaton,
              subset_sum_automaton((2, 3), 5), subset_sum_automaton((2, 4), 5)]
    randoms = [random_automaton(10_000 + i) for i in range(50)]
    for a in corpus + randoms:
        base = check_all(a).statuses()
        for m in (2, 3, 7):
            scaled = scale_weights(a, m)
            assert check_all(scaled).statuses() == base, (a, m)

    for a in corpus + randoms[:10]:
        n1 = normalize(a)
        assert normalize(n1) is n1

    # EPSet algebra laws on 500 random raw descriptions
    laws = 0

    def rand_core(r):
        if r.random() < 0.4:
            return None
        period = r.randint(1, 6)
        residues = frozenset(r.randint(0, period - 1)
                             for _ in range(r.randint(1, period)))
        from wadet.epset import Core
        return Core(r.randint(-20, 20), period, residues)

    def rand_raw(r):
        exc = frozenset(r.randint(-30, 30) for _ in range(r.randint(0, 8)))
        return EPSet(exc, rand_core(r), rand_core(r))

    r = random.Random(7)
    raws = [rand_raw(r) for _ in range(500)]
    for raw in raws:
        s = recanon(raw)
        for n in range(-120, 121):
            assert (n in s) == naive_member(raw, n)
        assert recanon(s) == s
        assert eps_complement(eps_complement(s)) == s
        laws += 1
    pairs = [(s, t) for s, t in zip(map(recanon, raws[:60]), map(recanon, raws[60:120]))]
    for s, t in pairs:
        assert eps_complement(eps_union_many([s, t])) == \
            eps_intersect(eps_complement(s), eps_complement(t))

    report(6, f"scaling x2/x3/x7 invariant on {len(corpus) + len(randoms)} automata; "
              f"normalize idempotent; {laws} EPSet law checks")


# -- criterion 7: witness replay ---------------------------------------------------


def gamma_of_arcs(a, arcs):
    total = None
    out = []
    for (s, e, d, w) in arcs:
        total = w if total is None else tuple(x + y for x, y in zip(total, w))
        if a.label(e) is not None:
            out.append((a.label(e), total))
    return out


def replay_sd_witness(result):
    a = result.automaton
    cc = result.self_composition
    wit = result.verdicts[SD].witness
    segments = {}
    for part in ("cc_access", "cc_cycle", "cc_split_path"):
        left = []
        right = []
        for tr in wit[part]:
            l, r = cc.witnesses[tr]
            left.extend(l)
            right.extend(r)
        segments[part] = (left, right)
    for pumps in (1, 2, 3):
        left = segments["cc_access"][0] + segments["cc_cycle"][0] * pumps \
            + segments["cc_split_path"][0]
        gamma = gamma_of_arcs(a, left)
        if pumps >= 2:  # the pumped cycle produces at least one event per round
            assert len(gamma) >= 2
        found = estimate(a, gamma)
        assert len(found) > 1, (pumps, gamma, found)
        assert wit["split_state"][0] in found


def replay_spd_witness(result):
    a = result.automaton
    wit = result.verdicts[SPD].witness
    if wit["kind"] == "ambiguous-estimate-can-stall":
        gamma = accumulate(wit["access"])
        found = estimate(a, gamma)
        assert set(wit["state"]) <= set(found)
        assert len(found) > 1
        assert wit["anchor"] in a.stall_states
        return
    assert wit["kind"] == "ambiguous-cycle"
    for pumps in (1, 2, 3):
        events = list(wit["access"]) + list(wit["cycle"]) * pumps
        prefix_len = len(wit["access"])
        gamma = accumulate(events)
        for i in range(prefix_len, len(gamma) + 1):
            found = estimate(a, gamma[:i])
            assert len(found) > 1, (pumps, i)


def test_criterion_7_witness_replay():
    corpus = {
        "A0": load_fixture("A0").automaton,
        "A1": load_fixture("A1").automaton,
        "robot": load_fixture("robot").automaton,
        "subset-sum(2,3;5)": subset_sum_automaton((2, 3), 5),
    }
    replayed = 0
    for name, automaton in corpus.items():
        result = check_all(automaton)
        for prop, verdict in result.verdicts.items():
            if verdict.status != FAILS:
                continue
            if prop == SD:
                replay_sd_witness(result)
            elif prop == SPD:
                replay_spd_witness(result)
            ce = oracle_falsify(result.automaton, prop, horizon=8)
            assert ce is not None, (name, prop)
            replayed += 1
    assert replayed >= 6
    report(7, f"{replayed} failing verdicts replayed and confirmed by the oracle")
