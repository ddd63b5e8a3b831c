import random
from decimal import Decimal
from fractions import Fraction

import pytest

from wadet.estimator import estimate
from wadet.model import validate

from oracle_reference import BoundedRun, _runs, oracle_estimate_enum, oracle_falsify
from test_model import chain_description
from test_selfcomp import random_automaton_raw


# -- estimates -----------------------------------------------------------


def test_estimates_on_a1(aut_a1):
    assert estimate(aut_a1, [("rho", 1), ("rho", 2)]) == {"q3"}
    assert estimate(aut_a1, [("rho", 1), ("rho", 3)]) == {"q3"}
    assert estimate(aut_a1, [("rho", 1)]) == {"q1", "q2"}
    assert estimate(aut_a1, [("rho", 1), ("rho", 2), ("rho", 4)]) == {"q4"}


def test_empty_observation_gives_initial_closure(aut_a1):
    assert estimate(aut_a1, []) == {"q0"}
    chain = validate(chain_description((2, 3), 5))
    assert estimate(chain, []) == {"q0", "q1", "q2"}


def test_estimate_unachievable_weight_is_empty(aut_a1):
    assert estimate(aut_a1, [("rho", Fraction(1, 2))]) == frozenset()
    assert estimate(aut_a1, [("rho", 100)]) == frozenset()


def test_estimate_refuses_a_weight_of_another_dimension(aut_a1):
    assert estimate(aut_a1, [("rho", "1"), ("rho", ["2"])]) == {"q3"}
    with pytest.raises(ValueError, match="dimension 2, expected 1"):
        estimate(aut_a1, [("rho", Fraction(1, 2)), ("rho", (2, 0))])


def test_estimate_reads_any_scalar_as_a_one_entry_weight(aut_a1):
    # a float or a Decimal is a k = 1 weight, as an int or a string is
    for one, two in ((1.0, 2.0), (Decimal("1"), Decimal("2")), (1.0, "2")):
        assert estimate(aut_a1, [("rho", one), ("rho", two)]) == {"q3"}
    assert estimate(aut_a1, [("rho", 0.5)]) == estimate(aut_a1, [("rho", Decimal("0.5"))]) == set()


def test_estimate_on_a0(aut_a0):
    assert estimate(aut_a0, [("a", 11)]) == {"q3", "q4"}
    assert estimate(aut_a0, [("a", 2)]) == {"q4"}
    assert estimate(aut_a0, [("a", 11), ("a", 12)]) == {"q3", "q4"}


# -- runs ----------------------------------------------------------------


def oracle_runs(a, horizon):
    """Every path from an initial state with at most `horizon` transitions."""
    return list(_runs(a, horizon))


def weighted_word(run):
    """Per arc of the run, its event and the weight accumulated so far."""
    out, total = [], None
    for (s, e, d, w) in run.path:
        total = w if total is None else tuple(a + b for a, b in zip(total, w))
        out.append((e, total))
    return tuple(out)


def label_sequence(run, a):
    """The observations of the run: (label, accumulated weight) per
    observable arc."""
    return tuple((a.label(e), t) for (e, t) in weighted_word(run) if a.label(e) is not None)


def test_runs_include_known_words(aut_a1):
    runs = oracle_runs(aut_a1, 2)
    words = {weighted_word(r) for r in runs}
    assert (("a", (Fraction(1),)), ("b", (Fraction(3),))) in words  # via q1
    assert (("a", (Fraction(1),)), ("b", (Fraction(2),))) in words  # via q2
    labels = {label_sequence(r, aut_a1) for r in runs}
    assert (("rho", (Fraction(1),)), ("rho", (Fraction(3),))) in labels


def test_runs_horizon_zero(aut_a1):
    runs = oracle_runs(aut_a1, 0)
    assert runs == [BoundedRun("q0", ())]


def test_runs_on_a0_contain_detour(aut_a0):
    runs = oracle_runs(aut_a0, 2)
    words = {weighted_word(r) for r in runs}
    assert (("u", (Fraction(10),)), ("a", (Fraction(11),))) in words


def test_reachability_agrees_with_run_enumeration(aut_a0, aut_a1):
    for aut in (aut_a0, aut_a1):
        ends = {run.end for run in oracle_runs(aut, len(aut.states))}
        assert ends == aut.reachable_states


def test_prefix_sum_law(aut_a1):
    for run in oracle_runs(aut_a1, 4):
        prev = (Fraction(0),)
        for (e, total), arc in zip(weighted_word(run), run.path):
            delta = tuple(t - p for t, p in zip(total, prev))
            assert delta == arc[3]
            prev = total


# -- the two estimate routes agree ----------------------------------------


def silent_suffix_is_instantaneous(a, run):
    last_obs = 0
    for i, (s, e, d, w) in enumerate(run.path):
        if a.label(e) is not None:
            last_obs = i + 1
    return all(w == (Fraction(0),) for (_, _, _, w) in run.path[last_obs:])


def test_estimate_routes_agree_on_fixtures(aut_a0, aut_a1):
    for aut in (aut_a0, aut_a1):
        for run in oracle_runs(aut, 5):
            gamma = label_sequence(run, aut)
            fast = estimate(aut, gamma)
            slow = oracle_estimate_enum(aut, gamma, horizon=7)
            # the bounded route may miss long witnesses, never invent them
            assert slow <= fast
            if silent_suffix_is_instantaneous(aut, run):
                assert run.end in fast


def test_estimate_routes_agree_on_random_instances():
    rng = random.Random(23)
    for _ in range(30):
        a = validate(random_automaton_raw(rng))
        seen = set()
        for run in oracle_runs(a, 4):
            gamma = label_sequence(run, a)
            if gamma in seen:
                continue
            seen.add(gamma)
            fast = estimate(a, gamma)
            slow = oracle_estimate_enum(a, gamma, horizon=6)
            assert slow <= fast, (a, gamma)
            if silent_suffix_is_instantaneous(a, run):
                assert run.end in slow and run.end in fast


# -- falsification ---------------------------------------------------------


def test_falsify_sd_on_a0(aut_a0):
    ce = oracle_falsify(aut_a0, "SD", horizon=4)
    assert ce is not None
    assert ce.kind == "recurring-ambiguity"
    ends = {t[2] for t in ce.stem} | {t[2] for t in ce.cycle}
    assert ends & {"q3", "q4"}


def test_falsify_sd_on_a1_finds_nothing(aut_a1):
    assert oracle_falsify(aut_a1, "SD", horizon=6) is None


def test_falsify_spd_on_a1(aut_a1):
    ce = oracle_falsify(aut_a1, "SPD", horizon=6)
    assert ce is not None
    assert ce.kind == "silent-cycle-after-ambiguity"
    assert set(ce.details["estimate"]) == {"q1", "q2"}


def test_falsify_sd_on_subset_sum_chain():
    a = validate(chain_description((2, 3), 5))
    ce = oracle_falsify(a, "SD", horizon=5)
    assert ce is not None
    # the ambiguity arises at observation (e, 6)
    acc = 0
    first_obs = None
    for (s, e, d, w) in ce.stem:
        acc += w[0]
        if e == "e":
            first_obs = acc
            break
    assert first_obs == 6
    assert oracle_falsify(validate(chain_description((2, 4), 5)), "SD", horizon=6) is None


def test_falsify_weak_properties_on_fixtures(aut_a0, aut_a1):
    # both are weakly detectable / weakly periodically detectable
    assert oracle_falsify(aut_a0, "WD", horizon=5) is None
    assert oracle_falsify(aut_a0, "WPD", horizon=5) is None
    assert oracle_falsify(aut_a1, "WD", horizon=5) is None
    assert oracle_falsify(aut_a1, "WPD", horizon=5) is None


def test_falsify_weak_detectability_negative_case():
    # two indistinguishable initial loops: every estimate stays {p, q}
    raw = {
        "k": 1,
        "states": ["p", "q"],
        "initial": {"p": [0], "q": [0]},
        "events": {"a": "a"},
        "transitions": [("p", "a", "p", [1]), ("q", "a", "q", [1])],
    }
    a = validate(raw)
    assert oracle_falsify(a, "WD", horizon=4) is not None
    assert oracle_falsify(a, "WPD", horizon=4) is not None
    assert oracle_falsify(a, "SD", horizon=4) is not None
    assert oracle_falsify(a, "SPD", horizon=4) is not None
