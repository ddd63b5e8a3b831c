"""Metamorphic relations: transformed automata keep their verdicts.

An injective homomorphism h: Q -> Q^2 applied to every arc and initial
weight maps the runs of an automaton to the runs of its image, with the
same states, and the observations of the one onto those of the other,
one to one.  So every current-state estimate carries over, and with it
each of SD, SPD, WD and WPD: a decided verdict of the image must equal
the verdict of the original.  The k > 1 engine may still leave some of
them UNKNOWN.
"""

from wadet.model import WeightedAutomaton
from wadet.verdict import UNKNOWN
from wadet.verify import check_all

from test_structure_digests import AUTOMATA

# w -> (w, c w) for each c: injective on Q
EMBEDDINGS = (0, -2, 3)


def embed(a: WeightedAutomaton, c: int) -> WeightedAutomaton:
    """The k = 1 automaton a with every weight w replaced by (w, c w)."""
    lift = lambda w: (w[0], c * w[0])
    return WeightedAutomaton(2, a.states, {q: lift(w) for q, w in a.initial.items()},
                             a.events, frozenset((s, e, d, lift(w))
                                                 for (s, e, d, w) in a.transitions))


def test_embedding_into_two_dimensions_keeps_decided_verdicts():
    verdicts = unknown = 0
    for name, a in AUTOMATA.items():
        if a.k != 1:
            continue
        expected = check_all(a).statuses()
        for c in EMBEDDINGS:
            for prop, status in check_all(embed(a, c)).statuses().items():
                verdicts += 1
                if status == UNKNOWN:
                    unknown += 1
                else:
                    assert status == expected[prop], (name, c, prop)
    # 122 automata, three embeddings, four properties; 39 of the verdicts
    # are UNKNOWN today, and more would be a regression
    assert verdicts == 1464 and unknown <= 39, (verdicts, unknown)
