"""graphutil.strong_components against brute force on small random
digraphs: mutual reachability, the closing order, the cyclic and marked
flags, and the early report of a cyclic marked part."""

import random

import pytest

from wadet.graphutil import reachable, strong_components


def random_digraph(rng):
    """Up to 8 vertices, self-loops allowed, some vertices marked."""
    n = rng.randint(1, 8)
    density = rng.choice((0.1, 0.25, 0.5))
    arcs = {v: [w for w in range(n) if rng.random() < density] for v in range(n)}
    for succ in arcs.values():
        rng.shuffle(succ)
    marks = {v for v in range(n) if rng.random() < 0.2}
    return arcs, marks


def reaches(arcs, v) -> set:
    """The vertices that a nonempty path from v ends at."""
    return reachable(arcs[v], arcs.__getitem__)


@pytest.mark.parametrize("seed", range(100))
def test_components_are_the_mutual_reachability_classes_closed_sinks_first(seed):
    rng = random.Random(seed)
    arcs, _ = random_digraph(rng)
    roots = rng.sample(sorted(arcs), len(arcs))
    closed = list(strong_components(roots, arcs.__getitem__))
    assert sorted(v for comp, _, _ in closed for v in comp) == sorted(arcs)
    order = {v: i for i, (comp, _, _) in enumerate(closed) for v in comp}
    for comp, cyclic, mark in closed:
        assert not mark
        for v in comp:
            assert set(comp) == {w for w in arcs if w == v or v in reaches(arcs, w)
                                 and w in reaches(arcs, v)}
        assert cyclic == any(v in reaches(arcs, v) for v in comp)
    for v, succ in arcs.items():
        assert all(order[w] <= order[v] for w in succ)


@pytest.mark.parametrize("reach", [False, True])
@pytest.mark.parametrize("seed", range(100))
def test_a_cyclic_marked_part_is_reported_before_its_component_closes(seed, reach):
    rng = random.Random(seed)
    arcs, marks = random_digraph(rng)
    roots = rng.sample(sorted(arcs), rng.randint(1, len(arcs)))
    seen = reachable(roots, arcs.__getitem__)
    marked = lambda v: v in marks or reach and bool(reaches(arcs, v) & marks)
    lasso = {v for v in seen if v in reaches(arcs, v) and marked(v)}
    out = list(strong_components(roots, arcs.__getitem__, marks.__contains__, reach))
    whole = list(strong_components(roots, arcs.__getitem__))
    *closed, last = out
    if not (last[1] and last[2]):
        closed.append(last)
        assert not lasso
        assert [comp for comp, _, _ in closed] == [comp for comp, _, _ in whole]
    else:
        part = set(last[0])
        inside = lambda v: [w for w in arcs[v] if w in part]
        assert part <= seen
        for v in part:  # strongly connected within itself, and on a cycle
            assert reachable(inside(v), inside) == part
        assert part & lasso
        assert [comp for comp, _, _ in closed] == [comp for comp, _, _ in whole[:len(closed)]]
    for comp, cyclic, mark in closed:
        assert not (cyclic and mark)
        assert cyclic == any(v in reaches(arcs, v) for v in comp)
        assert mark == any(map(marked, comp))
