"""Outputs stay byte-identical: sha256 digests of verdicts and structures.

`tests/data/structure_digests.json` holds, per automaton, the sha256 of
each of the four `check_all` verdict JSONs and of the self-composition,
observer and detector JSON, serialized as the CLI prints them, and one
sha256 (`walks`) over the repr of every self-composition transition with
its witness walks, in the order of `witnesses`.  A change
that must not alter any output keeps every digest; a change that alters
outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/test_structure_digests.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from functools import cache

import pytest

from wadet import io
from wadet.corpus import load_fixture, random_automaton
from wadet.verify import check_all

DIGESTS = pathlib.Path(__file__).parent / "data" / "structure_digests.json"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SEEDS = range(60)
# the k = 2 draws among seeds 0-39 whose observer and detector are exact;
# the other four (11, 17, 38, 39) have inexact structures, whose listed
# transitions depend on where the enumeration stops
VECTOR_SEEDS = [seed for seed in range(40) if seed not in (11, 17, 38, 39)]


def automata():
    """Name -> automaton: the three fixtures, then random draws with the
    default generator, with mostly silent, wider-weighted events, and
    with k = 2."""
    out = {name: load_fixture(name).automaton for name in ("A0", "A1", "robot")}
    for seed in SEEDS:
        out[f"random-{seed}"] = random_automaton(seed, k=1)
    for seed in SEEDS:
        out[f"silent-{seed}"] = random_automaton(seed, k=1, unobs_fraction=0.7,
                                                 weight_range=(-3, 3))
    for seed in VECTOR_SEEDS:
        out[f"vector-{seed}"] = random_automaton(seed, k=2)
    return out


def digests(a) -> dict[str, str]:
    result = check_all(a)
    documents = {p: v.to_json() for p, v in result.verdicts.items()}
    documents["selfcomp"] = io.selfcomp_to_json(result.self_composition, result.scale)
    documents["observer"] = io.estimator_to_json(result.observer, result.scale)
    documents["detector"] = io.estimator_to_json(result.detector, result.scale)
    out = {name: hashlib.sha256(io.dumps(doc).encode()).hexdigest()
           for name, doc in documents.items()}
    witnesses = result.self_composition.witnesses
    walks = hashlib.sha256()
    for tr in witnesses:
        walks.update(repr((tr, witnesses[tr])).encode())
    out["walks"] = walks.hexdigest()
    return out


@cache
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


AUTOMATA = automata()


@pytest.mark.parametrize("name", list(AUTOMATA))
def test_outputs_match_recorded_digests(name):
    assert digests(AUTOMATA[name]) == recorded()[name]


def test_digest_file_covers_every_automaton():
    assert list(recorded()) == list(AUTOMATA)


# prints the verdict JSON and the first 20 witness pairs of each draw
HASH_SEED_RUN = """
import sys
from wadet import io
from wadet.corpus import load_fixture, random_automaton
from wadet.verify import check_all
draws = [load_fixture(name).automaton for name in ("A0", "A1", "robot")]
draws += [random_automaton(seed, k=1) for seed in range(40)]
draws += [random_automaton(seed, k=2) for seed in range(12)]
for a in draws:
    result = check_all(a, budget=10 ** 5)
    sys.stdout.write(io.dumps({p: v.to_json() for p, v in result.verdicts.items()}))
    witnesses = result.self_composition.witnesses
    for tr in list(witnesses)[:20]:
        print(repr((tr, witnesses[tr])))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    # the silent pass, and with it the k = 1 solver's component order, is
    # rooted at the states in frozenset order, which the hash seed sets
    outputs = [subprocess.run(
        [sys.executable, "-c", HASH_SEED_RUN], capture_output=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}).stdout
        for seed in ("0", "1")]
    assert outputs[0] and outputs[0] == outputs[1]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({name: digests(a) for name, a in AUTOMATA.items()},
                                  indent=1) + "\n")
