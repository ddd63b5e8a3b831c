"""The benchmark's own tests: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import random

import pytest

import replay
import run
import workloads


@pytest.fixture(scope="module")
def wadet():
    return run.load_wadet()


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_traced_counts_repeat_on_one_seed(wadet, workload):
    docs = workloads.generate(workload, 3, wadet, n=4)
    counts = []
    for _ in range(2):
        metrics, checker, _, seen = run.traced_run(wadet, docs, seconds=0)
        assert not checker.problems
        counts.append(({k: v for k, (v, unit) in metrics.items() if unit == "count"},
                       seen["decided"]))
    assert counts[0] == counts[1]
    assert len(counts[0][0]) == len(run.CALLED) + len(run.LAYER_COUNTS) + 1


def test_subset_sums_match_brute_force():
    rng = random.Random(0)
    for _ in range(50):
        weights = [rng.randint(1, 30) for _ in range(rng.randint(1, 5))]
        brute = {sum(c) for r in range(1, len(weights) + 1)
                 for c in itertools.combinations(weights, r)}
        assert workloads.subset_sums(weights) == brute


def _failing_fanout(wadet):
    doc = next(d for d in workloads.generate("cell-fanout", 5, wadet, n=6)
               if d.expected["SPD"] == "FAILS")
    result, outputs = run.check_doc(wadet, doc)
    return doc, result, outputs


def test_replay_accepts_true_and_rejects_altered_witnesses(wadet):
    doc, result, outputs = _failing_fanout(wadet)
    assert replay.check(doc, result, outputs) == []
    witness = dict(result.verdicts["SPD"].witness)
    aut = replay.Automaton(doc.text, result.scale, None, None)
    shifted = [(s, w + 1) for s, w in witness["access"]]
    assert replay.replay_spd(aut, {**witness, "access": shifted})
    other = json.loads(doc.text)
    other["transitions"][0]["weight"] = ["999"]
    altered = workloads.Doc(doc.name, json.dumps(other), doc.expected)
    assert replay.check(altered, result, outputs)


def test_wrong_expected_answer_is_reported(wadet):
    doc, result, outputs = _failing_fanout(wadet)
    wrong = workloads.Doc(doc.name, doc.text, {**doc.expected, "SD": "HOLDS"})
    assert replay.check(wrong, result, outputs) == ["SD: FAILS, expected HOLDS"]


def test_missing_sources_stop_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit):
        run.load_wadet()


def test_tail_leaves_ten_samples_above():
    samples = [float(i) for i in range(40)]
    q, value = run.tail(samples)
    assert q == 75 and sum(s > value for s in samples) == 10


def test_metric_names_match_benchmark_json(wadet):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    docs = workloads.generate("vector-robot", 1, wadet, n=2)
    timed, _, _ = run.timed_run(wadet, docs, seconds=0)
    timed.update(setup_s=(0.0, "s"), peak_rss_mb=(0.0, "MB"))
    traced, *_ = run.traced_run(wadet, docs, seconds=0)
    for kind, metrics in (("end_to_end", timed), ("per_layer", traced)):
        assert {m["name"]: m["unit"] for m in bench[kind]} == \
            {k: unit for k, (_, unit) in metrics.items()}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GENERATORS)
