"""Document-to-verdict benchmark for wadet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed loop in one process: for each generated document it runs
`io.loads` -> `check_all` -> `Verdict.to_json` for all four properties,
which is `wadet check all` without interpreter start-up.  Passes over
the whole draw repeat until the next one would end after S seconds.

--trace 0 prints the end-to-end metrics; --trace 1 runs the stages of
`check_all` one by one under spans (see tracing.py), alternating with
untraced passes, and prints the per-layer metrics and the tracing
overhead.  The last line of output is one JSON object.  The program
must be in src/wadet beside this directory; answers are checked against
workloads.py and replay.py, which do not use wadet.  The run exits 1 if
any document fails.

Times are calibrated: the speed of a shared host drifts by a third
within minutes, for CPU time as much as for wall time.  Between
documents the run times a fixed pure-Python kernel (no wadet code) and
scales each document's wall time by REF_S / (median of the kernel times
right before and after it and the two before those), i.e. reports the
time the document would take where the kernel takes REF_S.  The report
lines also give the raw wall times.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import inspect
import json
import math
import resource
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

import replay
import workloads
from tracing import Tracer, instrumented

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
REF_S = 0.0015  # kernel time on the 2-core sandbox the baseline was taken on
PROPERTIES = ("SD", "SPD", "WD", "WPD")
MODULES = ("io", "model", "selfcomp", "estimator", "verify", "epl", "epset", "corpus")

# spans whose self time is reported as "<span>_ms"
TIMED = ("io.loads", "model.prepare", "selfcomp.build", "selfcomp.check_sd",
         "estimator.observer", "estimator.detector", "estimator.successor_cells",
         "verify.spd", "verify.wd", "verify.wpd", "epl.weight_set",
         "epl.witness_walk", "epl.has_path", "epset.nspan")
# spans whose number is reported as "<span>_calls"
CALLED = ("estimator.successor_cells", "epl.weight_set", "epl.witness_walk",
          "epl.has_path", "epset.nspan")
# counts kept by the tracer or read off the built structures
LAYER_COUNTS = (
    "epl.solvers_built", "epl.weight_set_distinct", "epl.has_path_unknown",
    "selfcomp.sync_queries", "selfcomp.states", "selfcomp.transitions",
    "selfcomp.unknown_queries", "estimator.observer_states",
    "estimator.observer_transitions", "estimator.detector_states",
    "estimator.detector_transitions", "estimator.inexact",
)
# groups whose self time competes for "dominant layer"; "doc" is the
# benchmark's own share (verdict serialization)
GROUPS = ("epset", "doc") + tuple(t for t in TIMED if not t.startswith("epset."))


# ---------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------


def load_wadet() -> SimpleNamespace:
    """Import wadet from src/ of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "wadet" / "__init__.py").is_file():
        raise SystemExit(f"error: no wadet sources in {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    wadet = importlib.import_module("wadet")
    if Path(wadet.__file__).resolve().parent != (src / "wadet").resolve():
        raise SystemExit(f"error: imported wadet from {wadet.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"wadet.{m}") for m in MODULES})


def _kernel():
    """Fixed interpreter work of the kinds wadet does: dicts, frozensets,
    sorting tuples, Fraction arithmetic."""
    acc: dict[int, int] = {}
    seen = set()
    total = Fraction(0)
    for i in range(2500):
        k = (i * 7919) % 101
        acc[k] = acc.get(k, 0) + i
        seen.add(frozenset((k, i % 7)))
        if i % 25 == 0:
            total += Fraction(i, k + 1)
    return sorted(acc.items(), key=lambda kv: (kv[1], kv[0])), total, len(seen)


class Speed:
    """Scales wall time to the reference speed (see the module docstring)."""

    def __init__(self) -> None:
        self.refs: list[float] = []

    def sample(self) -> None:
        gc.disable()  # a collection of the program's garbage is not speed
        t0 = perf_counter()
        _kernel()
        self.refs.append(perf_counter() - t0)
        gc.enable()

    def factor(self) -> float:
        """For the document just timed: kernel times before and after it
        and the two before those."""
        return REF_S / median(self.refs[-4:])


def setup(workload: str, seed: int, n: int | None = None):
    """Import wadet and generate the draw, SETUP_REPEATS times from a
    fresh import; returns the last import, its documents and the median
    calibrated and raw set-up times."""
    speed = Speed()
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "wadet" or m.startswith("wadet.")]:
            del sys.modules[name]
        for _ in range(3):
            speed.sample()
        t0 = perf_counter()
        wadet = load_wadet()
        docs = workloads.generate(workload, seed, wadet, n)
        raw.append(perf_counter() - t0)
        times.append(raw[-1] * speed.factor())
    return wadet, docs, median(times), median(raw)


# ---------------------------------------------------------------------
# one document
# ---------------------------------------------------------------------


def check_doc(wadet, doc):
    """The measured operation: document text to four JSON verdicts."""
    result = wadet.verify.check_all(wadet.io.loads(doc.text))
    return result, {p: v.to_json() for p, v in result.verdicts.items()}


def decided(outputs) -> bool:
    return all(v["status"] in ("HOLDS", "FAILS") for v in outputs.values())


class Checker:
    """Collects failed documents: a raising call, a wrong or unreplayable
    answer, or output that differs between passes of the same document."""

    def __init__(self, docs):
        self.docs = docs
        self.first: list = [None] * len(docs)
        self.problems: dict[int, list[str]] = {}

    def see(self, i: int, result, outputs) -> None:
        if self.first[i] is None:
            self.first[i] = outputs
            if result is None:
                self.problems.setdefault(i, []).append(outputs)
            else:
                bad = replay.check(self.docs[i], result, outputs)
                if bad:
                    self.problems.setdefault(i, []).extend(bad)
        elif outputs != self.first[i]:
            self.problems.setdefault(i, []).append("output differs between passes")

    def report(self) -> None:
        for i, bad in sorted(self.problems.items())[:10]:
            print(f"FAILED {self.docs[i].name}: {'; '.join(bad[:3])}", file=sys.stderr)


def untraced_pass(wadet, docs, checker: Checker, speed: Speed,
                  samples: list | None = None) -> tuple[float, float]:
    """One pass through check_all; returns calibrated and raw seconds and
    appends each document's calibrated time to samples[document]."""
    gc.collect()
    total = raw = 0.0
    speed.sample()
    for i, doc in enumerate(docs):
        t0 = perf_counter()
        try:
            result, outputs = check_doc(wadet, doc)
        except Exception as exc:  # counted as a failed document, never fatal
            result, outputs = None, f"raised {exc!r}"
        dt = perf_counter() - t0
        speed.sample()
        raw += dt
        total += dt * speed.factor()
        if samples is not None:
            samples[i].append(dt * speed.factor())
        checker.see(i, result, outputs)
        del result
    return total, raw


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it
    (nearest rank), and its value."""
    n = len(samples)
    q = max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 100
    ordered = sorted(samples)
    return q, ordered[max(0, math.ceil(q * n / 100) - 1)]


def more_passes(started: float, last_pass: float, seconds: float) -> bool:
    """Would another pass as long as the last one end within the run?"""
    return perf_counter() - started + last_pass <= seconds


# ---------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------


def timed_run(wadet, docs, seconds: float) -> tuple[dict, Checker, list[str]]:
    checker = Checker(docs)
    speed = Speed()
    samples: list[list[float]] = [[] for _ in docs]
    pass_times, raw_times = [], []
    started = perf_counter()
    while not pass_times or more_passes(started, raw_times[-1], seconds):
        calibrated, raw = untraced_pass(wadet, docs, checker, speed, samples)
        pass_times.append(calibrated)
        raw_times.append(raw)
    per_doc = [median(times) for times in samples]
    q, tail_value = tail(per_doc)
    n = len(docs)
    metrics = {
        "check_p50_ms": (1000 * median(per_doc), "ms"),
        "check_tail_ms": (1000 * tail_value, "ms"),
        "instances_per_s": (n / median(pass_times), "1/s"),
        "decided_share": (sum(decided(o) for o in checker.first if isinstance(o, dict)) / n,
                          "share"),
    }
    notes = [f"check_tail_ms is p{q} of {n} samples, one per document: "
             f"the median of its {len(pass_times)} passes",
             f"failed_share {len(checker.problems) / n:.4f} of {n} documents",
             f"raw wall time: {n / median(raw_times):.4f} instances/s; reference "
             f"kernel {1000 * median(speed.refs):.4f} ms against {1000 * REF_S} ms"]
    return metrics, checker, notes


def staged(wadet, tracer: Tracer, doc, budget: int, counts: dict) -> dict:
    """check_all's stages in check_all's order, each under a span."""
    with tracer.span("doc"):
        with tracer.span("io.loads"):
            a = wadet.io.loads(doc.text)
        with tracer.span("model.prepare"):
            prepared, _ = wadet.model.scale_to_integers(wadet.model.normalize(a))
        with tracer.span("selfcomp.build"):
            cc = wadet.selfcomp.build_self_composition(prepared, budget)
        with tracer.span("estimator.observer"):
            observer = wadet.estimator.build_observer(prepared)
        with tracer.span("estimator.detector"):
            detector = wadet.estimator.build_detector(prepared)
        with tracer.span("selfcomp.check_sd"):
            sd = wadet.selfcomp.check_sd(prepared, cc, budget)
        with tracer.span("verify.spd"):
            spd = wadet.verify.check_spd(prepared, detector, observer)
        with tracer.span("verify.wd"):
            wd = wadet.verify.check_wd(prepared, observer)
        with tracer.span("verify.wpd"):
            wpd = wadet.verify.check_wpd(prepared, observer)
        outputs = {p: v.to_json() for p, v in zip(PROPERTIES, (sd, spd, wd, wpd))}
    for name, n in (("selfcomp.sync_queries", cc.stats["epl_queries"]),
                    ("selfcomp.states", len(cc.states)),
                    ("selfcomp.transitions", len(cc.transitions)),
                    ("selfcomp.unknown_queries", len(cc.unknown_queries)),
                    ("estimator.observer_states", len(observer.states)),
                    ("estimator.observer_transitions", len(observer.transitions)),
                    ("estimator.detector_states", len(detector.states)),
                    ("estimator.detector_transitions", len(detector.transitions)),
                    ("estimator.inexact", (not observer.exact) + (not detector.exact)),
                    ("decided", int(decided(outputs)))):
        counts[name] = counts.get(name, 0) + n
    return outputs


def traced_run(wadet, docs, seconds: float, spans_file: Path | None = None):
    """Alternate untraced and traced passes; per-layer figures are medians
    over traced passes, counts must repeat exactly between them."""
    budget = inspect.signature(wadet.verify.check_all).parameters["budget"].default
    checker = Checker(docs)
    speed = Speed()
    tracer = Tracer()
    plain, traced, per_pass, counts_seen = [], [], [], []
    started = perf_counter()
    last = 0.0
    while not traced or more_passes(started, last, seconds):
        round_start = perf_counter()
        plain.append(untraced_pass(wadet, docs, checker, speed)[0])
        first, refs = len(tracer.spans), len(speed.refs)
        tracer.counts = {}
        gc.collect()
        with instrumented(wadet, tracer):
            pass_time = 0.0
            speed.sample()
            for i, doc in enumerate(docs):
                tracer.instance = i
                t0 = perf_counter()
                try:
                    outputs = staged(wadet, tracer, doc, budget, tracer.counts)
                except Exception as exc:  # counted as a failed document
                    outputs = f"raised {exc!r}"
                dt = perf_counter() - t0
                speed.sample()
                pass_time += dt * speed.factor()
                if outputs != checker.first[i]:
                    checker.problems.setdefault(i, []).append(
                        f"staged run disagrees with check_all: {str(outputs)[:200]}")
            traced.append(pass_time)
        last = perf_counter() - round_start
        # span times of this pass, scaled like the pass's documents
        per_pass.append((*tracer.profile(first), REF_S / median(speed.refs[refs:])))
        counts_seen.append(dict(tracer.counts))
    if any(c != counts_seen[0] for c in counts_seen):
        checker.problems.setdefault(0, []).append("traced counts differ between passes")
    if spans_file is not None:
        spans_file.parent.mkdir(exist_ok=True)
        tracer.write(spans_file)

    def ms(names, column=1):
        return median(1000 * f * sum(p[n][column] for n in names if n in p)
                      for p, _, f in per_pass)

    calls = {name: slot[0] for name, slot in per_pass[0][0].items()}
    epset_names = sorted({n for p in per_pass for n in p[0] if n.startswith("epset.")})
    metrics = {f"{span}_ms": (ms((span,)), "ms") for span in TIMED}
    metrics["epset.self_ms"] = (ms(epset_names), "ms")
    metrics["epset.calls"] = (sum(calls.get(n, 0) for n in epset_names), "count")
    for span in CALLED:
        metrics[f"{span}_calls"] = (calls.get(span, 0), "count")
    for name in LAYER_COUNTS:
        metrics[name] = (counts_seen[0].get(name, 0), "count")
    metrics["trace.overhead"] = (median(traced) / median(plain), "ratio")

    group = lambda g: epset_names if g == "epset" else (g,)
    self_ms = {g: ms(group(g)) for g in GROUPS}
    total = sum(self_ms.values())
    top = max(self_ms, key=self_ms.get)
    chains = per_pass[0][1]
    path = max((c for c in chains if c[0] in group(top)), key=chains.get)
    notes = [f"traced passes {len(traced)}, untraced passes {len(plain)}; "
             f"pass {median(traced):.3f} s traced vs {median(plain):.3f} s untraced",
             f"decided_share {counts_seen[0].get('decided', 0) / len(docs):.4f}",
             f"{'layer':30s} {'self ms':>10s} {'self %':>7s} {'inclusive ms':>13s}"]
    notes += [f"{g:30s} {self_ms[g]:10.2f} {100 * self_ms[g] / total:6.1f}% "
              f"{ms(group(g), 2):13.2f}"
              for g in sorted(GROUPS, key=self_ms.get, reverse=True) if self_ms[g]]
    notes.append(f"dominant layer: {top} ({100 * self_ms[top] / total:.1f}% of "
                 f"traced self time), mostly {' <- '.join(path[:-1])}")
    return metrics, checker, notes, counts_seen[0]


# ---------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    wadet, docs, setup_s, setup_raw = setup(args.workload, args.seed)
    if args.trace:
        spans = OUT / f"spans-{args.workload}.jsonl"  # one file per workload
        metrics, checker, notes, _ = traced_run(wadet, docs, args.seconds, spans)
    else:
        metrics, checker, notes = timed_run(wadet, docs, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        notes.append(f"raw wall set-up time {setup_raw:.4f} s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    checker.report()
    print(f"workload {args.workload} seed {args.seed}: {len(docs)} documents")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    for note in notes:
        print(f"  {note}")
    failed = len(checker.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(docs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
