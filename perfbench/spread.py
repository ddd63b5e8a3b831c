"""Run-to-run spread of a workload's metrics across seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]
                                [--trace 0|1] [--out FILE]

Runs run.py once per seed, one after the other, and prints per metric
the median and the interquartile range as a share of the median
(statistics.quantiles with n=4), next to the metric's bound from
BENCHMARK.json.  --out writes the same summary, every run's values and
the report lines of the runs as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    first, last = map(int, args.seeds.split("-"))
    runs, notes = {}, {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
        notes[seed] = [line.strip() for line in lines[1:-1]
                       if line.split()[0] not in result["metrics"]]
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[seed].items()),
              flush=True)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for name in next(iter(runs.values())):
        values = [r[name] for r in runs.values()]
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        mid = median(values)
        summary[name] = {"median": mid, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / mid if mid else None,
                         "unit": specs[name]["unit"], "bound": specs[name].get("bound")}
        spread = summary[name]["spread"]
        print(f"{name:34s} median {mid:12.4f}  spread "
              f"{'-' if spread is None else f'{spread:.4f}':>7s}  bound {specs[name].get('bound')}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seconds": seconds, "trace": args.trace,
            "summary": summary, "runs": runs, "notes": notes}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
