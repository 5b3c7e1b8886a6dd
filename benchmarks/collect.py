"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout:

    python3 benchmarks/collect.py --workloads cone_cubic,p1_dense --seeds 1-5
    python3 benchmarks/collect.py --seeds 1-10 --out runs.json
    python3 benchmarks/collect.py --seeds 1 --trace 1

Each run is ``run.py`` with the run length from BENCHMARK.json, one at a
time.  For every metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, which is the spread the metric's bound is judged
against.  ``--out`` writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace)
    result["log"] = lines[:-1]
    return result


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        mine = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            mine.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if not args.trace)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        runs.extend(mine)
        summary[workload] = {}
        for name in mine[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in mine])
            summary[workload][name] = stats
            spread = stats.get("spread")
            bound = bounds.get(name)
            note = "" if spread is None or bound is None else \
                f"  spread {spread:.4f} of bound {bound} ({spread / bound:.0%})"
            print(f"  {workload} {name}: median {stats['median']:.6g}{note}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
