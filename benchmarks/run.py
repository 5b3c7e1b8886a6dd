"""Benchmark of the direct and splitting routes of hilbertkunz.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload cone_cubic --seed 1 --seconds 40 --trace 0

Workloads: gf2_monomial, cone_cubic, p1_dense (see workloads.py and
benchmarks/README.md).  The run is a closed loop, one process at a time:
it repeats a block of two set-up-only interpreters and one pass of the
workload until the next block would overrun ``--seconds`` (at least one
pass), then tops set-up up to fifteen samples.  Every set-up and pass is a
fresh interpreter, with the package imported from ``src/`` of this
checkout and BLAS held to one thread.  Byte code goes to a directory of
the run's own in the checkout, filled by one discarded set-up first and
removed at the end.

Times are reported in reference seconds (see ``calibrate.py``): each
measured time is scaled by the reference kernels' time on the reference
machine over their median time in the set-up-only workers of this run,
so that a change in the shared machine's speed does not show as a change
in the package.  The kernels are those of ``SCALE_BY``.  The log lines
before the result give the measured times and the scales.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates plain and traced passes and reports the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0
means the run completed, whatever its checks found; any other code
means no result (for example, the package is not in this checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402  (a file of this benchmark, next to this one)

WORKLOADS = ("gf2_monomial", "cone_cubic", "p1_dense")
SETUP_BURST = 2  # set-up-only interpreters before each pass
SETUP_MIN = 15  # set-ups per run at least, counting the one in each pass
RUN_LIMIT_S = 170  # no pass starts that could run past this
BLAS_THREADS = "1"
# The reference kernels each time is scaled by: set-up is imports, which is
# interpreter work; a pass by the kernels of the work it does most.
# p1_dense's passes stay in measured seconds: no kernel tracked them, and
# scaling by `dense` widened their spread in two of four trials.
SCALE_BY = {
    "setup": ("interp",),
    "gf2_monomial": ("columns",),
    "cone_cubic": ("interp", "dense"),
    "p1_dense": (),
}


def child_env(pycache) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Byte code goes to a cache of this run's own, so no __pycache__ left in
    # the checkout by earlier commands changes what a set-up compiles.
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(workload, seed, pycache, *, trace=False, setup_only=False,
               timeout=RUN_LIMIT_S):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(pycache), capture_output=True,
                          text=True, timeout=max(1.0, timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(pycache) -> dict:
    """The interpreter, numpy and BLAS this run used."""
    probe = (
        "import json, numpy; c = numpy.show_config(mode='dicts');"
        "b = c['Build Dependencies']['blas'];"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': b.get('name'),"
        " 'blas_version': b.get('version'), 'blas_config': b.get('openblas configuration')}))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(pycache), capture_output=True,
                         text=True, timeout=60)
    info = json.loads(out.stdout) if out.returncode == 0 else {}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "blas_threads": int(BLAS_THREADS), **info}


def scale_of(calib, kernels):
    """Reference time of the kernels over their median time in this run."""
    if not kernels:
        return 1.0
    measured = statistics.median(sum(sample[k] for k in kernels) for sample in calib)
    reference = sum(calibrate.REFERENCE_S[k] for k in kernels)
    print(f"kernels {'+'.join(kernels)}: median {measured:.6g} s of {len(calib)} samples,"
          f" reference {reference:.6g} s, scale {reference / measured:.4f}")
    return reference / measured


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def measure(args, pycache):
    """Set-up times, plain passes and traced passes of one run."""
    began = time.perf_counter()
    # Fills the byte-code cache; its set-up time, which includes compiling, is dropped.
    first = run_worker(args.workload, args.seed, pycache, setup_only=True)
    setups, plain, traced = [], [], []
    longest = 0.0  # longest block so far: a burst of set-ups and one pass
    while True:
        elapsed = time.perf_counter() - began
        budget_left = RUN_LIMIT_S - elapsed
        need_more = not plain or (args.trace and not traced)
        if not need_more and (elapsed + longest > args.seconds or longest > budget_left):
            break
        t = time.perf_counter()
        setups += [run_worker(args.workload, args.seed, pycache, setup_only=True)
                   for _ in range(SETUP_BURST)]
        trace_next = bool(args.trace) and len(traced) < len(plain)
        result = run_worker(args.workload, args.seed, pycache, trace=trace_next,
                            timeout=RUN_LIMIT_S - (time.perf_counter() - began))
        (traced if trace_next else plain).append(result)
        longest = max(longest, time.perf_counter() - t)
    setups += plain + traced
    while len(setups) < SETUP_MIN:
        setups.append(run_worker(args.workload, args.seed, pycache, setup_only=True))
    calib = [t for w in [first] + setups for t in w.get("calib", ())]
    return [w["setup_s"] for w in setups], plain, traced, calib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hilbertkunz" / "__init__.py").is_file():
        print(f"no hilbertkunz package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print(f"no reference oracles at {ROOT / 'tests' / 'oracles.py'}", file=sys.stderr)
        return 2

    pycache = Path(tempfile.mkdtemp(prefix=".bench_pycache-", dir=ROOT))
    try:
        setups, plain, traced, calib = measure(args, pycache)
        info = machine(pycache)
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    passes = plain + traced

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = sorted({p["digest"] for p in passes})
    correct = not failures and len(digests) == 1

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} plain"
          f" + {len(traced)} traced  set-ups {len(setups)}")
    setup_scale = scale_of(calib, SCALE_BY["setup"])
    scale = scale_of(calib, SCALE_BY[args.workload])
    print(f"machine {json.dumps(info)}")
    print(f"package {passes[0]['package']}")
    print(f"digest {' '.join(digests)}")
    print(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for line in failures[:20]:
        print(f"  FAIL {line}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        listed = spec["per_layer"]
        # a boundary can turn out broken in one pass only; keep what every pass has
        names = set.intersection(*(set(p["layers"]) for p in traced))
        values = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
        if not values.get("linalg.i64.s"):
            print("linalg.i64.s absent: no input in these workloads reaches the int64 backend")
        for m in listed:
            if m["name"].startswith("ladder.q"):
                q = m["name"][len("ladder.q"):-len("_s")]
                values[m["name"]] = statistics.median(p["ladder"].get(q, 0.0) for p in plain)
        values["oracle.s"] = median_of(plain, "oracle_s")
        missing = sorted({b for p in traced for b in p["missing"]})
        if missing:
            print(f"missing boundaries (their metrics are left out): {', '.join(missing)}")
    else:
        listed = spec["end_to_end"]
        measured = {
            "setup_s": statistics.median(setups),
            "wall_s": median_of(plain, "wall_s"),
            "top_q_s": median_of(plain, "top_q_s"),
        }
        print("measured " + "  ".join(f"{k} {v:.6g} s" for k, v in measured.items()))
        values = {k: v * (setup_scale if k == "setup_s" else scale) for k, v in measured.items()}
        values["peak_rss_mb"] = max(p["peak_rss_mb"] for p in plain)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
