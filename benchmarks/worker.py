"""One pass of one workload in a fresh interpreter; prints one JSON line.

Run by ``run.py``, never on its own in a measurement: each pass needs a
fresh interpreter, because repeats in one process share the package's
module-level caches.  With ``--setup-only`` the worker stops after
set-up; with ``--trace`` it wraps the layer boundaries first.  A
set-up-only worker then times the reference kernels of ``calibrate.py``,
by which ``run.py`` scales the run's times; a pass never runs them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CAL_SAMPLES = 6  # kernel samples after a set-up-only worker's set-up


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import hilbertkunz

    where = Path(hilbertkunz.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise SystemExit(f"hilbertkunz was imported from {where}, not from {ROOT / 'src'}")
    return hilbertkunz


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    t0 = time.perf_counter()
    hk = _import_package()
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    data = workload.draw(args.seed)
    t1 = time.perf_counter()
    ctx = workload.build(hk, data)
    setup_s = import_s + time.perf_counter() - t1
    out = {"setup_s": setup_s}
    if args.setup_only:
        import calibrate  # not before set-up: it imports numpy, which set-up must include

        out["calib"] = calibrate.sample(CAL_SAMPLES)
        print(json.dumps(out))
        return 0

    ops = workload.ops(hk, ctx)
    results, errors, seconds = {}, {}, {}
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            results[op.label] = op.run(results)
        except Exception as exc:  # counted as a failed operation; the pass goes on
            errors[op.label] = f"{type(exc).__name__}: {exc}"
        seconds[op.label] = time.perf_counter() - t
    wall_s = time.perf_counter() - start

    t = time.perf_counter()
    rows = []
    for op in ops:
        if op.label in results:
            try:
                msg = op.check(results[op.label], results)
            except Exception as exc:
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                errors[op.label] = msg
            rows.append([op.label, workloads.summary(results[op.label])])
        else:
            rows.append([op.label, None])
    oracle_s = time.perf_counter() - t

    ladder = {}
    for op in ops:
        if op.ladder_q is not None:
            ladder[op.ladder_q] = ladder.get(op.ladder_q, 0.0) + seconds[op.label]
    top = [op.label for op in ops if op.top_q]
    out.update(
        wall_s=wall_s,
        top_q_s=sum(seconds[label] for label in top),
        ladder={str(q): s for q, s in ladder.items()},
        oracle_s=oracle_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(ops),
        failures=[f"{label}: {msg}" for label, msg in errors.items()],
        digest=hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest(),
        package=hk.__file__,
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
