"""Every benchmark workload at seed 1: one pass in-process, one traced worker.

``benchmarks/worker.py`` runs a pass in a fresh interpreter and prints one
JSON line; a fault there shows only as a malformed or failed benchmark
run.  The in-process test runs the same steps: draw, build, every
operation, each operation's check, and the ``summary`` the digest covers,
which must serialize to JSON and hash to the seed-1 digest pinned here:
the same numbers as before, byte for byte.  The traced test runs the worker itself
with ``--trace`` and checks that its layer boundaries still resolve.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbertkunz as hk

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "benchmarks" / "workloads.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", SOURCE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made; the
    # benchmark sources are read without leaving byte-code beside them
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
        module.oracles()
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


workloads = _load_workloads()

# sha256 of json.dumps(rows, sort_keys=True) for the seed-1 pass
DIGESTS = {
    "gf2_monomial": "3a434174ee1985b884980003f7191803a1b0a28fb9ecae060d8ac881bf628648",
    "cone_cubic": "75ce60ab3feaa5269ec65a6fe3b48b8a637e112b4d70a8a8f6798ed840e6fa44",
    "p1_dense": "feaee0c7451c79116a0f31fd83cf65f1bc260cbab05cf94f6af39c6af566d484",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_pass(name):
    workload = workloads.WORKLOADS[name]
    ctx = workload.build(hk, workload.draw(1))
    ops = workload.ops(hk, ctx)
    assert ops
    results, failures, rows = {}, [], []
    for op in ops:
        try:
            results[op.label] = op.run(results)
        except Exception as exc:
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    for op in ops:
        if op.label in results:
            msg = op.check(results[op.label], results)
            if msg:
                failures.append(f"{op.label}: {msg}")
            rows.append([op.label, workloads.summary(results[op.label])])
    assert failures == []
    text = json.dumps(rows, sort_keys=True)
    assert json.loads(text) == rows
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_worker_reports_every_layer(name):
    """A traced worker's last line is a result listing every per-layer metric.

    ``run.py`` adds the ``ladder.*`` and ``oracle.s`` metrics from the
    untraced passes; every other per-layer name must come from the trace.
    No byte code is written, so ``benchmarks/`` is left as it was.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "worker.py"),
         "--workload", name, "--seed", "1", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    traced = {m["name"] for m in SPEC["per_layer"]
              if not m["name"].startswith("ladder.") and m["name"] != "oracle.s"}
    assert sorted(traced - set(result["layers"])) == []
