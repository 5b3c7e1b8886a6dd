"""One in-process pass of every benchmark workload at seed 1.

``benchmarks/worker.py`` runs a pass in a fresh interpreter and prints one
JSON line; a fault there shows only as a malformed or failed benchmark
run.  This test runs the same steps in-process: draw, build, every
operation, each operation's check, and the ``summary`` the digest covers,
which must serialize to JSON.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import hilbertkunz as hk

SOURCE = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


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
    assert json.loads(json.dumps(rows, sort_keys=True)) == rows
