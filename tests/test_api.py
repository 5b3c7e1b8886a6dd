"""The public names stay importable, including every one the benchmark calls.

Both checks only read files: a deletion that would break
``benchmarks/workloads.py`` fails here instead of in a benchmark run.
"""

import re
from pathlib import Path

import hilbertkunz as hk

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def test_all_names_resolve():
    missing = [name for name in hk.__all__ if not hasattr(hk, name)]
    assert not missing


def test_benchmark_names_exist():
    used = set(re.findall(r"\bhk\.([A-Za-z_]\w*)", WORKLOADS.read_text(encoding="utf-8")))
    assert used, "no hk.<name> found in the benchmark workloads"
    assert sorted(name for name in used if not hasattr(hk, name)) == []
