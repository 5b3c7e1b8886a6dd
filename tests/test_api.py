"""The public names stay importable, including every one the benchmark calls.

These checks only read: a deletion that would break
``benchmarks/workloads.py`` fails here instead of in a benchmark run, and
no module keeps hidden cross-call state in a ``functools`` cache.
"""

import importlib
import pkgutil
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


def test_no_module_level_cache():
    cached = []
    for info in pkgutil.iter_modules(hk.__path__, "hilbertkunz."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else ()
            for label, value in [(name, obj), *((f"{name}.{k}", v) for k, v in members)]:
                if hasattr(value, "cache_info"):
                    cached.append(f"{info.name}.{label}")
    assert cached == []
