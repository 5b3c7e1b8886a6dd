"""The public names stay importable, including every one the benchmark calls.

These checks only read: a deletion that would break
``benchmarks/workloads.py`` fails here instead of in a benchmark run, and
no module keeps hidden cross-call state in a ``functools`` cache.  The
package runs on the standard library alone, so importing it and computing
loads no numpy.
"""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import hilbertkunz as hk

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "benchmarks" / "workloads.py"

NO_NUMPY = """
import sys
import hilbertkunz as hk
F = hk.PrimeField(5)
names = ("x", "y", "z")
cone = hk.GradedRing(F, names, hk.parse_poly("x^3+y^3+z^3", names, F))
plane = hk.GradedRing(F, ("x", "y"))
assert hk.hk_value(hk.IdealSpec(cone, tuple(cone.parse(v) for v in names)), 5).phi == 55
assert hk.hk_value(hk.IdealSpec(plane, (plane.parse("x^2"), plane.parse("y^3"))), 5).phi == 150
assert "numpy" not in sys.modules, "numpy was imported"
"""


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


def test_package_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
