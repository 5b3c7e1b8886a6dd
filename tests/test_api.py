"""The public names stay importable, including every one the benchmark calls.

These checks only read: a deletion that would break
``benchmarks/workloads.py`` fails here instead of in a benchmark run, and
no module keeps hidden cross-call state in a ``functools`` cache.  The
package runs on the standard library alone, so importing it and computing
loads no numpy.  The record classes are plain code: importing the package
or its CLI loads neither ``dataclasses`` nor ``inspect`` nor ``typing``, the
value types keep the equality, hash, repr and immutability of frozen
dataclasses, and the ``gc.freeze()`` that ends the import leaves the
collector working.
"""

import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hilbertkunz as hk
from hilbertkunz.corpus import CriterionResult
from hilbertkunz.p1 import ProfileReport, SplittingReport
from hilbertkunz.reconstruct import ReconstructionReport

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

# site may already have imported typing (a .pth file can), so look at what the import adds
IMPORT_ADDS = """
import sys
before = set(sys.modules)
import {module}
print(sorted({{"dataclasses", "inspect", "typing"}} & (set(sys.modules) - before)))
"""

GC_AFTER_IMPORT = """
import gc, weakref
state = gc.isenabled(), gc.get_threshold()
import hilbertkunz
assert (gc.isenabled(), gc.get_threshold()) == state, (gc.isenabled(), gc.get_threshold())
class Node:
    pass
gone = []
a, b = Node(), Node()
a.other, b.other = b, a
ref = weakref.ref(a, gone.append)
del a, b
assert ref() is not None and gone == [], "a cycle was freed without a collection"
gc.collect()
assert ref() is None and gone == [ref], "the cycle survived gc.collect()"
"""

SPLIT = hk.SplittingType(q=5, twists=[10, 5.0])
VALUES = {
    "SplittingType(q=5, twists=(5, 10))": SPLIT,
    "NotStabilized(first=SplittingType(q=5, twists=(5, 10)), "
    "second=SplittingType(q=25, twists=(20, 30)))":
        hk.NotStabilized(first=SPLIT, second=hk.SplittingType(q=25, twists=(30, 20))),
    "HNData(n=3, degY=1, ranks=(1, 1), nus=(Fraction(4, 1), Fraction(9, 2)))":
        hk.HNData(n=3, degY=1, ranks=(1.0, "1"), nus=[4, "9/2"]),
    "MonomialIdeal2(gens=((0, 2), (1, 1), (3, 0)))":
        hk.MonomialIdeal2.from_pairs([(3, 0), (1, 1), (0, 2), (1, 2)]),
    "QuadraticIrrational(disc=Fraction(5, 3))": hk.QuadraticIrrational(disc=Fraction(5, 3)),
}


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


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
    proc = _run(NO_NUMPY)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["hilbertkunz", "hilbertkunz.cli"])
def test_import_loads_no_class_generators(module):
    proc = _run(IMPORT_ADDS.format(module=module))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_collector_works_after_import():
    proc = _run(GC_AFTER_IMPORT)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("text", sorted(VALUES))
def test_value_type_contract(text):
    value = VALUES[text]
    assert repr(value) == text
    twin = eval(text, {**vars(hk), "Fraction": Fraction})  # keyword construction
    assert twin == value and hash(twin) == hash(value)
    assert twin is not value and len({value, twin}) == 1
    assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))
    name = text[text.index("(") + 1:text.index("=")]  # the first field
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1
    assert repr(value) == text


def test_value_types_differ_by_field_and_class():
    assert hk.PrimeField(5) != hk.QuadraticIrrational(5)
    assert hk.QuadraticIrrational(5) != hk.PrimeField(5)
    assert hk.SplittingType(5, (5, 10)) != (5, (5, 10))
    assert hk.SplittingType(5, (5, 10)) != hk.SplittingType(5, (5, 15))
    assert hk.SplittingType(5, (5, 10)) != hk.SplittingType(25, (5, 10))
    assert hk.HNData(3, 1, (2,), (Fraction(9, 2),)) != hk.HNData(3, 2, (2,), (Fraction(9, 2),))


def test_value_types_normalise():
    st = VALUES["SplittingType(q=5, twists=(5, 10))"]
    assert st.twists == (5, 10) and all(type(e) is int for e in st.twists)
    hn = hk.HNData(n=3, degY=1, ranks=[True, 1.0], nus=(4, "9/2"))
    assert hn.ranks == (1, 1) and all(type(r) is int for r in hn.ranks)
    assert hn.nus == (4, Fraction(9, 2)) and all(type(v) is Fraction for v in hn.nus)
    stalled = hk.NotStabilized(st, st)
    assert not stalled and bool(stalled) is False


def test_mutable_records_construct_like_before():
    row = hk.HKRow(q=5, phi=55, cutoff=9)
    assert row.per_degree == {} and hk.HKRow(5, 55, 9).per_degree is not row.per_degree
    row.phi = 56
    assert (row.q, row.phi, row.cutoff) == (5, 56, 9)
    assert ProfileReport(q=5, twists=(5,)).mismatches == []
    assert ProfileReport(5, (5,)).mismatches is not ProfileReport(5, (5,)).mismatches
    assert CriterionResult(1, "name", True, "detail", 0.5).values is None
    assert ReconstructionReport(1, 1, 2, 1, (2, 4), {}).q_pair == (2, 4)
    report = SplittingReport(None, [], False, None, None, [], None, None, None)
    assert not report.stabilized and report.verified_q is None
    ring = hk.GradedRing(hk.PrimeField(2), ("x", "y"))
    ideal = hk.IdealSpec(ring=ring, gens=(ring.parse("x^2"), ring.parse("y")))
    assert repr(ideal) == "(x^2, y) in F_2[x,y]"
    assert (ideal.degrees, ideal.primarity_degree) == ((2, 1), 2)
