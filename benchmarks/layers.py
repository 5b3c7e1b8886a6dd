"""Per-layer tracing from outside the package.

The tracer wraps the package's layer boundaries by name: it replaces a
function or method with a wrapper that records a span (start, end, and
the time of the spans it encloses) and, for some boundaries, a count.
A layer's self time is the sum of its spans minus the spans they
enclose; the wrappers' own time is kept apart as ``trace_overhead_s``.
Nothing in ``src/`` is changed.  A boundary that no longer exists, or
whose arguments or result no longer have the fields read here, is
reported as missing, and the metrics it fed are left out.

Layers are the package's modules.  ``poly`` and ``field`` are folded
into their callers, and ``slopes`` and ``staircase`` into ``p1``,
``reconstruct`` and the benchmark's own checks.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import import_module
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    layer: str | Callable  # layer name, or layer(self_or_first_arg) -> name
    module: str
    qualname: str
    feeds: tuple  # metric names this boundary feeds
    count: Callable | None = None  # count(tracer, args, result) after each call or item
    hit: str | None = None  # cache attribute: a hit when the first argument is a key
    generator: bool = False  # time each step of the returned iterator


def _count_columns(tracer, args, result):
    tracer.counts["engine.columns"] += result.shape[1]


def _count_column(tracer, args, column):
    tracer.counts["engine.columns"] += 1


def _count_piece(tracer, args, piece):
    tracer.counts["engine.pieces"] += 1
    tracer.counts["engine.dim_target_sum"] += piece.dim_target
    tracer.counts["engine.dim_source_sum"] += piece.dim_source
    tracer.counts["linalg.rank_sum"] += piece.rank


def _absorb_layer(builder):
    return "linalg.f64" if builder._float_ok else "linalg.i64"


_BASIS = ("ring.basis.s", "ring.basis.calls", "ring.basis.hit_ratio")
_PIECES = ("engine.pieces", "engine.dim_target_sum", "engine.dim_source_sum", "linalg.rank_sum")
_ASSEMBLE = ("engine.assemble.s",)
_LOOP = ("engine.loop.s",)
_P1 = ("p1.s",)

BOUNDARIES = (
    Boundary("ring.basis", "hilbertkunz.ring", "GradedRing.basis", _BASIS, hit="_basis_cache"),
    Boundary("ring.basis", "hilbertkunz.ring", "GradedRing.basis_index", _BASIS, hit="_index_cache"),
    Boundary("ring.reduce", "hilbertkunz.ring", "GradedRing.reduce_terms",
             ("ring.reduce.s", "ring.reduce.calls")),
    Boundary("ring.frobenius", "hilbertkunz.engine", "frobenius_power_gens", ("ring.frobenius.s",)),
    Boundary("ring.frobenius", "hilbertkunz.ring", "GradedRing.pow_reduced", ("ring.frobenius.s",)),
    Boundary("ring.primarity", "hilbertkunz.ring", "first_vanishing_degree", ("ring.primarity.s",)),
    Boundary("engine.assemble", "hilbertkunz.engine", "_free2_block",
             _ASSEMBLE + ("engine.columns",), count=_count_columns),
    Boundary("engine.assemble", "hilbertkunz.engine", "_generic_columns",
             _ASSEMBLE + ("engine.columns",), count=_count_column, generator=True),
    Boundary("engine.assemble", "hilbertkunz.linalg", "RankBuilder.add_column", _ASSEMBLE),
    Boundary("engine.assemble", "hilbertkunz.linalg", "RankBuilder.add_columns", _ASSEMBLE),
    Boundary("engine.assemble", "hilbertkunz.linalg", "RankBuilder._flush", _ASSEMBLE),
    Boundary("engine.loop", "hilbertkunz.engine", "hk_value", _LOOP),
    Boundary("engine.loop", "hilbertkunz.engine", "_degree_piece", _LOOP + _PIECES,
             count=_count_piece),
    Boundary("engine.loop", "hilbertkunz.engine", "colength_of_generators", _LOOP),
    Boundary("linalg.gf2", "hilbertkunz.linalg", "RankBuilder._add_bits", ("linalg.gf2.s",)),
    Boundary(_absorb_layer, "hilbertkunz.linalg", "RankBuilder._absorb",
             ("linalg.f64.s", "linalg.i64.s")),
    Boundary("p1", "hilbertkunz.p1", "splitting_type", _P1),
    Boundary("p1", "hilbertkunz.p1", "hn_from_splittings", _P1),
    Boundary("p1", "hilbertkunz.p1", "verify_h0_profile", _P1),
    Boundary("p1", "hilbertkunz.p1", "analyze_ideal", _P1),
    Boundary("reconstruct", "hilbertkunz.reconstruct", "estimate_ehk", ("reconstruct.s",)),
)

# Reported as the span's whole duration rather than its self time: the
# primarity check is a phase of set-up, and its inner work is also
# counted in the engine and linalg layers.
INCLUSIVE = {"ring.primarity"}


class Tracer:
    """Spans kept in memory as per-layer totals; read out with ``metrics``.

    Each wrapper reads the clock on entry, just around the wrapped call,
    and on exit.  The call's span (inner readings) minus the spans it
    encloses is the layer's self time.  The parent is told the whole
    entry-to-exit time as enclosed, so the wrapper's own bookkeeping is
    charged to nobody's layer; it is summed in ``overhead_s`` instead.
    What the clock cannot see, the cost of entering and leaving the
    wrapper and of the clock reads inside the span, is measured once by
    ``calibrate`` and moved from the layers to ``overhead_s`` per call.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.overhead_s = 0.0
        self.calls = Counter()
        self.hits = Counter()
        self.counts = Counter()
        self.present = {"trace_overhead_s"}  # metric names fed by a resolved boundary
        self.missing = []  # boundaries that could not be resolved or read
        self._enclosed = []  # per open span: time covered by its child spans
        self._inside = 0.0  # per call: wrapper time inside the span start..end
        self._outside = 0.0  # per call: wrapper time before entered and after left

    def _leave(self, layer, entered, start, end):
        """Close the span start..end of a wrapper entered at ``entered``."""
        span = end - start
        enclosed = self._enclosed.pop()
        self.self_s[layer] += span - enclosed - self._inside
        self.inclusive_s[layer] += span - self._inside
        left = time.perf_counter()
        self.overhead_s += left - entered - span + self._inside + self._outside
        if self._enclosed:
            self._enclosed[-1] += left - entered + self._outside

    def calibrate(self, n=20_000, rounds=5):
        """Measure the per-call wrapper time the clock reads do not bracket.

        A loop calling a wrapped no-op is compared with one calling a bare
        no-op: the extra self time of the loop is what each call leaves in
        its caller, and the no-op's own self time (less a bare call) is
        what it leaves in its callee.  Medians over a few rounds.
        """
        def noop():
            return None

        probe = Boundary("calibrate.callee", "", "noop", ())
        traced = self.wrap(probe, noop)

        def calls(fn):
            for _ in range(n):
                fn()

        loop = self.wrap(Boundary("calibrate.caller", "", "calls", ()), calls)
        inside, outside = [], []
        for _ in range(rounds):
            t = time.perf_counter()
            calls(noop)
            bare = (time.perf_counter() - t) / n
            for layer in ("calibrate.caller", "calibrate.callee"):
                self.self_s[layer] = 0.0
            loop(traced)
            inside.append(self.self_s["calibrate.callee"] / n - bare)
            outside.append(self.self_s["calibrate.caller"] / n - bare)
        self._inside = max(0.0, statistics.median(inside))
        self._outside = max(0.0, statistics.median(outside))
        for table in (self.self_s, self.inclusive_s, self.calls):
            for layer in ("calibrate.caller", "calibrate.callee"):
                table.pop(layer, None)
        self.overhead_s = 0.0

    def _broken(self, b: Boundary):
        """A boundary whose arguments or result no longer read as expected."""
        name = f"{b.module}:{b.qualname}"
        if name not in self.missing:
            self.missing.append(name)
        self.present.difference_update(b.feeds)

    def _before(self, b: Boundary, args):
        """The call's layer, after counting the call (and the cache hit)."""
        try:
            layer = b.layer(args[0]) if callable(b.layer) else b.layer
            self.calls[layer] += 1
            if b.hit is not None and len(args) > 1 and args[1] in getattr(args[0], b.hit):
                self.hits[layer] += 1
            return layer
        except (AttributeError, TypeError, IndexError):
            self._broken(b)
            return None

    def _count(self, b: Boundary, args, result):
        try:
            b.count(self, args, result)
        except (AttributeError, TypeError):
            self._broken(b)

    def wrap(self, b: Boundary, fn):
        tracer = self
        clock = time.perf_counter

        if b.generator:
            def wrapper(*args, **kwargs):
                layer = tracer._before(b, args)
                it = fn(*args, **kwargs)
                while True:
                    tracer._enclosed.append(0.0)
                    entered = start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._leave(layer, entered, start, clock())
                        return
                    except BaseException:
                        tracer._leave(layer, entered, start, clock())
                        raise
                    end = clock()
                    if b.count is not None:
                        tracer._count(b, args, item)
                    tracer._leave(layer, entered, start, end)
                    yield item
            return wrapper

        def wrapper(*args, **kwargs):
            tracer._enclosed.append(0.0)
            entered = clock()
            layer = tracer._before(b, args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._leave(layer, entered, start, clock())
                raise
            end = clock()
            if b.count is not None:
                tracer._count(b, args, result)
            tracer._leave(layer, entered, start, end)
            return result
        return wrapper

    def install(self):
        """Wrap every boundary that exists; remember the ones that do not."""
        self.calibrate()
        for b in BOUNDARIES:
            try:
                owner = import_module(b.module)
                *path, name = b.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{b.module}:{b.qualname}")
                continue
            wrapped = self.wrap(b, original)
            setattr(owner, name, wrapped)
            if not path:
                # names re-exported elsewhere in the package, e.g. hilbertkunz.hk_value
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "hilbertkunz" and getattr(mod, name, None) is original:
                        setattr(mod, name, wrapped)
            self.present.update(b.feeds)

    def metrics(self) -> dict:
        """Per-layer values by metric name; metrics of missing boundaries are left out."""
        basis_calls = self.calls["ring.basis"]
        values = {
            "ring.basis.calls": basis_calls,
            "ring.basis.hit_ratio": self.hits["ring.basis"] / basis_calls if basis_calls else 0.0,
            "ring.reduce.calls": self.calls["ring.reduce"],
            "trace_overhead_s": self.overhead_s,
        }
        for layer in ("ring.basis", "ring.reduce", "ring.frobenius", "ring.primarity",
                      "engine.assemble", "engine.loop", "linalg.gf2", "linalg.f64",
                      "linalg.i64", "p1", "reconstruct"):
            source = self.inclusive_s if layer in INCLUSIVE else self.self_s
            values[f"{layer}.s"] = source[layer]
        for name in ("engine.columns", "engine.pieces", "engine.dim_target_sum",
                     "engine.dim_source_sum", "linalg.rank_sum"):
            values[name] = self.counts[name]
        return {k: v for k, v in values.items() if k in self.present}
