"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload has three parts, kept apart so the worker can time them
separately:

* ``draw(seed)`` makes the inputs as plain Python data.  It does not use
  the package, so the same seed gives the same inputs on every commit.
* ``build(hk, data)`` constructs the rings and ``IdealSpec`` objects; the
  worker times it as part of set-up (it includes the primarity checks).
* ``ops(hk, ctx)`` lists the operations of one pass.  One operation is
  one (ideal, q) phi, one splitting type, one reconstruction, or one
  ``analyze_ideal`` call.  Each operation carries a check by an
  independent route; checks run after the timed region.

Every call into the package goes through the ``hk`` module object at call
time, so the tracer in ``layers.py`` sees calls made from here too.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Op:
    """One timed operation and the independent check of its result."""

    label: str
    run: Callable  # run(results) -> result; results maps label -> result
    check: Callable  # check(result, results) -> None, or a message on mismatch
    ladder_q: int | None = None  # set on the phi operations of a q ladder
    top_q: bool = False  # counts toward top_q_s


_ORACLES = None


def oracles():
    """The test suite's naive reference module, loaded read-only by path."""
    global _ORACLES
    if _ORACLES is None:
        spec = importlib.util.spec_from_file_location(
            "bench_oracles", ROOT / "tests" / "oracles.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _ORACLES = module
    return _ORACLES


def summary(result):
    """A JSON-ready summary of one result; the digest covers these."""
    if hasattr(result, "phi"):  # HKRow
        return {"phi": result.phi, "cutoff": result.cutoff,
                "per_degree": [result.per_degree[m] for m in sorted(result.per_degree)]}
    if hasattr(result, "twists"):  # SplittingType
        return {"q": result.q, "twists": list(result.twists)}
    if hasattr(result, "stabilized"):  # SplittingReport
        return {"stabilized": result.stabilized,
                "twists": [list(s.twists) for s in result.splittings],
                "ehk": str(result.ehk), "phi": [list(r) for r in result.phi_rows]}
    return str(result)


def _expect(got, want, what):
    return None if got == want else f"{what}: got {got}, expected {want}"


def _unit_gens(rng, p, texts):
    """Each generator times a seeded unit of F_p.

    This leaves the ideal unchanged, so every result must stay the same.
    The order stays fixed: the elimination's cost depends on it (other
    orders of (x, y, z) ran the Fermat cone at q = 125 up to 30% faster).
    """
    return tuple(f"{rng.randint(1, p - 1)}*({t})" for t in texts)


def _ambient_colengths(ideal, q, degrees):
    """Per-degree colengths of I^[q] from the ambient-ring oracle."""
    orc = oracles()
    ring = ideal.ring
    p = ring.field.p
    relation = None if ring.relation is None else ring.relation.terms
    gens = [orc.frobenius_terms(g.terms, q, p) for g in ideal.gens]
    return [orc.ambient_colength(relation, gens, ring.nvars, p, m) for m in degrees]


def _check_against_oracle(ideal, q):
    def check(row, results):
        degrees = sorted(row.per_degree)
        got = [row.per_degree[m] for m in degrees]
        want = _ambient_colengths(ideal, q, degrees)
        if got != want:
            bad = next(m for m, a, b in zip(degrees, got, want) if a != b)
            return f"q={q}, m={bad}: per-degree colengths disagree with the oracle"
        return None

    return check


# -- gf2_monomial ------------------------------------------------------

GF2_LADDER = (2, 4, 8, 16, 32, 64)
# A pass holds seeded ideals whose multiplication maps have, over the
# whole ladder, this many matrix entries (sum of rows x columns over all
# degrees the engine visits), to within GF2_SLACK.  The count is an
# input size computed from the exponents alone, so a pass does the same
# amount of work for every seed and every commit.
GF2_ENTRIES = 280_000_000
GF2_SLACK = 2_000_000
GF2_MAX_DRAWS = 20_000


def _minimal(pairs):
    return sorted(
        (a, b) for a, b in pairs
        if not any((a2, b2) != (a, b) and a2 <= a and b2 <= b for a2, b2 in pairs)
    )


def random_monomial_ideal(rng):
    """Exponent pairs by the law of acceptance criterion 2's generator."""
    pairs = {(rng.randint(1, 6), 0), (0, rng.randint(1, 6))}
    for _ in range(rng.randint(0, 4)):
        pairs.add((rng.randint(0, 6), rng.randint(0, 6)))
    pairs.discard((0, 0))
    return _minimal(pairs)


def map_entries(gens):
    """Sum of rows x columns of the degree maps hk_value builds on the ladder.

    The engine walks m = 0, 1, ... until a run of sum(d_i) zero
    colengths; for a monomial ideal the first zero degree is read off
    the staircase corners.
    """
    degrees = [a + b for a, b in gens]
    run = max(1, sum(degrees))
    total = 0
    for q in GF2_LADDER:
        # gens are sorted by x-exponent, so y-exponents descend
        first_zero = max(q * (gens[t + 1][0] + gens[t][1]) - 1 for t in range(len(gens) - 1))
        for m in range(first_zero + run):
            total += (m + 1) * sum(max(0, m - q * d + 1) for d in degrees)
    return total


def draw_gf2(seed):
    rng = random.Random(seed)
    chosen, total = [], 0
    for _ in range(GF2_MAX_DRAWS):
        if GF2_ENTRIES - total <= GF2_SLACK:
            break
        gens = random_monomial_ideal(rng)
        w = map_entries(gens)
        if total + w <= GF2_ENTRIES:
            chosen.append(gens)
            total += w
    return chosen


def build_gf2(hk, data):
    field = hk.PrimeField(2)
    ring = hk.GradedRing(field, ("x", "y"))
    ideals = [
        hk.IdealSpec(ring, tuple(hk.Poly(field, 2, {e: 1}) for e in gens))
        for gens in data
    ]
    return list(zip(data, ideals))


def ops_gf2(hk, ctx):
    ops = []
    for k, (gens, ideal) in enumerate(ctx):
        mono = hk.MonomialIdeal2.from_pairs(gens)
        for q in GF2_LADDER:
            def check(row, results, mono=mono, q=q, gens=gens):
                return _expect(row.phi, hk.staircase_colength(mono, q), f"{gens} q={q} phi")

            ops.append(Op(f"i{k}.q{q}", lambda r, ideal=ideal, q=q: hk.hk_value(ideal, q),
                          check, ladder_q=q, top_q=q == GF2_LADDER[-1]))
    return ops


# -- cone_cubic --------------------------------------------------------

CONES = (
    # name, p, relation, q ladder, e_HK, pinned phi(q), denominator bound
    ("fermat", 5, "x^3+y^3+z^3", (5, 25, 125), Fraction(9, 4),
     lambda q: (9 * q * q - 5) // 4, 2 * 2 * 3 * 5**3),
    ("cusp", 7, "x^3-y^2*z", (7, 49), Fraction(7, 3),
     lambda q: (7 * q * q - 4) // 3, 2 * 2 * 3 * 7**2),
)


def draw_cone(seed):
    rng = random.Random(seed)
    return [_unit_gens(rng, p, ("x", "y", "z")) for _, p, *_ in CONES]


def build_cone(hk, data):
    ctx = []
    for (name, p, relation, *_), gens in zip(CONES, data):
        field = hk.PrimeField(p)
        names = ("x", "y", "z")
        ring = hk.GradedRing(field, names, relation=hk.parse_poly(relation, names, field))
        ctx.append(hk.IdealSpec(ring, tuple(ring.parse(t) for t in gens)))
    return ctx


def ops_cone(hk, ctx):
    ops = []
    for (name, p, _, ladder, ehk, pin, bound), ideal in zip(CONES, ctx):
        for q in ladder:
            def check(row, results, q=q, pin=pin, ideal=ideal, name=name, smallest=ladder[0]):
                msg = _expect(row.phi, pin(q), f"{name} phi({q})")
                if msg is None and q == smallest:
                    msg = _check_against_oracle(ideal, q)(row, results)
                return msg

            ops.append(Op(f"{name}.q{q}", lambda r, ideal=ideal, q=q: hk.hk_value(ideal, q),
                          check, ladder_q=q, top_q=name == "fermat" and q == ladder[-1]))

        def reconstruct(results, name=name, ladder=ladder, bound=bound, ideal=ideal):
            rows = [(q, results[f"{name}.q{q}"].phi) for q in ladder]
            return hk.estimate_ehk(rows, bound, window_constant=4 * sum(ideal.degrees))[0]

        ops.append(Op(f"{name}.ehk", reconstruct,
                      lambda v, r, ehk=ehk, name=name: _expect(v, ehk, f"{name} e_HK")))
    return ops


# -- p1_dense ----------------------------------------------------------

DENSE = ("x^3+2*y^3", "x*y^2+x^2*y", "y^3-x^3+x*y^2")
DENSE_LADDER = (25, 125)
P1_RANDOM = 4  # seeded dense ideals run through analyze_ideal
P1_CANDIDATES = 64


def random_dense_gens(rng, p):
    """Binary forms by the law of acceptance criterion 3's generator."""
    n = rng.choice((3, 4))
    gens = []
    while len(gens) < n:
        d = rng.randint(1, 4)
        terms = {}
        for a in range(d + 1):
            c = rng.randint(0, p - 1)
            if c:
                terms[(a, d - a)] = c
        if terms:
            gens.append(terms)
    return gens


def draw_p1(seed):
    rng = random.Random(seed)
    dense = _unit_gens(rng, 5, DENSE)
    candidates = [random_dense_gens(rng, 5) for _ in range(P1_CANDIDATES)]
    return dense, candidates


def build_p1(hk, data):
    dense, candidates = data
    field = hk.PrimeField(5)
    ring = hk.GradedRing(field, ("x", "y"))
    ideal = hk.IdealSpec(ring, tuple(ring.parse(t) for t in dense))
    randoms = []
    for terms in candidates:
        if len(randoms) == P1_RANDOM:
            break
        try:
            randoms.append(hk.IdealSpec(ring, tuple(hk.Poly(field, 2, t) for t in terms)))
        except hk.NotPrimaryError:
            continue
    if len(randoms) < P1_RANDOM:
        raise RuntimeError("too few primary candidates for analyze_ideal")
    return ideal, randoms


def _p1_identity(ideal, st):
    """On P^1, colength(m) = (m+1) - sum_i (m - q d_i + 1)_+ + sum_j (m - e_j + 1)_+.

    Compares the twists against per-degree colengths from the oracle.
    """
    q = st.q
    top = q * ideal.max_pair_degree() + 2
    want = _ambient_colengths(ideal, q, range(top))
    for m in range(top):
        got = (m + 1) - sum(max(0, m - q * d + 1) for d in ideal.degrees) \
            + sum(max(0, m - e + 1) for e in st.twists)
        if got != want[m]:
            return f"twists {st.twists} at q={q} predict colength {got} at m={m}, oracle {want[m]}"
    return None


def _check_analysis(hk, ideal):
    def check(report, results):
        msg = _p1_identity(ideal, report.splittings[0])
        if msg or not report.stabilized:
            return msg
        problems = hk.validate(report.hn, ideal.degrees)
        if problems:
            return "invalid slope data: " + "; ".join(problems)
        if report.ehk <= 0:
            return f"nonpositive e_HK {report.ehk}"
        if report.max_residual > report.residual_bound:
            return f"residual {report.max_residual} exceeds {report.residual_bound}"
        for q, phi in report.phi_rows:
            if q <= ideal.field.p:
                want = sum(_ambient_colengths(ideal, q, range(q * ideal.max_pair_degree() + 2)))
                if phi != want:
                    return f"phi({q}) = {phi}, oracle {want}"
        return None

    return check


def ops_p1(hk, ctx):
    ideal, randoms = ctx
    ops = []
    for q in DENSE_LADDER:
        ops.append(Op(f"dense.q{q}", lambda r, q=q: hk.hk_value(ideal, q),
                      lambda row, r, q=q: _expect(row.phi, 7 * q * q, f"phi({q})"),
                      ladder_q=q, top_q=q == DENSE_LADDER[-1]))
        ops.append(Op(f"dense.split{q}", lambda r, q=q: hk.splitting_type(ideal, q),
                      lambda st, r, q=q: _expect(st.twists, (4 * q, 5 * q), f"twists at q={q}")))

    def slope(results):
        s1, s2 = (results[f"dense.split{q}"] for q in DENSE_LADDER)
        hn = hk.hn_from_splittings(s1, s2, n=ideal.n)
        if not isinstance(hn, hk.HNData):
            raise RuntimeError(f"splitting types did not stabilize: {s1.twists}, {s2.twists}")
        return hk.ehk_from_hn(hn, ideal.degrees)

    ops.append(Op("dense.ehk", slope, lambda v, r: _expect(v, 7, "slope formula e_HK")))
    for k, rnd in enumerate(randoms):
        ops.append(Op(f"random{k}", lambda r, rnd=rnd: hk.analyze_ideal(rnd, max_exponent=2),
                      _check_analysis(hk, rnd)))
    return ops


@dataclass(frozen=True)
class Workload:
    draw: Callable
    build: Callable
    ops: Callable


WORKLOADS = {
    "gf2_monomial": Workload(draw_gf2, build_gf2, ops_gf2),
    "cone_cubic": Workload(draw_cone, build_cone, ops_cone),
    "p1_dense": Workload(draw_p1, build_p1, ops_p1),
}
