"""Known-answer corpus: the acceptance checks behind `verify-corpus`.

Each criterion is a standalone function returning a CriterionResult, so
the test suite and the CLI share one implementation.  All randomized
checks use fixed seeds; identical runs produce identical results.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import engine
from .p1 import analyze_ideal
from .poly import Poly, parse_poly
from .reconstruct import AmbiguousReconstruction, estimate_ehk, nu2_from_ehk
from .ring import GradedRing, IdealSpec
from .errors import NotPrimaryError
from .field import PrimeField
from .slopes import (
    HNData,
    add_generator,
    ehk_from_hn,
    ehk_n3,
    ehk_plane_curve,
    ehk_strongly_semistable,
    ehk_t2,
    validate,
)
from .staircase import MonomialIdeal2, staircase_colength


class CriterionResult:
    def __init__(self, number: int, name: str, ok: bool, detail: str, seconds: float,
                 values: dict | None = None):  # values: extras handed to downstream criteria
        self.number, self.name, self.ok, self.detail = number, name, ok, detail
        self.seconds, self.values = seconds, values

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"criterion {self.number} [{verdict}] {self.name}: {self.detail}"


def _timed(number, name, fn) -> CriterionResult:
    t0 = time.monotonic()
    try:
        ok, detail, values = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail, values = False, f"raised {type(exc).__name__}: {exc}", None
    return CriterionResult(number, name, ok, detail, time.monotonic() - t0, values)


def _free_ring(p: int) -> GradedRing:
    return GradedRing(PrimeField(p), ("x", "y"))


def _ideal(ring: GradedRing, gen_texts) -> IdealSpec:
    return IdealSpec(ring, tuple(ring.parse(t) for t in gen_texts))


def criterion_1() -> CriterionResult:
    """phi((x,y), q) = q^2 in the regular ring, both small characteristics."""

    def run():
        checked = 0
        for p, qs in ((2, (2, 4, 8, 16)), (3, (3, 9, 27))):
            ideal = _ideal(_free_ring(p), ("x", "y"))
            for q in qs:
                phi = engine.hk_value(ideal, q).phi
                if phi != q * q:
                    return False, f"p={p}, q={q}: phi={phi} != {q * q}", None
                checked += 1
        return True, f"phi = q^2 at all {checked} prime powers", None

    return _timed(1, "regular-ring exactness", run)


def _random_monomial_ideal(rng: random.Random) -> MonomialIdeal2:
    pairs = {(rng.randint(1, 6), 0), (0, rng.randint(1, 6))}
    for _ in range(rng.randint(0, 4)):
        pairs.add((rng.randint(0, 6), rng.randint(0, 6)))
    pairs.discard((0, 0))
    return MonomialIdeal2.from_pairs(pairs)


def _monomial_gens(ring: GradedRing, ideal: MonomialIdeal2):
    gens = []
    for a, b in ideal.gens:
        gens.append(Poly(ring.field, 2, {(a, b): 1}))
    return tuple(gens)


def criterion_2(trials: int = 50, seed: int = 20260823) -> CriterionResult:
    """Matrix-rank engine against the lattice staircase count, F_2, q <= 64."""

    def run():
        rng = random.Random(seed)
        ring = _free_ring(2)
        checks = 0
        for _ in range(trials):
            mono = _random_monomial_ideal(rng)
            ideal = IdealSpec(ring, _monomial_gens(ring, mono))
            for q in (2, 4, 8, 16, 32, 64):
                phi = engine.hk_value(ideal, q).phi
                expect = staircase_colength(mono, q)
                if phi != expect:
                    return (
                        False,
                        f"{mono} q={q}: engine {phi} != staircase {expect}",
                        None,
                    )
                checks += 1
        return True, f"{trials} ideals, {checks} exact agreements", None

    return _timed(2, "monomial staircase oracle equivalence", run)


def _random_dense_ideal(rng: random.Random, ring: GradedRing):
    p = ring.field.p
    n = rng.choice((3, 4))
    gens = []
    while len(gens) < n:
        d = rng.randint(1, 4)
        terms = {}
        for a in range(d + 1):
            c = rng.randint(0, p - 1)
            if c:
                terms[(a, d - a)] = c
        if not terms:
            continue
        gens.append(Poly(ring.field, 2, terms))
    try:
        return IdealSpec(ring, tuple(gens))
    except NotPrimaryError:
        return None


def criterion_3(random_trials: int = 10, seed: int = 99) -> CriterionResult:
    """End-to-end theorem check on the projective line."""

    def run():
        ring = _free_ring(5)
        fixed = [("x", "y"), ("x^2", "y^2"), ("x^2", "x*y", "y^2"), ("x^3", "x*y^2", "y^3")]
        ideals = [_ideal(ring, texts) for texts in fixed]
        rng = random.Random(seed)
        while len(ideals) < len(fixed) + random_trials:
            ideal = _random_dense_ideal(rng, ring)
            if ideal is not None:
                ideals.append(ideal)
        exact_report = None
        for k, ideal in enumerate(ideals):
            report = analyze_ideal(ideal, max_exponent=3)
            if k == 3:
                exact_report = report
            if not report.stabilized:
                return False, f"{ideal}: splitting type did not stabilize by e=3", None
            problems = validate(report.hn, ideal.degrees)
            if problems:
                return False, f"{ideal}: invalid slope data: {'; '.join(problems)}", None
            if report.ehk <= 0:
                return False, f"{ideal}: nonpositive multiplicity {report.ehk}", None
            if report.max_residual > report.residual_bound:
                return (
                    False,
                    f"{ideal}: residual {report.max_residual} at q={report.verified_q} "
                    f"exceeds the bound {report.residual_bound}",
                    None,
                )
        # the sharpest known-answer entry: exact values for (x^3, xy^2, y^3)
        report = exact_report
        hn = report.hn
        if hn.nus != (Fraction(4), Fraction(5)) or hn.ranks != (1, 1):
            return False, f"(x^3,xy^2,y^3): slope data {hn} != nu=(4,5), r=(1,1)", None
        if report.ehk != 7:
            return False, f"(x^3,xy^2,y^3): e_HK = {report.ehk} != 7", None
        for q, phi in report.phi_rows:
            if phi != 7 * q * q:
                return False, f"(x^3,xy^2,y^3): phi({q}) = {phi} != 7q^2", None
        return (
            True,
            f"{len(ideals)} ideals stabilized with valid slopes and bounded residuals; "
            "(x^3,xy^2,y^3) exact with e_HK=7",
            None,
        )

    return _timed(3, "projective-line end-to-end theorem check", run)


def _plane_cubic_reconstruction(p, relation_text, q_list, bound, escalate_q=None):
    field = PrimeField(p)
    names = ("x", "y", "z")
    ring = GradedRing(field, names, relation=parse_poly(relation_text, names, field))
    ideal = _ideal(ring, names)
    window_constant = 4 * sum(ideal.degrees)
    rows = [(q, engine.hk_value(ideal, q).phi) for q in q_list]
    try:
        return estimate_ehk(rows, bound, window_constant=window_constant)
    except AmbiguousReconstruction:
        if escalate_q is None:
            raise
        rows.append((escalate_q, engine.hk_value(ideal, escalate_q).phi))
        return estimate_ehk(rows, bound, window_constant=window_constant)


def criterion_4() -> CriterionResult:
    """Smooth plane cubic over F_5 reconstructs 9/4."""

    def run():
        value, report = _plane_cubic_reconstruction(
            5, "x^3+y^3+z^3", (5, 25, 125), 2 * 2 * 3 * 5**3
        )
        ok = value == Fraction(9, 4)
        return ok, f"reconstructed {value} from q={report.q_pair}", {"ehk": value, "h": 3}

    return _timed(4, "smooth plane cubic multiplicity 9/4", run)


def criterion_5() -> CriterionResult:
    """Cuspidal plane cubic over F_7 reconstructs 7/3 (escalating if needed)."""

    def run():
        value, report = _plane_cubic_reconstruction(
            7, "x^3-y^2*z", (7, 49), 2 * 2 * 3 * 7**2, escalate_q=343
        )
        ok = value == Fraction(7, 3)
        return ok, f"reconstructed {value} from q={report.q_pair}", {"ehk": value, "h": 3}

    return _timed(5, "singular plane cubic multiplicity 7/3", run)


def _random_hn(rng: random.Random):
    """A random valid slope datum together with matching generator degrees."""
    n = rng.randint(2, 6)
    t = rng.randint(1, min(3, n - 1))
    # split n-1 into t positive ranks
    cuts = sorted(rng.sample(range(1, n - 1), t - 1)) if t > 1 else []
    ranks = []
    prev = 0
    for c in cuts + [n - 1]:
        ranks.append(c - prev)
        prev = c
    degY = rng.randint(1, 4)
    degrees = tuple(rng.randint(1, 5) for _ in range(n))
    lo, hi = min(degrees), sum(sorted(degrees)[-2:])
    total = sum(degrees)
    denom = rng.randint(t, 6)  # lattice must offer at least t distinct values
    for _ in range(200):
        nus = sorted(
            rng.sample(
                [Fraction(k, denom) for k in range(lo * denom, hi * denom + 1)], t
            )
        )
        # adjust the last threshold so the weighted sum matches sum(degrees)
        partial = sum(r * v for r, v in zip(ranks[:-1], nus[:-1]))
        last = Fraction(total - partial, ranks[-1])
        nus[-1] = last
        hn = HNData(n=n, degY=degY, ranks=tuple(ranks), nus=tuple(nus))
        if not validate(hn, degrees):
            return hn, degrees
    return None, degrees


def criterion_6(samples: int = 1000, seed: int = 7) -> CriterionResult:
    """Pure-rational formula layer: pinned values and cross-agreements."""

    def run():
        # pinned values
        pins = []
        pins.append((ehk_from_hn(HNData(3, 3, (2,), (Fraction(3, 2),)), (1, 1, 1)), Fraction(9, 4)))
        pins.append(
            (
                ehk_from_hn(
                    HNData(3, 3, (1, 1), (Fraction(4, 3), Fraction(5, 3))), (1, 1, 1)
                ),
                Fraction(7, 3),
            )
        )
        for h in (1, 2, 5):
            pins.append((ehk_from_hn(HNData(3, h, (1, 1), (4, 5)), (3, 3, 3)), 7 * h))
            pins.append((ehk_plane_curve(h, Fraction(3, 2)), Fraction(3 * h, 4)))
            pins.append((ehk_n3(5, (3, 3, 3), h), 7 * h))
            pins.append((ehk_t2(1, 5, (3, 3, 3), h), 7 * h))
        for N in (2, 3, 4):
            for degY in (1, 2, 3):
                pins.append(
                    (
                        ehk_strongly_semistable((1,) * (N + 1), degY),
                        Fraction(degY * (N + 1), 2 * N),
                    )
                )
        for got, want in pins:
            if got != Fraction(want):
                return False, f"pinned value mismatch: {got} != {want}", None

        rng = random.Random(seed)
        agreements = 0
        merges = 0
        for _ in range(samples):
            hn, degrees = _random_hn(rng)
            if hn is None:
                continue
            # positivity is not checked here: abstract slope data satisfying
            # the numeric invariants can still have negative formula value;
            # only data coming from an actual ideal is guaranteed positive
            base = ehk_from_hn(hn, degrees)
            # corollary agreement on matching shapes
            if hn.t == 1:
                if hn.nus[0] * hn.ranks[0] == sum(degrees):
                    semi = ehk_strongly_semistable(degrees, hn.degY)
                    if hn.nus[0] == Fraction(sum(degrees), hn.n - 1) and semi != base:
                        return False, f"semistable formula disagrees on {hn}", None
            if hn.t == 2:
                if ehk_t2(hn.ranks[1], hn.nus[1], degrees, hn.degY) != base:
                    return False, f"t=2 formula disagrees on {hn}", None
                if hn.n == 3 and ehk_n3(hn.nus[1], degrees, hn.degY) != base:
                    return False, f"n=3 formula disagrees on {hn}", None
            # generator invariance, biased toward merges with existing thresholds
            if rng.random() < 0.5 and hn.nus[-1].denominator == 1:
                e = int(hn.nus[rng.randrange(hn.t)]) or min(degrees)
            else:
                e = rng.randint(min(degrees), max(degrees) + 2)
            if e < min(degrees):
                e = min(degrees)
            ev = Fraction(e)
            if ev in hn.nus:
                merges += 1
            new_hn, new_degrees = add_generator(hn, degrees, e)
            if ehk_from_hn(new_hn, new_degrees) != base:
                return False, f"add_generator changed e_HK on {hn} with e={e}", None
            agreements += 1
        if agreements < samples // 2:
            return False, f"only {agreements} valid random samples generated", None
        if merges == 0:
            return False, "no merge case exercised in add_generator sampling", None
        return (
            True,
            f"{len(pins)} pinned values, {agreements} random agreements ({merges} merges)",
            None,
        )

    return _timed(6, "formula-layer identities", run)


def criterion_7(plane_values) -> CriterionResult:
    """Plane-curve bounds for the multiplicities reconstructed in 4 and 5."""

    def run():
        if not plane_values:
            return False, "no reconstructed plane-curve values supplied", None
        details = []
        for h, ehk in plane_values:
            if not (Fraction(3 * h, 4) <= ehk <= h):
                return False, f"e_HK = {ehk} outside [3h/4, h] for h={h}", None
            nu2 = nu2_from_ehk(h, ehk)
            if isinstance(nu2, Fraction):
                in_range = Fraction(3, 2) <= nu2 <= 2
            else:
                # (3 + sqrt(D))/2 lies in [3/2, 2] exactly when 0 <= D <= 1
                in_range = 0 <= nu2.disc <= 1
            if not in_range:
                return False, f"nu_2 = {nu2} outside [3/2, 2] for e_HK = {ehk}", None
            details.append(f"e_HK={ehk} -> nu_2={nu2}")
        return True, "; ".join(details), None

    return _timed(7, "plane-curve range bounds", run)


def criterion_8(readme_path=None) -> CriterionResult:
    """Out-of-scope values are documented, not tested."""

    def run():
        import os

        if readme_path is None:
            here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
            path = os.path.join(here, "README.md")
        else:
            path = readme_path
        if not os.path.exists(path):
            return False, f"README not found at {path}", None
        with open(path, encoding="utf-8") as fh:
            text = fh.read().lower()
        needed = ["brieskorn", "quotient singularit"]
        missing = [w for w in needed if w not in text]
        if missing:
            return False, f"README lacks scope documentation for: {', '.join(missing)}", None
        return True, "out-of-scope ring classes documented in README", None

    return _timed(8, "scope limitations documented", run)


def run_all(readme_path=None) -> list:
    """Run criteria 1-8 in order; criterion 7 consumes the outputs of 4 and 5."""
    results = [criterion_1(), criterion_2(), criterion_3()]
    r4 = criterion_4()
    r5 = criterion_5()
    results.extend([r4, r5, criterion_6()])
    plane_values = []
    for r in (r4, r5):
        if r.values and "ehk" in r.values:
            plane_values.append((r.values["h"], r.values["ehk"]))
    results.append(criterion_7(plane_values))
    results.append(criterion_8(readme_path))
    return results
