"""Exact splitting types and slope data over the projective line.

Over R = K[x,y] every syzygy bundle splits as a direct sum of twists
O(-e_1) + ... + O(-e_{n-1}).  The twists are the shifted degrees of the
kernel basis that ``engine.split`` computes for the q-th generator
powers, the same basis the Hilbert-Kunz function is read from; they fix
the global-section profile, h0(m) = sum_j (m - e_j + 1)_+.  Pulling back
under Frobenius scales every twist by p, so comparing the twist
multisets at two q values tests whether the slope data has stabilized,
and slope data is checked at q by comparing the twists it predicts,
q*nu_k taken r_k times, with the computed ones.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from . import engine
from .errors import Frozen, InternalError, UserError
from .field import is_prime
from .ring import IdealSpec
from .slopes import HNData, _require_valid, ehk_from_hn


def _require_p1(ideal: IdealSpec) -> None:
    if ideal.ring.relation is not None or ideal.ring.nvars != 2:
        raise UserError("splitting types require the free ring in two variables")


class SplittingType(Frozen):
    """Twist multiset of the syzygy bundle of the q-th generator powers."""

    __slots__ = ("q", "twists")  # twists: ascending positive integers, one per syzygy rank

    def __init__(self, q: int, twists):
        super().__init__(q, tuple(sorted(int(e) for e in twists)))


class NotStabilized(Frozen):
    """Twist multisets at two q values that are not Frobenius-scaled copies."""

    __slots__ = ("first", "second")

    def __init__(self, first: SplittingType, second: SplittingType):
        super().__init__(first, second)

    def __bool__(self):
        return False


def splitting_type(ideal: IdealSpec, q: int) -> SplittingType:
    """The twists of the q-th generator powers, read from their kernel basis."""
    _require_p1(ideal)
    n = ideal.n
    st = SplittingType(q=q, twists=engine.split(ideal.ring, ideal.gens, q).twists)
    if len(st.twists) != n - 1:
        raise InternalError(
            f"found {len(st.twists)} twists, expected {n - 1} (rank of the bundle)"
        )
    if sum(st.twists) != q * sum(ideal.degrees):
        raise InternalError(
            f"twist sum {sum(st.twists)} != q * sum(d_i) = {q * sum(ideal.degrees)}"
        )
    return st


def _root(q: int, e: int) -> int:
    """floor(q^(1/e)) for q >= 1, by integer Newton steps from above."""
    x = 1 << -(-q.bit_length() // e)
    while (y := ((e - 1) * x + q // x ** (e - 1)) // e) < x:
        x = y
    return x


def hn_from_splittings(s1: SplittingType, s2: SplittingType, *, n=None):
    """Slope data from two splitting types, if the second is the scaled first.

    Returns HNData on stabilization, else NotStabilized with both
    multisets.  n defaults to one more than the twist count; degY is 1,
    the degree of O(1) on P^1.
    """
    if s2.q <= s1.q:
        raise UserError("second splitting type must have the larger q")
    # s2.q = p^e for the largest such e: a power of its least prime factor iff p is prime
    p = next(r for e in range(s2.q.bit_length(), 0, -1) if (r := _root(s2.q, e)) ** e == s2.q)
    q = s1.q
    while q > 1 and q % p == 0:
        q //= p
    if q != 1 or not is_prime(p):
        raise UserError("q values must differ by a power of the characteristic")
    ratio = s2.q // s1.q
    scaled = tuple(sorted(ratio * e for e in s1.twists))
    if scaled != s2.twists:
        return NotStabilized(first=s1, second=s2)
    if n is None:
        n = len(s1.twists) + 1
    steps = [(v, len(list(run))) for v, run in groupby(Fraction(e, s1.q) for e in s1.twists)]
    return HNData(n=n, degY=1, ranks=tuple(r for _, r in steps), nus=tuple(v for v, _ in steps))


def _twists_from_hn(hn: HNData, q: int) -> tuple:
    for v in hn.nus:
        if (v * q).denominator != 1:
            raise UserError(f"threshold {v} does not give integer twists at q={q}")
    return tuple(int(v * q) for r, v in zip(hn.ranks, hn.nus) for _ in range(r))


class ProfileReport:
    """Outcome of comparing the computed twists with the predicted ones."""

    def __init__(self, q: int, twists: tuple, mismatches: list | None = None):
        self.q, self.twists = q, twists
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_h0_profile(ideal: IdealSpec, q: int, hn: HNData) -> ProfileReport:
    """Check the twists at q against the split-bundle prediction e_j = q*nu_k.

    On the projective line (genus 0, deg Y = 1) this is the check of h0 in
    every degree, and of the Serre-duality defect:

    * every ideal over K[x,y] takes the kernel route, where
      h0(m) = sum_j (m - e_j + 1)_+ is computed from the twists themselves;
    * h0 over all m determines the twist multiset;
    * ``splitting_type`` enforces n - 1 twists summing to q*sum(d_i); given
      that, for m >= q*max(d_i) - 1 the colength equals
      h1(m) = sum_j (e_j - m - 1)_+ identically, so the duality check adds
      nothing once the multisets agree.
    """
    _require_p1(ideal)
    _require_valid(hn, ideal.degrees)
    twists = _twists_from_hn(hn, q)
    computed = splitting_type(ideal, q).twists
    mismatches = [] if computed == twists else [
        f"computed twists {computed}, slope data predicts {twists}"]
    return ProfileReport(q=q, twists=twists, mismatches=mismatches)


class SplittingReport:
    """End-to-end record: splittings, stabilization, slope data, residual check."""

    def __init__(self, ideal: IdealSpec, splittings: list, stabilized: bool, hn: HNData | None,
                 ehk: Fraction | None, phi_rows: list, residual_bound: Fraction | None,
                 max_residual: Fraction | None, verified_q: int | None):  # phi_rows: (q, phi)
        self.ideal, self.splittings, self.stabilized, self.hn = ideal, splittings, stabilized, hn
        self.ehk, self.phi_rows, self.residual_bound = ehk, phi_rows, residual_bound
        self.max_residual, self.verified_q = max_residual, verified_q


def analyze_ideal(ideal: IdealSpec, *, max_exponent: int = 3) -> SplittingReport:
    """Compute splittings at q = p, p^2, ... until stabilized, then verify.

    Splitting types are tried up to q = p^max_exponent.  phi is computed
    at q = 1 and at every q with a splitting type; the residual constant
    C is estimated from the two smallest q and checked at the largest.
    """
    p = ideal.field.p
    splittings = [splitting_type(ideal, p)]
    hn = None
    for e in range(2, max_exponent + 1):
        nxt = splitting_type(ideal, p**e)
        result = hn_from_splittings(splittings[-1], nxt, n=ideal.n)
        splittings.append(nxt)
        if isinstance(result, HNData):
            hn = result
            break
    if hn is None:
        return SplittingReport(
            ideal, splittings, False, None, None, [], None, None, None
        )
    ehk = ehk_from_hn(hn, ideal.degrees)
    q_values = sorted({1} | {s.q for s in splittings})
    phi_rows = [(q, engine.hk_value(ideal, q).phi) for q in q_values]
    small = phi_rows[:2]
    c_bound = max(Fraction(abs(phi - ehk * q * q), q) for q, phi in small)
    q_big, phi_big = phi_rows[-1]
    residual = Fraction(abs(phi_big - ehk * q_big * q_big), q_big)
    return SplittingReport(
        ideal=ideal,
        splittings=splittings,
        stabilized=True,
        hn=hn,
        ehk=ehk,
        phi_rows=phi_rows,
        residual_bound=c_bound,
        max_residual=residual,
        verified_q=q_big,
    )
