"""Exact splitting types and slope data over the projective line.

Over R = K[x,y] every syzygy bundle splits as a direct sum of twists
O(-e_1) + ... + O(-e_{n-1}).  The twists are the shifted degrees of the
kernel basis that ``engine.split`` computes for the q-th generator
powers, the same basis the Hilbert-Kunz function is read from.  Pulling
back under Frobenius scales every twist by p, so once the twist multiset
at the larger of two q values is the scaled one at the smaller, the
slope data nu_k = e_j / q with multiplicities r_k can be read off.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from . import engine
from .errors import Frozen, UserError
from .field import prime_base
from .ring import IdealSpec
from .slopes import HNData, ehk_from_hn


def _require_p1(ideal: IdealSpec) -> None:
    if ideal.ring.relation is not None or ideal.ring.nvars != 2:
        raise UserError("splitting types require the free ring in two variables")


class SplittingType(Frozen):
    """Twist multiset of the syzygy bundle of the q-th generator powers."""

    __slots__ = ("q", "twists")  # twists: ascending positive integers, one per syzygy rank

    def __init__(self, q: int, twists):
        super().__init__(q, tuple(sorted(int(e) for e in twists)))


def splitting_type(ideal: IdealSpec, q: int) -> SplittingType:
    """The twists of the q-th generator powers, as ``hk_value`` reads and checks them.

    On P^1 its check is n - 1 twists summing to q * sum(d_i).
    """
    _require_p1(ideal)
    return SplittingType(q=q, twists=engine.hk_value(ideal, q).twists)


def hn_from_splittings(s1: SplittingType, s2: SplittingType, *, n=None) -> HNData | None:
    """Slope data from two splitting types, or None if the second is not the scaled first.

    n defaults to one more than the twist count; degY is 1, the degree
    of O(1) on P^1.
    """
    if s2.q <= s1.q:
        raise UserError("second splitting type must have the larger q")
    p = prime_base(s2.q)
    if s1.q != 1 and prime_base(s1.q) != p:
        raise UserError("q values must differ by a power of the characteristic")
    ratio = s2.q // s1.q
    scaled = tuple(sorted(ratio * e for e in s1.twists))
    if scaled != s2.twists:
        return None
    if n is None:
        n = len(s1.twists) + 1
    steps = [(v, len(list(run))) for v, run in groupby(Fraction(e, s1.q) for e in s1.twists)]
    return HNData(n=n, degY=1, ranks=tuple(r for _, r in steps), nus=tuple(v for v, _ in steps))


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

    Splitting types are tried up to q = p^max_exponent, each with its phi
    from one ``hk_value``; phi is computed at q = 1 too.  The residual
    constant C is estimated from the two smallest q and checked at the
    largest.
    """
    _require_p1(ideal)
    if max_exponent < 1:
        raise UserError(f"max_exponent must be at least 1, got {max_exponent}")
    p = ideal.field.p
    rows = [engine.hk_value(ideal, p)]
    splittings = [SplittingType(q=p, twists=rows[0].twists)]
    hn = None
    for e in range(2, max_exponent + 1):
        rows.append(engine.hk_value(ideal, p**e))
        splittings.append(SplittingType(q=p**e, twists=rows[-1].twists))
        hn = hn_from_splittings(*splittings[-2:], n=ideal.n)
        if hn is not None:
            break
    if hn is None:
        return SplittingReport(
            ideal, splittings, False, None, None, [], None, None, None
        )
    ehk = ehk_from_hn(hn, ideal.degrees)
    phi_rows = [(row.q, row.phi) for row in [engine.hk_value(ideal, 1)] + rows]
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
