"""Closed-form multiplicity formulas from slope data of the syzygy bundle.

All arithmetic is exact rational; no floating point enters this module.
Slope data is carried in threshold form: nu_k = -mubar_k / deg(Y), so
the multiplicity formula reads

    e_HK = (deg(Y) / 2) * (sum_k r_k nu_k^2 - sum_i d_i^2).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Frozen, InternalError, UserError


class HNData(Frozen):
    """Strong slope summary of a syzygy bundle: ranks r_k and thresholds nu_k.

    n is the number of ideal generators, degY the degree of O_Y(1).
    The raw normalized slope mubar_k is recoverable as -nu_k * degY.
    """

    __slots__ = ("n", "degY", "ranks", "nus")  # nus: strictly increasing Fractions

    def __init__(self, n: int, degY: int, ranks, nus):
        super().__init__(n, degY, tuple(int(r) for r in ranks), tuple(Fraction(v) for v in nus))

    @property
    def t(self) -> int:
        return len(self.ranks)


def validate(hn: HNData, degrees) -> list:
    """All violated invariants, as human-readable strings; empty if valid."""
    degrees = tuple(degrees)
    problems = []
    if hn.t < 1 or len(hn.nus) != hn.t:
        problems.append("ranks and thresholds must be nonempty and equal length")
        return problems
    if hn.degY < 1:
        problems.append(f"degY must be positive, got {hn.degY}")
    if len(degrees) != hn.n:
        problems.append(f"degree list has {len(degrees)} entries, expected n={hn.n}")
    if any(r < 1 for r in hn.ranks):
        problems.append("ranks must be positive")
    if any(d < 1 for d in degrees):
        problems.append("generator degrees must be positive")
    if sum(hn.ranks) != hn.n - 1:
        problems.append(
            f"sum of ranks is {sum(hn.ranks)}, must equal n-1 = {hn.n - 1}"
        )
    if any(a >= b for a, b in zip(hn.nus, hn.nus[1:])):
        problems.append("thresholds must be strictly increasing")
    if degrees and sum(r * v for r, v in zip(hn.ranks, hn.nus)) != sum(degrees):
        problems.append(
            "weighted threshold sum must equal the sum of generator degrees"
        )
    if degrees and len(degrees) >= 2:
        lo = min(degrees)
        ds = sorted(degrees, reverse=True)
        hi = ds[0] + ds[1]
        if hn.nus and hn.nus[0] < lo:
            problems.append(f"nu_1 = {hn.nus[0]} below min degree {lo}")
        if hn.nus and hn.nus[-1] > hi:
            problems.append(f"nu_t = {hn.nus[-1]} above max pair degree {hi}")
    return problems


def _require_valid(hn: HNData, degrees) -> None:
    problems = validate(hn, degrees)
    if problems:
        raise UserError("invalid slope data: " + "; ".join(problems))


def _agreeing(value: Fraction, general: Fraction) -> Fraction:
    """value, checked against the general formula (which first validated the slope data)."""
    if value != general:
        raise InternalError(f"closed form gives {value}, the general formula {general}")
    return value


def ehk_from_hn(hn: HNData, degrees) -> Fraction:
    """The main multiplicity formula; exact rational."""
    _require_valid(hn, degrees)
    s = sum(r * v * v for r, v in zip(hn.ranks, hn.nus))
    d2 = sum(Fraction(d) ** 2 for d in degrees)
    return Fraction(hn.degY, 2) * (s - d2)


def ehk_strongly_semistable(degrees, degY: int) -> Fraction:
    """Multiplicity when the syzygy bundle is strongly semistable (t = 1)."""
    degrees = tuple(degrees)
    n = len(degrees)
    if n < 2:
        raise UserError("need at least two generators")
    total = sum(degrees)
    value = Fraction(degY, 2) * (Fraction(total, 1) ** 2 / (n - 1) - sum(d * d for d in degrees))
    hn = HNData(n=n, degY=degY, ranks=(n - 1,), nus=(Fraction(total, n - 1),))
    return _agreeing(value, ehk_from_hn(hn, degrees))


def ehk_t2(r2: int, nu2, degrees, degY: int) -> Fraction:
    """Multiplicity for a two-step filtration, given the top step (r_2, nu_2)."""
    degrees = tuple(degrees)
    n = len(degrees)
    nu2 = Fraction(nu2)
    r1 = n - 1 - r2
    if r1 < 1:
        raise UserError(f"r_2 = {r2} leaves no rank for the first step")
    total = sum(degrees)
    nu1 = Fraction(total - r2 * nu2, r1)
    if not nu1 < nu2:
        raise UserError(
            f"reconstructed nu_1 = {nu1} is not below nu_2 = {nu2}; "
            "a two-step filtration requires nu_1 < nu_2"
        )
    value = Fraction(degY, 2) * (
        r2 * nu2 * nu2 + (total - r2 * nu2) ** 2 / Fraction(r1) - sum(d * d for d in degrees)
    )
    hn = HNData(n=n, degY=degY, ranks=(r1, r2), nus=(nu1, nu2))
    return _agreeing(value, ehk_from_hn(hn, degrees))


def ehk_n3(nu2, degrees, degY: int) -> Fraction:
    """Three generators, non-semistable case: rank-two bundle, t = 2."""
    degrees = tuple(degrees)
    if len(degrees) != 3:
        raise UserError("ehk_n3 requires exactly three generator degrees")
    nu2 = Fraction(nu2)
    total = sum(degrees)
    pair_sum = (
        degrees[0] * degrees[1] + degrees[0] * degrees[2] + degrees[1] * degrees[2]
    )
    value = degY * (nu2 * nu2 - nu2 * total + pair_sum)
    return _agreeing(value, ehk_t2(1, nu2, degrees, degY))


def ehk_plane_curve(h: int, nu2) -> Fraction:
    """Cone over a smooth plane curve of degree h; 3/2 <= nu_2 <= 2."""
    nu2 = Fraction(nu2)
    if not (Fraction(3, 2) <= nu2 <= 2):
        raise UserError(f"nu_2 = {nu2} outside [3/2, 2]")
    if h < 1:
        raise UserError("curve degree must be positive")
    return h * (nu2 * nu2 - 3 * nu2 + 3)


def add_generator(hn: HNData, degrees, e: int):
    """Extend slope data by one redundant generator of degree e.

    The syzygy bundle gains a line-bundle summand of degree threshold e:
    e is inserted at its sorted position with rank 1, merging with an
    existing equal threshold by incrementing that rank.  The multiplicity
    is unchanged.
    """
    degrees = tuple(degrees)
    _require_valid(hn, degrees)
    if e < min(degrees):
        raise UserError(
            f"redundant generator degree {e} below the minimal ideal degree"
        )
    ev = Fraction(e)
    ranks = list(hn.ranks)
    nus = list(hn.nus)
    for k, v in enumerate(nus):
        if v == ev:
            ranks[k] += 1
            break
        if v > ev:
            ranks.insert(k, 1)
            nus.insert(k, ev)
            break
    else:
        ranks.append(1)
        nus.append(ev)
    new_hn = HNData(n=hn.n + 1, degY=hn.degY, ranks=tuple(ranks), nus=tuple(nus))
    new_degrees = degrees + (e,)
    _require_valid(new_hn, new_degrees)
    return new_hn, new_degrees
