"""Rational recovery of the multiplicity from finitely many exact phi values.

phi(q) = e_HK * q^2 + O(q), so the two-point difference quotient

    (phi(q2) - phi(q1)) / (q2^2 - q1^2)

cancels any constant term and approaches e_HK at rate 1/(q1 + q2).  The
estimate is snapped to the nearest fraction with bounded denominator via
continued-fraction best approximation; every reconstruction reports its
residuals so a human can judge the window.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from .errors import Frozen, UserError
from .field import prime_base


def default_denominator_bound(n: int, degY: int, p: int, e_cap: int) -> int:
    """2 * (n-1)! * degY * p^e_cap: the factors the formula can produce."""
    return 2 * factorial(n - 1) * degY * p**e_cap


class AmbiguousReconstruction(Exception):
    """No fraction with bounded denominator lies inside the window."""

    def __init__(self, estimate: Fraction, bound: int, window: Fraction, candidates):
        self.estimate = estimate
        self.bound = bound
        self.window = window
        self.candidates = candidates
        msg = (
            f"no denominator-{bound} fraction within {window} of {estimate}; "
            f"nearest candidates: {', '.join(str(c) for c in candidates)}"
        )
        super().__init__(msg)


class ReconstructionReport:
    def __init__(self, estimate: Fraction, raw: Fraction, bound: int, window: Fraction,
                 q_pair: tuple, residuals: dict):  # residuals: q -> |phi - estimate * q^2| / q
        self.estimate, self.raw, self.bound, self.window = estimate, raw, bound, window
        self.q_pair, self.residuals = q_pair, residuals


def estimate_ehk(table, bound: int, *, window=None, window_constant=None):
    """Reconstruct e_HK from (q, phi) pairs; returns (value, report).

    The difference quotient is taken over the two largest q.  The
    acceptance window is ``window``, or K / q1 with q1 the smaller of the
    two and K = window_constant (callers with an ideal pass 4 * sum of
    generator degrees).  Every q must be 1 or a power of one prime p.
    Raises AmbiguousReconstruction when no bounded-denominator fraction
    lands inside the window.
    """
    rows = sorted((int(q), int(phi)) for q, phi in table)
    if len(rows) < 2:
        raise UserError("need at least two (q, phi) rows")
    if len({prime_base(q) for q, _ in rows if q != 1}) > 1:
        raise UserError("q values must be powers of one prime")
    (q1, phi1), (q2, phi2) = rows[-2], rows[-1]
    if q2 <= q1:
        raise UserError("q values must be distinct")
    raw = Fraction(phi2 - phi1, q2 * q2 - q1 * q1)
    if window is None:
        if window_constant is None:
            raise UserError("need window or window_constant")
        window = Fraction(window_constant, q1)
    window = Fraction(window)
    if bound < 1:
        raise UserError("denominator bound must be positive")
    value = raw.limit_denominator(bound)  # the closest fraction with denominator <= bound
    if abs(value - raw) > window:
        candidates = sorted(
            {raw.limit_denominator(b) for b in (bound, max(1, bound // 2), 1)},
            key=lambda c: abs(c - raw),
        )
        raise AmbiguousReconstruction(raw, bound, window, candidates)
    residuals = {
        q: Fraction(abs(phi - value * q * q), q) for q, phi in rows
    }
    report = ReconstructionReport(
        estimate=value,
        raw=raw,
        bound=bound,
        window=window,
        q_pair=(q1, q2),
        residuals=residuals,
    )
    return value, report


def _sqrt_exact(x: Fraction):
    """Square root of a nonnegative rational if it is rational, else None."""
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class QuadraticIrrational(Frozen):
    """The value (3 + sqrt(disc))/2 when the discriminant is not a square."""

    __slots__ = ("disc",)

    def __init__(self, disc: Fraction):
        super().__init__(disc)

    def __str__(self):
        return f"(3 + sqrt({self.disc}))/2"


def nu2_from_ehk(h: int, ehk: Fraction):
    """Invert e_HK = h*(nu2^2 - 3 nu2 + 3) on the branch nu2 in [3/2, 2].

    Returns an exact Fraction when the discriminant is a rational square,
    otherwise a QuadraticIrrational carrying the discriminant.
    """
    if h < 1:
        raise UserError("curve degree must be positive")
    ehk = Fraction(ehk)
    if not (Fraction(3 * h, 4) <= ehk <= h):
        raise UserError(f"e_HK = {ehk} outside the plane-curve range [3h/4, h]")
    disc = 4 * ehk / h - 3
    root = _sqrt_exact(disc)
    if root is None:
        return QuadraticIrrational(disc=disc)
    return (3 + root) / 2
