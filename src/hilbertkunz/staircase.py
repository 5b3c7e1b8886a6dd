"""Brute-force colength of monomial ideals in two variables.

This is the independent ground truth for the matrix-based engine: it
counts lattice points under the staircase row by row and knows nothing
about fields, matrices, or normal forms.  Oracles should be dumb.
"""

from __future__ import annotations

from .errors import Frozen, NotPrimaryError, UserError


class MonomialIdeal2(Frozen):
    """Monomial ideal in K[x,y], stored as a minimal generating set."""

    __slots__ = ("gens",)  # sorted tuple of (a, b) exponent pairs

    def __init__(self, gens: tuple):
        super().__init__(gens)

    @classmethod
    def from_pairs(cls, pairs) -> "MonomialIdeal2":
        pairs = sorted(set((int(a), int(b)) for a, b in pairs))
        if not pairs:
            raise UserError("need at least one generator")
        if any(a < 0 or b < 0 for a, b in pairs):
            raise UserError("exponents must be nonnegative")
        minimal = []
        for a, b in pairs:
            if any(a2 <= a and b2 <= b for a2, b2 in pairs if (a2, b2) != (a, b)):
                continue
            minimal.append((a, b))
        return cls(tuple(sorted(minimal)))

    def is_primary(self) -> bool:
        """(x,y)-primary: contains a pure power of x and of y."""
        return any(b == 0 for _, b in self.gens) and any(a == 0 for a, _ in self.gens)

    def scaled(self, q: int) -> "MonomialIdeal2":
        return MonomialIdeal2.from_pairs((q * a, q * b) for a, b in self.gens)


def staircase_colength(ideal: MonomialIdeal2, q: int) -> int:
    """Number of monomials outside the q-scaled ideal, counted row by row."""
    if q < 1:
        raise UserError("q must be positive")
    if not ideal.is_primary():
        raise NotPrimaryError(
            "monomial ideal lacks a pure power of x or y; colength is infinite"
        )
    gens = [(q * a, q * b) for a, b in ideal.gens]
    height = min(b for a, b in gens if a == 0)
    total = 0
    for row in range(height):
        width = min(a for a, b in gens if b <= row)
        total += width
    return total
