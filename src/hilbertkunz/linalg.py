"""Exact rank over a prime field: :class:`RankBuilder`.

Vectors are fed one at a time as {index: value} dicts, and ``rank()`` may
be read between feeds, so one builder serves a growing matrix.  Each
pivot is a dict keyed by its largest index and scaled to 1 there.  A new
vector is reduced against the pivots, largest index first, until it
vanishes or leads at an index no pivot holds, and is then kept as a new
pivot.  Every entry is a Python integer in [0, p), so the rank is exact
for every p.  The route that uses it, ``engine._degree_piece``, serves
curves through every F_p-point and is the tests' reference.
"""

from __future__ import annotations

from .field import PrimeField


class RankBuilder:
    """Incremental rank of a growing set of sparse vectors over F_p."""

    def __init__(self, field: PrimeField):
        self.p = field.p
        self._pivots = {}  # largest index -> vector with value 1 there

    def add_column(self, entries: dict) -> None:
        """Add one vector, given as {index: value}."""
        p = self.p
        self._absorb({i: c % p for i, c in entries.items() if c % p})

    def _absorb(self, v: dict) -> None:
        """Reduce v (nonzero entries in [0, p)) against the pivots; keep what is left."""
        p = self.p
        pivots = self._pivots
        while v:
            lead = max(v)
            row = pivots.get(lead)
            if row is None:
                inv = pow(v[lead], -1, p)
                pivots[lead] = {i: c * inv % p for i, c in v.items()}
                return
            c = v[lead]
            # row[i] and c are nonzero, so an entry can vanish only where v has one
            for i, a in row.items():
                b = (v.get(i, 0) - c * a) % p
                if b:
                    v[i] = b
                else:
                    del v[i]

    # the name benchmarks/layers.py resolves for its linalg.gf2.s metric
    _add_bits = _absorb

    def rank(self) -> int:
        return len(self._pivots)
