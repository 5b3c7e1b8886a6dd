"""Exact rank over a prime field: the one entry point is :class:`RankBuilder`.

Vectors are fed one at a time with ``add_column``; ``rank()`` may be read
between feeds, so one builder serves a growing matrix.  Two elimination
backends sit behind it:

* p == 2: column vectors are kept as Python integers (bitsets) and
  reduced against a pivot dictionary.  This is plain Gaussian
  elimination; it is fast on the sparse columns the multiplication
  matrices produce and exact by construction.
* p > 2: reduced-row-echelon accumulation in float64 with BLAS matrix
  products.  All intermediate values stay below 2^53 (guarded at
  construction), so the arithmetic is exact; when the guard fails a
  slower int64 path is used instead.  Columns are buffered and merged
  _BATCH at a time.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField

_FLOAT_EXACT = 2.0**53
_BATCH = 256


class RankBuilder:
    """Incremental rank of a growing set of length-``dim`` vectors."""

    def __init__(self, field: PrimeField, dim: int):
        self.field = field
        self.p = field.p
        self.dim = dim
        self._rank = 0
        if self.p == 2:
            self._pivots = {}  # leading bit -> vector (int bitset)
        else:
            self._float_ok = (self.p - 1) ** 2 * max(dim, 1) < _FLOAT_EXACT
            dtype = np.float64 if self._float_ok else np.int64
            self._P = np.zeros((min(dim, 64) or 1, dim), dtype=dtype)
            self._pivcols = []
            self._buffer = []

    # -- feeding -------------------------------------------------------

    def add_column(self, entries) -> None:
        """Add one vector: a dict {index: value}; for p == 2 an int bitset, else a sequence."""
        if self.p == 2:
            v = entries
            if isinstance(entries, dict):
                v = 0
                for i, c in entries.items():
                    if c % 2:
                        v |= 1 << i
            self._add_bits(v)
            return
        vec = np.zeros(self.dim, dtype=np.int64)
        if isinstance(entries, dict):
            for i, c in entries.items():
                vec[i] = c % self.p
        else:
            vec[: len(entries)] = np.asarray(entries, dtype=np.int64) % self.p
        self._buffer.append(vec)
        if len(self._buffer) >= _BATCH:
            self._flush()

    # -- GF(2) path ----------------------------------------------------

    def _add_bits(self, v: int) -> None:
        pivots = self._pivots
        while v:
            b = v.bit_length() - 1
            row = pivots.get(b)
            if row is None:
                pivots[b] = v
                self._rank += 1
                return
            v ^= row

    # -- generic path --------------------------------------------------

    def _grow(self, need: int) -> None:
        cap = self._P.shape[0]
        if need <= cap:
            return
        new_cap = min(self.dim, max(need, cap * 2))
        P = np.zeros((new_cap, self.dim), dtype=self._P.dtype)
        P[: self._rank] = self._P[: self._rank]
        self._P = P

    def _flush(self) -> None:
        if self._buffer:
            B = np.stack(self._buffer)
            self._buffer = []
            self._absorb(B.astype(self._P.dtype))

    def _absorb(self, B: np.ndarray) -> None:
        """Merge rows of B (k x dim, entries in [0, p)) into the echelon set."""
        p = self.p
        B = B.astype(self._P.dtype, copy=True)
        r = self._rank
        if r:
            # P is in reduced echelon form, so one pass suffices
            P = self._P[:r]
            if self._float_ok:
                B = (B - B[:, self._pivcols] @ P) % p
            else:
                # large p: per-pivot updates keep products below 2^62
                for k in range(r):
                    col = B[:, self._pivcols[k]]
                    mask = col != 0
                    if mask.any():
                        B[mask] = (B[mask] - np.outer(col[mask], P[k])) % p
        for i in range(B.shape[0]):
            row = B[i]
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            j = int(nz[0])
            inv = pow(int(row[j]), -1, p)
            row = (row * row.dtype.type(inv)) % p
            rest = B[i + 1 :]
            if rest.shape[0]:
                col = rest[:, j]
                mask = col != 0
                if mask.any():
                    rest[mask] = (rest[mask] - np.outer(col[mask], row)) % p
            if self._rank:
                P = self._P[: self._rank]
                pc = P[:, j]
                m2 = pc != 0
                if m2.any():
                    P[m2] = (P[m2] - np.outer(pc[m2], row)) % p
            self._grow(self._rank + 1)
            self._P[self._rank] = row
            self._pivcols.append(j)
            self._rank += 1

    # -- result --------------------------------------------------------

    def rank(self) -> int:
        if self.p != 2:
            self._flush()
        return self._rank
