"""Exact rank over a prime field: the one entry point is :class:`RankBuilder`.

Vectors are fed one at a time with ``add_column``; ``rank()`` may be read
between feeds, so one builder serves a growing matrix.  A vector may have
any length: it is read as padded with zeros, and the width of the matrix
is the longest vector fed so far.  Two elimination backends sit behind it:

* p == 2: column vectors are kept as Python integers (bitsets) and
  reduced against a pivot dictionary.  This is plain Gaussian
  elimination; it is fast on the sparse columns the multiplication
  matrices produce and exact by construction.
* p > 2: reduced-row-echelon accumulation in float64 with BLAS matrix
  products.  Every intermediate value stays below (p-1)^2 * width, so the
  arithmetic is exact while that is below 2^53; the guard is checked at
  every merge, and the first time it fails the echelon moves to a slower
  int64 path for good.  Columns are buffered and merged _BATCH at a time.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField

_FLOAT_EXACT = 2.0**53
_BATCH = 256


class RankBuilder:
    """Incremental rank of a growing set of vectors of any length over F_p."""

    def __init__(self, field: PrimeField):
        self.field = field
        self.p = field.p
        self._rank = 0
        if self.p == 2:
            self._pivots = {}  # leading bit -> vector (int bitset)
        else:
            self._float_ok = (self.p - 1) ** 2 < _FLOAT_EXACT
            self._P = np.zeros((0, 0), dtype=np.float64 if self._float_ok else np.int64)
            self._width = 0
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
        if isinstance(entries, dict):
            vec = np.zeros(max(entries, default=-1) + 1, dtype=np.int64)
            for i, c in entries.items():
                vec[i] = c % self.p
        else:
            vec = np.asarray(entries, dtype=np.int64) % self.p
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

    def _reserve(self, rows: int, width: int) -> None:
        """Make room for ``rows`` pivot rows of length ``width``."""
        cap_rows, cap_width = self._P.shape
        if rows <= cap_rows and width <= cap_width:
            return
        cap_width = max(cap_width, -(-width // _BATCH) * _BATCH)
        if rows > cap_rows:
            cap_rows = min(max(rows, 2 * cap_rows, 64), cap_width)
        P = np.zeros((cap_rows, cap_width), dtype=self._P.dtype)
        P[: self._rank, : self._P.shape[1]] = self._P[: self._rank]
        self._P = P

    def _flush(self) -> None:
        if not self._buffer:
            return
        self._width = width = max(self._width, *map(len, self._buffer))
        if self._float_ok and (self.p - 1) ** 2 * width >= _FLOAT_EXACT:
            self._float_ok = False
            self._P = self._P.astype(np.int64)
        B = np.zeros((len(self._buffer), width), dtype=self._P.dtype)
        for row, vec in zip(B, self._buffer):
            row[: len(vec)] = vec
        self._buffer = []
        self._reserve(min(self._rank + len(B), width), width)
        self._absorb(B)

    def _absorb(self, B: np.ndarray) -> None:
        """Merge rows of B (k x width, entries in [0, p)) into the echelon set.

        ``_P`` must have room for min(rank + k, width) rows of this width.
        """
        p = self.p
        width = B.shape[1]
        r = self._rank
        if r:
            # P is in reduced echelon form, so one pass suffices
            P = self._P[:r, :width]
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
                P = self._P[: self._rank, :width]
                pc = P[:, j]
                m2 = pc != 0
                if m2.any():
                    P[m2] = (P[m2] - np.outer(pc[m2], row)) % p
            self._P[self._rank, :width] = row
            self._pivcols.append(j)
            self._rank += 1

    # -- result --------------------------------------------------------

    def rank(self) -> int:
        if self.p != 2:
            self._flush()
        return self._rank
