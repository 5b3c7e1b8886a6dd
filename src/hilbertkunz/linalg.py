"""Dense matrices over a prime field; rank and kernel dimension.

Two elimination backends sit behind one interface:

* p == 2: column vectors are kept as Python integers (bitsets) and
  reduced against a pivot dictionary.  This is plain Gaussian
  elimination; it is fast on the sparse columns the multiplication
  matrices produce and exact by construction.
* p > 2: reduced-row-echelon accumulation in float64 with BLAS matrix
  products.  All intermediate values stay below 2^53 (guarded at
  construction), so the arithmetic is exact; when the guard fails a
  slower int64 path is used instead.

The streaming :class:`RankBuilder` lets callers feed columns in batches
without materializing the whole matrix first.
"""

from __future__ import annotations

import numpy as np

from .errors import UserError
from .field import PrimeField

_FLOAT_EXACT = 2.0**53


class RankBuilder:
    """Incremental rank of a growing set of length-``dim`` vectors."""

    def __init__(self, field: PrimeField, dim: int, batch: int = 256):
        self.field = field
        self.p = field.p
        self.dim = dim
        self.batch = max(1, batch)
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
        """Add one vector: a dict {index: value}, a sequence, or for p == 2 an int bitset."""
        if self.p == 2:
            v = 0
            if isinstance(entries, int):
                v = entries
            elif isinstance(entries, dict):
                for i, c in entries.items():
                    if c % 2:
                        v |= 1 << i
            else:
                for i, c in enumerate(entries):
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
        if len(self._buffer) >= self.batch:
            self._flush()

    def add_columns(self, block: np.ndarray) -> None:
        """Add a (dim x k) block of vectors at once."""
        if block.size == 0:
            return
        if block.shape[0] != self.dim:
            raise UserError("column block has wrong dimension")
        if self.p == 2:
            bits = np.packbits(
                (block % 2).astype(np.uint8), axis=0, bitorder="little"
            )
            for j in range(block.shape[1]):
                self._add_bits(int.from_bytes(bits[:, j].tobytes(), "little"))
            return
        self._flush()
        self._absorb(np.ascontiguousarray((block.T % self.p)))

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

    @property
    def count_rank(self) -> int:
        if self.p != 2:
            self._flush()
        return self._rank

    def rank(self) -> int:
        return self.count_rank


def rank_of_array(a: np.ndarray, field: PrimeField) -> int:
    """Rank over F_p of a dense (rows x cols) integer array."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
    rows, cols = a.shape
    # feed whichever side gives fewer, shorter vectors
    if rows <= cols:
        builder = RankBuilder(field, cols)
        builder.add_columns(np.ascontiguousarray(a.T))
    else:
        builder = RankBuilder(field, rows)
        builder.add_columns(np.ascontiguousarray(a))
    return builder.rank()


class MatrixFF:
    """Dense matrix over a prime field with canonical entries."""

    def __init__(self, field: PrimeField, entries: np.ndarray):
        self.field = field
        a = np.asarray(entries, dtype=np.int64) % field.p
        if a.ndim != 2:
            raise UserError("matrix entries must be two-dimensional")
        self.a = a

    @classmethod
    def from_rows(cls, field: PrimeField, rows) -> "MatrixFF":
        return cls(field, np.array(rows, dtype=np.int64).reshape(len(rows), -1))

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "MatrixFF":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "MatrixFF":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def transpose(self) -> "MatrixFF":
        return MatrixFF(self.field, self.a.T.copy())

    def rank(self) -> int:
        return rank_of_array(self.a, self.field)

    def kernel_dim(self) -> int:
        return self.cols - self.rank()

    def __repr__(self):
        return f"MatrixFF({self.rows}x{self.cols} over F_{self.field.p})"


def rank_gf2_generic(a: np.ndarray) -> int:
    """Reference GF(2) rank by plain row reduction (used for cross-checks)."""
    m = (np.asarray(a, dtype=np.int64) % 2).copy()
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i, c]:
                piv = i
                break
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        r += 1
        if r == rows:
            break
    return r
