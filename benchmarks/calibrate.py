"""Fixed reference kernels that tell how fast the machine runs right now.

The benchmark's machine is a shared virtual machine whose speed follows
the load of the host: the same pass can take 1.4 times as long a few
minutes later, set-up included.  Every set-up-only worker times these
kernels after its set-up, in a process that has run nothing of the
package but set-up, and ``run.py`` reports times in *reference seconds*:
measured seconds times the kernels' time on the reference machine over
their median time in the run.  The kernels use only Python and numpy,
never the package, so a change to the package cannot change them and
still shows in full; a change in the machine's speed moves both and
mostly cancels.

Each kernel is a small, fixed copy of one kind of work the package does,
because the host's load slows kinds of work unequally:

* ``interp``: dict and tuple work on exponent tuples (``ring.basis``,
  normal forms, column dicts) -- and the interpreter work of imports;
* ``columns``: GF(2) columns filled one by one into a numpy block,
  packed to Python ints and reduced against a pivot dict (the free-ring
  column builder and the bitset rank);
* ``dense``: the first pivot steps of a masked float64 row elimination
  modulo 5 on a 192 x 640 block, about the size of the blocks the float64
  rank works on at q = 125.

A workload is scaled by the kernels that match its work (``SCALE_BY`` in
``run.py``), or not at all where none tracks it.
"""

from __future__ import annotations

import time

import numpy as np

# A typical median time of each kernel on the reference machine (2 vCPUs,
# Intel Xeon, Python 3.11.7, numpy 2.4.6, one BLAS thread), in seconds.
# Fixed constants: changing one rescales every reported time of the
# workloads it scales.
REFERENCE_S = {"interp": 0.012, "columns": 0.0075, "dense": 0.02}

_DENSE = np.random.default_rng(0).integers(0, 5, size=(192, 640)).astype(np.float64)
_GENERATOR = np.array([1, 0, 1, 1], dtype=np.int64)


def interp() -> int:
    table = {}
    for i in range(4_000):
        mu = (i % 23, i % 19, i % 17)
        for e in ((1, 0, 0), (0, 2, 1)):
            key = tuple(a + b for a, b in zip(mu, e))
            table[key] = table.get(key, 0) + i
    return len(table)


def columns() -> int:
    rows, cols = 600, 597
    block = np.zeros((rows, cols), dtype=np.int64)
    for j in range(cols):
        block[j : j + 4, j] = _GENERATOR
    bits = np.packbits((block % 2).astype(np.uint8), axis=0, bitorder="little")
    pivots = {}
    for j in range(cols):
        v = int.from_bytes(bits[:, j].tobytes(), "little")
        while v:
            b = v.bit_length() - 1
            row = pivots.get(b)
            if row is None:
                pivots[b] = v
                break
            v ^= row
    return len(pivots)


def dense() -> int:
    block = _DENSE.copy()
    rank = 0
    for i in range(5):
        row = block[i]
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        j = int(nz[0])
        row = (row * float(pow(int(row[j]), -1, 5))) % 5
        rest = block[i + 1 :]
        col = rest[:, j]
        mask = col != 0
        if mask.any():
            rest[mask] = (rest[mask] - np.outer(col[mask], row)) % 5
        rank += 1
    return rank


KERNELS = {"interp": interp, "columns": columns, "dense": dense}


def sample(n: int = 1) -> list:
    """``n`` samples, each the time in seconds of one run of every kernel."""
    samples = []
    for _ in range(n):
        times = {}
        for name, kernel in KERNELS.items():
            t = time.perf_counter()
            kernel()
            times[name] = time.perf_counter() - t
        samples.append(times)
    return samples
