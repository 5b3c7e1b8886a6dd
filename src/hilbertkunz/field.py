"""Arithmetic in the prime field Z/p for a runtime-chosen prime p."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UserError

# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10^24,
# far beyond the 2^31 cap on p.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field Z/p, 2 <= p < 2^31.

    Elements are plain Python ints, canonical in [0, p); callers reduce
    with ``% p`` and invert with :meth:`inv`.
    """

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2**31):
            raise UserError(f"characteristic must satisfy 2 <= p < 2^31, got {self.p}")
        if not is_prime(self.p):
            raise UserError(f"{self.p} is not prime")

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"F_{self.p}"

