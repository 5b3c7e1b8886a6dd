"""Arithmetic in the prime field Z/p for a runtime-chosen prime p."""

from __future__ import annotations

from .errors import Frozen, UserError

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


def _root(q: int, e: int) -> int:
    """floor(q^(1/e)) for q >= 1, by integer Newton steps from above."""
    x = 1 << -(-q.bit_length() // e)
    while (y := ((e - 1) * x + q // x ** (e - 1)) // e) < x:
        x = y
    return x


def prime_base(q: int) -> int:
    """The prime p with q = p^e, e >= 1, or UserError.

    q = r^e for the largest such e is a prime power iff r is prime.
    """
    if q > 1:
        r = next(r for e in range(q.bit_length(), 0, -1) if (r := _root(q, e)) ** e == q)
        if is_prime(r):
            return r
    raise UserError(f"q must be a power of a prime, got {q}")


def validate_prime_power(p: int, q: int) -> int:
    """Return e with q = p^e, or raise."""
    if q < 1:
        raise UserError(f"q must be a positive power of {p}, got {q}")
    e = 0
    while q > 1:
        if q % p:
            raise UserError(f"q must be a power of the characteristic {p}")
        q //= p
        e += 1
    return e


class PrimeField(Frozen):
    """The field Z/p, 2 <= p < 2^31.

    Elements are plain Python ints, canonical in [0, p); callers reduce
    with ``% p`` and invert with :meth:`inv`.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not (2 <= p < 2**31):
            raise UserError(f"characteristic must satisfy 2 <= p < 2^31, got {p}")
        if not is_prime(p):
            raise UserError(f"{p} is not prime")
        super().__init__(p)

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"F_{self.p}"

