import dataclasses

import pytest

from hilbertkunz.errors import UserError
from hilbertkunz.field import PrimeField, is_prime, prime_base


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_field_axioms(p):
    """Every nonzero residue has a canonical inverse, and it is unique."""
    F = PrimeField(p)
    inverses = set()
    for a in range(1, p):
        b = F.inv(a)
        assert 0 < b < p
        assert a * b % p == 1
        assert F.inv(a + p) == b  # inverse depends only on the residue
        inverses.add(b)
    assert inverses == set(range(1, p))


def test_rejects_non_prime():
    for bad in (0, 1, 4, 6, 9, 1 << 31):
        with pytest.raises(UserError):
            PrimeField(bad)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**31 - 3)


def test_inverse_of_zero():
    F = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(14)


def test_field_is_hashable_and_frozen():
    assert PrimeField(5) == PrimeField(5)
    assert len({PrimeField(5), PrimeField(5), PrimeField(7)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        PrimeField(5).p = 7


def test_prime_base():
    """p for q = p^e, e >= 1, including p near 2^31; UserError for every other q."""
    M = 2**31 - 1
    for p, e in ((2, 1), (2, 10), (3, 5), (5, 8), (65521, 2), (M, 1), (M, 2), (M, 8)):
        assert prime_base(p**e) == p
    for q in (-4, 0, 1, 6, 12, 36, 100, M * 2, M * 65521, 2**4 * 3**4):
        with pytest.raises(UserError):
            prime_base(q)
