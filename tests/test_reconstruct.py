import random
from fractions import Fraction

import pytest

from hilbertkunz.errors import UserError
from hilbertkunz.reconstruct import (
    AmbiguousReconstruction,
    QuadraticIrrational,
    default_denominator_bound,
    estimate_ehk,
    nu2_from_ehk,
)
from hilbertkunz.slopes import ehk_plane_curve


def test_rounding_examples():
    """Raw quotients 3068/1023, 767/1023 and 4/8 are rounded to the closest bounded fraction."""
    near = Fraction(1, 100)
    assert estimate_ehk([(1, 0), (32, 3068)], 10, window=near)[0] == 3
    assert estimate_ehk([(1, 0), (32, 767)], 8, window=near)[0] == Fraction(3, 4)
    with pytest.raises(AmbiguousReconstruction):  # no fraction of denominator 1 within 1/10 of 1/2
        estimate_ehk([(1, 0), (3, 4)], 1, window=Fraction(1, 10))
    with pytest.raises(UserError, match="denominator bound must be positive"):
        estimate_ehk([(1, 0), (3, 4)], 0, window=Fraction(1))


def test_default_denominator_bound():
    assert default_denominator_bound(3, 3, 5, 3) == 2 * 2 * 3 * 125
    bound = default_denominator_bound(1, 0, 5, 1)
    assert bound == 0
    with pytest.raises(UserError):
        estimate_ehk([(5, 25), (25, 625)], bound, window_constant=4)


def test_estimate_from_synthetic_quadratic():
    """phi(q) = a q^2 + b q + c is recovered exactly once q is large enough."""
    rng = random.Random(12)
    for _ in range(50):
        # denominator divides q^2 for q in the table, so phi stays integral
        a = Fraction(rng.randint(1, 40), rng.choice((1, 2, 4, 8)))
        # |b| / (q1 + q2) must stay below the 1/64 Farey gap at bound 8
        b = rng.randint(-2, 2)
        c = rng.randint(0, 5)
        rows = [(q, int(a * q * q + b * q + c)) for q in (64, 128, 256)]
        value, report = estimate_ehk(rows, bound=8, window_constant=4 * abs(b) + 8)
        assert value == a


def test_estimate_uses_two_largest_q():
    rows = [(2, 1000), (8, 7 * 64), (16, 7 * 256)]
    value, report = estimate_ehk(rows, bound=10, window_constant=8)
    assert value == 7
    assert report.q_pair == (8, 16)


def test_estimate_reports_residuals():
    rows = [(5, 55), (25, 1405)]
    value, report = estimate_ehk(rows, bound=1500, window_constant=12)
    assert value == Fraction(9, 4)
    assert report.residuals[5] == Fraction(abs(55 - Fraction(9, 4) * 25), 5)


def test_ambiguous_reconstruction():
    # constant term too large for the window: nothing inside it
    rows = [(2, 11), (4, 17)]
    with pytest.raises(AmbiguousReconstruction) as info:
        estimate_ehk(rows, bound=1, window=Fraction(1, 100))
    exc = info.value
    assert exc.bound == 1
    assert exc.candidates


def test_estimate_input_validation():
    with pytest.raises(UserError):
        estimate_ehk([(4, 16)], bound=10, window_constant=4)
    with pytest.raises(UserError):
        estimate_ehk([(4, 16), (4, 17)], bound=10, window_constant=4)
    with pytest.raises(UserError):
        estimate_ehk([(2, 4), (4, 16)], bound=10)  # no window information


def test_nu2_from_ehk_pinned():
    assert nu2_from_ehk(3, Fraction(9, 4)) == Fraction(3, 2)
    assert nu2_from_ehk(3, Fraction(7, 3)) == Fraction(5, 3)
    for h in (1, 4, 9):
        assert nu2_from_ehk(h, Fraction(h)) == 2
    with pytest.raises(UserError):
        nu2_from_ehk(3, Fraction(10, 3))  # above h
    with pytest.raises(UserError):
        nu2_from_ehk(3, 2)  # below 3h/4
    with pytest.raises(UserError):
        nu2_from_ehk(0, 1)


def test_nu2_round_trip():
    rng = random.Random(77)
    for _ in range(100):
        nu2 = Fraction(rng.randint(3 * 6, 4 * 6), 12)  # in [3/2, 2]
        h = rng.randint(1, 6)
        assert nu2_from_ehk(h, ehk_plane_curve(h, nu2)) == nu2


def test_nu2_irrational_branch():
    # e_HK = 5/2 on a cubic: discriminant 4*(5/2)/3 - 3 = 1/3, not a square
    value = nu2_from_ehk(3, Fraction(5, 2))
    assert isinstance(value, QuadraticIrrational)
    assert value.disc == Fraction(1, 3)
    assert 0 <= value.disc <= 1
    assert "sqrt" in str(value)


@pytest.mark.parametrize("qs", [(1, 6, 8), (0, 5, 25), (-5, 5, 25), (2, 3), (4, 9, 27)])
def test_estimate_refuses_q_off_the_powers_of_one_prime(qs):
    """q < 1, and q > 1 that are not powers of one prime, are user errors:
    (1, 6, 8) is not read off its last pair (6, 8), and q = 0 divides nothing."""
    with pytest.raises(UserError):
        estimate_ehk([(q, 7 * q * q) for q in qs], 500, window_constant=16)
