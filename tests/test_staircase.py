import random

import pytest

from hilbertkunz.errors import NotPrimaryError, UserError
from hilbertkunz.staircase import MonomialIdeal2, staircase_colength


def brute_colength(gens, q):
    """Dumbest possible count: scan the whole rectangle of exponents."""
    scaled = [(q * a, q * b) for a, b in gens]
    box = max(max(a, b) for a, b in scaled) + 1
    count = 0
    for a in range(box):
        for b in range(box):
            if not any(a >= ga and b >= gb for ga, gb in scaled):
                count += 1
    return count


def test_known_values():
    ideal = MonomialIdeal2.from_pairs([(3, 0), (1, 2), (0, 3)])
    assert staircase_colength(ideal, 1) == 7
    assert staircase_colength(ideal, 2) == 28
    assert staircase_colength(ideal, 4) == 112  # 7 * q^2 exactly
    square = MonomialIdeal2.from_pairs([(2, 0), (1, 1), (0, 2)])
    assert staircase_colength(square, 1) == 3
    assert staircase_colength(square, 3) == 27


def test_maximal_ideal_gives_q_squared():
    m = MonomialIdeal2.from_pairs([(1, 0), (0, 1)])
    for q in (1, 2, 5, 10):
        assert staircase_colength(m, q) == q * q


def test_minimalization_and_dedupe():
    ideal = MonomialIdeal2.from_pairs([(2, 0), (2, 0), (3, 1), (0, 2), (5, 5)])
    assert ideal.gens == ((0, 2), (2, 0))


def test_not_primary_rejected():
    with pytest.raises(NotPrimaryError):
        staircase_colength(MonomialIdeal2.from_pairs([(1, 1)]), 2)
    with pytest.raises(NotPrimaryError):
        staircase_colength(MonomialIdeal2.from_pairs([(2, 0), (1, 1)]), 2)
    assert not MonomialIdeal2.from_pairs([(1, 1)]).is_primary()


def test_bad_input():
    with pytest.raises(UserError):
        MonomialIdeal2.from_pairs([])
    with pytest.raises(UserError):
        MonomialIdeal2.from_pairs([(-1, 2)])
    with pytest.raises(UserError):
        staircase_colength(MonomialIdeal2.from_pairs([(1, 0), (0, 1)]), 0)


def test_scaling_identity():
    """Counting the q-scaled ideal at 1 equals counting the ideal at q."""
    rng = random.Random(17)
    for _ in range(20):
        pairs = {(rng.randint(1, 5), 0), (0, rng.randint(1, 5))}
        for _ in range(rng.randint(0, 3)):
            pairs.add((rng.randint(0, 5), rng.randint(0, 5)))
        pairs.discard((0, 0))
        ideal = MonomialIdeal2.from_pairs(pairs)
        for q in (1, 2, 3):
            assert staircase_colength(ideal, q) == staircase_colength(
                MonomialIdeal2.from_pairs((q * a, q * b) for a, b in ideal.gens), 1)


def test_against_rectangle_scan():
    rng = random.Random(23)
    for _ in range(30):
        pairs = {(rng.randint(1, 6), 0), (0, rng.randint(1, 6))}
        for _ in range(rng.randint(0, 4)):
            pairs.add((rng.randint(0, 6), rng.randint(0, 6)))
        pairs.discard((0, 0))
        ideal = MonomialIdeal2.from_pairs(pairs)
        for q in (1, 2, 4):
            assert staircase_colength(ideal, q) == brute_colength(ideal.gens, q)


def test_monotone_in_q():
    ideal = MonomialIdeal2.from_pairs([(3, 0), (1, 2), (0, 3)])
    values = [staircase_colength(ideal, q) for q in range(1, 10)]
    assert values == sorted(values)
