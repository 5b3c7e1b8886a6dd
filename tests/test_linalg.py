import random

import pytest

from hilbertkunz.field import PrimeField
from hilbertkunz.linalg import RankBuilder

from oracles import rank_mod_p


def random_matrix(rng, rows, cols, p, density=0.5):
    """A rows x cols matrix as a list of rows."""
    return [[rng.randint(1, p - 1) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def transpose(a):
    return [list(column) for column in zip(*a)]


def dict_columns(a):
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(len(a[0]))]


def rank_of_array(a, field):
    """Rank over F_p of a (rows x cols) list of rows, fed column by column."""
    builder = RankBuilder(field)
    for col in dict_columns(a):
        builder.add_column(col)
    return builder.rank()


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_rank_transpose_invariant(p):
    rng = random.Random(p)
    F = PrimeField(p)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12), p)
        assert rank_of_array(a, F) == rank_of_array(transpose(a), F)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_rank_permutation_invariant(p):
    rng = random.Random(10 * p)
    F = PrimeField(p)
    for _ in range(10):
        a = random_matrix(rng, 10, 8, p)
        r = rank_of_array(a, F)
        perm = rng.sample(range(8), 8)
        assert rank_of_array([[row[j] for j in perm] for row in a], F) == r
        perm_r = rng.sample(range(10), 10)
        assert rank_of_array([a[i] for i in perm_r], F) == r


def test_gf2_bitset_path_against_reference():
    """Columns over GF(2) of every density match the slow reference."""
    rng = random.Random(2)
    F2 = PrimeField(2)
    for _ in range(200):
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        a = random_matrix(rng, rows, cols, 2, density=rng.choice((0.1, 0.5, 0.9)))
        want = rank_mod_p(dict_columns(a), 2)
        assert rank_of_array(a, F2) == want


def test_rank_against_fraction_free_reference():
    """Check the elimination against naive dict elimination."""
    rng = random.Random(3)
    for p in (3, 5, 101, 32749):
        F = PrimeField(p)
        for _ in range(25):
            rows = rng.randint(1, 15)
            cols = rng.randint(1, 15)
            a = random_matrix(rng, rows, cols, p)
            assert rank_of_array(a, F) == rank_mod_p(dict_columns(a), p)


def test_streaming_matches_block_feed():
    """rank() read between feeds follows the rank of the columns so far,
    both for columns of one height and for columns of growing length."""
    rng = random.Random(8)
    for p in (2, 5):
        F = PrimeField(p)
        a = random_matrix(rng, 30, 40, p)
        columns = dict_columns(a)
        builder = RankBuilder(F)
        for j, col in enumerate(columns):
            builder.add_column(col)
            assert builder.rank() == rank_mod_p(columns[: j + 1], p)
        assert builder.rank() == rank_of_array(a, F)
    # Column j has length j + 1 and every third one is a combination of two
    # earlier ones, so the rank stays well below the width.  Near p = 2^25,
    # (p-1)^2 * width passes 2^53 at width 9: the products must stay exact
    # for the dependent columns to reduce to zero.
    for p in (2, 5, 33554393):
        F = PrimeField(p)
        builder = RankBuilder(F)
        columns = []
        for j in range(90):
            if j % 3 == 2:
                a, b = rng.sample(columns, 2)
                s, t = rng.randint(1, p - 1), rng.randint(1, p - 1)
                col = {i: (s * a.get(i, 0) + t * b.get(i, 0)) % p for i in set(a) | set(b)}
                col = {i: c for i, c in col.items() if c}
            else:
                col = {i: rng.randint(1, p - 1) for i in range(j + 1) if rng.random() < 0.7}
            columns.append(col)
            builder.add_column(col)
            assert builder.rank() == rank_mod_p(columns, p)


def test_known_ranks():
    F5 = PrimeField(5)
    assert rank_of_array([[int(i == j) for j in range(7)] for i in range(7)], F5) == 7
    zeros = [[0] * 6 for _ in range(4)]
    assert rank_of_array(zeros, F5) == 0
    assert len(zeros[0]) - rank_of_array(zeros, F5) == 6  # kernel dimension
    # rank drops exactly over the field: [[1,2],[3,6]] is singular mod 5
    assert rank_of_array([[1, 2], [3, 6]], F5) == 1
    # ... but [[1,2],[3,2]] (det = -4) is not
    assert rank_of_array([[1, 2], [3, 2]], F5) == 2


def test_characteristic_matters():
    a = [[2, 0], [0, 2]]
    assert rank_of_array(a, PrimeField(2)) == 0
    assert rank_of_array(a, PrimeField(3)) == 2


def test_large_prime_int64_fallback():
    """A prime with (p-1)^2 * dim past 2^53 still gives the exact rank."""
    p = (1 << 29) - 3
    F = PrimeField(p)
    rng = random.Random(5)
    a = random_matrix(rng, 8, 8, p)
    assert rank_of_array(a, F) == rank_mod_p(dict_columns(a), p)


@pytest.mark.parametrize("p", [(1 << 29) - 3, (1 << 31) - 1])
def test_int64_update_after_rank(p):
    """Columns fed after a rank() read reduce exactly against the pivots so far."""
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(20):
        dim = rng.randint(2, 10)
        columns = [
            {i: rng.randint(1, p - 1) for i in range(dim) if rng.random() < 0.6}
            for _ in range(rng.randint(2, dim + 2))
        ]
        # one column is a combination of two earlier ones: rank must not grow
        j, k = rng.sample(range(len(columns)), 2)
        a, b = rng.randint(1, p - 1), rng.randint(1, p - 1)
        combo = {}
        for col, s in ((columns[j], a), (columns[k], b)):
            for i, c in col.items():
                combo[i] = (combo.get(i, 0) + s * c) % p
        columns.insert(rng.randint(max(j, k) + 1, len(columns)), combo)
        builder = RankBuilder(F)
        for n, col in enumerate(columns, start=1):
            builder.add_column(col)
            assert builder.rank() == rank_mod_p(columns[:n], p)


def test_empty_input():
    F = PrimeField(3)
    b = RankBuilder(F)
    assert b.rank() == 0
    for _ in range(5):  # five columns of height zero
        b.add_column({})
    assert b.rank() == 0
