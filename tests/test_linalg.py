"""Sparse exact linear algebra: the membership guard."""

import random

from whitney.linalg import annihilates


def _dense_annihilates(constraints, rows, ncols):
    dense = [[con.get(c, 0) for c in range(ncols)] for con in constraints]
    return all(sum(a * row.get(c, 0) for c, a in enumerate(con)) == 0
               for con in dense for row in rows)


def _random_row(rng, cols):
    return {c: rng.choice((-3, -2, -1, 1, 2, 3))
            for c in rng.sample(cols, rng.randint(0, min(4, len(cols))))}


def test_annihilates_matches_dense_products():
    rng = random.Random(20261018)
    ncols = 12
    # columns 10 and 11 are never touched by a constraint
    touched = list(range(10))
    for _ in range(300):
        constraints = [_random_row(rng, touched) for _ in range(rng.randint(0, 5))]
        rows = [_random_row(rng, list(range(ncols)))
                for _ in range(rng.randint(0, 4))]
        rows.append({})
        assert annihilates(constraints, rows) == _dense_annihilates(
            constraints, rows, ncols)


def test_annihilates_on_untouched_columns_and_empty_rows():
    constraints = [{0: 1, 1: -1}, {}, {2: 3}]
    assert annihilates(constraints, [{}, {5: 7}, {0: 2, 1: 2, 4: -1}])
    assert annihilates([], [{0: 1}])


def test_annihilates_catches_one_broken_product():
    # generators solving x1 = x0 and x3 = 2 x2, and one that breaks the first
    constraints = [{0: 1, 1: -1}, {2: 2, 3: -1}, {}]
    good = [{0: 1, 1: 1, 4: 5}, {2: 1, 3: 2}, {0: 3, 1: 3, 2: -2, 3: -4}, {4: -1}]
    assert annihilates(constraints, good)
    broken = {0: 1, 1: 2, 2: 1, 3: 2}
    assert not annihilates(constraints, good[:2] + [broken] + good[2:])
