"""Sparse exact linear algebra: the membership guard and the growing
solution space."""

import random

from whitney.linalg import SolutionSpace, annihilates

import oracles


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


def _check_space(space, rows, ncols):
    rank = oracles.span_dim(rows)
    assert space.dim == ncols - rank
    for low in range(ncols + 1):
        # dim of the projection to the first low columns, densely: the rank
        # of [C; I_low] less the rank of C
        units = [{c: 1} for c in range(low)]
        assert space.projected_dim(low) == oracles.span_dim(rows + units) - rank
    basis = list(space.basis_iter())
    assert len(basis) == space.dim and oracles.span_dim(basis) == space.dim
    assert annihilates(rows, basis)


def test_extend_and_projected_dim_match_dense_ranks():
    rng = random.Random(20261019)
    for _ in range(100):
        ncols = rng.randint(0, 5)
        rows = [_random_row(rng, list(range(ncols)))
                for _ in range(rng.randint(0, 4))]
        space = SolutionSpace(rows, ncols)
        _check_space(space, rows, ncols)
        for _ in range(3):
            # new equations over old and new columns, or no new columns
            ncols += rng.randint(0, 3)
            new = [_random_row(rng, list(range(ncols)))
                   for _ in range(rng.randint(0, 4))]
            space.extend(new, ncols)
            rows += new
            _check_space(space, rows, ncols)

