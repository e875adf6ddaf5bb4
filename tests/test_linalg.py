import itertools
import random
from fractions import Fraction

import pytest

from tworoots import linalg
from tworoots.diagram import cartan, y_diagram


def low_rank(rng, nrows, ncols, rank, size):
    """A random integer matrix of at most the given rank, as a product of
    an nrows x rank and a rank x ncols factor."""
    if rank == 0:
        return linalg.mat([[0] * ncols for _ in range(nrows)])
    left = [[rng.randint(-size, size) for _ in range(rank)]
            for _ in range(nrows)]
    right = [[rng.randint(-size, size) for _ in range(ncols)]
             for _ in range(rank)]
    return linalg.mat(linalg.exact(left) @ linalg.exact(right))


@pytest.mark.parametrize("seed", range(12))
def test_nullspace_of_random_low_rank_matrices(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    m = low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)),
                 rng.choice([2, 9, 10 ** 6]))
    null = linalg.nullspace(m)
    for v in null:
        assert all(x == 0 for x in linalg.exact(m) @ linalg.exact(v))
    assert len(null) == ncols - linalg.rank(m)
    # rank over Q is at least rank mod p
    for p in (2, 3, 1000003):
        assert linalg.rank(m) >= ncols - len(linalg.nullspace(m, p))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_nullspace_mod_p_spans_the_enumerated_kernel(seed, p):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
    m = low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)),
                 rng.choice([2, 9, 10 ** 6]))
    kernel = {v for v in itertools.product(range(p), repeat=ncols)
              if all(x % p == 0 for x in linalg.exact(m) @ linalg.exact(v))}
    null = linalg.nullspace(m, p)
    assert set(null) <= kernel
    span = {tuple(sum(c * x for c, x in zip(cs, col)) % p
                  for col in zip(*null)) if null else (0,) * ncols
            for cs in itertools.product(range(p), repeat=len(null))}
    assert span == kernel and len(kernel) == p ** len(null)


def test_rref_of_fraction_rows_matches_scaled_integer_rows():
    rng = random.Random(7)
    rows = [[Fraction(rng.randint(-20, 20), rng.randint(1, 6))
             for _ in range(7)] for _ in range(5)]
    rows.append([x + y for x, y in zip(rows[0], rows[1])])
    scaled = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator
        scaled.append([int(x * den) for x in row])
    assert linalg.nullspace(rows) == linalg.nullspace(scaled)
    assert linalg.rank(rows) == linalg.rank(scaled) == 5
    kernel = linalg.nullspace(rows)
    assert all(isinstance(x, Fraction) for v in kernel for x in v)
    for v in kernel:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    # columns 5 and 6 are free: one vector for each, 1 there and 0 at the other
    assert [v[5:] for v in kernel] == [(1, 0), (0, 1)]


def test_inverse_of_the_e8_cartan_matrix():
    a = cartan(y_diagram(1, 2, 4))
    eye = linalg.mat(linalg.exact(linalg.inverse(a)) @ linalg.exact(a))
    assert eye == tuple(tuple(int(i == j) for j in range(8))
                        for i in range(8))


def test_singular_inverse_raises():
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse(((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse(cartan(y_diagram(2, 2, 2)))  # affine E6


def test_empty_matrix():
    assert linalg.rank(()) == 0
    assert linalg.nullspace(()) == ()
    assert linalg.inverse(()) == ()
