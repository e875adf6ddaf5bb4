"""Exact linear algebra over the rationals and over prime fields.

Entries are Python ints or Fractions and every routine is exact; nothing
here ever touches floats or fixed-width integers.  Arrays inside, tuples at
the API: arithmetic on whole matrices runs on numpy arrays of dtype object
holding such entries, and the package hands matrices across its API as
tuples of row tuples, which hash and appear in JSON.  exact and mat are the
two conversions between them.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Sequence

import numpy as np

Vec = tuple
Mat = tuple


def exact(m) -> np.ndarray:
    """A nested sequence of ints and Fractions as an object array."""
    return np.array(m, dtype=object)


def mat(m) -> Mat:
    """An array or nested sequence as a tuple of row tuples; an array's
    entries come back as Python ints and Fractions."""
    if isinstance(m, np.ndarray):
        m = m.tolist()
    return tuple(tuple(r) for r in m)


def _integer_row(row) -> list[int]:
    """The row times the lcm of its denominators: a row of Python ints
    with the same row space."""
    if all(type(x) is int for x in row):
        return list(row)
    row = [x if isinstance(x, int) else Q(x) for x in row]
    den = math.lcm(*(x.denominator for x in row if isinstance(x, Q)))
    return [int(x) * den if isinstance(x, int)
            else x.numerator * (den // x.denominator) for x in row]


def rref_int(m, p: int | None = None
             ) -> tuple[list[list[int]], tuple[int, ...], int]:
    """(R, pivots, den) with R / den the reduced row echelon form of m,
    R integer and den > 0, from one fraction-free Gauss-Jordan pass over
    integers (Bareiss, Math. Comp. 22, 1968).  Every row is updated at
    every step as (q x - f y) / prev, an exact division by the previous
    pivot q, so all entries stay integers and every pivot ends equal to
    the last one, den up to sign.  Mod a prime p the rows are reduced and
    each pivot row is scaled to 1, so the same step is plain elimination,
    den is 1 and R holds ints in [0, p)."""
    rows = [_integer_row(row) for row in m]
    if p is not None:
        rows = [[x % p for x in row] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        if p is not None:
            inv = pow(top[c], -1, p)
            top = rows[r] = [x * inv % p for x in top]
        q = top[c]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if not f:
                if q != prev:  # only rescale, to the new pivot
                    rows[i] = [q * x // prev for x in rows[i]]
            elif p is not None:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
            else:
                rows[i] = [(q * x - f * y) // prev
                           for x, y in zip(rows[i], top)]
        prev = q
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if prev < 0:
        rows, prev = [[-x for x in row] for row in rows], -prev
    return rows, tuple(pivots), prev


def rank(m: Mat) -> int:
    return len(rref_int(m)[1])


def inverse(m: Mat) -> Mat:
    n = len(m)
    rows, pivots, den = rref_int([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(m)])
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return mat([Q(x, den) for x in row[n:]] for row in rows[:n])


def nullspace(m: Mat, p: int | None = None) -> tuple[Vec, ...]:
    """Basis of the right kernel, one vector per free column, read off
    rref_int: Fractions over the rationals, ints in [0, p) mod a prime."""
    if not m:
        return ()
    ncols = len(m[0])
    rows, pivots, den = rref_int(m, p)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = den
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(Q(x, den) for x in v) if p is None
                     else tuple(x % p for x in v))
    return tuple(basis)


def primitive_integer(v: Sequence[Q]) -> Vec:
    """Scale a rational vector to a primitive integer vector (gcd 1),
    with the first nonzero entry positive."""
    ints = _integer_row(v)
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)
