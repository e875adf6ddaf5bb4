"""Exact linear algebra over the rationals and over prime fields.

Vectors are tuples and matrices are tuples of row tuples.  Entries are ints
or Fractions and every routine is exact; nothing here ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence

Vec = tuple
Mat = tuple


def mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(tuple(r) for r in rows)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Mat, v: Sequence) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _echelon(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Q(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    rows = [[Q(x) for x in row] for row in m]
    rows, pivots = _echelon(rows)
    return mat(rows), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def inverse(m: Mat) -> Mat:
    n = len(m)
    aug = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(n)]
           for i, row in enumerate(m)]
    aug, pivots = _echelon(aug)
    if list(pivots[:n]) != list(range(n)):
        raise ValueError("matrix is singular")
    return mat(row[n:] for row in aug[:n])


def nullspace(m: Mat) -> tuple[Vec, ...]:
    """Basis of the right kernel, one vector per free column."""
    if not m:
        return ()
    ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def primitive_integer(v: Sequence[Q]) -> Vec:
    """Scale a rational vector to a primitive integer vector (gcd 1),
    with the first nonzero entry positive."""
    from math import gcd

    denoms = [Q(x).denominator for x in v]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(Q(x) * lcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


# --- arithmetic mod a prime -----------------------------------------------

def _echelon_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] % p != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % p != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace_mod(m: Mat, p: int) -> tuple[Vec, ...]:
    if not m:
        return ()
    ncols = len(m[0])
    rows = [[int(x) % p for x in row] for row in m]
    red, pivots = _echelon_mod(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r][f]) % p
        basis.append(tuple(v))
    return tuple(basis)
