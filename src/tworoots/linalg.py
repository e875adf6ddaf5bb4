"""Exact linear algebra over the rationals and over prime fields.

Entries are Python ints or Fractions and every answer is exact.  Arrays
inside, tuples at the API: arithmetic on whole matrices runs on numpy
arrays of dtype object holding such entries, and the package hands
matrices across its API as tuples of row tuples, which hash and appear in
JSON.  exact and mat are the two conversions between them.

There are two eliminations.  Over the rationals rref_int is Bareiss's
fraction-free pass on Python ints.  Mod a prime p < 2**32 it is
Gauss-Jordan on a uint64 array (rref_mod), which is exact because no
product of two residues, at most (p - 1)**2 < 2**64, can wrap.  The
modular pass also certifies rational answers: an integer matrix has at
least its rank mod p over Q, so full column rank mod CERT_PRIME proves a
zero nullspace over Q without the Bareiss pass (the "cheap solve, exact
certificate" pattern: Dixon, Numer. Math. 40, 1982; Wan, J. Symb. Comput.
41, 2006).
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Sequence

import numpy as np

Vec = tuple
Mat = tuple

# The prime of the certified routes here and in symsquare: the largest
# prime below 2**31, so symmetric residues and their products fit int64.
CERT_PRIME = 2**31 - 1


def exact(m) -> np.ndarray:
    """A nested sequence of ints and Fractions as an object array."""
    return np.array(m, dtype=object)


def mat(m) -> Mat:
    """An array or nested sequence as a tuple of row tuples; an array's
    entries come back as Python ints and Fractions."""
    if isinstance(m, np.ndarray):
        m = m.tolist()
    return tuple(tuple(r) for r in m)


def int_array(x) -> tuple[np.ndarray, int] | None:
    """(a, s) with a = np.array(x) and s its largest |entry| as a Python
    int, when numpy reads x as an integer array; raises ValueError when x
    is ragged.  None for any other x, which an int64 cast could change:
    Fractions and ints past int64 (dtype object), and floats.  The int64
    routes of the package take only what this accepts, and only under a
    bound on s.  s comes from the least and largest entry, not from
    np.abs, which leaves -2**63 negative."""
    a = np.array(x)
    if a.dtype.kind not in "bi":
        return None
    return a, max(int(a.max(initial=0)), -int(a.min(initial=0)))


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
    R integer and den > 0.  Over the rationals: one fraction-free
    Gauss-Jordan pass over integers (Bareiss, Math. Comp. 22, 1968).
    Every row is updated at every step as (q x - f y) / prev, an exact
    division by the previous pivot q, so all entries stay integers and
    every pivot ends equal to the last one, den up to sign.  Mod a prime
    p < 2**32 the rows are reduced mod p as Python ints and eliminated by
    rref_mod, den is 1 and R holds ints in [0, p); p >= 2**32 raises
    ValueError."""
    rows = [_integer_row(row) for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if p is not None:
        if p >= 2**32:
            raise ValueError("modulus must be below 2^32, got %d" % p)
        a = np.array([[x % p for x in row] for row in rows],
                     dtype=np.uint64).reshape(nrows, ncols)
        pivots = rref_mod(a, p)
        return a.tolist(), pivots, 1
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        q = top[c]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if not f:
                if q != prev:  # only rescale, to the new pivot
                    rows[i] = [q * x // prev for x in rows[i]]
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


def rref_mod(a: np.ndarray, p: int) -> tuple[int, ...]:
    """Reduce the uint64 array a of residues in [0, p), p a prime below
    2**32, in place to its reduced row echelon form mod p, and return the
    pivot columns.  Each pivot row is scaled to 1 and subtracted from just
    the rows with a nonzero entry in its column, on just the columns where
    the pivot row is nonzero, which keeps the work near the fill-in of a
    sparse matrix; a pivot row that is nonzero on every column from its
    pivot on updates that slice instead.  A row x takes
    (x + p - f y mod p) mod p, where f y <= (p - 1)**2 < 2**64 and the sum
    is below 2 p, so nothing wraps.  The form mod p is unique, so any
    exact elimination gives the same array."""
    q = np.uint64(p)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        below = a[r:, c].nonzero()[0]
        if not len(below):
            continue
        if below[0]:
            a[[r, r + below[0]]] = a[[r + below[0], r]]
        # columns before c are zero in every row from r on
        nonzero = c + a[r, c:].nonzero()[0]
        dense = len(nonzero) == ncols - c
        if dense:
            nonzero = slice(c, None)
        top = a[r, nonzero] * np.uint64(pow(int(a[r, c]), -1, p)) % q
        a[r, nonzero] = top
        hit = a[:, c].nonzero()[0]
        hit = hit[hit != r]
        if len(hit):
            block = (hit, nonzero) if dense else (hit[:, None], nonzero)
            a[block] = (a[block] + q - a[hit, c, None] * top % q) % q
        pivots.append(c)
        r += 1
    return tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref_int(m)[1])


def inverse(m: Mat) -> Mat:
    n = len(m)
    rows, pivots, den = rref_int([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(m)])
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return mat([Q(x, den) for x in row[n:]] for row in rows[:n])


def nullspace_rref(m: Mat, p: int | None = None) -> tuple[Vec, ...]:
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


def cert_pivots(m: Mat) -> tuple[int, ...]:
    """The pivot columns mod CERT_PRIME of m's rows scaled to integers.
    An integer matrix (int_array) is reduced mod CERT_PRIME in numpy and
    handed to rref_mod as it is; any other takes rref_int's route."""
    got = int_array(m)
    if got is None or got[0].ndim != 2:
        return rref_int(m, CERT_PRIME)[1]
    return rref_mod((got[0] % CERT_PRIME).astype(np.uint64), CERT_PRIME)


def nullspace(m: Mat, p: int | None = None) -> tuple[Vec, ...]:
    """nullspace_rref(m, p), with a certificate first over the rationals:
    the rows scaled to integers have at least their rank mod CERT_PRIME
    over Q, so when that rank (cert_pivots) is the number of columns the
    kernel is zero and () comes back without the Bareiss pass.  Any other
    matrix takes nullspace_rref's route."""
    if p is None and m and len(cert_pivots(m)) == len(m[0]):
        return ()
    return nullspace_rref(m, p)


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
