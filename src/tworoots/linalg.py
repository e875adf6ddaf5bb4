"""Exact linear algebra over the rationals and over prime fields.

Entries are Python ints or Fractions and every answer is exact.  Arrays
inside, tuples at the API: arithmetic on whole matrices runs on numpy
arrays of dtype object holding such entries, and the package hands
matrices across its API as tuples of row tuples, which hash and appear in
JSON.  exact and mat are the two conversions between them.

There are two eliminations.  Over the rationals rref_int is Bareiss's
fraction-free pass on Python ints.  Mod a prime p, which check_prime
alone vets, it is Gauss-Jordan (rref_mod) on the uint64 array
residues(m, p), exact as no product of two residues, (p - 1)**2 < 2**64
at most, can wrap.  The modular pass also certifies rational answers (the
"cheap solve, exact certificate" pattern: Dixon, Numer. Math. 40, 1982;
Wan, J. Symb. Comput. 41, 2006): an integer matrix has at least its rank
mod p over Q, so full column rank mod CERT_PRIME proves a zero nullspace
over Q without the Bareiss pass, and the solve of [C | I] mod CERT_PRIME,
lifted to integers, is proven by one float64 product (lifted_solve).
rref_solve is its Bareiss fallback, and inverse its square case.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction as Q
from typing import Sequence

import numpy as np

Vec = tuple
Mat = tuple

# The prime of the certified routes: the largest prime below 2**31, so
# symmetric residues and their products fit int64.
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


@functools.cache
def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below 2**32 (trial division)."""
    if p >= 2 ** 32:
        raise ValueError("modulus must be below 2^32, got %d" % p)
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError("modulus must be a prime, got %d" % p)


def residues(m, p: int) -> np.ndarray:
    """The rows of m scaled to integers (_integer_row), mod p, as a uint64
    array of residues in [0, p): numpy's % on an integer matrix
    (int_array), Python's % row by row on any other; p is not checked."""
    got = int_array(m)
    if got is not None:
        return (got[0].astype(np.int64, copy=False) % p).astype(np.uint64)
    rows = [[x % p for x in _integer_row(row)] for row in m]
    return np.array(rows, np.uint64).reshape(len(rows), -1 if rows else 0)


def rref_int(m, p: int | None = None
             ) -> tuple[list[list[int]], tuple[int, ...], int]:
    """(R, pivots, den) with R / den the reduced row echelon form of m,
    R integer and den > 0.  Over the rationals: one fraction-free
    Gauss-Jordan pass over integers (Bareiss, Math. Comp. 22, 1968).
    Every row is updated at every step as (q x - f y) / prev, an exact
    division by the previous pivot q, so all entries stay integers and
    every pivot ends equal to the last one, den up to sign.  Mod p,
    checked first by check_prime even when m is empty, rref_mod
    eliminates residues(m, p), den is 1 and R holds ints in [0, p).  Rows
    of unequal length raise ValueError."""
    if p is not None:
        check_prime(p)
    ncols = len(m[0]) if len(m) else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("matrix rows must all have length %d" % ncols)
    if p is not None:
        a = residues(m, p)
        pivots = rref_mod(a, p)
        return a.tolist(), pivots, 1
    rows = [_integer_row(row) for row in m]
    nrows = len(rows)
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
    """The inverse of a square matrix, as Fractions: E M = I (rref_solve)."""
    x, den = rref_solve(exact(m).reshape(len(m), len(m)))
    return mat([Q(v, den) for v in row] for row in x.tolist())


def rref_solve(cols) -> tuple[np.ndarray, int]:
    """(solve, den) for the columns C (dim x k, ints or Fractions) of k
    independent vectors, from rref_int over the rationals of [C | I]; raises
    ValueError, "singular", when they are dependent.  The result is
    [[I; 0] | E] with E C = [I; 0], so the first k rows of E are a left
    inverse of C and the others cut out its span.  den is the least
    common denominator of E's entries and solve = den E, an object array
    of Python ints."""
    dim, k = cols.shape
    red, pivots, den = rref_int(np.hstack(
        [cols.astype(object), np.eye(dim, dtype=object)]))
    if pivots[:k] != tuple(range(k)):
        raise ValueError("matrix is singular: its columns are dependent")
    g = math.gcd(den, *(x for row in red for x in row[k:]))
    return exact([[x // g for x in row[k:]] for row in red]), den // g


def lifted_solve(cols) -> tuple[np.ndarray, int] | None:
    """rref_solve's (solve, den) for the int64 columns C, with solve in
    int64, from rref_mod of [C | I] mod P = CERT_PRIME and one exact
    check; None when C has rank below k mod P, the check's bound fails or
    the check fails.

    The right block E_P of the form mod P is lifted once: L holds the
    symmetric residues of 2 E_P, halved with den = 1 when every one is
    even, and den = 2 otherwise (E has denominators dividing 2 on every
    diagram tried).  Then L C = [den I; 0] is checked in float64, which
    is exact when max |L| max |C| dim < 2**53: every product and partial
    sum is then an integer float64 holds exactly.  Symmetric residues
    give max |L| < 2**30 and the canonical columns have max |C| = 2 on
    every diagram tried, so the bound holds for dim below 2**22, far past
    any basis that fits in memory; past the bound the result is None and
    rref_solve takes over.  L has full rank, as its determinant is
    den**dim det(E_P), nonzero mod P; so its functionals are independent.
    It is also exactly rref_solve's matrix: a symmetric residue is 0 only
    at 0, so L / den has the zeros and unit pivots of E_P, and with the
    check (L / den) [C | I] = [[I; 0] | L / den] is in reduced row echelon
    form over Q and row-equivalent to [C | I]; that form is unique, so
    L / den = E.  den is least, as at den 2 some entry of L = 2 E is odd."""
    p = CERT_PRIME
    dim, k = cols.shape
    a = np.hstack([cols % p, np.eye(dim, dtype=np.int64)]).astype(np.uint64)
    if rref_mod(a, p)[:k] != tuple(range(k)):
        return None
    lift = 2 * a[:, k:].astype(np.int64) % p
    lift = np.where(lift > p // 2, lift - p, lift)
    den = 2 if (lift % 2).any() else 1
    if den == 1:
        lift //= 2
    bound = (int(np.abs(lift).max()) * int(np.abs(cols).max(initial=0))
             * dim)
    if bound >= 2**53:
        return None
    check = lift.astype(np.float64) @ cols.astype(np.float64)
    if (check != den * np.eye(dim, k, dtype=np.int64)).any():
        return None
    return lift, den


def nullspace_rref(m: Mat, p: int | None = None) -> tuple[Vec, ...]:
    """Basis of the right kernel, one vector per free column, read off
    rref_int: Fractions over the rationals, ints in [0, p) mod a prime."""
    rows, pivots, den = rref_int(m, p)
    ncols = len(m[0]) if m else 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = den
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(Q(x, den) for x in v) if p is None
                     else tuple(x % p for x in v))
    return tuple(basis)


def nullspace(m: Mat, p: int | None = None) -> tuple[Vec, ...]:
    """nullspace_rref(m, p), with a certificate first over the rationals:
    the rows scaled to integers have at least their rank mod CERT_PRIME
    over Q, so when that rank is the number of columns the kernel is zero
    and () comes back without the Bareiss pass.  Any other matrix takes
    nullspace_rref's route."""
    # CERT_PRIME is prime: check_prime's trial division would cost ~5 ms
    if p is None and m and len(rref_mod(residues(m, CERT_PRIME),
                                        CERT_PRIME)) == len(m[0]):
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
