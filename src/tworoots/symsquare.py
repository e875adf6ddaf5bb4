"""Symmetric squares of root-lattice elements.

An element of the symmetric square is stored as a symmetric n x n matrix S
whose (i, j) entry is the coefficient of alpha_i (x) alpha_j.  The product
a v b of two vectors has matrix a b^T + b a^T, reflections act by congruence
R S R^T, and the distinguished codimension-one submodule is the kernel of
S |-> trace(A S).  Arrays inside, tuples at the API: matrix arithmetic runs
on linalg's exact object arrays, and every matrix handed out is a tuple of
row tuples of Python ints and Fractions, so that it can be a dict key.
Only what a caller reads is built: a basis element's matrix is vee of
its pair on first read, and the basis itself builds none.

The canonical basis pairs each simple root alpha_i with its elementary
partners.  One certified elimination per diagram (linalg.lifted_solve, or
linalg.rref_solve when its proof fails) turns it into two integer
matrices: a scaled left inverse that gives the coordinates over the basis,
and the functionals that vanish on its span.  expand multiplies by them in
int64 when every entry of the input is at most a cap, (2**63 - 1) over the
largest row sum of |entries| of the two matrices, so that no sum can
overflow; past the cap, and on Fractions, it falls back to the exact
object-dtype solve, and both routes give the same tuples.  expand_pair
goes to the same int64 solve straight from the standard coordinates of
its two roots, with no matrix, when their entries are Python ints of
size m with 2 m**2 <= the cap, and is expand of their matrix otherwise.
Each simple reflection s_i negates the elements containing alpha_i and
adds to some others one partner alpha_i v gamma, read off their pairs by
the form; the basis keeps only these rows, where its matrix differs from
the identity, and acts on words and summands through them.  expand_pairs
solves a whole stack of pairs a v b at once, in float64 under a bound of
the same kind.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import chain

import numpy as np

from . import linalg
from .diagram import Diagram, TypeClass, adjacent, cartan, classify, closure
from .roots import (Root, bform, elementary_roots, height, is_root,
                    positive_roots, simple_root)

SymMatrix = tuple[tuple, ...]


def vee(a, b) -> SymMatrix:
    """Symmetrized product: matrix of a (x) b + b (x) a.  Row i is
    a_i b + b_i a; vectors of unequal length raise ValueError.  When
    every entry is a Python int, the rows with a_i = b_i = 0 are one
    shared tuple of int zeros, which is what the sum would give; any
    other entry (a Fraction, a float, a numpy scalar) can make 0 x of
    another type, so then every row is summed."""
    ints, zero = all(type(x) is int for x in chain(a, b)), (0,) * len(a)
    return tuple(zero if ints and x == 0 == y
                 else tuple([x * bj + y * aj for aj, bj in zip(a, b)])
                 for x, y in zip(a, b, strict=True))


def m_functional(d: Diagram, s: SymMatrix):
    """trace(A S): vanishes exactly on the codimension-one submodule.
    Takes the value 2 B(alpha, beta) on alpha v beta."""
    total = 2 * sum(s[i][i] for i in range(d.n))
    for u, v in d.edges:
        total -= 2 * s[u][v]
    return total


def standard_coords(s: SymMatrix) -> tuple:
    """The upper triangle s[i][j], i <= j, in lexicographic order: the
    coordinates over alpha_i v alpha_j for i < j and alpha_i (x) alpha_i
    on the diagonal.  A linear bijection, so it keeps spans and ranks."""
    n = len(s)
    return tuple(s[i][j] for i in range(n) for j in range(i, n))


@functools.cache
def _upper(n: int):
    """np.triu_indices(n), the standard_coords order, cached read-only."""
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def pair_coords_np(pairs):
    """standard_coords of a v b for every pair (a, b) of an integer stack
    (..., 2, n), as an array (..., n (n + 1) / 2)."""
    rows, cols = _upper(pairs.shape[-1])
    a, b = pairs[..., 0, :], pairs[..., 1, :]
    return a[..., rows] * b[..., cols] + b[..., rows] * a[..., cols]


def reflection_matrix(d: Diagram, alpha) -> linalg.Mat:
    """Matrix of reflection in a norm-2 vector, acting on coefficient
    columns."""
    if bform(d, alpha, alpha) != 2:
        raise ValueError("can only reflect in a norm-2 vector")
    alpha = linalg.exact(alpha)
    return linalg.mat(np.eye(d.n, dtype=object)
                      - np.outer(alpha, linalg.exact(cartan(d)) @ alpha))


@functools.cache
def simple_matrices(d: Diagram) -> tuple[linalg.Mat, ...]:
    return tuple(reflection_matrix(d, simple_root(d, i)) for i in range(d.n))


def conjugate(r: linalg.Mat, s: SymMatrix) -> SymMatrix:
    r = linalg.exact(r)
    return linalg.mat(r @ linalg.exact(s) @ r.T)


def apply_simple(d: Diagram, i: int, s: SymMatrix) -> SymMatrix:
    return conjugate(simple_matrices(d)[i], s)


def apply_word(d: Diagram, word, s: SymMatrix) -> SymMatrix:
    """Act by s_{w[0]} s_{w[1]} ... s_{w[-1]} (rightmost letter first):
    congruence by the product of their reflection matrices."""
    r = np.eye(d.n, dtype=object)
    for i in word:
        r = r @ linalg.exact(simple_matrices(d)[i])
    return conjugate(r, s)


def root_pair(a, b) -> tuple[Root, Root]:
    """Canonically ordered pair of coefficient vectors."""
    u, v = tuple(a), tuple(b)
    return (u, v) if (height(u), u) <= (height(v), v) else (v, u)


# --- canonical basis -------------------------------------------------------

_FORMS = 8  # first roots per block of expand_pairs: its products stay small


@dataclass(frozen=True)
class BasisElement:
    pair: tuple[Root, Root]
    labels: tuple[tuple[int, Root], ...]  # (vertex i, elementary partner)

    @functools.cached_property
    def matrix(self) -> SymMatrix:
        """vee(*pair), built on first read and kept."""
        return vee(*self.pair)

    def __repr__(self) -> str:
        i, beta = self.labels[0]
        return "a%d v %s" % (i, "+".join(
            ("a%d" % k) if c == 1 else ("%da%d" % (c, k))
            for k, c in enumerate(beta) if c) or "0")


class CanonicalBasis:
    """The distinguished basis alpha_i v beta, beta elementary for i,
    together with the exact expansion solver over it."""

    def __init__(self, d: Diagram):
        self.diagram = d
        # For positive norm-2 roots a v b determines {a, b}, so the pair
        # dedupes the elements as well as the matrix would.
        labels: dict[tuple[Root, Root], list[tuple[int, Root]]] = {}
        for i in range(d.n):
            for beta in elementary_roots(d, i):
                labels.setdefault(root_pair(simple_root(d, i), beta),
                                  []).append((i, beta))
        self.elements = tuple(BasisElement(p, tuple(lbl))
                              for p, lbl in labels.items())
        k = len(self.elements)
        self._pairs = np.array(list(labels), dtype=np.int64).reshape(k, 2, d.n)
        self._coords = pair_coords_np(self._pairs)

        if d.kind == "Y":
            assert k == d.n * (d.n + 1) // 2 - 1
        elif d.n >= 3:
            assert k == (d.n - 2) * (d.n + 1) // 2

        cols = self._coords.T
        solve, self._den = linalg.lifted_solve(cols) or linalg.rref_solve(cols)
        # First k rows: the left inverse times _den; the rest: the span's
        # functionals.  _cap is the largest |entry| of an input that
        # expand multiplies in int64: 2**63 - 1 floor-divided by the
        # largest row L1 norm of _solve, so every partial sum of
        # _solve @ v stays inside int64 when max |v| <= _cap.  (The
        # largest norm is 30 on E8, 50 on Y(4,4,4) and 124 on D20, where
        # _cap is about 7.4 * 10**16.)  _solve is int64, or Python ints
        # when a norm past int64 makes _cap 0.
        self._norm = max(1, int(np.abs(solve).sum(axis=1).max()))
        self._cap = (2**63 - 1) // self._norm
        self._solve = solve.astype(np.int64 if self._cap else object)

    def __len__(self) -> int:
        return len(self.elements)

    def wrt(self, i: int) -> tuple[int, ...]:
        """Indices of the elements alpha_i v beta for this vertex."""
        if not 0 <= i < self.diagram.n:
            raise ValueError("vertex out of range")
        return tuple(k for k, e in enumerate(self.elements)
                     if any(j == i for j, _ in e.labels))

    # -- expansion ---------------------------------------------------------

    def expand(self, s: SymMatrix) -> tuple:
        """Exact coordinates of s over the basis, as Python ints and
        Fractions; raises ValueError when s is not a symmetric n x n
        matrix or is outside the span.  The upper triangle v of s is
        multiplied by _solve: the first rows give the coordinates times
        _den and the others must vanish.  When numpy reads s as an
        integer array with max |v| <= _cap (see __init__) the product
        runs in int64, where no sum can overflow, and one divmod by _den
        gives the coordinates; any other s (Fractions, integers past the
        cap, floats) takes the exact object-dtype route on its entries as
        given, where numpy multiplies _solve's entries as Python ints."""
        n = self.diagram.n
        if len(s) != n:
            raise ValueError("matrix size %d does not match diagram rank %d"
                             % (len(s), n))
        try:
            ints = linalg.int_array(s)
        except ValueError:
            raise ValueError("matrix rows must all have length %d"
                             % n) from None
        # ints past int64 would become floats in a plain np.array
        m = linalg.exact(s) if ints is None else ints[0]
        if m.shape != (n, n):
            raise ValueError("matrix must be %d x %d" % (n, n))
        if (m != m.T).any():
            raise ValueError("matrix is not symmetric")
        v = m[_upper(n)]
        # s is symmetric, so its largest |entry| is v's
        if ints is not None and ints[1] <= self._cap:
            got = self._int_solve(v.astype(np.int64, copy=False))
            if got is not None:
                return got
        c = self._solve @ v.astype(object)
        c, outside = c[:len(self.elements)], c[len(self.elements):]
        if outside.any():
            if self.diagram.kind == "Y" and m_functional(self.diagram, s) != 0:
                raise ValueError("element lies outside the codimension-one "
                                 "submodule (nonzero trace functional)")
            raise ValueError("element is not in the span of the canonical basis")
        den = self._den
        return tuple(x // den if x % den == 0 else Q(x, den)
                     for x in c.tolist())

    def _int_solve(self, v) -> tuple | None:
        """The coordinates over the basis, as Python ints, of the element
        whose standard coordinates are the int64 vector v, max |v| <=
        _cap: one int64 product by _solve, where no sum can overflow (see
        __init__), and one divmod by _den.  None when v is off the span
        or a coordinate is not an integer; the caller then takes the
        exact route, which gives the same product."""
        c = self._solve @ v
        q, r = np.divmod(c[:len(self.elements)], self._den)
        if c[len(self.elements):].any() or r.any():
            return None
        return tuple(q.tolist())

    def expand_pair(self, a, b) -> tuple:
        """Coordinates of a v b; a and b must be orthogonal roots.  When
        every entry is a Python int and m, the largest |entry|, has
        2 m**2 <= _cap, no matrix is built: the standard coordinates of
        a v b, each a_i b_j + a_j b_i of size at most 2 m**2, go to
        expand's int64 solve.  Any other pair, or one off the span or
        with a coordinate that is not an integer, is expand(vee(a, b)),
        so every answer keeps the value and type that expand gives."""
        d = self.diagram
        for v in (a, b):
            if not is_root(d, v):
                raise ValueError("%s is not a root" % (tuple(v),))
        if bform(d, a, b) != 0:
            raise ValueError("the two roots are not orthogonal")
        if all(type(x) is int for x in chain(a, b)):
            m = max(map(abs, chain(a, b)))
            if 2 * m * m <= self._cap:
                got = self._int_solve(
                    pair_coords_np(np.array((a, b), dtype=np.int64)))
                if got is not None:
                    return got
        return self.expand(vee(a, b))

    @functools.cached_property
    def _bilinear(self):
        """_solve and h, the sum of its first K rows, as bilinear forms: a @
        T.reshape(n, n, -1) @ b is _solve times the standard coordinates of
        a v b and a @ H @ b is h's, as T[i, j] = T[j, i] is _solve's column
        at coordinate (i, j), doubled for i == j.  T is float64, H int64."""
        n = self.diagram.n
        rows, cols = _upper(n)
        t = np.zeros((n, n, len(self._solve)), dtype=np.int64)
        t[rows, cols] = t[cols, rows] = self._solve.T
        t[np.arange(n), np.arange(n)] *= 2
        return t.reshape(n, -1).astype(float), t[..., :len(self)].sum(axis=2)

    def _pair_bound(self, vec, ends):
        """RuntimeError unless 2 K m**2 _norm < 2**53 for m = max |vec[ends]|:
        then float64 holds every partial sum of a product by T or H exactly,
        at most m**2 times twice a row norm of _solve or of h (<= K _norm)."""
        used = np.zeros(len(vec), dtype=bool)
        used[ends.ravel()] = True
        m = max(int(vec[used].max(initial=0)), -int(vec[used].min(initial=0)))
        if 2 * len(self) * m * m * self._norm >= 2**53:
            raise RuntimeError("pair entries up to %d pass float64" % m)

    def expand_pairs(self, vec, ends) -> np.ndarray:
        """The (F, K) int64 expansions of vec[x] v vec[y] for the rows (x, y)
        of the index array ends, exact (see _pair_bound): for each distinct
        x, vec[x] @ T is the matrix of y |-> _solve times x v y, applied to
        the stack of x's partners by np.einsum, which never calls BLAS.
        RuntimeError past the bound, or off the basis span or lattice."""
        n, k, den = self.diagram.n, len(self), self._den
        self._pair_bound(vec, ends)
        out = np.empty((len(ends), k), dtype=np.int64)
        by = np.argsort(ends[:, 0], kind="stable")
        xs, at = np.unique(ends[by, 0], return_index=True)
        at = np.append(at, len(by)).tolist()
        vec = vec.astype(np.float64)
        ys = vec[ends[by, 1]]
        for g0 in range(0, len(xs), _FORMS):
            g1 = min(g0 + _FORMS, len(xs))
            forms = np.einsum("xi,iw->xw", vec[xs[g0:g1]], self._bilinear[0])
            c = np.concatenate([np.einsum("fj,jw->fw", ys[a:b], f) for f, a, b
                                in zip(forms.reshape(g1 - g0, n, -1),
                                       at[g0:g1], at[g0 + 1:g1 + 1])])
            q = np.rint(c[:, :k] / den)
            if c[:, k:].any() or (q * den != c[:, :k]).any():
                raise RuntimeError("a pair is off the basis span or lattice")
            out[by[at[g0]:at[g1]]] = q
        return out

    def heights_within(self, vec, ends, bound) -> np.ndarray:
        """Whether each pair vec[x] v vec[y], for the rows (x, y) of ends,
        has coordinate height at most bound, exactly in int64 (see
        _pair_bound): vec[x] @ H @ vec[y] is _den times the height."""
        self._pair_bound(vec, ends)
        h = self._bilinear[1]
        return (((vec[ends[:, 0]] @ h) * vec[ends[:, 1]]).sum(axis=1)
                <= bound * self._den)

    def combine(self, coords) -> SymMatrix:
        """The matrix with these coordinates over the basis."""
        n = self.diagram.n
        rows, cols = _upper(n)
        m = np.empty((n, n), dtype=object)
        m[rows, cols] = m[cols, rows] = (linalg.exact(coords)
                                         @ self._coords.astype(object))
        return linalg.mat(m)

    # -- simple reflection action -----------------------------------------

    @functools.cached_property
    def _row_form(self):
        """Per simple reflection s_i, the rows where its matrix over the
        basis differs from the identity and a copy of those rows, read off
        the pairs once per basis.  For x = B(a, alpha_i), y = B(b, alpha_i),
        s_i(a v b) = a v b + alpha_i v gamma with gamma = x y alpha_i -
        y a - x b: the rows are the elements containing alpha_i, negated,
        and each other element with gamma != 0 puts +1 in the one row whose
        other root equals gamma; no match or two raise RuntimeError."""
        pairs, k = self._pairs, len(self.elements)
        form = pairs @ np.array(cartan(self.diagram), dtype=np.int64)
        simple = pairs.sum(axis=2) == 1  # positive roots of height 1
        out = []
        for i in range(self.diagram.n):
            x, y = form[:, 0, i], form[:, 1, i]
            own = simple & (pairs[:, :, i] == 1)  # the slot holding alpha_i
            rows = np.flatnonzero(own.any(axis=1))
            other = pairs[rows, own[rows, 0].astype(np.intp)]  # beside it
            gamma = -y[:, None] * pairs[:, 0] - x[:, None] * pairs[:, 1]
            gamma[:, i] += x * y
            moved = np.flatnonzero(~own.any(axis=1) & gamma.any(axis=1))
            hit = (gamma[moved, None] == other).all(axis=2)
            if (hit.sum(axis=1) != 1).any():
                raise RuntimeError("reflection image left the basis lattice")
            sub = np.zeros((len(rows), k), dtype=np.int64)
            sub[np.arange(len(rows)), rows] = -1
            sub[np.nonzero(hit)[1], moved] = 1
            out.append((rows, sub))
        return tuple(out)

    @functools.cached_property
    def _action_np(self):
        mats = np.stack([np.eye(len(self), dtype=np.int64)] * self.diagram.n)
        for m, (rows, sub) in zip(mats, self._row_form):
            m[rows] = sub
        mats.flags.writeable = False
        return tuple(mats)

    def action_matrices_np(self):
        """One integer matrix per simple reflection: column j expands s_i
        of element j over the basis.  The identity with the row form's
        rows written in, built on first use for the checks and shared
        read-only; the library itself reads only the row form."""
        return self._action_np

    @functools.cached_property
    def _summands(self):
        joined = np.zeros((len(self), len(self)), dtype=bool)
        for rows, sub in self._row_form:
            joined[rows] |= sub != 0
        joined |= joined.T
        out = []
        for j in range(len(self)):
            if all(j not in s for s in out):
                out.append(tuple(sorted(closure(
                    [j], lambda k: np.flatnonzero(joined[k]).tolist()))))
        return tuple(out)

    def summands(self) -> tuple[tuple[int, ...], ...]:
        """The connected components, as sorted index tuples in the order of
        their least elements, of the graph joining elements j and k when
        some row of the row form has a nonzero (k, j) entry.  Each is
        closed under every reflection, so it spans a W-invariant summand;
        in finite type it is the set of basis elements in one orbit, which
        orbit_tables checks.  One K x K boolean adjacency, once per basis:
        every call returns the same tuple."""
        return self._summands

    @functools.cached_property
    def _rows(self):
        """The row form padded into three arrays (rows, cols, coefs): for
        letter i and slot r, rows[i, r] is a row its matrix rewrites, and
        that row's entries are coefs[i, r] at columns cols[i, r].  Every
        letter gets the same number of slots and every slot the same
        width, by repeating rows and adding zero coefficients.  Read by
        orbits.highest_pair, whose climb gathers all letters at once from
        these arrays."""
        form = self._row_form
        depth = max(len(rows) for rows, _ in form)
        width = max([1] + [int(np.count_nonzero(sub, axis=1).max())
                           for _, sub in form if len(sub)])
        rows = np.zeros((len(form), depth), dtype=np.intp)
        cols = np.zeros((len(form), depth, width), dtype=np.intp)
        coefs = np.zeros((len(form), depth, width), dtype=np.int64)
        for i, (changed, sub) in enumerate(form):
            if not len(changed):  # pad with the identity's row 0
                changed = np.zeros(1, dtype=np.intp)
                sub = np.eye(1, len(self.elements), dtype=np.int64)
            slot = np.resize(np.arange(len(changed)), depth)
            padded = sub[slot]
            r, c = np.nonzero(padded)
            at = np.arange(len(r)) - np.searchsorted(r, r)  # place in row
            rows[i] = changed[slot]
            cols[i, r, at] = c
            coefs[i, r, at] = padded[r, c]
        return rows, cols, coefs

    def _act(self, word, x):
        """x multiplied on the left by the matrix of s_{w[0]} ... s_{w[-1]},
        rewritten in place.  Per letter only the rows where its matrix
        differs from the identity change (n - 1 on forks, n - 2 on paths),
        so x[rows] = sub @ x with the cached rows and copy sub of the row
        form; each rewritten row is the same sum the dense product makes."""
        n = self.diagram.n
        if any(not 0 <= i < n for i in word):
            raise ValueError("word letters must be vertices 0..%d" % (n - 1))
        form = self._row_form
        for i in reversed(word):
            rows, sub = form[i]
            x[rows] = sub @ x
        return x

    def word_matrix(self, word) -> linalg.Mat:
        """Exact integer matrix of s_{w[0]} ... s_{w[-1]} over the basis;
        concatenating words multiplies the matrices."""
        return linalg.mat(
            self._act(word, np.eye(len(self.elements), dtype=object)))

    def word_column(self, word, j: int) -> tuple[int, ...]:
        """Column j of word_matrix(word), via fast integer arithmetic.
        Column sums at most double per letter, so values stay below 2**62
        for any word of up to 60 letters; longer words are refused.  The
        row update of _act writes the same sums as the dense product, and
        its partial sums add distinct coordinates with coefficients +-1,
        so they stay within the column's sum of absolute values too."""
        if len(word) > 60:
            raise ValueError("word too long for the fast path")
        if not 0 <= j < len(self.elements):
            raise ValueError("column index must be 0..%d"
                             % (len(self.elements) - 1))
        v = np.zeros(len(self.elements), dtype=np.int64)
        v[j] = 1
        return tuple(self._act(word, v).tolist())

    # -- star maps between vertex classes ----------------------------------

    def star_map(self, i: int, j: int) -> dict[int, int]:
        """For adjacent vertices, the bijection sending alpha_i v beta to
        s_i s_j of it, which lands on an alpha_j element: its column
        word_column((i, j), k) must be a unit vector."""
        if not adjacent(self.diagram, i, j):
            raise ValueError("star maps need adjacent vertices")
        targets = self.wrt(j)
        out = {}
        for k in self.wrt(i):
            col = self.word_column((i, j), k)
            hit = [t for t, x in enumerate(col) if x]
            if len(hit) != 1 or col[hit[0]] != 1 or hit[0] not in targets:
                raise RuntimeError("star map left the expected vertex class")
            out[k] = hit[0]
        return out


@functools.cache
def canonical_basis(d: Diagram) -> CanonicalBasis:
    return CanonicalBasis(d)


def sign_coherent(coords) -> tuple[bool, int | None]:
    """Whether all nonzero coordinates share one sign; the sign is +1, -1,
    or 0 for the zero vector."""
    pos = any(c > 0 for c in coords)
    neg = any(c < 0 for c in coords)
    if pos and neg:
        return False, None
    if pos:
        return True, 1
    if neg:
        return True, -1
    return True, 0


# --- component recovery ---------------------------------------------------

def components(d: Diagram, s: SymMatrix) -> tuple[Root, Root]:
    """Recover {alpha, beta} from the matrix of alpha v beta.  Candidate
    first components are enumerated roots; the partner is then forced
    linearly and checked exactly.  The returned pair is canonically
    ordered, preferring the representative with positive components."""
    if all(x == 0 for row in s for x in row):
        raise ValueError("the zero element has no components")
    n = d.n
    maxe = max(abs(x) for row in s for x in row)
    bound = None if classify(d) is TypeClass.FINITE else n * maxe + 2
    for a in positive_roots(d, bound):
        k = next(i for i in range(n) if a[i] != 0)
        bk = Q(s[k][k], 2 * a[k])
        b = tuple((Q(s[k][j]) - bk * a[j]) / a[k] for j in range(n))
        if any(x.denominator != 1 for x in b):
            continue
        b = tuple(int(x) for x in b)
        if all(x == 0 for x in b) or bform(d, b, b) != 2:
            continue
        if bform(d, a, b) != 0 or vee(a, b) != s:
            continue
        if not is_root(d, b, bound):
            continue
        return root_pair(a, b)
    raise ValueError("not a product of two orthogonal roots "
                     "(within the search bound)")
