"""Orbits of positive 2-roots under the Weyl group.

A 2-root is handled through its unordered pair of orthogonal positive
roots.  Reflections act on the pair componentwise followed by sign
normalization, which matches the action on the symmetric square up to the
overall sign that never shows up on positive representatives.

Orbits are walked breadth first over the pair graph, one layer of pairs at
a time as numpy arrays: all of a diagram's orbits in one walk from the
least element of every summand of the canonical basis (orbit tables), or
one orbit from any pair (orbit_of, cut at a coordinate height).  The walk
keeps a table of positive roots, each with the indices of its simple
reflections: in finite type it is seeded with every positive root and
filled once before the walk, on a cut walk it grows by the roots each
layer meets.  A pair is one int64 key of its two root indices, so a layer
is reflected by one gather and deduplicated by one sort of single keys
(see _pair_layers for why int64 is exact).  Every pair carries its exact
expansion over the canonical basis along every edge, each edge checked
once, in the direction first met: the simple reflections act on the
coordinates by involutions, so the reverse edge holds when the forward one
does.  Membership, heights, and the coordinatewise order come for free.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .diagram import (Diagram, TypeClass, cartan, classify, neighbors,
                      parabolic_restrict)
from .roots import (Root, bform, height, is_positive, negate, positive_roots,
                    root_from_labels, simple_reflect)
from .symsquare import (SymMatrix, canonical_basis, pair_coords_np,
                        root_pair, vee)

Pair = tuple[Root, Root]


def vee_pair(p: Pair) -> SymMatrix:
    return vee(p[0], p[1])


def normalize_root(v) -> Root:
    return tuple(v) if is_positive(v) else negate(v)


def simple_pair_action(d: Diagram, i: int, p: Pair) -> Pair:
    return root_pair(normalize_root(simple_reflect(d, i, p[0])),
                     normalize_root(simple_reflect(d, i, p[1])))


def pair_action(d: Diagram, word, p: Pair) -> Pair:
    """Act by s_{w[0]} ... s_{w[-1]}, rightmost letter first, on a pair of
    roots of either sign and in either order; the empty word returns p
    unchanged.  Equals the fold of simple_pair_action over the word, but
    reflects both roots as plain coefficient lists through the whole word
    and normalises once at the end: reflections are linear, so
    s(-r) = -s(r), and the sign and order that each step of the fold picks
    commute with the letters still to come."""
    if len(word) == 0:
        return p
    n, adj = d.n, neighbors(d)
    a, b = list(p[0]), list(p[1])
    for i in reversed(word):
        if not 0 <= i < n:
            raise ValueError("word letters must be vertices 0..%d" % (n - 1))
        x = y = 0
        for j in adj[i]:
            x += a[j]
            y += b[j]
        a[i] = x - a[i]  # s_i r = r - B(r, alpha_i) alpha_i
        b[i] = y - b[i]
    return root_pair(normalize_root(a), normalize_root(b))


def orthogonal_pairs(d: Diagram,
                     height_bound: int | None = None) -> tuple[Pair, ...]:
    """All unordered pairs of orthogonal positive roots, by brute force."""
    roots = positive_roots(d, height_bound)
    out = [root_pair(x, y) for x, y in combinations(roots, 2)
           if bform(d, x, y) == 0]
    return tuple(sorted(out))


@dataclass(frozen=True)
class OrbitTable:
    id: int
    members: tuple[Pair, ...]          # sorted by matrix key
    basis_members: tuple[int, ...]     # the summand, as basis indices
    highest: Pair
    height: int
    # row k: the expansion of members[k], read-only int64
    expansions: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.members)

    @functools.cached_property
    def coords(self) -> dict:
        """pair -> integer expansion tuple, built on first access."""
        return dict(zip(self.members, map(tuple, self.expansions.tolist())))


# A 2-root of a walk is the int64 key lo << _KEY_SHIFT | hi of the indices
# lo < hi of its two roots in the walk's _RootTable.
_KEY_SHIFT = 32


class _RootTable:
    """The positive roots of one walk, interned in the order given: row k
    of vec is root k, and row k of refl, once filled, holds the indices of
    its n sign-normalised simple reflections (-1 until then)."""

    def __init__(self, d: Diagram):
        self.a = np.array(cartan(d), dtype=np.int64)
        self.index: dict[bytes, int] = {}
        self.vec = np.zeros((0, d.n), dtype=np.int64)
        self.refl = self.vec.copy()

    def intern(self, roots: np.ndarray) -> np.ndarray:
        """The indices of the rows of the int64 stack roots, new roots
        appended.  Raises RuntimeError rather than hand out an index of
        2**(_KEY_SHIFT - 1) or more, which a key could not hold."""
        out, new = [], []
        for r in roots:
            k = self.index.setdefault(r.tobytes(), len(self.index))
            if k == len(self.vec) + len(new):
                new.append(r)
            out.append(k)
        if len(self.index) > 1 << (_KEY_SHIFT - 1):
            raise RuntimeError("the walk met more than 2**%d roots"
                               % (_KEY_SHIFT - 1))
        if new:
            self.vec = np.concatenate([self.vec, new])
            self.refl = np.concatenate(
                [self.refl, np.full((len(new), self.a.shape[0]), -1)])
        return np.array(out, dtype=np.int64)

    def reflect(self, idx: np.ndarray) -> None:
        """Fill the reflection rows of the roots idx that lack one, as one
        batch: s_j r = r - B(r, alpha_j) alpha_j, negated when negative
        (of the reflections of a positive root only s_j alpha_j is)."""
        idx = idx[self.refl[idx, 0] < 0]
        if not len(idx):
            return
        form = self.vec[idx] @ self.a  # form[h, j] = B(root idx[h], alpha_j)
        h, j = np.nonzero(form)
        s = self.vec[idx[h]]
        s[np.arange(len(h)), j] -= form[h, j]
        s *= np.sign(s.sum(axis=1, keepdims=True))
        rows = np.repeat(idx[:, None], self.a.shape[0], axis=1)
        rows[h, j] = self.intern(s)
        self.refl[idx] = rows


def _pair_layers(d: Diagram, pairs, coords, height_bound=None):
    """The union of the orbits of the given start pairs under the simple
    reflections, the members' expansions over the canonical basis as the
    rows of an int64 array, carried from the starts' coords (row s for
    pairs[s]), and for each member the index s of the start it was reached
    from.  Members are sorted by that index, then as by vee_pair.

    The walk runs on indices into a _RootTable.  In finite type the table
    is seeded before the walk with every positive root, their simple
    reflections filled in one numpy batch, as every orbit meets every
    root; on a cut walk it interns each root the first time a layer holds
    it and fills in its n simple reflections in one batch per layer.  A
    2-root is the one int64 key lo << 32 | hi of its root indices
    lo < hi; an index stays below 2**31 (the table raises RuntimeError
    first), so hi fits the low 32 bits, lo << 32 < 2**63, and the order
    of the keys is that of (lo, hi).

    Breadth first from all the starts at once, one layer of sorted keys
    (F,) and coordinates (F, K) at a time, with no visited set.  The first
    layer is the starts, sorted by key; two equal starts raise
    RuntimeError.  Layer k holds the pairs at distance k from the set of
    starts, and a neighbour of such a pair is at distance k - 1, k or
    k + 1, as reflections are involutions: so the next layer is the
    neighbours of this one minus it and the one before, just as from a
    single start.  Each layer is reflected by every simple root at once
    with one gather from the table, at the (pair, root) edges that move
    the pair; the coordinates of an edge are its parent's with the
    reflection's few changed rows rewritten (CanonicalBasis.reflect_rows).
    Each edge is checked once, in the direction first met: an edge into
    the last layer (one searchsorted in its sorted keys) is the reverse of
    an edge checked one layer earlier, and is dropped before reflect_rows.
    That is sound because every reflection's matrix over the basis squares
    to the identity, which the walk checks first (RuntimeError otherwise):
    the reverse edge would send the pair's coordinates back to its
    parent's.  One stable argsort of the keys of this layer and its new
    edges deduplicates, and each edge must carry the coordinates first
    found for its pair.  A pair of coordinate height above the bound is
    dropped and not walked from; a start never is.  A pair carries the
    index of the start of its first edge.  At the end each pair takes
    root_pair's order from a rank of the interned roots by (height, root),
    and the members are sorted by one lexsort of their pair_coords_np,
    then stably by start.

    int64 is exact: a module matrix column has at most two nonzero entries,
    each +-1, so a step at most doubles the sum of absolute coordinates,
    which for a positive 2-root is its height (column sign-coherence): at
    most the top one in finite types, at most the bound or the start's
    (both <= 2**61, see orbit_of) on a cut walk.  A rewritten row sums
    distinct coordinates with coefficients +-1, so its partial sums stay
    within the parent's sum of absolute coordinates as well."""
    basis = canonical_basis(d)
    if not basis._involutive:
        raise RuntimeError("a simple reflection's matrix does not square "
                           "to the identity")
    roots = _RootTable(d)
    grows = classify(d) is not TypeClass.FINITE
    if not grows:
        roots.reflect(roots.intern(np.array(positive_roots(d),
                                            dtype=np.int64)))
    shift, low = _KEY_SHIFT, (1 << _KEY_SHIFT) - 1
    ends = roots.intern(np.array(pairs, dtype=np.int64).reshape(-1, d.n))
    lo, hi = np.sort(ends.reshape(-1, 2), axis=1).T
    k = lo << shift | hi
    # src[r]: the start that pair r was reached from
    src = np.argsort(k).astype(np.int32)
    k, c = k[src], np.array(coords, dtype=np.int64)[src]
    if (k[1:] == k[:-1]).any():
        raise RuntimeError("two starts are the same 2-root")
    last_k, out = k[:0], [(k, c, src)]
    while len(k):
        lo, hi = k >> shift, k & low
        if grows:
            touched = np.zeros(len(roots.vec), dtype=bool)
            touched[lo] = touched[hi] = True
            roots.reflect(np.flatnonzero(touched))
        # a pair moves unless both its roots stay: no reflection swaps two
        # orthogonal roots, as B(r, s r) = 2 - B(r, alpha)**2 is never 0
        u, v = roots.refl[lo], roots.refl[hi]
        f, i = np.nonzero((u != lo[:, None]) | (v != hi[:, None]))
        u, v = u[f, i], v[f, i]
        new_k = np.minimum(u, v) << shift | np.maximum(u, v)
        # an edge into the last layer reverses one checked a layer ago
        at = np.searchsorted(last_k, new_k)
        back = at < len(last_k)
        back[back] = last_k[at[back]] == new_k[back]
        f, i, new_k = f[~back], i[~back], new_k[~back]
        all_k = np.concatenate([k, new_k])
        all_c = np.concatenate([c, basis.reflect_rows(c[f], i)])
        all_src = np.concatenate([src, src[f]])
        order = np.argsort(all_k, kind="stable")
        sorted_k = all_k[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_k[1:] != sorted_k[:-1]
        heads = order[first]
        again = ~first
        if (all_c[order[again]]
                != all_c[heads[np.cumsum(first)[again] - 1]]).any():
            raise RuntimeError("inconsistent expansion along orbit")
        heads = heads[heads >= len(k)]
        last_k, k, c, src = k, all_k[heads], all_c[heads], all_src[heads]
        del all_c  # free the edges before the next layer reflects its own
        if height_bound is not None:
            keep = c.sum(axis=1) <= height_bound
            k, c, src = k[keep], c[keep], src[keep]
        out.append((k, c, src))
    k, c, src = (np.concatenate(x) for x in zip(*out))
    del out  # free the layers before the final sort's stacks
    vec = roots.vec
    rank = np.empty(len(vec), dtype=np.int64)
    rank[np.lexsort(np.vstack([vec.T[::-1], vec.sum(axis=1)]))] = \
        np.arange(len(vec))
    a, b = k >> shift, k & low
    swap = rank[a] > rank[b]
    a[swap], b[swap] = b[swap], a[swap]
    # an entry a_i b_j + a_j b_i of pair_coords_np is below 2**15 when no
    # root entry passes 127, so the sort keys can be int16
    narrow = vec.astype(np.int16) if vec.max(initial=0) <= 127 else vec
    order = np.lexsort(pair_coords_np(narrow[np.stack([a, b], 1)]).T[::-1])
    order = order[np.argsort(src[order], kind="stable")]
    src = src[order]
    tuples = list(map(tuple, vec.tolist()))
    members = tuple((tuples[x], tuples[y])
                    for x, y in zip(a[order].tolist(), b[order].tolist()))
    return members, c[order], src


@functools.cache
def orbit_tables(d: Diagram) -> tuple[OrbitTable, ...]:
    """Partition of the positive 2-roots into orbits, finite types only:
    one layered walk (_pair_layers) for the whole diagram, from the least
    element of each CanonicalBasis.summands entry with its unit
    coordinates, its sorted members then split by the start they were
    reached from, each orbit a view of the walk's expansions.  Every
    member's coordinates must have their support inside its start's
    summand, so that summand holds it.  No member may have a negative
    coordinate, the members with unit coordinates must be exactly the
    summand's elements, and the one of greatest coordinate height, the
    orbit's top, must be unique."""
    if classify(d) is not TypeClass.FINITE:
        raise ValueError("orbit enumeration needs a finite type")
    basis = canonical_basis(d)
    summands = basis.summands()
    if not summands:
        return ()
    least = [s[0] for s in summands]
    members, c, src = _pair_layers(
        d, [basis.elements[j].pair for j in least],
        np.equal.outer(least, np.arange(len(basis))).astype(np.int64))
    cuts = np.searchsorted(src, np.arange(len(summands) + 1))
    tables = []
    for oid, summand in enumerate(summands, start=1):
        ex = c[cuts[oid - 1]:cuts[oid]]  # a view: no copy of the walk
        outside = np.ones(len(basis), dtype=bool)
        outside[list(summand)] = False
        if ex[:, outside].any():
            raise RuntimeError("orbit %d has a coordinate outside its "
                               "summand" % oid)
        if (ex < 0).any():
            raise RuntimeError("orbit %d has a negative coordinate" % oid)
        found = sorted(ex[ex.sum(axis=1) == 1].argmax(axis=1).tolist())
        if found != list(summand):
            raise RuntimeError("orbit %d meets the basis in %s, not in its "
                               "summand" % (oid, found))
        heights = ex.sum(axis=1)
        top = np.flatnonzero(heights == heights.max())
        if len(top) != 1:
            raise RuntimeError("orbit %d has %d members of greatest height"
                               % (oid, len(top)))
        ex.flags.writeable = False
        orbit = members[cuts[oid - 1]:cuts[oid]]
        tables.append(OrbitTable(oid, orbit, summand, orbit[top[0]],
                                 int(heights[top[0]]), ex))
    return tuple(tables)


def orbit_of(d: Diagram, p: Pair, height_bound: int) -> tuple[Pair, ...]:
    """Orbit members of coordinate height at most the bound; works in any
    type and truncates the walk at the bound.  The start must be a pair of
    orthogonal roots, and the bound and the start's height at most 2**61,
    which keeps the int64 walk exact."""
    p = root_pair(normalize_root(p[0]), normalize_root(p[1]))
    start = [int(x) for x in canonical_basis(d).expand_pair(*p)]
    if max(height_bound, sum(start)) > 2 ** 61:
        raise ValueError("orbit heights past 2**61 are not supported: bound "
                         "%d, start %d" % (height_bound, sum(start)))
    return _pair_layers(d, [p], [start], height_bound)[0]


# --- the height-based order and its covers ---------------------------------

def cgw_less(d: Diagram, p: Pair, q: Pair) -> bool:
    """Compare two pairs by the minimal height of the roots where they
    differ."""
    sp, sq = set(p), set(q)
    only_p = sp - sq
    only_q = sq - sp
    if not only_p or not only_q:
        return False
    return min(height(r) for r in only_p) < min(height(r) for r in only_q)


def monoidal_covers(d: Diagram, p: Pair) -> tuple[tuple[int, Pair], ...]:
    """Simple reflections moving the pair strictly up in the height order."""
    out = []
    for i in range(d.n):
        q = simple_pair_action(d, i, p)
        if q != p and cgw_less(d, p, q):
            out.append((i, q))
    return tuple(out)


# highest_pair's step budget; a finite-type climb stops at the top height.
CLIMB_STEPS = 100000


def highest_pair(d: Diagram, p: Pair, rng=None) -> Pair:
    """Climb from p by simple reflections that strictly increase the
    expansion coordinates, until none applies.  The scan order is fixed
    unless an rng is supplied to shuffle it.  Each step computes, for
    every simple root at once, just the rows of the coordinates that its
    reflection rewrites (the padded slots of CanonicalBasis.reflect_rows;
    a padded row repeats one of them), and moves the pair by the first
    rising reflection in the scan order; a reflection that fixes the pair
    sends c to +-c, which never rises.  p must be two orthogonal roots;
    anything else raises ValueError."""
    basis = canonical_basis(d)
    c = np.array([int(x) for x in basis.expand_pair(*p)], dtype=np.int64)
    rows, cols, coefs = basis._rows
    order = list(range(d.n))
    for _ in range(CLIMB_STEPS):
        if rng is not None:
            rng.shuffle(order)
        new = np.einsum("lrw,lrw->lr", c[cols], coefs)
        diff = new - c[rows]
        rises = diff.any(axis=1) & (diff >= 0).all(axis=1)
        i = next((i for i in order if rises[i]), None)
        if i is None:
            return p
        p = simple_pair_action(d, i, p)
        c[rows[i]] = new[i]
    raise RuntimeError("no highest element reached within the step budget")


def ht2_of_pair(d: Diagram, p: Pair) -> int:
    """Coordinate height of the 2-root p, two orthogonal roots."""
    return int(sum(canonical_basis(d).expand_pair(*p)))


# --- closed forms for the highest elements ---------------------------------

def closed_form_highest(d: Diagram) -> tuple[Pair, ...]:
    """The known highest 2-roots of the finite types, one per orbit; a fork
    with arms out of order maps back those of its parabolic_restrict."""
    n = d.n
    if list(d.arms) != sorted(d.arms) and classify(d) is TypeClass.FINITE:
        canon, new = parabolic_restrict(d, range(n))
        return tuple(root_pair(*(tuple(r[new[v]] for v in range(n))
                                 for r in top))
                     for top in closed_form_highest(canon))
    if d.kind == "Path":
        if n < 3:
            return ()
        a = tuple(1 if j <= n - 2 else 0 for j in range(n))
        b = tuple(1 if j >= 1 else 0 for j in range(n))
        return (root_pair(a, b),)
    arms = d.arms
    if arms == (1, 1, 1):
        theta = {"1": 1, "2": 2, "3": 1, "4": 1}
        segs = ({"2": 1, "4": 1}, {"2": 1, "3": 1}, {"1": 1, "2": 1})
        out = []
        for s1, s2 in combinations(segs, 2):
            r1 = root_from_labels(d, "d", _dict_sub(theta, s1))
            r2 = root_from_labels(d, "d", _dict_sub(theta, s2))
            out.append(root_pair(r1, r2))
        return tuple(out)
    if arms[0] == 1 and arms[1] == 1:
        small = (
            root_from_labels(d, "d", {str(j): 1 for j in range(1, n)}),
            root_from_labels(d, "d",
                             {**{str(j): 1 for j in range(1, n - 1)}, str(n): 1}),
        )
        theta = {str(j): (1 if j in (1, n - 1, n) else 2) for j in range(1, n + 1)}
        large = (
            root_from_labels(d, "d", _dict_sub(theta, {"1": 1, "2": 1})),
            root_from_labels(d, "d", _dict_sub(theta, {"2": 1, "3": 1})),
        )
        return (root_pair(*small), root_pair(*large))
    if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
        c = arms[2]
        if c == 2:
            theta = {"1": 1, "2": 2, "3": 3, "4": 2, "5": 1, "x": 2}
            s1 = {"2": 1, "3": 1, "x": 1}
            s2 = {"4": 1, "3": 1, "x": 1}
        elif c == 3:
            theta = {"1": 2, "2": 3, "3": 4, "4": 3, "5": 2, "6": 1, "x": 2}
            s1 = {"x": 1, "3": 1, "2": 1, "1": 1}
            s2 = {"4": 1, "3": 1, "2": 1, "1": 1}
        else:
            theta = {"1": 2, "2": 4, "3": 6, "4": 5, "5": 4, "6": 3,
                     "7": 2, "x": 3}
            s1 = {str(j): 1 for j in range(2, 8)}
            s2 = {**{str(j): 1 for j in range(4, 8)}, "3": 1, "x": 1}
        r1 = root_from_labels(d, "e", _dict_sub(theta, s1))
        r2 = root_from_labels(d, "e", _dict_sub(theta, s2))
        return (root_pair(r1, r2),)
    raise ValueError("no closed form for %r" % (d,))


def _dict_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}
