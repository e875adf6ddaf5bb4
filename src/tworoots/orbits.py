"""Orbits of positive 2-roots under the Weyl group.

A 2-root is handled through its unordered pair of orthogonal positive
roots.  Reflections act on the pair componentwise followed by sign
normalization, which matches the action on the symmetric square up to the
overall sign that never shows up on positive representatives.

Orbits are walked breadth first over the pair graph, one layer of int64
pair keys at a time (_pair_layers): all of a diagram's orbits in one walk
from the least element of every summand of the canonical basis (orbit
tables), or one orbit from any pair (orbit_of, cut at a coordinate
height).  Only keys walk; orbit_tables then expands each member once
(CanonicalBasis.expand_pairs), which gives membership, heights and the
coordinatewise order.
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
    """The positive roots of one walk: row k of vec is root k, row k of
    refl, once filled, the indices of its n sign-normalised reflections
    (-1 until then), and keys, sorted, each root's n int64 entries as one
    void scalar, with at[j] the index of the root of keys[j]."""

    def __init__(self, d: Diagram):
        self.a = np.array(cartan(d), dtype=np.int64)
        self.vec = np.zeros((0, d.n), dtype=np.int64)
        self.refl = self.vec.copy()
        self.keys = self.vec.view(np.dtype((np.void, 8 * d.n))).ravel()
        self.at = np.zeros(0, dtype=np.int64)

    def intern(self, roots: np.ndarray) -> np.ndarray:
        """The indices of the rows of the int64 stack roots, new roots
        appended in the order of their keys: one searchsorted of the rows'
        keys in the sorted keys, and one np.unique of the rest.  Raises
        RuntimeError rather than hand out an index of 2**(_KEY_SHIFT - 1)
        or more, which a key could not hold."""
        keys = np.ascontiguousarray(roots, dtype=np.int64).view(
            self.keys.dtype).ravel()
        out = np.empty(len(keys), dtype=np.int64)
        old, at = _found(self.keys, keys)
        out[old] = self.at[at[old]]
        new, inverse = np.unique(keys[~old], return_inverse=True)
        out[~old] = len(self.vec) + inverse
        if len(self.vec) + len(new) > 1 << (_KEY_SHIFT - 1):
            raise RuntimeError("the walk met more than 2**%d roots"
                               % (_KEY_SHIFT - 1))
        at = np.searchsorted(self.keys, new)
        self.keys = np.insert(self.keys, at, new)
        self.at = np.insert(self.at, at, len(self.vec) + np.arange(len(new)))
        self.vec = np.concatenate(
            [self.vec, new.view(np.int64).reshape(-1, self.a.shape[0])])
        self.refl = np.concatenate(
            [self.refl, np.full((len(new), self.a.shape[0]), -1)])
        return out

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


def _found(keys, x):
    """(hit, at): at = np.searchsorted(keys, x), hit[h] = x[h] in keys."""
    at = np.searchsorted(keys, x)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == x[hit]
    return hit, at


def _pair_layers(d: Diagram, pairs, height_bound=None):
    """The union of the orbits of the given start pairs under the simple
    reflections, as (members, vec, ends, src), sorted by s = src[r], then
    as by vee_pair: member r as a pair of root tuples and as ends[r], the
    indices of its roots in the int64 root array vec (expand_pairs(vec,
    ends) expands them), reached from the start pairs[s].

    The walk runs on indices into a _RootTable, in finite type seeded with
    every positive root and their reflections in one batch, on a cut walk
    interning each root a layer first holds and filling its reflections
    per layer.  It goes breadth first from all the starts at once (two
    equal starts raise RuntimeError), one sorted layer of keys at a time
    with no visited set: as reflections are involutions, a neighbour of a
    pair at distance k is at distance k - 1, k or k + 1, so the next layer
    is the neighbours of this one minus it and the one before.  One gather
    from the table reflects a layer at the edges that move a pair,
    np.unique deduplicates the edges' keys (a new pair keeps the start of
    its first edge) and a searchsorted in each of the two layers drops the
    pairs met.  A cut walk drops, and does not walk from, a new pair whose
    coordinate height (CanonicalBasis.heights_within) passes the bound.
    At the end the pairs take root_pair's order from a rank of the roots
    by (height, root) and are sorted by a lexsort of their pair_coords_np,
    then stably by start.

    Exactness: a 2-root is the int64 key lo << 32 | hi of its root indices
    lo < hi; an index stays below 2**31 (the table raises RuntimeError
    first), so hi fits the low 32 bits, lo << 32 < 2**63, and the keys
    sort as (lo, hi)."""
    basis = canonical_basis(d)
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
    k = k[src]
    if (k[1:] == k[:-1]).any():
        raise RuntimeError("two starts are the same 2-root")
    last_k, out = k[:0], [(k, src)]
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
        new_k, first = np.unique(np.minimum(u, v) << shift | np.maximum(u, v),
                                 return_index=True)
        new = ~(_found(k, new_k)[0] | _found(last_k, new_k)[0])
        last_k, k, src = k, new_k[new], src[f[first[new]]]
        if height_bound is not None:
            keep = basis.heights_within(
                roots.vec, np.stack([k >> shift, k & low], axis=1),
                height_bound)
            k, src = k[keep], src[keep]
        out.append((k, src))
    k, src = (np.concatenate(x) for x in zip(*out))
    del out  # free the layers before the final sort's stacks
    vec = roots.vec
    rank = np.empty(len(vec), dtype=np.int64)
    rank[np.lexsort(np.vstack([vec.T[::-1], vec.sum(axis=1)]))] = \
        np.arange(len(vec))
    a, b = k >> shift, k & low
    swap = rank[a] > rank[b]
    a[swap], b[swap] = b[swap], a[swap]
    # an entry a_i b_j + a_j b_i of pair_coords_np is below 2**15 when no
    # root entry passes 127, so the stack can be int16
    narrow = vec.astype(np.int16) if vec.max(initial=0) <= 127 else vec
    ends = np.stack([a, b], axis=1)
    order = np.lexsort(pair_coords_np(narrow[ends]).T[::-1])
    order = order[np.argsort(src[order], kind="stable")]
    ends, src = ends[order], src[order]
    tuples = list(map(tuple, vec.tolist()))
    members = tuple((tuples[x], tuples[y]) for x, y in ends.tolist())
    return members, vec, ends, src


@functools.cache
def orbit_tables(d: Diagram) -> tuple[OrbitTable, ...]:
    """Partition of the positive 2-roots into orbits, finite types only:
    one _pair_layers walk from the least element of each
    CanonicalBasis.summands entry, its members expanded once
    (CanonicalBasis.expand_pairs) and split by start into views of one
    array.  Each member's coordinates must lie in its start's summand and
    be nonnegative, the members with unit coordinates must be exactly the
    summand's elements, and the orbit's top, its member of greatest
    coordinate height, must be unique."""
    if classify(d) is not TypeClass.FINITE:
        raise ValueError("orbit enumeration needs a finite type")
    basis = canonical_basis(d)
    summands = basis.summands()
    if not summands:
        return ()
    least = [s[0] for s in summands]
    members, vec, ends, src = _pair_layers(
        d, [basis.elements[j].pair for j in least])
    c = basis.expand_pairs(vec, ends)
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
    orthogonal roots, and the bound and the start's height at most 2**61;
    roots past the float64 bound of heights_within raise RuntimeError."""
    p = root_pair(normalize_root(p[0]), normalize_root(p[1]))
    start = sum(canonical_basis(d).expand_pair(*p))
    if max(height_bound, start) > 2 ** 61:
        raise ValueError("orbit heights past 2**61 are not supported: bound "
                         "%d, start %d" % (height_bound, start))
    return _pair_layers(d, [p], height_bound)[0]


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
    unless an rng is supplied to shuffle it.  The climb runs on the
    coordinates alone: each step computes, for every simple root at once,
    just the rows of the coordinates that its reflection rewrites (the
    padded slots of CanonicalBasis._rows; a padded row repeats one of
    them), takes the first rising reflection in the scan order, rewrites
    its rows and records its letter; a reflection that fixes the pair
    sends c to +-c, which never rises.  The pair itself moves once, at
    the top, by pair_action of the recorded letters, last letter leftmost.
    p must be two orthogonal roots; anything else raises ValueError."""
    basis = canonical_basis(d)
    c = np.array([int(x) for x in basis.expand_pair(*p)], dtype=np.int64)
    rows, cols, coefs = basis._rows
    order, taken = list(range(d.n)), []
    for _ in range(CLIMB_STEPS):
        if rng is not None:
            rng.shuffle(order)
        new = np.einsum("lrw,lrw->lr", c[cols], coefs)
        diff = new - c[rows]
        rises = diff.any(axis=1) & (diff >= 0).all(axis=1)
        i = next((i for i in order if rises[i]), None)
        if i is None:
            return pair_action(d, taken[::-1], p)
        taken.append(i)
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
