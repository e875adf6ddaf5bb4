"""Roots of a simply laced diagram, stored as integer coefficient tuples
over the simple roots in the diagram's own numbering.

The symmetric bilinear form is normalized so every simple root has norm 2.
Reflection in a norm-2 root alpha sends v to v - B(alpha, v) alpha.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .diagram import Diagram, TypeClass, cartan, classify, closure, neighbors

Root = tuple[int, ...]


@functools.cache
def simple_root(d: Diagram, i: int) -> Root:
    """alpha_i as a coefficient tuple, cached per (d, i)."""
    if not 0 <= i < d.n:
        raise ValueError("vertex out of range")
    return tuple(1 if j == i else 0 for j in range(d.n))


def height(v) -> int:
    return sum(v)


def is_positive(v) -> bool:
    return any(x != 0 for x in v) and all(x >= 0 for x in v)


def negate(v):
    return tuple(-x for x in v)


def bform(d: Diagram, u, v):
    """B(u, v) = u^T A v for the Cartan matrix A."""
    total = 2 * sum(x * y for x, y in zip(u, v))
    for a, b in d.edges:
        total -= u[a] * v[b] + u[b] * v[a]
    return total


def reflect(d: Diagram, alpha, v):
    """Reflection of v in a norm-2 vector alpha."""
    if bform(d, alpha, alpha) != 2:
        raise ValueError("can only reflect in a norm-2 vector")
    c = bform(d, alpha, v)
    return tuple(x - c * a for x, a in zip(v, alpha))


def simple_reflect(d: Diagram, i: int, v):
    if not 0 <= i < d.n:
        raise ValueError("vertex out of range")
    c = 2 * v[i] - sum(v[j] for j in neighbors(d)[i])
    if c == 0:
        return tuple(v)
    out = list(v)
    out[i] -= c
    return tuple(out)


_INT16_MAX = (1 << 15) - 1


@functools.cache
def positive_roots(d: Diagram, height_bound: int | None = None) -> tuple[Root, ...]:
    """All positive roots in (height, root) order, up to the height bound;
    infinite types require one.  A tree walk: a root beta other than a
    simple root has B(beta, alpha_i) > 0 for some i, as B(beta, beta) = 2
    is the sum of beta_i B(beta, alpha_i), and its parent is s_i beta for
    the least such i, of lower height.  So each root is reached once, from
    its parent.  One step can add more than one to the height, so roots
    wait in buckets by height and each bucket is expanded as one array.

    A layer is handled once for all letters.  With c = B(r, alpha_j) for
    each root r, s_i r = r - c_i alpha_i is a child of r when c_i < 0 and
    i is the least j with B(s_i r, alpha_j) > 0, that is, when no j < i
    has c_j - c_i a_ij > 0: a running count of the columns j < i with
    c_j > 0, less the lower neighbour j of i when 0 < c_j <= -c_i, must be
    0.  A Diagram is numbered outward from vertex 0 (see Diagram), so
    every other vertex has exactly one lower neighbour, and that
    correction is one column per edge.  Each layer is sorted by packed
    keys: its entries as fields of the bit length of layer.max(), as many
    to an int64 word as fit, and one lexsort over the words.  The sorted
    layer becomes tuples of Python ints in one pass, struct.iter_unpack
    on its bytes.

    Width: the layer of height h runs in int16 when 2 h and n are at
    most 2**15 - 1, and in int64 past that.  Its roots are nonnegative of
    height h, so every entry lies in [0, h], and every form c_j = 2 r_j -
    (the sum of r_k over the neighbours k of j) lies in [-h, 2 h], as the
    neighbours' entries sum to at most h; so -c_j and h - c_j lie in
    [-2 h, 2 h].  A child's step -c_i is at most h, so its height and
    each of its entries are at most 2 h, and a running count lies in
    [0, n].  So every value the layer computes lies in int16's range, and
    as int16 arithmetic is exact modulo 2**16, the product by the Cartan
    matrix is exact whatever its partial sums.  The Python ints that meet
    an int16 array are h, a step, 0 and the bound capped at 2**15 - 1,
    all in range, so NumPy 2's NEP 50 promotion (a Python int takes the
    array's dtype) and the value-based casting of NumPy 1.24 on (a Python
    int takes the least dtype that holds its value) both keep every
    result int16.  Cached per call signature: positive_roots(d) and
    positive_roots(d, None) are separate entries."""
    if height_bound is not None and height_bound < 1:
        raise ValueError("height bound must be at least 1, got %d"
                         % height_bound)
    if height_bound is None and classify(d) is not TypeClass.FINITE:
        raise ValueError("infinite root system: pass a height bound")
    limit = np.inf if height_bound is None else height_bound
    a = np.array(cartan(d), dtype=np.int16)  # an int64 layer promotes it
    lo, hi = np.sort(np.array(d.edges, dtype=np.intp).reshape(-1, 2), 1).T
    buckets, found = {1: [np.eye(d.n, dtype=np.int16)]}, []
    while buckets:
        h = min(buckets)
        if max(2 * h, d.n) <= _INT16_MAX:
            dt, cap = np.int16, min(limit, _INT16_MAX)
        else:
            dt, cap = np.int64, limit
        layer = np.concatenate(buckets.pop(h)).astype(dt, copy=False)
        layer = layer[np.lexsort(_packed_keys(layer)[::-1])]
        found.extend(struct.iter_unpack(
            "=%d%s" % (d.n, "h" if dt is np.int16 else "q"), layer.tobytes()))
        if h == limit:  # no child fits under the bound
            break
        c = layer @ a  # c[r, j] = B(r, alpha_j)
        pos = c > 0
        count = np.cumsum(pos, axis=1, dtype=dt)
        count -= pos
        count[:, hi] -= pos[:, lo] & (c[:, lo] <= -c[:, hi])
        r, i = np.nonzero((c < 0) & (count == 0) & (h - c <= cap))
        step = -c[r, i]  # s_i r = r + step alpha_i
        del c, pos, count  # free them before the next layer is gathered
        for s in set(step.tolist()):
            at = step == s
            child = layer[r[at]]
            child[np.arange(len(child)), i[at]] += s
            buckets.setdefault(h + s, []).append(child)
    return tuple(found)


def _packed_keys(rows: np.ndarray) -> np.ndarray:
    """Keys (W, R) of the nonnegative integer rows (R, N), most significant
    word first, whose lexicographic order is that of the rows: each word
    holds the next 63 // b columns as b-bit fields, b the bit length of
    rows.max(), so every key stays below 2**63."""
    b = max(1, int(rows.max()).bit_length())
    g = 63 // b
    words = []
    for w in range(0, rows.shape[1], g):
        block = rows[:, w:w + g]
        place = 1 << b * np.arange(block.shape[1] - 1, -1, -1)
        words.append(block @ place)
    return np.stack(words)


def is_root(d: Diagram, v, height_bound: int | None = None) -> bool:
    """Whether v is a root, of |height| at most the bound if one is given.
    A root has integer entries: v is refused unless every entry equals
    int() of itself, so (1/2, 1/2, 0) and (0.5, 0.5, 0) are not roots.
    By descent: a positive root beta other than a simple root has
    B(beta, alpha_i) > 0 for some i (see positive_roots), and s_i beta is
    then a positive root of lower height.  So v is a root exactly when
    repeatedly reflecting in the least such alpha_i reaches a simple root
    with no coordinate turning negative; the descent rewrites one list of
    Python ints in place and keeps its height as it goes.  Needs no
    enumeration, so it answers in every type, on infinite ones without a
    bound too."""
    try:
        r = [int(x) for x in v]
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        return False
    if len(r) != d.n or r != list(v):
        return False
    h = sum(r)
    if h < 0:
        r, h = [-x for x in r], -h
    if h == 0 or min(r) < 0 or (height_bound is not None
                                and h > height_bound):
        return False
    adj = neighbors(d)
    while h > 1:
        for i, nbrs in enumerate(adj):
            c = 2 * r[i]
            for j in nbrs:
                c -= r[j]
            if c > 0:
                break
        else:
            return False
        r[i] -= c  # s_i r = r - B(r, alpha_i) alpha_i
        if r[i] < 0:
            return False
        h -= c
    return True


# --- elementary roots ------------------------------------------------------

def eta(d: Diagram, h: int, k: int) -> Root:
    """Top root alpha_h + alpha_mid + alpha_k of the path h - mid - k."""
    common = set(neighbors(d)[h]) & set(neighbors(d)[k])
    if h == k or len(common) != 1:
        raise ValueError("vertices must be the two ends of a three-vertex path")
    mid = common.pop()
    out = [0] * d.n
    out[h] = out[mid] = out[k] = 1
    return tuple(out)


def _path_to_branch(d: Diagram, i: int) -> list[int]:
    # Arms are numbered consecutively outward, so the least neighbour of
    # an arm vertex is the inward one; the walk stops at the branch.
    return list(closure(
        [i], lambda v: () if v == d.branch else neighbors(d)[v][:1]))


def theta(d: Diagram, i: int) -> Root:
    """Top root of the smallest branched parabolic containing vertex i:
    coefficient 1 at i and at the two branch neighbors off the path from
    i to the branch, coefficient 2 along the rest of that path."""
    if d.kind != "Y":
        raise ValueError("branched parabolics need a Y diagram")
    if i == d.branch:
        raise ValueError("vertex must differ from the branch vertex")
    path = _path_to_branch(d, i)
    out = [0] * d.n
    out[i] = 1
    for v in path[1:]:
        out[v] = 2
    for u in neighbors(d)[d.branch]:
        if u not in path:
            out[u] = 1
    root = tuple(out)
    assert bform(d, root, root) == 2 and bform(d, root, simple_root(d, i)) == 0
    return root


def elementary_roots(d: Diagram, i: int) -> tuple[Root, ...]:
    """The partners of alpha_i in the canonical basis, in (height, root)
    order, of three kinds: the simple roots alpha_j with j neither i nor
    a neighbor of i; the top root eta of each three-vertex path centred
    at i; and in a Y diagram, for i off the branch vertex, theta(d, i).
    There are n-1 of them in a Y diagram and n-2 in a path."""
    if not 0 <= i < d.n:
        raise ValueError("vertex out of range")
    adj = neighbors(d)
    out = [simple_root(d, j) for j in range(d.n)
           if j != i and j not in adj[i]]
    out += [eta(d, h, k) for h, k in combinations(adj[i], 2)]
    if d.kind == "Y" and i != d.branch:
        out.append(theta(d, i))
    return tuple(sorted(out, key=lambda r: (height(r), r)))


def delta(d: Diagram) -> Root:
    """Primitive positive integer vector spanning the kernel of the Cartan
    matrix of an affine diagram."""
    if classify(d) is not TypeClass.AFFINE:
        raise ValueError("only affine diagrams have a null vector")
    basis = linalg.nullspace(cartan(d))
    assert len(basis) == 1
    v = linalg.primitive_integer(basis[0])
    if not is_positive(v):
        v = negate(v)
    return v


# --- classical numbering and epsilon coordinates ---------------------------
#
# Path(n) realizes A_n on coordinates e_1..e_{n+1}: vertex k (0-based) is
# e_{k+1} - e_{k+2}.  Y(1,1,c) realizes D_n on e_1..e_n under the usual
# labels 1..n: a path 1..n-2 with both n-1 and n attached to n-2, where
# label j < n is e_j - e_{j+1} and label n is e_{n-1} + e_n.  Y(1,2,c)
# gets the usual E labels: a path 1..n-1 whose third vertex also carries
# the extra node x.

def paper_labels(d: Diagram, convention: str) -> dict[int, str]:
    """Map from internal vertex numbers to classical labels."""
    n = d.n
    if convention == "a":
        if d.kind != "Path":
            raise ValueError("path labels need a path diagram")
        return {k: str(k + 1) for k in range(n)}
    if convention == "d":
        if d.kind != "Y" or d.arms[0] != 1 or d.arms[1] != 1:
            raise ValueError("D labels need a diagram Y(1,1,c)")
        out = {0: str(n - 2), 1: str(n - 1), 2: str(n)}
        for t in range(1, n - 3 + 1):
            out[2 + t] = str(n - 2 - t)
        return out
    if convention == "e":
        if d.kind != "Y" or d.arms[0] != 1 or d.arms[1] != 2:
            raise ValueError("E labels need a diagram Y(1,2,c)")
        out = {1: "x", 2: "2", 3: "1", 0: "3"}
        for v in range(4, n):
            out[v] = str(v)
        return out
    raise ValueError("unknown labeling convention %r" % (convention,))


def root_from_labels(d: Diagram, convention: str, coeffs: dict[str, int]) -> Root:
    labels = paper_labels(d, convention)
    back = {lab: v for v, lab in labels.items()}
    out = [0] * d.n
    for lab, c in coeffs.items():
        out[back[str(lab)]] = c
    return tuple(out)


@dataclass(frozen=True)
class EpsilonForm:
    """A root written as e_i - e_j or e_i + e_j with i < j, 1-based."""
    sign: str  # "-" or "+"
    i: int
    j: int

    def __str__(self) -> str:
        return "(e%d%se%d)" % (self.i, self.sign, self.j)


def epsilon_coords(d: Diagram, root) -> EpsilonForm:
    """Write a root of Path(n) or Y(1,1,c) in two-coordinate form."""
    if d.kind == "Path":
        m = d.n + 1
        amb = [0] * m
        for k, c in enumerate(root):
            amb[k] += c
            amb[k + 1] -= c
    elif d.kind == "Y" and d.arms[0] == 1 and d.arms[1] == 1:
        n = d.n
        labels = paper_labels(d, "d")
        amb = [0] * n
        for v, c in enumerate(root):
            j = int(labels[v])
            if j < n:
                amb[j - 1] += c
                amb[j] -= c
            else:
                amb[n - 2] += c
                amb[n - 1] += c
    else:
        raise ValueError("two-coordinate form needs Path(n) or Y(1,1,c)")
    support = [(k, v) for k, v in enumerate(amb) if v != 0]
    if len(support) != 2 or {abs(v) for _, v in support} != {1}:
        raise ValueError("not a two-coordinate root: %r" % (root,))
    (ki, vi), (kj, vj) = support
    if vi == 1 and vj == -1:
        return EpsilonForm("-", ki + 1, kj + 1)
    if vi == 1 and vj == 1:
        return EpsilonForm("+", ki + 1, kj + 1)
    raise ValueError("not a positive two-coordinate root: %r" % (root,))
