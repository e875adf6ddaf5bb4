"""Orbits of positive 2-roots under the Weyl group.

A 2-root is handled through its unordered pair of orthogonal positive
roots.  Reflections act on the pair componentwise followed by sign
normalization, which matches the action on the symmetric square up to the
overall sign that never shows up on positive representatives.

Orbit enumeration walks the pair graph from the canonical basis elements
and carries exact expansion coordinates along every edge, so membership,
heights, and the coordinatewise order come for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

import numpy as np

from .diagram import Diagram, TypeClass, classify
from .roots import (Root, bform, closure, height, is_positive, negate,
                    positive_roots, simple_reflect)
from .symsquare import SymMatrix, canonical_basis, root_pair, vee

Pair = tuple[Root, Root]

_TABLE_CACHE: dict[Diagram, tuple] = {}


def vee_pair(p: Pair) -> SymMatrix:
    return vee(p[0], p[1])


def normalize_root(v) -> Root:
    return tuple(v) if is_positive(v) else negate(v)


def simple_pair_action(d: Diagram, i: int, p: Pair) -> Pair:
    return root_pair(normalize_root(simple_reflect(d, i, p[0])),
                     normalize_root(simple_reflect(d, i, p[1])))


def pair_action(d: Diagram, word, p: Pair) -> Pair:
    """Act by s_{w[0]} ... s_{w[-1]}, rightmost letter first."""
    for i in reversed(word):
        p = simple_pair_action(d, i, p)
    return p


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
    basis_members: tuple[int, ...]     # indices into the canonical basis
    coords: dict                       # pair -> integer expansion tuple
    highest: Pair
    height: int

    @property
    def size(self) -> int:
        return len(self.members)


def _pair_steps(d: Diagram, coords: dict):
    """Moves of the orbit walk on (pair, expansion) states: each simple
    reflection that moves the pair, carrying the expansion by its module
    matrix, which must agree with any expansion already in coords."""
    mats = canonical_basis(d).action_matrices_np()

    def moves(state):
        p, c = state
        for i, m in enumerate(mats):
            q = simple_pair_action(d, i, p)
            if q == p:
                continue
            cq = m @ c
            known = coords.get(q)
            if known is not None and not np.array_equal(known, cq):
                raise RuntimeError("inconsistent expansion along orbit")
            yield q, cq
    return moves


def orbit_tables(d: Diagram) -> tuple[OrbitTable, ...]:
    """Partition of the positive 2-roots into orbits, finite types only."""
    cached = _TABLE_CACHE.get(d)
    if cached is not None:
        return cached
    if classify(d) is not TypeClass.FINITE:
        raise ValueError("orbit enumeration needs a finite type")
    basis = canonical_basis(d)
    coords: dict[Pair, np.ndarray] = {}
    steps = _pair_steps(d, coords)
    orbits: list[tuple[Pair, ...]] = []
    for j, e in enumerate(basis.elements):
        if e.pair in coords:
            continue
        c0 = np.zeros(len(basis), dtype=np.int64)
        c0[j] = 1
        members = []
        for q, c in closure([(e.pair, c0)], steps, key=itemgetter(0)):
            coords[q] = c
            members.append(q)
        orbits.append(tuple(sorted(members, key=vee_pair)))
    orbits.sort(key=lambda ms: vee_pair(ms[0]))
    tables = []
    for oid, members in enumerate(orbits, start=1):
        member_set = set(members)
        basis_members = tuple(kk for kk, e in enumerate(basis.elements)
                              if e.pair in member_set)
        cc = {p: tuple(int(x) for x in coords[p]) for p in members}
        top = highest_pair(d, members[0])
        tables.append(OrbitTable(oid, members, basis_members, cc, top,
                                 sum(cc[top])))
    result = tuple(tables)
    _TABLE_CACHE[d] = result
    return result


def orbit_of(d: Diagram, p: Pair, height_bound: int) -> tuple[Pair, ...]:
    """Orbit members of coordinate height at most the bound; works in any
    type and truncates the walk at the bound."""
    p = root_pair(normalize_root(p[0]), normalize_root(p[1]))
    start = np.array([int(x) for x in canonical_basis(d).expand(vee_pair(p))],
                     dtype=np.int64)
    coords: dict[Pair, np.ndarray] = {}
    walk = closure([(p, start)], _pair_steps(d, coords), key=itemgetter(0),
                   prune=lambda state: int(state[1].sum()) > height_bound)
    for q, c in walk:
        coords[q] = c
    return tuple(sorted(coords, key=vee_pair))


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


def is_locally_highest(d: Diagram, p: Pair) -> bool:
    """No simple reflection moves the pair up: the components have equal
    heights and every simple root lowering one component raises the
    other."""
    a, b = p
    if height(a) != height(b):
        return False
    for i in range(d.n):
        e = tuple(1 if j == i else 0 for j in range(d.n))
        x, y = bform(d, e, a), bform(d, e, b)
        if (x == -1 and y != 1) or (y == -1 and x != 1):
            return False
    return True


def highest_pair(d: Diagram, p: Pair, rng=None, max_steps: int = 100000) -> Pair:
    """Climb from p by simple reflections that strictly increase the
    expansion coordinates, until none applies.  The scan order is fixed
    unless an rng is supplied to shuffle it."""
    basis = canonical_basis(d)
    mats = basis.action_matrices_np()
    c = np.array([int(x) for x in basis.expand(vee_pair(p))], dtype=np.int64)
    order = list(range(d.n))
    for _ in range(max_steps):
        if rng is not None:
            rng.shuffle(order)
        for i in order:
            q = simple_pair_action(d, i, p)
            if q == p:
                continue
            cq = mats[i] @ c
            diff = cq - c
            if diff.any() and (diff >= 0).all():
                p, c = q, cq
                break
        else:
            return p
    raise RuntimeError("no highest element reached within the step budget")


def ht2_of_pair(d: Diagram, p: Pair) -> int:
    basis = canonical_basis(d)
    return int(sum(basis.expand(vee_pair(p))))


# --- closed forms for the highest elements ---------------------------------

def closed_form_highest(d: Diagram) -> tuple[Pair, ...]:
    """The known highest 2-roots of the finite types, one per orbit."""
    from .roots import root_from_labels

    n = d.n
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
