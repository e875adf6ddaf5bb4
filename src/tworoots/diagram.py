"""Simply laced diagrams shaped like a path or like a letter Y.

A Y diagram Y(a, b, c) has a branch vertex of degree three and three arms
of a, b and c vertices.  The branch vertex is numbered 0 and the arms are
numbered consecutively outward: 1..a, then a+1..a+b, then a+b+1..n-1,
where n = a + b + c + 1.  A path diagram is numbered 0..n-1 along the path.

Familiar names in this scheme: Y(1,1,1) is D4, Y(1,1,c) is D_{c+3},
Y(1,2,2), Y(1,2,3), Y(1,2,4) are E6, E7, E8, and Path(n) is A_n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from . import linalg


class TypeClass(Enum):
    FINITE = "finite"
    AFFINE = "affine"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class Diagram:
    """A tree numbered outward from vertex 0: every vertex but 0 has
    exactly one neighbour of lower number.  y_diagram and path_diagram
    number their vertices so, and roots.positive_roots relies on it; a
    Diagram built by hand must keep it."""
    kind: str                          # "Y" or "Path"
    n: int
    arms: tuple[int, ...]              # (a, b, c) for Y diagrams, () for paths
    edges: tuple[tuple[int, int], ...]

    @property
    def branch(self) -> int | None:
        return 0 if self.kind == "Y" else None

    def __repr__(self) -> str:
        if self.kind == "Y":
            return "Y(%d,%d,%d)" % self.arms
        return "Path(%d)" % self.n


def y_diagram(a: int, b: int, c: int) -> Diagram:
    """Y(a, b, c) numbered as the module describes: each arm vertex's one
    lower neighbour is the next vertex inward, the branch for the first."""
    if min(a, b, c) < 1:
        raise ValueError("arm lengths must be at least 1")
    n = a + b + c + 1
    edges = []
    start = 1
    for arm in (a, b, c):
        edges.append((0, start))
        for v in range(start, start + arm - 1):
            edges.append((v, v + 1))
        start += arm
    return Diagram("Y", n, (a, b, c), tuple(sorted(edges)))


def path_diagram(n: int) -> Diagram:
    """Path(n) numbered 0..n-1 along the path: vertex i > 0 has the one
    lower neighbour i - 1."""
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return Diagram("Path", n, (), tuple((i, i + 1) for i in range(n - 1)))


def closure(seeds, moves, key=None, prune=None):
    """Walk from the seeds, yielding each state the first time it is
    reached; the caller may stop iterating at any point.  moves(state)
    iterates over the states one step away, and states count as the same
    when key(state) agrees (the state itself by default).  A step to a
    state already reached is dropped before prune is asked; a new state
    for which prune(state) holds is dropped and not walked from.  Seeds
    are never pruned."""
    seen = set()
    stack = []
    for t in seeds:
        k = t if key is None else key(t)
        if k not in seen:
            seen.add(k)
            stack.append(t)
            yield t
    while stack:
        for t in moves(stack.pop()):
            k = t if key is None else key(t)
            if k in seen or (prune is not None and prune(t)):
                continue
            seen.add(k)
            stack.append(t)
            yield t


@functools.cache
def neighbors(d: Diagram) -> tuple[tuple[int, ...], ...]:
    adj: list[list[int]] = [[] for _ in range(d.n)]
    for u, v in d.edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


def adjacent(d: Diagram, i: int, j: int) -> bool:
    if not (0 <= i < d.n and 0 <= j < d.n):
        raise ValueError("vertex out of range")
    return j in neighbors(d)[i]


@functools.cache
def cartan(d: Diagram) -> linalg.Mat:
    adj = neighbors(d)
    return tuple(
        tuple(2 if i == j else (-1 if j in adj[i] else 0) for j in range(d.n))
        for i in range(d.n)
    )


def classify(d: Diagram) -> TypeClass:
    """A path is finite.  Y(a, b, c) is finite, affine or indefinite as
    1/(a+1) + 1/(b+1) + 1/(c+1) is above, equal to or below 1."""
    if d.kind == "Path":
        return TypeClass.FINITE
    p, q, r = (x + 1 for x in d.arms)
    lhs, rhs = q * r + p * r + p * q, p * q * r
    if lhs > rhs:
        return TypeClass.FINITE
    return TypeClass.AFFINE if lhs == rhs else TypeClass.INDEFINITE


def weyl_order(d: Diagram) -> int:
    """Order of the Weyl group of a finite diagram, by the closed formulas
    for A_n, D_n and E_6..E_8."""
    if classify(d) is not TypeClass.FINITE:
        raise ValueError("group order is only defined for finite diagrams")
    if d.kind == "Path":
        return math.factorial(d.n + 1)
    if sorted(d.arms)[:2] == [1, 1]:
        return 2 ** (d.n - 1) * math.factorial(d.n)
    return {6: 51840, 7: 2903040, 8: 696729600}[d.n]


def parabolic_restrict(d: Diagram, vertices) -> tuple[Diagram, dict[int, int]]:
    """Induced subdiagram on the given vertices, renumbered to the standard
    scheme.  Returns the new diagram and the map old vertex -> new vertex.
    The vertex set must induce a connected path or Y shape."""
    vs = sorted(set(vertices))
    if not vs or any(v < 0 or v >= d.n for v in vs):
        raise ValueError("vertex set out of range")
    vset = set(vs)
    sub_adj = {v: [u for u in neighbors(d)[v] if u in vset] for v in vs}
    if len(list(closure(vs[:1], sub_adj.__getitem__))) != len(vs):
        raise ValueError("vertex set is not connected")
    degree3 = [v for v in vs if len(sub_adj[v]) == 3]
    if any(len(sub_adj[v]) > 3 for v in vs) or len(degree3) > 1:
        raise ValueError("subdiagram is not a path or a Y shape")

    # The subgraph is a tree: a walk from an end runs along the path, and
    # one from a branch neighbour that skips the branch runs out its arm.
    if not degree3:
        start = min(v for v in vs if len(sub_adj[v]) <= 1)
        order = closure([start], sub_adj.__getitem__)
        return path_diagram(len(vs)), {v: k for k, v in enumerate(order)}

    br = degree3[0]
    arms = sorted((list(closure([first], sub_adj.__getitem__,
                                prune=lambda u: u == br))
                   for first in sub_adj[br]),
                  key=lambda arm: (len(arm), arm[0]))
    order = [br] + [v for arm in arms for v in arm]
    return (y_diagram(*(len(arm) for arm in arms)),
            {v: k for k, v in enumerate(order)})


# --- hexagonal companion graphs -------------------------------------------

@dataclass(frozen=True)
class HGraph:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def h_graph(a: int, b: int, c: int) -> HGraph:
    """Companion graph of Y(a, b, c): a hexagon 0..5 with a tail of a-2,
    b-2, c-2 extra vertices attached at alternating corners 0, 2, 4.
    A tail of length 0 changes nothing and length -1 deletes the corner."""
    if min(a, b, c) < 1:
        raise ValueError("arm lengths must be at least 1")
    verts = set(range(6))
    edges = {(i, (i + 1) % 6) for i in range(6)}
    nxt = 6
    for corner, t in zip((0, 2, 4), (a - 2, b - 2, c - 2)):
        if t == -1:
            verts.discard(corner)
        else:
            at = corner
            for _ in range(t):
                verts.add(nxt)
                edges.add((at, nxt))
                at = nxt
                nxt += 1
    edges = {e for e in edges if e[0] in verts and e[1] in verts}
    return HGraph(tuple(sorted(verts)),
                  tuple(sorted(tuple(sorted(e)) for e in edges)))


def component_count(g: HGraph) -> int:
    adj: dict[int, list[int]] = {v: [] for v in g.vertices}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    comps = 0
    for v in g.vertices:
        if v not in seen:
            comps += 1
            seen.update(closure([v], adj.__getitem__))
    return comps


# --- serialization ---------------------------------------------------------

def diagram_to_json(d: Diagram) -> dict:
    if d.kind == "Y":
        a, b, c = d.arms
        return {"kind": "Y", "a": a, "b": b, "c": c}
    return {"kind": "Path", "n": d.n}
