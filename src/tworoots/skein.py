"""Arc pictures for 2-roots of path and fork diagrams.

In two-coordinate form a 2-root is a pair of arcs on a row of points:
e_i - e_j is a plain arc from i to j and e_i + e_j a starred one.  The
expansion of a 2-root over the canonical basis becomes a sum of such
pictures, the text analogue of resolving a crossing."""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram
from .roots import epsilon_coords
from .symsquare import canonical_basis

Arc = tuple[int, int, bool]  # (i, j, starred)


@dataclass(frozen=True)
class ArcDiagram:
    points: int
    arcs: tuple[Arc, ...]


def point_count(d: Diagram) -> int:
    return d.n + 1 if d.kind == "Path" else d.n


def arc_diagram(d: Diagram, pair) -> ArcDiagram:
    arcs = []
    for r in pair:
        eps = epsilon_coords(d, r)
        arcs.append((eps.i, eps.j, eps.sign == "+"))
    return ArcDiagram(point_count(d), tuple(sorted(arcs)))


def eps_label(d: Diagram, pair) -> str:
    forms = sorted((epsilon_coords(d, r) for r in pair), key=lambda e: (e.i, e.j))
    return "".join(str(e) for e in forms)


def render_arcs(diag: ArcDiagram) -> str:
    width = 4 * (diag.points - 1) + 1
    lines = ["".join(str(k + 1).ljust(4) for k in range(diag.points)).rstrip()]
    for i, j, starred in diag.arcs:
        row = [" "] * width
        ci, cj = 4 * (i - 1), 4 * (j - 1)
        for c in range(ci + 1, cj):
            row[c] = "-"
        row[ci] = row[cj] = "+"
        if starred:
            row[(ci + cj) // 2] = "*"
        lines.append("".join(row).rstrip())
    return "\n".join(lines)


def render_skein(d: Diagram, pair) -> str:
    """The input 2-root drawn as arcs, then its canonical expansion with
    one picture per term."""
    basis = canonical_basis(d)
    coords = basis.expand_pair(*pair)
    out = ["input: " + eps_label(d, pair), render_arcs(arc_diagram(d, pair)),
           "", "expansion:"]
    for k, c in enumerate(coords):
        if not c:
            continue
        e = basis.elements[k]
        out.append("")
        out.append("%s * %s" % (c, eps_label(d, e.pair)))
        out.append(render_arcs(arc_diagram(d, e.pair)))
    return "\n".join(out) + "\n"
