"""The three workloads: seeded inputs, and the calls into tworoots that
each one makes.

The seed picks the climb starts and the query words and permutes the
order of the fixed input lists; the library only receives the inputs.
Every call into the library goes through a ``Recorder``, named after the
module and function it enters; these names are the layers of the traced
run.  ``linalg.nullspace`` is entered through ``forms.radical_basis``,
which only forwards to it.
"""

from __future__ import annotations

import random

import expected as ex
from tworoots import forms, orbits, roots, symsquare
from tworoots.diagram import path_diagram, y_diagram

PAPER_TAGS = {
    "full": ["A4", "A5", "A6", "A7", "A8", "D4", "D5", "D6", "D7", "D8",
             "E6", "E7", "E8"],
    "tiny": ["A4", "D4"],
}
CLIMBS_PER_ORBIT = 5
# Queries per pass, E8 and Y(4,4,4) interleaved 3:1.
QUERIES = {"full": 120, "tiny": 8}
MAX_WORD = 30
KERNEL_JOBS = {
    "full": [("order", "D4", "all"), ("order", "D5", "all"),
             ("order", "E6", "all"), ("order", "D6", "largest"),
             ("intersection", "D4", None), ("intersection", "D5", None),
             ("intersection", "D6", None)],
    "tiny": [("order", "D4", "all"), ("intersection", "D4", None)],
}


def diagram(tag: str):
    kind, n = tag[0], int(tag[1:])
    if kind == "A":
        return path_diagram(n)
    if kind == "D":
        return y_diagram(1, 1, n - 3)
    return y_diagram(1, 2, n - 4)


def make_inputs(workload: str, seed: int, size: str) -> dict:
    rng = random.Random(seed)
    if workload == "paper_tables":
        tags = list(PAPER_TAGS[size])
        rng.shuffle(tags)
        # Member indices to climb from, per orbit in order of (size, id).
        climbs = {tag: [rng.sample(range(s), CLIMBS_PER_ORBIT)
                        for s in sorted(ex.ORBIT_SIZES[tag])] for tag in tags}
        modules = list(ex.MODULE_ARMS) if size == "full" else []
        rng.shuffle(modules)
        return {"tags": tags, "climbs": climbs, "modules": modules,
                "y444_roots": size == "full"}
    if workload == "fork_queries":
        # Word lengths run through 1..MAX_WORD evenly on each fork, in
        # seeded order, so every seed asks for about the same work.
        count = QUERIES[size]
        lengths = {}
        for arms, share in ((ex.E8_ARMS, count - count // 4),
                            (ex.Y444_ARMS, count // 4)):
            lengths[arms] = [1 + k % MAX_WORD for k in range(share)]
            rng.shuffle(lengths[arms])
        queries = []
        for q in range(count):
            arms = ex.Y444_ARMS if q % 4 == 3 else ex.E8_ARMS
            n = sum(arms) + 1
            j = rng.randrange(ex.BASIS_SIZES[arms])
            word = tuple(rng.randrange(n) for _ in range(lengths[arms].pop()))
            queries.append((arms, j, word))
        return {"queries": queries}
    jobs = list(KERNEL_JOBS[size])
    rng.shuffle(jobs)
    tags = sorted({tag for _, tag, _ in jobs})
    rng.shuffle(tags)
    return {"tags": tags, "jobs": jobs}


def setup(workload: str, rec) -> dict:
    """Work done before the measured phase: the bases and action matrices
    that fork queries run against.  The other workloads start cold."""
    if workload != "fork_queries":
        return {}
    ready = {}
    for arms in (ex.E8_ARMS, ex.Y444_ARMS):
        d = y_diagram(*arms)
        basis = rec.call("symsquare.canonical_basis",
                         symsquare.canonical_basis, d)
        rec.call("symsquare.action_matrices", basis.action_matrices_np)
        ready[arms] = (d, basis)
    return ready


def run(workload: str, inputs: dict, ready: dict, rec) -> None:
    """The measured phase: a sequence of timed items."""
    if workload == "paper_tables":
        paper_tables(inputs, rec)
    elif workload == "fork_queries":
        fork_queries(inputs, ready, rec)
    else:
        kernel_closure(inputs, rec)


# --- paper_tables ----------------------------------------------------------

def paper_tables(inputs: dict, rec) -> None:
    """Cold tables of the paper: positive roots, canonical basis, orbits,
    highest elements by closed form and by climbing, and radicals of the
    orbit summands; then whole-module radicals of two indefinite forks and
    a height-bounded root enumeration on Y(4,4,4)."""
    for tag in inputs["tags"]:
        with rec.item(tag):
            _tables(rec, tag, inputs["climbs"][tag])
    for arms in inputs["modules"]:
        label = "Y%s module" % (arms,)
        with rec.item(label):
            d = y_diagram(*arms)
            basis = rec.call("symsquare.canonical_basis",
                             symsquare.canonical_basis, d)
            _radical(rec, label, d, [e.matrix for e in basis.elements])
    if inputs["y444_roots"]:
        with rec.item("Y(4,4,4) roots"):
            found = rec.call("roots.positive_roots", roots.positive_roots,
                             y_diagram(*ex.Y444_ARMS), ex.Y444_HEIGHT_BOUND)
            rec.count("roots.positive_roots.count", len(found))
            rec.check("Y(4,4,4) roots of height <= %d" % ex.Y444_HEIGHT_BOUND,
                      len(found) == ex.Y444_BOUNDED_ROOTS)


def _tables(rec, tag: str, climbs) -> None:
    d = diagram(tag)
    found = rec.call("roots.positive_roots", roots.positive_roots, d)
    rec.count("roots.positive_roots.count", len(found))
    rec.check(tag + " positive roots", len(found) == ex.POSITIVE_ROOTS[tag])
    basis = rec.call("symsquare.canonical_basis", symsquare.canonical_basis, d)
    rec.call("symsquare.action_matrices", basis.action_matrices_np)
    tables = rec.call("orbits.orbit_tables", orbits.orbit_tables, d)
    rec.count("orbits.orbit_tables.members", sum(t.size for t in tables))
    rec.check(tag + " orbit sizes",
              sorted(t.size for t in tables) == sorted(ex.ORBIT_SIZES[tag]))
    rec.check(tag + " highest heights", sorted(t.height for t in tables)
              == sorted(ex.HIGHEST_HEIGHTS[tag]))
    closed = rec.call("orbits.closed_form_highest",
                      orbits.closed_form_highest, d)
    rec.check(tag + " closed forms are the climbed tops",
              set(closed) == {t.highest for t in tables})
    for t, starts in zip(sorted(tables, key=lambda t: (t.size, t.id)), climbs):
        label = "%s orbit %d" % (tag, t.id)
        top = rec.call("symsquare.expand", basis.expand,
                       orbits.vee_pair(t.highest))
        rec.check(label + " height of the top's expansion",
                  sum(top) == t.height)
        for k in starts:
            got = rec.call("orbits.highest_pair", orbits.highest_pair, d,
                           t.members[k])
            rec.check("%s climb from member %d" % (label, k),
                      got == t.highest)
        _radical(rec, label, d,
                 [basis.elements[k].matrix for k in t.basis_members])


def _radical(rec, label: str, d, mats) -> None:
    g = rec.call("forms.gram", forms.gram, d, mats)
    rec.count("forms.gram.entries", len(mats) ** 2)
    rad = rec.call("linalg.nullspace", forms.radical_basis, g)
    rec.check(label + " radical dimension", len(rad) == ex.RADICAL_DIM)


# --- fork_queries ----------------------------------------------------------

def fork_queries(inputs: dict, ready: dict, rec) -> None:
    """Warm queries: act on a basis pair by a word, take the word's column
    of the action matrix, and expand the image.  The expansion must be
    plus or minus the column, and the column one-signed."""
    for arms, j, word in inputs["queries"]:
        d, basis = ready[arms]
        label = "Y%s word %s on element %d" % (arms, word, j)
        with rec.item(label):
            pair = rec.call("orbits.pair_action", orbits.pair_action, d,
                            word, basis.elements[j].pair)
            column = rec.call("symsquare.word_column", basis.word_column,
                              word, j)
            coords = rec.call("symsquare.expand", basis.expand,
                              orbits.vee_pair(pair))
            ok, sign = symsquare.sign_coherent(column)
            rec.check(label, ok and coords == tuple(sign * c for c in column))


# --- kernel_closure --------------------------------------------------------

def kernel_closure(inputs: dict, rec) -> None:
    """Kernels of the action on orbit summands by closing the image group,
    and their intersection by closing the reflection group."""
    tables = {}
    for tag in inputs["tags"]:
        with rec.item(tag + " orbit tables"):
            tables[tag] = rec.call("orbits.orbit_tables", orbits.orbit_tables,
                                   diagram(tag))
            rec.count("orbits.orbit_tables.members",
                      sum(t.size for t in tables[tag]))
    for kind, tag, which in inputs["jobs"]:
        label = "%s %s" % (kind, tag)
        with rec.item(label):
            d = diagram(tag)
            order, want = ex.WEYL_ORDERS[tag], ex.KERNEL_ORDERS[tag]
            if kind == "intersection":
                rep = rec.call("forms.kernel_intersection",
                               forms.kernel_intersection, d)
                rec.count("forms.image_order_sum", rep["group_order"])
                rec.check(label + " group order", rep["group_order"] == order)
                rec.check(label + " kernel orders", tuple(rep["kernel_orders"])
                          == tuple(want[t.size] for t in tables[tag]))
                rec.check(label + " is the center", rep["is_center"] is True)
                continue
            chosen = tables[tag]
            if which == "largest":
                chosen = [max(chosen, key=lambda t: t.size)]
            for t in chosen:
                k = rec.call("forms.action_kernel_order",
                             forms.action_kernel_order, d, t, order)
                rec.count("forms.image_order_sum", order // k)
                rec.check("%s orbit of size %d" % (label, t.size),
                          k == want[t.size])
