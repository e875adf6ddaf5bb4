"""Self-check suites.

Each suite is a generator that re-derives a family of known facts from
scratch and yields one Check per comparison with frozen expected values,
as soon as it is made.  The CLI subcommand ``verify`` and the acceptance
tests both run these through run_suites; a Check with ok=False means a
real regression, details carry the numbers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .diagram import (TypeClass, adjacent, classify, closure,
                      component_count, h_graph, path_diagram, y_diagram)
from .forms import (_fixing, _weyl_walk, action_kernel_order,
                    affine_radical_witness, bprime, btilde, c_apply,
                    decompose_s2v, gram, kernel_intersection, kernel_orders,
                    norm2_witness, radical_basis, virasoro)
from .orbits import (closed_form_highest, ht2_of_pair, monoidal_covers,
                     orbit_tables, orthogonal_pairs, pair_action,
                     highest_pair)
from .roots import (bform, epsilon_coords, height, is_positive,
                    is_root, negate, positive_roots, simple_reflect,
                    simple_root, theta)
from .skein import arc_diagram, render_skein
from .symsquare import (apply_simple, apply_word, canonical_basis, conjugate,
                        m_functional, reflection_matrix, sign_coherent,
                        simple_matrices, standard_coords, vee)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        """The report line: PASS or FAIL, the name and any ": detail"."""
        head = "%s %s" % ("PASS" if self.ok else "FAIL", self.name)
        return "%s: %s" % (head, self.detail) if self.detail else head


def _listed(name, bad):
    """A check that passes when the list bad of mismatches is empty."""
    return Check(name, not bad, "mismatches: %s" % (bad or "none"))


def _counted(name, bad):
    """A check that passes when the count bad of failures is zero."""
    return Check(name, bad == 0, "%d failures" % bad)


def _family(tag):
    """Diagram for a short label like A5, D6, E7."""
    kind, n = tag[0], int(tag[1:])
    if kind == "A":
        return path_diagram(n)
    if kind == "D":
        return y_diagram(1, 1, n - 3)
    return y_diagram(1, 2, n - 4)


# The finite diagrams of the certified routes' and the kernels' checks
_LADDER = (["A%d" % n for n in range(4, 13)]
           + ["D%d" % n for n in range(4, 17)] + ["E6", "E7", "E8"])


# --- 1. classification and canonical bases ---------------------------------

CLASSIFICATION = [
    (("path", 2), "FINITE"), (("path", 5), "FINITE"), (("path", 8), "FINITE"),
    (("y", 1, 1, 1), "FINITE"), (("y", 1, 1, 5), "FINITE"),
    (("y", 1, 2, 2), "FINITE"), (("y", 1, 2, 3), "FINITE"),
    (("y", 1, 2, 4), "FINITE"),
    (("y", 2, 2, 2), "AFFINE"), (("y", 1, 3, 3), "AFFINE"),
    (("y", 1, 2, 5), "AFFINE"),
    (("y", 2, 2, 3), "INDEFINITE"), (("y", 1, 3, 4), "INDEFINITE"),
    (("y", 1, 2, 6), "INDEFINITE"), (("y", 3, 3, 3), "INDEFINITE"),
    (("y", 2, 3, 3), "INDEFINITE"),
]

D4_BASIS_PAIRS = (
    ((1, 0, 0, 0), (1, 0, 1, 1)),
    ((1, 0, 0, 0), (1, 1, 0, 1)),
    ((1, 0, 0, 0), (1, 1, 1, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0)),
    ((0, 0, 1, 0), (0, 1, 0, 0)),
    ((0, 1, 0, 0), (2, 1, 1, 1)),
    ((0, 0, 0, 1), (0, 0, 1, 0)),
    ((0, 0, 1, 0), (2, 1, 1, 1)),
    ((0, 0, 0, 1), (2, 1, 1, 1)),
)


def suite_basis(seed=0):
    bad = []
    for spec, want in CLASSIFICATION:
        d = path_diagram(spec[1]) if spec[0] == "path" else y_diagram(*spec[1:])
        if classify(d).name != want:
            bad.append(repr(d))
    yield _listed("basis: classification of 16 sample diagrams", bad)

    bad = []
    for a, b, c in itertools.combinations_with_replacement(range(1, 5), 3):
        d = y_diagram(a, b, c)
        want = d.n * (d.n + 1) // 2 - 1
        if len(canonical_basis(d)) != want:
            bad.append(repr(d))
    yield _listed("basis: size n(n+1)/2 - 1 for all Y(a,b,c), a<=b<=c<=4", bad)

    bad = []
    for n in range(3, 9):
        d = path_diagram(n)
        if len(canonical_basis(d)) != (n - 2) * (n + 1) // 2:
            bad.append(repr(d))
    yield _listed("basis: size (n-2)(n+1)/2 for paths n=3..8", bad)

    got = tuple(e.pair for e in canonical_basis(y_diagram(1, 1, 1)).elements)
    yield Check("basis: the nine elements for Y(1,1,1)",
                got == D4_BASIS_PAIRS, "got %d pairs" % len(got))

    bad = []
    for d, bound in [(_family("A8"), None), (_family("D8"), None),
                     (_family("E8"), None), (y_diagram(2, 2, 3), 30),
                     (y_diagram(1, 2, 6), 40)]:
        walk = closure((simple_root(d, i) for i in range(d.n)),
                       lambda r: (simple_reflect(d, i, r) for i in range(d.n)),
                       prune=lambda r: not is_positive(r) or (
                           bound is not None and height(r) > bound))
        want = tuple(sorted(walk, key=lambda r: (height(r), r)))
        if positive_roots(d, bound) != want:
            bad.append(repr(d))
    yield _listed("basis: positive roots equal the reflection walk of the "
                  "simple roots on A8, D8, E8, Y(2,2,3) <= 30, "
                  "Y(1,2,6) <= 40", bad)


# --- 2. orbit tables -------------------------------------------------------

ORBIT_SIZES = {
    "A4": [15], "A5": [45], "A6": [105], "A7": [210], "A8": [378],
    "D4": [6, 6, 6], "D5": [10, 60], "D6": [15, 180], "D7": [21, 420],
    "D8": [28, 840], "E6": [270], "E7": [945], "E8": [3780],
}


def suite_orbits(seed=0):
    for tag, sizes in sorted(ORBIT_SIZES.items()):
        d = _family(tag)
        tabs = orbit_tables(d)
        got = sorted(t.size for t in tabs)
        yield Check("orbits: %s splits as %s" % (tag, sizes),
                    got == sorted(sizes), "got %s" % got)
        brute = orthogonal_pairs(d)
        union = {p for t in tabs for p in t.members}
        yield Check("orbits: %s total matches brute force" % tag,
                    len(brute) == sum(sizes) and union == set(brute),
                    "%d pairs" % len(brute))
    bad = []
    for tag in ["D5", "D6", "D7", "D8"]:
        d = _family(tag)
        n = d.n
        small = min(orbit_tables(d), key=lambda t: t.size)
        if small.size != n * (n - 1) // 2 or len(small.basis_members) != n - 1:
            bad.append(tag)
            continue
        # every member is (e_i - e_j) v (e_i + e_j), each index pair once
        index_pairs = set()
        for a, b in small.members:
            ea, eb = epsilon_coords(d, a), epsilon_coords(d, b)
            if (ea.i, ea.j) != (eb.i, eb.j) or {ea.sign, eb.sign} != {"-", "+"}:
                bad.append(tag)
                break
            index_pairs.add((ea.i, ea.j))
        else:
            if len(index_pairs) != small.size:
                bad.append(tag)
    yield _listed("orbits: D small orbit is the difference-sum arc pairs, "
                  "size C(n,2), n-1 basis members", bad)

    bad = []
    for spec in [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 1, 5),
                 (1, 2, 2), (1, 2, 3), (1, 2, 4)]:
        got = component_count(h_graph(*spec))
        if got != len(orbit_tables(y_diagram(*spec))):
            bad.append(str(spec))
    yield _listed("orbits: hexagon graph components count the orbits on "
                  "all finite forks", bad)


# --- 3. sign coherence -----------------------------------------------------

def suite_coherence(seed=0):
    for tag in ["D4", "D5", "D6", "E6"]:
        d = _family(tag)
        basis = canonical_basis(d)
        bad = 0
        total = 0
        for t in orbit_tables(d):
            for p in t.members:
                total += 1
                coords = basis.expand_pair(*p)
                ok, sign = sign_coherent(coords)
                if not (ok and sign == 1
                        and all(isinstance(c, int) for c in coords)
                        and coords == t.coords[p]
                        and basis.combine(coords) == vee(*p)):
                    bad += 1
        yield _counted("coherence: %s all %d positive 2-roots expand with "
                       "nonnegative integers" % (tag, total), bad)

    for spec in [(1, 2, 4), (2, 2, 2), (3, 3, 3), (1, 2, 6)]:
        d = y_diagram(*spec)
        basis = canonical_basis(d)
        rng = random.Random("%d:%r" % (seed, d))
        k = len(basis)
        bad = 0
        trials = 10000
        for _ in range(trials):
            word = [rng.randrange(d.n) for _ in range(rng.randint(1, 30))]
            col = basis.word_column(word, rng.randrange(k))
            pos = any(x > 0 for x in col)
            neg = any(x < 0 for x in col)
            if (pos and neg) or not (pos or neg):
                bad += 1
        yield _counted("coherence: %r columns of %d random words stay "
                       "one-signed" % (d, trials), bad)

        # full matrices for a smaller sample
        mats = basis.action_matrices_np()
        eye = np.eye(k, dtype=np.int64)
        bad = 0
        for _ in range(100):
            word = [rng.randrange(d.n) for _ in range(rng.randint(1, 30))]
            m = eye
            for i in reversed(word):
                m = mats[i] @ m
            for j in range(k):
                col = m[:, j]
                if bool((col > 0).any()) == bool((col < 0).any()):
                    bad += 1
        yield _counted("coherence: %r all columns of 100 random word "
                       "matrices stay one-signed" % (d,), bad)


# --- 4. highest 2-roots ----------------------------------------------------

HIGHEST_HEIGHTS = {
    "A4": [5], "A5": [10], "A6": [17], "A7": [26], "A8": [37],
    "D4": [3, 3, 3], "D5": [4, 11], "D6": [5, 27], "D7": [6, 51],
    "D8": [7, 83], "E6": [28], "E7": [85], "E8": [295],
}


def suite_highest(seed=0):
    for tag, heights in sorted(HIGHEST_HEIGHTS.items()):
        d = _family(tag)
        tabs = orbit_tables(d)
        closed = set(closed_form_highest(d))
        climbed = {highest_pair(d, t.members[0]) for t in tabs}
        yield Check("highest: %s closed form matches the climb" % tag,
                    closed == climbed, "%d orbits" % len(tabs))
        got = sorted(t.height for t in tabs)
        yield Check("highest: %s heights are %s" % (tag, heights),
                    got == sorted(heights), "got %s" % got)
        dominated = all(
            all(c <= h for c, h in zip(t.coords[p], t.coords[t.highest]))
            for t in tabs for p in t.members)
        yield Check("highest: %s top dominates every orbit member "
                    "coordinatewise" % tag, dominated)
        rng = random.Random("%d:%s" % (seed, tag))
        redo = all(
            highest_pair(d, rng.choice(t.members), rng=rng) == t.highest
            for t in tabs for _ in range(5))
        yield Check("highest: %s five randomized climbs per orbit reach "
                    "the same top" % tag, redo)

    for tag in ["D4", "D5", "D6", "E6"]:
        d = _family(tag)
        bad = sum(1 for t in orbit_tables(d) for p in t.members
                  if highest_pair(d, p) != t.highest)
        yield _counted("highest: %s every member climbs to its orbit top"
                       % tag, bad)

    for tag in ["E7", "E8"]:
        d = _family(tag)
        (t,) = orbit_tables(d)
        rng = random.Random("%d:%s:sample" % (seed, tag))
        bad = sum(1 for _ in range(200)
                  if highest_pair(d, rng.choice(t.members)) != t.highest)
        yield _counted("highest: %s 200 sampled members climb to the top"
                       % tag, bad)

    e8 = _family("E8")
    b = canonical_basis(e8)
    (top,) = closed_form_highest(e8)
    coords = b.expand_pair(*top)
    ones = [k for k, c in enumerate(coords) if c == 1]
    want = ((0, 0, 0, 0, 0, 0, 0, 1), (2, 1, 1, 0, 2, 2, 2, 1))
    yield Check("highest: E8 has a unique coefficient-1 element, "
                "a7 v theta", ones == [34] and b.elements[34].pair == want,
                "indices %s" % ones)


# --- 5. the two partial orders ---------------------------------------------

def suite_orders(seed=0):
    for tag in ["D4", "D5", "D6", "E6"]:
        d = _family(tag)
        bad = 0
        moves = 0
        for t in orbit_tables(d):
            for p in t.members:
                base = t.coords[p]
                for _i, q in monoidal_covers(d, p):
                    moves += 1
                    if any(c > h for c, h in zip(base, t.coords[q])):
                        bad += 1
        yield _counted("orders: %s all %d monoidal covers increase "
                       "coordinates" % (tag, moves), bad)

    d = y_diagram(1, 1, 2)
    basis = canonical_basis(d)
    p = (simple_root(d, 0), theta(d, 4))
    coords = basis.expand_pair(*p)
    ok_coords = coords == (1, 1, 1) + (0,) * 11
    ht = ht2_of_pair(d, p)
    no_down = all(ht2_of_pair(d, pair_action(d, [i], p)) >= ht
                  for i in range(d.n))
    covers = sorted(i for i, _q in monoidal_covers(d, p))
    b0 = basis.elements[0].pair
    strict = b0 != p and all(c >= e for c, e in zip(
        coords, (1,) + (0,) * 13))
    yield Check("orders: D5 witness a0 v theta expands as three "
                "coefficient-1 terms", ok_coords, "coords %s" % (coords,))
    yield Check("orders: D5 witness is monoidally minimal with covers "
                "at 1,2,3", no_down and covers == [1, 2, 3],
                "covers %s" % covers)
    yield Check("orders: D5 witness dominates a basis element it does "
                "not cover monoidally", strict)


# --- 6. invariant forms and decompositions ---------------------------------

def suite_forms(seed=0):
    bad = []
    for tag in ["A4", "D4", "D5", "D6", "E6"]:
        d = _family(tag)
        basis = canonical_basis(d)
        if any(bprime(d, e.matrix, e.matrix) != 4 for e in basis.elements):
            bad.append(tag)
    yield _listed("forms: B'(t,t) = 4 on every basis 2-root", bad)

    d = path_diagram(4)
    basis = canonical_basis(d)
    vals = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            v = bprime(d, basis.elements[i].matrix, basis.elements[j].matrix)
            vals[v] = vals.get(v, 0) + 1
    yield Check("forms: A4 off-diagonal B' values are {-2: 6, 1: 4}",
                vals == {-2: 6, 1: 4}, "got %s" % vals)

    a3 = path_diagram(3)
    mats3 = [e.matrix for e in canonical_basis(a3).elements]
    g3 = gram(a3, mats3, p=2)
    mats4 = [e.matrix for e in canonical_basis(d).elements]
    g4 = gram(d, mats4, p=2)
    even3 = all(x == 0 for row in g3 for x in row)
    odd4 = any(x for row in g4 for x in row)
    yield Check("forms: half-form Gram vanishes mod 2 for A3 "
                "but not for A4", even3 and odd4)

    bad = []
    for tag in ["A3", "A4", "A5", "A6", "A7", "A8",
                "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]:
        d = _family(tag)
        rep = decompose_s2v(d)
        rads = [s["radical_dim"] for s in rep["orbit_summands"]]
        comp = rep["complement_dim"]
        want_comp = d.n if d.kind == "Path" else 0
        if any(rads) or comp != want_comp:
            bad.append("%s %s comp=%d" % (tag, rads, comp))
    yield _listed("forms: per-orbit radicals 0, complement n for paths "
                  "and 0 for forks", bad)

    patterns = {"D4": [3, 3, 3], "D5": [4, 10], "E6": [20]}
    bad = []
    for tag, dims in patterns.items():
        d = _family(tag)
        rep = decompose_s2v(d)
        got = sorted(s["dim"] for s in rep["orbit_summands"])
        if got != sorted(dims) or 1 + sum(got) != d.n * (d.n + 1) // 2:
            bad.append("%s %s" % (tag, got))
    yield _listed("forms: summand dimensions 1+3+3+3, 1+4+10, 1+20 fill "
                  "the symmetric square", bad)

    bad = []
    for tag in ["A4", "D4", "D5", "E6"]:
        d = _family(tag)
        om = virasoro(d)
        fixed = all(conjugate(simple_matrices(d)[i], om) == om
                    for i in range(d.n))
        rows = tuple(standard_coords(e.matrix)
                     for e in canonical_basis(d).elements)
        outside = (linalg.rank(rows + (standard_coords(om),))
                   == linalg.rank(rows) + 1)
        if not (btilde(d, om, om) == d.n == m_functional(d, om)
                and fixed and outside):
            bad.append(tag)
    yield _listed("forms: inverse Cartan element has norm n, trace "
                  "functional n, is group-fixed, and lies outside the "
                  "basis span", bad)

    bad = []
    for tag in ["A3", "A4", "A5", "A6", "A7", "A8",
                "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]:
        d = _family(tag)
        basis = canonical_basis(d)
        for e1 in basis.elements:
            a, b = e1.pair
            for e2 in basis.elements:
                c, dd = e2.pair
                want = (bform(d, a, c) * bform(d, b, dd)
                        + bform(d, a, dd) * bform(d, b, c))
                if bprime(d, e1.matrix, e2.matrix) != want:
                    bad.append(tag)
                    break
            if tag in bad:
                break
    yield _listed("forms: trace formula matches the two-term pairing "
                  "product on every basis pair through rank 8", bad)

    bad = []
    for fam in [("A4",), ("D5",), ("E6",), ("y", 2, 2, 3)]:
        d = _family(fam[0]) if len(fam) == 1 else y_diagram(*fam[1:])
        mats = [e.matrix for e in canonical_basis(d).elements]
        for ms in (mats, mats + [virasoro(d)]):
            want = tuple(tuple(bprime(d, s, t) for t in ms) for s in ms)
            # repr tells an int from an equal Fraction
            if repr(gram(d, ms)) != repr(want):
                bad.append("%r with %d elements" % (d, len(ms)))
    yield _listed("forms: matmul Gram equals the per-entry trace-form "
                  "Gram on A4, D5, E6, Y(2,2,3), with and without the "
                  "inverse Cartan element", bad)

    bad = []
    for fam in [("A4",), ("D5",), ("E6",), ("y", 2, 2, 3)]:
        d = _family(fam[0]) if len(fam) == 1 else y_diagram(*fam[1:])
        basis = canonical_basis(d)
        rng = random.Random("%d:invariance:%r" % (seed, d))
        mats = simple_matrices(d)
        for _ in range(1000):
            t1 = apply_word(d, [rng.randrange(d.n) for _ in range(rng.randrange(9))],
                            rng.choice(basis.elements).matrix)
            t2 = apply_word(d, [rng.randrange(d.n) for _ in range(rng.randrange(9))],
                            rng.choice(basis.elements).matrix)
            i = rng.randrange(d.n)
            if bprime(d, conjugate(mats[i], t1), conjugate(mats[i], t2)) \
                    != bprime(d, t1, t2):
                bad.append(repr(d))
                break
    yield _listed("forms: the half form is reflection-invariant on 1000 "
                  "random pairs per type", bad)

    bad = []
    for tag in ["A3", "D4"]:
        d = _family(tag)
        roots = [simple_root(d, i) for i in range(d.n)]
        for i, j, k, l in itertools.product(range(d.n), repeat=4):
            v = (bform(d, roots[i], roots[k]) * bform(d, roots[j], roots[l])
                 - bform(d, roots[i], roots[l]) * bform(d, roots[j], roots[k])
                 + bform(d, roots[j], roots[k]) * bform(d, roots[i], roots[l])
                 - bform(d, roots[j], roots[l]) * bform(d, roots[i], roots[k]))
            if v != 0:
                bad.append(tag)
                break
    yield _listed("forms: symmetrized tensors pair to zero with "
                  "antisymmetrized ones", bad)

    def s2_gram_rank(d):
        units = []
        for i in range(d.n):
            for j in range(i, d.n):
                m = [[0] * d.n for _ in range(d.n)]
                m[i][j] = 1
                m[j][i] = 1
                units.append(tuple(tuple(r) for r in m))
        g = tuple(tuple(btilde(d, a, b) for b in units) for a in units)
        return linalg.rank(g), len(units)

    bad = []
    for tag in ["D4", "D5", "E6"]:
        d = _family(tag)
        rk, full = s2_gram_rank(d)
        if rk != full:
            bad.append("%s rank %d of %d" % (tag, rk, full))
    rk, full = s2_gram_rank(y_diagram(2, 2, 2))
    if rk >= full:
        bad.append("Y(2,2,2) unexpectedly nonsingular")
    c = _listed("forms: product form is nonsingular on the full symmetric "
                "square exactly when the Cartan matrix is", bad)
    yield replace(c, detail="%s; Y(2,2,2) rank %d of %d"
                  % (c.detail, rk, full))

    d = y_diagram(2, 2, 2)
    try:
        decompose_s2v(d)
        raised = False
    except ValueError:
        raised = True
    w = affine_radical_witness(d)
    rows = [standard_coords(m) for m in w["elements"]]
    rk = linalg.rank(tuple(rows))
    rk2 = linalg.rank(tuple(rows + [standard_coords(w["delta_squared"])]))
    ortho = all(btilde(d, m, vee(simple_root(d, i), simple_root(d, j))) == 0
                for m in w["elements"]
                for i in range(d.n) for j in range(i, d.n))
    yield Check("forms: Y(2,2,2) is degenerate with radical delta v a_i "
                "of dimension 7",
                raised and rk == 7 == d.n and rk2 == 7 and ortho,
                "rank %d" % rk)

    # The mod p radical alone decides both: gram refuses a Gram with a
    # non-integral entry mod p, and an integral matrix has at least its
    # rank mod p over Q, so nondegenerate mod p is nondegenerate over Q.
    prime = linalg.CERT_PRIME
    bad = []
    forks = []
    for arms in itertools.combinations_with_replacement(range(1, 9), 3):
        d = y_diagram(*arms)
        if d.n <= 11 and classify(d) is not TypeClass.AFFINE:
            forks.append(d)
            mats = [e.matrix for e in canonical_basis(d).elements]
            if radical_basis(gram(d, mats, prime), prime):
                bad.append(repr(d))
    yield _listed("forms: the module of each of the %d non-affine forks "
                  "with n <= 11 is nondegenerate over Q and mod 2^31-1"
                  % len(forks), bad)

    # The certified routes against the Bareiss oracle: the basis solve
    # lifted from mod 2^31-1, and the radicals that linalg.nullspace
    # certifies zero by their rank mod 2^31-1.
    bad = []
    for d in [_family(tag) for tag in _LADDER] + forks:
        basis = canonical_basis(d)
        solve, den = linalg.rref_solve(basis._coords.T)
        if classify(d) is TypeClass.FINITE:
            summands = basis.summands()
        else:
            summands = [range(len(basis))]
        grams = [gram(d, [basis.elements[k].matrix for k in members])
                 for members in summands]
        if (den != basis._den or solve.tolist() != basis._solve.tolist()
                or any(linalg.nullspace(g) != linalg.nullspace_rref(g)
                       for g in grams)):
            bad.append(repr(d))
    yield _listed("forms: the lifted basis solve and the certified "
                  "radicals equal the Bareiss route on A4-A12, D4-D16, "
                  "E6-E8 and the %d forks" % len(forks), bad)


# --- 7. kernels of the orbit actions ---------------------------------------

def suite_kernels(seed=0):
    d = y_diagram(1, 1, 1)
    ks = kernel_orders(d, orbit_tables(d), 192)
    yield Check("kernels: D4 all three orbits have kernel of order 8",
                ks == [8, 8, 8], "got %s" % ks)

    d = y_diagram(1, 1, 2)
    tabs = {t.size: t for t in orbit_tables(d)}
    k_small, k_large = kernel_orders(d, [tabs[10], tabs[60]], 1920)
    yield Check("kernels: D5 small orbit 16, large orbit 1",
                (k_small, k_large) == (16, 1),
                "got %d, %d" % (k_small, k_large))

    d = y_diagram(1, 1, 3)
    large = max(orbit_tables(d), key=lambda t: t.size)
    k = action_kernel_order(d, large, 23040)
    yield Check("kernels: D6 large orbit has kernel of order 2",
                k == 2, "got %d" % k)

    d = y_diagram(1, 2, 2)
    (t,) = orbit_tables(d)
    k = action_kernel_order(d, t, 51840)
    yield Check("kernels: E6 action is faithful", k == 1, "got %d" % k)

    bad = []
    for d in map(_family, ["A4", "D4", "D5"]):
        gens = [np.array(m, dtype=np.int64) for m in simple_matrices(d)]
        walk = {g.tobytes() for g in closure(
            [np.eye(d.n, dtype=np.int64)], lambda g: (g @ r for r in gens),
            key=np.ndarray.tobytes)}
        ws = [w.tobytes() for w in _weyl_walk(d).astype(np.int64)]
        if len(set(ws)) != len(ws) or set(ws) != walk:
            bad.append(repr(d))
    yield _listed("kernels: the Weyl group tree walk has distinct elements "
                  "and equals the closure of the simple reflections on A4, "
                  "D4, D5", bad)

    bad = []
    for d in map(_family, ["A3", "A4", "A5", "D4", "D5", "D6", "E6"]):
        group, summands = _weyl_walk(d), canonical_basis(d).summands()
        inter = _fixing(d, sum(summands, ()), group)
        one = np.eye(d.n, dtype=np.int8)
        walked = {"group_order": len(group),
                  "kernel_orders": tuple(len(_fixing(d, s, group))
                                         for s in summands),
                  "intersection_order": len(inter),
                  "is_center": {w.tobytes() for w in inter}
                  <= {one.tobytes(), (-one).tobytes()}}
        if kernel_intersection(d) != walked:
            bad.append(repr(d))
    yield _listed("kernels: the search's kernel orders, intersection "
                  "orders and centers equal the filter of the whole walk "
                  "of W on A3-A5, D4-D6 and E6", bad)

    # A_n acts faithfully; on D_n the sign changes act trivially on the
    # small orbit, and the center alone on the large one.  The center has
    # order 2 where -1 is in W: D_n for even n, E7, E8.
    bad = []
    for tag in _LADDER:
        d, n = _family(tag), int(tag[1:])
        z = 2 if tag in ("E7", "E8") or tag[0] == "D" and n % 2 == 0 else 1
        want = {"A": [1], "D": [z, 2 ** (n - 1)] if n > 4 else [8] * 3,
                "E": [z]}[tag[0]]
        rep = kernel_intersection(d)
        if (sorted(rep["kernel_orders"]), rep["intersection_order"],
                rep["is_center"]) != (want, z, True):
            bad.append(tag)
    yield _listed("kernels: the kernel orders take their closed forms on "
                  "A4-A12, D4-D16 and E6-E8 (A_n 1; D4 8, 8, 8; D_n 2 or 1 "
                  "and 2^(n-1); E6 1, E7 2, E8 2), and they meet in the "
                  "center", bad)


# --- 8. algebraic identities -----------------------------------------------

def suite_identities(seed=0):
    for tag in ["D5", "E6"]:
        d = _family(tag)
        basis = canonical_basis(d)
        pairs = [p for t in orbit_tables(d) for p in t.members]

        bad = 0
        for (al, be) in pairs:
            t = vee(al, be)
            for e in basis.elements:
                lhs = c_apply(d, al, c_apply(d, be, e.matrix))
                if lhs != linalg.mat(bprime(d, t, e.matrix)
                                     * linalg.exact(t)):
                    bad += 1
        yield _counted("identities: %s composite projection equals B' "
                       "coefficient on all %d cases"
                       % (tag, len(pairs) * len(basis)), bad)

        sm = simple_matrices(d)
        bad = 0
        crit_bad = 0
        for (al, be) in pairs:
            s = vee(al, be)
            for g in range(d.n):
                gam = simple_root(d, g)
                x = bform(d, al, gam)
                y = bform(d, be, gam)
                v = tuple(x * y * gam[k] - x * be[k] - y * al[k]
                          for k in range(d.n))
                if conjugate(sm[g], s) != linalg.mat(
                        linalg.exact(s) + linalg.exact(vee(gam, v))):
                    bad += 1
                if any(v):
                    isroot = is_root(d, v) or is_root(d, negate(v))
                    if isroot != (abs(x) == 1 or abs(y) == 1):
                        crit_bad += 1
        yield _counted("identities: %s reflection formula "
                       "s(a v b) = a v b + g v (xy g - x b - y a)" % tag, bad)
        yield _counted("identities: %s correction root test |x|=1 or |y|=1"
                       % tag, crit_bad)

        bad = 0
        for e in basis.elements:
            i, beta = e.labels[0]
            for g in range(d.n):
                v = bform(d, beta, simple_root(d, g))
                if g == i:
                    ok = v == 0
                elif beta == simple_root(d, g):
                    ok = v == 2
                else:
                    ok = v in (-1, 0, 1)
                if not ok:
                    bad += 1
        yield _counted("identities: %s elementary roots pair with simples "
                       "in {-1,0,1} away from their vertex" % tag, bad)

        bad = 0
        for g, act in enumerate(basis.action_matrices_np()):
            for k, e in enumerate(basis.elements):
                col = tuple(int(x) for x in act[:, k])
                others = [x for r, x in enumerate(col) if r != k and x]
                shape_ok = (col[k], others) in ((1, []), (-1, []), (1, [1]))
                if not shape_ok or basis.expand(
                        apply_simple(d, g, e.matrix)) != col:
                    bad += 1
        yield _counted("identities: %s reflection action is fix, negate, "
                       "or add a single partner" % tag, bad)

        bad = 0
        for i in range(d.n):
            for j in range(d.n):
                if i == j or not adjacent(d, i, j):
                    continue
                f = basis.star_map(i, j)
                g = basis.star_map(j, i)
                img = [f[k] for k in basis.wrt(i)]
                if (sorted(img) != sorted(set(img))
                        or not set(img) <= set(basis.wrt(j))
                        or any(g[f[k]] != k for k in basis.wrt(i))):
                    bad += 1
        yield _counted("identities: %s star maps are inverse bijections "
                       "between adjacent classes" % tag, bad)

    d6 = y_diagram(1, 1, 3)
    word = [4, 5, 3, 4, 0, 3, 1, 0]
    got = pair_action(d6, word, (simple_root(d6, 1), simple_root(d6, 2)))
    top = positive_roots(d6, None)[-1]
    yield Check("identities: D6 braid word carries the leaf pair to "
                "(leaf, highest root)",
                got == (simple_root(d6, 5), top), "got %s" % (got,))

    reports = []
    all_found = True
    for tag in ["D4", "D5", "E6"]:
        d = _family(tag)
        basis = canonical_basis(d)
        total = found = 0
        for g, act in enumerate(basis.action_matrices_np()):
            gam = simple_root(d, g)
            for k, e in enumerate(basis.elements):
                partners = [r for r in act[:, k].nonzero()[0] if r != k]
                if not partners:
                    continue
                total += 1
                i, beta = e.labels[0]
                gens = [simple_root(d, i), beta, gam]
                if _rank3_orbit_reaches(d, e.matrix,
                                        basis.elements[partners[0]].matrix,
                                        gens):
                    found += 1
        reports.append("%s %d/%d" % (tag, found, total))
        all_found = all_found and found == total
    yield Check("identities: add-case partner 2-roots conjugate under "
                "the rank-3 reflection subgroup", all_found,
                ", ".join(reports))


def _rank3_orbit_reaches(d, src, dst, gens):
    """Whether dst lies in the orbit of the 2-root src under the subgroup
    generated by reflections in the three given roots; gives up after
    100001 orbit members."""
    mats = [reflection_matrix(d, g) for g in gens]
    orbit = closure([src], lambda s: (conjugate(m, s) for m in mats))
    return dst in itertools.islice(orbit, 100001)


# --- 9. arc pictures -------------------------------------------------------

A3_SKEIN = """\
input: (e1-e3)(e2-e4)
1   2   3   4
+-------+
    +-------+

expansion:

1 * (e1-e2)(e3-e4)
1   2   3   4
+---+
        +---+

1 * (e1-e4)(e2-e3)
1   2   3   4
+-----------+
    +---+
"""

D4_SKEIN = """\
input: (e1+e4)(e2+e3)
1   2   3   4
+-----*-----+
    +-*-+

expansion:

1 * (e1-e4)(e2-e3)
1   2   3   4
+-----------+
    +---+

1 * (e1-e2)(e3-e4)
1   2   3   4
+---+
        +---+

1 * (e1+e2)(e3+e4)
1   2   3   4
+-*-+
        +-*-+
"""


def suite_skein(seed=0):
    a3 = path_diagram(3)
    pair = ((1, 1, 0), (0, 1, 1))
    got = render_skein(a3, pair)
    yield Check("skein: A3 crossing resolves into two plain terms",
                got == A3_SKEIN)
    arcs = arc_diagram(a3, pair).arcs
    yield Check("skein: A3 input arcs are 1-3 and 2-4",
                arcs == ((1, 3, False), (2, 4, False)),
                "got %s" % (arcs,))

    d4 = y_diagram(1, 1, 1)
    pair = ((1, 0, 1, 1), (1, 1, 1, 0))
    got = render_skein(d4, pair)
    yield Check("skein: D4 starred crossing resolves into three terms",
                got == D4_SKEIN)
    arcs = arc_diagram(d4, pair).arcs
    yield Check("skein: D4 input arcs are 1+4 and 2+3 starred",
                arcs == ((1, 4, True), (2, 3, True)),
                "got %s" % (arcs,))


# --- 10. norm 2 witnesses beyond affine type -------------------------------

WITNESS_DELTAS = {
    (2, 2, 3): (3, 2, 1, 2, 1, 2, 1, 0),
    (1, 3, 4): (4, 2, 3, 2, 1, 3, 2, 1, 0),
    (1, 2, 6): (6, 3, 4, 2, 5, 4, 3, 2, 1, 0),
}


def suite_witness(seed=0):
    for spec, want_delta in sorted(WITNESS_DELTAS.items()):
        w = norm2_witness(*spec)
        ok = (w["norm"] == 2 and w["sign_coherent"] and w["sign"] == 1
              and w["delta"] == want_delta
              and all(isinstance(c, int) and c >= 0 for c in w["coords"]))
        yield Check("witness: Y%s norm 2 element with one-signed "
                    "expansion" % (spec,), ok,
                    "norm %s sign %s" % (w["norm"], w["sign"]))


SUITES = {
    "basis": suite_basis,
    "orbits": suite_orbits,
    "coherence": suite_coherence,
    "highest": suite_highest,
    "orders": suite_orders,
    "forms": suite_forms,
    "kernels": suite_kernels,
    "identities": suite_identities,
    "skein": suite_skein,
    "witness": suite_witness,
}


def run_suites(names, seed=0):
    """The checks of the named suites in the order named, each suite once;
    "all" stands for every suite in SUITES order."""
    expanded = []
    for name in names:
        for k in SUITES if name == "all" else [name]:
            if k not in SUITES:
                raise ValueError("unknown suite %r" % (k,))
            if k not in expanded:
                expanded.append(k)
    return list(itertools.chain.from_iterable(
        SUITES[k](seed=seed) for k in expanded))
