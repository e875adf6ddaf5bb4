"""Bilinear forms on the symmetric square and what they reveal: Gram
matrices and radicals of the canonical basis, the Weyl-invariant element
dual to the trace functional, summand bookkeeping, kernels of the orbit
representations, and a norm-2 element living just outside an affine
subdiagram."""

from __future__ import annotations

import functools
import math
from fractions import Fraction as Q

import numpy as np

from . import linalg
from .diagram import (Diagram, TypeClass, cartan, classify, neighbors,
                      weyl_order, y_diagram)
from .roots import delta, negate, positive_roots, simple_root
from .symsquare import (SymMatrix, canonical_basis, reflection_matrix,
                        sign_coherent, standard_coords, vee)


def _as_int(x):
    if isinstance(x, Q) and x.denominator == 1:
        return int(x)
    return x


def btilde(d: Diagram, s: SymMatrix, t: SymMatrix):
    """trace(A s A t): the product form on the tensor square, as the sum
    of the entries of (A s) times (A t)^T, elementwise; the per-entry
    check on gram's reshaped product."""
    a = linalg.exact(cartan(d))
    return _as_int(((a @ linalg.exact(s)) * (a @ linalg.exact(t)).T).sum())


def bprime(d: Diagram, s: SymMatrix, t: SymMatrix):
    """Half the product form; takes the value
    B(a,c)B(b,d) + B(a,d)B(b,c) on a v b against c v d."""
    return _half(btilde(d, s, t))


def c_apply(d: Diagram, alpha, s: SymMatrix) -> SymMatrix:
    """The operator (reflection - identity) in a norm-2 vector."""
    r, s = linalg.exact(reflection_matrix(d, alpha)), linalg.exact(s)
    return linalg.mat(r @ s @ r.T - s)


def _half(x):
    """x / 2, as an int when it is integral."""
    if isinstance(x, int) and not x & 1:
        return x >> 1
    return _as_int(Q(x, 2))


def gram(d: Diagram, mats, p: int | None = None) -> linalg.Mat:
    """Gram matrix of the given elements under the half product form,
    optionally reduced mod a prime.  One matmul: with L_i = A S_i, entry
    (i, j) is half of trace(L_i L_j) = <L_i, L_j^T>, the flattened L_i
    against the flattened transpose of L_j.  It runs in int64 when
    linalg.int_array reads the stack of elements as an integer array
    (never on Fractions, which an int64 cast would truncate) and
    n^2 (a s)^2 < 2**63, with a the largest row sum of |A| and s the
    largest |entry|: every entry of L_i and every partial sum of the
    trace is then inside int64.  Any other stack takes the exact
    object-dtype matmul over Python ints and Fractions; both give the
    same entries."""
    if p is not None:
        linalg.check_prime(p)
    k, n = len(mats), d.n
    cartan_np = np.array(cartan(d), dtype=np.int64)
    ints = linalg.int_array(mats)
    a = int(np.abs(cartan_np).sum(axis=1).max(initial=0))
    if ints is not None and n * n * (a * ints[1]) ** 2 < 2**63:
        left = cartan_np @ ints[0].astype(np.int64).reshape(k, n, n)
    else:
        left = (cartan_np.astype(object)
                @ linalg.exact(mats).reshape(k, n, n))
    twice = (left.reshape(k, n * n)
             @ left.transpose(0, 2, 1).reshape(k, n * n).T)
    g = [[_half(x) for x in row] for row in twice.tolist()]
    if p is not None:
        if any(isinstance(x, Q) for row in g for x in row):
            raise ValueError("modular Gram needs integer entries")
        g = linalg.residues(g, p)
    return linalg.mat(g)


def radical_basis(g: linalg.Mat, p: int | None = None) -> tuple:
    """Coordinate vectors spanning the radical of a Gram matrix, over the
    rationals or mod a prime."""
    return linalg.nullspace(g, p)


def virasoro(d: Diagram) -> SymMatrix:
    """The invariant element pairing to B itself under the product form:
    sum of dual basis (x) basis, whose matrix is the inverse Cartan."""
    inv = linalg.inverse(cartan(d))
    return tuple(tuple(_as_int(x) for x in row) for row in inv)


def affine_radical_witness(d: Diagram) -> dict:
    """For an affine diagram: the null root delta and the family
    delta v alpha_i (with delta v delta in their span) that spans the
    radical of the half product form on the canonical-basis module, and
    radical_dim, the rank of that family with delta v delta."""
    dv = delta(d)
    mats = tuple(vee(dv, simple_root(d, i)) for i in range(d.n))
    family = mats + (vee(dv, dv),)
    return {"delta": dv, "elements": mats, "delta_squared": family[-1],
            "radical_dim": linalg.rank(tuple(map(standard_coords, family)))}


def decompose_s2v(d: Diagram, p: int | None = None) -> dict:
    """Dimension bookkeeping for the symmetric square: one invariant line
    plus the span of the canonical basis, which in finite type splits into
    the summands of CanonicalBasis.summands, one per orbit.  Radical
    dimensions are over the rationals, or mod p when a prime is given."""
    cls = classify(d)
    if cls is TypeClass.AFFINE:
        raise ValueError("affine diagram: the form is degenerate; "
                         "see affine_radical_witness")
    if p is not None:
        linalg.check_prime(p)
    basis = canonical_basis(d)
    n = d.n
    report: dict = {
        "diagram": repr(d),
        "n": n,
        "dim_sym_square": n * (n + 1) // 2,
        "invariant_dim": 1,
        "module_dim": len(basis),
    }
    if p is not None:
        report["prime"] = p
    if cls is TypeClass.FINITE:
        summands = []
        for sid, members in enumerate(basis.summands(), start=1):
            mats = [basis.elements[k].matrix for k in members]
            rad = radical_basis(gram(d, mats, p), p)
            summands.append({"id": sid, "dim": len(mats),
                             "radical_dim": len(rad)})
        report["orbit_summands"] = summands
        report["complement_dim"] = n * (n + 1) // 2 - 1 - len(basis)
    else:
        rad = radical_basis(gram(d, [e.matrix for e in basis.elements], p), p)
        report["module_radical_dim"] = len(rad)
    return report


@functools.cache
def _weyl_walk(d: Diagram) -> np.ndarray:
    """The elements of W as one read-only int8 stack of matrices on
    coefficient columns, by length from the identity, in a tree walk.
    Column j of w is the root w(alpha_j), whose sign is that of its
    height, and each w other than 1 has the parent w s_i, one shorter,
    for the least i with w(alpha_i) < 0.  So w s_i is a child of w when
    its column i is negative and its columns before i are positive, and
    each element is reached once: layer by layer, and within a layer by
    letter, then by parent.  The child w s_i differs from w in few
    columns: column i is negated and each neighbour j of i gets column j
    plus column i.  The column heights of a layer are carried in int16
    and updated the same way.  Entries are root coefficients (at most 6,
    on E8); a parent with an entry past 63, whose children could leave
    int8, is refused, and so is a rank whose heights could leave int16."""
    order, n, adj = weyl_order(d), d.n, neighbors(d)
    if 126 * n >= 2 ** 15:
        raise RuntimeError("rank %d is past the int16 heights" % n)
    lower = [(k, i) for i in range(n) for k in adj[i] if k < i]
    group = np.empty((order, n, n), dtype=np.int8)
    group[0] = np.eye(n, dtype=np.int8)
    heights = np.ones((n, 1), dtype=np.int16)  # [k, l]: of column k of l
    start, end = 0, 1
    while end > start:
        layer = group[start:end]
        if layer.max() > 63 or layer.min() < -63:
            raise RuntimeError("a group element has an entry past 63, "
                               "whose children could leave int8")
        # bad[i, l]: how many of the columns 0..i of (parent l) s_i are
        # positive where they must be negative (i) or negative where they
        # must be positive (k < i).  A column k < i not joined to i is the
        # parent's; a joined one is the parent's column k plus column i.
        neg = heights < 0
        bad = np.cumsum(neg, axis=0, dtype=np.int16)
        for k, i in lower:
            bad[i] -= neg[k]
            bad[i] += heights[k] + heights[i] < 0
        # by letter, then by parent
        letters, parents = np.divmod(np.flatnonzero(bad == 0), end - start)
        if end + len(parents) > order:
            raise RuntimeError("walk found more than %d elements" % order)
        child = group[end:end + len(parents)]
        # parents are in range; mode "raise" would buffer a copy of child
        np.take(layer, parents, axis=0, out=child, mode="clip")
        heights = heights[:, parents]
        cuts = np.searchsorted(letters, np.arange(n + 1))
        for i, js in enumerate(adj):
            w, h = child[cuts[i]:cuts[i + 1]], heights[:, cuts[i]:cuts[i + 1]]
            for j in js:
                w[:, :, j] += w[:, :, i]
                h[j] += h[i]
            w[:, :, i] *= -1
            h[i] *= -1
        start, end = end, end + len(parents)
    if end != order:
        raise RuntimeError("walk found %d elements, expected %d"
                           % (end, order))
    group.flags.writeable = False
    return group


def _fixing(d: Diagram, members: tuple[int, ...],
            stack: np.ndarray) -> np.ndarray:
    """The elements w of the stack with w(a) v w(b) = a v b for every
    basis member a v b with these indices, by plain integer products: the
    oracle for _kernel_order.  As a and b are independent norm-2 roots,
    (w(a), w(b)) must be (a, b) or (b, a) up to one common sign."""
    group = stack.astype(np.int64)
    keep = np.ones(len(group), dtype=bool)
    for k in members:
        a, b = map(np.array, canonical_basis(d).elements[k].pair)
        wa, wb = group @ a, group @ b
        keep &= np.logical_or.reduce([
            (wa == x).all(axis=1) & (wb == y).all(axis=1)
            for x, y in ((a, b), (b, a), (-a, -b), (-b, -a))])
    return stack[keep]


@functools.cache
def _root_gram(d: Diagram):
    """The roots, positive then negative, as an int64 stack, the index of
    each root by its tuple of Python ints, and the root Gram table
    B(Phi_r, Phi_s) in int8 (entries -2 to 2), built once per diagram."""
    pos = np.array(positive_roots(d), dtype=np.int64)
    form = (pos @ np.array(cartan(d), dtype=np.int64) @ pos.T).astype(np.int8)
    roots = np.concatenate([pos, -pos])
    index = {r: k for k, r in enumerate(map(tuple, roots.tolist()))}
    return roots, index, np.block([[form, -form], [-form, form]])


def _in_weyl(d: Diagram, columns) -> bool:
    """Whether the root lattice isometry w with these columns w(alpha_j),
    in Python ints, lies in W.  The isometries are W times the diagram's
    automorphisms g, and for w = u g, u in W, a negative column i makes
    w s_i = (u s_{g(i)}) g shorter in u: negate column i and add it to
    its neighbours'.  The descent ends at g, the identity when w is in W."""
    adj, cols = neighbors(d), [list(c) for c in columns]
    heights = [sum(c) for c in cols]
    while min(heights) < 0:
        i = heights.index(min(heights))
        for j in adj[i]:
            cols[j] = [x + y for x, y in zip(cols[j], cols[i])]
            heights[j] += heights[i]
        cols[i] = [-x for x in cols[i]]
        heights[i] = -heights[i]
    return all(c[j] == 1 and heights[j] == 1 for j, c in enumerate(cols))


@functools.cache
def _kernel_order(d: Diagram, members: tuple[int, ...]) -> int:
    """The number of w in W with w(a) v w(b) = a v b, that is, with
    (w(a), w(b)) equal to (a, b) or (b, a) up to one common sign, for every
    basis member a v b with these indices.  A backtrack with the simple
    roots as the base (Sims 1970; Seress, Permutation Group Algorithms,
    2003, ch. 4 and 9): w is the tuple of roots w(alpha_j), with
    B(w(alpha_j), w(alpha_k)) = C[j][k], chosen a letter at a time, first
    the letters i of the members' a = alpha_i, whose images lie in
    {+-a, +-b}, then each letter joined to one already chosen.
    Candidates are rows of _root_gram's table.  A member is checked once
    w(b) is known: the norm-2 vector w(b) is the root y asked for exactly
    when B(w(b), y) = 2, a sum of table entries, as the form is positive
    definite.  At level t the earlier letters are fixed to their own
    roots; the candidates with a completion, found depth first (the
    letter's own root has 1), are the orbit of its root under that
    stabiliser, and |K| is the product of the orbit sizes.  Membership in
    W is tested only at a leaf (_in_weyl), which rejects the diagram's
    automorphisms.  With no members the count is |W|."""
    n, adj, basis = d.n, neighbors(d), canonical_basis(d)
    roots, index, table = _root_gram(d)
    allowed, checks = {}, []
    for k in members:
        a, b = basis.elements[k].pair
        if sum(a) != 1:
            raise RuntimeError("a basis pair does not start with a simple "
                               "root")
        ends = [index[r] for r in (a, b, negate(a), negate(b))]
        i = a.index(1)
        allowed[i] = [e for e in allowed.get(i, ends) if e in ends]
        checks.append((i, b, dict(zip(ends, ends[1::-1] + ends[:1:-1]))))
    order, joined = sorted(allowed) or [0], {}  # joined: a neighbour before
    while len(order) < n:
        j, k = min((j, k) for k in order for j in adj[k] if j not in order)
        order.append(j)
        joined[j] = k
    level = {j: t for t, j in enumerate(order)}
    want = np.array(cartan(d), dtype=np.int8)[np.ix_(order, order)]
    # due[t]: the members whose a and b are known from level t on
    due = [[] for _ in range(n)]
    for i, b, partner in checks:
        at = [j for j in range(n) if b[j]]
        due[max(level[j] for j in at + [i])].append(
            (level[i], [level[j] for j in at], np.array(b)[at], partner))

    def candidates(img):
        t, j = len(img), order[len(img)]
        if j in allowed:
            cand = np.array(allowed[j])
        elif j in joined:
            cand = np.flatnonzero(table[img[level[joined[j]]]] == -1)
        else:
            cand = np.arange(len(roots))
        cand = cand[(table[cand[:, None], img] == want[t, :t]).all(axis=1)]
        return [g for g in cand.tolist() if fixes(img + [g])]

    def fixes(img):  # w(b) is a's partner for each member due last level
        return all(table[partner[img[a]], [img[s] for s in at]] @ c == 2
                   for a, at, c, partner in due[len(img) - 1])

    def completes(img):
        if len(img) == n:
            return _in_weyl(d, roots[[img[level[j]] for j in range(n)]]
                            .tolist())
        return any(completes(img + [g]) for g in candidates(img))

    fixed = [index[simple_root(d, j)] for j in order]
    return math.prod(sum(g == fixed[t] or completes(fixed[:t] + [g])
                         for g in candidates(fixed[:t])) for t in range(n))


def kernel_orders(d: Diagram, tables, group_order: int) -> list[int]:
    """Orders of the kernels of the Weyl group action on the given orbit
    summands, each an orbit table or its basis_members, one of
    CanonicalBasis.summands: the elements that fix every basis 2-root of
    a summand, counted by _kernel_order once per summand.  W must have
    group_order elements."""
    order = weyl_order(d)
    if order != group_order:
        raise RuntimeError("the Weyl group has order %d, not %d"
                           % (order, group_order))
    members = [getattr(t, "basis_members", t) for t in tables]
    if any(m not in canonical_basis(d).summands() for m in members):
        raise RuntimeError("summand is not invariant")
    return [_kernel_order(d, m) for m in members]


def action_kernel_order(d: Diagram, table, group_order: int) -> int:
    """Order of the kernel of the Weyl group action on one orbit summand;
    see kernel_orders."""
    return kernel_orders(d, [table], group_order)[0]


def kernel_intersection(d: Diagram) -> dict:
    """The group order, the kernel order on each summand of the canonical
    basis, and the order of the intersection of those kernels: the same
    search (_kernel_order) with every summand's members at once, which
    with no summand (A1, A2) counts all of W.  The intersection is exactly
    the center when it has order 1, or order 2 and -1 lies in W (it then
    acts trivially on every summand)."""
    order = weyl_order(d)
    summands = canonical_basis(d).summands()
    size = _kernel_order(d, sum(summands, ()))
    minus = [negate(simple_root(d, j)) for j in range(d.n)]
    return {
        "group_order": order,
        "kernel_orders": tuple(_kernel_order(d, s) for s in summands),
        "intersection_order": size,
        "is_center": size == 1 or size == 2 and _in_weyl(d, minus),
    }


def norm2_witness(a: int, b: int, c: int) -> dict:
    """For the three minimal arm extensions of an affine diagram: the
    element ((alpha + beta) v outer) + (alpha v delta) built from the long
    arm's new leaf, a short arm's endpoint alpha with neighbor beta, and
    the affine subdiagram's null root.  It has half-form norm 2 and a
    sign-coherent expansion."""
    if (a, b, c) not in {(2, 2, 3), (1, 3, 4), (1, 2, 6)}:
        raise ValueError("witness exists for (2,2,3), (1,3,4), (1,2,6) only")
    d = y_diagram(a, b, c)
    leaf = d.n - 1
    # Arms are numbered outward, so dropping the long arm's leaf leaves
    # Y(a, b, c - 1) on the same vertex numbers.
    sub = y_diagram(a, b, c - 1)
    if classify(sub) is not TypeClass.AFFINE:
        raise RuntimeError("expected an affine subdiagram")
    dv = delta(sub) + (0,)
    alpha = d.arms[0]
    beta = alpha - 1 if alpha > 1 else 0
    e_alpha = simple_root(d, alpha)
    pair_sum = tuple(x + y for x, y in zip(e_alpha, simple_root(d, beta)))
    x = linalg.mat(linalg.exact(vee(pair_sum, simple_root(d, leaf)))
                   + linalg.exact(vee(e_alpha, dv)))
    basis = canonical_basis(d)
    coords = basis.expand(x)
    ok, sign = sign_coherent(coords)
    return {
        "diagram": d,
        "x": x,
        "delta": dv,
        "alpha": alpha,
        "beta": beta,
        "outer": leaf,
        "norm": bprime(d, x, x),
        "coords": coords,
        "sign_coherent": ok,
        "sign": sign,
    }
