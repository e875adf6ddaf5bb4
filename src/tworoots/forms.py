"""Bilinear forms on the symmetric square and what they reveal: Gram
matrices and radicals of the canonical basis, the Weyl-invariant element
dual to the trace functional, summand bookkeeping, kernels of the orbit
representations, and a norm-2 element living just outside an affine
subdiagram."""

from __future__ import annotations

import functools
from fractions import Fraction as Q

import numpy as np

from . import linalg
from .diagram import (Diagram, TypeClass, cartan, classify, closure,
                      neighbors, parabolic_restrict, weyl_order, y_diagram)
from .roots import (bform, delta, positive_roots, simple_reflect,
                    simple_root)
from .symsquare import (SymMatrix, canonical_basis, reflection_matrix,
                        sign_coherent, simple_matrices, standard_coords, vee)


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


# The default cap on the order of a Weyl group whose kernels are computed.
STATE_CAP = 10 ** 6


def capped_weyl_order(d: Diagram, state_cap: int) -> int:
    """weyl_order(d), refused with RuntimeError when it is above the cap:
    the one check every kernel job and the walk of W make first."""
    order = weyl_order(d)
    if order > state_cap:
        raise RuntimeError("the Weyl group has order %d, above the state "
                           "cap %d" % (order, state_cap))
    return order


def _weyl_group(d: Diagram, state_cap: int) -> np.ndarray:
    """The elements of W as a read-only int8 stack of matrices on
    coefficient columns, by length from the identity (see _weyl_walk): the
    oracle the kernels are checked against.  A group larger than the cap
    is refused before the walk or the cache is touched."""
    capped_weyl_order(d, state_cap)
    return _weyl_walk(d)


def _parabolic_order(d: Diagram, letters) -> int:
    """Order of the subgroup generated by the simple reflections in
    letters: the product of the Weyl group orders of the components of
    the subdiagram on them."""
    adj, left, order = neighbors(d), set(letters), 1
    while left:
        part = list(closure([min(left)],
                            lambda j: (k for k in adj[j] if k in left)))
        left -= set(part)
        order *= weyl_order(parabolic_restrict(d, part)[0])
    return order


@functools.cache
def _weyl_walk(d: Diagram, letters: tuple[int, ...] | None = None
               ) -> np.ndarray:
    """A tree walk of the subgroup of W generated by the simple
    reflections in letters (all of W when None), written straight into
    one preallocated int8 stack.  Column j of w is the root w(alpha_j),
    whose sign is that of its height, and each w other than 1 has the
    parent w s_i, one shorter, for the least letter i with w(alpha_i) < 0
    (a right descent of w lies among its letters).  So w s_i is a child of
    w when its column i is negative and its columns of the letters before
    i are positive, and each element is reached once: layer by layer, and
    within a layer by letter, then by parent.  The child w s_i differs
    from w in few columns: column i is negated and each neighbour j of i,
    a letter or not, gets column j plus column i.  The column heights of a
    layer are carried in int16 and updated the same way.  Entries are
    root coefficients (at most 6, on E8); a parent with an entry past 63,
    whose children could leave int8, is refused, and so is a rank whose
    heights could leave int16.  The walk must find _parabolic_order
    elements."""
    n, adj = d.n, neighbors(d)
    letters = tuple(range(n)) if letters is None else letters
    order = _parabolic_order(d, letters)
    if 126 * n >= 2 ** 15:
        raise RuntimeError("rank %d is past the int16 heights" % n)
    slot = {i: s for s, i in enumerate(letters)}
    lower = [(slot[k], slot[i]) for i in letters for k in adj[i]
             if k < i and k in slot]
    group = np.empty((order, n, n), dtype=np.int8)
    group[0] = np.eye(n, dtype=np.int8)
    heights = np.ones((n, 1), dtype=np.int16)  # [k, l]: of column k of l
    start, end = 0, 1
    while end > start:
        layer = group[start:end]
        if layer.max() > 63 or layer.min() < -63:
            raise RuntimeError("a group element has an entry past 63, "
                               "whose children could leave int8")
        # bad[s, l]: how many of the letter columns up to i = letters[s]
        # of (parent l) s_i are positive where they must be negative (i)
        # or negative where they must be positive (k < i).  A column k < i
        # not joined to i is the parent's; a joined one is the parent's
        # column k plus column i.
        lh = heights[list(letters)]
        neg = lh < 0
        bad = np.cumsum(neg, axis=0, dtype=np.int16)
        for k, i in lower:
            bad[i] -= neg[k]
            bad[i] += lh[k] + lh[i] < 0
        # by letter, then by parent
        slots, parents = np.divmod(np.flatnonzero(bad == 0), end - start)
        if end + len(parents) > order:
            raise RuntimeError("walk found more than %d elements" % order)
        child = group[end:end + len(parents)]
        # parents are in range; mode "raise" would buffer a copy of child
        np.take(layer, parents, axis=0, out=child, mode="clip")
        heights = heights[:, parents]
        cuts = np.searchsorted(slots, np.arange(len(letters) + 1))
        for s, i in enumerate(letters):
            w, h = child[cuts[s]:cuts[s + 1]], heights[:, cuts[s]:cuts[s + 1]]
            for j in adj[i]:
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


def _stabiliser(d: Diagram) -> np.ndarray:
    """The stabiliser in W of the highest root theta, walked: the
    parabolic subgroup W_J, J = {j : B(theta, alpha_j) = 0} (Humphreys,
    Reflection Groups and Coxeter Groups, 1990, section 1.12).  W is
    transitive on the roots of a connected simply laced diagram, so W_J
    has |W| / |Phi| elements by orbit-stabiliser; any other count is
    refused."""
    top = positive_roots(d)[-1]
    group = _weyl_walk(d, tuple(j for j in range(d.n)
                                if bform(d, top, simple_root(d, j)) == 0))
    if len(group) * 2 * len(positive_roots(d)) != weyl_order(d):
        raise RuntimeError("the stabiliser of the highest root has %d "
                           "elements, not |W| / |Phi|" % len(group))
    return group


def _ascent(d: Diagram, root) -> tuple[int, ...]:
    """Letters l_1, ..., l_r with s_{l_r} ... s_{l_1}(root) = theta, the
    highest root, for a positive root: theta is the one root with
    B(root, alpha_j) >= 0 for every j, and s_j raises a root with
    B(root, alpha_j) < 0, so taking the least such j climbs to theta."""
    top, adj, word = positive_roots(d)[-1], neighbors(d), []
    while root != top:
        j = next(j for j in range(d.n)
                 if 2 * root[j] < sum(root[k] for k in adj[j]))
        root = simple_reflect(d, j, root)
        word.append(j)
    return tuple(word)


def _fixing(d: Diagram, members: tuple[int, ...], stack: np.ndarray,
            word=()) -> np.ndarray:
    """The elements w = g h, for h in the stack and g = s_{word[0]} ...
    s_{word[-1]}, with w(a) v w(b) = a v b for every basis member a v b
    with these indices: the filter behind every kernel, as a new int8
    stack.  As a and b are independent norm-2 roots, w(a) v w(b) = a v b
    holds exactly when (w(a), w(b)) is (a, b) or (b, a) up to one common
    sign, that is, when (h(a), h(b)) is that pair moved by g^-1, the
    product over the reversed word (never an inverted matrix).  So the
    stack is read as it is, and only the elements kept are multiplied by
    g.  Each member is checked only against the elements that fixed the
    members before it, in two stages: first on h(a) alone, which is
    column i of h as a basis pair starts with a simple root alpha_i, then
    on h(b) for the elements left.  Roots are compared by keys: with M
    the largest coefficient of the highest root, which bounds every
    root's coefficients in size, the key of x is place . x, its
    coefficients read as digits of base 2M + 1, so two roots share a key
    only when they are equal.  Every key and every partial sum is below
    height(theta) (2M + 1)^n, which must be below 2**63."""
    basis, adj = canonical_basis(d), neighbors(d)
    pairs = np.array([basis.elements[k].pair for k in members],
                     dtype=np.int64)
    if (pairs[:, 0].sum(axis=1) != 1).any():
        raise RuntimeError("a basis pair does not start with a simple root")
    top = positive_roots(d)[-1]
    base = 2 * max(top) + 1
    if sum(top) * base ** d.n >= 2 ** 63:
        raise RuntimeError("rank %d is past the int64 root keys" % d.n)
    place = base ** np.arange(d.n, dtype=np.int64)
    # The key of g^-1 x is (place g^-1) . x.  Right multiplication by s_i
    # negates entry i of a row and adds it to its neighbours' entries, so
    # place g^-1 = place s_{word[-1]} ... s_{word[0]} is built in place.
    pulled = place.tolist()
    for i in reversed(word):
        for j in adj[i]:
            pulled[j] += pulled[i]
        pulled[i] = -pulled[i]
    # the keys of a, b, -a, -b moved by g^-1, and of the partner each one
    # asks of h(b)
    ends = pairs @ np.array(pulled, dtype=np.int64)
    ends = np.concatenate([ends, -ends], axis=1)
    partners = ends[:, [1, 0, 3, 2]]
    keep = np.arange(len(stack))
    for (a, b), end, partner in zip(pairs, ends, partners):
        hit = stack[keep, :, a.argmax()] @ place == end[:, None]
        found = hit.any(axis=0)
        keep, which = keep[found], hit.argmax(axis=0)[found]
        keep = keep[stack[keep] @ b @ place == partner[which]]
        if not len(keep):
            return stack[keep]
    # g in int64, exact as its columns are roots; only now, for the kept
    reflections = np.array(simple_matrices(d), dtype=np.int64)
    g = functools.reduce(np.matmul, reflections[list(word)],
                         np.eye(d.n, dtype=np.int64))
    return (g @ stack[keep]).astype(np.int8)


@functools.cache
def _kernel(d: Diagram, members: tuple[int, ...]) -> np.ndarray:
    """The kernel K of W on the summand with these indices, one of
    CanonicalBasis.summands: the elements fixing each basis member, as
    those members span it, as a read-only int8 stack.  Computed once per
    summand for kernel_orders and kernel_intersection, which each refuse a
    group above their cap before calling it, from four cosets of the
    stabiliser W_J of the highest root theta (_stabiliser), 4 |W| / |Phi|
    candidates, and not from all of W.  K is normal, as the kernel of a
    representation.  Let a v b be the first member, with a = alpha_i, and
    E = {a, -a, b, -b}; every x in K has x(a) in E.  The walk up from a
    (_ascent) gives u^-1 with u^-1(a) = theta, and for k in K,
    u k u^-1 is in K, so k(theta) = u^-1 (u k u^-1)(a) lies in u^-1 E,
    four roots.  The elements taking theta to a root gamma are the coset
    g W_J of any g with g(theta) = gamma.  Four words give one g for each
    root of u^-1 E: 1 for theta, u^-1 s_i u for -theta, u^-1 v for
    u^-1(b), where v^-1 is the walk up from b, and u^-1 v u^-1 s_i u for
    -u^-1(b).  _fixing then picks K out of each coset exactly."""
    basis = canonical_basis(d)
    if members not in basis.summands():
        raise RuntimeError("summand is not invariant")
    a, b = basis.elements[members[0]].pair
    up = _ascent(d, a)  # u^-1 = s_{up[-1]} ... s_{up[0]}
    flip = up[::-1] + (a.index(1),) + up
    to_b = up[::-1] + _ascent(d, b)
    stabiliser = _stabiliser(d)
    kernel = np.concatenate([_fixing(d, members, stabiliser, word)
                             for word in ((), flip, to_b, to_b + flip)])
    kernel.flags.writeable = False
    return kernel


def kernel_orders(d: Diagram, tables, group_order: int,
                  state_cap: int = STATE_CAP) -> list[int]:
    """Orders of the kernels of the Weyl group action on the given orbit
    summands (_kernel): the elements that fix every basis 2-root of a
    summand, filtered out of four cosets of the stabiliser of the highest
    root.  W must have group_order elements, and at most state_cap."""
    order = capped_weyl_order(d, state_cap)
    if order != group_order:
        raise RuntimeError("the Weyl group has order %d, not %d"
                           % (order, group_order))
    return [len(_kernel(d, t.basis_members)) for t in tables]


def action_kernel_order(d: Diagram, table, group_order: int,
                        state_cap: int = STATE_CAP) -> int:
    """Order of the kernel of the Weyl group action on one orbit summand;
    see kernel_orders."""
    return kernel_orders(d, [table], group_order, state_cap)[0]


def kernel_intersection(d: Diagram, state_cap: int = STATE_CAP) -> dict:
    """Takes for each summand of the canonical basis the elements acting
    trivially on it (_kernel, shared with kernel_orders) and intersects
    those kernels as sets of matrices.  With no summand (A1, A2) the
    intersection is all of W, which the simple reflections generate.
    Reports the group order, the per-summand kernel orders, the
    intersection order, and whether the intersection is exactly the
    center: whether every element is the identity or minus it, as -1,
    when in W, acts trivially on every summand."""
    order = capped_weyl_order(d, state_cap)
    kernels = [_kernel(d, s) for s in canonical_basis(d).summands()]
    if kernels:
        inter = set.intersection(*({w.tobytes() for w in k}
                                   for k in kernels))
        size = len(inter)
    else:
        inter = {np.array(s, dtype=np.int8).tobytes()
                 for s in simple_matrices(d)}
        size = order
    one = np.eye(d.n, dtype=np.int8)
    return {
        "group_order": order,
        "kernel_orders": tuple(len(k) for k in kernels),
        "intersection_order": size,
        "is_center": inter <= {one.tobytes(), (-one).tobytes()},
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
