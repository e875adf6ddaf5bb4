"""Bilinear forms on the symmetric square and what they reveal: Gram
matrices and radicals of the canonical basis, the Weyl-invariant element
dual to the trace functional, summand bookkeeping, kernels of the orbit
representations, and a norm-2 element living just outside an affine
subdiagram."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Q

import numpy as np

from . import linalg
from .diagram import (Diagram, TypeClass, cartan, classify, parabolic_restrict,
                      y_diagram)
from .roots import delta, simple_root
from .symsquare import (SymMatrix, _as_int, canonical_basis, conjugate, madd,
                        msub, reflection_matrix, sign_coherent,
                        simple_matrices, vee)


def btilde(d: Diagram, s: SymMatrix, t: SymMatrix):
    """trace(A s A t): the product form on the tensor square."""
    a = cartan(d)
    left = linalg.mat_mul(a, s)
    right = linalg.mat_mul(a, t)
    return _as_int(sum(left[i][j] * right[j][i]
                       for i in range(d.n) for j in range(d.n)))


def bprime(d: Diagram, s: SymMatrix, t: SymMatrix):
    """Half the product form; takes the value
    B(a,c)B(b,d) + B(a,d)B(b,c) on a v b against c v d."""
    return _as_int(Q(btilde(d, s, t), 2))


def c_apply(d: Diagram, alpha, s: SymMatrix) -> SymMatrix:
    """The operator (reflection - identity) in a norm-2 vector."""
    return msub(conjugate(reflection_matrix(d, alpha), s), s)


def _check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime (by trial division)."""
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError("modulus must be a prime, got %d" % p)


def gram(d: Diagram, mats, p: int | None = None) -> linalg.Mat:
    """Gram matrix of the given elements under the half product form,
    optionally reduced mod a prime."""
    if p is not None:
        _check_prime(p)
    g = [[bprime(d, s, t) for t in mats] for s in mats]
    if p is not None:
        for row in g:
            for x in row:
                if isinstance(x, Q):
                    raise ValueError("modular Gram needs integer entries")
        g = [[x % p for x in row] for row in g]
    return linalg.mat(g)


def radical_basis(g: linalg.Mat, p: int | None = None) -> tuple:
    """Coordinate vectors spanning the radical of a Gram matrix."""
    if p is None:
        return linalg.nullspace(g)
    _check_prime(p)
    return linalg.nullspace_mod(g, p)


def virasoro(d: Diagram) -> SymMatrix:
    """The invariant element pairing to B itself under the product form:
    sum of dual basis (x) basis, whose matrix is the inverse Cartan."""
    inv = linalg.inverse(cartan(d))
    return tuple(tuple(_as_int(x) for x in row) for row in inv)


def affine_radical_witness(d: Diagram) -> dict:
    """For an affine diagram: the null root delta and the family
    delta v alpha_i (with delta v delta in their span) that spans the
    radical of the half product form on the canonical-basis module."""
    dv = delta(d)
    mats = tuple(vee(dv, simple_root(d, i)) for i in range(d.n))
    return {"delta": dv, "elements": mats, "delta_squared": vee(dv, dv)}


def decompose_s2v(d: Diagram, p: int | None = None) -> dict:
    """Dimension bookkeeping for the symmetric square: one invariant line
    plus the span of the canonical basis, which splits into one summand
    per orbit in finite type.  Radical dimensions are over the rationals,
    or mod p when a prime is given."""
    cls = classify(d)
    if cls is TypeClass.AFFINE:
        raise ValueError("affine diagram: the form is degenerate; "
                         "see affine_radical_witness")
    if p is not None:
        _check_prime(p)
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
        from .orbits import orbit_tables

        summands = []
        for t in orbit_tables(d):
            mats = [basis.elements[k].matrix for k in t.basis_members]
            rad = radical_basis(gram(d, mats, p), p)
            summands.append({"id": t.id, "dim": len(mats),
                             "radical_dim": len(rad)})
        report["orbit_summands"] = summands
        covered = 1 + sum(s["dim"] for s in summands)
        report["complement_dim"] = report["dim_sym_square"] - covered
    else:
        rad = radical_basis(gram(d, [e.matrix for e in basis.elements], p), p)
        report["module_radical_dim"] = len(rad)
    return report


def action_kernel_order(d: Diagram, table, group_order: int,
                        state_cap: int = 10 ** 6) -> int:
    """Order of the kernel of the Weyl group action on one orbit summand:
    the matrix group generated by the simple reflections on the summand is
    closed by breadth-first search and divided into the group order."""
    basis = canonical_basis(d)
    idxs = table.basis_members
    rest = sorted(set(range(len(basis))) - set(idxs))
    gens = []
    for act in basis.action_matrices_np():
        if act[np.ix_(rest, idxs)].any():
            raise RuntimeError("summand is not invariant")
        gens.append(act[np.ix_(idxs, idxs)])
    ident = np.eye(len(idxs), dtype=np.int64)
    seen = {ident.tobytes()}
    frontier = [ident]
    while frontier:
        stack = np.stack(frontier)
        frontier = []
        for g in gens:
            for prod in stack @ g:
                key = prod.tobytes()
                if key not in seen:
                    seen.add(key)
                    if len(seen) > state_cap:
                        raise RuntimeError("group closure exceeded the state cap")
                    frontier.append(prod)
    size = len(seen)
    if group_order % size:
        raise RuntimeError("image order %d does not divide %d"
                           % (size, group_order))
    return group_order // size


def kernel_intersection(d: Diagram, state_cap: int = 10 ** 6) -> dict:
    """Closes the reflection representation group together with its module
    action, collects for each orbit summand the elements acting trivially
    on it, and intersects those kernels.  Reports the per-orbit kernel
    orders, the intersection order, and whether the intersection is
    exactly the center (the identity, plus minus one when present)."""
    from .orbits import orbit_tables

    if classify(d) is not TypeClass.FINITE:
        raise ValueError("kernel enumeration needs a finite type")
    basis = canonical_basis(d)
    tables = orbit_tables(d)
    refl = [np.array(simple_matrices(d)[i], dtype=np.int64)
            for i in range(d.n)]
    act = basis.action_matrices_np()
    ident_r = np.eye(d.n, dtype=np.int64)
    ident_a = np.eye(len(basis), dtype=np.int64)
    seen = {ident_r.tobytes(): ident_a}
    frontier = [(ident_r, ident_a)]
    while frontier:
        nxt = []
        for r, a in frontier:
            for g, h in zip(refl, act):
                r2 = g @ r
                key = r2.tobytes()
                if key not in seen:
                    if len(seen) >= state_cap:
                        raise RuntimeError(
                            "group closure exceeded the state cap")
                    a2 = h @ a
                    seen[key] = a2
                    nxt.append((r2, a2))
        frontier = nxt
    kernels = []
    for t in tables:
        idxs = list(t.basis_members)
        want = ident_a[:, idxs]
        kernels.append({key for key, a in seen.items()
                        if np.array_equal(a[:, idxs], want)})
    inter = set.intersection(*kernels)
    center = {ident_r.tobytes()}
    neg = (-ident_r).tobytes()
    if neg in seen:
        center.add(neg)
    return {
        "group_order": len(seen),
        "kernel_orders": tuple(len(k) for k in kernels),
        "intersection_order": len(inter),
        "is_center": inter == center,
    }


def norm_search(d: Diagram, target: int, bound: int,
                cap: int = 10 ** 6) -> tuple:
    """Integer combinations of the canonical basis with coefficients in
    [-bound, bound] whose half-form norm equals the target, as coordinate
    tuples in box order.  A plain box enumeration for poking at small
    lattices; the box holds (2*bound+1)**len(basis) vectors, so anything
    past the cap is refused rather than ground through."""
    basis = canonical_basis(d)
    k = len(basis)
    total = (2 * bound + 1) ** k
    if total > cap:
        raise ValueError("box holds %d vectors, more than the cap %d"
                         % (total, cap))
    g = [[bprime(d, a.matrix, b.matrix) for b in basis.elements]
         for a in basis.elements]
    found = []
    for c in itertools.product(range(-bound, bound + 1), repeat=k):
        norm = sum(c[i] * c[j] * g[i][j]
                   for i in range(k) for j in range(k) if c[i] and c[j])
        if norm == target:
            found.append(c)
    return tuple(found)


def norm2_witness(a: int, b: int, c: int) -> dict:
    """For the three minimal arm extensions of an affine diagram: the
    element ((alpha + beta) v outer) + (alpha v delta) built from the long
    arm's new leaf, a short arm's endpoint alpha with neighbor beta, and
    the affine subdiagram's null root.  It has half-form norm 2 and a
    sign-coherent expansion."""
    if (a, b, c) not in {(2, 2, 3), (1, 3, 4), (1, 2, 6)}:
        raise ValueError("witness exists for (2,2,3), (1,3,4), (1,2,6) only")
    d = y_diagram(a, b, c)
    n = d.n
    leaf = n - 1
    sub, mapping = parabolic_restrict(d, [v for v in range(n) if v != leaf])
    if classify(sub) is not TypeClass.AFFINE:
        raise RuntimeError("expected an affine subdiagram")
    dv_sub = delta(sub)
    dv = [0] * n
    for old, new in mapping.items():
        dv[old] = dv_sub[new]
    dv = tuple(dv)
    alpha = d.arms[0]
    beta = alpha - 1 if alpha > 1 else 0
    e_alpha = simple_root(d, alpha)
    pair_sum = tuple(x + y for x, y in zip(e_alpha, simple_root(d, beta)))
    x = madd(vee(pair_sum, simple_root(d, leaf)), vee(e_alpha, dv))
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
