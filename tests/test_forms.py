import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

import numpy as np
from hypothesis import given, seed, settings, strategies as st

import tworoots
from tworoots import linalg
from tworoots.diagram import path_diagram, weyl_order, y_diagram
from tworoots.forms import (_fixing, _in_weyl, _kernel_order, _weyl_walk,
                            action_kernel_order,
                            affine_radical_witness, bprime, btilde, c_apply,
                            decompose_s2v, gram, kernel_intersection,
                            kernel_orders, norm2_witness, radical_basis,
                            virasoro)
from tworoots.orbits import orbit_tables
from tworoots.roots import closure, positive_roots, simple_root
from tworoots.symsquare import (apply_word, canonical_basis, m_functional,
                                simple_matrices, standard_coords, vee)


def test_btilde_symmetric_and_even():
    d = path_diagram(4)
    b = canonical_basis(d)
    for e in b.elements[:3]:
        for f in b.elements[:3]:
            v = btilde(d, e.matrix, f.matrix)
            assert v == btilde(d, f.matrix, e.matrix)
            assert v % 2 == 0


def test_bprime_is_half_of_btilde():
    d = y_diagram(1, 1, 1)
    b = canonical_basis(d)
    s, t = b.elements[0].matrix, b.elements[5].matrix
    assert 2 * bprime(d, s, t) == btilde(d, s, t)


def test_basis_two_roots_have_norm_four():
    d = y_diagram(1, 1, 2)
    for e in canonical_basis(d).elements:
        assert bprime(d, e.matrix, e.matrix) == 4


def test_c_apply_is_reflection_minus_identity():
    d = path_diagram(3)
    a = (1, 1, 0)
    s = vee((0, 0, 1), (1, 0, 0))
    out = c_apply(d, a, s)
    # applying twice recovers -2 times itself plus nothing new on this input
    assert c_apply(d, a, out) == tuple(tuple(-2 * x for x in row) for row in out)


def test_gram_mod_two_parity():
    a3 = path_diagram(3)
    mats = [e.matrix for e in canonical_basis(a3).elements]
    assert all(x == 0 for row in gram(a3, mats, p=2) for x in row)
    a4 = path_diagram(4)
    mats = [e.matrix for e in canonical_basis(a4).elements]
    assert any(x for row in gram(a4, mats, p=2) for x in row)
    # the inverse Cartan element of A3 has half-form norm 3/2
    with pytest.raises(ValueError, match="integer entries"):
        gram(a3, [virasoro(a3)], p=2)


def test_gram_is_exact_past_int64():
    # Entries near 2**40 give Gram entries near 2**84; the inverse Cartan
    # element adds Fraction entries.
    d = y_diagram(1, 1, 1)
    rng = random.Random(40)
    mats = []
    for _ in range(4):
        m = [[0] * d.n for _ in range(d.n)]
        for i in range(d.n):
            for j in range(i, d.n):
                m[i][j] = m[j][i] = 2 ** 40 + rng.randint(-1000, 1000)
        mats.append(tuple(tuple(row) for row in m))
    mats.append(virasoro(d))
    g = gram(d, mats)
    want = tuple(tuple(bprime(d, s, t) for t in mats) for s in mats)
    assert repr(g) == repr(want)  # same values, and ints where want has ints
    assert max(abs(x) for row in g for x in row) > 2 ** 63


def test_radical_basis_of_singular_gram():
    g = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    rad = radical_basis(g)
    assert len(rad) == 1


@pytest.mark.parametrize("g", [
    ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))),
    gram(y_diagram(2, 2, 2),
         [e.matrix for e in canonical_basis(y_diagram(2, 2, 2)).elements]),
], ids=["2x2", "Y222"])
def test_singular_gram_radical_is_the_bareiss_route(g):
    """A singular Gram has no certificate, so radical_basis returns the
    vectors read off rref_int unchanged (seven for Y(2,2,2), the
    delta v alpha_i)."""
    rad = radical_basis(g)
    assert rad and rad == linalg.nullspace_rref(g)
    assert repr(rad) == repr(linalg.nullspace_rref(g))


def test_gram_of_no_elements_is_empty():
    d = y_diagram(1, 1, 1)
    assert gram(d, []) == () == gram(d, [], p=3)


@pytest.mark.parametrize("d", [path_diagram(4), y_diagram(1, 1, 1),
                               y_diagram(1, 2, 2)], ids=["A4", "D4", "E6"])
def test_gram_with_the_inverse_cartan_element_equals_btilde(d):
    """The inverse Cartan element has fractional entries, which an int64
    cast would truncate to integers: the stack must take the exact route,
    alone or among integer matrices.  bprime is half of btilde."""
    om = virasoro(d)
    assert any(isinstance(x, Fraction) for row in om for x in row)
    mats = [e.matrix for e in canonical_basis(d).elements]
    for ms in ([om], [om] + mats, mats + [om]):
        want = tuple(tuple(bprime(d, s, t) for t in ms) for s in ms)
        assert repr(gram(d, ms)) == repr(want)


@pytest.mark.parametrize("past", [0, 1], ids=["at-bound", "past-bound"])
def test_gram_int64_bound(past):
    """D4 has n = 4 and largest Cartan row sum a = 5, so integer entries
    up to s with 16 (5 s)**2 < 2**63 run in int64 and larger ones on
    Python ints.  At s = 2**29 an int64 product would wrap."""
    d = y_diagram(1, 1, 1)
    s = math.isqrt((2**63 - 1) // 16) // 5
    assert 16 * (5 * s) ** 2 < 2**63 <= 16 * (5 * (s + 1)) ** 2
    s = s if not past else 2**29
    rng = random.Random(past)
    mats = []
    for _ in range(3):
        m = [[0] * d.n for _ in range(d.n)]
        for i in range(d.n):
            for j in range(i, d.n):
                m[i][j] = m[j][i] = rng.choice([s, -s, s - 1, 1 - s])
        mats.append(tuple(tuple(row) for row in m))
    assert np.array(mats).dtype == np.int64
    want = tuple(tuple(bprime(d, a, b) for b in mats) for a in mats)
    assert repr(gram(d, mats)) == repr(want)


def test_virasoro_element():
    d = y_diagram(1, 1, 1)
    om = virasoro(d)
    assert btilde(d, om, om) == 4
    assert m_functional(d, om) == 4


def test_decompose_a3():
    rep = decompose_s2v(path_diagram(3))
    assert rep["dim_sym_square"] == 6
    assert rep["invariant_dim"] == 1
    assert rep["module_dim"] == 2
    assert rep["orbit_summands"] == [{"id": 1, "dim": 2, "radical_dim": 0}]
    assert rep["complement_dim"] == 3


def test_decompose_affine_raises():
    with pytest.raises(ValueError):
        decompose_s2v(y_diagram(1, 2, 5))


def test_decompose_indefinite_reports_radical():
    rep = decompose_s2v(y_diagram(2, 2, 3))
    assert "module_radical_dim" in rep
    assert rep["module_dim"] == 35


def test_affine_radical_witness_shape():
    d = y_diagram(1, 3, 3)
    w = affine_radical_witness(d)
    assert len(w["elements"]) == d.n
    assert len(w["delta"]) == d.n


@pytest.mark.parametrize("arms", [(2, 2, 2), (1, 3, 3), (1, 2, 5)])
def test_affine_radical_witness_reports_the_rank_of_its_family(arms):
    d = y_diagram(*arms)
    w = affine_radical_witness(d)
    rows = [standard_coords(m) for m in w["elements"]]
    assert linalg.rank(tuple(rows)) == w["radical_dim"] == d.n
    rows.append(standard_coords(w["delta_squared"]))
    assert linalg.rank(tuple(rows)) == w["radical_dim"]


@pytest.mark.parametrize("d", [path_diagram(3), y_diagram(1, 1, 1),
                               y_diagram(1, 1, 2)], ids=["A3", "D4", "D5"])
def test_weyl_group_equals_the_closure_of_the_simple_reflections(d):
    group = _weyl_walk(d)
    assert group.dtype == np.int8
    assert (group[0] == np.eye(d.n)).all()
    elements = {w.astype(np.int64).tobytes() for w in group}
    assert len(elements) == len(group)
    gens = [np.array(m, dtype=np.int64) for m in simple_matrices(d)]
    walk = closure([np.eye(d.n, dtype=np.int64)],
                   lambda g: (g @ r for r in gens), key=np.ndarray.tobytes)
    assert elements == {g.tobytes() for g in walk}


@pytest.mark.parametrize("d", [y_diagram(1, 1, 1), y_diagram(1, 1, 2),
                               y_diagram(1, 1, 3), y_diagram(1, 2, 2)],
                         ids=["D4", "D5", "D6", "E6"])
def test_weyl_group_entries_are_bounded_by_the_highest_root(d):
    # Every entry is a coefficient of some root w(alpha_j), and the highest
    # root has the largest coefficients.
    group = _weyl_walk(d)
    assert np.abs(group).max() == max(positive_roots(d)[-1])


@pytest.mark.parametrize("d", [y_diagram(1, 1, 3), y_diagram(1, 2, 2)],
                         ids=["D6", "E6"])
def test_weyl_group_is_closed_under_the_simple_reflections(d):
    # The walk builds each child by rewriting a few columns; the oracle
    # multiplies whole matrices.
    group = _weyl_walk(d).astype(np.int64)
    elements = {w.tobytes() for w in group}
    assert len(group) == len(elements) == weyl_order(d)
    for r in simple_matrices(d):
        moved = np.matmul(group, np.array(r, dtype=np.int64))
        assert {w.tobytes() for w in moved} == elements


def test_weyl_group_is_cached_and_read_only():
    d = y_diagram(1, 1, 1)
    group = _weyl_walk(d)
    assert _weyl_walk(d) is group
    with pytest.raises(ValueError):
        group[0, 0, 0] = 2


def test_kernel_queries_walk_no_group():
    # The kernels are counted by the backtrack; W is never walked.
    tworoots.clear_caches()
    d = y_diagram(1, 1, 2)
    report = kernel_intersection(d)
    orders = [action_kernel_order(d, t, 1920) for t in orbit_tables(d)]
    assert list(report["kernel_orders"]) == orders
    assert _weyl_walk.cache_info().misses == 0


@pytest.mark.parametrize("d,minus_one", [
    (path_diagram(3), False), (y_diagram(1, 1, 1), True),
    (y_diagram(1, 1, 2), False), (y_diagram(1, 2, 2), False),
], ids=["A3", "D4", "D5", "E6"])
def test_in_weyl_rejects_the_diagram_automorphisms(d, minus_one):
    """The leaf test of the kernel search: every sampled element w of the
    walk of W is in W, and w g is not for each nontrivial automorphism g
    of the diagram (A3's and E6's reversal, D5's flip, D4's triality);
    -1 is in W on D4 only."""
    edges = {frozenset(e) for e in d.edges}
    autos = [p for p in itertools.permutations(range(d.n))
             if {frozenset((p[a], p[b])) for a, b in d.edges} == edges]
    assert len(autos) == (6 if d.n == 4 and d.kind == "Y" else 2)
    group = _weyl_walk(d)
    for w in group[::max(1, len(group) // 200)].astype(np.int64):
        for p in autos:
            assert _in_weyl(d, w.T[list(p)].tolist()) \
                == (p == tuple(range(d.n)))
    assert _in_weyl(d, (-np.eye(d.n, dtype=np.int64)).tolist()) == minus_one


@pytest.mark.parametrize("d", [path_diagram(3), path_diagram(4),
                               path_diagram(5), y_diagram(1, 1, 1),
                               y_diagram(1, 1, 2), y_diagram(1, 2, 2)],
                         ids=["A3", "A4", "A5", "D4", "D5", "E6"])
def test_kernels_fix_every_member_by_brute_force(d):
    """Against plain integer products over the whole walk of W: w is in a
    kernel when w a (w b)^T + w b (w a)^T equals a b^T + b a^T for every
    basis member a v b.  The filter _fixing and the counts of the search,
    for each summand and for its first member alone (where the check on
    w(b) matters), all agree with it."""
    group = _weyl_walk(d).astype(np.int64)
    basis = canonical_basis(d)

    def fixing(members):
        ok = np.ones(len(group), dtype=bool)
        for k in members:
            a, b = (np.array(r) for r in basis.elements[k].pair)
            img = (group @ a)[:, :, None] * (group @ b)[:, None, :]
            ok &= (img + img.transpose(0, 2, 1)
                   == np.outer(a, b) + np.outer(b, a)).all(axis=(1, 2))
        return {w.astype(np.int8).tobytes() for w in group[ok]}

    for s in basis.summands():
        for members in (s, s[:1]):
            assert _kernel_order(d, members) == len(fixing(members))
            assert {w.tobytes() for w in _fixing(d, members, _weyl_walk(d))} \
                == fixing(members)


@pytest.mark.parametrize("d,orders,inter", [
    (y_diagram(1, 2, 3), (2,), 2),
    (y_diagram(1, 2, 4), (2,), 2),
    (y_diagram(1, 1, 4), (1, 64), 1),
    (y_diagram(1, 1, 5), (2, 128), 2),
    (y_diagram(1, 1, 9), (2, 2048), 2),
    (y_diagram(1, 1, 13), (2, 32768), 2),
], ids=["E7", "E8", "D7", "D8", "D12", "D16"])
def test_kernels_of_groups_too_large_to_list(d, orders, inter):
    # W(E7) and W(D8) have 2,903,040 and 5,160,960 elements, W(D16) about
    # 6.9 * 10**17: the search never lists them.
    assert tuple(kernel_orders(d, orbit_tables(d), weyl_order(d))) == orders
    rep = kernel_intersection(d)
    assert rep["kernel_orders"] == orders
    assert rep["intersection_order"] == inter and rep["is_center"]


@pytest.mark.parametrize("d,orders,inter", [
    (y_diagram(1, 1, 1), (8, 8, 8), 2),
    (y_diagram(1, 1, 2), (1, 16), 1),
    (y_diagram(1, 1, 3), (2, 32), 2),
    (y_diagram(1, 2, 2), (1,), 1),
], ids=["D4", "D5", "D6", "E6"])
def test_kernel_jobs_share_one_kernel_per_summand(d, orders, inter):
    """kernel_orders and kernel_intersection read one cached search per
    summand, plus one with every summand's members for the intersection
    (the same search when there is one summand).  The orders and the
    intersection equal the filter of the whole walk of W, and the
    intersection is the center."""
    tworoots.clear_caches()
    summands = canonical_basis(d).summands()
    assert kernel_orders(d, orbit_tables(d), weyl_order(d)) == list(orders)
    rep = kernel_intersection(d)
    assert _kernel_order.cache_info().misses \
        == len(summands) + (len(summands) > 1)
    assert rep["kernel_orders"] == orders
    assert rep["intersection_order"] == inter and rep["is_center"]
    group = _weyl_walk(d)
    assert orders == tuple(len(_fixing(d, s, group)) for s in summands)
    # the center: the identity, and -1 when W holds it
    one = np.eye(d.n, dtype=np.int8)
    common = _fixing(d, sum(summands, ()), group)
    assert {w.tobytes() for w in common} \
        == set([one.tobytes(), (-one).tobytes()][:inter])


def test_kernel_divisibility_guard():
    d = y_diagram(1, 1, 1)
    t = orbit_tables(d)[0]
    with pytest.raises(RuntimeError):
        action_kernel_order(d, t, 7)


@pytest.mark.parametrize("d,order", [(y_diagram(1, 1, 1), 192),
                                     (y_diagram(1, 1, 2), 1920)],
                         ids=["D4", "D5"])
def test_kernel_invariance_guard(d, order):
    for t in orbit_tables(d):
        short = dataclasses.replace(t, basis_members=t.basis_members[:-1])
        with pytest.raises(RuntimeError, match="summand is not invariant"):
            action_kernel_order(d, short, order)


def test_decompose_walks_no_orbit():
    tworoots.clear_caches()
    before = orbit_tables.cache_info()
    rep = decompose_s2v(y_diagram(1, 1, 13))
    assert orbit_tables.cache_info() == before
    assert [s["dim"] for s in rep["orbit_summands"]] == [120, 15]
    assert [s["radical_dim"] for s in rep["orbit_summands"]] == [0, 0]


def test_norm2_witness_rejects_other_shapes():
    with pytest.raises(ValueError):
        norm2_witness(1, 1, 1)


def test_norm2_witness_values():
    w = norm2_witness(1, 3, 4)
    assert w["norm"] == 2
    assert w["sign_coherent"] and w["sign"] == 1


@pytest.mark.parametrize("d,expected", [
    (path_diagram(1), (2, (), 2, True)),
    (path_diagram(2), (6, (), 6, False)),
    (path_diagram(3), (24, (4,), 4, False)),
    (y_diagram(1, 1, 1), (192, (8, 8, 8), 2, True)),
    (y_diagram(1, 1, 2), (1920, (1, 16), 1, True)),
    (y_diagram(1, 1, 3), (23040, (2, 32), 2, True)),
], ids=["A1", "A2", "A3", "D4", "D5", "D6"])
def test_kernel_intersection(d, expected):
    # A1 and A2 have no orbits, so the intersection is all of W.  A3 is the
    # one diagram with orbits whose kernels meet in more than the center.
    rep = kernel_intersection(d)
    assert (rep["group_order"], rep["kernel_orders"],
            rep["intersection_order"], rep["is_center"]) == expected


# --- seeded property -------------------------------------------------------

@seed(1701)
@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from([path_diagram(4), y_diagram(1, 1, 2),
                        y_diagram(1, 2, 2), y_diagram(2, 2, 3)]), st.data())
def test_half_form_is_reflection_invariant(d, data):
    """On A4, D5, E6 and Y(2,2,3) the half form pairs s_i t1 with s_i t2
    as it pairs t1 with t2, for basis elements moved by words of up to 8
    letters."""
    letter = st.integers(0, d.n - 1)
    t1, t2 = (apply_word(d, data.draw(st.lists(letter, max_size=8)),
                         data.draw(st.sampled_from(
                             canonical_basis(d).elements)).matrix)
              for _ in range(2))
    i = data.draw(letter)
    assert gram(d, [apply_word(d, [i], t1), apply_word(d, [i], t2)]) \
        == gram(d, [t1, t2])
