import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from tworoots import linalg, roots, symsquare
from tworoots.diagram import adjacent, path_diagram, y_diagram
from tworoots.forms import c_apply, norm2_witness, virasoro
from tworoots.orbits import pair_action, simple_pair_action
from tworoots.roots import bform, height, positive_roots, simple_root
from tworoots.symsquare import (CanonicalBasis, apply_simple, apply_word,
                                canonical_basis, components, conjugate,
                                m_functional, reflection_matrix, root_pair,
                                sign_coherent, simple_matrices, vee)


def test_vee_symmetric():
    a, b = (1, 0, 0), (0, 0, 1)
    s = vee(a, b)
    assert s == tuple(tuple(row) for row in zip(*s))
    assert s[0][2] == 1 and s[0][0] == 0


def _vee_by_sums(a, b):
    """vee as the plain sum in every row, shared zero rows aside."""
    return tuple(tuple(x * bj + y * aj for aj, bj in zip(a, b))
                 for x, y in zip(a, b))


@pytest.mark.parametrize("a, b", [
    ((1, 0, 0, 2), (0, 0, 1, -1)),
    ((0, 0, 0), (0, 0, 0)),
    ((Fraction(1, 2), 0, 0), (0, 0, Fraction(3))),
    ((1.0, 0.0, 0.0), (0.0, 0.0, 2.5)),
    ((1, 0, 0), (0, 0, Fraction(1, 2))),
    ((1, 0, 0), (0, 0, 2.0)),
    ((np.int64(1), 0, 0), (0, 0, 1)),
    ((True, False, False), (False, False, True)),
], ids=["int", "zero", "fraction", "float", "int-fraction", "int-float",
        "numpy", "bool"])
def test_vee_keeps_the_value_and_type_of_every_entry(a, b):
    """Zero rows are shared only when every entry is a Python int, where
    0 is what the sum gives; with a Fraction, a float or a numpy scalar
    anywhere, a zero row is summed like any other row."""
    got, want = vee(a, b), _vee_by_sums(a, b)
    assert got == want
    assert [[type(x) for x in row] for row in got] == \
        [[type(x) for x in row] for row in want]
    zero = [row for x, y, row in zip(a, b, got) if x == 0 == y]
    ints = all(type(x) is int for x in a + b)
    assert all((row is zero[0]) == ints for row in zero[1:])


def test_d48_basis_builds_no_matrices(monkeypatch):
    """Building a basis calls vee zero times; an element's matrix is
    built on its first read."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return _vee_by_sums(a, b)

    monkeypatch.setattr(symsquare, "vee", counted)
    b = CanonicalBasis(y_diagram(1, 1, 45))
    assert len(b) == 1175 and calls == []
    assert b.elements[7].matrix == _vee_by_sums(*b.elements[7].pair)
    assert calls == [b.elements[7].pair]


@pytest.mark.parametrize("d", [path_diagram(8), y_diagram(1, 1, 5),
                               y_diagram(1, 2, 4), y_diagram(4, 4, 4)],
                         ids=["A8", "D8", "E8", "Y444"])
def test_matrix_is_vee_of_the_pair_on_first_read(d):
    for e in CanonicalBasis(d).elements:
        assert "matrix" not in vars(e)
        m = e.matrix
        assert m == vee(*e.pair)
        assert e.matrix is m


def test_basis_element_repr():
    """An element prints as its vertex and partner, a_i v beta."""
    assert [repr(e) for e in canonical_basis(y_diagram(1, 1, 1)).elements] \
        == ["a0 v a0+a2+a3", "a0 v a0+a1+a3", "a0 v a0+a1+a2", "a1 v a3",
            "a1 v a2", "a1 v 2a0+a1+a2+a3", "a2 v a3",
            "a2 v 2a0+a1+a2+a3", "a3 v 2a0+a1+a2+a3"]


def test_trace_functional_vanishes_on_two_roots():
    # m(a v b) = 2 B(a, b), so it is zero exactly on orthogonal pairs
    d = path_diagram(3)
    assert m_functional(d, vee((1, 1, 0), (0, 1, 1))) == 0
    assert m_functional(d, vee((1, 0, 0), (1, 0, 0))) == 4


def test_root_pair_sorted_by_height():
    a, b = (1, 1, 1), (0, 1, 0)
    assert root_pair(a, b) == (b, a)
    assert root_pair(b, a) == (b, a)


def test_d4_basis_has_nine_elements():
    b = canonical_basis(y_diagram(1, 1, 1))
    assert len(b) == 9
    assert len(b.wrt(0)) == 3
    # a3 v a1 is elementary for both of its vertices
    assert b.elements[3].labels == (((1, (0, 0, 0, 1))), (3, (0, 1, 0, 0)))


def test_basis_sizes():
    assert len(canonical_basis(path_diagram(4))) == 5
    assert len(canonical_basis(y_diagram(1, 2, 2))) == 20


def test_expand_identity_on_basis():
    b = canonical_basis(y_diagram(1, 1, 2))
    for k, e in enumerate(b.elements):
        coords = b.expand(e.matrix)
        assert coords[k] == 1 and sum(map(abs, coords)) == 1


def test_expand_combine_round_trip():
    b = canonical_basis(path_diagram(5))
    rng = random.Random(7)
    for _ in range(20):
        coords = tuple(rng.randint(-3, 3) for _ in range(len(b)))
        assert b.expand(b.combine(coords)) == coords
    # non-integral coordinates come back as exact fractions
    b = canonical_basis(y_diagram(1, 2, 2))
    for _ in range(20):
        coords = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                       for _ in range(len(b)))
        got = b.expand(b.combine(coords))
        assert got == coords
        assert all(isinstance(c, int) or c.denominator > 1 for c in got)


def test_expand_rejects_wrong_size():
    b = canonical_basis(path_diagram(4))
    with pytest.raises(ValueError):
        b.expand(vee((1, 0, 0), (0, 0, 1)))


def test_expand_rejects_outside_span():
    b = canonical_basis(path_diagram(4))
    with pytest.raises(ValueError):
        b.expand(vee((1, 0, 0, 0), (0, 1, 0, 0)))


@pytest.mark.parametrize("d", [path_diagram(4), y_diagram(1, 2, 2)])
def test_expand_rejects_the_invariant_element(d):
    with pytest.raises(ValueError):
        canonical_basis(d).expand(virasoro(d))


def test_expand_fork_trace_error_message():
    b = canonical_basis(y_diagram(1, 1, 1))
    with pytest.raises(ValueError, match="trace"):
        b.expand(vee((1, 0, 0, 0), (1, 0, 0, 0)))


def test_skein_expansion_a3():
    b = canonical_basis(path_diagram(3))
    assert b.expand_pair((1, 1, 0), (0, 1, 1)) == (1, 1)


def test_expand_pair_needs_no_root_enumeration(monkeypatch):
    d = y_diagram(2, 2, 3)
    p = (simple_root(d, 1), simple_root(d, 3))
    while max(map(height, p)) < 120:  # climb by the highest reflection
        p = max((simple_pair_action(d, i, p) for i in range(d.n)),
                key=lambda q: sum(map(height, q)))
    basis = canonical_basis(d)

    def refuse(*args):
        raise AssertionError("positive roots enumerated")

    monkeypatch.setattr(roots, "positive_roots", refuse)
    monkeypatch.setattr(symsquare, "positive_roots", refuse)
    coords = basis.expand_pair(*p)
    assert basis.combine(coords) == vee(*p)


def test_skein_expansion_d4():
    b = canonical_basis(y_diagram(1, 1, 1))
    coords = b.expand_pair((1, 0, 1, 1), (1, 1, 1, 0))
    assert [k for k, c in enumerate(coords) if c] == [1, 3, 7]
    assert set(coords) == {0, 1}


def test_reflections_are_involutions():
    d = y_diagram(1, 1, 2)
    b = canonical_basis(d)
    k = len(b)
    eye = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    for i in range(d.n):
        assert b.word_matrix([i, i]) == eye


def test_braid_relation_on_basis():
    d = path_diagram(4)
    b = canonical_basis(d)
    k = len(b)
    eye = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    assert b.word_matrix([1, 2] * 3) == eye
    assert b.word_matrix([0, 2] * 2) == eye


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


@pytest.mark.parametrize("d", [path_diagram(4), y_diagram(2, 2, 2),
                               y_diagram(2, 2, 3), y_diagram(1, 2, 4),
                               y_diagram(1, 1, 5), y_diagram(1, 2, 6),
                               y_diagram(4, 4, 4), path_diagram(8),
                               y_diagram(1, 1, 9)])
def test_action_matrix_columns_match_conjugation(d):
    b = canonical_basis(d)
    for i, act in enumerate(b.action_matrices_np()):
        assert act.dtype == np.int64 and not act.flags.writeable
        for j, e in enumerate(b.elements):
            assert b.combine(act[:, j]) == apply_simple(d, i, e.matrix)


ROW_FORM = {"A%d" % n: path_diagram(n) for n in range(3, 9)}
ROW_FORM.update({"D%d" % n: y_diagram(1, 1, n - 3) for n in range(4, 17)})
ROW_FORM.update({"E%d" % n: y_diagram(1, 2, n - 4) for n in range(6, 9)})
ROW_FORM.update({"Y222": y_diagram(2, 2, 2), "Y444": y_diagram(4, 4, 4),
                 "Y126": y_diagram(1, 2, 6)})


def _reflect_rows(b, c, letters):
    """Row h of the integer stack c (H, K) times the matrix of
    s_{letters[h]}, read off the slot table _rows as orbits.highest_pair
    reads it: each slot's (column, coefficient) entries gathered from c
    and summed into the slot's row of a copy of c."""
    rows, cols, coefs = b._rows
    h = np.arange(len(c))[:, None]
    out = c.copy()
    out[h, rows[letters]] = np.einsum("hrw,hrw->hr", c[h[:, None],
                                                       cols[letters]],
                                      coefs[letters])
    return out


@pytest.mark.parametrize("tag", sorted(ROW_FORM))
def test_reflect_rows_equals_the_matrix_product(tag):
    """The slot table that the climb reads gives the dense product."""
    b = canonical_basis(ROW_FORM[tag])
    mats = b.action_matrices_np()
    rng = np.random.default_rng(17)
    c = rng.integers(-2 ** 40, 2 ** 40, size=(12, len(b)), dtype=np.int64)
    for i, m in enumerate(mats):
        letters = np.full(len(c), i)
        assert (_reflect_rows(b, c, letters) == c @ m.T).all()
    letters = rng.integers(0, len(mats), size=len(c))
    want = np.stack([mats[i] @ row for i, row in zip(letters, c)])
    got = _reflect_rows(b, c, letters)
    assert got.dtype == np.int64 and (got == want).all()
    assert (_reflect_rows(b, c[:0], letters[:0]) == c[:0]).all()


def _row_form_of(m):
    """A dense action matrix as one entry of the row form: the rows where
    it differs from the identity, and those rows."""
    rows = np.flatnonzero((m != np.eye(len(m), dtype=np.int64)).any(axis=1))
    return rows, m[rows]


def test_reflect_rows_pads_reflections_that_change_unequal_rows():
    """Every simple reflection changes equally many rows, so the padding
    only shows with other matrices: a product of two and the identity."""
    b = CanonicalBasis(y_diagram(1, 1, 2))
    mats = b.action_matrices_np()
    b._action_np = (mats[0] @ mats[1], np.eye(len(b), dtype=np.int64),
                    mats[2])
    b._row_form = tuple(map(_row_form_of, b._action_np))
    rng = np.random.default_rng(5)
    c = rng.integers(-99, 99, size=(30, len(b)), dtype=np.int64)
    letters = rng.integers(0, 3, size=len(c))
    want = np.stack([b._action_np[i] @ row for i, row in zip(letters, c)])
    assert (_reflect_rows(b, c, letters) == want).all()


@pytest.mark.parametrize("swap", ["none", "s0s1", "-s0", "s0+e"])
@pytest.mark.parametrize("d", [path_diagram(5), y_diagram(1, 1, 2),
                               y_diagram(1, 2, 4)], ids=repr)
def test_involution_check_is_the_dense_square(d, swap):
    """Every dense action matrix squares to the identity.  They are the
    identity with the row form written in, so a row form whose first
    entry is s_0 s_1, or s_0 with one more entry in a row it rewrites,
    gives a first matrix that is no involution; -s_0 is one."""
    mats = canonical_basis(d).action_matrices_np()
    eye = np.eye(len(mats[0]), dtype=np.int64)
    assert all((m @ m == eye).all() for m in mats)
    b = CanonicalBasis(d)
    first = {"none": mats[0], "s0s1": mats[0] @ mats[1], "-s0": -mats[0],
             "s0+e": mats[0].copy()}[swap]
    if swap == "s0+e":
        first[np.flatnonzero((mats[0] != eye).any(axis=1))[0], 0] += 1
    b._row_form = (_row_form_of(first),) + b._row_form[1:]
    got = b.action_matrices_np()
    assert all((g == m).all() for g, m in zip(got, (first,) + mats[1:]))
    assert (got[0] @ got[0] == eye).all() == (swap in ("none", "-s0"))


@pytest.mark.parametrize("n", [1, 2])
def test_empty_basis_has_empty_action_matrices(n):
    b = canonical_basis(path_diagram(n))
    assert len(b) == 0
    mats = b.action_matrices_np()
    assert len(mats) == n
    for m in mats:
        assert m.shape == (0, 0) and m.dtype == np.int64
        assert not m.flags.writeable


@pytest.mark.parametrize("d, sizes", [
    (path_diagram(1), []), (path_diagram(2), []),
    (y_diagram(1, 1, 1), [3, 3, 3]), (y_diagram(1, 1, 2), [10, 4]),
    (y_diagram(1, 2, 4), [35]), (y_diagram(2, 2, 2), [27]),
    (y_diagram(1, 2, 5), [44]), (y_diagram(2, 2, 3), [35]),
    (y_diagram(4, 4, 4), [90]),
], ids=["A1", "A2", "D4", "D5", "E8", "Y222", "Y125", "Y223", "Y444"])
def test_summands_are_the_components_of_the_action(d, sizes):
    b = canonical_basis(d)
    parts = b.summands()
    assert b.summands() is parts  # computed once per basis
    assert [len(s) for s in parts] == sizes
    assert sorted(k for s in parts for k in s) == list(range(len(b)))
    assert [s[0] for s in parts] == sorted(s[0] for s in parts)
    assert all(list(s) == sorted(s) and type(s[0]) is int for s in parts)
    for s in parts:  # no reflection takes an element of s outside s
        outside = np.setdiff1d(np.arange(len(b)), s)
        assert not any(m[np.ix_(outside, s)].any()
                       for m in b.action_matrices_np())


def test_d48_action_is_read_without_dense_matrices():
    """On D48 (K = 1175) the summands and the slot table come from the row
    form in a few MiB, and no query builds the K x K action matrices,
    which would take n K^2 int64 entries (about 530 MB)."""
    d = y_diagram(1, 1, 45)
    b = CanonicalBasis(d)
    assert len(b) == 1175
    tracemalloc.start()
    try:
        parts = b.summands()
        b._rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(s) for s in parts] == [1128, 47]
    assert peak < 64 * 2 ** 20
    unit = tuple(int(t == 7) for t in range(len(b)))
    assert b.word_column([0, 0], 7) == unit
    j = next(j for j in range(d.n) if adjacent(d, 0, j))
    f = b.star_map(0, j)
    assert len(set(f.values())) == len(f) == len(b.wrt(0))
    assert "_action_np" not in vars(b)


def test_word_matrix_is_multiplicative():
    for d in (y_diagram(1, 2, 2), y_diagram(2, 2, 3)):
        b = canonical_basis(d)
        rng = random.Random(3)
        for _ in range(5):
            u = [rng.randrange(d.n) for _ in range(4)]
            w = [rng.randrange(d.n) for _ in range(5)]
            lhs = b.word_matrix(u + w)
            assert lhs == _mat_mul(b.word_matrix(u), b.word_matrix(w))


PROPERTY = settings(max_examples=50, deadline=None, database=None)


def words(d, max_size):
    return st.lists(st.integers(0, d.n - 1), max_size=max_size)


@seed(1601)
@PROPERTY
@given(st.sampled_from([y_diagram(1, 2, 2), y_diagram(2, 2, 3)]).flatmap(
    lambda d: st.tuples(st.just(d), words(d, 12), words(d, 12))))
def test_word_matrix_multiplies_along_concatenation(case):
    d, u, w = case
    b = canonical_basis(d)
    assert b.word_matrix(u + w) == _mat_mul(b.word_matrix(u),
                                            b.word_matrix(w))


def test_word_matrix_is_exact_past_the_fast_path():
    d = y_diagram(2, 2, 3)
    b = canonical_basis(d)
    rng = random.Random(5)
    word = [rng.randrange(d.n) for _ in range(70)]
    assert b.word_matrix(word) == _mat_mul(b.word_matrix(word[:35]),
                                           b.word_matrix(word[35:]))


@pytest.mark.parametrize("letter", [-1, 4])
def test_word_letters_must_be_vertices(letter):
    b = canonical_basis(y_diagram(1, 1, 1))
    with pytest.raises(ValueError, match="vertices"):
        b.word_matrix([0, letter])
    with pytest.raises(ValueError, match="vertices"):
        b.word_column([letter], 0)


@pytest.mark.parametrize("j", [-1, 5])
def test_word_column_index_must_be_a_basis_index(j):
    b = canonical_basis(path_diagram(4))
    assert len(b) == 5
    with pytest.raises(ValueError, match="column index"):
        b.word_column([0], j)


def test_word_column_matches_word_matrix():
    d = y_diagram(1, 1, 3)
    b = canonical_basis(d)
    rng = random.Random(11)
    word = [rng.randrange(d.n) for _ in range(12)]
    m = b.word_matrix(word)
    for j in [0, 7, len(b) - 1]:
        assert b.word_column(word, j) == tuple(row[j] for row in m)


@pytest.mark.parametrize("d", [y_diagram(1, 2, 4), y_diagram(2, 2, 3),
                               y_diagram(4, 4, 4)],
                         ids=["E8", "Y223", "Y444"])
def test_word_column_and_matrix_are_the_dense_products(d):
    """The row updates of word_column and word_matrix against the dense
    products of the action matrices, int64 and exact."""
    b = canonical_basis(d)
    mats = b.action_matrices_np()
    rng = random.Random("dense:%r" % (d,))
    for length in (1, 30, 60):
        word = [rng.randrange(d.n) for _ in range(length)]
        m = np.eye(len(b), dtype=np.int64)
        for i in reversed(word):
            m = mats[i] @ m
        for j in rng.sample(range(len(b)), 5):
            assert b.word_column(word, j) == tuple(m[:, j].tolist())
        exact = np.eye(len(b), dtype=object)
        for i in reversed(word):
            exact = mats[i].astype(object) @ exact
        assert b.word_matrix(word) == tuple(map(tuple, exact.tolist()))


def test_word_column_takes_60_letters_and_refuses_61():
    b = canonical_basis(y_diagram(4, 4, 4))
    rng = random.Random("bound")
    word = [rng.randrange(b.diagram.n) for _ in range(61)]
    m = b.word_matrix(word[:60])
    for j in rng.sample(range(len(b)), 4):
        assert b.word_column(word[:60], j) == tuple(row[j] for row in m)
        with pytest.raises(ValueError, match="too long"):
            b.word_column(word, j)


def test_expand_pairs_refuses_what_is_off_the_basis_lattice():
    """On E8: the basis pairs expand to the identity, also scaled to the
    largest entries the float64 bound allows, one step past which is
    refused; alpha_0 v alpha_0 lies outside the span and a doubled _den
    leaves the coordinates 1/2; heights_within compares heights exactly,
    fractions included."""
    d = y_diagram(1, 2, 4)
    b = canonical_basis(d)
    k = len(b)
    vec = np.vstack([b._pairs.reshape(-1, d.n), [simple_root(d, 0)]])
    ends = np.arange(2 * k).reshape(k, 2)
    assert (b.expand_pairs(vec, ends) == np.eye(k)).all()
    top = int(vec.max())
    s = math.isqrt((2**53 - 1) // (2 * k * b._norm)) // top
    assert s > 10**6
    assert (b.expand_pairs(vec * s, ends) == np.eye(k) * s * s).all()
    with pytest.raises(RuntimeError, match="pass float64"):
        b.expand_pairs(vec * (s + 1), ends)
    with pytest.raises(RuntimeError, match="pass float64"):
        b.heights_within(vec * (s + 1), ends, 1)
    with pytest.raises(RuntimeError, match="off the basis span"):
        b.expand_pairs(vec, np.vstack([ends, [2 * k, 2 * k]]))
    assert b.heights_within(vec, ends, 1).all()
    assert not b.heights_within(vec, ends, 0).any()
    halved = symsquare.CanonicalBasis(d)
    halved._den *= 2  # every basis pair now has coordinates 0 and 1/2
    with pytest.raises(RuntimeError, match="or lattice"):
        halved.expand_pairs(vec, ends)
    # heights 1/2
    assert halved.heights_within(vec, ends, 1).all()
    assert not halved.heights_within(vec, ends, 0).any()


def test_word_column_refuses_long_words():
    b = canonical_basis(path_diagram(3))
    with pytest.raises(ValueError):
        b.word_column([0] * 61, 0)


def test_star_map_requires_adjacency():
    b = canonical_basis(y_diagram(1, 1, 1))
    with pytest.raises(ValueError):
        b.star_map(1, 2)


@pytest.mark.parametrize("d", [path_diagram(5), y_diagram(1, 1, 1),
                               y_diagram(1, 1, 2), y_diagram(1, 2, 2),
                               y_diagram(1, 2, 4), y_diagram(2, 2, 3)],
                         ids=repr)
def test_star_map_equals_the_congruence_route(d):
    """s_i s_j applied by congruence to each alpha_i element, then looked
    up among the element matrices."""
    b = canonical_basis(d)
    index = {e.matrix: k for k, e in enumerate(b.elements)}
    for i in range(d.n):
        for j in range(d.n):
            if adjacent(d, i, j):
                want = {k: index[apply_simple(d, i, apply_simple(
                    d, j, b.elements[k].matrix))] for k in b.wrt(i)}
                assert b.star_map(i, j) == want


@pytest.mark.parametrize("i", [-1, 4])
def test_wrt_refuses_a_vertex_out_of_range(i):
    b = canonical_basis(y_diagram(1, 1, 1))
    with pytest.raises(ValueError, match="out of range"):
        b.wrt(i)


def test_star_map_refuses_an_image_off_the_vertex_class():
    b = CanonicalBasis(y_diagram(1, 1, 1))
    mats = b.action_matrices_np()
    b._row_form = (_row_form_of(-mats[0]),) + b._row_form[1:]
    with pytest.raises(RuntimeError, match="expected vertex class"):
        b.star_map(0, 1)


def test_components_round_trip_d4():
    d = y_diagram(1, 1, 1)
    b = canonical_basis(d)
    for e in b.elements:
        assert components(d, e.matrix) == e.pair


def orthogonal_pair_images(d):
    """An orthogonal pair of positive roots of height up to 6, moved by a
    word of up to 6 letters."""
    low = positive_roots(d, 6)

    def partners(a):
        return st.sampled_from([x for x in low if bform(d, a, x) == 0])

    start = st.sampled_from(low).flatmap(
        lambda a: partners(a).map(lambda b: root_pair(a, b)))
    return st.tuples(start, words(d, 6)).map(
        lambda t: pair_action(d, t[1], t[0]))


@seed(1602)
@PROPERTY
@given(st.sampled_from([y_diagram(1, 2, 2), y_diagram(1, 1, 3),
                        y_diagram(2, 2, 3)]).flatmap(
    lambda d: st.tuples(st.just(d), orthogonal_pair_images(d))))
def test_components_recovers_the_pair(case):
    d, (a, b) = case
    assert components(d, vee(a, b)) == root_pair(a, b)


def test_components_rejects_non_two_root():
    d = path_diagram(3)
    with pytest.raises(ValueError):
        components(d, vee((1, 0, 0), (0, 1, 0)))


def test_sign_coherent():
    assert sign_coherent((0, 2, 1)) == (True, 1)
    assert sign_coherent((0, -2, -1)) == (True, -1)
    assert sign_coherent((0, 0, 0)) == (True, 0)
    assert sign_coherent((1, -1, 0)) == (False, None)


def test_conjugate_by_simple_preserves_two_roots():
    d = y_diagram(1, 1, 2)
    p = (simple_root(d, 1), simple_root(d, 2))
    s = vee(*p)
    out = apply_word(d, [0, 3, 4], s)
    assert components(d, out) is not None


def _assert_api_matrix(m, n):
    """A hashable n x n tuple of row tuples of Python ints and Fractions,
    with no numpy scalar left over from the arrays inside."""
    assert type(m) is tuple and len(m) == n
    assert all(type(row) is tuple and len(row) == n for row in m)
    assert all(type(x) in (int, Fraction) for row in m for x in row)
    hash(m)


@pytest.mark.parametrize("d", [y_diagram(1, 1, 2), y_diagram(1, 2, 2),
                               path_diagram(1)])
def test_matrices_leave_the_api_as_exact_tuples(d):
    n, b = d.n, canonical_basis(d)
    alpha = simple_root(d, n - 1)
    s = vee(alpha, alpha)
    values = [reflection_matrix(d, alpha), *simple_matrices(d),
              conjugate(simple_matrices(d)[0], s),
              apply_word(d, list(range(n)) * 2, s), c_apply(d, alpha, s),
              virasoro(d), b.combine(range(len(b))),
              b.combine([Fraction(1, 2)] * len(b))]
    for m in values:
        _assert_api_matrix(m, n)
    if not len(b):
        assert b.combine(()) == ((0,) * n,) * n
    w = norm2_witness(2, 2, 3)
    _assert_api_matrix(w["x"], w["diagram"].n)


@pytest.mark.parametrize("d", [
    path_diagram(8), y_diagram(1, 1, 5), y_diagram(1, 2, 4),
    y_diagram(2, 2, 2), y_diagram(1, 2, 6), y_diagram(4, 4, 4),
], ids=["A8", "D8", "E8", "Y222", "Y126", "Y444"])
def test_lifted_solve_is_the_rref_solve(d):
    """The solve lifted from mod 2**31 - 1 is the one rref_int gives over
    Q, entry for entry, and the basis keeps it in int64, read back as
    Python ints."""
    b = canonical_basis(d)
    cols = b._coords.T
    lifted, den = linalg.lifted_solve(cols)
    solve, want_den = linalg.rref_solve(cols)
    assert lifted.dtype == np.int64
    assert den == want_den == b._den
    assert lifted.tolist() == solve.tolist() == b._solve.tolist()
    assert b._solve.dtype == np.int64
    assert all(type(x) is int for row in b._solve.tolist() for x in row)


@pytest.mark.parametrize("n, dim", [(1, 1), (2, 3)])
def test_empty_basis_solve(n, dim):
    """With no elements the solve is all span functionals: the identity,
    over denominator 1."""
    b = canonical_basis(path_diagram(n))
    assert b._solve.shape == (dim, dim) and b._den == 1
    assert b._solve.tolist() == np.eye(dim, dtype=int).tolist()
    assert linalg.lifted_solve(b._coords.T)[0].tolist() \
        == b._solve.tolist()


@pytest.mark.parametrize("d", [y_diagram(1, 1, 1), y_diagram(1, 2, 2)],
                         ids=["D4", "E6"])
def test_basis_falls_back_to_rref_when_the_lift_fails(d, monkeypatch):
    """Mod 3 a symmetric residue is at most 1 in size, while the solves of
    D4 and E6 have entries 2, so the exact check fails and the basis
    takes rref_int over Q."""
    want = canonical_basis(d)
    monkeypatch.setattr(linalg, "CERT_PRIME", 3)
    b = CanonicalBasis(d)
    assert linalg.lifted_solve(b._coords.T) is None
    solve, den = linalg.rref_solve(b._coords.T)
    assert b._den == den == want._den
    assert b._solve.tolist() == solve.tolist() == want._solve.tolist()
    assert b._cap == want._cap
    assert b._solve.dtype == want._solve.dtype == np.int64
    s = want.elements[0].matrix
    assert b.expand(s) == want.expand(s) == (1,) + (0,) * (len(b) - 1)


def test_lifted_solve_refuses_past_the_float64_bound():
    """For C = (2**52, 1) the check's bound max |L| max |C| dim reaches
    2**53, where float64 sums need not be exact: the lift is refused and
    rref_solve gives E with E C = (1, 0)."""
    cols = np.array([[2**52], [1]], dtype=np.int64)
    assert linalg.lifted_solve(cols) is None
    solve, den = linalg.rref_solve(cols)
    assert den == 1 and solve.tolist() == [[0, 1], [1, -2**52]]
