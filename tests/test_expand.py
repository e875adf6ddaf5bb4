"""CanonicalBasis.expand and expand_pair: their int64 route against the
exact object-dtype solve, the bound that chooses between them, and the
inputs they refuse."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from tworoots import linalg
from tworoots.diagram import path_diagram, y_diagram
from tworoots.orbits import (orbit_of, orbit_tables, pair_action,
                             simple_pair_action)
from tworoots.roots import (bform, height, negate, positive_roots,
                            simple_root)
from tworoots.symsquare import _upper, canonical_basis, standard_coords, vee


def exact_solve(b, s):
    """The object-dtype solve, left inverse and span functionals apart, on
    the entries of s read as Python ints and Fractions."""
    v = linalg.exact([x if isinstance(x, Fraction) else int(x)
                      for x in standard_coords(s)])
    left, null = b._solve[:len(b)], b._solve[len(b):]
    if (null @ v).any():
        raise ValueError("outside the span")
    den = b._den
    return tuple(c // den if c % den == 0 else Fraction(c, den)
                 for c in left @ v)


def assert_same(got, want):
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def unit_element(b):
    """Index of a basis element whose matrix has largest |entry| 1."""
    return next(k for k, e in enumerate(b.elements)
                if max(abs(x) for row in e.matrix for x in row) == 1)


@pytest.mark.parametrize("d", [path_diagram(8), y_diagram(1, 1, 5),
                               y_diagram(1, 2, 4)], ids=["A8", "D8", "E8"])
def test_routes_agree_on_every_orbit_member(d):
    b = canonical_basis(d)
    for t in orbit_tables(d):
        for p in t.members:
            s = vee(*p)
            assert_same(b.expand(s), exact_solve(b, s))


def test_routes_agree_on_word_images_in_y444():
    d = y_diagram(4, 4, 4)
    b = canonical_basis(d)
    rng = random.Random(444)
    for _ in range(300):
        word = [rng.randrange(d.n) for _ in range(rng.randint(1, 30))]
        s = vee(*pair_action(d, word, b.elements[rng.randrange(len(b))].pair))
        assert_same(b.expand(s), exact_solve(b, s))


@pytest.mark.parametrize("d", [path_diagram(5), y_diagram(1, 2, 4),
                               y_diagram(4, 4, 4)], ids=["A5", "E8", "Y444"])
@pytest.mark.parametrize("past", [0, 1], ids=["cap", "cap+1"])
def test_routes_agree_at_the_int64_cap(d, past):
    """Largest entry exactly cap takes the int64 route, cap + 1 the exact
    one; the answers are the same either way."""
    b = canonical_basis(d)
    cap = b._cap
    k = unit_element(b)
    for sign in (1, -1):
        coords = tuple(sign * (cap + past) if j == k else 0
                       for j in range(len(b)))
        s = b.combine(coords)
        assert max(abs(x) for row in s for x in row) == cap + past
        assert np.array(s).dtype == np.int64
        assert_same(b.expand(s), exact_solve(b, s))
        assert_same(b.expand(s), coords)


@pytest.mark.parametrize("half", [Fraction(1, 2), Fraction(-7, 2)])
def test_integer_matrix_with_half_integral_coordinates(half):
    """Elements 0, 1 and 2 of D4 sum to an even matrix, so half of it is
    an integer matrix whose coordinates are not integers: the int64
    route's divmod by _den leaves a remainder and it gives Fractions."""
    b = canonical_basis(y_diagram(1, 1, 1))
    coords = (half,) * 3 + (0,) * 6
    s = b.combine(coords)
    assert all(Fraction(x).denominator == 1 for row in s for x in row)
    s = tuple(tuple(int(x) for x in row) for row in s)
    assert_same(b.expand(s), coords)
    assert_same(b.expand(s), exact_solve(b, s))


def test_expand_refuses_a_matrix_whose_int64_check_would_wrap():
    """On D4 the functional that cuts out the span is 2 on each diagonal
    entry, so diag(2**62, 2**62, 0, 0) gives it the value 2**64, which is
    0 in int64.  The entries are past the cap, so the exact route sees the
    nonzero value."""
    b = canonical_basis(y_diagram(1, 1, 1))
    upper = np.triu_indices(4)
    s = tuple(tuple(2**62 if i == j < 2 else 0 for j in range(4))
              for i in range(4))
    assert 2**62 > b._cap and b._solve.dtype == np.int64
    assert not (b._solve @ np.array(s)[upper])[len(b):].any()
    with pytest.raises(ValueError, match="trace"):
        b.expand(s)


def test_routes_agree_on_fraction_numpy_and_bool_entries():
    b = canonical_basis(y_diagram(1, 2, 2))
    k = unit_element(b)
    unit = b.elements[k].matrix
    ints = b.combine([(-1) ** j * (j + 1) for j in range(len(b))])
    halves = b.combine([Fraction(j, 2) for j in range(len(b))])
    cases = [
        tuple(tuple(Fraction(x) for x in row) for row in ints),
        halves,
        tuple(tuple(np.int64(x) for x in row) for row in ints),
        np.array(ints, dtype=np.int64),
        np.array(ints, dtype=np.int8),
        tuple(tuple(bool(x) for x in row) for row in unit),
        np.array(unit, dtype=bool),
    ]
    # past the cap: numpy reads these as int64, float64 and object
    past = [b.combine([top if j == k else -1 for j in range(len(b))])
            for top in (2**63, 2**64, 2**70)]
    assert [np.array(s).dtype for s in past] == [np.int64, np.float64, object]
    for s in cases + past:
        assert_same(b.expand(s), exact_solve(b, s))
    assert b.expand(cases[0]) == b.expand(cases[2])
    assert b.expand(cases[5]) == tuple(int(j == k) for j in range(len(b)))


@pytest.mark.parametrize("s", [
    ((0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, Fraction(1, 2), 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 2**70, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
], ids=["int", "fraction", "big"])
def test_expand_rejects_a_non_symmetric_matrix(s):
    # expanded from its upper triangle, the int case came back (0, 1, 0, 0, 0)
    with pytest.raises(ValueError, match="not symmetric"):
        canonical_basis(path_diagram(4)).expand(s)


@pytest.mark.parametrize("s", [
    ((0, 0, 1, 0), (0, 0), (1, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (0, 0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)),
    (1, 2, 3, 4),
], ids=["short-row", "long-row", "flat"])
def test_expand_rejects_a_ragged_or_flat_matrix(s):
    with pytest.raises(ValueError, match="length 4|4 x 4"):
        canonical_basis(path_diagram(4)).expand(s)


def test_vee_refuses_vectors_of_unequal_length():
    with pytest.raises(ValueError):
        vee((1, 0, 0), (1, 0))
    with pytest.raises(ValueError):
        vee((1, 0), (1, 0, 0))


# --- seeded properties -----------------------------------------------------

DIAGRAMS = [path_diagram(5), y_diagram(1, 1, 2), y_diagram(1, 2, 2),
            y_diagram(1, 2, 4), y_diagram(2, 2, 3)]
PROPERTY = settings(max_examples=100, deadline=None, database=None)


@seed(1501)
@PROPERTY
@given(st.sampled_from(DIAGRAMS), st.data())
def test_expand_inverts_combine(d, data):
    """Integer coordinates up to 2**70 and Fraction coordinates come back
    exactly, the integral ones as ints."""
    b = canonical_basis(d)
    big = st.integers(-2**70, 2**70)
    entry = data.draw(st.sampled_from([st.integers(-9, 9), big, st.one_of(
        big, st.fractions(-2**70, 2**70, max_denominator=12))]))
    coords = tuple(data.draw(st.lists(entry, min_size=len(b),
                                      max_size=len(b))))
    got = b.expand(b.combine(coords))
    assert got == coords
    assert all(type(x) is int or x.denominator > 1 for x in got)


def pairs(d):
    """Orthogonal pairs of roots of height up to 12, the first of either
    sign, and pairs of roots or short integer vectors, some of the wrong
    length."""
    roots = positive_roots(d, 12)
    signed = st.sampled_from(roots + tuple(negate(r) for r in roots))

    def partners(r):
        return st.sampled_from([x for x in roots if bform(d, r, x) == 0])

    orthogonal = signed.flatmap(lambda r: st.tuples(st.just(r), partners(r)))
    vector = st.one_of(signed, st.lists(st.integers(-3, 3), min_size=0,
                                        max_size=d.n + 1).map(tuple))
    return st.one_of(orthogonal, st.tuples(vector, vector))


@seed(1502)
@PROPERTY
@given(st.sampled_from(DIAGRAMS), st.data())
def test_expand_pair_expands_or_refuses(d, data):
    b = canonical_basis(d)
    a, c = data.draw(pairs(d))
    try:
        coords = b.expand_pair(a, c)
    except ValueError:
        return
    assert b.combine(coords) == vee(a, c)


FINITE = {"A%d" % n: path_diagram(n) for n in range(4, 9)}
FINITE.update({"D%d" % n: y_diagram(1, 1, n - 3) for n in range(4, 9)})
FINITE.update({"E%d" % n: y_diagram(1, 2, n - 4) for n in range(6, 9)})


@pytest.mark.parametrize("tag", [*FINITE, "Y223-12"])
def test_expand_pair_solves_without_a_matrix(tag, monkeypatch):
    """On every orbit member of A4-A8, D4-D8 and E6-E8, and every pair of
    the Y(2,2,3) cut walk at height 12, expand_pair gives what expand of
    the pair's matrix gives, ints of the same values, and never calls
    expand: the int64 route takes them all."""
    if tag == "Y223-12":
        d = y_diagram(2, 2, 3)
        basis = canonical_basis(d)
        members = orbit_of(d, basis.elements[0].pair, 12)
        assert len(members) > 100
    else:
        d = FINITE[tag]
        basis = canonical_basis(d)
        members = [p for t in orbit_tables(d) for p in t.members]
    want = [basis.expand(vee(*p)) for p in members]

    def refuse(s):
        raise AssertionError("expand_pair built a matrix")

    monkeypatch.setattr(basis, "expand", refuse)
    for p, w in zip(members, want):
        assert_same(basis.expand_pair(*p), w)
        assert_same(basis.expand_pair(*p[::-1]), w)


def test_expand_pair_takes_the_exact_route_past_the_cap(monkeypatch):
    """Climbing in Y(2,2,3) by the reflection that raises the height most,
    the last pair with 2 m**2 <= _cap (m its largest entry) is solved in
    int64 and the first one past it by expand; both answers are exact."""
    d = y_diagram(2, 2, 3)
    b = canonical_basis(d)
    p = (simple_root(d, 1), simple_root(d, 3))
    while True:
        q = max((simple_pair_action(d, i, p) for i in range(d.n)),
                key=lambda q: sum(map(height, q)))
        if 2 * max(map(max, q)) ** 2 > b._cap:
            break
        p = q
    calls = []
    expand = b.expand

    def counted(s):
        calls.append(s)
        return expand(s)

    monkeypatch.setattr(b, "expand", counted)
    for pair, routed in ((p, []), (q, [vee(*q)])):
        coords = b.expand_pair(*pair)
        assert calls == routed
        assert b.combine(coords) == vee(*pair)
        assert all(type(x) is int for x in coords)


@pytest.mark.parametrize("convert, kind", [(float, float), (Fraction, int),
                                           (np.int64, int)],
                         ids=["float", "fraction", "numpy"])
def test_expand_pair_keeps_the_types_of_other_entries(convert, kind):
    """Roots with entries that are not Python ints are expanded as expand
    of their matrix, as before the int64 route: integral floats give
    floats, Fractions and numpy ints give ints."""
    b = canonical_basis(y_diagram(1, 1, 1))
    a, c = (tuple(map(convert, r)) for r in ((1, 0, 1, 1), (1, 1, 1, 0)))
    assert_same(b.expand_pair(a, c),
                tuple(kind(k in (1, 3, 7)) for k in range(len(b))))
    e8 = canonical_basis(y_diagram(1, 2, 4))
    for t in orbit_tables(e8.diagram):
        for p in t.members[::97]:
            q = [tuple(map(convert, r)) for r in p]
            assert_same(e8.expand_pair(*q), e8.expand(vee(*q)))
            assert e8.expand_pair(*q) == e8.expand_pair(*p)


@pytest.mark.parametrize("d", [y_diagram(1, 2, 4), y_diagram(1, 1, 17),
                               y_diagram(4, 4, 4)], ids=["E8", "D20", "Y444"])
def test_int64_solve_is_built_with_the_basis(d):
    """The int64 solve and its cap are there before the first expand, cap
    is the int64 bound over the row L1 norms of _solve, and expand's
    upper triangle index is standard_coords order."""
    b = canonical_basis(d)
    assert {"_solve", "_cap"} <= vars(b).keys()
    assert b._solve.dtype == np.int64
    norm = max(sum(abs(x) for x in row) for row in b._solve.tolist())
    assert type(b._cap) is int and b._cap == (2**63 - 1) // norm
    assert [u.tolist() for u in _upper(d.n)] == [list(u) for u in
                                                 np.triu_indices(d.n)]


@pytest.mark.parametrize("d", [y_diagram(1, 1, 1), y_diagram(1, 2, 4)],
                         ids=["D4", "E8"])
def test_expand_with_an_entry_of_minus_2_to_the_63(d):
    """np.abs leaves -2**63 negative, so next to a positive entry it once
    hid from the cap and the int64 product wrapped.  Every element times
    -2**63 plus another must expand to exactly those coordinates."""
    b = canonical_basis(d)
    mats = np.array([e.matrix for e in b.elements], dtype=object)
    for k in range(len(b)):
        coords = [0] * len(b)
        coords[k], coords[k - 1] = -2**63, 1
        s = np.tensordot(np.array(coords, dtype=object), mats, 1)
        if (s == -2**63).any() and np.abs(s).max() <= 2**63:
            assert b.expand(linalg.mat(s)) == tuple(coords)
