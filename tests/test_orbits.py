import importlib
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import tworoots
from tworoots import orbits, symsquare
from tworoots.diagram import neighbors, path_diagram, y_diagram
from tworoots.orbits import (_pair_layers, cgw_less, closed_form_highest,
                             highest_pair, ht2_of_pair, monoidal_covers,
                             normalize_root, orbit_of, orbit_tables,
                             orthogonal_pairs, pair_action,
                             simple_pair_action, vee_pair)
from tworoots.roots import closure, positive_roots, simple_root, theta
from tworoots.symsquare import canonical_basis, root_pair, simple_matrices


def test_orthogonal_pairs_a3():
    got = orthogonal_pairs(path_diagram(3))
    assert got == (
        ((0, 0, 1), (1, 0, 0)),
        ((0, 1, 0), (1, 1, 1)),
        ((0, 1, 1), (1, 1, 0)),
    )


def test_pair_action_applies_rightmost_first():
    d = path_diagram(4)
    p = (simple_root(d, 0), simple_root(d, 2))
    one = simple_pair_action(d, 1, p)
    two = simple_pair_action(d, 3, one)
    assert pair_action(d, [3, 1], p) == two


@pytest.mark.parametrize("d", [path_diagram(5), y_diagram(1, 1, 3),
                               y_diagram(1, 2, 4), y_diagram(2, 2, 3),
                               y_diagram(4, 4, 4)],
                         ids=["A5", "D6", "E8", "Y223", "Y444"])
def test_pair_action_is_the_fold_of_simple_pair_action(d):
    """Reflecting the plain roots through the word and normalising once
    gives what normalising after every letter gives, also from a start
    with a negated root or with the two roots swapped.  The empty word
    normalises the start alone."""
    basis = canonical_basis(d)
    rng = random.Random("pair_action:%r" % (d,))
    for _ in range(40):
        word = [rng.randrange(d.n) for _ in range(rng.randint(0, 60))]
        a, b = basis.elements[rng.randrange(len(basis))].pair
        for p in ((a, b), (b, a), (tuple(-x for x in a), b),
                  (a, tuple(-x for x in b))):
            want = p if word else root_pair(*map(normalize_root, p))
            for i in reversed(word):
                want = simple_pair_action(d, i, want)
            assert pair_action(d, word, p) == want


@pytest.mark.parametrize("d", [path_diagram(5), y_diagram(1, 1, 3),
                               y_diagram(1, 2, 4)], ids=["A5", "D6", "E8"])
def test_pair_action_on_the_empty_word_is_s_i_s_i(d):
    """The empty word and s_i s_i are the same element of W, so they give
    the same pair: positive roots in root_pair order, from every start of
    either order and sign, given as tuples or lists."""
    for a, b in (e.pair for e in canonical_basis(d).elements):
        na, nb = tuple(-x for x in a), tuple(-x for x in b)
        for p in ((a, b), (b, a), (na, b), (b, na), (na, nb), (nb, na),
                  ([*b], [*na])):
            got = pair_action(d, [], p)
            assert got == root_pair(a, b)
            assert all(type(r) is tuple for r in got)
            for i in range(d.n):
                assert pair_action(d, [i, i], p) == got


@pytest.mark.parametrize("letter", [-1, 4])
def test_pair_action_letters_must_be_vertices(letter):
    d = path_diagram(4)
    p = (simple_root(d, 0), simple_root(d, 2))
    with pytest.raises(ValueError, match="vertices 0..3"):
        pair_action(d, [0, letter], p)


def test_d4_orbit_tables():
    tabs = orbit_tables(y_diagram(1, 1, 1))
    assert [t.id for t in tabs] == [1, 2, 3]
    assert [t.size for t in tabs] == [6, 6, 6]
    used = sorted(k for t in tabs for k in t.basis_members)
    assert used == list(range(9))
    for t in tabs:
        assert t.highest in t.coords
        assert sum(t.coords[t.highest]) == t.height


def test_a5_single_orbit():
    (t,) = orbit_tables(path_diagram(5))
    assert t.size == 45
    assert t.height == 10


def test_orbit_tables_need_finite_type():
    with pytest.raises(ValueError):
        orbit_tables(y_diagram(2, 2, 2))


def test_orbit_of_matches_tables():
    d = y_diagram(1, 1, 2)
    tabs = orbit_tables(d)
    small = min(tabs, key=lambda t: t.size)
    got = orbit_of(d, small.members[0], height_bound=20)
    assert set(got) == set(small.members)
    a, b = small.members[0]
    assert orbit_of(d, (b, a), height_bound=20) == got


def test_orbit_of_stops_at_the_height_bound():
    d = y_diagram(2, 2, 3)
    start = canonical_basis(d).elements[0].pair
    bound = 2
    got = set(orbit_of(d, start, height_bound=bound))
    assert start in got
    assert all(ht2_of_pair(d, p) <= bound for p in got)
    outside = {simple_pair_action(d, i, p)
               for p in got for i in range(d.n)} - got
    assert outside
    assert all(ht2_of_pair(d, q) > bound for q in outside)


def _closure_orbit(d, start, bound=None):
    """The orbit by the visited-set walk over simple_pair_action, sorted
    by vee_pair, with coordinates from expand_pair."""
    basis = canonical_basis(d)
    prune = None if bound is None else (
        lambda p: sum(basis.expand_pair(*p)) > bound)
    walk = closure([start], lambda p: (simple_pair_action(d, i, p)
                                       for i in range(d.n)), prune=prune)
    members = tuple(sorted(walk, key=vee_pair))
    return members, {p: basis.expand_pair(*p) for p in members}


FINITE = {"A%d" % n: path_diagram(n) for n in range(4, 9)}
FINITE.update({"D%d" % n: y_diagram(1, 1, n - 3) for n in range(4, 9)})
FINITE.update({"E%d" % n: y_diagram(1, 2, n - 4) for n in range(6, 9)})


@pytest.mark.parametrize("tag", sorted(FINITE))
def test_layered_pair_walk_equals_the_reflection_closure(tag):
    d = FINITE[tag]
    basis = canonical_basis(d)
    want = []
    for e in basis.elements:
        if not any(e.pair in coords for _, coords in want):
            want.append(_closure_orbit(d, e.pair))
    want.sort(key=lambda o: vee_pair(o[0][0]))
    tabs = orbit_tables(d)
    assert [t.members for t in tabs] == [members for members, _ in want]
    for t, (_, coords) in zip(tabs, want):
        assert t.coords == coords
        assert all(type(x) is int for c in t.coords.values() for x in c)
        assert t.basis_members == tuple(
            k for k, e in enumerate(basis.elements) if e.pair in coords)


def test_orbit_table_coords_are_built_on_first_access():
    tworoots.clear_caches()
    t = orbit_tables(y_diagram(1, 1, 2))[0]
    assert "coords" not in vars(t)
    assert t.coords is t.coords and len(t.coords) == t.size


@pytest.mark.parametrize("arms, bound", [((2, 2, 3), 12), ((1, 2, 6), 14),
                                         ((3, 3, 3), 10)],
                         ids=["Y223-12", "Y126-14", "Y333-10"])
def test_layered_orbit_of_equals_the_reflection_closure(arms, bound):
    d = y_diagram(*arms)
    start = canonical_basis(d).elements[0].pair
    assert orbit_of(d, start, bound) == _closure_orbit(d, start, bound)[0]


def _check_edges(d, members, ex, bound=None):
    """For every member and letter i, the dense action matrix of s_i maps
    the member's expansion to that of simple_pair_action(d, i, member), up
    to a sign that is -1 exactly when alpha_i is one of the pair's roots.
    An image outside the members must be above the bound, and the matrix
    must still give its expand_pair."""
    basis = canonical_basis(d)
    row = {p: r for r, p in enumerate(members)}
    outside = 0
    for i, m in enumerate(basis.action_matrices_np()):
        alpha = simple_root(d, i)
        got = ex @ m.T
        for r, p in enumerate(members):
            q = simple_pair_action(d, i, p)
            image = -got[r] if alpha in p else got[r]
            if q in row:
                assert (image == ex[row[q]]).all()
            else:
                outside += 1
                assert tuple(image.tolist()) == basis.expand_pair(*q)
                assert bound is not None and image.sum() > bound
    return outside


@pytest.mark.parametrize("tag", sorted(FINITE))
def test_table_expansions_agree_along_every_edge(tag):
    """The property the walk once checked edge by edge, now that every
    member is expanded on its own."""
    d = FINITE[tag]
    for t in orbit_tables(d):
        assert _check_edges(d, t.members, t.expansions) == 0


def test_cut_walk_expansions_agree_along_every_edge():
    d = y_diagram(2, 2, 3)
    basis = canonical_basis(d)
    members, vec, ends, src = _pair_layers(d, [basis.elements[0].pair], 12)
    ex = basis.expand_pairs(vec, ends)
    assert (src == 0).all() and len(members) == len(ex) > 100
    assert (ex.sum(axis=1) <= 12).all()
    assert _check_edges(d, members, ex, 12) > 0


@pytest.mark.parametrize("tag", ["E8", "D8", "Y223-12"])
def test_pair_solve_agrees_with_expand(tag):
    """expand_pairs on a walk's members, against expand of each member's
    matrix one at a time; the cut walk's members are exactly its pairs of
    height at most the bound, which heights_within keeps."""
    d = y_diagram(2, 2, 3) if tag == "Y223-12" else FINITE[tag]
    basis = canonical_basis(d)
    starts = [basis.elements[s[0]].pair for s in basis.summands()]
    bound = 12 if tag == "Y223-12" else None
    members, vec, ends, src = _pair_layers(d, starts[:1] if bound else starts,
                                           bound)
    ex = basis.expand_pairs(vec, ends)
    assert ex.dtype == np.int64 and ex.shape == (len(members), len(basis))
    assert ex.tolist() == [list(basis.expand(vee_pair(p))) for p in members]
    if bound:
        assert basis.heights_within(vec, ends, bound).all()
        assert not basis.heights_within(vec, ends, bound - 1).all()


@pytest.mark.parametrize("arms, bound", [((2, 2, 3), 20), ((4, 4, 4), 8)],
                         ids=["Y223-20", "Y444-8"])
def test_cut_walks_with_a_growing_root_table(arms, bound, monkeypatch):
    """On these cut walks the root table takes new roots on every layer
    but the last, and the walk still equals the reflection closure."""
    sizes = []
    fill = orbits._RootTable.reflect

    def recorded(self, idx):
        fill(self, idx)
        sizes.append(len(self.vec))

    monkeypatch.setattr(orbits._RootTable, "reflect", recorded)
    d = y_diagram(*arms)
    start = canonical_basis(d).elements[0].pair
    assert orbit_of(d, start, bound) == _closure_orbit(d, start, bound)[0]
    assert len(sizes) > 20
    assert all(a < b for a, b in zip(sizes, sizes[1:-1]))


@pytest.mark.parametrize("tag", ["E8", "D8"])
def test_a_finite_walk_fills_its_root_table_once(tag, monkeypatch):
    """The table is seeded with every positive root before the one walk
    of the diagram, so of its reflect calls only the first finds rows to
    fill."""
    filled = []
    fill = orbits._RootTable.reflect

    def counted(self, idx):
        filled.append(int((self.refl[idx, 0] < 0).sum()))
        fill(self, idx)

    monkeypatch.setattr(orbits._RootTable, "reflect", counted)
    d = FINITE[tag]
    orbit_tables.__wrapped__(d)
    assert [x for x in filled if x] == [len(positive_roots(d))]


@pytest.mark.parametrize("tag", ["D4", "D5", "D6", "D7", "D8"])
def test_one_walk_from_every_summand_equals_one_walk_each(tag):
    """The walk from the least element of every summand at once holds,
    orbit by orbit, the members and coordinates of the walk from each
    start alone."""
    d = FINITE[tag]
    basis = canonical_basis(d)
    least = [s[0] for s in basis.summands()]
    assert len(least) == (3 if tag == "D4" else 2)
    members, vec, ends, src = _pair_layers(d, [basis.elements[j].pair
                                               for j in least])
    c = basis.expand_pairs(vec, ends)
    assert src.tolist() == sorted(src.tolist())
    cuts = src.searchsorted(range(len(least) + 1))
    for s, j in enumerate(least):
        alone, *walk, _ = _pair_layers(d, [basis.elements[j].pair])
        assert members[cuts[s]:cuts[s + 1]] == alone
        assert (c[cuts[s]:cuts[s + 1]] == basis.expand_pairs(*walk)).all()


def test_a_walk_refuses_two_equal_starts():
    d = y_diagram(1, 1, 1)
    basis = canonical_basis(d)
    a, b = basis.elements[0].pair
    with pytest.raises(RuntimeError, match="two starts"):
        _pair_layers(d, [(a, b), (b, a)])


@pytest.mark.parametrize("tag", sorted(FINITE))
def test_table_members_are_canonical_pairs_of_ints(tag):
    for t in orbit_tables(FINITE[tag]):
        for m in t.members + (t.highest,):
            assert m == root_pair(*m)
            assert all(type(x) is int for r in m for x in r)


def test_root_table_interns_like_a_dict():
    """Against a dict from root to index: repeats within and across
    batches share one index, known roots keep theirs, and each new root
    is appended once."""
    d = y_diagram(4, 4, 4)
    table, index = orbits._RootTable(d), {}
    rng = np.random.default_rng(29)
    pool = np.array(positive_roots(d, 12), dtype=np.int64)
    for size in (0, 1, 40, 300, 300):
        batch = pool[rng.integers(0, len(pool), size)]
        got = table.intern(batch)
        for r, k in zip(map(tuple, batch.tolist()), got.tolist()):
            assert index.setdefault(r, k) == k
        assert len(table.vec) == len(table.refl) == len(index)
        assert (table.vec[got] == batch).all() and got.dtype == np.int64


def test_a_walk_refuses_root_indices_past_the_key_half(monkeypatch):
    """With 3-bit key halves a walk may index 4 roots; D4's walk meets
    more and must stop rather than pack a larger index."""
    d = y_diagram(1, 1, 1)
    basis = canonical_basis(d)
    monkeypatch.setattr(orbits, "_KEY_SHIFT", 3)
    with pytest.raises(RuntimeError, match="more than 2\\*\\*2 roots"):
        _pair_layers(d, [basis.elements[0].pair])


def test_orbit_of_refuses_heights_past_int64():
    d = y_diagram(1, 1, 1)
    start = canonical_basis(d).elements[0].pair
    (t,) = [t for t in orbit_tables(d) if start in t.coords]
    assert orbit_of(d, start, 2 ** 61) == t.members
    with pytest.raises(ValueError, match="2\\*\\*61"):
        orbit_of(d, start, 2 ** 61 + 1)


def test_orbit_of_rejects_a_start_that_is_not_a_2_root():
    d = path_diagram(3)
    with pytest.raises(ValueError, match="not a root"):
        orbit_of(d, ((2, 0, 0), (0, 0, 1)), 10)
    with pytest.raises(ValueError, match="not orthogonal"):
        orbit_of(d, ((1, 0, 0), (0, 1, 0)), 10)


def test_cgw_less_orients_towards_the_top():
    d = y_diagram(1, 1, 1)
    t = orbit_tables(d)[0]
    p, top = t.members[0], t.highest
    if p != top:
        assert cgw_less(d, p, top)
        assert not cgw_less(d, top, p)


def test_monoidal_covers_raise_height():
    d = y_diagram(1, 1, 2)
    t = max(orbit_tables(d), key=lambda x: x.size)
    p = t.members[0]
    for _i, q in monoidal_covers(d, p):
        assert ht2_of_pair(d, q) > ht2_of_pair(d, p)


def test_highest_has_no_monoidal_cover():
    d = y_diagram(1, 1, 2)
    for t in orbit_tables(d):
        assert not monoidal_covers(d, t.highest)


def test_highest_pair_climbs_to_the_table_top():
    d = y_diagram(1, 2, 2)
    (t,) = orbit_tables(d)
    rng = random.Random(1)
    for _ in range(5):
        start = rng.choice(t.members)
        assert highest_pair(d, start, rng=rng) == t.highest


def _full_rise_climb(d, p, rng):
    """The climb with the rise test on whole coordinate vectors: every
    letter's dense action matrix times c, compared with c in every entry.
    Returns the letters taken and the top."""
    basis = canonical_basis(d)
    mats = np.stack(basis.action_matrices_np())
    c = np.array([int(x) for x in basis.expand_pair(*p)], dtype=np.int64)
    order, taken = list(range(d.n)), []
    while True:
        if rng is not None:
            rng.shuffle(order)
        up = mats @ c
        diff = up - c
        rises = diff.any(axis=1) & (diff >= 0).all(axis=1)
        i = next((i for i in order if rises[i]), None)
        if i is None:
            return taken, p
        taken.append(i)
        p, c = simple_pair_action(d, i, p), up[i]


@pytest.mark.parametrize("tag", ["E6", "D6", "E8"])
def test_highest_pair_takes_the_letters_of_the_full_rise_test(tag,
                                                              monkeypatch):
    """The climb moves the pair once, by pair_action of its letters with
    the last one leftmost; the letters, read back in climb order, are
    those of the rise test on whole coordinate vectors."""
    d = FINITE[tag]
    words = []

    def recorded(d, word, p):
        words.append(list(word))
        return pair_action(d, word, p)

    monkeypatch.setattr(orbits, "pair_action", recorded)
    rng = random.Random("climb:" + tag)
    for t in orbit_tables(d):
        for start in rng.sample(t.members, min(12, t.size)):
            seed = rng.random()
            for fresh in (lambda: None, lambda: random.Random(seed)):
                words.clear()
                top = highest_pair(d, start, rng=fresh())
                assert len(words) == 1
                taken = words[0][::-1]
                assert (taken, top) == _full_rise_climb(d, start, fresh())
                assert top == t.highest


def test_highest_pair_step_budget(monkeypatch):
    d = y_diagram(1, 1, 1)
    t = orbit_tables(d)[0]
    low = min(t.members, key=lambda p: ht2_of_pair(d, p))
    monkeypatch.setattr(orbits, "CLIMB_STEPS", 0)
    with pytest.raises(RuntimeError):
        highest_pair(d, low)


@pytest.mark.parametrize("d", [path_diagram(4), y_diagram(1, 1, 2),
                               y_diagram(1, 2, 2)], ids=["A4", "D5", "E6"])
def test_highest_pair_returns_the_top_in_root_pair_order(d):
    """However the start is given (reversed, as lists, with a root
    negated), the climb returns the root_pair-ordered tuple of positive
    roots t.highest, also from the top itself, where it takes no step."""
    for t in orbit_tables(d):
        for a, b in (t.highest,) + t.members[:3]:
            for start in [(b, a), [list(b), list(a)],
                          (a, tuple(-x for x in b)), [[-x for x in a], list(b)]]:
                top = highest_pair(d, start)
                assert top == t.highest
                assert all(type(r) is tuple for r in top)


@pytest.mark.parametrize("p, match", [
    (((0, 0, 0, 0, 1), (2, 0, 0, 0, 0)), "not a root"),
    (((1, 0, 0, 0, 0), (1, 1, 0, 0, 0)), "not orthogonal"),
    (((Fraction(1, 2), Fraction(1, 2), 0, 0, 0), (0, 0, 0, 0, 1)),
     "not a root"),
    (((0.5, 0.5, 0, 0, 0), (0, 0, 0, 0, 1)), "not a root"),
], ids=["non-root", "non-orthogonal", "half-integer", "float"])
def test_highest_and_ht2_refuse_pairs_that_are_not_2_roots(p, match):
    d = y_diagram(1, 1, 2)
    with pytest.raises(ValueError, match=match):
        highest_pair(d, p)
    with pytest.raises(ValueError, match=match):
        ht2_of_pair(d, p)


def test_closed_form_matches_climb_for_d6():
    d = y_diagram(1, 1, 3)
    assert set(closed_form_highest(d)) == {t.highest for t in orbit_tables(d)}


@pytest.mark.parametrize("arms", sorted(
    {order for arms in [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4),
                        (1, 1, 5), (1, 2, 2), (1, 2, 3), (1, 2, 4)]
     for order in permutations(arms)}), ids=lambda arms: "Y%d%d%d" % arms)
def test_closed_forms_on_every_arm_order(arms):
    """The 28 numberings of D4-D8 and E6-E8: the closed forms, computed on
    the standard numbering and mapped back, are the tops of the tables."""
    d = y_diagram(*arms)
    assert set(closed_form_highest(d)) == {t.highest for t in orbit_tables(d)}


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_a_n_tables_follow_the_closed_forms(n):
    d = path_diagram(n)
    (t,) = orbit_tables(d)
    assert t.size == 3 * comb(n + 1, 4)
    assert t.height == (n - 2) ** 2 + 1
    assert closed_form_highest(d) == (t.highest,)
    assert [t.basis_members] == list(canonical_basis(d).summands())


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_d_n_tables_follow_the_closed_forms(n):
    d = y_diagram(1, 1, n - 3)
    tabs = orbit_tables(d)
    assert sorted((t.size, t.height) for t in tabs) == sorted(
        [(12 * comb(n, 4), 4 * n * n - 28 * n + 51), (comb(n, 2), n - 1)])
    assert set(closed_form_highest(d)) == {t.highest for t in tabs}
    assert [t.basis_members for t in tabs] == list(
        canonical_basis(d).summands())
    least = [vee_pair(t.members[0]) for t in tabs]
    assert least == sorted(least)


@pytest.mark.parametrize("n", [1, 2])
def test_paths_without_2_roots_have_no_orbits(n):
    assert orbit_tables(path_diagram(n)) == ()
    assert closed_form_highest(path_diagram(n)) == ()


def test_orbit_tables_check_the_walk_against_the_summands(monkeypatch):
    d = y_diagram(1, 1, 1)
    parts = canonical_basis(d).summands()
    merged = (tuple(sorted(parts[0] + parts[1])), parts[2])
    monkeypatch.setattr(type(canonical_basis(d)), "summands",
                        lambda self: merged)
    orbit_tables.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="meets the basis in"):
            orbit_tables(d)
    finally:
        orbit_tables.cache_clear()


def test_orbit_tables_refuse_a_coordinate_outside_the_summand(
        monkeypatch):
    """One orbit's summand cut in two: the walk from both halves meets
    members whose coordinates lie in both."""
    d = y_diagram(1, 1, 1)
    parts = canonical_basis(d).summands()
    split = (parts[0][:1], parts[0][1:]) + parts[1:]
    monkeypatch.setattr(type(canonical_basis(d)), "summands",
                        lambda self: split)
    orbit_tables.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="outside its summand"):
            orbit_tables(d)
    finally:
        orbit_tables.cache_clear()


def test_orbit_tables_refuse_a_negative_coordinate(monkeypatch):
    """One coordinate of a height-2 member turned negative: the member is
    no unit vector and the top stays unique, so only the sign check sees
    it."""
    solve = symsquare.CanonicalBasis.expand_pairs

    def negated(*args):
        c = solve(*args)
        r = np.flatnonzero(c.sum(axis=1) == 2)[0]
        c[r, np.flatnonzero(c[r])[0]] *= -1
        return c

    monkeypatch.setattr(symsquare.CanonicalBasis, "expand_pairs", negated)
    orbit_tables.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="negative coordinate"):
            orbit_tables(path_diagram(4))
    finally:
        orbit_tables.cache_clear()


def test_clear_caches_rebuilds_the_tables():
    d = y_diagram(1, 1, 2)
    tabs = orbit_tables(d)
    basis = canonical_basis(d)
    cached = [(f, f(d)) for f in (positive_roots, neighbors, simple_matrices)]
    assert orbit_tables(d) is tabs
    assert all(f(d) is value for f, value in cached)
    tworoots.clear_caches()
    again = orbit_tables(d)
    assert again is not tabs and again == tabs
    assert canonical_basis(d) is not basis
    for f, value in cached:
        assert f(d) is not value and f(d) == value


def test_clear_caches_empties_every_cache_in_the_package():
    modules = [importlib.import_module("tworoots." + m.name)
               for m in pkgutil.iter_modules(tworoots.__path__)
               if m.name != "__main__"]
    orbit_tables(y_diagram(1, 1, 2))
    cached = {f for module in modules for f in vars(module).values()
              if hasattr(f, "cache_clear")}
    assert {positive_roots, neighbors, simple_matrices, canonical_basis,
            orbit_tables} <= cached
    assert any(f.cache_info().currsize for f in cached)
    tworoots.clear_caches()
    assert all(f.cache_info().currsize == 0 for f in cached)


def test_closed_form_needs_finite_type():
    with pytest.raises(ValueError):
        closed_form_highest(y_diagram(2, 2, 2))


def test_d5_strictness_witness():
    """A 2-root below the top in coordinates but minimal for the move order."""
    d = y_diagram(1, 1, 2)
    p = (simple_root(d, 0), theta(d, 4))
    assert ht2_of_pair(d, p) == 3
    downs = [i for i in range(d.n)
             if ht2_of_pair(d, pair_action(d, [i], p)) < 3]
    assert downs == []
    assert sorted(i for i, _q in monoidal_covers(d, p)) == [1, 2, 3]


def test_cold_walk_climb_and_radical_do_not_import_numpy_ma():
    """np.unique, and np.isin on its sorting path, import numpy.ma on
    first use, 9-17 ms in a cold process (five runs, numpy 2.4.6); the
    walk, the climb, the radical, the root enumeration and the kernel
    jobs use neither."""
    code = "\n".join([
        "import sys",
        "from tworoots import forms",
        "from tworoots.diagram import y_diagram",
        "from tworoots.orbits import highest_pair, orbit_tables",
        "from tworoots.symsquare import canonical_basis",
        "d = y_diagram(1, 2, 4)",
        "(t,) = orbit_tables(d)",
        "assert highest_pair(d, t.members[0]) == t.highest",
        "basis = canonical_basis(d)",
        "mats = [basis.elements[k].matrix for k in t.basis_members]",
        "assert forms.radical_basis(forms.gram(d, mats)) == ()",
        "from tworoots.roots import positive_roots",
        "assert len(positive_roots(y_diagram(4, 4, 4), 25)) == 25684",
        "d5 = y_diagram(1, 1, 2)",
        "assert forms.kernel_orders(d5, orbit_tables(d5), 1920) == [1, 16]",
        "assert forms.kernel_intersection(d5)['intersection_order'] == 1",
        "assert 'numpy.ma' not in sys.modules",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
