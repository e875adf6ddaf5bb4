import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from tworoots.diagram import path_diagram, y_diagram
from tworoots.roots import (_packed_keys, bform, closure, delta,
                            elementary_roots, epsilon_coords, eta, height,
                            is_positive, is_root, negate, paper_labels,
                            positive_roots, reflect, root_from_labels,
                            simple_reflect, simple_root, theta)


def test_simple_root_and_height():
    d = path_diagram(4)
    assert simple_root(d, 2) == (0, 0, 1, 0)
    assert height((1, 2, 0, 1)) == 4


def test_bform_values():
    d = path_diagram(3)
    assert bform(d, (1, 0, 0), (1, 0, 0)) == 2
    assert bform(d, (1, 0, 0), (0, 1, 0)) == -1
    assert bform(d, (1, 0, 0), (0, 0, 1)) == 0
    assert bform(d, (1, 1, 0), (0, 1, 1)) == 0


def test_reflect_involution():
    d = y_diagram(1, 1, 2)
    r = (1, 1, 1, 1, 0)
    a = (0, 0, 0, 1, 1)
    assert reflect(d, a, reflect(d, a, r)) == r


def test_simple_reflect_matches_reflect():
    d = y_diagram(1, 2, 2)
    r = (1, 1, 1, 1, 1, 0)
    for i in range(d.n):
        assert simple_reflect(d, i, r) == reflect(d, simple_root(d, i), r)


@pytest.mark.parametrize("i", [-1, 4])
def test_simple_reflect_refuses_a_vertex_out_of_range(i):
    with pytest.raises(ValueError, match="vertex out of range"):
        simple_reflect(path_diagram(4), i, (0, 0, 1, 1))


@pytest.mark.parametrize("n,count", [(2, 3), (3, 6), (4, 10), (5, 15)])
def test_type_a_root_counts(n, count):
    assert len(positive_roots(path_diagram(n))) == count


@pytest.mark.parametrize("spec,count", [
    ((1, 1, 1), 12), ((1, 1, 2), 20), ((1, 2, 2), 36),
    ((1, 2, 3), 63), ((1, 2, 4), 120),
])
def test_fork_root_counts(spec, count):
    assert len(positive_roots(y_diagram(*spec))) == count


def test_infinite_needs_bound():
    d = y_diagram(2, 2, 2)
    with pytest.raises(ValueError):
        positive_roots(d)
    assert len(positive_roots(d, height_bound=3)) == 19


def test_affine_walk_matches_the_closed_form_in_both_widths():
    """Affine E6, Y(2,2,2), on each side of the height where the walk's
    layers leave int16 (2 h <= 2**15 - 1): its positive roots are alpha
    with alpha a positive root of E6, and alpha + k delta for k >= 1 and
    alpha any root of E6, delta of height 12.  E6 is Y(2,2,2) without
    vertex 6, and its roots are its nonzero vectors of norm 2, found here
    by brute force over entries 0..3."""
    d, e6 = y_diagram(2, 2, 2), y_diagram(2, 2, 1)
    dl = delta(d)
    assert height(dl) == 12
    pos = [v + (0,) for v in itertools.product(range(4), repeat=6)
           if any(v) and bform(e6, v, v) == 2]
    assert len(pos) == 36
    lower, upper = 16383, 16390  # every layer int16; layers past 16383 not
    closed = set(pos)
    for k in range(1, upper // 12 + 2):
        for a in pos:
            for sign in (1, -1):
                closed.add(tuple(sign * x + k * y for x, y in zip(a, dl)))
    walks = {}
    for bound in (lower, upper):
        walks[bound] = positive_roots(d, bound)
        assert list(walks[bound]) == sorted(
            (r for r in closed if height(r) <= bound),
            key=lambda r: (height(r), r))
    assert len(walks[upper]) > len(walks[lower])
    assert walks[upper][:len(walks[lower])] == walks[lower]


def test_is_root():
    d = path_diagram(3)
    assert is_root(d, (1, 1, 0))
    assert is_root(d, (0, -1, 0))
    assert not is_root(d, (1, 0, 1))
    assert not is_root(d, (0, 0, 0))


def test_is_root_refuses_non_integer_entries():
    d = path_diagram(3)
    for v in [(Fraction(1, 2), Fraction(1, 2), 0), (0.5, 0.5, 0),
              (-0.5, -0.5, 0), (1.5, 0, -0.5), (float("nan"), 1, 0),
              (float("inf"), 0, 0)]:
        assert not is_root(d, v), v
    # integral values of other types are still roots
    assert is_root(d, (Fraction(1), Fraction(1), 0))
    assert is_root(d, (0.0, 1.0, 1.0))
    assert is_root(d, np.array([1, 1, 1]))


@pytest.mark.parametrize("arms, bound", [
    ((2, 2, 3), 24), ((1, 2, 6), 24), ((1, 2, 4), None), ((1, 1, 4), None),
    (None, None), ((2, 2, 2), 20)])
def test_is_root_by_descent_matches_enumeration(arms, bound):
    d = path_diagram(5) if arms is None else y_diagram(*arms)
    roots = positive_roots(d, bound)
    rset = set(roots)
    top = bound or max(map(height, roots))
    rng = random.Random(sum(arms or (5,)))
    for _ in range(3000):
        v = list(rng.choice(roots))
        for _ in range(rng.randint(0, 2)):
            v[rng.randrange(d.n)] += rng.choice([-1, 1])
        if rng.random() < 0.3:
            v = [rng.randint(-2, 3) for _ in range(d.n)]
        v = tuple(v) if rng.random() < 0.5 else negate(v)
        want = tuple(v) in rset or negate(v) in rset
        if abs(height(v)) <= top:
            assert is_root(d, v) == want, v
        cut = rng.randint(1, top)
        assert is_root(d, v, cut) == (want and abs(height(v)) <= cut), v


def test_is_root_answers_without_a_bound_on_infinite_types():
    d = y_diagram(2, 2, 2)
    # simple reflections of alpha_0, far past any enumerated height
    v = simple_root(d, 0)
    for _ in range(40):
        for i in range(d.n):
            v = simple_reflect(d, i, v)
    v = v if is_positive(v) else negate(v)
    assert height(v) > 200 and is_root(d, v)
    assert not is_root(d, tuple(x + (i == 0) for i, x in enumerate(v)))
    assert not is_root(d, (1, 1))


def test_roots_sorted_by_height():
    rs = positive_roots(y_diagram(1, 1, 1))
    hs = [height(r) for r in rs]
    assert hs == sorted(hs)
    assert rs[-1] == (2, 1, 1, 1)


@pytest.mark.parametrize("d,bound", [
    (y_diagram(2, 2, 2), 12), (y_diagram(2, 2, 3), 30),
    (y_diagram(3, 3, 3), 20), (y_diagram(1, 2, 6), 40),
    (y_diagram(1, 2, 4), 7), (y_diagram(1, 2, 5), 40),
    (y_diagram(4, 4, 4), 12), (y_diagram(1, 1, 29), None),
], ids=["Y222", "Y223", "Y333", "Y126", "E8", "Y125", "Y444", "D32"])
def test_tree_walk_equals_the_reflection_closure(d, bound):
    walk = closure((simple_root(d, i) for i in range(d.n)),
                   lambda r: (simple_reflect(d, i, r) for i in range(d.n)),
                   prune=lambda r: not is_positive(r) or (
                       bound is not None and height(r) > bound))
    rs = positive_roots(d, bound)
    assert rs == tuple(sorted(walk, key=lambda r: (height(r), r)))
    assert len(set(rs)) == len(rs)
    assert all(type(x) is int for r in rs for x in r)


@pytest.mark.parametrize("top, width", [(1, 70), (2, 47), (2 ** 20, 14),
                                        (2 ** 62, 10)])
def test_packed_keys_sort_rows_lexicographically(top, width):
    """Rows that share their leading columns and differ in the last 8,
    past the first word: a word holds 63 fields of 1 bit, 31 of 2 bits,
    3 of 21 bits and 1 of 63 bits."""
    rng = np.random.default_rng(11)
    rows = rng.integers(0, top, size=(300, width), endpoint=True)
    rows[:, :-8] = rows[:3, :-8][rng.integers(0, 3, size=len(rows))]
    rows[0, 0] = top
    want = rows[np.lexsort(rows.T[::-1])]
    assert (rows[np.lexsort(_packed_keys(rows)[::-1])] == want).all()


def test_y444_roots_to_height_25():
    rs = positive_roots(y_diagram(4, 4, 4), 25)
    assert len(rs) == 25684
    assert list(rs) == sorted(rs, key=lambda r: (height(r), r))


def test_tree_walk_takes_steps_of_more_than_one_height():
    # The parent of a root r is s_i r for the least i with B(r, alpha_i) > 0;
    # in indefinite types that step can lower the height by 2 or more.
    d = y_diagram(2, 2, 3)
    steps = []
    for r in positive_roots(d, 30)[d.n:]:
        c = next(c for c in (bform(d, r, simple_root(d, i))
                             for i in range(d.n)) if c > 0)
        steps.append(c)
    assert max(steps) >= 2


def test_eta_is_three_vertex_sum():
    d = path_diagram(5)
    assert eta(d, 1, 3) == (0, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        eta(d, 0, 3)


def test_theta_orthogonal_to_its_vertex():
    d = y_diagram(1, 1, 3)
    for i in range(3, d.n):
        t = theta(d, i)
        assert bform(d, t, t) == 2
        assert bform(d, t, simple_root(d, i)) == 0


def test_theta_on_every_arm_vertex_of_y234():
    d = y_diagram(2, 3, 4)
    assert [theta(d, i) for i in range(1, d.n)] == [
        (2, 1, 0, 1, 0, 0, 1, 0, 0, 0),
        (2, 2, 1, 1, 0, 0, 1, 0, 0, 0),
        (2, 1, 0, 1, 0, 0, 1, 0, 0, 0),
        (2, 1, 0, 2, 1, 0, 1, 0, 0, 0),
        (2, 1, 0, 2, 2, 1, 1, 0, 0, 0),
        (2, 1, 0, 1, 0, 0, 1, 0, 0, 0),
        (2, 1, 0, 1, 0, 0, 2, 1, 0, 0),
        (2, 1, 0, 1, 0, 0, 2, 2, 1, 0),
        (2, 1, 0, 1, 0, 0, 2, 2, 2, 1),
    ]


def test_elementary_counts():
    d = y_diagram(1, 2, 2)
    for i in range(d.n):
        assert len(elementary_roots(d, i)) == d.n - 1
    p = path_diagram(5)
    for i in range(p.n):
        assert len(elementary_roots(p, i)) == p.n - 2


def test_delta_affine_only():
    assert delta(y_diagram(2, 2, 2)) == (3, 2, 1, 2, 1, 2, 1)
    with pytest.raises(ValueError):
        delta(y_diagram(1, 1, 1))


def test_delta_is_null():
    for spec in [(2, 2, 2), (1, 3, 3), (1, 2, 5)]:
        d = y_diagram(*spec)
        dv = delta(d)
        assert all(bform(d, dv, simple_root(d, i)) == 0 for i in range(d.n))


def test_paper_labels_d_convention():
    d = y_diagram(1, 1, 2)  # five vertices
    labels = paper_labels(d, "d")
    assert labels == {0: "3", 1: "4", 2: "5", 3: "2", 4: "1"}
    r = root_from_labels(d, "d", {"1": 1, "2": 1, "3": 1})
    assert r == (1, 0, 0, 1, 1)


def test_paper_labels_e_convention():
    d = y_diagram(1, 2, 2)
    labels = paper_labels(d, "e")
    assert labels[1] == "x"
    assert labels[0] == "3"
    with pytest.raises(ValueError):
        paper_labels(d, "d")


def test_epsilon_coords_path():
    d = path_diagram(3)
    e = epsilon_coords(d, (1, 1, 0))
    assert (e.sign, e.i, e.j) == ("-", 1, 3)
    assert str(e) == "(e1-e3)"


def test_epsilon_coords_fork():
    d = y_diagram(1, 1, 1)
    e = epsilon_coords(d, (2, 1, 1, 1))
    assert e.sign == "+"
    with pytest.raises(ValueError):
        epsilon_coords(y_diagram(1, 2, 2), (1, 0, 0, 0, 0, 0))


def test_negate():
    assert negate((1, -2, 0)) == (-1, 2, 0)
