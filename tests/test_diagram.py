from itertools import combinations

import pytest

from tworoots.diagram import (TypeClass, adjacent, cartan, classify,
                              component_count, h_graph, neighbors,
                              parabolic_restrict, path_diagram, weyl_order,
                              y_diagram)


def test_y_diagram_shape():
    d = y_diagram(1, 2, 3)
    assert d.n == 7
    assert d.kind == "Y"
    assert d.branch == 0
    assert repr(d) == "Y(1,2,3)"
    assert sorted(neighbors(d)[0]) == [1, 2, 4]


def test_path_diagram_shape():
    d = path_diagram(5)
    assert d.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert repr(d) == "Path(5)"


def test_bad_arms_raise():
    with pytest.raises(ValueError):
        y_diagram(0, 1, 1)
    with pytest.raises(ValueError):
        path_diagram(0)


def test_adjacent():
    d = y_diagram(1, 1, 2)
    assert adjacent(d, 0, 3)
    assert adjacent(d, 3, 4)
    assert not adjacent(d, 0, 4)
    assert not adjacent(d, 1, 1)


@pytest.mark.parametrize("i, j", [(-1, 2), (2, -1), (4, 2), (2, 4)])
def test_adjacent_refuses_a_vertex_out_of_range(i, j):
    with pytest.raises(ValueError, match="vertex out of range"):
        adjacent(path_diagram(4), i, j)


def test_cartan_a3():
    assert cartan(path_diagram(3)) == (
        (2, -1, 0),
        (-1, 2, -1),
        (0, -1, 2),
    )


def test_cartan_d4_row_sums():
    a = cartan(y_diagram(1, 1, 1))
    assert a[0] == (2, -1, -1, -1)
    assert all(a[i][i] == 2 for i in range(4))


@pytest.mark.parametrize("spec,want", [
    ((1, 1, 4), TypeClass.FINITE),
    ((1, 2, 4), TypeClass.FINITE),
    ((2, 2, 2), TypeClass.AFFINE),
    ((1, 3, 3), TypeClass.AFFINE),
    ((1, 2, 5), TypeClass.AFFINE),
    ((1, 2, 6), TypeClass.INDEFINITE),
    ((2, 2, 3), TypeClass.INDEFINITE),
    ((4, 4, 4), TypeClass.INDEFINITE),
    ((2, 1, 2), TypeClass.FINITE),
    ((3, 1, 3), TypeClass.AFFINE),
    ((5, 2, 1), TypeClass.AFFINE),
    ((2, 3, 2), TypeClass.INDEFINITE),
])
def test_classify_forks(spec, want):
    assert classify(y_diagram(*spec)) is want


def test_classify_paths_always_finite():
    for n in range(2, 10):
        assert classify(path_diagram(n)) is TypeClass.FINITE


def test_parabolic_restrict_to_path():
    d = y_diagram(1, 2, 2)
    sub, mapping = parabolic_restrict(d, [0, 1, 2, 3])
    assert repr(sub) == "Path(4)"
    assert mapping == {1: 0, 0: 1, 2: 2, 3: 3}


def test_parabolic_restrict_keeps_fork():
    d = y_diagram(2, 2, 2)
    sub, mapping = parabolic_restrict(d, [0, 1, 3, 5, 6])
    assert sub.kind == "Y"
    assert sub.n == 5
    assert mapping[0] == 0


def test_parabolic_restrict_fork_mapping():
    sub, mapping = parabolic_restrict(y_diagram(2, 2, 2), [0, 1, 3, 5, 6])
    assert sub == y_diagram(1, 1, 2)
    assert mapping == {0: 0, 1: 1, 3: 2, 5: 3, 6: 4}


@pytest.mark.parametrize("d", [path_diagram(5), y_diagram(2, 2, 3)], ids=repr)
def test_parabolic_restrict_is_a_diagram_isomorphism(d):
    """Every accepted vertex subset maps bijectively onto the vertices of
    the returned diagram, and the map carries the induced Cartan entries
    to the new diagram's."""
    accepted = 0
    for r in range(1, d.n + 1):
        for subset in combinations(range(d.n), r):
            try:
                sub, m = parabolic_restrict(d, subset)
            except ValueError:
                continue
            accepted += 1
            assert sorted(m) == list(subset)
            assert sorted(m.values()) == list(range(len(subset)))
            assert all(cartan(sub)[m[u]][m[v]] == cartan(d)[u][v]
                       for u in subset for v in subset)
    assert accepted > d.n


def test_parabolic_restrict_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        parabolic_restrict(y_diagram(1, 2, 2), [1, 4])


def test_h_graph_components_match_orbit_counts():
    # finite forks: 3 for Y(1,1,1), then 2 along the D series, 1 for E
    assert component_count(h_graph(1, 1, 1)) == 3
    for c in range(2, 6):
        assert component_count(h_graph(1, 1, c)) == 2
    for c in range(2, 5):
        assert component_count(h_graph(1, 2, c)) == 1
    assert component_count(h_graph(2, 2, 2)) == 1


def test_weyl_order():
    assert weyl_order(path_diagram(3)) == 24
    assert weyl_order(y_diagram(1, 1, 2)) == 1920
    assert weyl_order(y_diagram(1, 2, 4)) == 696729600
    with pytest.raises(ValueError):
        weyl_order(y_diagram(2, 2, 2))
