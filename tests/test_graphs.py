import itertools

import numpy as np
import pytest

from helpers import brute_shields, brute_spanning_shield_partitions
from qmn.errors import EnumerationCapError, UnknownSiteError
from qmn.graphs import (
    Graph, Partition, all_shield_partitions, cliques, coarse_grain,
    is_triangle_free, shields, spanning_shield_partitions,
    to_dot,
)


def path(n):
    return Graph.from_edges([(k, k + 1) for k in range(1, n)])


def cycle(n):
    return Graph.from_edges([(k, k % n + 1) for k in range(1, n + 1)])


def fig_cell():
    """4-cycle 1-2-3-4 plus center 5 adjacent to all corners."""
    return Graph.from_edges(
        [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)])


def random_graph(rng, n, p):
    edges = [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < p]
    return Graph.from_edges(edges, vertices=range(1, n + 1))


def test_graph_normalizes_edges():
    g = Graph.from_edges([(2, 1), (3, 2)])
    assert g.edges == frozenset({(1, 2), (2, 3)})
    assert g.neighbors(2) == frozenset({1, 3})
    with pytest.raises(UnknownSiteError):
        Graph(frozenset({1}), frozenset({(1, 1)}))
    with pytest.raises(UnknownSiteError):
        Graph(frozenset({1}), frozenset({(1, 2)}))


def test_cliques_path_and_triangle():
    g = path(3)
    assert cliques(g) == [(1,), (2,), (3,), (1, 2), (2, 3)]
    tri = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    assert cliques(tri) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert cliques(tri, max_size=2) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]


def test_cliques_of_counterexample_cell():
    got = cliques(fig_cell())
    triangles = [cl for cl in got if len(cl) == 3]
    assert triangles == [(1, 2, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    assert len([cl for cl in got if len(cl) == 2]) == 8
    assert len([cl for cl in got if len(cl) == 1]) == 5
    assert not [cl for cl in got if len(cl) >= 4]


def test_triangle_free():
    assert is_triangle_free(path(5))
    assert is_triangle_free(cycle(4))
    assert not is_triangle_free(cycle(3))
    assert not is_triangle_free(fig_cell())
    star = Graph.from_edges([(1, 2), (1, 3), (1, 4)])
    assert is_triangle_free(star)


def test_shields_basic_cases():
    g = path(3)
    assert shields(g, Partition({1}, {2}, {3}))
    assert not shields(g, Partition({1}, set(), {2}))  # direct edge
    g5 = path(5)
    assert shields(g5, Partition({1}, {2}, {4}))  # 3 is outside but behind B
    assert not shields(g5, Partition({1}, {3}, {2}))
    assert shields(g5, Partition({1, 2}, {3}, {4, 5}))


def test_shields_matches_brute_oracle_on_random_graphs():
    rng = np.random.default_rng(53)
    for trial in range(20):
        n = int(rng.integers(3, 7))
        g = random_graph(rng, n, 0.4)
        vs = sorted(g.vertices)
        edges = set(g.edges)
        for _ in range(20):
            labels = rng.integers(0, 4, size=n)  # 3 = unassigned
            a = {v for v, k in zip(vs, labels) if k == 0}
            b = {v for v, k in zip(vs, labels) if k == 1}
            c = {v for v, k in zip(vs, labels) if k == 2}
            if not a or not c:
                continue
            got = shields(g, Partition(a, b, c))
            assert got == brute_shields(set(vs), edges, a, b, c)


def test_spanning_partitions_of_three_chain():
    # every other spanning split of the 3-chain puts an edge directly
    # between A and C or leaves a side empty
    got = sorted(spanning_shield_partitions(path(3)), key=Partition.sort_key)
    assert [(sorted(p.a), sorted(p.b), sorted(p.c)) for p in got] == [
        ([1], [2], [3]),
    ]


def test_spanning_partitions_match_brute_force():
    rng = np.random.default_rng(59)
    for trial in range(12):
        n = int(rng.integers(3, 8))
        g = random_graph(rng, n, 0.35)
        got = sorted(((frozenset(p.a), frozenset(p.b), frozenset(p.c))
                      for p in spanning_shield_partitions(g)),
                     key=lambda p: (sorted(p[0]), sorted(p[1])))
        want = brute_spanning_shield_partitions(sorted(g.vertices), set(g.edges))
        assert got == want, (trial, sorted(g.edges))


def test_spanning_partitions_of_counterexample_cell():
    got = sorted(spanning_shield_partitions(fig_cell()), key=Partition.sort_key)
    assert [(sorted(p.a), sorted(p.b), sorted(p.c)) for p in got] == [
        ([1], [2, 4, 5], [3]),
        ([2], [1, 3, 5], [4]),
    ]


def test_spanning_partitions_complete_graph_empty():
    k4 = Graph.from_edges([(u, v) for u, v in itertools.combinations(range(1, 5), 2)])
    assert list(spanning_shield_partitions(k4)) == []


def test_enumeration_cap():
    g = Graph(frozenset(range(1, 16)), frozenset())
    with pytest.raises(EnumerationCapError):
        list(spanning_shield_partitions(g))
    with pytest.raises(EnumerationCapError):
        list(all_shield_partitions(g))


def test_all_shield_partitions_includes_non_spanning():
    g = path(4)
    ps = list(all_shield_partitions(g))
    keys = {(tuple(sorted(p.a)), tuple(sorted(p.b)), tuple(sorted(p.c))) for p in ps}
    assert ((1,), (2,), (3,)) in keys  # leaves vertex 4 out
    assert ((1,), (2,), (4,)) in keys
    for p in ps:
        assert shields(g, p)
        assert min(p.a | p.c) in p.a


def test_coarse_grain_cell_merge():
    g, site_map = coarse_grain(fig_cell(), {5: 1})
    assert g.vertices == frozenset({1, 2, 3, 4})
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)})
    assert site_map == {1: 1, 2: 2, 3: 3, 4: 4, 5: 1}


def test_coarse_grain_validation():
    g = path(4)
    with pytest.raises(UnknownSiteError):
        coarse_grain(g, {1: 3})  # not adjacent
    with pytest.raises(UnknownSiteError):
        coarse_grain(g, {1: 2, 2: 3})  # chain, not idempotent
    g2, _ = coarse_grain(g, {1: 3}, require_adjacent=False)
    assert g2.vertices == frozenset({2, 3, 4})
    g3, m3 = coarse_grain(g, {2: 2})
    assert g3 == g and m3[2] == 2


def test_coarse_grain_is_idempotent_relabeling():
    g = cycle(6)
    q1, m1 = coarse_grain(g, {2: 1, 5: 4})
    again = {v: m1[v] for v in q1.vertices}
    q2, _ = coarse_grain(q1, again)
    assert q2 == q1


def test_to_dot_contains_vertices_edges_and_colors():
    g = path(3)
    text = to_dot(g, Partition({1}, {2}, {3}))
    assert "1 -- 2;" in text and "2 -- 3;" in text
    assert "palegreen" in text and "lightgray" in text and "lightblue" in text
    assert to_dot(g).count("--") == 2
