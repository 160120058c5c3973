import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    brute_all_shield_partitions,
    brute_shields,
    brute_spanning_shield_partitions,
)
from qmn.errors import EnumerationCapError, UnknownSiteError
from qmn.graphs import (
    Graph, Partition, all_shield_partitions, cliques, coarse_grain,
    is_triangle_free, spanning_shield_partitions,
    to_dot,
)


def path(n):
    return Graph.from_edges([(k, k + 1) for k in range(1, n)])


def cycle(n):
    return Graph.from_edges([(k, k % n + 1) for k in range(1, n + 1)])


def groups(p):
    return (sorted(p.a), sorted(p.b), sorted(p.c))


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


def test_spanning_partitions_of_three_chain():
    # every other spanning split of the 3-chain puts an edge directly
    # between A and C or leaves a side empty
    got = sorted(spanning_shield_partitions(path(3)), key=groups)
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
    got = sorted(spanning_shield_partitions(fig_cell()), key=groups)
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
        assert brute_shields(set(g.vertices), set(g.edges), p.a, p.b, p.c)
        assert min(p.a | p.c) in p.a


@st.composite
def small_graphs(draw, max_vertices=7):
    """Up to ``max_vertices`` vertices with arbitrary ids; any edge set, so
    isolated vertices and edgeless graphs occur."""
    n = draw(st.integers(0, max_vertices))
    vs = draw(st.lists(st.integers(0, 30), unique=True, min_size=n, max_size=n))
    pairs = list(itertools.combinations(sorted(vs), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(edges, vertices=vs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_graphs())
def test_all_shield_partitions_match_the_product_oracle(g):
    got = [(p.a, p.b, p.c) for p in all_shield_partitions(g)]
    assert got == brute_all_shield_partitions(sorted(g.vertices), set(g.edges))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_graphs())
def test_spanning_walk_is_the_spanning_part_of_the_audit_walk_in_order(g):
    spanning = [(p.a, p.b, p.c) for p in spanning_shield_partitions(g)]
    audit = [(p.a, p.b, p.c) for p in all_shield_partitions(g)
             if p.union == g.vertices]
    assert spanning == audit


@settings(max_examples=12, deadline=None, derandomize=True)
@given(small_graphs(max_vertices=8))
@example(Graph.from_edges([(k, k + 1) for k in range(1, 8)] + [(1, 5), (3, 8)]))
def test_both_walks_give_the_product_oracle_in_order_up_to_eight_vertices(g):
    want = brute_all_shield_partitions(sorted(g.vertices), set(g.edges))
    assert [(p.a, p.b, p.c) for p in all_shield_partitions(g)] == want
    assert ([(p.a, p.b, p.c) for p in spanning_shield_partitions(g)]
            == [p for p in want if p[0] | p[1] | p[2] == g.vertices])


def test_partitions_built_outside_the_walk_are_still_validated():
    with pytest.raises(UnknownSiteError):
        Partition({1}, {1, 2}, {3})
    with pytest.raises(UnknownSiteError):
        Partition({1}, {2}, set())
    walked = next(spanning_shield_partitions(path(3)))
    assert walked == Partition({1}, {2}, {3}) and hash(walked) == hash(Partition({1}, {2}, {3}))


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
    g3, m3 = coarse_grain(g, {2: 2})
    assert g3 == g and m3[2] == 2


def test_coarse_grain_is_idempotent_relabeling():
    g = cycle(6)
    q1, m1 = coarse_grain(g, {2: 1, 5: 4})
    again = {v: m1[v] for v in q1.vertices}
    q2, _ = coarse_grain(q1, again)
    assert q2 == q1


def test_to_dot_contains_vertices_and_edges():
    text = to_dot(path(3))
    assert "  1;" in text and "  3;" in text
    assert "1 -- 2;" in text and "2 -- 3;" in text
    assert text.count("--") == 2
