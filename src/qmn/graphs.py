"""Interaction graphs, shielding partitions and coarse graining.

A partition (A, B, C) of a vertex subset *shields* A from C when every path
from an A-vertex to a C-vertex passes through B; equivalently no connected
component of the graph with B removed meets both A and C.  One chunked walk
enumerates the spanning partitions (A+B+C = all vertices) and, for an audit,
those that leave vertices out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import EnumerationCapError, UnknownSiteError

ENUMERATION_CAP = 14
ALL_ENUMERATION_CAP = 10


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; edges are stored as sorted vertex pairs."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(int(v) for v in self.vertices))
        edges = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise UnknownSiteError(f"self-loop on vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise UnknownSiteError(f"edge {e} uses unknown vertices")
            edges.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(edges))

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]],
                   vertices: Iterable[int] = ()) -> "Graph":
        edges = [(int(u), int(v)) for u, v in edges]
        vs = set(int(v) for v in vertices)
        for u, v in edges:
            vs.add(u)
            vs.add(v)
        return cls(frozenset(vs), frozenset(edges))

    def neighbors(self, v: int) -> frozenset[int]:
        if v not in self.vertices:
            raise UnknownSiteError(f"vertex {v} not in graph")
        return frozenset(b if a == v else a for a, b in self.edges if v in (a, b))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = sorted(set(vertices))
        if not self.vertices.issuperset(vs):
            return False
        # pairs of sorted vertices are stored edges as they stand
        return all(e in self.edges for e in itertools.combinations(vs, 2))


@dataclass(frozen=True)
class Partition:
    """Disjoint vertex groups (A, B, C); A and C must be nonempty."""

    a: frozenset[int]
    b: frozenset[int]
    c: frozenset[int]

    def __post_init__(self):
        a, b, c = frozenset(self.a), frozenset(self.b), frozenset(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if (a & b) or (a & c) or (b & c):
            raise UnknownSiteError("partition groups must be disjoint")
        if not a or not c:
            raise UnknownSiteError("partition sides A and C must be nonempty")

    @property
    def union(self) -> frozenset[int]:
        return self.a | self.b | self.c


def cliques(graph: Graph, max_size: int | None = None) -> list[tuple[int, ...]]:
    """All cliques (complete vertex subsets) up to ``max_size``, deterministic.

    Ordered by (size, vertex tuple).  A clique on k vertices needs minimum
    degree k-1, so sizes are implicitly capped at max degree + 1.
    """
    vs = sorted(graph.vertices)
    adj = {v: set(graph.neighbors(v)) for v in vs}
    cap = max_size if max_size is not None else (max((len(adj[v]) for v in vs), default=0) + 1)
    out: list[tuple[int, ...]] = []
    level: list[tuple[int, ...]] = [(v,) for v in vs]
    size = 1
    while level and size <= cap:
        out.extend(level)
        nxt = []
        for cl in level:
            last = cl[-1]
            common = set.intersection(*(adj[v] for v in cl)) if cl else set()
            for w in sorted(common):
                if w > last:
                    nxt.append(cl + (w,))
        level = nxt
        size += 1
    return sorted(out, key=lambda cl: (len(cl), cl))


def is_triangle_free(graph: Graph) -> bool:
    """True iff no edge's endpoints share a neighbor."""
    adj: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return not any(adj[u] & adj[v] for u, v in graph.edges)


def _partitions(vs: list[int], rows: np.ndarray) -> Iterator[Partition]:
    """Partitions of assignment rows (0=A, 1=B, 2=C, anything else: left out)."""
    for row in rows.tolist():
        groups: tuple[list[int], ...] = ([], [], [], [])
        for v, g in zip(vs, row):
            groups[g].append(v)
        yield Partition(*map(frozenset, groups[:3]))


def _canonical(digits: np.ndarray) -> np.ndarray:
    """Mask of the rows with nonempty A and C whose smallest A|C vertex
    lies in A (deduplicates the A/C swap)."""
    in_a = digits == 0
    first = np.argmax(in_a | (digits == 2), axis=1)
    return (in_a[np.arange(len(digits)), first]
            & (digits == 2).any(axis=1))


def _shield_walk(graph: Graph, base: int, cap: int) -> Iterator[Partition]:
    """Shielding partitions among the ``base**n`` assignments (0=A, 1=B,
    2=C, 3=left out) in ``itertools.product`` order over the sorted vertices,
    walked in chunks; more than ``cap`` vertices raise ``EnumerationCapError``.

    Keeps the rows in canonical orientation whose B shields A from C: no C
    vertex is adjacent to the reach of A, which is A plus the left-out
    vertices joined to it through left-out vertices.  A spanning row's reach
    is A, so the reach fixpoint runs only on chunks that leave vertices out.
    """
    vs = sorted(graph.vertices)
    n = len(vs)
    if n > cap:
        raise EnumerationCapError(
            f"shielding partition enumeration needs {base}^{n} assignments; "
            f"cap is {base}^{cap}")
    if n == 0:
        return
    pos = {v: k for k, v in enumerate(vs)}
    edge_idx = [(pos[u], pos[v]) for u, v in sorted(graph.edges)]
    eu, ev = np.array(edge_idx, dtype=np.intp).reshape(-1, 2).T
    chunk = base ** min(n, 8)
    total = base ** n
    powers = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (codes[:, None] // powers[None, :]) % base
        digits = digits[_canonical(digits)]
        reach, in_c, out = digits == 0, digits == 2, digits == 3
        grow = out.any()  # a spanning chunk's reach is its A
        while grow:
            size = int(reach.sum())
            for iu, iv in edge_idx:
                reach[:, iv] |= reach[:, iu] & out[:, iv]
                reach[:, iu] |= reach[:, iv] & out[:, iu]
            grow = int(reach.sum()) > size
        touch = (reach[:, eu] & in_c[:, ev]) | (reach[:, ev] & in_c[:, eu])
        yield from _partitions(vs, digits[~touch.any(axis=1)])


def spanning_shield_partitions(graph: Graph) -> Iterator[Partition]:
    """Stream the spanning shielding partitions in canonical orientation
    (smallest A|C vertex in A), walking 3^n assignments in product order;
    B shields exactly when no edge joins A and C.  More than
    ``ENUMERATION_CAP`` vertices raise ``EnumerationCapError``.
    """
    yield from _shield_walk(graph, 3, ENUMERATION_CAP)


def all_shield_partitions(graph: Graph) -> Iterator[Partition]:
    """Stream every shielding partition, spanning or not (audit mode),
    walking 4^n assignments in product order, so the spanning ones come in
    ``spanning_shield_partitions`` order.  More than ``ALL_ENUMERATION_CAP``
    vertices raise ``EnumerationCapError``.
    """
    yield from _shield_walk(graph, 4, ALL_ENUMERATION_CAP)


def shield_partitions(graph: Graph, mode: str = "spanning") -> list[Partition]:
    """The partitions a Markov check covers, in enumeration order.

    ``mode="spanning"`` lists the spanning shielding partitions, which
    suffice by strong subadditivity; ``mode="all"`` lists every shielding
    partition, for an audit.
    """
    if mode == "spanning":
        return list(spanning_shield_partitions(graph))
    if mode == "all":
        return list(all_shield_partitions(graph))
    raise ValueError(f"mode must be 'spanning' or 'all', got {mode!r}")


def coarse_grain(graph: Graph, merge: dict[int, int]) -> tuple[Graph, dict[int, int]]:
    """Quotient graph under a merge map, plus the full vertex map.

    ``merge`` sends merged vertices to their targets; vertices not listed map
    to themselves.  The map must be idempotent (targets are not themselves
    merged away), and each merged vertex must be adjacent to its target.
    """
    site_map = {v: v for v in graph.vertices}
    for src, dst in merge.items():
        if src not in graph.vertices or dst not in graph.vertices:
            raise UnknownSiteError(f"merge {src}->{dst} uses unknown vertices")
        site_map[src] = dst
    for src, dst in merge.items():
        if src == dst:
            continue
        if site_map[dst] != dst:
            raise UnknownSiteError(
                f"merge is not idempotent: {src}->{dst} but {dst}->{site_map[dst]}")
        if not graph.has_edge(src, dst):
            raise UnknownSiteError(f"merged vertices {src},{dst} are not adjacent")
    new_vertices = frozenset(site_map.values())
    new_edges = set()
    for u, v in graph.edges:
        mu, mv = site_map[u], site_map[v]
        if mu != mv:
            new_edges.add((min(mu, mv), max(mu, mv)))
    return Graph(new_vertices, frozenset(new_edges)), site_map


def to_dot(graph: Graph) -> str:
    """Graphviz DOT text of the graph."""
    lines = ["graph G {"]
    lines += [f"  {v};" for v in sorted(graph.vertices)]
    lines += [f"  {u} -- {v};" for u, v in sorted(graph.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"
