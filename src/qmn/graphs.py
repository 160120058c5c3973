"""Interaction graphs, shielding partitions and coarse graining.

A partition (A, B, C) of a vertex subset *shields* A from C when every path
from an A-vertex to a C-vertex passes through B; equivalently no connected
component of the graph with B removed meets both A and C.  One pruned
depth-first walk enumerates the spanning partitions (A+B+C = all vertices)
and, for an audit, those that leave vertices out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

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

    @classmethod
    def _trusted(cls, a: frozenset[int], b: frozenset[int],
                 c: frozenset[int]) -> "Partition":
        """A partition of groups the caller built valid, without
        ``__post_init__``'s conversion and checks."""
        p = object.__new__(cls)
        groups = p.__dict__
        groups["a"], groups["b"], groups["c"] = a, b, c
        return p

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


class _VertexSets(dict):
    """Vertex bitmask (bit k for the k-th smallest vertex) -> frozenset of
    those vertices, each built once per walk."""

    def __init__(self, vs: list[int]):
        super().__init__()
        self.vs = vs

    def __missing__(self, mask: int) -> frozenset[int]:
        group = self[mask] = frozenset(v for k, v in enumerate(self.vs) if mask >> k & 1)
        return group


def _shield_walk(graph: Graph, base: int, cap: int) -> Iterator[Partition]:
    """Shielding partitions among the ``base**n`` assignments (0=A, 1=B,
    2=C, 3=left out) in ``itertools.product`` order over the sorted vertices;
    more than ``cap`` vertices raise ``EnumerationCapError``.

    A depth-first walk over vertex bitmasks extends a prefix only while it
    can still shield.  The reach of A (of C) is the group plus the left-out
    vertices joined to it through left-out vertices, and B shields exactly
    when no vertex of A's reach is next to C's.  A prefix keeps the
    vertices next to each reach; they only grow.  A vertex joins A only if
    it is not next to C's reach, and C only if A is nonempty (the canonical
    orientation: smallest A|C vertex in A) and it is not next to A's reach.
    A left-out vertex joins the reach it is next to, and one next to both is
    pruned.  While C is empty and A is not, a prefix whose remaining
    vertices are all next to A's reach is dropped.  Children pop in product
    order, and the leaves become ``Partition``s without re-validation.
    """
    vs = sorted(graph.vertices)
    n = len(vs)
    if n > cap:
        raise EnumerationCapError(
            f"shielding partition enumeration needs {base}^{n} assignments; "
            f"cap is {base}^{cap}")
    pos = {v: k for k, v in enumerate(vs)}
    nbr = [0] * n
    for u, v in graph.edges:
        nbr[pos[u]] |= 1 << pos[v]
        nbr[pos[v]] |= 1 << pos[u]

    def widen(near: int, loose: int) -> int:
        """``near`` plus the neighbors of the loose (left-out, in no reach)
        vertices it meets, until it meets no more."""
        while hit := near & loose:
            loose ^= hit
            for j in range(n):
                if hit >> j & 1:
                    near |= nbr[j]
        return near

    full = (1 << n) - 1
    sets = _VertexSets(vs)
    trusted = Partition._trusted
    # next vertex, A, C, left-out vertices, vertices next to A's and C's reach
    stack = [(0, 0, 0, 0, 0, 0)] if n else []
    while stack:
        k, a, c, out, near_a, near_c = stack.pop()
        if a and not c and not full >> k << k & ~near_a:
            continue
        bit = 1 << k
        if k == n - 1:  # the children are leaves, which need no reach
            b = full ^ a ^ c ^ out ^ bit
            if c and not bit & near_c:
                yield trusted(sets[a | bit], sets[b], sets[c])
            if c:
                yield trusted(sets[a], sets[b | bit], sets[c])
            if a and not bit & near_a:
                yield trusted(sets[a], sets[b], sets[c | bit])
            if base > 3 and c and not (bit & near_a and bit & near_c):
                yield trusted(sets[a], sets[b], sets[c])
            continue
        nb, loose = nbr[k], out & ~(near_a | near_c)
        if base > 3 and not (bit & near_a and bit & near_c):
            stack.append((k + 1, a, c, out | bit,
                          widen(near_a | nb, loose) if bit & near_a else near_a,
                          widen(near_c | nb, loose) if bit & near_c else near_c))
        if a and not bit & near_a:
            stack.append((k + 1, a, c | bit, out, near_a, widen(near_c | nb, loose)))
        stack.append((k + 1, a, c, out, near_a, near_c))
        if not bit & near_c:
            stack.append((k + 1, a | bit, c, out, widen(near_a | nb, loose), near_c))


def spanning_shield_partitions(graph: Graph) -> Iterator[Partition]:
    """Stream the spanning shielding partitions in canonical orientation
    (smallest A|C vertex in A), in the product order of the 3^n
    assignments, extending only the prefixes that can still shield; B
    shields exactly when no edge joins A and C.  More than
    ``ENUMERATION_CAP`` vertices raise ``EnumerationCapError``.
    """
    yield from _shield_walk(graph, 3, ENUMERATION_CAP)


def all_shield_partitions(graph: Graph) -> Iterator[Partition]:
    """Stream every shielding partition, spanning or not (audit mode), in
    the product order of the 4^n assignments, extending only the prefixes
    that can still shield, so the spanning ones come in
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
