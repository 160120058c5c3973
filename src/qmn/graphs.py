"""Interaction graphs, shielding partitions and coarse graining.

A partition (A, B, C) of a vertex subset *shields* A from C when every path
from an A-vertex to a C-vertex passes through B; equivalently no connected
component of the graph with B removed meets both A and C.  For spanning
partitions (A+B+C = all vertices) this reduces to the absence of a direct
A-C edge, which is what the enumerator exploits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import EnumerationCapError, UnknownSiteError

ENUMERATION_CAP = 14


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
        if any(v not in self.vertices for v in vs):
            return False
        return all(self.has_edge(u, v) for u, v in itertools.combinations(vs, 2))

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        keep = frozenset(keep)
        return Graph(keep, frozenset(e for e in self.edges if e[0] in keep and e[1] in keep))

    def components(self) -> list[frozenset[int]]:
        """Connected components, each sorted, in order of smallest member."""
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen: set[int] = set()
        out = []
        for v in sorted(self.vertices):
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            out.append(frozenset(comp))
        return out


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

    def oriented(self) -> "Partition":
        """Canonical orientation: the side holding the smallest A|C vertex is A."""
        if min(self.a | self.c) in self.a:
            return self
        return Partition(self.c, self.b, self.a)

    def sort_key(self) -> tuple:
        return (sorted(self.a), sorted(self.b), sorted(self.c))


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
    for u, v in graph.edges:
        if graph.neighbors(u) & graph.neighbors(v):
            return False
    return True


def shields(graph: Graph, p: Partition) -> bool:
    """True iff B blocks every A-to-C path (component check on graph minus B)."""
    for group in (p.a, p.b, p.c):
        for v in group:
            if v not in graph.vertices:
                raise UnknownSiteError(f"partition vertex {v} not in graph")
    rest = graph.subgraph(graph.vertices - p.b)
    for comp in rest.components():
        if comp & p.a and comp & p.c:
            return False
    return True


def spanning_shield_partitions(graph: Graph, cap: int = ENUMERATION_CAP) -> Iterator[Partition]:
    """Stream all spanning shielding partitions in canonical orientation.

    Enumerates the 3^n assignments in base-3 counting order (vertices sorted,
    first vertex least significant); keeps assignments with nonempty A and C,
    no direct A-C edge (equivalent to shielding for spanning partitions), and
    the smallest A|C vertex in A (deduplicates the A/C swap).
    """
    vs = sorted(graph.vertices)
    n = len(vs)
    if n > cap:
        raise EnumerationCapError(
            f"spanning partition enumeration needs 3^{n} assignments; cap is 3^{cap}")
    if n == 0:
        return
    pos = {v: k for k, v in enumerate(vs)}
    edge_idx = [(pos[u], pos[v]) for u, v in sorted(graph.edges)]
    chunk = 3 ** min(n, 9)
    total = 3 ** n
    powers = 3 ** np.arange(n, dtype=np.int64)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (codes[:, None] // powers[None, :]) % 3  # (m, n) in {0=A,1=B,2=C}
        ok = np.ones(len(codes), dtype=bool)
        ok &= (digits == 0).any(axis=1)
        ok &= (digits == 2).any(axis=1)
        for iu, iv in edge_idx:
            ok &= ~((digits[:, iu] == 0) & (digits[:, iv] == 2))
            ok &= ~((digits[:, iu] == 2) & (digits[:, iv] == 0))
        # canonical orientation: smallest vertex not assigned to B lies in A
        non_b = digits != 1
        first = np.argmax(non_b, axis=1)
        ok &= digits[np.arange(len(codes)), first] == 0
        for row in digits[ok]:
            a = frozenset(vs[k] for k in range(n) if row[k] == 0)
            b = frozenset(vs[k] for k in range(n) if row[k] == 1)
            c = frozenset(vs[k] for k in range(n) if row[k] == 2)
            yield Partition(a, b, c)


def all_shield_partitions(graph: Graph, cap: int = 10) -> Iterator[Partition]:
    """Stream all shielding partitions, spanning or not (audit mode).

    Enumerates 4^n assignments (the fourth value leaves a vertex out) and
    applies the general component-based shielding check.
    """
    vs = sorted(graph.vertices)
    n = len(vs)
    if n > cap:
        raise EnumerationCapError(
            f"full partition enumeration needs 4^{n} assignments; cap is 4^{cap}")
    for assign in itertools.product((0, 1, 2, 3), repeat=n):
        a = frozenset(v for v, k in zip(vs, assign) if k == 0)
        c = frozenset(v for v, k in zip(vs, assign) if k == 2)
        if not a or not c or min(a | c) not in a:
            continue
        b = frozenset(v for v, k in zip(vs, assign) if k == 1)
        p = Partition(a, b, c)
        if shields(graph, p):
            yield p


def coarse_grain(graph: Graph, merge: dict[int, int],
                 require_adjacent: bool = True) -> tuple[Graph, dict[int, int]]:
    """Quotient graph under a merge map, plus the full vertex map.

    ``merge`` sends merged vertices to their targets; vertices not listed map
    to themselves.  The map must be idempotent (targets are not themselves
    merged away) and, unless ``require_adjacent=False``, each merged vertex
    must be adjacent to its target.
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
        if require_adjacent and not graph.has_edge(src, dst):
            raise UnknownSiteError(f"merged vertices {src},{dst} are not adjacent")
    new_vertices = frozenset(site_map.values())
    new_edges = set()
    for u, v in graph.edges:
        mu, mv = site_map[u], site_map[v]
        if mu != mv:
            new_edges.add((min(mu, mv), max(mu, mv)))
    return Graph(new_vertices, frozenset(new_edges)), site_map


def to_dot(graph: Graph, partition: Partition | None = None) -> str:
    """Graphviz DOT text; partition groups get fill colors A=green, B=gray, C=blue."""
    lines = ["graph G {"]
    colors = {}
    if partition is not None:
        for v in partition.a:
            colors[v] = "palegreen"
        for v in partition.b:
            colors[v] = "lightgray"
        for v in partition.c:
            colors[v] = "lightblue"
    for v in sorted(graph.vertices):
        if v in colors:
            lines.append(f'  {v} [style=filled, fillcolor={colors[v]}];')
        else:
            lines.append(f"  {v};")
    for u, v in sorted(graph.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
