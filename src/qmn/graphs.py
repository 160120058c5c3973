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

    @classmethod
    def _trusted(cls, a: frozenset[int], b: frozenset[int],
                 c: frozenset[int]) -> "Partition":
        """A partition of groups the caller built valid, without
        ``__post_init__``'s conversion and checks."""
        p = object.__new__(cls)
        vars(p).update(a=a, b=b, c=c)
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


def _digit_masks(width: int, base: int, shift: int, nbr: np.ndarray) -> np.ndarray:
    """For the ``base**width`` digit strings in product order, digit j (most
    significant first) standing for vertex ``shift + j``: row g < base holds
    the bitmask of the vertices whose digit is g, and row ``base`` that of
    the neighbors of the digit-0 (A) vertices, ``nbr[k]`` being vertex
    k's."""
    masks = np.zeros((base + 1, 1), dtype=np.int64)
    if not width:
        return masks
    place = np.zeros((width, base + 1, base), dtype=np.int64)
    groups = np.arange(base)
    place[:, groups, groups] = np.int64(1) << np.arange(shift, shift + width)[:, None]
    place[:, base, 0] = nbr[shift:shift + width]
    for p in place:
        masks = (masks[:, :, None] | p[:, None, :]).reshape(base + 1, -1)
    return masks


def _neighbors(masks: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Bitmask of the vertices adjacent to each mask's vertices."""
    held = masks[:, None] >> np.arange(len(nbr), dtype=np.int64) & 1
    return np.bitwise_or.reduce(held * nbr, axis=1)


def _shield_walk(graph: Graph, base: int, cap: int) -> Iterator[Partition]:
    """Shielding partitions among the ``base**n`` assignments (0=A, 1=B,
    2=C, 3=left out) in ``itertools.product`` order over the sorted vertices;
    more than ``cap`` vertices raise ``EnumerationCapError``.

    Each group is a vertex bitmask.  The assignments are walked in chunks
    that share their leading digits: the last (at most 8) digits' masks are
    computed once, and a chunk ORs in its leading digits' masks.  A row is
    kept when it is in canonical orientation (A and C nonempty, the
    smallest A|C vertex in A) and B shields A from C: no C vertex is
    adjacent to the reach of A, which is A plus the left-out vertices joined
    to it through left-out vertices.  A spanning row's reach is A, so the
    reach fixpoint runs only where vertices are left out.  The kept rows'
    groups are valid by construction and become ``Partition``s without
    re-validation.
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
    nbr = np.zeros(n, dtype=np.int64)
    for u, v in graph.edges:
        nbr[pos[u]] |= 1 << pos[v]
        nbr[pos[v]] |= 1 << pos[u]
    width = min(n, 8)
    low = _digit_masks(width, base, n - width, nbr)
    high = _digit_masks(n - width, base, 0, nbr).tolist()
    sets = _VertexSets(vs)
    for h in range(base ** (n - width)):
        a, b, c, near = (low[g] | high[g][h] for g in (0, 1, 2, base))
        ac = a | c
        rows = ((a & ac & -ac) != 0) & (c != 0)
        a, b, c, near = a[rows], b[rows], c[rows], near[rows]
        reach = a
        if base > 3:
            out = (low[3] | high[3][h])[rows]
            wider = reach | near & out
            while (wider != reach).any():
                reach = wider
                near = _neighbors(reach, nbr)
                wider = reach | near & out
        keep = (near & c) == 0
        for ma, mb, mc in zip(a[keep].tolist(), b[keep].tolist(), c[keep].tolist()):
            yield Partition._trusted(sets[ma], sets[mb], sets[mc])


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
