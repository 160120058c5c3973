"""Built-in model families for the demos, the generate command and tests.

Covers the five-qubit counterexample cell and its lattice tilings, simple
chains, randomized locally commuting ensembles
(diagonal clique terms conjugated by a product unitary), and commuting
models on triangle-free graphs with composite sites whose decompositions
exercise every branch of the star split.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, cliques
from .markov import ModelInstance
from .pauli import PauliSum, PauliTerm
from .tensor import SiteSpace, SupportedOperator, kron

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


def _pw(coeff: float, letters: dict[int, str]) -> PauliTerm:
    return PauliTerm.from_letters(coeff, letters)


def cell_model(beta: float = 1.0) -> ModelInstance:
    """Four triangle terms around a center qubit.

    Sites 1..4 form a cycle, site 5 the center; the terms pairwise fail to
    commute yet split into commuting halves across both spanning shielding
    partitions, so the Gibbs state is a Markov network while no local
    commuting regrouping exists on this graph.
    """
    graph = Graph.from_edges(
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 5), (3, 5), (4, 5)])
    terms = (_pw(1.0, {1: "Z", 2: "Z", 5: "Y"}),
             _pw(1.0, {2: "Z", 3: "Z", 5: "X"}),
             _pw(1.0, {3: "Z", 4: "Z", 5: "Y"}),
             _pw(1.0, {4: "Z", 1: "Z", 5: "X"}))
    return ModelInstance(SiteSpace.qubits(5), graph, terms, beta=beta)


def noncommuting_chain(beta: float = 1.0) -> ModelInstance:
    """X1X2 + Z2Z3 on a three-site chain; its Gibbs state is not Markov."""
    graph = Graph.from_edges([(1, 2), (2, 3)])
    terms = (_pw(1.0, {1: "X", 2: "X"}), _pw(1.0, {2: "Z", 3: "Z"}))
    return ModelInstance(SiteSpace.qubits(3), graph, terms, beta=beta)


def ising_chain(n: int, coupling: float = 1.0, field: float = 0.5,
                beta: float = 1.0) -> ModelInstance:
    """ZZ chain with longitudinal fields; locally commuting by construction."""
    if n < 2:
        raise ValueError("chain needs at least two sites")
    graph = Graph.from_edges([(i, i + 1) for i in range(1, n)])
    terms = tuple(_pw(coupling, {i: "Z", i + 1: "Z"}) for i in range(1, n))
    if field:
        terms = terms + tuple(_pw(field, {i: "Z"}) for i in range(1, n + 1))
    return ModelInstance(SiteSpace.qubits(n), graph, terms, beta=beta)


# ---------------------------------------------------------------------------
# lattice tilings of the cell

def _corner(r: int, c: int, cols: int) -> int:
    return r * (cols + 1) + c + 1


def tiling_model(rows: int, cols: int, beta: float = 1.0,
                 merged: bool = False) -> ModelInstance:
    """A rows x cols lattice of cells sharing corner qubits.

    With ``merged=True`` every center is folded into its northeast corner
    (one four-dimensional site per cell) and the four cell terms regroup
    into the two pairs that commute exactly, making the whole lattice model
    locally commuting at the symbolic level.
    """
    if rows < 1 or cols < 1:
        raise ValueError("tiling needs at least one cell")
    if merged:
        return _merged_tiling(rows, cols, beta)
    base = (rows + 1) * (cols + 1)
    edges: set[tuple[int, int]] = set()
    quads = []
    for i in range(rows):
        for j in range(cols):
            nw, ne = _corner(i, j, cols), _corner(i, j + 1, cols)
            sw, se = _corner(i + 1, j, cols), _corner(i + 1, j + 1, cols)
            c = base + i * cols + j + 1
            for u, v in ((nw, ne), (ne, se), (se, sw), (sw, nw),
                         (nw, c), (ne, c), (se, c), (sw, c)):
                edges.add((min(u, v), max(u, v)))
            quads.append((_pw(1.0, {nw: "Z", ne: "Z", c: "Y"}),
                          _pw(1.0, {ne: "Z", se: "Z", c: "X"}),
                          _pw(1.0, {se: "Z", sw: "Z", c: "Y"}),
                          _pw(1.0, {sw: "Z", nw: "Z", c: "X"})))
    graph = Graph.from_edges(sorted(edges))
    space = SiteSpace.qubits(base + rows * cols)
    terms = tuple(t for quad in quads for t in quad)
    return ModelInstance(space, graph, terms, beta=beta)


def _merged_tiling(rows: int, cols: int, beta: float) -> ModelInstance:
    """The northeast-merged tiling, built on the quotient graph.

    Folding a cell's center c into its northeast corner turns c's edges
    into the cell's southwest-northeast diagonal, so each cell brings its
    four sides and that diagonal.  Its two grouped terms are written as
    (x, z) masks: Z_nw Z_ne Y_c + Z_sw Z_nw X_c and Z_ne Z_se X_c + Z_se
    Z_sw Y_c.
    """
    base = (rows + 1) * (cols + 1)
    comp = {v: (v,) for v in range(1, base + 1)}
    edges = set()
    terms = []
    for i in range(rows):
        for j in range(cols):
            nw, ne = _corner(i, j, cols), _corner(i, j + 1, cols)
            sw, se = _corner(i + 1, j, cols), _corner(i + 1, j + 1, cols)
            c = base + i * cols + j + 1
            comp[ne] = (ne, c)
            edges.update(((nw, ne), (ne, se), (sw, se), (nw, sw), (ne, sw)))
            x = 1 << c
            terms.append(PauliSum.of(PauliTerm(1.0, x, 1 << nw | 1 << ne | x),
                                     PauliTerm(1.0, x, 1 << sw | 1 << nw)))
            terms.append(PauliSum.of(PauliTerm(1.0, x, 1 << ne | 1 << se),
                                     PauliTerm(1.0, x, 1 << se | 1 << sw | x)))
    space = SiteSpace.from_dims({s: 2 ** len(q) for s, q in comp.items()})
    return ModelInstance(space, Graph(frozenset(comp), frozenset(edges)), tuple(terms),
                         beta=beta, site_composition=comp)


# ---------------------------------------------------------------------------
# randomized ensembles

def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Gaussian matrix."""
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_commuting_model(rng: np.random.Generator, max_sites: int = 7,
                           beta: float | None = None) -> ModelInstance:
    """Random graph with diagonal clique terms in a random product frame.

    All terms are diagonal after undoing one product unitary, so they
    commute pairwise no matter which cliques were drawn.
    """
    if max_sites < 4:
        raise ValueError(f"random commuting models need max_sites >= 4, got {max_sites}")
    n = int(rng.integers(4, max_sites + 1))
    vs = list(range(1, n + 1))
    edges = [(u, v) for k, u in enumerate(vs) for v in vs[k + 1:]
             if rng.random() < 0.5]
    graph = Graph(frozenset(vs), frozenset(edges))
    space = SiteSpace.qubits(n)
    frame = {s: random_unitary(rng, 2) for s in vs}
    pool = [c for c in cliques(graph, max_size=3) if c]
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        sup = pool[int(rng.integers(len(pool)))]
        u = kron(*[frame[s] for s in sup])
        diag = np.diag(rng.normal(scale=0.7, size=2 ** len(sup)))
        terms.append(SupportedOperator(sup, u @ diag @ u.conj().T))
    b = float(rng.uniform(0.3, 1.0)) if beta is None else beta
    return ModelInstance(space, graph, tuple(terms), beta=b)


THEOREM4_KINDS = ("path4", "path5", "cycle4", "cycle6", "star", "grid2x3")

_T4_LAYOUT = {
    "path4": ([(1, 2), (2, 3), (3, 4)], (2, 3)),
    "path5": ([(1, 2), (2, 3), (3, 4), (4, 5)], (2, 4)),
    "cycle4": ([(1, 2), (2, 3), (3, 4), (1, 4)], (1, 3)),
    "cycle6": ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)], (1, 4)),
    "star": ([(0, 1), (0, 2), (0, 3)], (1, 2)),
    "grid2x3": ([(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)],
                (1, 6)),
}


def theorem4_model(kind: str, rng: np.random.Generator,
                   beta: float | None = None) -> ModelInstance:
    """Commuting model on a triangle-free graph with two dim-4 sites.

    Each edge couples through a Z on one factor per end (composite sites
    alternate their two factors over incident edges), so all couplings are
    diagonal before the change of frame.  One composite site hides an X
    shred inside an edge term, the other carries a cross-factor ZZ one-body
    term, and one qubit site gets a plain field; everything is conjugated
    by a random per-site unitary.  The Gibbs state is a Markov network and
    the decomposition must recover pulls, commutant parts and fields.
    """
    if kind not in _T4_LAYOUT:
        raise ValueError(f"unknown kind {kind!r}; choose from {THEOREM4_KINDS}")
    edge_list, comps = _T4_LAYOUT[kind]
    graph = Graph.from_edges(edge_list)
    vs = sorted(graph.vertices)
    dims = {v: (4 if v in comps else 2) for v in vs}
    space = SiteSpace.from_dims(dims)
    neighbors = {v: sorted(w for e in graph.edges for w in e
                           if v in e and w != v) for v in vs}
    channel = {}
    for v in comps:
        for idx, w in enumerate(neighbors[v]):
            channel[(v, w)] = idx % 2

    def z_end(v: int, other: int) -> np.ndarray:
        if dims[v] == 2:
            return _Z
        return np.kron(_Z, np.eye(2)) if channel[(v, other)] == 0 \
            else np.kron(np.eye(2), _Z)

    def x_factor(f: int) -> np.ndarray:
        return np.kron(_X, np.eye(2)) if f == 0 else np.kron(np.eye(2), _X)

    def coeff() -> float:
        return float(rng.uniform(0.4, 1.1) * rng.choice([-1.0, 1.0]))

    terms: dict[tuple[int, ...], np.ndarray] = {}
    for u, v in sorted(graph.edges):
        terms[(u, v)] = coeff() * np.kron(z_end(u, v), z_end(v, u))

    # an X on the factor that only this edge touches commutes with every
    # other term, so it rides inside the edge term as a one-body shred
    shred_site = comps[0]
    w0 = neighbors[shred_site][0]
    e0 = tuple(sorted((shred_site, w0)))
    sh = coeff() * x_factor(0)
    pad = np.eye(dims[w0])
    terms[e0] = terms[e0] + (np.kron(sh, pad) if e0[0] == shred_site
                             else np.kron(pad, sh))

    cross_site = comps[1]
    terms[(cross_site,)] = coeff() * np.kron(_Z, _Z)

    field_site = next(v for v in vs if dims[v] == 2)
    terms[(field_site,)] = coeff() * _Z

    frame = {s: random_unitary(rng, dims[s]) for s in vs}
    out = []
    for sup, m in sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
        u = kron(*[frame[s] for s in sup])
        out.append(SupportedOperator(sup, u @ m @ u.conj().T))
    b = float(rng.uniform(0.4, 0.9)) if beta is None else beta
    return ModelInstance(space, graph, tuple(out), beta=b)
