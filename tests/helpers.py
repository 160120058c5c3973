"""Independent oracle implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: partial
traces are explicit index sums, embeddings are Kronecker products with the
identity followed by an axis permutation, the matrix exponential is a
Taylor series with scaling and squaring, Pauli words are built by literal
Kronecker products, graph shielding is a breadth-first component search,
and log Z and log rho of a Gibbs state are taken from the dense beta H and
its full spectrum (the routes that ``log_partition`` and the term-by-term
cumulants of ``model_cumulants`` are checked against).  ``expm_herm`` is
the spectral exponential that the round-trip tests feed to ``logm_pd``; it
is itself checked against the Taylor series.  ``walk_oracle`` is the one
exception: it reuses the library's grouping search, because what it checks
in ``classify`` is the split into noncommutation components, not the
search.  ``theorem4_reference`` is the vertex-by-vertex decomposition
that the stacked kernels of ``theorem4_decompose`` replaced: it keeps the
library's Schmidt splits and commutant forms but solves each star with its
own eigensolve and a minimum-norm ``lstsq`` (``star_reference``) where the
library projects, checks commutation one site at a time, and rebuilds the
cumulants term by term (``local_expansion``).  ``reference_combine``
and ``reference_commutator`` are the Pauli sum's combine and the
commutator as loops over ``PauliTerm`` objects, whose output the table
and order-key routes of ``qmn.pauli`` must reproduce bit for bit.
``relative_commutator_reference`` takes a dense pair's commutator on its
union support, both operands embedded and multiplied there, where the
library contracts them over their shared sites; ``merged_tiling_reference``
builds the merged tiling by quotienting the fine one with ``coarse_grain``,
its words from letter maps, where the library writes the quotient and the
masks directly.  The stabilizer generator sets and ``stabilizer_state`` at the end
are fixtures rather than oracles: exact Markov and non-Markov states that
the package has no use for.
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import NamedTuple, Sequence

import numpy as np

from qmn.cumulants import (
    DEFAULT_DROP_RTOL,
    CumulantExpansion,
    _collect,
    _local_components,
    verify_clique_support,
)
from qmn.decompose import (
    CommutingDecomposition,
    _best_grouping,
    _commutant_forms,
    _edge_ends,
    hermitian_basis,
)
from qmn.errors import (
    DecompositionResidualError,
    DimensionMismatchError,
    NotMarkovError,
    NotTriangleFreeError,
    UnknownSiteError,
)
from qmn.graphs import Graph, Partition, coarse_grain, is_triangle_free
from qmn.markov import DensityMatrix, ModelInstance, log_partition
from qmn.pauli import PauliSum, PauliTerm, as_sum
from qmn.tensor import (
    SiteSpace,
    SupportedOperator,
    check_hermitian,
    embed_sum,
    hs_norm,
    require_dense,
)

I2 = np.array([[1, 0], [0, 1]], dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_BY_LETTER = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def dense_pauli_word(letters: dict[int, str], sites: list[int]) -> np.ndarray:
    """Kronecker product of single-qubit Paulis over ``sites`` (ascending)."""
    out = np.eye(1, dtype=complex)
    for s in sites:
        out = np.kron(out, PAULI_BY_LETTER[letters.get(s, "I")])
    return out


def ptrace_indexsum(m: np.ndarray, dims: list[int], keep_axes: list[int]) -> np.ndarray:
    """Partial trace by explicit summation over basis indices."""
    n = len(dims)
    keep = sorted(keep_axes)
    keep_dims = [dims[a] for a in keep]
    dk = math.prod(keep_dims) if keep else 1

    def flat(idx, ds):
        x = 0
        for i, d in zip(idx, ds):
            x = x * d + i
        return x

    out = np.zeros((dk, dk), dtype=complex)
    for row in itertools.product(*[range(d) for d in dims]):
        row_keep = tuple(row[a] for a in keep)
        for col_keep in itertools.product(*[range(d) for d in keep_dims]):
            col = list(row)
            for a, c in zip(keep, col_keep):
                col[a] = c
            out[flat(row_keep, keep_dims), flat(col_keep, keep_dims)] += \
                m[flat(row, dims), flat(tuple(col), dims)]
    return out


def embed_kron(op, space) -> np.ndarray:
    """Embed ``op`` (support, matrix) into ``space`` (sites, dims) by a
    Kronecker product with the identity on the other sites, then an axis
    permutation back to ascending site order."""
    dim = dict(zip(space.sites, space.dims))
    comp = [s for s in space.sites if s not in op.support]
    rest = math.prod(dim[s] for s in comp)
    full = np.kron(op.matrix, np.eye(rest, dtype=complex))
    order = list(op.support) + comp
    dims_order = [dim[s] for s in order]
    perm = [order.index(s) for s in space.sites]
    n = len(order)
    t = full.reshape(dims_order + dims_order).transpose(perm + [n + p for p in perm])
    d = math.prod(space.dims)
    return np.ascontiguousarray(t.reshape(d, d))


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    m = np.asarray(m, dtype=complex)
    norm = np.linalg.norm(m, ord=np.inf)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1) if norm > 0.5 else 0
    a = m / (2 ** s)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        out = out + term
        if np.linalg.norm(term) < 1e-18 * max(1.0, np.linalg.norm(out)):
            break
    for _ in range(s):
        out = out @ out
    return out


def expm_herm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix through its eigenvalues."""
    w, v = np.linalg.eigh(check_hermitian(m))
    return (v * np.exp(w)) @ v.conj().T


def shannon_entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log(p)))


def classical_cmi(p: np.ndarray, dims: list[int], a_axes: list[int],
                  b_axes: list[int], c_axes: list[int]) -> float:
    """Classical I(A:C|B) from a joint distribution given as a flat vector."""
    t = np.asarray(p, dtype=float).reshape(dims)

    def marg(axes):
        drop = tuple(sorted(set(range(len(dims))) - set(axes)))
        return t.sum(axis=drop) if drop else t

    h_ab = shannon_entropy(marg(sorted(a_axes + b_axes)))
    h_bc = shannon_entropy(marg(sorted(b_axes + c_axes)))
    h_abc = shannon_entropy(marg(sorted(a_axes + b_axes + c_axes)))
    h_b = shannon_entropy(marg(sorted(b_axes))) if b_axes else 0.0
    return h_ab + h_bc - h_abc - h_b


def bfs_components(vertices: set[int], edges: set[tuple[int, int]]) -> list[set[int]]:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen: set[int] = set()
    comps = []
    for v in sorted(vertices):
        if v in seen:
            continue
        comp = {v}
        queue = [v]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def brute_shields(vertices: set[int], edges: set[tuple[int, int]],
                  a: set[int], b: set[int], c: set[int]) -> bool:
    """Component-based shielding check on the graph with B removed."""
    rest = vertices - b
    kept = {(u, v) for (u, v) in edges if u in rest and v in rest}
    for comp in bfs_components(rest, kept):
        if comp & a and comp & c:
            return False
    return True


def brute_spanning_shield_partitions(vertices: list[int], edges: set[tuple[int, int]]):
    """All spanning (A,B,C) with A,C nonempty, B shielding, canonical orientation."""
    vs = sorted(vertices)
    out = []
    for assign in itertools.product((0, 1, 2), repeat=len(vs)):
        a = {v for v, k in zip(vs, assign) if k == 0}
        b = {v for v, k in zip(vs, assign) if k == 1}
        c = {v for v, k in zip(vs, assign) if k == 2}
        if not a or not c:
            continue
        if min(a | c) not in a:
            continue
        if brute_shields(set(vs), edges, a, b, c):
            out.append((frozenset(a), frozenset(b), frozenset(c)))
    return sorted(out, key=lambda p: (sorted(p[0]), sorted(p[1])))


def walk_oracle(model, rtol: float = 1e-9) -> dict:
    """Whether the model's terms regroup into commuting halves across each
    spanning shielding partition of its whole graph, keyed by partition.

    The partitions come from ``brute_spanning_shield_partitions``, and each
    runs the grouping search over all the terms at once: Pauli models are
    held to an exact zero, dense ones to ``rtol``.
    """
    symbolic = model.all_pauli()
    keyed = [(frozenset(model.term_support(t)),
              as_sum(t) if symbolic else model.term_operator(t)) for t in model.terms]
    tol = 0.0 if symbolic else rtol
    out = {}
    for a, b, c in brute_spanning_shield_partitions(sorted(model.graph.vertices),
                                                    set(model.graph.edges)):
        p = Partition(a, b, c)
        out[p] = _best_grouping(keyed, p, model.space, tol) <= tol
    return out


# ---------------------------------------------------------------------------
# the vertex-by-vertex decomposition

def _split_sum(terms, space: SiteSpace) -> dict[tuple[int, ...], np.ndarray]:
    """Components of a sum of (support, matrix) terms, each split on its
    own support and added per support."""
    parts: dict[tuple[int, ...], np.ndarray] = {}
    for support, matrix in terms:
        dims = {s: space.dim(s) for s in support}
        for key, m in _local_components(support, dims, matrix).items():
            parts[key] = parts[key] + m if key in parts else m
    return parts


def dense_model_cumulants(model, of: str = "log-gibbs") -> CumulantExpansion:
    """``model_cumulants`` the dense way: every term of ``checked_terms``
    split on its own support, Pauli or not, the parts times beta, and of
    log rho the scalar less ``log_partition``."""
    parts = _split_sum(((op.support, op.matrix) for op in model.checked_terms),
                       model.space)
    parts = {k: model.beta * m for k, m in parts.items()}
    if of == "log-gibbs":
        parts[()] = parts.pop((), np.zeros((1, 1), dtype=complex)) - log_partition(model)
    return _collect(parts, model.space, DEFAULT_DROP_RTOL)


def local_expansion(ops, space: SiteSpace) -> CumulantExpansion:
    """Every nonzero cumulant component of a sum of local operators, each
    split on its own support and the parts summed per support."""
    parts = _split_sum(((op.support, op.matrix) for op in ops), space)
    return _collect(parts, space, drop_rtol=0.0)


def weighted_factors(split) -> np.ndarray:
    """The left factors of an operator Schmidt split, each times its weight."""
    return split.weights[:, None, None] * split.left


def shared_site_norms_reference(groups, norms, d: int) -> np.ndarray:
    """Relative commutator norms of operators meeting at one site, from
    their weighted site factors (``groups[i]`` for operator i)."""
    y = np.concatenate(groups)
    n = len(y)
    p = (y.reshape(n * d, d) @ y.transpose(1, 0, 2).reshape(d, n * d)).reshape(n, d, n, d)
    c = p - p.transpose(2, 1, 0, 3)
    owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    runs = (owner == np.arange(len(groups))[:, None]).astype(float)
    sq = runs @ (c.real ** 2 + c.imag ** 2).sum(axis=(1, 3)) @ runs.T
    scale = np.outer(norms, norms)
    return np.divide(np.sqrt(sq) * math.sqrt(d), scale, out=np.zeros_like(sq),
                     where=scale > 0.0)


class StarReference(NamedTuple):
    """One vertex cumulant split into a free part plus one pull per edge
    end, with the residual of the fit and the cumulant's norm."""

    vertex_term: np.ndarray
    pulls: list[np.ndarray]
    residual: float
    scale: float


def star_reference(k_u: np.ndarray, gens, rtol: float = 1e-9) -> StarReference:
    """One star solved on its own: one eigensolve, one minimum-norm
    ``lstsq`` over the joint and pull spans side by side, then the joint
    commutant's share of each pull moved into the free part.  ``gens``
    lists, per edge end, the stack of its site factors.

    The joint span lies inside every pull span, so the columns are
    dependent by construction, and rounding leaves those dependencies
    singular values near 1e-13 rather than 0.  ``lstsq``'s default cut,
    eps times the larger matrix side (about 3e-14 relative at d = 12),
    would keep them and fit noise directions; the cut is ``rtol`` instead,
    far below the unit singular values of the orthonormal spans'
    independent directions."""
    d = k_u.shape[0]
    basis = hermitian_basis(d)
    n = len(basis)
    flat = basis.reshape(n, -1)
    forms = _commutant_forms(list(gens), basis)
    joint = forms.sum(axis=0)
    w, vecs = np.linalg.eigh(np.concatenate([joint[None], joint - forms]))
    spans = [vec[:, ws <= rtol * max(float(ws[-1]), 1e-300)]
             for ws, vec in zip(w, vecs)]

    def matrix(x: np.ndarray) -> np.ndarray:
        return (x @ flat).reshape(d, d)

    target = (flat.conj() @ k_u.reshape(-1)).real
    cols = np.hstack(spans)
    coef, *_ = np.linalg.lstsq(cols, target, rcond=rtol)
    res = hs_norm(k_u - matrix(cols @ coef))
    blocks = np.split(coef, np.cumsum([s.shape[1] for s in spans])[:-1])
    joint_span = spans[0]
    h_u = joint_span @ blocks[0]
    pulls = []
    for span, c in zip(spans[1:], blocks[1:]):
        g = span @ c
        shared = joint_span @ (joint_span.T @ g)
        h_u = h_u + shared
        pulls.append(matrix(g - shared))
    return StarReference(matrix(h_u), pulls, res, max(hs_norm(k_u), 1e-300))


def theorem4_reference(expansion: CumulantExpansion, graph: Graph,
                       rtol: float = 1e-9,
                       support_rtol: float = 1e-8) -> CommutingDecomposition:
    """``theorem4_decompose`` one vertex at a time, with the same checks in
    the same order and the same error messages."""
    space = expansion.space
    if graph.vertices != set(space.sites):
        raise UnknownSiteError("graph vertices must match state sites")
    if not is_triangle_free(graph):
        raise NotTriangleFreeError(
            "decomposition requires a triangle-free interaction graph")
    support_rep = verify_clique_support(expansion, graph, rtol=support_rtol)
    if not support_rep.passed:
        raise NotMarkovError(
            f"log rho carries weight {support_rep.off_clique_norm:.3e} outside "
            f"the graph cliques, worst on {support_rep.worst[0]}")
    edge_keys = {frozenset(e): e for e in graph.edges}
    edge_cumulants = {edge_keys[k]: expansion.entries[k]
                      for k in expansion.entries if k in edge_keys}
    ends = _edge_ends(edge_cumulants, space)
    star_of = {u: [] for u in sorted(graph.vertices)}
    for u, v in sorted(ends):
        star_of[u].append(v)

    def edge(u, v):
        return (u, v) if u < v else (v, u)

    edge_norms = {e: k.hs_norm() for e, k in edge_cumulants.items()}
    norms = {}
    for u, vs in star_of.items():
        if len(vs) < 2:
            continue
        es = [edge(u, v) for v in vs]
        rel = shared_site_norms_reference([weighted_factors(ends[u, v]) for v in vs],
                                          [edge_norms[e] for e in es], space.dim(u))
        for a, b in itertools.combinations(range(len(vs)), 2):
            norms[min(es[a], es[b]), max(es[a], es[b])] = float(rel[a, b])
    worst = max(sorted(norms), key=norms.__getitem__, default=None)
    if worst is not None and norms[worst] > support_rtol:
        raise NotMarkovError(
            f"edge cumulants on {worst[0]} and {worst[1]} do not commute "
            f"(relative norm {norms[worst]:.3e})")

    n = len(space.sites)
    k0 = float(expansion.operator(()).matrix[0, 0].real)
    vertex_terms = {}
    pulls = {}
    for u in sorted(graph.vertices):
        star = star_reference(expansion.operator((u,)).matrix,
                              [ends[u, v].left[:ends[u, v].rank] for v in star_of[u]],
                              rtol=rtol)
        if star.residual > rtol * star.scale:
            raise DecompositionResidualError(
                f"vertex cumulant at {u} leaves residual {star.residual:.3e} "
                f"(scale {star.scale:.3e}) outside the ansatz", residual=star.residual)
        shift = (k0 / n) * np.eye(space.dim(u), dtype=complex)
        vertex_terms[u] = SupportedOperator((u,), star.vertex_term + shift)
        for v, g in zip(star_of[u], star.pulls):
            pulls[u, v] = g
    final_edges = {}
    for (u, v), k_uv in edge_cumulants.items():
        du, dv = space.dim(u), space.dim(v)
        m = (k_uv.matrix.reshape(du, dv, du, dv)
             + pulls[u, v][:, None, :, None] * np.eye(dv)[:, None]
             + np.eye(du)[:, None, :, None] * pulls[v, u][:, None])
        final_edges[u, v] = SupportedOperator((u, v), m.reshape(du * dv, du * dv))

    floor_sq = support_rtol ** 2 * expansion.total_norm_sq / space.total_dim
    max_commutator = 0.0
    for u, vs in star_of.items():
        ops = [vertex_terms[u]] + [final_edges[edge(u, v)] for v in vs]
        groups = [vertex_terms[u].matrix[None]] + [
            np.concatenate([weighted_factors(ends[u, v]),
                            math.sqrt(space.dim(v)) * pulls[u, v][None]]) for v in vs]
        op_norms = np.array([op.hs_norm() for op in ops])
        rel = shared_site_norms_reference(groups, op_norms, space.dim(u))
        judged = op_norms ** 2 / [op.dim for op in ops] > floor_sq
        pairs = np.triu(np.outer(judged, judged), 1)
        max_commutator = max(max_commutator, float(rel[pairs].max(initial=0.0)))

    terms = [vertex_terms[u] for u in sorted(vertex_terms)]
    terms += [final_edges[e] for e in sorted(final_edges)]
    rebuilt = local_expansion(terms, space)
    scale = max(math.sqrt(expansion.total_norm_sq), 1e-300)
    residual = rebuilt.distance(expansion) / scale
    if max_commutator > support_rtol:
        raise DecompositionResidualError(
            f"regrouped terms fail to commute (relative norm {max_commutator:.3e})",
            residual=max_commutator)
    if residual > support_rtol:
        raise DecompositionResidualError(
            f"decomposition misses log rho by relative {residual:.3e}",
            residual=residual)
    return CommutingDecomposition(space, graph, vertex_terms, final_edges,
                                  max_commutator, residual)


def brute_all_shield_partitions(vertices: list[int], edges: set[tuple[int, int]]):
    """Every shielding (A, B, C), spanning or not, in canonical orientation,
    in ``itertools.product`` order over the sorted vertices (0=A, 1=B, 2=C,
    3=left out)."""
    vs = sorted(vertices)
    out = []
    for assign in itertools.product((0, 1, 2, 3), repeat=len(vs)):
        a = {v for v, k in zip(vs, assign) if k == 0}
        b = {v for v, k in zip(vs, assign) if k == 1}
        c = {v for v, k in zip(vs, assign) if k == 2}
        if not a or not c or min(a | c) not in a:
            continue
        if brute_shields(set(vs), edges, a, b, c):
            out.append((frozenset(a), frozenset(b), frozenset(c)))
    return out


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (a + a.conj().T) / 2


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    k = rank or d
    a = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = a @ a.conj().T
    return m / np.trace(m).real


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def site_avg_dense(h: np.ndarray, dims: list[int], axis: int) -> np.ndarray:
    """Replace one tensor factor by identity times its normalized trace."""
    n = len(dims)
    t = h.reshape(dims + dims)
    d = dims[axis]
    tr = np.trace(t, axis1=axis, axis2=n + axis) / d
    out = np.zeros(dims + dims, dtype=complex)
    idx = [slice(None)] * (2 * n)
    for i in range(d):
        idx[axis] = i
        idx[n + axis] = i
        out[tuple(idx)] = tr
    return out.reshape(h.shape)


def brute_cumulant(h: np.ndarray, dims: list[int], region_axes: list[int]) -> np.ndarray:
    """Cumulant component on ``region_axes`` by inclusion-exclusion, embedded."""
    n = len(dims)
    comp = [a for a in range(n) if a not in region_axes]
    out = np.zeros_like(h, dtype=complex)
    for r in range(len(region_axes) + 1):
        for subset in itertools.combinations(region_axes, r):
            m = h.astype(complex)
            for a in list(subset) + comp:
                m = site_avg_dense(m, dims, a)
            out += (-1) ** r * m
    return out


def dense_log_partition(model) -> float:
    """log Z = log Tr e^{beta H} as a log-sum-exp over one complex
    ``eigvalsh`` of beta H, with H the Kronecker embeddings of the model's
    terms summed and checked as a whole."""
    d = model.space.total_dim
    h = np.zeros((d, d), dtype=complex)
    for t in model.terms:
        h += embed_kron(model.term_operator(t), model.space)
    w = np.linalg.eigvalsh(model.beta * check_hermitian(h))
    return float(w[-1] + np.log(np.sum(np.exp(w - w[-1]))))


def log_gibbs(model) -> np.ndarray:
    """log rho = beta H - log Z 1 of a model's Gibbs state, dense and exact,
    with log Z from ``dense_log_partition``."""
    bh = model.beta * model.hamiltonian()
    bh[np.diag_indices_from(bh)] -= dense_log_partition(model)
    return bh


# ---------------------------------------------------------------------------
# Pauli sums built from PauliTerm objects

def commutes(a: PauliTerm, b: PauliTerm) -> bool:
    """True iff the two words commute (even symplectic product)."""
    return ((a.x & b.z) ^ (a.z & b.x)).bit_count() % 2 == 0


def reference_combine(terms: Sequence[PauliTerm]) -> tuple[PauliTerm, ...]:
    """The terms of ``PauliSum(terms)`` as loops over term objects: a lone
    nonzero term as it is; else each word's coefficients added in input
    order starting from 0j, exact zeros dropped, and every term made anew
    and sorted by ``word``."""
    if not terms or len(terms) == 1 and terms[0].coeff != 0:
        return tuple(terms)
    combined: dict[tuple[int, int], complex] = {}
    for t in terms:
        combined[t.x, t.z] = combined.get((t.x, t.z), 0j) + t.coeff
    return tuple(sorted((PauliTerm(c, x, z) for (x, z), c in combined.items() if c != 0),
                        key=lambda t: t.word))


def reference_commutator(a, b) -> tuple[PauliTerm, ...]:
    """The terms of [a, b]: 2 ta tb for every anticommuting word pair, as
    ``(ta * tb) * 2``, combined by ``reference_combine``."""
    out = [(ta * tb) * 2 for ta in as_sum(a).terms for tb in as_sum(b).terms
           if not commutes(ta, tb)]
    return reference_combine(out)


def term_bits(terms: Sequence[PauliTerm]) -> list[tuple[int, int, bytes]]:
    """Masks and coefficient bits of each term, so that -0.0 and 0.0 differ."""
    return [(t.x, t.z, struct.pack("<2d", t.coeff.real, t.coeff.imag)) for t in terms]


# ---------------------------------------------------------------------------
# dense commutators on the union support, and the merged tiling by quotient

def relative_commutator_reference(a: SupportedOperator, b: SupportedOperator,
                                  space: SiteSpace) -> float:
    """||[a, b]|| / (||a|| ||b||) in the dimension-normalized norm, with both
    operators embedded on their union support and multiplied there."""
    sub = space.subspace(set(a.support) | set(b.support))
    da, db = embed_sum((a,), sub), embed_sum((b,), sub)
    scale = hs_norm(da) * hs_norm(db)
    if scale == 0.0:
        return 0.0
    return hs_norm(da @ db - db @ da) / scale * math.sqrt(sub.total_dim)


def merged_tiling_reference(rows: int, cols: int, beta: float = 1.0) -> ModelInstance:
    """The northeast-merged tiling as the quotient of the fine tiling graph
    under the merge map that folds each cell's center into its northeast
    corner, each cell's four words from letter maps, regrouped into its two
    commuting pairs."""
    base = (rows + 1) * (cols + 1)

    def corner(r: int, c: int) -> int:
        return r * (cols + 1) + c + 1

    edges: set[tuple[int, int]] = set()
    quads = []
    for i in range(rows):
        for j in range(cols):
            nw, ne = corner(i, j), corner(i, j + 1)
            sw, se = corner(i + 1, j), corner(i + 1, j + 1)
            c = base + i * cols + j + 1
            for u, v in ((nw, ne), (ne, se), (se, sw), (sw, nw),
                         (nw, c), (ne, c), (se, c), (sw, c)):
                edges.add((min(u, v), max(u, v)))
            quads.append((PauliTerm.from_letters(1.0, {nw: "Z", ne: "Z", c: "Y"}),
                          PauliTerm.from_letters(1.0, {ne: "Z", se: "Z", c: "X"}),
                          PauliTerm.from_letters(1.0, {se: "Z", sw: "Z", c: "Y"}),
                          PauliTerm.from_letters(1.0, {sw: "Z", nw: "Z", c: "X"})))
    merge = {base + i * cols + j + 1: corner(i, j + 1) for i in range(rows) for j in range(cols)}
    qgraph, _ = coarse_grain(Graph.from_edges(sorted(edges)), merge)
    comp = {v: (v,) for v in qgraph.vertices}
    for center, ne in merge.items():
        comp[ne] = (ne, center)
    space = SiteSpace.from_dims({s: 2 ** len(q) for s, q in comp.items()})
    terms = []
    for down, left, up, right in quads:
        terms.append(PauliSum.of(down, right))
        terms.append(PauliSum.of(left, up))
    return ModelInstance(space, qgraph, tuple(terms), beta=beta, site_composition=comp)


# ---------------------------------------------------------------------------
# stabilizer states: zero-temperature states, not positive, so outside the
# abstract's theorem; the tests use them as exact Markov and non-Markov cases

def ring_code(n: int = 4) -> tuple[SiteSpace, Graph, tuple[PauliTerm, ...]]:
    """n-qubit cycle with its n-1 independent consecutive ZZ generators."""
    if n < 3:
        raise ValueError("ring needs at least three qubits")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    gens = tuple(PauliTerm.from_letters(1.0, {i: "Z", i + 1: "Z"}) for i in range(1, n))
    return SiteSpace.qubits(n), Graph.from_edges(edges), gens


def surface_strip() -> tuple[SiteSpace, Graph, tuple[PauliTerm, ...]]:
    """Three alternating Z/X plaquettes on an eight-qubit ladder strip."""
    supports = ((1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8))
    letters = ("Z", "X", "Z")
    gens = tuple(PauliTerm.from_letters(1.0, {q: l for q in sup})
                 for sup, l in zip(supports, letters))
    edges = set()
    for sup in supports:
        for a in sup:
            for b in sup:
                if a < b:
                    edges.add((a, b))
    return SiteSpace.qubits(8), Graph.from_edges(sorted(edges)), gens


def _gf2_eliminate(rows: list[int]) -> list[set[int]]:
    """Find GF(2) dependencies among bit-packed rows.

    Returns, for each row that reduces to zero against the rows before it,
    the set of input indices whose XOR vanishes.
    """
    pivots: dict[int, tuple[int, set[int]]] = {}
    deps: list[set[int]] = []
    for idx, row in enumerate(rows):
        cur, acc = row, {idx}
        while cur:
            p = cur & (-cur)
            if p not in pivots:
                pivots[p] = (cur, acc)
                break
            b, cb = pivots[p]
            cur ^= b
            acc = acc ^ cb
        if not cur:
            deps.append(acc)
    return deps


def stabilizer_state(generators: Sequence, space: SiteSpace) -> DensityMatrix:
    """Uniform mixture over the joint +1 eigenspace of commuting Pauli words.

    Generators must be Hermitian Pauli words with coefficient +1 or -1 on
    qubit sites, pairwise commuting and independent; the state is the
    normalized projector prod_k (1 + g_k)/2.
    """
    gens: list[PauliTerm] = []
    for g in generators:
        s = as_sum(g) if not isinstance(g, SupportedOperator) else None
        if s is None or len(s.terms) != 1:
            raise ValueError("stabilizer generators must be single Pauli words")
        t = s.terms[0]
        if t.coeff not in (1 + 0j, -1 + 0j):
            raise ValueError(f"generator coefficient must be +1 or -1, got {t.coeff}")
        gens.append(t)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not commutes(gens[i], gens[j]):
                raise ValueError(
                    f"generators {i} and {j} anticommute: "
                    f"{gens[i]} vs {gens[j]}")
    # GF(2) independence of the symplectic rows x | z
    shift = max(((t.x | t.z).bit_length() for t in gens), default=0)
    deps = _gf2_eliminate([t.x | t.z << shift for t in gens])
    if deps:
        subset = sorted(deps[0])
        prod = PauliTerm(1.0)
        for k in subset:
            prod = prod * gens[k]
        if prod.coeff == -1 + 0j:
            raise ValueError(
                f"inconsistent generators (zero projector): product of "
                f"{subset} is -identity")
        raise ValueError(f"dependent generators: product of {subset} is identity")
    d = space.total_dim
    require_dense(d, "the stabilizer state")
    proj = np.eye(d, dtype=complex)
    for t in gens:
        sup = t.support
        if any(space.dim(s) != 2 for s in sup):
            raise DimensionMismatchError(
                f"Pauli letters on sites {list(sup)} need dimension 2")
        word = SupportedOperator(sup, PauliSum.of(t).matrix(sup))
        proj = (proj + proj @ embed_sum((word,), space)) / 2
    tr = float(np.trace(proj).real)
    want = d / 2 ** len(gens)
    if abs(tr - want) > 1e-6 * want:
        raise ValueError(f"projector rank {tr} differs from expected {want}")
    return DensityMatrix(proj / tr, space)
