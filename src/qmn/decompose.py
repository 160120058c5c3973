"""Commutation classification and commuting decompositions.

The pipeline realized here: a positive state that is a Markov network on a
triangle-free graph has log rho with cumulants on vertices and edges only,
edge cumulants that commute whenever they share a vertex, and vertex
cumulants K_u that split as h_u + sum_v G_u^v where G_u^v commutes with the
site-u Schmidt factors of every other edge at u and h_u commutes with all
of them.  Regrouping K_uv + G_u^v + G_v^u per edge then yields pairwise
commuting terms whose sum is log rho.  log rho enters as its cumulants,
as in ``theorem4_decompose(model_cumulants(model), model.graph)``: for a
model they are those of beta H - log Z 1, built term by term on each
term's own support, with no positivity floor and no full-space matrix.
Only the scalar -log Z needs the spectrum.  Past the dense cap it is not
computed, so the vertex terms then carry no -log Z / n shift; the Gibbs
state does not see that shift, since a multiple of the identity cancels
in the normalization.  Every check runs on supports of at most three
sites, and the final residual compares the returned terms' cumulants with
the expansion support by support, which is exact by Parseval.

One commutation engine serves every question.  A single relative
commutator norm, ||[a, b]|| / (||a|| ||b||) in the dimension-normalized
Hilbert-Schmidt norm ||X|| / sqrt(dim X), is exact for Pauli sums and
taken on the union support for dense operators; the normalization makes the
two agree and leaves the value independent of the space an operator is
embedded in.  A single grouping search, run by ``classify`` on the terms of
a model, regroups them across a shielding partition: terms meeting A go to
the A side, those meeting C to the C side, and the assignments of those
inside the shield are searched, default first.  The star decomposition
solves each Hermitian commutant directly, as the real null space of
X -> [X, g] in a Hermitian basis of the site.

The same engine answers the Markov question for Gibbs states, which is the
paper's theorem.  When a commuting grouping H = H_AB + H_BC exists across a
spanning shielding partition, e^{beta H} factors into commuting halves, B
splits into blocks B_j^L (x) B_j^R (Bravyi & Vyalyi, quant-ph/0308021),
and I(A:C|B) = 0 exactly at every beta (Hayden, Jozsa, Petz & Winter,
quant-ph/0304007).  A ``LocalCommuting`` or ``ShieldCommutingOnly``
verdict on a Pauli model, whose commutators cancel symbolically, is such a
grouping on every spanning partition; every shielding partition extends to
a spanning one, and strong subadditivity gives I(A:C|B) <= I(AA':CC'|B) =
0, so it certifies ``--partitions all`` too.  ``verify_gibbs`` reports that
certificate, listing only the partitions ``classify`` regrouped, and builds
no state; every other model takes the dense CMI sweep of
``markov.is_markov_network``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence, Union

import numpy as np

from .cumulants import CumulantExpansion, local_expansion, verify_clique_support
from .errors import (
    DecompositionResidualError,
    EnumerationCapError,
    NotMarkovError,
    NotTriangleFreeError,
    UnknownSiteError,
)
from .graphs import (
    Graph,
    Partition,
    cliques,
    coarse_grain,
    is_triangle_free,
    spanning_shield_partitions,
)
from .markov import (
    DEFAULT_CMI_TOL,
    MarkovReport,
    ModelInstance,
    PartitionRecord,
    gibbs,
    is_markov_network,
)
from .pauli import PauliSum, as_sum, commutator
from .tensor import (
    SiteSpace,
    SupportedOperator,
    embed,
    embed_sum,
    hs_norm,
    op_schmidt,
    require_dense,
)

DEFAULT_RTOL = 1e-9
DEFAULT_SUPPORT_RTOL = 1e-8
SPLIT_SEARCH_CAP = 4096

LOCAL_COMMUTING = "LocalCommuting"
SHIELD_COMMUTING_ONLY = "ShieldCommutingOnly"
NOT_SHIELD_COMMUTING = "NotShieldCommuting"

Operand = Union[SupportedOperator, PauliSum]


# ---------------------------------------------------------------------------
# the commutation engine: one relative norm, one grouping search

def _relative_commutator(a: Operand, b: Operand, space: SiteSpace) -> float:
    """||[a, b]|| / (||a|| ||b||); 0.0 when either operand is zero.

    Pauli sums are commuted exactly, so the result is 0.0 exactly when the
    commutator cancels; their norms are the dimension-normalized ones,
    sqrt(sum |c|^2).  Dense operators are compared on their union support
    in the same normalized norm, ||X|| / sqrt(dim), which multiplies the
    ratio of plain Hilbert-Schmidt norms by sqrt(dim).
    """
    if isinstance(a, PauliSum) and isinstance(b, PauliSum):
        c = commutator(a, b)
        if c.is_zero:
            return 0.0
        return c.norm() / max(a.norm() * b.norm(), 1e-300)
    sub = space.subspace(set(a.support) | set(b.support))
    da, db = embed(a, sub), embed(b, sub)
    scale = hs_norm(da) * hs_norm(db)
    if scale == 0.0:
        return 0.0
    return hs_norm(da @ db - db @ da) / scale * math.sqrt(sub.total_dim)


def _best_grouping(items: Sequence[tuple[frozenset[int], Operand]],
                   p: Partition, space: SiteSpace, rtol: float,
                   search_cap: int) -> float:
    """Smallest relative commutator norm of the two halves into which
    support-keyed operators regroup across a partition.

    Operators meeting A go to the AB half, the rest meeting C to the BC
    half, and a scalar stays on the AB half.  The k operators inside B
    default to the AB half; when that grouping's norm exceeds ``rtol``,
    every assignment is tried in mask order (bit i sends inner operator i
    to the BC half) until one commutes, which needs 2^k <= ``search_cap``.
    Pauli sums are summed exactly, dense operators on the sites of their
    half.
    """
    symbolic = all(isinstance(op, PauliSum) for _, op in items)
    ab_sites = tuple(sorted(p.a | p.b))
    bc_sites = tuple(sorted(p.b | p.c))
    side_ab: list[Operand] = []
    side_bc: list[Operand] = []
    inner: list[Operand] = []
    for key, op in items:
        if key & p.a or not key:
            side_ab.append(op)
        elif key & p.c:
            side_bc.append(op)
        else:
            inner.append(op)

    def half(parts: list[Operand], sites: tuple[int, ...]) -> Operand:
        if symbolic:
            return PauliSum(tuple(t for s in parts for t in s.terms))
        return SupportedOperator(sites, embed_sum(parts, space.subspace(sites)))

    def grouping(mask: int) -> float:
        ab, bc = list(side_ab), list(side_bc)
        for i, op in enumerate(inner):
            (bc if mask >> i & 1 else ab).append(op)
        return _relative_commutator(half(ab, ab_sites), half(bc, bc_sites), space)

    best = grouping(0)
    if best > rtol:
        trials = 1 << len(inner)
        if trials > search_cap:
            raise EnumerationCapError(
                f"{len(inner)} shield-internal components need {trials} "
                f"groupings, above the cap {search_cap}")
        for mask in range(1, trials):
            best = min(best, grouping(mask))
            if best <= rtol:
                break
    return best


@dataclass(frozen=True)
class PairwiseCommutation:
    """Largest relative commutator norm over pairs of operators, and the
    pair that attains it when it exceeds the tolerance."""

    commuting: bool
    max_norm: float
    worst: tuple[int, int] | None


def pairwise_commutation(ops: Sequence[Operand], space: SiteSpace,
                         rtol: float = DEFAULT_RTOL) -> PairwiseCommutation:
    """Check all overlapping pairs; norms are relative to the operand norms.

    Operands are dense operators or, compared exactly, Pauli sums.
    """
    supports = [set(op.support) for op in ops]
    worst: tuple[int, int] | None = None
    max_norm = 0.0
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not supports[i] & supports[j]:
                continue
            rel = _relative_commutator(ops[i], ops[j], space)
            if rel > max_norm:
                max_norm, worst = rel, (i, j)
    commuting = max_norm <= rtol
    return PairwiseCommutation(commuting, max_norm, None if commuting else worst)


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class ShieldRecord:
    partition: Partition
    commuting: bool
    commutator_norm: float


@dataclass(frozen=True)
class Classification:
    """Three-way commutation structure of a model.

    ``route`` is ``"symbolic"`` when the terms were commuted as Pauli sums,
    ``"dense"`` when as matrices.  ``pairwise_worst`` names the pair of
    terms at ``pairwise_max`` when that exceeds the tolerance, and is None
    for a ``LocalCommuting`` verdict.
    """

    verdict: str
    pairwise_max: float
    pairwise_worst: tuple[int, int] | None
    records: tuple[ShieldRecord, ...]
    witness: Partition | None
    route: str


def classify(model: ModelInstance, rtol: float = DEFAULT_RTOL,
             search_cap: int = SPLIT_SEARCH_CAP) -> Classification:
    """Sort a model into one of three commutation classes.

    ``LocalCommuting``: the given terms already commute pairwise.
    ``ShieldCommutingOnly``: they do not, but across every spanning
    shielding partition some grouping of the terms into the two sides
    commutes.  ``NotShieldCommuting``: some partition admits no commuting
    grouping; that partition is the witness.  The records list the spanning
    partitions searched, in enumeration order, up to the witness; a
    ``LocalCommuting`` verdict has none.

    Pauli models are checked symbolically, and a grouping of theirs
    commutes only when its commutator cancels exactly; dense terms are
    held to ``rtol``.  Only the pairwise stage runs for locally commuting
    models, so those are classified symbolically at any system size.  The
    dense grouping search takes its commutators on the full space, so a
    dense model past the dense cap that needs it raises ``DenseCapError``.
    """
    symbolic = model.all_pauli()
    route = "symbolic" if symbolic else "dense"
    ops = [as_sum(t) if symbolic else model.term_operator(t) for t in model.terms]
    pair = pairwise_commutation(ops, model.space, rtol)
    if pair.commuting:
        return Classification(LOCAL_COMMUTING, pair.max_norm, pair.worst, (), None,
                              route)
    if not symbolic:
        require_dense(model.space.total_dim, "the dense grouping search")
    keyed = [(frozenset(model.term_support(t)), op)
             for t, op in zip(model.terms, ops)]
    tol = 0.0 if symbolic else rtol
    records = []
    for p in spanning_shield_partitions(model.graph):
        norm = _best_grouping(keyed, p, model.space, tol, search_cap)
        records.append(ShieldRecord(p, norm <= tol, norm))
        if norm > tol:
            return Classification(NOT_SHIELD_COMMUTING, pair.max_norm, pair.worst,
                                  tuple(records), p, route)
    return Classification(SHIELD_COMMUTING_ONLY, pair.max_norm, pair.worst,
                          tuple(records), None, route)


def verify_gibbs(model: ModelInstance, tol: float = DEFAULT_CMI_TOL,
                 mode: str = "spanning", route: str = "auto") -> MarkovReport:
    """Markov check of a model's Gibbs state, by certificate when one exists.

    ``route="auto"`` first classifies an all-Pauli model symbolically.  A
    ``LocalCommuting`` or ``ShieldCommutingOnly`` verdict proves every CMI
    exactly 0 at every beta, on every shielding partition at once (see the
    module docstring), so the report builds no state and lists, with CMI
    0.0, what ``classify`` checked: the spanning partitions it regrouped,
    or none when the terms commute pairwise.  A model with a dense term, a
    ``NotShieldCommuting`` verdict (which proves nothing by itself) or a
    grouping search past ``SPLIT_SEARCH_CAP`` falls through to the dense
    sweep of ``markov.is_markov_network`` over the ``mode``'s partitions,
    which ``route="dense"`` forces.
    """
    if route not in ("auto", "dense"):
        raise ValueError(f"route must be 'auto' or 'dense', got {route!r}")
    if mode not in ("spanning", "all"):
        raise ValueError(f"mode must be 'spanning' or 'all', got {mode!r}")
    if route == "auto" and model.all_pauli():
        try:
            c = classify(model, search_cap=SPLIT_SEARCH_CAP)
        except EnumerationCapError:  # no grouping search, no certificate
            c = None
        if c is not None and c.verdict != NOT_SHIELD_COMMUTING:
            records = tuple(PartitionRecord(r.partition, 0.0, 0.0 <= tol)
                            for r in c.records)
            return MarkovReport(records, 0.0, tol, mode, "certificate", c.verdict)
    return is_markov_network(gibbs(model), model.graph, tol, mode)


# ---------------------------------------------------------------------------
# the star decomposition: Hermitian commutants solved directly

@dataclass(frozen=True)
class StarDecomposition:
    """One vertex cumulant split into a free part plus per-edge pulls."""

    vertex: int
    vertex_term: SupportedOperator
    pulls: dict[int, SupportedOperator]
    residual: float


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal Hermitian basis of d x d matrices, identity first.

    Element 0 is I/sqrt(d); the rest are traceless.  For d = 2 these are the
    Pauli matrices over sqrt(2) (in the order X, Y, Z).
    """
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = inv_sqrt2
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j * inv_sqrt2
            m[k, j] = 1j * inv_sqrt2
            mats.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag).astype(complex) / math.sqrt(l * (l + 1)))
    for m in mats:
        m.setflags(write=False)
    return tuple(mats)


def _hermitian_commutant(gens: Sequence[np.ndarray], basis: np.ndarray,
                         rtol: float) -> np.ndarray:
    """Real-orthonormal coordinates (columns) of the Hermitian commutant.

    X = sum_j x_j B_j over the Hermitian basis ``basis`` (shape (d*d, d, d))
    with x real; the commutant is the null space of the positive form
    sum_g ||[X, g]||^2, cut at ``rtol`` times its largest eigenvalue.  A
    Hermitian X commuting with g also commutes with g^dag, so the commutant
    of the generators equals that of the *-algebra they generate.  With no
    generators it is everything.
    """
    n = basis.shape[0]
    if not gens:
        return np.eye(n)
    form = np.zeros((n, n))
    for g in gens:
        m = (basis @ g - g @ basis).reshape(n, -1)
        form += (m.conj() @ m.T).real
    w, v = np.linalg.eigh(form)
    return v[:, w <= rtol * max(float(w[-1]), 1e-300)]


def star_decompose(k_u: SupportedOperator, edge_cumulants: Mapping[int, SupportedOperator],
                   u: int, space: SiteSpace,
                   rtol: float = DEFAULT_RTOL) -> StarDecomposition:
    """Split K_u as h_u + sum_v G_u^v compatible with the edge cumulants.

    The pull toward edge (u, v) must commute with every other edge term at
    u, so G_u^v is sought in the Hermitian commutant of the site-u Schmidt
    factors of all edges except (u, v); h_u is forced into the commutant of
    all of them.  A residual above tolerance rejects the split.  The joint
    commutant belongs to every pull space, so after the least-squares fit
    that shared part is stripped from the pulls and folded into h_u, which
    makes the split canonical.
    """
    if k_u.support != (u,):
        raise UnknownSiteError(f"vertex cumulant must sit on ({u},), got "
                               f"{k_u.support}")
    factors: dict[int, list[np.ndarray]] = {}
    for v, kuv in edge_cumulants.items():
        if set(kuv.support) != {u, v}:
            raise UnknownSiteError(
                f"edge cumulant for ({u},{v}) has support {kuv.support}")
        factors[v] = [f.matrix for f, _, _ in op_schmidt(kuv, space, [u])]
    order = sorted(factors)
    basis = np.stack(hermitian_basis(space.dim(u)))
    joint = _hermitian_commutant([f for v in order for f in factors[v]], basis, rtol)
    pull_spans = [_hermitian_commutant(
        [f for w in order if w != v for f in factors[w]], basis, rtol) for v in order]

    def matrix(x: np.ndarray) -> np.ndarray:
        return np.tensordot(x, basis, axes=1)

    target = (basis.reshape(len(basis), -1).conj() @ k_u.matrix.reshape(-1)).real
    cols = np.hstack([joint] + pull_spans)
    coef, *_ = np.linalg.lstsq(cols, target, rcond=None)
    res = hs_norm(k_u.matrix - matrix(cols @ coef))
    scale = max(hs_norm(k_u.matrix), 1e-300)
    if res > rtol * scale:
        raise DecompositionResidualError(
            f"vertex cumulant at {u} leaves residual {res:.3e} "
            f"(scale {scale:.3e}) outside the ansatz", residual=res)

    ends = np.cumsum([s.shape[1] for s in [joint] + pull_spans])
    blocks = np.split(coef, ends[:-1])
    h_u = joint @ blocks[0]
    pulls: dict[int, SupportedOperator] = {}
    for v, span, c in zip(order, pull_spans, blocks[1:]):
        g = span @ c
        # the joint commutant sits inside every pull space; that overlap is h_u's
        shared = joint @ (joint.T @ g)
        h_u = h_u + shared
        pulls[v] = SupportedOperator((u,), matrix(g - shared))
    return StarDecomposition(u, SupportedOperator((u,), matrix(h_u)), pulls, res)


# ---------------------------------------------------------------------------
# the full decomposition of a state

@dataclass(frozen=True)
class CommutingDecomposition:
    """log rho regrouped into pairwise commuting vertex and edge terms."""

    space: SiteSpace
    graph: Graph
    vertex_terms: dict[int, SupportedOperator]
    edge_terms: dict[tuple[int, int], SupportedOperator]
    max_commutator: float
    residual: float

    def terms(self) -> tuple[SupportedOperator, ...]:
        vs = [self.vertex_terms[u] for u in sorted(self.vertex_terms)]
        es = [self.edge_terms[e] for e in sorted(self.edge_terms)]
        return tuple(vs + es)

    def to_model(self) -> ModelInstance:
        return ModelInstance(self.space, self.graph, self.terms(), beta=1.0)


def theorem4_decompose(expansion: CumulantExpansion, graph: Graph,
                       rtol: float = DEFAULT_RTOL,
                       support_rtol: float = DEFAULT_SUPPORT_RTOL) -> CommutingDecomposition:
    """Commuting vertex/edge Hamiltonian for a Markov state on a triangle-free graph.

    ``expansion`` holds the cumulants of log rho: ``model_cumulants(model)``
    for a model's Gibbs state, ``expand(logm_pd(rho.matrix), space)`` for a
    state from elsewhere.  Checks, in order: the graph is triangle-free;
    log rho has cumulants on vertices and edges only (up to
    ``support_rtol``); edge cumulants sharing a vertex commute.  Then every
    vertex cumulant is star-decomposed and the pulls folded into the edge
    terms; the scalar cumulant, when known, is shared evenly among the
    vertex terms.  The terms must commute pairwise and their cumulants
    must match the expansion's, support by support, within
    ``support_rtol`` relative to its norm; both are re-verified before
    returning.
    """
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
    edges = list(edge_cumulants)
    edge_rep = pairwise_commutation([edge_cumulants[e] for e in edges], space,
                                    rtol=support_rtol)
    if not edge_rep.commuting:
        i, j = edge_rep.worst
        raise NotMarkovError(
            f"edge cumulants on {edges[i]} and {edges[j]} do not commute "
            f"(relative norm {edge_rep.max_norm:.3e})")

    n = len(space.sites)
    k0 = float(expansion.operator(()).matrix[0, 0].real)
    vertex_terms: dict[int, SupportedOperator] = {}
    pulls: dict[tuple[int, int], list[SupportedOperator]] = {
        e: [] for e in edge_cumulants}
    for u in sorted(graph.vertices):
        k_u = expansion.operator((u,))
        local = {v: edge_cumulants[e] for e in edge_cumulants
                 for v in e if u in e and v != u}
        star = star_decompose(k_u, local, u, space, rtol=rtol)
        shift = (k0 / n) * np.eye(space.dim(u), dtype=complex)
        vertex_terms[u] = SupportedOperator((u,), star.vertex_term.matrix + shift)
        for v, g in star.pulls.items():
            pulls[tuple(sorted((u, v)))].append(g)

    final_edges = {
        e: SupportedOperator(e, embed_sum([k_uv, *pulls[e]], space.subspace(e)))
        for e, k_uv in edge_cumulants.items()}
    dec = CommutingDecomposition(space, graph, vertex_terms, final_edges,
                                 0.0, 0.0)
    rep = pairwise_commutation(dec.terms(), space, rtol=support_rtol)
    rebuilt = local_expansion(dec.terms(), space)
    scale = max(math.sqrt(expansion.total_norm_sq), 1e-300)
    residual = rebuilt.distance(expansion) / scale
    if not rep.commuting:
        raise DecompositionResidualError(
            f"regrouped terms fail to commute (relative norm {rep.max_norm:.3e})",
            residual=rep.max_norm)
    if residual > support_rtol:
        raise DecompositionResidualError(
            f"decomposition misses log rho by relative {residual:.3e}",
            residual=residual)
    return CommutingDecomposition(space, graph, vertex_terms, final_edges,
                                  rep.max_norm, residual)


# ---------------------------------------------------------------------------
# coarse-graining of models

def _maximal_cliques(graph: Graph) -> list[tuple[int, ...]]:
    all_cliques = cliques(graph)
    out = []
    sets = [set(c) for c in all_cliques]
    for i, c in enumerate(all_cliques):
        if not any(sets[i] < sets[j] for j in range(len(sets))):
            out.append(c)
    return out


def coarse_grain_model(model: ModelInstance, merge: dict[int, int]) -> ModelInstance:
    """Merge sites of a Pauli model, regrouping terms by quotient clique.

    Terms whose merged supports land in the same maximal clique of the
    quotient graph are summed into one symbolic term; Pauli letters keep
    their original qubit ids via the site composition of the merged model.
    Groupings that fail to commute are permitted here; ``classify`` on the
    result tells whether merging produced a locally commuting model.
    """
    if not model.all_pauli():
        raise ValueError("coarse graining regroups symbolic terms; "
                         "all model terms must be Pauli sums")
    qgraph, site_map = coarse_grain(model.graph, merge)
    old_comp = model.site_composition or {s: (s,) for s in model.space.sites}
    for s in model.space.sites:
        if model.space.dim(s) != 2 ** len(old_comp[s]):
            raise ValueError(
                f"site {s} has dim {model.space.dim(s)}; merged sites must "
                f"be composed of qubits")
    new_comp: dict[int, tuple[int, ...]] = {}
    for old, new in site_map.items():
        new_comp.setdefault(new, ())
        new_comp[new] = tuple(sorted(new_comp[new] + old_comp[old]))
    dims = {s: 2 ** len(qs) for s, qs in new_comp.items()}
    new_space = SiteSpace.from_dims(dims)
    maximal = _maximal_cliques(qgraph)
    grouped: dict[tuple[int, ...], PauliSum] = {}
    for t in model.terms:
        sup = {site_map[s] for s in model.term_support(t)}
        home = next(c for c in maximal if sup <= set(c))
        grouped.setdefault(home, PauliSum.zero())
        grouped[home] = grouped[home] + as_sum(t)
    terms = tuple(grouped[c] for c in sorted(grouped, key=lambda c: (len(c), c)))
    return ModelInstance(new_space, qgraph, terms, beta=model.beta,
                         site_composition=new_comp)
