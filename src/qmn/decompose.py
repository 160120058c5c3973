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
in the normalization.  The final residual compares the returned terms'
cumulants with the expansion support by support, which is exact by
Parseval.

Every commutator the decomposition judges is taken on one site.  On a
triangle-free graph two terms meet in at most one vertex u, and the
commuting terms that meet there split it into blocks (Bravyi & Vyalyi,
quant-ph/0308021), so every question can be asked of their site-u factors.
Write a = sum_i w_i F_i (x) A_i and b = sum_j w'_j F'_j (x) B_j, their
operator Schmidt splits at u, with orthonormal A_i and B_j on sites the
other does not touch.  Then [a, b] = sum_ij w_i w'_j [F_i, F'_j] (x) A_i
(x) B_j with orthonormal partners, and ||[a, b]||^2 = sum_ij w_i^2 w'_j^2
||[F_i, F'_j]||^2 exactly, with no embedding.  One Schmidt split per edge
cumulant serves the edge check, the star commutants and the final check.

One commutation engine serves every question.  A single relative
commutator norm, ||[a, b]|| / (||a|| ||b||) in the dimension-normalized
Hilbert-Schmidt norm ||X|| / sqrt(dim X), is exact for Pauli sums and
taken on the union support for dense operators, or from their factors on
the one site they share (above); the normalization makes the three agree
and leaves the value independent of the space an operator is embedded in.
A single grouping search, run by ``classify`` on the terms of a model,
regroups them across a shielding partition: terms meeting A go to the A
side, those meeting C to the C side, and the assignments of those inside
the shield are searched, default first.  The star decomposition solves
each Hermitian commutant directly, as the real null space of X -> [X, g]
in a Hermitian basis of the site.

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

``classify`` never walks the spanning partitions of the whole graph.  Join
two terms when their supports overlap and they fail to commute; each
connected component K of that graph has a region U_K, the union of its
term supports, and is checked on the spanning partitions of the graph
induced on U_K alone.  That check is exact.  Terms in different components
commute, so any grouping across a spanning partition splits as [H_AB,
H_BC] = sum_K [H_AB^K, H_BC^K], and K's share depends only on the
partition restricted to U_K: with A or C empty there, sending all of K's
shield terms to one side clears it; otherwise the restriction is, up to
swapping A and C, one of U_K's own spanning shielding partitions.
Conversely, if the sum vanishes, each share equals minus a sum of the
other components' shares, all of which commute with the *-algebra A_K
generated by K's terms.  So the share is a commutator in A_K that is
central in A_K.  In a finite-dimensional *-algebra such a commutator is
zero: being central, it is a scalar on each of the algebra's matrix
blocks, and being a commutator, its trace on each block vanishes.  No
share can cancel against another, so a partition of U_K on which K's terms
admit no commuting grouping, with every other vertex put in B, is a
spanning partition on which the whole model admits none.  Dense terms
commute only up to ``rtol``, and the argument holds to that tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

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
    Term,
    gibbs,
    is_markov_network,
)
from .pauli import PauliSum, commutator
from .tensor import (
    Schmidt,
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

# ---------------------------------------------------------------------------
# the commutation engine: one relative norm, one grouping search

def _relative_commutator(a: Term, b: Term, space: SiteSpace) -> float:
    """||[a, b]|| / (||a|| ||b||); 0.0 when either operand is zero.

    Pauli sums are commuted exactly, so the result is 0.0 exactly when the
    commutator cancels; their norms are the dimension-normalized ones,
    sqrt(sum |c|^2).  Dense operators are compared on their union support
    in the same normalized norm, ||X|| / sqrt(dim), which multiplies the
    ratio of plain Hilbert-Schmidt norms by sqrt(dim).  For two dense
    operators that meet in one site, ``theorem4_decompose`` computes the
    same quantity from their site factors (``_shared_site_norms``).
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


def _best_grouping(items: Sequence[tuple[frozenset[int], Term]],
                   p: Partition, space: SiteSpace, rtol: float) -> float:
    """Smallest relative commutator norm of the two halves into which
    support-keyed operators regroup across a partition.

    Operators meeting A go to the AB half, the rest meeting C to the BC
    half, and a scalar stays on the AB half.  The k operators inside B
    default to the AB half; when that grouping's norm exceeds ``rtol``,
    every assignment is tried in mask order (bit i sends inner operator i
    to the BC half) until one commutes, which needs 2^k <=
    ``SPLIT_SEARCH_CAP``.  Pauli sums are summed exactly, dense operators on
    the sites of their half, which the dense cap bounds by the sites of
    ``p``.
    """
    symbolic = all(isinstance(op, PauliSum) for _, op in items)
    if not symbolic:
        require_dense(space.subspace(p.union).total_dim, "the dense grouping search")
    side_ab: list[Term] = []
    side_bc: list[Term] = []
    inner: list[Term] = []
    for key, op in items:
        if key & p.a or not key:
            side_ab.append(op)
        elif key & p.c:
            side_bc.append(op)
        else:
            inner.append(op)

    def half(parts: list[Term], sites: frozenset[int]) -> Term:
        if symbolic:
            return PauliSum(tuple(t for s in parts for t in s.terms))
        sub = space.subspace(sites)
        return SupportedOperator(sub.sites, embed_sum(parts, sub))

    def grouping(mask: int) -> float:
        ab, bc = list(side_ab), list(side_bc)
        for i, op in enumerate(inner):
            (bc if mask >> i & 1 else ab).append(op)
        return _relative_commutator(half(ab, p.a | p.b), half(bc, p.b | p.c), space)

    best = grouping(0)
    if best > rtol:
        trials = 1 << len(inner)
        if trials > SPLIT_SEARCH_CAP:
            raise EnumerationCapError(
                f"{len(inner)} shield-internal components need {trials} "
                f"groupings, above the cap {SPLIT_SEARCH_CAP}")
        for mask in range(1, trials):
            best = min(best, grouping(mask))
            if best <= rtol:
                break
    return best


@dataclass(frozen=True)
class PairwiseCommutation:
    """Largest relative commutator norm over pairs of operators, the pair
    that attains it when it exceeds the tolerance, and the norm of every
    pair with overlapping supports."""

    commuting: bool
    max_norm: float
    worst: tuple[int, int] | None
    norms: Mapping[tuple[int, int], float]


def pairwise_commutation(ops: Sequence[Term], space: SiteSpace,
                         rtol: float = DEFAULT_RTOL) -> PairwiseCommutation:
    """Check all overlapping pairs; norms are relative to the operand norms.

    Terms are dense operators or, compared exactly, Pauli sums.  The
    pairs come from a site-to-operands index, in (i, j) order.
    """
    supports = [op.support for op in ops]
    by_site: dict[int, list[int]] = {}
    for i, sup in enumerate(supports):
        for s in sup:
            by_site.setdefault(s, []).append(i)
    norms = {(i, j): _relative_commutator(ops[i], ops[j], space)
             for i, sup in enumerate(supports)
             for j in sorted({j for s in sup for j in by_site[s] if j > i})}
    worst = max(norms, key=norms.__getitem__, default=None)
    max_norm = norms.get(worst, 0.0)
    commuting = max_norm <= rtol
    return PairwiseCommutation(commuting, max_norm, None if commuting else worst,
                               norms)


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


def classify(model: ModelInstance, rtol: float = DEFAULT_RTOL) -> Classification:
    """Sort a model into one of three commutation classes.

    ``LocalCommuting``: the given terms already commute pairwise.
    ``ShieldCommutingOnly``: they do not, but across every spanning
    shielding partition some grouping of the terms into the two sides
    commutes.  ``NotShieldCommuting``: some partition admits no commuting
    grouping; that partition is the witness.

    The groupings are searched per noncommutation component, which is exact
    (see the module docstring): terms are joined when their supports overlap
    and they fail to commute, and each component's terms are regrouped
    across the spanning shielding partitions of the graph induced on its
    region, the union of their supports.  The records list those partitions
    with every vertex outside the region added to B, so each is a spanning
    shielding partition of the model's graph; they come component by
    component in order of first term, each in enumeration order, up to the
    witness.  A component whose region is a clique has no partition to
    check, and a ``LocalCommuting`` verdict has no records.  A region past
    ``graphs.ENUMERATION_CAP`` sites, or a partition that needs more than
    ``SPLIT_SEARCH_CAP`` groupings, raises ``EnumerationCapError``.

    Each route applies one tolerance to both stages.  Pauli models are
    checked symbolically: a pair or a grouping commutes only when its
    commutator cancels exactly.  Other models' ``checked_terms`` are held
    to ``rtol``, and their grouping search, taken on a region's sites, raises
    ``DenseCapError`` past the dense cap.  As in ``theorem4_decompose``, a
    dense pair is not judged when either term's normalized squared norm,
    ||t||^2 / dim, is at most ``rtol``^2 times the sum of all terms': such
    a pair counts as commuting and is left out of ``pairwise_max``.  Only
    the pairwise stage runs for locally commuting models, so those are
    classified at any system size.
    """
    symbolic = model.all_pauli()
    route = "symbolic" if symbolic else "dense"
    tol = 0.0 if symbolic else rtol
    ops = model.terms if symbolic else model.checked_terms
    judged = range(len(ops))
    if not symbolic:
        sq = [op.hs_norm() ** 2 / op.dim for op in ops]
        floor = rtol ** 2 * sum(sq)
        judged = [i for i, x in enumerate(sq) if x > floor]
    pair = pairwise_commutation([ops[i] for i in judged], model.space, tol)
    worst = pair.worst and (judged[pair.worst[0]], judged[pair.worst[1]])
    if pair.commuting:
        return Classification(LOCAL_COMMUTING, pair.max_norm, worst, (), None, route)
    component = [{i} for i in range(len(ops))]  # shared sets, one per component
    for (a, b), norm in pair.norms.items():
        i, j = judged[a], judged[b]
        if norm > tol and component[j] is not component[i]:
            component[i] |= component[j]
            for k in component[j]:
                component[k] = component[i]
    keys = [frozenset(model.term_support(t)) for t in model.terms]
    records = []
    for members in [sorted(c) for i, c in enumerate(component) if min(c) == i]:
        region = frozenset().union(*(keys[i] for i in members))
        induced = Graph(region, frozenset(e for e in itertools.combinations(
            sorted(region), 2) if e in model.graph.edges))
        items = [(keys[i], ops[i]) for i in members]
        for p in spanning_shield_partitions(induced):
            norm = _best_grouping(items, p, model.space, tol)
            whole = Partition(p.a, model.graph.vertices - p.a - p.c, p.c)
            records.append(ShieldRecord(whole, norm <= tol, norm))
            if norm > tol:
                return Classification(NOT_SHIELD_COMMUTING, pair.max_norm,
                                      worst, tuple(records), whole, route)
    return Classification(SHIELD_COMMUTING_ONLY, pair.max_norm, worst,
                          tuple(records), None, route)


def verify_gibbs(model: ModelInstance, tol: float = DEFAULT_CMI_TOL,
                 mode: str = "spanning", route: str = "auto") -> MarkovReport:
    """Markov check of a model's Gibbs state, by certificate when one exists.

    ``route="auto"`` first classifies an all-Pauli model symbolically.  A
    ``LocalCommuting`` or ``ShieldCommutingOnly`` verdict proves every CMI
    exactly 0 at every beta, on every shielding partition at once (see the
    module docstring), so the report builds no state and lists, with CMI
    0.0, what ``classify`` checked: the partitions of each noncommutation
    component's region it regrouped, widened to spanning ones by putting
    every other site in B, or none when the terms commute pairwise.  A
    model with a dense term, a ``NotShieldCommuting`` verdict (which proves
    nothing by itself), a component region past the partition enumeration
    cap or a grouping search past ``SPLIT_SEARCH_CAP`` falls through to the
    dense sweep of ``markov.is_markov_network`` over the ``mode``'s
    partitions, which ``route="dense"`` forces.
    """
    if route not in ("auto", "dense"):
        raise ValueError(f"route must be 'auto' or 'dense', got {route!r}")
    if mode not in ("spanning", "all"):
        raise ValueError(f"mode must be 'spanning' or 'all', got {mode!r}")
    if route == "auto" and model.all_pauli():
        try:
            c = classify(model)
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
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices, identity first.

    A read-only stack of shape (d*d, d, d).  Element 0 is I/sqrt(d); the
    rest are traceless.  For d = 2 these are the Pauli matrices over
    sqrt(2) (in the order X, Y, Z).
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
    basis = np.stack(mats)
    basis.setflags(write=False)
    return basis


def _edge_ends(edge_cumulants: Mapping[tuple[int, int], SupportedOperator],
               space: SiteSpace) -> dict[tuple[int, int], Schmidt]:
    """The operator Schmidt split of every edge cumulant, seen from each end.

    ``(u, v)`` keys the split of the cumulant on the edge {u, v} whose left
    factors act on u.  One SVD serves both ends of an edge, and edges of
    one site-dimension shape share one batched SVD.
    """
    for (u, v), k in edge_cumulants.items():
        if set(k.support) != {u, v}:
            raise UnknownSiteError(
                f"edge cumulant for ({u},{v}) has support {k.support}")
    splits = op_schmidt([(k, [u]) for (u, _), k in edge_cumulants.items()], space)
    ends: dict[tuple[int, int], Schmidt] = {}
    for (u, v), split in zip(edge_cumulants, splits):
        ends[u, v] = split
        ends[v, u] = Schmidt(split.weights, split.right, split.left)
    return ends


def _runs(sizes: Sequence[int]) -> np.ndarray:
    """0/1 matrix whose row i sums the i-th of consecutive runs of ``sizes``
    items (an empty run sums to zero)."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return (owner == np.arange(len(sizes))[:, None]).astype(float)


def _weighted(split: Schmidt) -> np.ndarray:
    """The left factors of a split, each times its weight."""
    return split.weights[:, None, None] * split.left


def _shared_site_norms(groups: Sequence[np.ndarray], norms: Sequence[float],
                       d: int) -> np.ndarray:
    """Relative commutator norms, as ``_relative_commutator``'s, of operators
    meeting at one site of dimension ``d``.

    ``groups[i]`` is a stack of weighted site factors x_k with a_i = sum_k
    x_k (x) B_k, the B_k Hilbert-Schmidt orthonormal on sites that no other
    a_j acts on, and ``norms[i]`` is ||a_i||.  Then [a_i, a_j] = sum_kl
    [x_k, y_l] (x) B_k (x) B'_l with orthonormal partners, so ||[a_i,
    a_j]||^2 = sum_kl ||[x_k, y_l]||^2 exactly, and one product of all
    factors at the site gives every pair.  In the dimension-normalized norm
    the sites that only one operand acts on cancel, which leaves sqrt(d).
    A pair with a zero operand gets 0.0.
    """
    y = np.concatenate(groups)
    n = len(y)
    # p[a, i, b, k] = (y_a y_b)[i, k]
    p = (y.reshape(n * d, d) @ y.transpose(1, 0, 2).reshape(d, n * d)).reshape(n, d, n, d)
    c = p - p.transpose(2, 1, 0, 3)
    runs = _runs([len(g) for g in groups])
    sq = runs @ (c.real ** 2 + c.imag ** 2).sum(axis=(1, 3)) @ runs.T
    scale = np.outer(norms, norms)
    return np.divide(np.sqrt(sq) * math.sqrt(d), scale, out=np.zeros_like(sq),
                     where=scale > 0.0)


def _commutant_forms(gens: Sequence[np.ndarray], basis: np.ndarray) -> np.ndarray:
    """The form X -> sum_g ||[X, g]||^2 of each stack of generators ``gens``,
    on the real coordinates of X in the Hermitian ``basis``; shape
    (len(gens), n, n) for n basis elements.  A Hermitian X commuting with g
    also commutes with g^dag, so each form's null space is the Hermitian
    commutant of the *-algebra its generators generate."""
    n, d = basis.shape[0], basis.shape[1]
    if not gens:
        return np.zeros((0, n, n))
    g = np.concatenate(gens)[:, None]
    m = (basis @ g - g @ basis).reshape(len(g), n, d * d)
    per_gen = (m.conj() @ m.transpose(0, 2, 1)).real.reshape(len(g), n * n)
    return (_runs([len(x) for x in gens]) @ per_gen).reshape(len(gens), n, n)


def star_decompose(k_u: SupportedOperator, ends: Mapping[int, Schmidt], u: int,
                   rtol: float = DEFAULT_RTOL) -> StarDecomposition:
    """Split K_u as h_u + sum_v G_u^v compatible with the edge cumulants.

    ``ends[v]`` is the operator Schmidt split of the cumulant on the edge
    (u, v) with its left factors on u (see ``_edge_ends``).  The pull toward
    edge (u, v) must commute with every other edge term at u, so G_u^v is
    sought in the Hermitian commutant of the site-u factors of all edges
    except (u, v), those with weights above ``SCHMIDT_RTOL`` times the
    largest; h_u is forced into the commutant of all of them.  Each edge
    end's commutant form is built once: the joint form is their sum, the
    pull form for v the joint form minus v's, and one stacked eigensolve
    cuts each null space at ``rtol`` times the form's largest eigenvalue.  A
    residual above tolerance rejects the split.  The joint commutant
    belongs to every pull space, so after the least-squares fit that shared
    part is stripped from the pulls and folded into h_u, which makes the
    split canonical.
    """
    if k_u.support != (u,):
        raise UnknownSiteError(f"vertex cumulant must sit on ({u},), got "
                               f"{k_u.support}")
    order = sorted(ends)
    basis = hermitian_basis(k_u.dim)
    n = len(basis)
    flat = basis.reshape(n, -1)
    forms = _commutant_forms([ends[v].left[:ends[v].rank] for v in order], basis)
    joint = forms.sum(axis=0)
    w, vecs = np.linalg.eigh(np.concatenate([joint[None], joint - forms]))
    spans = [vec[:, ws <= rtol * max(float(ws[-1]), 1e-300)]
             for ws, vec in zip(w, vecs)]

    def matrix(x: np.ndarray) -> np.ndarray:
        return (x @ flat).reshape(k_u.dim, k_u.dim)

    target = (flat.conj() @ k_u.matrix.reshape(-1)).real
    cols = np.hstack(spans)
    coef, *_ = np.linalg.lstsq(cols, target, rcond=None)
    res = hs_norm(k_u.matrix - matrix(cols @ coef))
    scale = max(hs_norm(k_u.matrix), 1e-300)
    if res > rtol * scale:
        raise DecompositionResidualError(
            f"vertex cumulant at {u} leaves residual {res:.3e} "
            f"(scale {scale:.3e}) outside the ansatz", residual=res)

    ends_at = np.cumsum([s.shape[1] for s in spans])
    blocks = np.split(coef, ends_at[:-1])
    joint_span = spans[0]
    h_u = joint_span @ blocks[0]
    pulls: dict[int, SupportedOperator] = {}
    for v, span, c in zip(order, spans[1:], blocks[1:]):
        g = span @ c
        # the joint commutant sits inside every pull space; that overlap is h_u's
        shared = joint_span @ (joint_span.T @ g)
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
    returning.  A term whose norm embedded in the full space is at most
    ``support_rtol`` times the expansion's, the residual's own scale, is
    not judged for commutation: rounding noise left by the star
    decomposition has no norm of its own to be relative to.

    Every commutator is taken from the site factors of the one vertex the
    two terms share (``_shared_site_norms``), with the Schmidt split
    of each edge cumulant computed once.
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
    ends = _edge_ends(edge_cumulants, space)
    star_of: dict[int, list[int]] = {u: [] for u in sorted(graph.vertices)}
    for u, v in sorted(ends):
        star_of[u].append(v)

    def edge(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    edge_norms = {e: k.hs_norm() for e, k in edge_cumulants.items()}
    norms: dict[tuple[tuple[int, int], tuple[int, int]], float] = {}
    for u, vs in star_of.items():
        if len(vs) < 2:
            continue
        es = [edge(u, v) for v in vs]
        rel = _shared_site_norms([_weighted(ends[u, v]) for v in vs],
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
    vertex_terms: dict[int, SupportedOperator] = {}
    pulls: dict[tuple[int, int], np.ndarray] = {}
    for u in sorted(graph.vertices):
        star = star_decompose(expansion.operator((u,)),
                              {v: ends[u, v] for v in star_of[u]}, u, rtol=rtol)
        shift = (k0 / n) * np.eye(space.dim(u), dtype=complex)
        vertex_terms[u] = SupportedOperator((u,), star.vertex_term.matrix + shift)
        for v, g in star.pulls.items():
            pulls[u, v] = g.matrix
    final_edges = {}
    for (u, v), k_uv in edge_cumulants.items():
        du, dv = space.dim(u), space.dim(v)
        # K_uv + G_u^v (x) I + I (x) G_v^u, axes (u row, v row, u col, v col)
        m = (k_uv.matrix.reshape(du, dv, du, dv)
             + pulls[u, v][:, None, :, None] * np.eye(dv)[:, None]
             + np.eye(du)[:, None, :, None] * pulls[v, u][:, None])
        final_edges[u, v] = SupportedOperator((u, v), m.reshape(du * dv, du * dv))

    # at u an edge term is its cumulant's weighted factors, whose partners
    # on v are traceless, plus its pull times I_v (normalized: sqrt(d_v));
    # the pull on v commutes with everything at u
    floor_sq = support_rtol ** 2 * expansion.total_norm_sq / space.total_dim
    max_commutator = 0.0
    for u, vs in star_of.items():
        ops = [vertex_terms[u]] + [final_edges[edge(u, v)] for v in vs]
        groups = [vertex_terms[u].matrix[None]] + [
            np.concatenate([_weighted(ends[u, v]),
                            math.sqrt(space.dim(v)) * pulls[u, v][None]]) for v in vs]
        op_norms = np.array([op.hs_norm() for op in ops])
        rel = _shared_site_norms(groups, op_norms, space.dim(u))
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


# ---------------------------------------------------------------------------
# coarse-graining of models

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
        new_comp[new] = tuple(sorted(new_comp.get(new, ()) + old_comp[old]))
    dims = {s: 2 ** len(qs) for s, qs in new_comp.items()}
    new_space = SiteSpace.from_dims(dims)
    found = cliques(qgraph)
    sets = [set(c) for c in found]
    maximal = [(c, s) for c, s in zip(found, sets) if not any(s < t for t in sets)]
    grouped: dict[tuple[int, ...], PauliSum] = {}
    for t in model.terms:
        sup = {site_map[s] for s in model.term_support(t)}
        home = next(c for c, s in maximal if sup <= s)
        grouped[home] = grouped.get(home, PauliSum.zero()) + t
    terms = tuple(grouped[c] for c in sorted(grouped, key=lambda c: (len(c), c)))
    return ModelInstance(new_space, qgraph, terms, beta=model.beta,
                         site_composition=new_comp)
