"""Commutation classification and commuting decompositions.

The pipeline realized here: a positive state that is a Markov network on a
triangle-free graph has log rho with cumulants on vertices and edges only,
edge cumulants that commute whenever they share a vertex, and vertex
cumulants K_u that split as h_u + sum_v G_u^v where G_u^v commutes with the
site-u Schmidt factors of every other edge at u and h_u commutes with all
of them.  Regrouping K_uv + G_u^v + G_v^u per edge then yields pairwise
commuting terms whose sum is log rho.  log rho enters as its cumulants.
A model's are regrouped up to the scalar -log Z, which cancels in rho =
e^{H'} / Tr e^{H'}: ``theorem4_decompose(model_cumulants(model,
of="hamiltonian"), model.graph)`` splits beta H term by term on each
term's own support, with no positivity floor, no full-space matrix and no
spectrum, so the terms are the same at every size.  The final residual
compares the returned terms' cumulants with the expansion support by
support, which is exact by Parseval.

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

The star split of each vertex cumulant is two orthogonal projections.
The pull space P_v of the edge (u, v) is the commutant of the other edges'
site-u factors, and J, the commutant of all of them, lies in every P_v.
The Hilbert-Schmidt projection onto the commutant of a *-algebra is the
average of U X U^dag over the algebra's unitary group, and the groups of
commuting algebras commute, so the projections onto the P_v commute and
any two of them multiply to the projection onto J.  Each P_v is then J (+)
Q_v with the Q_v orthogonal to each other and to J, so the minimum-norm
fit of K_u over the pull spaces, its joint part gathered in h_u, is h_u =
Pi_J K_u and G_u^v = Pi_{P_v} K_u - Pi_J K_u.

The decomposition's linear algebra is small and per site, so all sites of
one dimension run it as one stack: the star split (one eigensolve over
every commutant form, then the projections) and one table of factor
commutators that serves both commutation checks; the final edge terms and
their cumulants run once per pair of site dimensions.  At u an edge term's
factors are its cumulant's weighted factors plus one row, its pull times
sqrt(d_v), whose partner I/sqrt(d_v) on v is orthogonal to the cumulant's
traceless partners.  So ||[e_uv, e_uw]||^2 sums the squares of a table
over those rows, and the edge check's ||[K_uv, K_uw]||^2 is the exact
sub-block over the cumulants' factor rows: one table, built after the star
split that supplies the pulls, gives both, and a model whose edge
cumulants fail to commute pays for the star before its ``NotMarkovError``.
A table pads each site, with rows that enter no sum, to the largest in its
batch, and a site joins a batch only if it is at least half the batch's
largest (``_size_groups``): a chain or a grid is one batch per dimension,
and a hub of high degree a batch of its own.  The number of numpy calls follows the
site dimensions and degree classes, not the vertices.

One commutation engine serves every question.  A single relative
commutator norm, ||[a, b]|| / (||a|| ||b||) in the dimension-normalized
Hilbert-Schmidt norm ||X|| / sqrt(dim X), is exact for Pauli sums.  Dense
operators are contracted over their shared sites, never embedded on their
union support: pairs are batched by layout, the dimensions of the sites
only one of them acts on and of the sites they share, into two batched
products per layout under the ``PRODUCT_CHUNK`` cap
(``_dense_commutators``); or the norm comes from their factors on the one
site they share (above).  The normalization makes the three agree and
leaves the value independent of the space an operator is embedded in.
A single grouping search, run by ``classify`` on the terms of a model,
regroups them across a shielding partition: terms meeting A go to the A
side, those meeting C to the C side, and the assignments of those inside
the shield are searched, default first.  The star decomposition finds
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
0, so it certifies ``--partitions all`` too.  Dense terms that commute
pairwise to ``rtol`` make any grouping such a grouping to that tolerance,
and their certificate's 0.0 holds to it.  ``verify_gibbs`` reports either
certificate, listing only the partitions ``classify`` regrouped, and
builds no state.  On dense terms it runs only the pairwise stage, bounded
by the pairs of terms on their own supports: the dense grouping search
can cost more than the sweep it would replace.  Every other model takes
the dense CMI sweep of ``markov.is_markov_network``.

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

from .cumulants import (
    CumulantExpansion,
    _embedded_norm_sq,
    _local_components,
    verify_clique_support,
)
from .errors import (
    DecompositionResidualError,
    DimensionMismatchError,
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
from .pauli import PauliSum, commutator, words_commute
from .tensor import (
    Schmidt,
    SiteSpace,
    SupportedOperator,
    embed_sum,
    hs_norm,
    op_schmidt,
    require_dense,
)

DEFAULT_RTOL = 1e-9
DEFAULT_SUPPORT_RTOL = 1e-8
SPLIT_SEARCH_CAP = 4096
# entries of one chunk of products in ``_shared_site_norms`` and ``_dense_commutators``
PRODUCT_CHUNK = 2 ** 18

LOCAL_COMMUTING = "LocalCommuting"
SHIELD_COMMUTING_ONLY = "ShieldCommutingOnly"
NOT_SHIELD_COMMUTING = "NotShieldCommuting"

# ---------------------------------------------------------------------------
# the commutation engine: one relative norm, one grouping search

def _relative_commutator(a: Term, b: Term, space: SiteSpace) -> float:
    """||[a, b]|| / (||a|| ||b||); 0.0 when either operand is zero.

    Pauli sums are commuted exactly, so the result is 0.0 exactly when the
    commutator cancels; their norms are the dimension-normalized ones,
    sqrt(sum |c|^2).  Dense operators go to ``_dense_commutators`` as a
    batch of one, which contracts them over their shared sites in the same
    normalized norm, ||X|| / sqrt(dim), on their union support.  For two
    dense operators that meet in one site, ``theorem4_decompose`` computes
    the same quantity from their site factors (``_shared_site_norms``).
    """
    if isinstance(a, PauliSum) and isinstance(b, PauliSum):
        c = commutator(a, b)
        if c.is_zero:
            return 0.0
        return c.norm() / max(a.norm() * b.norm(), 1e-300)
    return _dense_commutators((a, b), [(0, 1)], space)[0]


def _moved(m: np.ndarray, dims: list[int], lead: list[int]) -> np.ndarray:
    """The matrix ``m`` on sites of dimensions ``dims`` with the sites at
    positions ``lead`` moved to the front, the others after them in order."""
    n = len(dims)
    order = lead + [k for k in range(n) if k not in lead]
    return m.reshape(dims * 2).transpose(order + [n + k for k in order]).reshape(m.shape)


def _dense_commutators(ops: Sequence[SupportedOperator], pairs: Sequence[tuple[int, int]],
                       space: SiteSpace, norms: Sequence[float] | None = None) -> list[float]:
    """``_relative_commutator`` of each pair (i, j) of dense operators
    ``ops[i]``, ``ops[j]``, in order; ``norms``, when given, are the
    operators' Hilbert-Schmidt norms, else they are taken here.

    Split a pair's union support U into the sites A that only a acts on,
    the shared sites S and the sites B that only b acts on, and hold a as a
    tensor a[alpha sigma, alpha' tau] over A (x) S and b as b[tau beta,
    sigma' beta'] over S (x) B.  Then (a (x) 1_B)(1_A (x) b) and (1_A (x)
    b)(a (x) 1_B) each contract only the shared index tau, d_U^2 d_S work
    against a product's d_U^3 on U, and the normalized ||[a, b]|| / (||a||
    ||b||) is ||ab - ba|| sqrt(d_S) / (||a|| ||b||) in plain Hilbert-Schmidt
    norms, 0.0 for a zero operand.  Both products are taken, since an
    operator need not be Hermitian.  As ||[a, b]|| = ||[b, a]||, each pair
    is taken with its smaller operand first, and the pairs of one layout
    (d_A, d_S, d_B) share two batched products, formed for at most
    ``PRODUCT_CHUNK`` product entries and at least one pair at a time.
    """
    dims = [[space.dim(s) for s in op.support] for op in ops]
    sizes = [op.dim for op in ops]
    for op, ds, d in zip(ops, dims, sizes):
        if d != math.prod(ds):
            raise DimensionMismatchError(f"operator dim {d} does not match "
                                         f"dims of sites {op.support} in space")
    if norms is None:
        norms = [hs_norm(op.matrix) for op in ops]
    out = [0.0] * len(pairs)
    layouts: dict[tuple[int, int, int], list[tuple[int, np.ndarray, np.ndarray, float]]] = {}
    for n, (i, j) in enumerate(pairs):
        if sizes[j] < sizes[i]:
            i, j = j, i
        scale = norms[i] * norms[j]
        if scale == 0.0:
            continue
        # a's sites as (a-only, shared) and b's as (shared, b-only); each is
        # its own matrix when the shared sites already end a's support and
        # start b's
        sa, sb = ops[i].support, ops[j].support
        at = [k for k, s in enumerate(sa) if s in sb]
        shared = tuple(sa[k] for k in at)
        ma = ops[i].matrix if sa[len(sa) - len(at):] == shared \
            else _moved(ops[i].matrix, dims[i], [k for k in range(len(sa)) if k not in at])
        mb = ops[j].matrix if sb[:len(at)] == shared \
            else _moved(ops[j].matrix, dims[j], [sb.index(s) for s in shared])
        d_s = math.prod(dims[i][k] for k in at)
        layouts.setdefault((sizes[i] // d_s, d_s, sizes[j] // d_s), []).append(
            (n, ma, mb, scale))
    for (d_a, d_s, d_b), members in layouts.items():
        rows = max(1, PRODUCT_CHUNK // (d_a * d_s * d_b) ** 2)
        for lo in range(0, len(members), rows):
            chunk = members[lo:lo + rows]
            k = len(chunk)
            x = np.array([m for _, m, _, _ in chunk]).reshape(k, d_a, d_s, d_a, d_s)
            y = np.array([m for _, _, m, _ in chunk]).reshape(k, d_s, d_b, d_s, d_b)
            for (n, _, _, scale), sq in zip(chunk, _commutators_sq(x, y).tolist()):
                out[n] = math.sqrt(sq) / scale * math.sqrt(d_s)
    return out


def _commutators_sq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """||ab - ba||^2 for a stack of pairs of one layout, a held as x[i,
    alpha, sigma, alpha', tau] and b as y[i, tau, beta, sigma', beta']
    (``_dense_commutators``)."""
    k, d_a, d_s = x.shape[:3]
    d_b = y.shape[2]
    # ab[alpha, sigma, alpha', beta, sigma', beta']
    #     = sum_tau a[alpha, sigma, alpha', tau] b[tau, beta, sigma', beta']
    ab = x.reshape(k, -1, d_s) @ y.reshape(k, d_s, -1)
    # ba[alpha, alpha', sigma', sigma, beta, beta']
    #     = sum_tau b[sigma, beta, tau, beta'] a[alpha, tau, alpha', sigma']
    ba = (x.transpose(0, 1, 3, 4, 2).reshape(k, -1, d_s)
          @ y.transpose(0, 3, 1, 2, 4).reshape(k, d_s, -1))
    diff = ab.reshape(k, d_a, d_s, d_a, d_b, d_s, d_b)
    diff -= ba.reshape(k, d_a, d_a, d_s, d_s, d_b, d_b).transpose(0, 1, 4, 2, 5, 3, 6)
    v = ab.reshape(k, -1).view(float)
    return np.einsum("kn,kn->k", v, v)


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
    ``p``.  Halves of Pauli sums with no anticommuting word pair commute,
    0.0, before either half is summed.
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
        if symbolic and words_commute(((t.x, t.z) for s in ab for t in s.terms),
                                      [(t.x, t.z) for s in bc for t in s.terms]):
            return 0.0
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
                         rtol: float = DEFAULT_RTOL, *,
                         norms: Sequence[float] | None = None) -> PairwiseCommutation:
    """Check all overlapping pairs; norms are relative to the operand norms.

    Terms are all dense operators or all Pauli sums, compared exactly; a
    mix raises ``ValueError``.  The pairs come from a site-to-operands
    index, in (i, j) order.  A pair of Pauli sums with no anticommuting word
    pair is 0.0 without a commutator; dense pairs go to
    ``_dense_commutators`` in one call, with the operators'
    Hilbert-Schmidt ``norms`` when the caller already took them.
    """
    supports = [op.support for op in ops]
    by_site: dict[int, list[int]] = {}
    for i, sup in enumerate(supports):
        for s in sup:
            by_site.setdefault(s, []).append(i)
    pairs = [(i, j) for i, sup in enumerate(supports)
             for j in sorted({j for s in sup for j in by_site[s] if j > i})]
    if all(isinstance(op, PauliSum) for op in ops):
        words = [[(t.x, t.z) for t in op.terms] for op in ops]
        rel = {(i, j): 0.0 if words_commute(words[i], words[j])
               else _relative_commutator(ops[i], ops[j], space) for i, j in pairs}
    elif all(isinstance(op, SupportedOperator) for op in ops):
        rel = dict(zip(pairs, _dense_commutators(ops, pairs, space, norms)))
    else:
        raise ValueError("pairwise_commutation needs terms that are all Pauli sums "
                         "or all dense operators")
    worst = max(rel, key=rel.__getitem__, default=None)
    max_norm = rel.get(worst, 0.0)
    commuting = max_norm <= rtol
    return PairwiseCommutation(commuting, max_norm, None if commuting else worst, rel)


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


def _pairwise_stage(model: ModelInstance, rtol: float) -> tuple[
        str, float, Sequence[Term], Sequence[int], PairwiseCommutation]:
    """``classify``'s pairwise stage, which ``verify_gibbs`` runs too: the
    route, the tolerance it applies, the operators, the indices of those
    judged above the norm floor and their ``pairwise_commutation``, whose
    pairs index the judged ones.  ``classify`` describes the tolerances and
    the floor; every commutator is taken on a pair's own sites."""
    symbolic = model.all_pauli()
    tol = 0.0 if symbolic else rtol
    ops = model.terms if symbolic else model.checked_terms
    judged: Sequence[int] = range(len(ops))
    norms = None
    if not symbolic:
        hs = [op.hs_norm() for op in ops]
        sq = [x ** 2 / op.dim for x, op in zip(hs, ops)]
        floor = rtol ** 2 * sum(sq)
        judged = [i for i, x in enumerate(sq) if x > floor]
        norms = [hs[i] for i in judged]
    pair = pairwise_commutation([ops[i] for i in judged], model.space, tol, norms=norms)
    return "symbolic" if symbolic else "dense", tol, ops, judged, pair


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
    a pair counts as commuting and is left out of ``pairwise_max``.  Each
    term's norm is taken once, for that floor and for the pair scales.  Only
    the pairwise stage runs for locally commuting models, so those are
    classified at any system size.
    """
    route, tol, ops, judged, pair = _pairwise_stage(model, rtol)
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

    ``route="auto"`` first looks for a commutation certificate.  An
    all-Pauli model is classified symbolically; a model with a dense term
    runs ``classify``'s pairwise stage alone, at ``DEFAULT_RTOL``.  A
    ``LocalCommuting`` or ``ShieldCommutingOnly`` verdict proves every CMI
    0 at every beta, on every shielding partition at once (see the module
    docstring), so the report builds no state and lists, with CMI 0.0,
    what ``classify`` checked: the partitions of each noncommutation
    component's region it regrouped, widened to spanning ones by putting
    every other site in B, or none when the terms commute pairwise.  Its
    ``rtol`` is the commutator tolerance that decided it: 0.0 for Pauli
    terms, whose commutators cancel exactly, and ``DEFAULT_RTOL`` for dense
    terms, so there the 0.0 holds to that tolerance.  Dense terms that do
    not commute pairwise get no grouping search here, which can cost more
    than the sweep it would replace.  Such a model, a
    ``NotShieldCommuting`` verdict (which proves nothing by itself), a
    component region past the partition enumeration cap or a grouping
    search past ``SPLIT_SEARCH_CAP`` falls through to the dense sweep of
    ``markov.is_markov_network`` over the ``mode``'s partitions, which
    ``route="dense"`` forces.
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
            return MarkovReport(records, 0.0, tol, mode, "certificate", c.verdict, 0.0)
    elif route == "auto" and _pairwise_stage(model, DEFAULT_RTOL)[-1].commuting:
        return MarkovReport((), 0.0, tol, mode, "certificate", LOCAL_COMMUTING,
                            DEFAULT_RTOL)
    return is_markov_network(gibbs(model), model.graph, tol, mode)


# ---------------------------------------------------------------------------
# the star decomposition: Hermitian commutants and two projections

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


def _owner(sizes: Sequence[int]) -> np.ndarray:
    """The run of each item, for consecutive runs of ``sizes`` items."""
    return np.repeat(np.arange(len(sizes)), sizes)


def _runs(sizes: Sequence[int]) -> np.ndarray:
    """0/1 matrix whose row i sums the i-th of consecutive runs of ``sizes``
    items (an empty run sums to zero)."""
    return (_owner(sizes) == np.arange(len(sizes))[:, None]).astype(float)


def _size_groups(sizes: Sequence[int]) -> list[list[int]]:
    """The indices of ``sizes``, largest first, in groups whose members are
    each at least half the group's largest.  Padding a member to its
    group's largest at most doubles its size.  Sites of similar size, such
    as those of a chain or a grid, form one group, and a site more than
    twice the size of the rest forms its own."""
    groups: list[list[int]] = []
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        if groups and 2 * sizes[i] >= sizes[groups[-1][0]]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _shared_site_norms(rows: np.ndarray, counts: Sequence[Sequence[int]],
                       norms: Sequence[float], head_norms: Sequence[float], d: int
                       ) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """Relative commutator norms, as ``_relative_commutator``'s, of the terms
    meeting at each of several sites of dimension ``d`` and of their heads,
    from one product table per group of sites.

    At a site the terms are a vertex term and one term per edge end.
    ``rows`` holds, site by site, the vertex term's one row and then, end
    by end, the end's ``counts[s][j]`` head rows and its one tail row.  Each
    row is a weighted site factor x_k of a term a = sum_k x_k (x) B_k, with
    the B_k Hilbert-Schmidt orthonormal on sites that no other term at the
    site acts on, and a head, the sum over its head rows alone, is such an
    operator in its own right.  Then [a, b] = sum_kl [x_k, y_l] (x) B_k (x)
    B'_l with orthonormal partners, so ||[a, b]||^2 = sum_kl ||[x_k,
    y_l]||^2 exactly, and one table of ||[x_k, y_l]||^2 over the rows at a
    site gives every pair: summed over the rows of whole terms, and over the
    head rows only, each sum over its operands' squared norms.  A term's
    pairs with itself are never read, so the table's columns leave out the
    rows of each site's largest term, and each pair is read in the order
    that holds it.  In the dimension-normalized norm the sites that only
    one operand acts on cancel, which leaves sqrt(d).  ``norms`` lists each
    term's norm, site by site with the vertex term first, and
    ``head_norms`` each end's head's; a pair with a zero operand, or of a
    term with itself, gets 0.0.

    Returns, per group of sites: the sites' indices and two (m, g, g)
    arrays of their pairs, slot 0 the vertex term and slot j the j-th end,
    of the whole terms and of the heads (the vertex slot 0.0).  A site with
    fewer than g terms leaves its last slots 0.0.  Sites of similar row
    counts (``_size_groups``) share one batched product, each padded with
    rows that enter no sum to the largest count among them, at most twice
    its own, so padding at most quadruples the work, and a vertex of much
    higher degree than the rest pads none of them.  The products are formed
    a chunk of rows at a time, at most ``PRODUCT_CHUNK`` entries, so past
    the table itself the memory is fixed.
    """
    widths = [1 + len(c) + sum(c) for c in counts]
    g_all = 1 + max(map(len, counts))
    # One share row per run of rows, site by site: the vertex row, then per
    # end its head rows and its tail row.  In its term's slot j it holds the
    # row's share 1 / ||a||^2 of the term's sum and, for a head row, in slot
    # g + j its share 1 / ||head||^2 of the head's (0 for a zero operand);
    # np.repeat spreads each over its run.  A last row of zeros stands for
    # the padding, which enters no sum.
    inv = iter([1.0 / x ** 2 if x > 0.0 else 0.0 for x in norms])
    inv_head = iter([1.0 / x ** 2 if x > 0.0 else 0.0 for x in head_norms])
    shares, lengths = [], []
    for c in counts:
        for j, heads in enumerate((0, *c)):
            row = [0.0] * (2 * g_all)
            row[j] = next(inv)
            if heads:
                shares.append(row.copy())
                shares[-1][g_all + j] = next(inv_head)
                lengths.append(heads)
            shares.append(row)
            lengths.append(1)
    share = np.repeat(shares + [[0.0] * (2 * g_all)], lengths + [1], axis=0)
    first = list(itertools.accumulate(widths, initial=0))
    out = []
    for group in _size_groups(widths):
        m, width = len(group), widths[group[0]]
        g = 1 + max(len(counts[s]) for s in group)
        # each site's rows, and its rows but those of its largest term, each
        # padded with -1, the row of zeros
        lay, cols = [], []
        for s in group:
            sizes = [1, *(x + 1 for x in counts[s])]
            big = sizes.index(max(sizes))
            at = first[s] + sum(sizes[:big])
            lay.append(range(first[s], first[s] + widths[s]))
            cols.append([*range(first[s], at), *range(at + sizes[big], first[s + 1])])
        n_cols = max(map(len, cols))
        lay, cols = (np.array([[*x, *[-1] * (size - len(x))] for x in xs])
                     for xs, size in ((lay, width), (cols, n_cols)))
        shares = share if g == g_all else share[:, np.r_[:g, g_all:g_all + g]]
        run_rows, run_cols = shares[lay], shares[cols]
        y, z = rows[lay], rows[cols]
        # sq[s, a, b] = ||[y_a, z_b]||^2 at site s, for a chunk of rows a at a time
        sq = np.empty((m, width, n_cols))
        left = z.reshape(m, n_cols * d, d)
        right = z.transpose(0, 2, 1, 3).reshape(m, d, n_cols * d)
        chunk = max(1, PRODUCT_CHUNK // (m * n_cols * d * d))
        for lo in range(0, width, chunk):
            x = y[:, lo:lo + chunk]
            c = x.shape[1]
            ab = (x.reshape(m, -1, d) @ right).reshape(m, c, d, n_cols, d)  # y_a z_b
            ba = (left @ x.transpose(0, 2, 1, 3).reshape(m, d, -1)).reshape(m, n_cols, d, c, d)
            diff = (ab - ba.transpose(0, 3, 2, 1, 4)).view(float)
            sq[:, lo:lo + c] = np.einsum("sakbl,sakbl->sab", diff, diff)
        # each pair in the order that holds it; a term commutes with itself
        sq = run_rows.transpose(0, 2, 1) @ sq @ run_cols
        rel = np.sqrt(np.maximum(sq, sq.transpose(0, 2, 1)) * d)
        rel.reshape(m, -1)[:, ::2 * g + 1] = 0.0
        out.append((group, rel[:, :g, :g], rel[:, g:, g:]))
    return out


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


def _star_stack(ks: np.ndarray, gens: Sequence[Sequence[np.ndarray]], rtol: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Star splits of the vertex cumulants ``ks``, shape (m, d, d), of m
    sites of one dimension d, as one stack.

    ``gens[i]`` lists, for each edge end at site i in order, the stack of
    that edge's site-i factors.  A site's joint form is the sum of its
    ends' commutant forms, an end's pull form the joint form minus its own,
    and one eigensolve over all m joint and e pull forms cuts each null
    space at ``rtol`` times the form's largest eigenvalue.  Projected onto
    the kept eigenvectors, K gives h = Pi_J K and G^v = Pi_{P_v} K - Pi_J K,
    the minimum-norm split (see the module docstring).  A least-squares
    solve over the joint and pull spans side by side gives the same in
    exact arithmetic, but its columns are dependent by construction and it
    amplifies their rounding.  Returns h (m, d, d), the pulls (one per edge
    end, site by site in order, (e, d, d)), and each site's residual ||K -
    h - sum_v G^v|| and scale ||K||.
    """
    m, d = ks.shape[0], ks.shape[-1]
    basis = hermitian_basis(d)
    n = len(basis)
    flat = basis.reshape(n, -1)
    degs = [len(x) for x in gens]
    owner = _owner(degs)
    per_site = _runs(degs)
    forms = _commutant_forms([x for ends in gens for x in ends], basis)
    joint = (per_site @ forms.reshape(len(forms), n * n)).reshape(m, n, n)
    w, vecs = np.linalg.eigh(np.concatenate([joint, joint[owner] - forms]))
    spans = vecs * (w <= rtol * np.maximum(w[:, -1:], 1e-300))[:, None, :]
    target = (ks.reshape(m, -1) @ flat.conj().T).real
    coords = np.concatenate([target, target[owner]])[..., None]
    proj = (spans @ (spans.transpose(0, 2, 1) @ coords))[..., 0]
    h, g = proj[:m], proj[m:] - proj[:m][owner]
    fit = h + per_site @ g
    res = np.linalg.norm((ks - (fit @ flat).reshape(m, d, d)).reshape(m, -1), axis=1)
    scale = np.maximum(np.linalg.norm(ks.reshape(m, -1), axis=1), 1e-300)
    return (h @ flat).reshape(m, d, d), (g @ flat).reshape(-1, d, d), res, scale


# ---------------------------------------------------------------------------
# the full decomposition of a state

@dataclass(frozen=True)
class CommutingDecomposition:
    """log rho, or beta H (log rho up to its scalar), in commuting terms."""

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
        """The terms as a model at beta 1, wrapped as they are, read-only:
        each is exactly Hermitian by construction, so it is not admitted
        again."""
        return ModelInstance._trusted(self.space, self.graph, self.terms())


def theorem4_decompose(expansion: CumulantExpansion, graph: Graph,
                       rtol: float = DEFAULT_RTOL,
                       support_rtol: float = DEFAULT_SUPPORT_RTOL) -> CommutingDecomposition:
    """Commuting vertex/edge Hamiltonian for a Markov state on a triangle-free graph.

    ``expansion`` holds the cumulants of log rho, or of log rho up to its
    scalar: ``model_cumulants(model, of="hamiltonian")`` (beta H) for a
    model's Gibbs state, ``expand(logm_pd(rho.matrix), space)`` for a state
    from elsewhere.  Checks, in order: the graph is triangle-free;
    log rho has cumulants on vertices and edges only (up to
    ``support_rtol``); edge cumulants sharing a vertex commute.  Then every
    vertex cumulant K_u is split by projection (``_star_stack``): h_u onto
    the Hermitian commutant of the site-u factors (weights above
    ``SCHMIDT_RTOL`` times the largest) of all edges at u, G_u^v onto that
    of all but (u, v), less h_u.  The edge algebras commute, so this is the
    minimum-norm split (see the module docstring); a residual above
    ``rtol`` times ||K_u|| names the lowest failing vertex.  The pulls are
    folded into the edge terms; the scalar cumulant, if any, is shared
    evenly among the vertex terms.  The terms must commute pairwise and
    their cumulants must match the expansion's, support by support, within
    ``support_rtol`` relative to its norm (||beta H|| for a model); both
    are re-verified before returning.  A term whose norm embedded in the
    full space is at most ``support_rtol`` times the expansion's, the
    residual's own scale, is not judged for commutation: rounding noise
    left by the star decomposition has no norm of its own to be relative to.

    Every commutator is taken from the site factors of the one vertex the
    two terms share, with the Schmidt split of each edge cumulant computed
    once.  One product table per site dimension (``_shared_site_norms``)
    serves both commutation checks: at each vertex the edge cumulants'
    weighted factors are an exact sub-block of the final terms' rows, whose
    pull rows the star split supplies (see the module docstring).  So the
    star split and the table run first, and the verdicts are then raised in
    the order above; a model whose edge cumulants fail to commute pays for
    the star split before its ``NotMarkovError``.
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
    rank = {e: ends[e].rank for e in edge_cumulants}
    star_of: dict[int, list[int]] = {u: [] for u in sorted(graph.vertices)}
    for u, v in sorted(ends):
        star_of[u].append(v)

    def edge(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    # sites of one dimension share every kernel, each in ascending order
    by_dim: dict[int, list[int]] = {}
    for u in star_of:
        by_dim.setdefault(space.dim(u), []).append(u)
    n = len(space.sites)
    k0 = expansion.operator(()).matrix[0, 0]
    at = {u: i for us in by_dim.values() for i, u in enumerate(us)}  # row in its stack
    cumulants: dict[int, np.ndarray] = {}  # per dimension: K_u, vertex terms, pulls
    vertex_stacks: dict[int, np.ndarray] = {}
    pull_stacks: dict[int, np.ndarray] = {}
    pull_at: dict[tuple[int, int], int] = {}
    failed = []
    for d, us in by_dim.items():
        cumulants[d] = np.stack([expansion.operator((u,)).matrix for u in us])
        h, pull_stacks[d], res, scale = _star_stack(
            cumulants[d], [[ends[u, v].left[:rank[edge(u, v)]] for v in star_of[u]]
                           for u in us], rtol)
        failed += [(u, float(r), float(x)) for u, r, x in zip(us, res, scale)
                   if r > rtol * x]
        vertex_stacks[d] = h + (k0.real / n) * np.eye(d)
        pull_at.update((end, i) for i, end in enumerate(
            (u, v) for u in us for v in star_of[u]))

    def pulls(d: int, ends_at: list[tuple[int, int]]) -> np.ndarray:
        return pull_stacks[d][[pull_at[e] for e in ends_at]]

    # K_uv + G_u^v (x) I + I (x) G_v^u, one stack per shape, axes (edge,
    # u row, v row, u col, v col)
    by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in edge_cumulants:
        by_shape.setdefault((space.dim(u), space.dim(v)), []).append((u, v))
    edge_stacks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    cumulant_norm: dict[tuple[int, int], float] = {}
    for (du, dv), es in by_shape.items():
        k = np.stack([edge_cumulants[e].matrix for e in es])
        pu = pulls(du, es)
        pv = pulls(dv, [(v, u) for u, v in es])
        t = (k.reshape(-1, du, dv, du, dv)
             + pu[:, :, None, :, None] * np.eye(dv)[:, None]
             + np.eye(du)[:, None, :, None] * pv[:, None, :, None, :])
        edge_stacks[du, dv] = (k, t.reshape(k.shape))
        cumulant_norm.update(zip(es, np.linalg.norm(k.reshape(len(es), -1), axis=1).tolist()))
    vertex_terms = {u: SupportedOperator._trusted((u,), vertex_stacks[space.dim(u)][at[u]])
                    for u in star_of}
    rows = {e: t for shape, es in by_shape.items() for e, t in zip(es, edge_stacks[shape][1])}
    final_edges = {e: SupportedOperator._trusted(k.support, rows[e])
                   for e, k in edge_cumulants.items()}

    # One table per site dimension serves both checks.  At u an edge term
    # is its cumulant's weighted factors, whose partners on v are traceless,
    # plus its pull times I_v (normalized: sqrt(d_v)), so the cumulant's
    # factors are the term's head and its pull row the tail; the pull on v
    # commutes with everything at u.  A term at or below the floor enters
    # with norm 0, so none of its pairs is judged; the edge check judges
    # every cumulant.
    floor_sq = support_rtol ** 2 * expansion.total_norm_sq / space.total_dim

    def judged_norms(stack: np.ndarray) -> np.ndarray:
        x = np.linalg.norm(stack.reshape(len(stack), -1), axis=1)
        return np.where(x * x / stack.shape[-1] > floor_sq, x, 0.0)

    term_norm = {u: x for d, us in by_dim.items()
                 for u, x in zip(us, judged_norms(vertex_stacks[d]).tolist())}
    term_norm.update((e, x) for shape, es in by_shape.items()
                     for e, x in zip(es, judged_norms(edge_stacks[shape][1]).tolist()))
    tables: list[tuple[list[int], np.ndarray, np.ndarray]] = []
    for d, us in by_dim.items():
        hubs = [u for u in us if star_of[u]]
        if not hubs:
            continue
        # each hub's rows, gathered from one source: its vertex term, then
        # per end the cumulant's factors times their weights and the pull
        # times sqrt(d_v)
        here = [(u, v) for u in hubs for v in star_of[u]]
        src = np.concatenate([vertex_stacks[d], pull_stacks[d]]
                             + [ends[end].left for end in here])
        take: list[int] = []
        weight: list[float] = []
        lo = len(vertex_stacks[d]) + len(pull_stacks[d])
        for u in hubs:
            take.append(at[u])
            weight.append(1.0)
            for v in star_of[u]:
                w = ends[u, v].weights
                take += range(lo, lo + len(w))
                take.append(len(vertex_stacks[d]) + pull_at[u, v])
                weight += w.tolist()
                weight.append(math.sqrt(space.dim(v)))
                lo += len(w)
        tables += [([hubs[s] for s in group], rel, heads) for group, rel, heads in
                   _shared_site_norms(
                       src[take] * np.array(weight)[:, None, None],
                       [[len(ends[u, v].weights) for v in star_of[u]] for u in hubs],
                       [x for u in hubs
                        for x in [term_norm[u]] + [term_norm[edge(u, v)] for v in star_of[u]]],
                       [cumulant_norm[edge(u, v)] for u, v in here], d)]

    # the verdicts, in order: the edge cumulants, the star, the final terms
    if tables and max(float(heads.max()) for _, _, heads in tables) > support_rtol:
        norms = {(min(edge(u, v), edge(u, w)), max(edge(u, v), edge(u, w))):
                 float(heads[i, 1 + a, 1 + b])
                 for hubs, _, heads in tables for i, u in enumerate(hubs)
                 for (a, v), (b, w) in itertools.combinations(enumerate(star_of[u]), 2)}
        worst = max(sorted(norms), key=norms.__getitem__)
        raise NotMarkovError(
            f"edge cumulants on {worst[0]} and {worst[1]} do not commute "
            f"(relative norm {norms[worst]:.3e})")
    if failed:
        u, res, scale = min(failed)
        raise DecompositionResidualError(
            f"vertex cumulant at {u} leaves residual {res:.3e} "
            f"(scale {scale:.3e}) outside the ansatz", residual=res)
    max_commutator = max([0.0] + [float(rel.max()) for _, rel, _ in tables])
    if max_commutator > support_rtol:
        raise DecompositionResidualError(
            f"regrouped terms fail to commute (relative norm {max_commutator:.3e})",
            residual=max_commutator)

    # the rebuild: the terms' cumulants against the expansion's, support by
    # support, each stack split at once
    scalar = -k0
    sq = 0.0
    rebuilt: dict[int, np.ndarray] = {}
    for d, stack in vertex_stacks.items():
        parts = _local_components((0,), {0: d}, stack)
        scalar += parts[()].sum()
        rebuilt[d] = parts[(0,)]
    for (du, dv), es in by_shape.items():
        k, t = edge_stacks[du, dv]
        parts = _local_components((0, 1), {0: du, 1: dv}, t)
        scalar += parts[()].sum()
        for key, d, ends_on in (((0,), du, [u for u, _ in es]), ((1,), dv, [v for _, v in es])):
            np.add.at(rebuilt[d], [at[u] for u in ends_on], parts[key])
        sq += _embedded_norm_sq(space, es[0], parts[0, 1] - k)
    sq += _embedded_norm_sq(space, (), np.array([scalar]))
    for d, r in rebuilt.items():
        sq += _embedded_norm_sq(space, by_dim[d][:1], r - cumulants[d])
    # cumulants on no clique, which the support check let through
    sq += sum(expansion.norm_sq(key) for key in expansion.entries
              if len(key) > 1 and key not in edge_keys)
    residual = math.sqrt(sq) / max(math.sqrt(expansion.total_norm_sq), 1e-300)
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
