"""Cumulant decomposition of operators over a site space.

Any operator H on sites 1..N splits uniquely as H = sum_X K_X with each K_X
supported on the subset X and traceless on every single site of X.  The
projector onto the X component is prod_{a in X}(1 - E_a) prod_{a not in X}
E_a, where E_a replaces site a by its normalized partial trace.  The
components are pairwise orthogonal in the Hilbert-Schmidt inner product, so
sum_X ||K_X||^2 = ||H||^2 with K_X embedded in the full space.

Since the projectors are products of per-site maps, one split computes
every component: for each site a in turn, every part splits into E_a of it,
which no longer acts on a, and the rest, which is traceless on a.  After
the last site each part is the component on the sites it kept.  ``expand``
runs that split on a full-space matrix.  A sum of local operators needs no
full-space matrix: each operator splits on its own support and the parts
add per support, and a stack of operators on the same sites splits in one
pass.  A Pauli word needs no split at all: every letter is traceless, so a
word is its own component on the sites it acts on.  ``model_cumulants``
builds the expansion of a model's beta H, or of its log rho = beta H - log
Z 1, that way, summing the Pauli words per support and splitting only the
dense terms, and ``theorem4_decompose`` the cumulants of its regrouped
terms; of log rho only the scalar -log Z needs the spectrum (Leifer &
Poulin, arXiv:0708.1337, and Brown & Poulin, arXiv:1206.0755, work with
these cumulants).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DenseCapError, UnknownSiteError
from .graphs import Graph
from .markov import ModelInstance, log_partition
from .tensor import SiteSpace, SupportedOperator, check_hermitian

DEFAULT_DROP_RTOL = 1e-12
DEFAULT_CLIQUE_RTOL = 1e-10


def _embedded_norm_sq(space: SiteSpace, support: Iterable[int],
                      matrix: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm of an operator on ``support`` once
    embedded in the full space (identity on the other sites)."""
    comp = space.total_dim // math.prod(space.dim(s) for s in support)
    return float(np.vdot(matrix, matrix).real) * comp


@dataclass(frozen=True)
class CumulantExpansion:
    """All cumulant components of one operator, keyed by support.

    ``norms`` holds each entry's squared Hilbert-Schmidt norm embedded in
    the full space.  ``scalar_known`` is False when the empty-support
    component was not computed (log rho past the dense cap, where -log Z
    needs the spectrum); it is then absent from ``entries`` and
    ``total_norm_sq``.
    """

    space: SiteSpace
    entries: dict[frozenset[int], SupportedOperator]
    norms: dict[frozenset[int], float]
    total_norm_sq: float
    scalar_known: bool = True

    def supports(self) -> list[tuple[int, ...]]:
        return sorted((tuple(sorted(x)) for x in self.entries),
                      key=lambda x: (len(x), x))

    def operator(self, region: Iterable[int]) -> SupportedOperator:
        key = frozenset(region)
        if key in self.entries:
            return self.entries[key]
        d = self.space.subspace(key).total_dim
        return SupportedOperator(tuple(sorted(key)), np.zeros((d, d), dtype=complex))

    def norm_sq(self, region: Iterable[int]) -> float:
        """Squared Hilbert-Schmidt norm of the component embedded in the full space."""
        return self.norms.get(frozenset(region), 0.0)

    def distance(self, other: "CumulantExpansion") -> float:
        """Hilbert-Schmidt distance of the two operators, support by support.

        Exact by Parseval, since the components are orthogonal; no
        full-space matrix is formed.
        """
        sq = 0.0
        for key in self.entries.keys() | other.entries.keys():
            diff = self.operator(key).matrix - other.operator(key).matrix
            sq += _embedded_norm_sq(self.space, key, diff)
        return math.sqrt(sq)


def expand(matrix: np.ndarray, space: SiteSpace,
           drop_rtol: float = DEFAULT_DROP_RTOL) -> CumulantExpansion:
    """Every cumulant component of a Hermitian operator at once.

    Components whose embedded norm is below ``drop_rtol`` times the operator
    norm are dropped; ``total_norm_sq`` still counts them.  Applied to
    ``tensor.logm_pd(rho.matrix)`` it is the library's route from a state,
    rather than a model, to ``decompose.theorem4_decompose``: a positive
    Markov state to commuting vertex and edge terms, a route that can stop
    on a Markov state at the logarithm's rounding (see ``tensor.logm_pd``).
    """
    m = check_hermitian(matrix)
    if m.shape != (space.total_dim, space.total_dim):
        raise UnknownSiteError(
            f"operator shape {m.shape} does not match space dim {space.total_dim}")
    dims = dict(zip(space.sites, space.dims))
    return _collect(_local_components(space.sites, dims, m), space, drop_rtol)


def _local_components(support: tuple[int, ...], dims: Mapping[int, int],
                      matrix: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Every cumulant component of one operator, split on its own support.

    ``dims`` maps each site of the support to its dimension.  ``matrix``
    may carry leading axes, a stack of operators on the same sites, each
    split on its own.  For each site a of the support in turn, every part
    splits into its normalized partial trace over a and the rest, which is
    traceless on a.
    """
    lead = list(matrix.shape[:-2])
    b = len(lead)
    parts = {tuple(support): matrix}
    for a in support:
        d, eye = dims[a], np.eye(dims[a])
        split: dict[tuple[int, ...], np.ndarray] = {}
        for key, m in parts.items():
            n, i = len(key), key.index(a)
            shape = lead + [dims[s] for s in key] * 2
            t = m.reshape(shape)
            trace = np.trace(t, axis1=b + i, axis2=b + n + i) / d
            split[key[:i] + key[i + 1:]] = trace.reshape(m.shape[:-2] + (m.shape[-1] // d, -1))
            # the trace embedded back: identity on site a's row and column axes
            shape[b + i] = shape[b + n + i] = 1
            eye_shape = [d if x in (i, n + i) else 1 for x in range(2 * n)]
            split[key] = (t - trace.reshape(shape) * eye.reshape(eye_shape)).reshape(m.shape)
        parts = split
    return parts


def _collect(parts: Mapping[tuple[int, ...], np.ndarray], space: SiteSpace,
             drop_rtol: float, scalar_known: bool = True) -> CumulantExpansion:
    """Expansion of support-keyed components, in order of size, then of
    sites, with their embedded norms; those whose norm is below
    ``drop_rtol`` times the total are dropped, and the total still counts
    them."""
    norms = {k: _embedded_norm_sq(space, k, m) for k, m in parts.items()}
    total = sum(norms.values())
    cutoff_sq = (drop_rtol ** 2) * total
    kept = [k for k in sorted(parts, key=lambda k: (len(k), k)) if norms[k] > cutoff_sq]
    # a part is a square complex matrix on its sorted support, or a real one
    # split from a real operator
    entries = {frozenset(k): SupportedOperator._trusted(k, parts[k].astype(complex, copy=False))
               for k in kept}
    return CumulantExpansion(space, entries, {frozenset(k): norms[k] for k in kept},
                             total, scalar_known)


CUMULANT_TARGETS = ("log-gibbs", "hamiltonian")


def model_cumulants(model: ModelInstance, of: str = "log-gibbs") -> CumulantExpansion:
    """Cumulants of a model's log rho = beta H - log Z 1 (``"log-gibbs"``)
    or of beta H (``"hamiltonian"``), built from its terms.

    The cumulants are read off the model's ``blocks``: a block of Pauli
    words is the component on its own sites as it stands, since every
    letter is traceless, and a dense term, as ``ModelInstance`` admitted
    it, is split on its own support.  The parts add per support; no Pauli
    term is made dense as a whole or split.  Only the scalar -log Z needs
    the spectrum; ``log_partition`` supplies it from the same blocks, and
    where it raises ``DenseCapError`` (past the dense
    cap, or past its square for a diagonal model) a log-gibbs expansion
    has no scalar entry and ``scalar_known`` is False.  Components are
    dropped as in ``expand`` (``DEFAULT_DROP_RTOL``), relative to the norm
    of what was computed.
    """
    if of not in CUMULANT_TARGETS:
        raise ValueError(f"of must be one of {CUMULANT_TARGETS}, got {of!r}")
    space = model.space
    dims = dict(zip(space.sites, space.dims))
    parts: dict[tuple[int, ...], np.ndarray | None] = {}
    for op, whole in model.blocks:
        if whole:
            # keyed where a split of the block would first meet each subset
            # of its sites, so the norms add up as a term-by-term split's
            for bits in itertools.product((False, True), repeat=len(op.support)):
                parts.setdefault(tuple(itertools.compress(op.support, bits)), None)
            split = {op.support: op.matrix}
        else:
            split = _local_components(op.support, dims, op.matrix)
        for key, m in split.items():
            parts[key] = m if parts.get(key) is None else parts[key] + m
    parts = {k: model.beta * m for k, m in parts.items() if m is not None}
    scalar_known = True
    if of == "log-gibbs":
        scalar = parts.pop((), np.zeros((1, 1), dtype=complex))
        try:
            parts[()] = scalar - log_partition(model)
        except DenseCapError:
            scalar_known = False
    return _collect(parts, space, DEFAULT_DROP_RTOL, scalar_known)


@dataclass(frozen=True)
class CliqueSupportReport:
    """Where an expansion's weight sits relative to the cliques of a graph."""

    passed: bool
    off_clique_norm: float
    total_norm: float
    witnesses: tuple[tuple[tuple[int, ...], float], ...]

    @property
    def worst(self) -> tuple[tuple[int, ...], float] | None:
        return self.witnesses[0] if self.witnesses else None


def verify_clique_support(expansion: CumulantExpansion, graph: Graph,
                          rtol: float = DEFAULT_CLIQUE_RTOL) -> CliqueSupportReport:
    """Check that every non-negligible component sits on a clique of the graph.

    The verdict compares the combined off-clique norm against ``rtol`` times
    the operator norm; witnesses list the offending supports, largest first.
    """
    if set(expansion.space.sites) != graph.vertices:
        raise UnknownSiteError(
            f"expansion sites {list(expansion.space.sites)} do not match "
            f"graph vertices {sorted(graph.vertices)}")
    total = math.sqrt(expansion.total_norm_sq)
    off_sq = 0.0
    witnesses = []
    for key in expansion.entries:
        if graph.is_clique(key):
            continue
        mass = expansion.norm_sq(key)
        off_sq += mass
        witnesses.append((tuple(sorted(key)), math.sqrt(mass)))
    witnesses.sort(key=lambda w: (-w[1], w[0]))
    off = math.sqrt(off_sq)
    return CliqueSupportReport(off <= rtol * total, off, total, tuple(witnesses))
