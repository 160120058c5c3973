"""Cumulant decomposition of operators over a site space.

Any operator H on sites 1..N splits uniquely as H = sum_X K_X with each K_X
supported on the subset X and traceless on every single site of X.  The
projector onto the X component is prod_{a in X}(1 - E_a) prod_{a not in X}
E_a, where E_a replaces site a by its normalized partial trace.  The
components are pairwise orthogonal in the Hilbert-Schmidt inner product, so
sum_X ||K_X||^2 = ||H||^2 with K_X embedded in the full space.

On a full-space matrix, ``expand`` computes every component at once by
transforming into a per-site orthonormal Hermitian basis and grouping
coefficients by which sites carry a non-identity element.

A sum of local operators needs no full-space matrix.  The projectors act
site by site, so each operator splits on its own support and the parts add
per support (``local_expansion``).  ``model_cumulants`` builds the
expansion of a model's beta H, or of its log rho = beta H - log Z 1, that
way; of log rho only the scalar -log Z needs the spectrum (Leifer & Poulin,
arXiv:0708.1337, and Brown & Poulin, arXiv:1206.0755, work with these
cumulants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .errors import UnknownSiteError
from .graphs import Graph
from .markov import ModelInstance, log_partition
from .pauli import PauliSum, PauliTerm, as_sum
from .tensor import SiteSpace, SupportedOperator, check_hermitian, dense_cap

DEFAULT_DROP_RTOL = 1e-12
DEFAULT_CLIQUE_RTOL = 1e-10


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


def _coeff_tensor(matrix: np.ndarray, space: SiteSpace) -> np.ndarray:
    """Coefficient tensor of the operator in the per-site Hermitian bases."""
    dims = list(space.dims)
    n = len(dims)
    t = matrix.reshape(dims + dims)
    perm = [x for k in range(n) for x in (k, n + k)]
    t = t.transpose(perm).reshape([d * d for d in dims])
    for k, d in enumerate(dims):
        u = np.stack([b.conj().reshape(d * d) for b in hermitian_basis(d)])
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)
    return t


def _dense_from_block(block: np.ndarray, dims: list[int]) -> np.ndarray:
    """Rebuild a dense operator from traceless-basis coefficients."""
    t = block
    for d in dims:
        v = np.stack([b.reshape(d * d) for b in hermitian_basis(d)[1:]])
        t = np.tensordot(t, v, axes=([0], [0]))
    n = len(dims)
    t = t.reshape([x for d in dims for x in (d, d)])
    perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    big = math.prod(dims)
    return np.ascontiguousarray(t.transpose(perm).reshape(big, big))


def _embedded_norm_sq(space: SiteSpace, support: Iterable[int],
                      matrix: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm of an operator on ``support`` once
    embedded in the full space (identity on the other sites)."""
    comp = space.total_dim // math.prod(space.dim(s) for s in support)
    return float(np.vdot(matrix, matrix).real) * comp


@dataclass(frozen=True)
class CumulantExpansion:
    """All cumulant components of one operator, keyed by support.

    ``scalar_known`` is False when the empty-support component was not
    computed (log rho past the dense cap, where -log Z needs the
    spectrum); it is then absent from ``entries`` and ``total_norm_sq``.
    """

    space: SiteSpace
    entries: dict[frozenset[int], SupportedOperator]
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
        key = frozenset(region)
        if key not in self.entries:
            return 0.0
        op = self.entries[key]
        return _embedded_norm_sq(self.space, op.support, op.matrix)

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
    norm are dropped; ``total_norm_sq`` still counts them.
    """
    m = check_hermitian(matrix)
    if m.shape != (space.total_dim, space.total_dim):
        raise UnknownSiteError(
            f"operator shape {m.shape} does not match space dim {space.total_dim}")
    c = _coeff_tensor(m, space)
    total = float(np.sum(np.abs(c) ** 2))
    cutoff_sq = (drop_rtol ** 2) * total
    sites = space.sites
    n = len(sites)
    entries: dict[frozenset[int], SupportedOperator] = {}
    for r in range(n + 1):
        for chosen in combinations(range(n), r):
            mask = [k in chosen for k in range(n)]
            sl = tuple(slice(1, None) if inx else 0 for inx in mask)
            block = c[sl]
            mass = float(np.sum(np.abs(block) ** 2))
            if mass <= cutoff_sq:
                continue
            region = tuple(sites[k] for k in chosen)
            dims = [space.dim(s) for s in region]
            comp_scale = math.prod(
                1.0 / math.sqrt(space.dim(sites[k]))
                for k in range(n) if k not in chosen)
            if region:
                dense = _dense_from_block(np.ascontiguousarray(block), dims)
            else:
                dense = np.array([[complex(block)]])
            dense = dense * comp_scale
            dense = (dense + dense.conj().T) / 2
            entries[frozenset(region)] = SupportedOperator(region, dense)
    return CumulantExpansion(space, entries, total)


def _local_components(support: tuple[int, ...], matrix: np.ndarray,
                      space: SiteSpace) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Cumulant components of one operator, split on its own support.

    One- and two-site operators subtract normalized partial traces; larger
    supports go through ``expand`` on the support's subspace.
    """
    if len(support) > 2:
        sub = space.subspace(support)
        return [(op.support, op.matrix)
                for op in expand(matrix, sub, drop_rtol=0.0).entries.values()]
    d = matrix.shape[0]
    c = np.trace(matrix) / d
    out = [((), np.array([[c]]))]
    if len(support) == 1:
        return out + [(support, matrix - c * np.eye(d))]
    (u, v), (du, dv) = support, (space.dim(s) for s in support)
    t = matrix.reshape(du, dv, du, dv)
    eu, ev = np.eye(du), np.eye(dv)
    ru = np.einsum("ijkj->ik", t) / dv  # Tr_v / d_v
    rv = np.einsum("ijil->jl", t) / du  # Tr_u / d_u
    # K_uv = T - (ru - c) x 1 - 1 x (rv - c) - c 1
    k = (t - np.einsum("ik,jl->ijkl", ru, ev) - np.einsum("ik,jl->ijkl", eu, rv)
         + c * np.einsum("ik,jl->ijkl", eu, ev))
    return out + [((u,), ru - c * eu), ((v,), rv - c * ev), (support, k.reshape(d, d))]


def _add(parts: dict[tuple[int, ...], np.ndarray], support: tuple[int, ...],
         matrix: np.ndarray) -> None:
    parts[support] = parts[support] + matrix if support in parts else matrix


def _collect(parts: Mapping[tuple[int, ...], np.ndarray], space: SiteSpace,
             drop_rtol: float, scalar_known: bool = True) -> CumulantExpansion:
    """Expansion of support-keyed components, dropped as ``expand`` drops
    them and in ``expand``'s order (by size, then by sites)."""
    norms = {k: _embedded_norm_sq(space, k, m) for k, m in parts.items()}
    total = sum(norms.values())
    cutoff_sq = (drop_rtol ** 2) * total
    entries = {frozenset(k): SupportedOperator(k, parts[k])
               for k in sorted(parts, key=lambda k: (len(k), k))
               if norms[k] > cutoff_sq}
    return CumulantExpansion(space, entries, total, scalar_known)


def local_expansion(ops: Iterable[SupportedOperator], space: SiteSpace
                    ) -> CumulantExpansion:
    """Every nonzero cumulant component of a sum of local operators, with
    no full-space matrix: each operator is split on its own support and the
    parts are summed per support."""
    parts: dict[tuple[int, ...], np.ndarray] = {}
    for op in ops:
        for key, m in _local_components(op.support, op.matrix, space):
            _add(parts, key, m)
    return _collect(parts, space, drop_rtol=0.0)


CUMULANT_TARGETS = ("log-gibbs", "hamiltonian")


def model_cumulants(model: ModelInstance, of: str = "log-gibbs") -> CumulantExpansion:
    """Cumulants of a model's log rho = beta H - log Z 1 (``"log-gibbs"``)
    or of beta H (``"hamiltonian"``), built from its terms.

    A non-identity Pauli word is traceless on every site it touches, plain
    or composite, so it is a component already: words are grouped by site
    support into one dense matrix per group (qubits in
    ``site_composition`` order).  Dense terms are split on their own
    supports.  Every term must be Hermitian (``check_hermitian``).  Only
    the scalar -log Z needs the spectrum; ``log_partition`` supplies it
    inside the dense cap, and past the cap a log-gibbs expansion has no
    scalar entry and ``scalar_known`` is False.  Components are dropped as
    in ``expand`` (``DEFAULT_DROP_RTOL``), relative to the norm of what was
    computed.
    """
    if of not in CUMULANT_TARGETS:
        raise ValueError(f"of must be one of {CUMULANT_TARGETS}, got {of!r}")
    space = model.space
    parts: dict[tuple[int, ...], np.ndarray] = {}
    words: dict[tuple[int, ...], list[PauliTerm]] = {}
    for t in model.terms:
        if isinstance(t, SupportedOperator):
            for key, m in _local_components(t.support, check_hermitian(t.matrix), space):
                _add(parts, key, m)
        else:
            for w in as_sum(t).terms:
                words.setdefault(model.term_support(w), []).append(w)
    for group in words.values():
        op = model.term_operator(PauliSum(tuple(group)))
        _add(parts, op.support, check_hermitian(op.matrix))
    parts = {k: model.beta * m for k, m in parts.items()}
    scalar_known = of == "hamiltonian" or space.total_dim <= dense_cap()
    if of == "log-gibbs":
        scalar = parts.pop((), np.zeros((1, 1), dtype=complex))
        if scalar_known:
            parts[()] = scalar - log_partition(model)
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
