"""Cumulant decomposition of operators over a site space.

Any operator H on sites 1..N splits uniquely as H = sum_X K_X with each K_X
supported on the subset X and traceless on every single site of X.  The
projector onto the X component is prod_{a in X}(1 - E_a) prod_{a not in X}
E_a, where E_a replaces site a by its normalized partial trace.  The
components are pairwise orthogonal in the Hilbert-Schmidt inner product, so
sum_X ||K_X||^2 = ||H||^2 with K_X embedded in the full space.

Two routes are implemented: ``cumulant`` reduces to the region and applies
the single-site projectors directly, and ``expand`` computes every component
at once by transforming into a per-site orthonormal Hermitian basis and
grouping coefficients by which sites carry a non-identity element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import UnknownSiteError
from .graphs import Graph
from .tensor import (
    SiteSpace,
    SupportedOperator,
    check_hermitian,
    embed,
    partial_trace,
)

DEFAULT_DROP_RTOL = 1e-12


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


def site_average(matrix: np.ndarray, space: SiteSpace, site: int) -> np.ndarray:
    """E_site: replace one site by identity times its normalized partial trace."""
    keep = [s for s in space.sites if s != site]
    red = partial_trace(matrix, space, keep)
    return embed(SupportedOperator(red.support, red.matrix / space.dim(site)), space)


def cumulant(matrix: np.ndarray, space: SiteSpace, region: Iterable[int]
             ) -> SupportedOperator:
    """K_X for one region, by reduction and per-site projection.

    Returns the operator on the region itself; embedding tensors identity on
    the complement.
    """
    region = tuple(sorted(set(region)))
    for s in region:
        if s not in space:
            raise UnknownSiteError(f"region site {s} not in space {space.sites}")
    comp_dim = math.prod(space.dim(s) for s in space.sites if s not in region)
    red = partial_trace(matrix, space, region)
    sub = space.subspace(region)
    m = red.matrix / comp_dim
    for a in region:
        m = m - site_average(m, sub, a)
    return SupportedOperator(region, m)


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


@dataclass(frozen=True)
class CumulantExpansion:
    """All cumulant components of one operator, keyed by support."""

    space: SiteSpace
    entries: dict[frozenset[int], SupportedOperator]
    total_norm_sq: float

    def supports(self) -> list[tuple[int, ...]]:
        return sorted((tuple(sorted(x)) for x in self.entries),
                      key=lambda x: (len(x), x))

    def operator(self, region: Iterable[int]) -> SupportedOperator:
        key = frozenset(region)
        if key in self.entries:
            return self.entries[key]
        sub = self.space.subspace(key)
        d = sub.total_dim
        return SupportedOperator(tuple(sorted(key)), np.zeros((d, d), dtype=complex))

    def norm_sq(self, region: Iterable[int]) -> float:
        """Squared Hilbert-Schmidt norm of the component embedded in the full space."""
        key = frozenset(region)
        if key not in self.entries:
            return 0.0
        op = self.entries[key]
        comp = math.prod(self.space.dim(s) for s in self.space.sites
                         if s not in key)
        return op.hs_norm() ** 2 * comp

    @property
    def parseval_residual(self) -> float:
        kept = sum(self.norm_sq(x) for x in self.entries)
        return abs(kept - self.total_norm_sq)

    def reconstruct(self) -> np.ndarray:
        d = self.space.total_dim
        out = np.zeros((d, d), dtype=complex)
        for op in self.entries.values():
            out += embed(op, self.space)
        return out


def expand(matrix: np.ndarray, space: SiteSpace,
           drop_rtol: float = DEFAULT_DROP_RTOL) -> CumulantExpansion:
    """Every cumulant component of a Hermitian operator at once.

    Components whose embedded norm is below ``drop_rtol`` times the operator
    norm are dropped; they reappear only in ``parseval_residual``.
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
                          rtol: float = 1e-10) -> CliqueSupportReport:
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
