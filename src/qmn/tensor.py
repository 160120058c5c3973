"""Dense multi-site operator kernels.

Operators live on a :class:`SiteSpace`, an ordered collection of finite-
dimensional sites.  A :class:`SupportedOperator` pairs a matrix with the
sorted tuple of site ids it acts on; everything else (embedding, partial
trace, matrix logarithm, operator Schmidt decomposition) is a plain
function on numpy arrays.

Embedding and partial trace are adjoint and share one einsum layout of a
full-space matrix, in which every site outside a chosen set carries one
label on its row and its column axis: summing those labels traces the sites
out, keeping them gives the writeable view an embedded operator fills.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DenseCapError,
    DimensionMismatchError,
    NonHermitianError,
    PositivityViolationError,
    QmnError,
    UnknownSiteError,
)

HERMITIAN_RTOL = 1e-12
SCHMIDT_RTOL = 1e-11
LOG_FLOOR_RTOL = 1e-12
DEFAULT_DENSE_CAP = 4096


def dense_cap() -> int:
    """Dense dimension cap; override with the QMN_DENSE_CAP environment variable."""
    raw = os.environ.get("QMN_DENSE_CAP")
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise QmnError(f"QMN_DENSE_CAP must be a positive integer, got {raw!r}")
    return cap


def require_dense(dim: int, what: str) -> None:
    """Raise ``DenseCapError`` when ``what`` needs a dense matrix of dimension
    ``dim`` past ``dense_cap()``."""
    cap = dense_cap()
    if dim > cap:
        raise DenseCapError(f"{what} needs dimension {dim}, past the dense cap "
                            f"{cap} (set QMN_DENSE_CAP to override)")


@dataclass(frozen=True)
class SiteSpace:
    """Ordered collection of sites with their local dimensions.

    Site ids are arbitrary integers; axes are ordered by ascending id.
    """

    sites: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.sites) != len(self.dims):
            raise DimensionMismatchError("sites and dims must have equal length")
        if any(int(s) != s for s in self.sites):
            raise UnknownSiteError("site ids must be integers")
        if list(self.sites) != sorted(set(self.sites)):
            raise UnknownSiteError("site ids must be strictly increasing and unique")
        if any(d < 1 for d in self.dims):
            raise DimensionMismatchError("site dimensions must be >= 1")

    @classmethod
    def qubits(cls, n: int, first_id: int = 1) -> "SiteSpace":
        """Space of ``n`` qubits with ids ``first_id .. first_id+n-1``."""
        return cls(tuple(range(first_id, first_id + n)), (2,) * n)

    @classmethod
    def from_dims(cls, dims: dict[int, int]) -> "SiteSpace":
        """Space from a mapping of site id to local dimension."""
        order = sorted(dims)
        return cls(tuple(order), tuple(dims[s] for s in order))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __contains__(self, site: int) -> bool:
        return site in self._index

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def _index(self) -> dict[int, int]:
        idx = self.__dict__.get("_index_cache")
        if idx is None:
            idx = {s: a for a, s in enumerate(self.sites)}
            self.__dict__["_index_cache"] = idx
        return idx

    def axis(self, site: int) -> int:
        try:
            return self._index[site]
        except KeyError:
            raise UnknownSiteError(f"site {site} not in space {self.sites}") from None

    def dim(self, site: int) -> int:
        return self.dims[self.axis(site)]

    def subspace(self, sites: Iterable[int]) -> "SiteSpace":
        """Sub-collection of sites (sorted), with the same local dimensions."""
        chosen = sorted(set(sites))
        return SiteSpace(tuple(chosen), tuple(self.dim(s) for s in chosen))


@dataclass(frozen=True)
class SupportedOperator:
    """A matrix together with the sorted site ids it acts on.

    The matrix axes follow ascending site-id order.  An empty support means
    a 1x1 matrix holding a scalar (times the identity once embedded).
    """

    support: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(s) for s in self.support))
        if list(self.support) != sorted(set(self.support)):
            raise UnknownSiteError("support must be sorted and duplicate-free")
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def kron(*matrices: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not matrices:
        return np.eye(1, dtype=complex)
    out = np.asarray(matrices[0], dtype=complex)
    for m in matrices[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def _site_labels(space: SiteSpace, sites: Iterable[int]
                 ) -> tuple[list[int], list[int], list[int]]:
    """Einsum sublists ``(axes, inner, outer)`` for a matrix shaped ``space.dims * 2``.

    ``axes`` labels the row then the column axes, each site outside ``sites``
    using its row label on both; ``inner`` holds the row then the column
    labels of ``sites``, ``outer`` the shared labels of the rest.
    """
    n = len(space.sites)
    ins = [space.axis(s) for s in sorted(set(sites))]
    outer = [k for k in range(n) if k not in ins]
    axes = list(range(n)) + [k if k in outer else n + k for k in range(n)]
    return axes, ins + [n + k for k in ins], outer


def embed_sum(ops: Iterable[SupportedOperator], space: SiteSpace) -> np.ndarray:
    """Sum of operators embedded into the full space (identity on the other sites).

    Each operator is added, in order, into the block-diagonal view of a
    zero matrix that its support occupies; no full-size temporary is made.
    """
    d = space.total_dim
    out = np.zeros((d, d), dtype=complex)
    full = out.reshape(space.dims * 2)
    for op in ops:
        axes, inner, outer = _site_labels(space, op.support)
        dims = [space.dim(s) for s in op.support]
        if op.dim != math.prod(dims):
            raise DimensionMismatchError(
                f"operator dim {op.dim} does not match dims of sites {op.support} in space")
        view = np.einsum(full, axes, outer + inner)
        view += op.matrix.reshape(dims * 2)
    return out


def embed(op: SupportedOperator, space: SiteSpace) -> np.ndarray:
    """Embed an operator into the full space (identity on the other sites)."""
    return embed_sum((op,), space)


def partial_trace(matrix: np.ndarray, space: SiteSpace, keep: Iterable[int]) -> SupportedOperator:
    """Trace out every site not in ``keep``; result lives on the kept sites."""
    keep = sorted(set(keep))
    axes, inner, _ = _site_labels(space, keep)
    m = np.asarray(matrix, dtype=complex)
    d = space.total_dim
    if m.shape != (d, d):
        raise DimensionMismatchError(f"matrix shape {m.shape} does not match space dim {d}")
    dk = math.prod(space.dim(s) for s in keep)
    red = np.einsum(m.reshape(space.dims * 2), axes, inner)
    return SupportedOperator(tuple(keep), np.reshape(red, (dk, dk)))


def check_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Validate Hermiticity within ``HERMITIAN_RTOL`` (relative to the max
    entry) and symmetrize."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if defect > HERMITIAN_RTOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e} * max|M| = {HERMITIAN_RTOL * scale:.3e}")
    return (m + m.conj().T) / 2


def logm_pd(matrix: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a positive definite Hermitian matrix.

    The matrix must pass ``check_hermitian``.  Eigenvalues at or below
    ``LOG_FLOOR_RTOL`` times the largest eigenvalue are treated as a
    positivity violation, not clipped.
    """
    w, v = np.linalg.eigh(check_hermitian(matrix))
    top = float(w[-1])
    if top <= 0.0:
        raise PositivityViolationError(
            f"matrix is not positive definite: max eigenvalue {top:.3e}",
            min_eigenvalue=float(w[0]))
    floor = LOG_FLOOR_RTOL * top
    if w[0] <= floor:
        raise PositivityViolationError(
            f"matrix is numerically singular: min eigenvalue {w[0]:.3e} "
            f"<= positivity floor {floor:.3e}", min_eigenvalue=float(w[0]))
    return (v * np.log(w)) @ v.conj().T


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def op_schmidt(op: SupportedOperator, space: SiteSpace, left: Iterable[int]
               ) -> list[tuple[SupportedOperator, SupportedOperator, float]]:
    """Operator Schmidt decomposition across a bipartition of the support.

    Returns triples ``(F, G, w)`` with ``op = sum_k w_k F_k (x) G_k``, the
    ``F_k`` / ``G_k`` Hilbert-Schmidt orthonormal on the left / right sites
    and weights descending.  Weights below ``SCHMIDT_RTOL`` times the
    largest are dropped.
    """
    left = sorted(set(left))
    right = [s for s in op.support if s not in left]
    if not left or not right or any(s not in op.support for s in left):
        raise UnknownSiteError(
            f"cut {left} must be a nonempty proper subset of the support {op.support}")
    dims = [space.dim(s) for s in op.support]
    n = len(dims)
    axes = {s: k for k, s in enumerate(op.support)}
    order = [axes[s] for s in left] + [axes[s] for s in right]
    t = op.matrix.reshape(dims + dims)
    t = t.transpose(order + [n + a for a in order])
    dl = math.prod(space.dim(s) for s in left)
    dr = math.prod(space.dim(s) for s in right)
    # reshuffle: group (row_L, col_L) against (row_R, col_R)
    t = t.reshape(dl, dr, dl, dr).transpose(0, 2, 1, 3).reshape(dl * dl, dr * dr)
    u, s, vh = np.linalg.svd(t, full_matrices=False)
    out: list[tuple[SupportedOperator, SupportedOperator, float]] = []
    if s.size == 0:
        return out
    cutoff = SCHMIDT_RTOL * float(s[0])
    for k in range(s.size):
        if s[k] <= cutoff:
            break
        f = SupportedOperator(tuple(left), u[:, k].reshape(dl, dl))
        g = SupportedOperator(tuple(right), vh[k, :].reshape(dr, dr))
        out.append((f, g, float(s[k])))
    return out
