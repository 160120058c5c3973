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
from functools import cached_property
from typing import Iterable, NamedTuple

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

    @cached_property
    def _index(self) -> dict[int, int]:
        return {s: a for a, s in enumerate(self.sites)}

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
        object.__setattr__(self, "support", tuple(map(int, self.support)))
        if list(self.support) != sorted(set(self.support)):
            raise UnknownSiteError("support must be sorted and duplicate-free")
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, support: tuple[int, ...], matrix: np.ndarray) -> "SupportedOperator":
        """An operator whose sorted int support and square complex matrix
        the caller already checked, without ``__post_init__``'s
        conversion and checks."""
        op = object.__new__(cls)
        vars(op).update(support=support, matrix=matrix)
        return op

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
    A space without sites is the 1x1 matrix itself, since ``einsum`` copies
    a 0-d operand instead of viewing it.
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
        view = np.einsum(full, axes, outer + inner) if space.sites else out
        view += op.matrix.reshape(dims * 2)
    return out


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


def _adjoint(m: np.ndarray) -> np.ndarray:
    """``m.mT.conj()``, past 64 x 64 in C order, so that passes over ``m``
    and its adjoint read both in the same order; copied in 64 x 64 tiles,
    whose strided reads stay in cache.  A smaller matrix is in cache
    whatever its order."""
    d = m.shape[-1]
    if d <= 64:
        return m.mT.conj()
    mh = np.empty(m.shape, dtype=m.dtype)
    for i in range(0, d, 64):
        for j in range(0, d, 64):
            np.conjugate(m[..., j:j + 64, i:i + 64].mT, out=mh[..., i:i + 64, j:j + 64])
    return mh


def check_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Validate Hermiticity within ``HERMITIAN_RTOL`` (relative to the max
    entry) and symmetrize.

    ``matrix`` is one square matrix or a stack (..., d, d), each matrix held
    to its own max entry (a non-finite one fails); the first failing one
    raises.  A float64 input stays real, any other becomes complex.
    """
    m = np.asarray(matrix)
    if m.dtype != np.float64:
        m = m.astype(complex, copy=False)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    mh = _adjoint(m)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN defect
        diff = m - mh
    # a non-finite entry leaves an inf or NaN difference, so an exactly
    # Hermitian input, such as a saved model term, has nothing to measure
    if diff.any():
        scale = np.abs(m).max(axis=(-2, -1))
        defect = np.abs(diff).max(axis=(-2, -1))
        # a NaN defect or scale fails, and so does an inf entry
        bad = ~(defect <= HERMITIAN_RTOL * scale) | np.isinf(scale)
        if bad.any():
            k = np.argmax(bad)  # the first failing matrix
            defect, scale = np.ravel(defect)[k], np.ravel(scale)[k]
            raise NonHermitianError(
                f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e} exceeds "
                f"{HERMITIAN_RTOL:.1e} * max|M| = {HERMITIAN_RTOL * scale:.3e}")
    out = m + mh
    out /= 2
    return out


def logm_pd(matrix: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a positive definite Hermitian matrix.

    The matrix must pass ``check_hermitian``.  Eigenvalues at or below
    ``LOG_FLOOR_RTOL`` times the largest eigenvalue are treated as a
    positivity violation, not clipped.  With ``cumulants.expand`` it is the
    library's route from a state, rather than a model, to a decomposition:
    ``theorem4_decompose(expand(logm_pd(rho.matrix), space), graph)`` takes
    a positive Markov state to commuting vertex and edge terms.  That route
    can stop there on a Markov state: this logarithm's rounding can lift a
    spurious Schmidt weight of an edge cumulant above ``SCHMIDT_RTOL``, and
    the extra site factor shrinks the star's commutants below the vertex
    cumulant.  ``model_cumulants`` needs no logarithm.
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


class Schmidt(NamedTuple):
    """``op = sum_k weights[k] left[k] (x) right[k]``.

    Every weight is kept, descending; ``left`` (k, dl, dl) and ``right``
    (k, dr, dr) are Hilbert-Schmidt orthonormal stacks on the two sides of
    the cut, with k = min(dl^2, dr^2).
    """

    weights: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        """Number of weights above ``SCHMIDT_RTOL`` times the largest."""
        w = self.weights
        return int(np.count_nonzero(w > SCHMIDT_RTOL * w[0])) if w.size else 0


def op_schmidt(cuts: Iterable[tuple[SupportedOperator, Iterable[int]]],
               space: SiteSpace) -> list[Schmidt]:
    """Operator Schmidt decompositions, each operator across its own cut.

    For each ``(op, left)`` the support is cut into the sites ``left`` and
    the rest.  Each operator is reshuffled so that its rows pair (row, col)
    indices of the left sites and its columns those of the right; the
    reshuffled matrices of one shape share one batched SVD.  Operators on
    site dimensions of one order with cuts of one layout are reshuffled as
    one stack.
    """
    mats: list[np.ndarray] = []
    groups: dict[tuple[tuple[int, ...], tuple[int, ...], int], list[int]] = {}
    for op, left in cuts:
        left = sorted(set(left))
        right = [s for s in op.support if s not in left]
        if not left or not right or any(s not in op.support for s in left):
            raise UnknownSiteError(
                f"cut {left} must be a nonempty proper subset of the support {op.support}")
        axes = {s: k for k, s in enumerate(op.support)}
        order = tuple(axes[s] for s in left) + tuple(axes[s] for s in right)
        dims = tuple(space.dim(s) for s in op.support)
        groups.setdefault((dims, order, len(left)), []).append(len(mats))
        mats.append(op.matrix)
    out: dict[int, Schmidt] = {}
    for (dims, order, cut), members in groups.items():
        n = len(dims)
        dl = math.prod(dims[a] for a in order[:cut])
        dr = math.prod(dims[a] for a in order[cut:])
        t = np.stack([mats[i] for i in members]).reshape((-1,) + dims * 2).transpose(
            (0,) + tuple(1 + a for a in order) + tuple(1 + n + a for a in order))
        # group (row_L, col_L) against (row_R, col_R)
        t = t.reshape(-1, dl, dr, dl, dr).transpose(0, 1, 3, 2, 4).reshape(-1, dl * dl, dr * dr)
        u, s, vh = np.linalg.svd(t, full_matrices=False)
        lefts = u.transpose(0, 2, 1).reshape(len(members), -1, dl, dl)
        rights = vh.reshape(len(members), -1, dr, dr)
        for i, si, li, ri in zip(members, s, lefts, rights):
            out[i] = Schmidt(si, li, ri)
    return [out[i] for i in range(len(mats))]
