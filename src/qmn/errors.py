"""Exception types shared across the package."""

from __future__ import annotations


class QmnError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(QmnError):
    """Operator shape disagrees with the site space it claims to act on."""


class UnknownSiteError(QmnError):
    """A site id was used that the site space does not contain."""


class NonHermitianError(QmnError):
    """A matrix required to be Hermitian is not, beyond tolerance.

    ``term`` is the index of the model term whose matrix failed, when a
    model's admission raised it; the matrix's own error is the cause.
    """

    def __init__(self, message: str, term: int | None = None):
        super().__init__(message)
        self.term = term


class PositivityViolationError(QmnError):
    """A matrix required to be positive definite has spectrum at or below the floor."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class EnumerationCapError(QmnError):
    """Partition enumeration was requested past the combinatorial cap."""


class DenseCapError(QmnError):
    """A dense-matrix operation was requested past the dense dimension cap."""


class ModelFormatError(QmnError):
    """A model file failed validation; message carries field-level diagnostics."""


class NotTriangleFreeError(QmnError):
    """The decomposition pipeline requires a triangle-free graph."""


class NotMarkovError(QmnError):
    """The state failed a Markov-network prerequisite; message carries the witness."""


class DecompositionResidualError(QmnError):
    """A one-body cumulant does not fit the commuting-decomposition ansatz."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
