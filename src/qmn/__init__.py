"""Verify, classify and decompose quantum Markov networks.

The package checks whether a Gibbs state satisfies I(A:C|B) = 0 over the
shielding partitions of its interaction graph, expands log rho into
cumulant components keyed by support, sorts models into commutation
classes, and regroups Markov states on triangle-free graphs into pairwise
commuting vertex and edge Hamiltonians.
"""

from .cumulants import (
    CumulantExpansion,
    expand,
    model_cumulants,
    verify_clique_support,
)
from .decompose import (
    Classification,
    CommutingDecomposition,
    classify,
    coarse_grain_model,
    theorem4_decompose,
    verify_gibbs,
)
from .errors import QmnError
from .graphs import Graph, Partition, spanning_shield_partitions
from .markov import (
    DensityMatrix,
    MarkovReport,
    ModelInstance,
    cmi,
    entropy,
    gibbs,
    is_markov_network,
)
from .pauli import PauliSum, PauliTerm, commutator, parse_sum, parse_term
from .tensor import SiteSpace, SupportedOperator, partial_trace

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CommutingDecomposition",
    "CumulantExpansion",
    "DensityMatrix",
    "Graph",
    "MarkovReport",
    "ModelInstance",
    "Partition",
    "PauliSum",
    "PauliTerm",
    "QmnError",
    "SiteSpace",
    "SupportedOperator",
    "classify",
    "cmi",
    "coarse_grain_model",
    "commutator",
    "entropy",
    "expand",
    "gibbs",
    "is_markov_network",
    "model_cumulants",
    "parse_sum",
    "parse_term",
    "partial_trace",
    "spanning_shield_partitions",
    "theorem4_decompose",
    "verify_clique_support",
    "verify_gibbs",
    "__version__",
]
