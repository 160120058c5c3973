"""States, entropies, conditional mutual information and Markov checks.

A state rho on a graph G is a quantum Markov network when I(A:C|B) = 0 for
every partition in which B shields A from C.  Checking only the spanning
shielding partitions suffices: a non-spanning partition embeds into a
spanning one by expanding A and C, and strong subadditivity makes
I(A:C|B) <= I(AA':CC'|B).  Entropies are von Neumann, in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DenseCapError,
    DimensionMismatchError,
    PositivityViolationError,
    UnknownSiteError,
)
from .graphs import Graph, Partition, all_shield_partitions, spanning_shield_partitions
from .pauli import PauliSum, PauliTerm, as_sum, commutes
from .tensor import (
    SiteSpace,
    SupportedOperator,
    check_hermitian,
    dense_cap,
    embed,
    herm_eig,
    kron,
    partial_trace,
)
from . import pauli as _pauli

EIGENVALUE_FLOOR = -1e-10
TRACE_ATOL = 1e-10
DEFAULT_CMI_TOL = 1e-8

Term = Union[PauliSum, PauliTerm, SupportedOperator]


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix on a site space."""

    matrix: np.ndarray
    space: SiteSpace

    def __post_init__(self):
        m = check_hermitian(self.matrix)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise DimensionMismatchError(
                f"state of shape {m.shape} does not match space dim {d}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise DimensionMismatchError(f"state trace {tr!r} is not 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < EIGENVALUE_FLOOR:
            raise PositivityViolationError(
                f"state has eigenvalue {w[0]:.3e} below floor {EIGENVALUE_FLOOR:.0e}",
                min_eigenvalue=float(w[0]))
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_vector(cls, vec: np.ndarray, space: SiteSpace) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), space)

    @classmethod
    def maximally_mixed(cls, space: SiteSpace) -> "DensityMatrix":
        d = space.total_dim
        return cls(np.eye(d, dtype=complex) / d, space)

    def marginal(self, keep: Iterable[int]) -> "DensityMatrix":
        red = partial_trace(self.matrix, self.space, keep)
        return DensityMatrix(red.matrix, self.space.subspace(red.support))


def entropy(matrix: np.ndarray, trace_atol: float = 1e-8) -> float:
    """Von Neumann entropy in nats of a unit-trace positive matrix.

    Eigenvalues in [-1e-10, 0) are clipped to zero; anything lower, or a
    trace away from 1 beyond ``trace_atol``, is an error rather than a guess.
    """
    m = check_hermitian(matrix)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > trace_atol:
        raise DimensionMismatchError(f"entropy input has trace {tr!r}, expected 1")
    w = np.linalg.eigvalsh(m)
    if w[0] < EIGENVALUE_FLOOR:
        raise PositivityViolationError(
            f"entropy input has eigenvalue {w[0]:.3e} below floor",
            min_eigenvalue=float(w[0]))
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def cmi(rho: DensityMatrix, a: Iterable[int], b: Iterable[int], c: Iterable[int],
        _cache: dict | None = None) -> float:
    """Conditional mutual information I(A:C|B) = S(AB) + S(BC) - S(ABC) - S(B)."""
    a, b, c = set(a), set(b), set(c)
    if (a & b) or (a & c) or (b & c):
        raise UnknownSiteError("A, B, C must be disjoint")
    if not a or not c:
        raise UnknownSiteError("A and C must be nonempty")
    cache = _cache if _cache is not None else {}

    def s(sites: set[int]) -> float:
        key = frozenset(sites)
        if key not in cache:
            cache[key] = entropy(partial_trace(rho.matrix, rho.space, sites).matrix)
        return cache[key]

    return s(a | b) + s(b | c) - s(a | b | c) - s(b)


@dataclass(frozen=True)
class PartitionRecord:
    partition: Partition
    cmi: float
    passed: bool


@dataclass(frozen=True)
class MarkovReport:
    """Per-partition conditional mutual informations and the overall verdict."""

    records: tuple[PartitionRecord, ...]
    max_cmi: float
    tolerance: float
    mode: str

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def worst(self) -> PartitionRecord | None:
        if not self.records:
            return None
        return max(self.records, key=lambda r: r.cmi)

    def to_json_dict(self) -> dict:
        return {
            "partitions": [
                {
                    "A": sorted(r.partition.a),
                    "B": sorted(r.partition.b),
                    "C": sorted(r.partition.c),
                    "cmi": r.cmi,
                    "pass": r.passed,
                }
                for r in self.records
            ],
            "max_cmi": self.max_cmi,
            "verdict": "pass" if self.passed else "fail",
        }


def is_markov_network(rho: DensityMatrix, graph: Graph,
                      tol: float = DEFAULT_CMI_TOL, mode: str = "spanning",
                      ) -> MarkovReport:
    """Check I(A:C|B) <= tol over shielding partitions of the graph.

    ``mode="spanning"`` checks the spanning partitions (sufficient by strong
    subadditivity); ``mode="all"`` audits every shielding partition.
    """
    if graph.vertices != set(rho.space.sites):
        raise UnknownSiteError(
            f"graph vertices {sorted(graph.vertices)} do not match "
            f"state sites {list(rho.space.sites)}")
    if mode == "spanning":
        parts = spanning_shield_partitions(graph)
    elif mode == "all":
        parts = all_shield_partitions(graph)
    else:
        raise ValueError(f"mode must be 'spanning' or 'all', got {mode!r}")
    cache: dict = {}
    records = []
    for p in parts:
        val = cmi(rho, p.a, p.b, p.c, _cache=cache)
        records.append(PartitionRecord(p, val, val <= tol))
    max_cmi = max((r.cmi for r in records), default=0.0)
    return MarkovReport(tuple(records), max_cmi, tol, mode)


@dataclass(frozen=True)
class ModelInstance:
    """A Hamiltonian model: site space, interaction graph, clique-local terms.

    Terms are Pauli sums (letters on qubit ids) or dense operators on site
    ids.  ``site_composition`` maps a composite site to the qubit ids inside
    it; Pauli letters then refer to those inner qubits, which is what keeps
    coarse-grained models symbolic.  Atomic sites own a single qubit with
    their own id.
    """

    space: SiteSpace
    graph: Graph
    terms: tuple[Term, ...]
    beta: float = 1.0
    site_composition: dict[int, tuple[int, ...]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.graph.vertices != set(self.space.sites):
            raise UnknownSiteError("graph vertices must match space sites")
        comp = self.site_composition
        if comp is not None:
            comp = {int(s): tuple(sorted(int(q) for q in qs)) for s, qs in comp.items()}
            if set(comp) != set(self.space.sites):
                raise UnknownSiteError("site_composition must cover every site")
            qubits = [q for qs in comp.values() for q in qs]
            if len(set(qubits)) != len(qubits):
                raise UnknownSiteError("site_composition qubits must be globally unique")
            for s, qs in comp.items():
                if self.space.dim(s) != 2 ** len(qs):
                    raise DimensionMismatchError(
                        f"site {s} has dim {self.space.dim(s)} but {len(qs)} qubits")
            object.__setattr__(self, "site_composition", comp)
        for t in self.terms:
            sup = self.term_support(t)
            if not self.graph.is_clique(sup):
                raise UnknownSiteError(
                    f"term support {sorted(sup)} is not a clique of the graph")

    @property
    def qubit_owner(self) -> dict[int, int]:
        """Map from qubit id to the site that contains it."""
        if self.site_composition is None:
            return {s: s for s in self.space.sites}
        return {q: s for s, qs in self.site_composition.items() for q in qs}

    def term_support(self, term: Term) -> tuple[int, ...]:
        """Site ids a term touches (qubit ids mapped through their owners)."""
        if isinstance(term, SupportedOperator):
            return term.support
        owner = self.qubit_owner
        try:
            return tuple(sorted({owner[q] for q in as_sum(term).support}))
        except KeyError as e:
            raise UnknownSiteError(f"Pauli letter on unknown qubit {e.args[0]}") from None

    def term_operator(self, term: Term) -> SupportedOperator:
        """Dense operator for one term, on the sites it touches."""
        if isinstance(term, SupportedOperator):
            return term
        s = as_sum(term)
        sites = self.term_support(s)
        if self.site_composition is None:
            sub = self.space.subspace(sites)
            return s.to_supported(sub) if sites else \
                SupportedOperator((), np.array([[sum(t.coeff for t in s.terms
                                                     if not t.word)]], dtype=complex))
        # composite sites: build per touched site on its inner qubits
        comp = self.site_composition
        d = math.prod(self.space.dim(x) for x in sites) if sites else 1
        out = np.zeros((d, d), dtype=complex)
        for t in s.terms:
            mats = []
            for site in sites:
                for q in comp[site]:
                    letter = t.letters.get(q)
                    mats.append(_pauli._MATS[letter] if letter else np.eye(2))
            out += t.coeff * kron(*mats) if mats else t.coeff * np.eye(1)
        return SupportedOperator(sites, out)

    def hamiltonian(self) -> np.ndarray:
        """Dense sum of all terms on the full space (without the beta factor)."""
        d = self.space.total_dim
        if d > dense_cap():
            raise DenseCapError(
                f"model dimension {d} exceeds dense cap {dense_cap()} "
                f"(set QMN_DENSE_CAP to override)")
        h = np.zeros((d, d), dtype=complex)
        for t in self.terms:
            h += embed(self.term_operator(t), self.space)
        return h

    def all_pauli(self) -> bool:
        return all(isinstance(t, (PauliSum, PauliTerm)) for t in self.terms)


def gibbs(model: ModelInstance) -> DensityMatrix:
    """Gibbs state rho = exp(beta H) / Tr exp(beta H).

    The sign convention absorbs the customary -1/T into beta, so beta > 0
    weights high-eigenvalue states of H.
    """
    h = check_hermitian(model.hamiltonian())
    w, v = herm_eig(model.beta * h)
    w = w - w.max()  # stabilize the exponential; cancels in the normalization
    e = np.exp(w)
    rho = (v * (e / e.sum())) @ v.conj().T
    return DensityMatrix(rho, model.space)


def _gf2_eliminate(rows: list[int]) -> list[set[int]]:
    """Find GF(2) dependencies among bit-packed rows.

    Returns, for each row that reduces to zero against the rows before it,
    the set of input indices whose XOR vanishes.
    """
    pivots: dict[int, tuple[int, set[int]]] = {}
    deps: list[set[int]] = []
    for idx, row in enumerate(rows):
        cur, acc = row, {idx}
        while cur:
            p = cur & (-cur)
            if p not in pivots:
                pivots[p] = (cur, acc)
                break
            b, cb = pivots[p]
            cur ^= b
            acc = acc ^ cb
        if not cur:
            deps.append(acc)
    return deps


def stabilizer_state(generators: Sequence[Term], space: SiteSpace) -> DensityMatrix:
    """Uniform mixture over the joint +1 eigenspace of commuting Pauli words.

    Generators must be Hermitian Pauli words with coefficient +1 or -1,
    pairwise commuting and independent; the state is the normalized
    projector prod_k (1 + g_k)/2.
    """
    gens: list[PauliTerm] = []
    for g in generators:
        s = as_sum(g) if not isinstance(g, SupportedOperator) else None
        if s is None or len(s.terms) != 1:
            raise ValueError("stabilizer generators must be single Pauli words")
        t = s.terms[0]
        if t.coeff not in (1 + 0j, -1 + 0j):
            raise ValueError(f"generator coefficient must be +1 or -1, got {t.coeff}")
        gens.append(t)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not commutes(gens[i], gens[j]):
                raise ValueError(
                    f"generators {i} and {j} anticommute: "
                    f"{gens[i]} vs {gens[j]}")
    # GF(2) independence: pack x|z bits per site
    pos = {s: k for k, s in enumerate(space.sites)}
    rows = []
    for t in gens:
        bits = 0
        for site, letter in t.word:
            if site not in pos:
                raise UnknownSiteError(f"generator site {site} not in space")
            k = pos[site]
            if letter in ("X", "Y"):
                bits |= 1 << (2 * k)
            if letter in ("Z", "Y"):
                bits |= 1 << (2 * k + 1)
        rows.append(bits)
    deps = _gf2_eliminate(rows)
    if deps:
        subset = sorted(deps[0])
        prod = PauliTerm.identity(1.0)
        for k in subset:
            prod = prod * gens[k]
        if prod.coeff == -1 + 0j:
            raise ValueError(
                f"inconsistent generators (zero projector): product of "
                f"{subset} is -identity")
        raise ValueError(f"dependent generators: product of {subset} is identity")
    d = space.total_dim
    if d > dense_cap():
        raise DenseCapError(f"stabilizer state dim {d} exceeds dense cap {dense_cap()}")
    proj = np.eye(d, dtype=complex)
    for t in gens:
        proj = (proj + proj @ embed(t.to_supported(space), space)) / 2
    tr = float(np.trace(proj).real)
    want = d / 2 ** len(gens)
    if abs(tr - want) > 1e-6 * want:
        raise ValueError(f"projector rank {tr} differs from expected {want}")
    return DensityMatrix(proj / tr, space)
