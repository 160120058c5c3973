"""States, entropies, conditional mutual information and Markov checks.

A state rho on a graph G is a quantum Markov network when I(A:C|B) = 0 for
every partition in which B shields A from C.  Checking only the spanning
shielding partitions suffices: a non-spanning partition embeds into a
spanning one by expanding A and C, and strong subadditivity makes
I(A:C|B) <= I(AA':CC'|B).  Entropies are von Neumann, in nats.

For a Gibbs state the CMIs often need no state at all.  If across a
spanning shielding partition H = H_AB + H_BC with [H_AB, H_BC] = 0, then
rho = e^{beta H_AB} e^{beta H_BC} / Z, and the two commuting factors split
B into blocks B_j^L (x) B_j^R (Bravyi & Vyalyi, quant-ph/0308021), which is
the zero-CMI form of Hayden, Jozsa, Petz & Winter (quant-ph/0304007): the
CMI is exactly 0 at every beta.  A split on every spanning partition
covers every shielding partition too, since each extends to a spanning one
and strong subadditivity bounds its CMI by that partition's 0.
``decompose.verify_gibbs`` takes that route when ``classify`` finds such
splits, and this module's dense sweep otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    PositivityViolationError,
    UnknownSiteError,
)
from .graphs import Graph, Partition, shield_partitions
from .pauli import PauliSum, PauliTerm, as_sum, commutes
from .tensor import (
    SiteSpace,
    SupportedOperator,
    check_hermitian,
    embed,
    embed_sum,
    partial_trace,
    require_dense,
)

EIGENVALUE_FLOOR = -1e-10
TRACE_ATOL = 1e-10
ENTROPY_TRACE_ATOL = 1e-8
DEFAULT_CMI_TOL = 1e-8

Term = Union[PauliSum, PauliTerm, SupportedOperator]


def _checked_spectrum(matrix: np.ndarray, trace_atol: float, trace_error: str,
                      floor_error: str) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized matrix and ascending eigenvalues after the Hermitian, trace
    and ``EIGENVALUE_FLOOR`` checks; error texts take ``tr`` and ``w``."""
    m = check_hermitian(matrix)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > trace_atol:
        raise DimensionMismatchError(trace_error.format(tr=tr))
    w = np.linalg.eigvalsh(m)
    if w[0] < EIGENVALUE_FLOOR:
        raise PositivityViolationError(floor_error.format(w=w[0]),
                                       min_eigenvalue=float(w[0]))
    return m, w


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix on a site space."""

    matrix: np.ndarray
    space: SiteSpace

    def __post_init__(self):
        shape = np.shape(self.matrix)
        d = self.space.total_dim
        if shape != (d, d):
            raise DimensionMismatchError(
                f"state of shape {shape} does not match space dim {d}")
        m, _ = _checked_spectrum(
            self.matrix, TRACE_ATOL, "state trace {tr!r} is not 1",
            f"state has eigenvalue {{w:.3e}} below floor {EIGENVALUE_FLOOR:.0e}")
        object.__setattr__(self, "matrix", m)


def entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy in nats of a unit-trace positive matrix.

    Eigenvalues in [-1e-10, 0) are clipped to zero; anything lower, or a
    trace away from 1 beyond ``ENTROPY_TRACE_ATOL``, is an error rather than
    a guess.
    """
    _, w = _checked_spectrum(
        matrix, ENTROPY_TRACE_ATOL, "entropy input has trace {tr!r}, expected 1",
        "entropy input has eigenvalue {w:.3e} below floor")
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
    """Per-partition conditional mutual informations and the overall verdict.

    ``route`` names how the CMIs were obtained: ``"dense"`` computes them
    from the state, ``"certificate"`` takes the exact 0.0 that a
    commutation certificate (``certificate``, the classify verdict) proves.
    """

    records: tuple[PartitionRecord, ...]
    max_cmi: float
    tolerance: float
    mode: str
    route: str = "dense"
    certificate: str | None = None

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
                      tol: float = DEFAULT_CMI_TOL,
                      mode: str = "spanning") -> MarkovReport:
    """Check I(A:C|B) <= tol over shielding partitions of the graph.

    ``mode="spanning"`` checks the spanning partitions (sufficient by strong
    subadditivity); ``mode="all"`` audits every shielding partition.
    """
    if graph.vertices != set(rho.space.sites):
        raise UnknownSiteError(
            f"graph vertices {sorted(graph.vertices)} do not match "
            f"state sites {list(rho.space.sites)}")
    cache: dict = {}
    records = []
    for p in shield_partitions(graph, mode):
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
        comp = self.site_composition or {x: (x,) for x in sites}
        if any(self.space.dim(x) != 2 ** len(comp[x]) for x in sites):
            raise DimensionMismatchError(
                f"Pauli term on sites {list(sites)}: site dims must be 2**qubits")
        return SupportedOperator(sites, s.matrix([q for x in sites for q in comp[x]]))

    def hamiltonian(self) -> np.ndarray:
        """Dense sum of all terms on the full space (without the beta factor)."""
        require_dense(self.space.total_dim, "the model's Hamiltonian")
        return embed_sum((self.term_operator(t) for t in self.terms), self.space)

    def all_pauli(self) -> bool:
        return all(isinstance(t, (PauliSum, PauliTerm)) for t in self.terms)


def gibbs(model: ModelInstance) -> DensityMatrix:
    """Gibbs state rho = exp(beta H) / Tr exp(beta H).

    The sign convention absorbs the customary -1/T into beta, so beta > 0
    weights high-eigenvalue states of H.
    """
    w, v = np.linalg.eigh(model.beta * check_hermitian(model.hamiltonian()))
    w = w - w.max()  # stabilize the exponential; cancels in the normalization
    e = np.exp(w)
    rho = (v * (e / e.sum())) @ v.conj().T
    return DensityMatrix(rho, model.space)


def log_partition(model: ModelInstance) -> float:
    """log Z = log Tr e^{beta H}, a log-sum-exp over one ``eigvalsh`` of beta H.

    H is checked by ``check_hermitian``.  When its imaginary part is exactly
    zero, the real symmetric matrix is diagonalized instead: the spectrum
    is the same, and a real ``eigvalsh`` costs a fraction of a complex one.
    """
    h = check_hermitian(model.hamiltonian())
    if not h.imag.any():
        h = h.real
    w = np.linalg.eigvalsh(model.beta * h)
    return float(w[-1] + np.log(np.sum(np.exp(w - w[-1]))))


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

    Generators must be Hermitian Pauli words with coefficient +1 or -1 on
    qubit sites, pairwise commuting and independent; the state is the
    normalized projector prod_k (1 + g_k)/2.
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
    # GF(2) independence of the symplectic rows x | z
    shift = max(((t.x | t.z).bit_length() for t in gens), default=0)
    deps = _gf2_eliminate([t.x | t.z << shift for t in gens])
    if deps:
        subset = sorted(deps[0])
        prod = PauliTerm(1.0)
        for k in subset:
            prod = prod * gens[k]
        if prod.coeff == -1 + 0j:
            raise ValueError(
                f"inconsistent generators (zero projector): product of "
                f"{subset} is -identity")
        raise ValueError(f"dependent generators: product of {subset} is identity")
    d = space.total_dim
    require_dense(d, "the stabilizer state")
    proj = np.eye(d, dtype=complex)
    for t in gens:
        sup = t.support
        if any(space.dim(s) != 2 for s in sup):
            raise DimensionMismatchError(
                f"Pauli letters on sites {list(sup)} need dimension 2")
        word = SupportedOperator(sup, PauliSum.of(t).matrix(sup))
        proj = (proj + proj @ embed(word, space)) / 2
    tr = float(np.trace(proj).real)
    want = d / 2 ** len(gens)
    if abs(tr - want) > 1e-6 * want:
        raise ValueError(f"projector rank {tr} differs from expected {want}")
    return DensityMatrix(proj / tr, space)
