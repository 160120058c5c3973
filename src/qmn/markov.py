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

The dense sweep (``is_markov_network``) computes each distinct marginal
among the partitions once and takes S(rho) from the spectrum that
validated the state.  It traces and solves a state with no imaginary part
in real arithmetic, and stacks the marginals' checks and eigensolves by
dimension, with no stack larger than rho: one ``eigvalsh`` per stack, run
through the kernel that ``entropy`` runs on one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import (
    DenseCapError,
    DimensionMismatchError,
    NonHermitianError,
    PositivityViolationError,
    UnknownSiteError,
)
from .graphs import Graph, Partition, shield_partitions
from .pauli import PauliSum, PauliTerm
from .tensor import (
    SiteSpace,
    SupportedOperator,
    _site_labels,
    check_hermitian,
    dense_cap,
    embed_sum,
    partial_trace,
    require_dense,
)

EIGENVALUE_FLOOR = -1e-10
TRACE_ATOL = 1e-10
ENTROPY_TRACE_ATOL = 1e-8
DEFAULT_CMI_TOL = 1e-8
SECTOR_RTOL = 1e-12
"""Tolerance of the sector route of ``log_partition``, relative to term
norms.  A pivot term's eigenvalues split into sectors at gaps wider than
SECTOR_RTOL times its largest |eigenvalue|; the route is taken when the
terms' Frobenius weight outside the sectors, summed, is at most SECTOR_RTOL
times the sum of the terms' Frobenius norms, sum_j ||h_j||.  log Z is then
off by at most beta * SECTOR_RTOL * sum_j ||h_j||."""

Term = Union[PauliSum, SupportedOperator]


_ENTROPY_ERRORS = ("entropy input has trace {tr!r}, expected 1",
                  "entropy input has eigenvalue {w:.3e} below floor")


def _check_floor(w: np.ndarray, floor_error: str) -> None:
    """Raise for the first of the ascending spectra (k, d) whose lowest
    eigenvalue is below ``EIGENVALUE_FLOOR``; the error text takes ``w``."""
    low = w[:, 0] < EIGENVALUE_FLOOR
    if low.any():
        w0 = float(w[np.argmax(low), 0])
        raise PositivityViolationError(floor_error.format(w=w0), min_eigenvalue=w0)


def _checked_spectra(stack: np.ndarray, trace_atol: float, trace_error: str,
                     floor_error: str) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized matrices and ascending eigenvalues of a stack (k, d, d)
    after the Hermitian, trace and ``EIGENVALUE_FLOOR`` checks, each matrix
    against its own values, with one ``eigvalsh`` for the stack.  A check
    raises for the first matrix that fails it; error texts take ``tr`` and
    ``w``."""
    m = check_hermitian(stack)
    tr = np.trace(m, axis1=1, axis2=2).real
    off = np.abs(tr - 1.0) > trace_atol
    if off.any():
        raise DimensionMismatchError(trace_error.format(tr=float(tr[np.argmax(off)])))
    w = np.linalg.eigvalsh(m)
    _check_floor(w, floor_error)
    return m, w


def _entropies(w: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in nats of checked ascending spectra (k, d);
    eigenvalues in [``EIGENVALUE_FLOOR``, 0] count as zero."""
    return -np.sum(w * np.log(np.where(w > 0.0, w, 1.0)), axis=1)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix on a site space.

    ``spectrum`` holds the ascending eigenvalues that validation computed
    (read-only), so the state's own entropy needs no second eigensolve.
    """

    matrix: np.ndarray
    space: SiteSpace
    spectrum: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        shape = np.shape(self.matrix)
        d = self.space.total_dim
        if shape != (d, d):
            raise DimensionMismatchError(
                f"state of shape {shape} does not match space dim {d}")
        m, w = _checked_spectra(
            np.asarray(self.matrix)[None], TRACE_ATOL, "state trace {tr!r} is not 1",
            f"state has eigenvalue {{w:.3e}} below floor {EIGENVALUE_FLOOR:.0e}")
        w.flags.writeable = False
        object.__setattr__(self, "matrix", m[0])
        object.__setattr__(self, "spectrum", w[0])


def entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy in nats of a unit-trace positive matrix.

    Eigenvalues in [-1e-10, 0) are clipped to zero; anything lower, or a
    trace away from 1 beyond ``ENTROPY_TRACE_ATOL``, is an error rather than
    a guess.  It is the one-matrix case of the stacked kernel that the
    Markov sweep uses.
    """
    _, w = _checked_spectra(np.asarray(matrix)[None], ENTROPY_TRACE_ATOL,
                            *_ENTROPY_ERRORS)
    return float(_entropies(w)[0])


def cmi(rho: DensityMatrix, a: Iterable[int], b: Iterable[int], c: Iterable[int]) -> float:
    """Conditional mutual information I(A:C|B) = S(AB) + S(BC) - S(ABC) - S(B)."""
    a, b, c = set(a), set(b), set(c)
    if (a & b) or (a & c) or (b & c):
        raise UnknownSiteError("A, B, C must be disjoint")
    if not a or not c:
        raise UnknownSiteError("A and C must be nonempty")

    def s(sites: set[int]) -> float:
        return entropy(partial_trace(rho.matrix, rho.space, sites).matrix)

    return s(a | b) + s(b | c) - s(a | b | c) - s(b)


def _marginal_entropies(rho: DensityMatrix, site_sets: list[frozenset[int]]
                        ) -> dict[frozenset[int], float]:
    """S of each marginal of ``rho``, by the checks and eigensolve of
    ``entropy`` run on stacks.

    The whole state's S comes from its validated ``spectrum``.  Every other
    marginal is traced from the state, in real arithmetic when the state's
    imaginary part is exactly zero, and solved with the others of its
    dimension, in stacks of at most d^2 entries, so no stack outgrows the
    state.  When a check fails, the marginals are replayed one by one
    through ``entropy``, in the given order, so the error is the one the
    first failing marginal raises there.
    """
    space = rho.space
    d = space.total_dim
    dim = dict(zip(space.sites, space.dims))
    everything = frozenset(space.sites)
    full = rho.matrix
    if not full.imag.any():
        full = np.ascontiguousarray(full.real)
    full = full.reshape(space.dims * 2)
    groups: dict[int, list[frozenset[int]]] = {}
    for sites in site_sets:
        if sites != everything:
            groups.setdefault(math.prod(dim[x] for x in sites), []).append(sites)
    out: dict[frozenset[int], float] = {}
    try:
        if everything in site_sets:
            _check_floor(rho.spectrum[None], _ENTROPY_ERRORS[1])
            out[everything] = float(_entropies(rho.spectrum[None])[0])
        for dk, group in groups.items():
            step = max(1, d * d // (dk * dk))
            for start in range(0, len(group), step):
                chunk = group[start:start + step]
                stack = np.empty((len(chunk), dk, dk), dtype=full.dtype)
                for sites, m in zip(chunk, stack):
                    axes, inner, _ = _site_labels(space, sites)
                    np.einsum(full, axes, inner,
                              out=m.reshape([dim[x] for x in sorted(sites)] * 2))
                _, w = _checked_spectra(stack, ENTROPY_TRACE_ATOL, *_ENTROPY_ERRORS)
                out.update(zip(chunk, _entropies(w).tolist()))
    except (NonHermitianError, DimensionMismatchError, PositivityViolationError):
        for sites in site_sets:
            entropy(partial_trace(rho.matrix, space, sites).matrix)
        raise
    return out


@dataclass(frozen=True)
class PartitionRecord:
    partition: Partition
    cmi: float
    passed: bool


@dataclass(frozen=True)
class MarkovReport:
    """Per-partition conditional mutual informations and the overall verdict.

    ``route`` names how the CMIs were obtained: ``"dense"`` computes them
    from the state, ``"certificate"`` takes the 0.0 that a commutation
    certificate (``certificate``, the classify verdict) proves, exactly
    for ``rtol`` 0.0, else to the commutator tolerance ``rtol``.
    """

    records: tuple[PartitionRecord, ...]
    max_cmi: float
    tolerance: float
    mode: str
    route: str = "dense"
    certificate: str | None = None
    rtol: float | None = None

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
    subadditivity); ``mode="all"`` audits every shielding partition.  Each
    distinct marginal among the partitions' AB, BC, ABC and B is solved
    once (``_marginal_entropies``), and each CMI is summed as ``cmi`` sums
    it.
    """
    if graph.vertices != set(rho.space.sites):
        raise UnknownSiteError(
            f"graph vertices {sorted(graph.vertices)} do not match "
            f"state sites {list(rho.space.sites)}")
    parts = shield_partitions(graph, mode)
    keys = [(p.a | p.b, p.b | p.c, p.a | p.b | p.c, p.b) for p in parts]
    s = _marginal_entropies(rho, list(dict.fromkeys(k for ks in keys for k in ks)))
    records = []
    for p, (ab, bc, abc, b) in zip(parts, keys):
        val = s[ab] + s[bc] - s[abc] - s[b]
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

    Every route reads ``terms`` as admitted here, once: a ``PauliTerm`` or
    ``PauliSum`` as a ``PauliSum`` with finite real coefficients, whose
    matrix is exactly Hermitian; a ``SupportedOperator`` as the read-only,
    symmetrized matrix of ``check_hermitian``, which refuses a non-finite
    entry or a defect beyond ``HERMITIAN_RTOL``.  Else ``NonHermitianError``
    names the term (its ``term`` index; the matrix's error is the cause).
    This is the one Hermitian check and symmetrization of a dense term on
    every path into a model: built in code, loaded from a file
    (``cli.model_from_json`` decodes terms and leaves the check here), or
    re-made by ``dataclasses.replace``.  Only
    ``CommutingDecomposition.to_model`` skips it (``_trusted``): its terms
    are exactly Hermitian by construction.  A Pauli term's sites must have
    dim 2 (2**qubits with a composition), and a dense term's matrix the
    product of its sites' dimensions, or ``DimensionMismatchError`` names
    the term and its sites.
    """

    space: SiteSpace
    graph: Graph
    terms: tuple[Term, ...]
    beta: float = 1.0
    site_composition: dict[int, tuple[int, ...]] | None = None

    def __post_init__(self):
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
        dim = dict(zip(self.space.sites, self.space.dims))
        terms = []
        for k, t in enumerate(self.terms):
            if isinstance(t, PauliTerm):
                t = PauliSum.of(t)
            sup = self.term_support(t)
            if not (self.graph.is_clique(sup) if len(sup) > 1
                    else all(s in dim for s in sup)):
                raise UnknownSiteError(
                    f"term support {sorted(sup)} is not a clique of the graph")
            if isinstance(t, SupportedOperator):
                want = math.prod(dim[s] for s in sup)
                if t.dim != want:
                    raise DimensionMismatchError(
                        f"term {k} on sites {list(sup)} is {t.dim} x {t.dim}; "
                        f"their dimensions need {want} x {want}")
                try:
                    m = check_hermitian(t.matrix)
                except NonHermitianError as e:
                    raise NonHermitianError(f"term {k}: {e}", term=k) from e
                m.flags.writeable = False
                # t's support passed its own construction, and m is t's
                # square complex matrix symmetrized
                t = SupportedOperator._trusted(sup, m)
            else:
                bad = [s for s in sup if comp is None and dim[s] != 2]
                if bad:
                    raise DimensionMismatchError(
                        f"Pauli term {k} acts on site {bad[0]} of dim "
                        f"{dim[bad[0]]}; Pauli letters need qubit sites")
                if not all(w.coeff.imag == 0.0 and math.isfinite(w.coeff.real)
                           for w in t.terms):
                    raise NonHermitianError(
                        f"Pauli term {k} needs finite real coefficients: {t}")
            terms.append(t)
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def _trusted(cls, space: SiteSpace, graph: Graph,
                 terms: tuple[SupportedOperator, ...]) -> "ModelInstance":
        """A model of atomic sites, at beta 1, whose dense terms the caller
        built exactly Hermitian, each on a clique of ``graph`` with the
        dimension of its sites: the terms are wrapped as they are,
        read-only, without ``__post_init__``'s admission."""
        for t in terms:
            t.matrix.flags.writeable = False
        model = object.__new__(cls)
        vars(model).update(space=space, graph=graph, terms=terms, beta=1.0,
                           site_composition=None)
        return model

    @cached_property
    def qubit_owner(self) -> dict[int, int]:
        """Map from qubit id to the site that contains it."""
        comp = self.site_composition or {s: (s,) for s in self.space.sites}
        return {q: s for s, qs in comp.items() for q in qs}

    def term_support(self, term: Term) -> tuple[int, ...]:
        """Site ids a term touches (qubit ids mapped through their owners)."""
        if isinstance(term, SupportedOperator):
            return term.support
        owner = self.qubit_owner
        try:
            sites = [owner[q] for q in term.support]
        except KeyError as e:
            raise UnknownSiteError(f"Pauli letter on unknown qubit {e.args[0]}") from None
        # an atomic site's one qubit is the site: the mask's bits are sorted
        return tuple(sites if self.site_composition is None else sorted(set(sites)))

    def term_operator(self, term: Term) -> SupportedOperator:
        """Dense operator for one term, on the sites it touches."""
        if isinstance(term, SupportedOperator):
            return term
        sites = self.term_support(term)
        comp = self.site_composition or {x: (x,) for x in sites}
        return SupportedOperator(sites, term.matrix([q for x in sites for q in comp[x]]))

    @cached_property
    def blocks(self) -> tuple[tuple[SupportedOperator, bool], ...]:
        """The terms as read-only dense blocks on their own sites, each
        flagged True when it is a cumulant as it stands.

        A dense term is its own block, in term order.  The Pauli words are
        summed per set of sites they act on, one block per set, where its
        first word is met, in ``term_operator``'s qubit order; an identity
        word's set is empty.  ``PauliSum.matrices`` builds the blocks, one
        stack per number of qubits.  Every letter is traceless, so such a
        block is the cumulant of the Pauli terms on exactly its sites
        (Brown & Poulin, arXiv:1206.0755).
        """
        comp = self.site_composition
        words: dict[tuple[int, ...], list[PauliTerm]] = {}
        order: list = []
        for t in self.terms:
            if isinstance(t, SupportedOperator):
                order.append(t)
                continue
            for w in t.terms:
                key = self.term_support(w)
                if key in words:
                    words[key].append(w)
                else:
                    words[key] = [w]
                    order.append(key)
        qubits = {x: x if comp is None else [q for s in x for q in comp[s]] for x in words}
        by_width: dict[int, list[tuple[int, ...]]] = {}
        for x in words:
            by_width.setdefault(len(qubits[x]), []).append(x)
        blocks = {}
        for xs in by_width.values():
            stack = PauliSum.matrices([PauliSum(tuple(words[x])) for x in xs],
                                      [qubits[x] for x in xs])
            stack.flags.writeable = False
            blocks.update((x, SupportedOperator._trusted(x, m)) for x, m in zip(xs, stack))
        return tuple((x, False) if isinstance(x, SupportedOperator) else (blocks[x], True)
                     for x in order)

    @cached_property
    def checked_terms(self) -> tuple[SupportedOperator, ...]:
        """Every term as a dense read-only operator on its own support, in
        term order; the terms were admitted at construction."""
        ops = tuple(map(self.term_operator, self.terms))
        for op in ops:
            op.matrix.flags.writeable = False
        return ops

    def hamiltonian(self) -> np.ndarray:
        """Dense sum of all terms on the full space (without the beta factor).

        It sums ``checked_terms``; ``embed_sum`` adds conjugate entries in
        the same order, so the sum is exactly Hermitian.
        """
        require_dense(self.space.total_dim, "the model's Hamiltonian")
        return embed_sum(self.checked_terms, self.space)

    def all_pauli(self) -> bool:
        return all(isinstance(t, PauliSum) for t in self.terms)


def gibbs(model: ModelInstance) -> DensityMatrix:
    """Gibbs state rho = exp(beta H) / Tr exp(beta H).

    The sign convention absorbs the customary -1/T into beta, so beta > 0
    weights high-eigenvalue states of H.  H is Hermitian by construction
    (``ModelInstance`` admits only Hermitian terms).
    """
    w, v = np.linalg.eigh(model.beta * model.hamiltonian())
    w = w - w.max()  # stabilize the exponential; cancels in the normalization
    e = np.exp(w)
    rho = (v * (e / e.sum())) @ v.conj().T
    return DensityMatrix(rho, model.space)


def _sector_spectrum(model: ModelInstance) -> np.ndarray | None:
    """Spectrum of H from its sector blocks, unsorted, or None when no block
    splits into sectors or the blocks leave the sectors by more than
    ``SECTOR_RTOL`` allows (the sector route of ``log_partition``)."""
    space = model.space
    # each pivot becomes one coarse site, named by its first site, with its
    # spectrum, the adjoint of its eigenbasis and its sector labels times a
    # mixed-radix stride
    members: dict[int, tuple[int, ...]] = {}
    frames: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    rest = []
    stride = 1
    for op, _ in model.blocks:
        if op.support and members.keys().isdisjoint(op.support):
            w, v = np.linalg.eigh(op.matrix)
            ws = w.tolist()
            tol = SECTOR_RTOL * max(-ws[0], ws[-1])
            labels = np.cumsum([0] + [y - x > tol for x, y in zip(ws, ws[1:])])
            if labels[-1]:
                frames[op.support[0]] = (w, v.conj().T, stride * labels)
                members.update(dict.fromkeys(op.support, op.support))
                stride *= int(labels[-1]) + 1
                continue
        rest.append(op)
    if not frames:
        return None
    dim = dict(zip(space.sites, space.dims))
    owner = {s: members[s][0] if s in members else s for s in space.sites}
    cdim = {c: math.prod(dim[s] for s in members.get(c, (c,)))
            for c in sorted(set(owner.values()))}
    # every other term in the pivots' frames, U^dag h U, on its support
    # widened by the pivots it touches and ordered coarse site by coarse
    # site; lab is the sector of each row
    budget = SECTOR_RTOL * sum(math.sqrt(np.vdot(op.matrix, op.matrix).real)
                               for op, _ in model.blocks)
    off = 0.0
    rotated = []
    for op in rest:
        sup = sorted({owner[s] for s in op.support})
        m = op.matrix
        fine = [s for c in sup for s in members.get(c, (c,))]
        if fine != list(op.support):
            own = [s for s in fine if s in op.support]
            if own != list(op.support):
                axes = [op.support.index(s) for s in own]
                m = m.reshape([dim[s] for s in op.support] * 2).transpose(
                    axes + [len(axes) + a for a in axes]).reshape(m.shape)
            # the identity on the pivots' other sites, in place among the term's
            wide = [dim[s] if s in op.support else 1 for s in fine]
            eye = [1 if s in op.support else dim[s] for s in fine]
            n = math.prod(dim[s] for s in fine)
            m = (m.reshape(wide * 2) * np.eye(n // len(m)).reshape(eye * 2)).reshape(n, n)
        pre, steps, lab = 1, [], np.zeros(1, dtype=np.intp)
        for c in sup:
            if c in frames:
                steps.append((pre, cdim[c], frames[c][1]))
                lab = (lab[:, None] + frames[c][2]).ravel()
            else:
                lab = np.repeat(lab, cdim[c])
            pre *= cdim[c]
        for _ in range(2):  # U^dag m, then U^dag (U^dag m)^dag = U^dag m U
            for before, d, vh in steps:
                m = (vh @ m.reshape(before, d, -1)).reshape(m.shape)
            m = m.conj().T
        leak = m[lab[:, None] != lab]
        off += math.sqrt(np.vdot(leak, leak).real)
        if off > budget:
            return None
        rotated.append(SupportedOperator(tuple(sup), m))
    # a pivot is diagonal in its own frame: its spectrum adds to the
    # diagonal, built like the sector of each state over the coarse sites
    h = embed_sum(rotated, SiteSpace(tuple(cdim), tuple(cdim.values())))
    diag, sector = np.zeros(1), np.zeros(1, dtype=np.intp)
    for c, d in cdim.items():
        if c in frames:
            diag = (diag[:, None] + frames[c][0]).ravel()
            sector = (sector[:, None] + frames[c][2]).ravel()
        else:
            diag, sector = np.repeat(diag, d), np.repeat(sector, d)
    h.ravel()[::len(h) + 1] += diag
    order = np.argsort(sector, kind="stable")
    sizes = np.bincount(sector)
    starts = np.cumsum(sizes) - sizes
    w = []
    for size in np.unique(sizes):
        rows = order[starts[sizes == size, None] + np.arange(size)]
        w.append(np.linalg.eigvalsh(h[rows[:, :, None], rows[:, None, :]]).ravel())
    return np.concatenate(w)


def log_partition(model: ModelInstance) -> float:
    """log Z = log Tr e^{beta H}, a log-sum-exp over the spectrum of beta H.

    Three routes, tried in order, each reading the model's ``blocks``, so
    a Pauli word is made dense once for them and ``model_cumulants``:

    * **Diagonal.** When every one of the model's ``blocks`` is diagonal,
      as for classical models such as an Ising chain, the spectrum is the
      diagonal of H.  A model of Z words only is, with no look at a block;
      otherwise each block's matrix is checked, so Pauli words that cancel
      across terms, summed in one block, take this route too.  The
      diagonal of each block is added, in their order, into a length-d
      vector shaped like the space, so no d x d matrix is built and no
      eigensolve runs.  Where each Pauli term's words share one set of
      sites, and no two terms share it, the entries are added in the order
      ``embed_sum`` adds them, and they are sorted as ``eigvalsh`` returns
      them.  The vector takes at
      most the memory of a cap x cap matrix: d up to ``dense_cap()``
      squared.
    * **Sectors.** H commutes with each block when the blocks commute, so
      it is block diagonal in the eigenbases of blocks on disjoint supports
      (Bravyi & Vyalyi, quant-ph/0308021).  Walking the blocks in order,
      each one disjoint from the pivots already taken whose spectrum (one
      ``eigh`` on its support) has two or more sectors becomes a pivot; a
      sector is a run of eigenvalues with gaps at most ``SECTOR_RTOL``
      times the largest |eigenvalue|.  A pivot is diagonal in its own
      frame.  Every other block is rotated into the frames of the pivots
      it touches, on its support widened by them, and its Frobenius weight
      outside the sectors, ||off_j||, is measured.  When sum_j ||off_j||
      <= ``SECTOR_RTOL`` * sum_j ||h_j|| (all blocks), the rotated blocks
      and the pivots' spectra are summed and each sector block takes its
      own ``eigvalsh``, one batched call per block size.  Dropping the
      off-sector part moves every eigenvalue by at most sum_j ||off_j||
      (Weyl), so log Z, a 1-Lipschitz log-sum-exp, moves by at most
      beta * ``SECTOR_RTOL`` * sum_j ||h_j||.  A single block that leaves
      the sectors sends the model to the dense route, even when another
      block cancels it.
    * **Dense.** Any other model, including one whose dense terms cancel
      each other's off-diagonal parts, sums the blocks into H and takes
      one ``eigvalsh``, on the real symmetric matrix when the imaginary
      part is exactly zero: the spectrum is the same, and a real
      ``eigvalsh`` costs a fraction of a complex one.

    The sector and dense routes need d within ``dense_cap()``; past a cap
    ``DenseCapError`` is raised.
    """
    space = model.space
    d = space.total_dim
    # Z words need no look at the blocks they sum to
    if (all(isinstance(t, PauliSum) and not any(w.x for w in t.terms) for t in model.terms)
            or all(np.count_nonzero(op.matrix) == np.count_nonzero(op.matrix.diagonal())
                   for op, _ in model.blocks)):
        cap = dense_cap()
        if d > cap * cap:
            raise DenseCapError(
                f"the diagonal of the model's Hamiltonian needs {d} entries, past "
                f"the dense cap {cap} squared (set QMN_DENSE_CAP to override)")
        diag = np.zeros(space.dims)
        for op, _ in model.blocks:
            axes = {space.axis(s) for s in op.support}
            diag += op.matrix.diagonal().real.reshape(
                [n if k in axes else 1 for k, n in enumerate(space.dims)])
        w = np.sort(model.beta * diag.ravel())
    else:
        require_dense(d, "the model's Hamiltonian")
        w = _sector_spectrum(model)
        if w is not None:
            w = np.sort(model.beta * w)
        else:
            h = embed_sum([op for op, _ in model.blocks], space)
            if not h.imag.any():
                h = h.real
            w = np.linalg.eigvalsh(model.beta * h)
    return float(w[-1] + np.log(np.sum(np.exp(w - w[-1]))))

