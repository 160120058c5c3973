import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmn import cumulants, families, markov, tensor
from qmn.cumulants import model_cumulants
from qmn.errors import (
    DenseCapError,
    DimensionMismatchError,
    NonHermitianError,
    PositivityViolationError,
    UnknownSiteError,
)
from qmn.graphs import Graph, all_shield_partitions, shield_partitions
from qmn.markov import (
    DensityMatrix,
    ModelInstance,
    cmi,
    entropy,
    gibbs,
    is_markov_network,
    log_partition,
)
from qmn.pauli import PauliTerm, parse_sum, parse_term
from qmn.tensor import SiteSpace, SupportedOperator, kron, logm_pd, partial_trace

from helpers import (
    classical_cmi,
    commutes,
    dense_log_partition,
    dense_pauli_word,
    expm_herm,
    expm_taylor,
    log_gibbs,
    ptrace_indexsum,
    random_density,
    stabilizer_state,
)

# oracle values computed with the helpers in this directory and frozen here
NEG_CONTROL_CMI = 0.052051695401092335  # I(1:3|2) of e^H/Z, H = X1 X2 + Z2 Z3
W_STATE_CMI = 0.636514168294813         # I(1:3|2) of the three-qubit W state


def pure(v, space):
    v = np.asarray(v, dtype=complex) / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), space)


def ghz(n=3):
    space = SiteSpace.qubits(n)
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1.0
    return pure(v, space)


def chain_graph(n):
    return Graph.from_edges([(i, i + 1) for i in range(1, n)])


def test_density_matrix_validation():
    space = SiteSpace.qubits(2)
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(np.eye(4, dtype=complex), space)  # trace 4
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(np.eye(2, dtype=complex) / 2, space)  # wrong shape
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(PositivityViolationError):
        DensityMatrix(bad, space)
    with pytest.raises(NonHermitianError):
        DensityMatrix(np.diag([np.nan, 1.0, 0.0, 0.0]), space)
    mm = DensityMatrix(np.eye(4, dtype=complex) / 4, space)
    assert math.isclose(entropy(mm.matrix), math.log(4), rel_tol=1e-12)


def test_entropy_pure_mixed_product():
    space = SiteSpace.qubits(1)
    plus = pure(np.array([1.0, 1.0]), space)
    assert entropy(plus.matrix) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(7)
    p = rng.random(4)
    p /= p.sum()
    q = rng.random(3)
    q /= q.sum()
    sp = entropy(np.diag(p).astype(complex))
    sq = entropy(np.diag(q).astype(complex))
    joint = entropy(np.diag(np.kron(p, q)).astype(complex))
    assert joint == pytest.approx(sp + sq, abs=1e-12)


def test_entropy_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        entropy(np.eye(2, dtype=complex))
    with pytest.raises(PositivityViolationError):
        entropy(np.diag([1.2, -0.2]).astype(complex))


def test_ghz_cmi_is_log_two():
    rho = ghz()
    val = cmi(rho, [1], [2], [3])
    assert val == pytest.approx(math.log(2), abs=1e-10)


def test_dephased_ghz_cmi_is_zero():
    space = SiteSpace.qubits(3)
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = m[7, 7] = 0.5
    rho = DensityMatrix(m, space)
    assert cmi(rho, [1], [2], [3]) == pytest.approx(0.0, abs=1e-12)
    rep = is_markov_network(rho, chain_graph(3))
    assert rep.passed and rep.max_cmi <= 1e-10


def test_diagonal_states_match_classical_cmi():
    dims = [2, 3, 2]
    space = SiteSpace.from_dims({1: 2, 2: 3, 3: 2})
    rng = np.random.default_rng(11)
    for _ in range(6):
        p = rng.random(12)
        p /= p.sum()
        rho = DensityMatrix(np.diag(p).astype(complex), space)
        want = classical_cmi(p, dims, [0], [1], [2])
        assert cmi(rho, [1], [2], [3]) == pytest.approx(want, abs=1e-10)


def test_cmi_argument_validation():
    rho = ghz()
    with pytest.raises(UnknownSiteError):
        cmi(rho, [1], [1], [3])
    with pytest.raises(UnknownSiteError):
        cmi(rho, [], [2], [3])


def test_cmi_nonnegative_random_states():
    # strong subadditivity within numerical error
    space = SiteSpace.qubits(3)
    rng = np.random.default_rng(23)
    for _ in range(40):
        rho = DensityMatrix(random_density(rng, 8, rank=int(rng.integers(1, 9))),
                            space)
        assert cmi(rho, [1], [2], [3]) >= -1e-9


def test_noncommuting_chain_model_fails():
    space = SiteSpace.qubits(3)
    model = ModelInstance(space, chain_graph(3),
                          (parse_sum("1.0 * X1 X2"), parse_sum("1.0 * Z2 Z3")))
    rho = gibbs(model)
    val = cmi(rho, [1], [2], [3])
    assert val == pytest.approx(NEG_CONTROL_CMI, abs=1e-10)
    rep = is_markov_network(rho, chain_graph(3))
    assert not rep.passed
    assert rep.worst.partition.b == frozenset({2})


def test_commuting_chain_model_passes():
    space = SiteSpace.qubits(4)
    terms = tuple(parse_sum(f"0.7 * Z{i} Z{i + 1}") for i in range(1, 4))
    model = ModelInstance(space, chain_graph(4), terms, beta=1.3)
    rep = is_markov_network(gibbs(model), chain_graph(4))
    assert rep.passed
    assert rep.max_cmi <= 1e-10


def test_w_state_fails_chain():
    space = SiteSpace.qubits(3)
    v = np.zeros(8, dtype=complex)
    v[0b001] = v[0b010] = v[0b100] = 1.0
    rho = pure(v, space)
    val = cmi(rho, [1], [2], [3])
    assert val == pytest.approx(W_STATE_CMI, abs=1e-10)
    assert not is_markov_network(rho, chain_graph(3)).passed


def test_report_json_schema():
    rep = is_markov_network(ghz(), chain_graph(3))
    doc = json.loads(json.dumps(rep.to_json_dict()))
    assert set(doc) == {"partitions", "max_cmi", "verdict"}
    assert doc["verdict"] == "fail"
    assert doc["max_cmi"] == pytest.approx(math.log(2))
    (entry,) = doc["partitions"]
    assert set(entry) == {"A", "B", "C", "cmi", "pass"}
    assert entry["A"] == [1] and entry["B"] == [2] and entry["C"] == [3]
    assert entry["pass"] is False


def test_markov_network_modes_and_validation():
    rho = ghz()
    with pytest.raises(UnknownSiteError):
        is_markov_network(rho, Graph.from_edges([(1, 2)]))
    with pytest.raises(ValueError):
        is_markov_network(rho, chain_graph(3), mode="everything")
    rep_all = is_markov_network(rho, chain_graph(3), mode="all")
    assert len(rep_all.records) >= 1
    assert not rep_all.passed


@st.composite
def random_states_on_graphs(draw):
    """Random graphs on 3-5 vertices with at most n edges, site dims 2-3,
    random full-rank states mixed with the identity so that CMIs land on
    both sides of the drawn tolerance."""
    n = draw(st.integers(3, 5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    graph = Graph.from_edges(edges, vertices=range(1, n + 1))
    space = SiteSpace(tuple(range(1, n + 1)),
                      tuple(draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))))
    d = space.total_dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.sampled_from([0.05, 0.3, 1.0]))
    rho = DensityMatrix(p * random_density(rng, d) + (1 - p) * np.eye(d) / d, space)
    return rho, graph, draw(st.sampled_from([1e-8, 1e-3, 1e-2, 1e-1]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_states_on_graphs())
def test_spanning_and_all_partitions_agree(case):
    # "all" also enumerates every spanning partition, and strong
    # subadditivity bounds each non-spanning CMI by a spanning one
    rho, graph, tol = case
    spanning = is_markov_network(rho, graph, tol=tol, mode="spanning")
    every = is_markov_network(rho, graph, tol=tol, mode="all")
    assert spanning.passed == every.passed
    assert abs(spanning.max_cmi - every.max_cmi) <= 1e-12


@st.composite
def qubit_states_on_graphs(draw):
    """Random graphs on 3-5 qubits with any edge set, and random states of
    full rank, of rank one or of a rank in between."""
    n = draw(st.integers(3, 5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    graph = Graph.from_edges(edges, vertices=range(1, n + 1))
    d = 2 ** n
    rank = draw(st.sampled_from([None, 1, 2, d // 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return DensityMatrix(random_density(rng, d, rank=rank), SiteSpace.qubits(n)), graph


@settings(max_examples=60, deadline=None, derandomize=True)
@given(qubit_states_on_graphs())
def test_strong_subadditivity_on_every_shielding_partition(case):
    # I(A:C|B) >= 0, and the chain rule I(AL:C|B) = I(A:C|B) + I(L:C|AB)
    # bounds a partition that leaves L out by the spanning one that puts L
    # in A, which is why a Markov check can stop at spanning partitions
    rho, graph = case
    for p in all_shield_partitions(graph):
        left_out = graph.vertices - p.union
        value = cmi(rho, p.a, p.b, p.c)
        assert value >= -1e-10
        assert value <= cmi(rho, p.a | left_out, p.b, p.c) + 1e-10


@st.composite
def sweep_cases(draw):
    """Random graphs on 2-5 vertices (edgeless ones give an empty B), site
    dims 2-3 on up to four sites, random states of drawn rank, complex or
    exactly real, a mode and a tolerance."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    graph = Graph.from_edges(edges, vertices=range(1, n + 1))
    dims = draw(st.lists(st.integers(2, 3 if n < 5 else 2), min_size=n, max_size=n))
    space = SiteSpace(tuple(range(1, n + 1)), tuple(dims))
    d = space.total_dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = random_density(rng, d, rank=draw(st.sampled_from([None, 1, 2, d // 2])))
    real = draw(st.booleans())
    rho = DensityMatrix(m.real if real else m, space)
    return (rho, graph, real, draw(st.sampled_from(["spanning", "all"])),
            draw(st.sampled_from([1e-8, 1e-3, 1e-1])))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sweep_cases())
def test_stacked_sweep_matches_cmi_partition_by_partition(case):
    # the sweep solves each distinct marginal once, in stacks, and a real
    # state in real arithmetic; cmi traces and solves each one in complex
    rho, graph, real, mode, tol = case
    assert rho.matrix.imag.any() != real
    rep = is_markov_network(rho, graph, tol=tol, mode=mode)
    parts = shield_partitions(graph, mode)
    assert [r.partition for r in rep.records] == parts
    want = [cmi(rho, p.a, p.b, p.c) for p in parts]
    got = [r.cmi for r in rep.records]
    if real:
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)
    else:
        assert got == want
    assert [r.passed for r in rep.records] == [w <= tol for w in want]
    assert rep.passed == all(w <= tol for w in want)


@pytest.mark.parametrize("mode", ["spanning", "all"])
def test_sweep_raises_the_error_of_the_first_failing_marginal(monkeypatch, mode):
    # floors between the marginals' smallest eigenvalues make a marginal
    # other than the first fail, possibly in another dimension's stack
    space = SiteSpace.from_dims({1: 2, 2: 3, 3: 2, 4: 2})
    graph = chain_graph(4)
    rho = DensityMatrix(random_density(np.random.default_rng(5), space.total_dim),
                        space)
    parts = shield_partitions(graph, mode)
    lows = sorted({float(np.linalg.eigvalsh(
        partial_trace(rho.matrix, space, s).matrix)[0])
        for p in parts for s in (p.a | p.b, p.b | p.c, p.a | p.b | p.c, p.b)})
    floors = [(x + y) / 2 for x, y in zip(lows, lows[1:])] + [lows[-1] * 2]
    for floor in floors:
        monkeypatch.setattr(markov, "EIGENVALUE_FLOOR", floor)
        with pytest.raises(PositivityViolationError) as want:
            for p in parts:
                cmi(rho, p.a, p.b, p.c)
        with pytest.raises(PositivityViolationError) as got:
            is_markov_network(rho, graph, mode=mode)
        assert str(got.value) == str(want.value)
        assert got.value.min_eigenvalue == want.value.min_eigenvalue
    monkeypatch.undo()
    monkeypatch.setattr(markov, "ENTROPY_TRACE_ATOL", -1.0)  # every trace fails
    with pytest.raises(DimensionMismatchError) as want:
        cmi(rho, parts[0].a, parts[0].b, parts[0].c)
    with pytest.raises(DimensionMismatchError) as got:
        is_markov_network(rho, graph, mode=mode)
    assert str(got.value) == str(want.value)


def test_density_matrix_keeps_its_validated_spectrum():
    rho = DensityMatrix(random_density(np.random.default_rng(9), 8), SiteSpace.qubits(3))
    assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))
    assert not rho.spectrum.flags.writeable
    assert "spectrum" not in repr(rho)
    assert math.isclose(entropy(rho.matrix),
                        -sum(w * math.log(w) for w in rho.spectrum if w > 0),
                        rel_tol=1e-13)


def test_gibbs_matches_taylor_oracle():
    space = SiteSpace.qubits(3)
    model = ModelInstance(space, chain_graph(3),
                          (parse_sum("0.4 * X1 X2"), parse_sum("-0.3 * Z2 Z3"),
                           parse_sum("0.2 * Z2")), beta=0.9)
    want = expm_taylor(0.9 * (
        0.4 * dense_pauli_word({1: "X", 2: "X"}, [1, 2, 3])
        - 0.3 * dense_pauli_word({2: "Z", 3: "Z"}, [1, 2, 3])
        + 0.2 * dense_pauli_word({2: "Z"}, [1, 2, 3])))
    want /= np.trace(want).real
    got = gibbs(model)
    assert np.allclose(got.matrix, want, atol=1e-12)


def test_gibbs_log_roundtrip():
    space = SiteSpace.qubits(3)
    model = ModelInstance(space, chain_graph(3),
                          (parse_sum("0.8 * Z1 Z2"), parse_sum("0.5 * X2 X3")),
                          beta=1.1)
    rho = gibbs(model)
    log_rho = logm_pd(rho.matrix)
    h = model.beta * model.hamiltonian()
    # log rho = beta H - ln Z, so the difference is a multiple of the identity
    diff = log_rho - h
    off = diff - np.trace(diff) / 8 * np.eye(8)
    assert np.linalg.norm(off) < 1e-10


def test_gibbs_large_beta_is_stable():
    space = SiteSpace.qubits(2)
    model = ModelInstance(space, Graph.from_edges([(1, 2)]),
                          (parse_sum("1.0 * Z1 Z2"),), beta=200.0)
    rho = gibbs(model)
    assert np.isfinite(rho.matrix).all()
    # beta -> inf projects onto the top eigenspace of H: span{|00>, |11>}
    assert rho.matrix[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert rho.matrix[3, 3] == pytest.approx(0.5, abs=1e-12)


@st.composite
def small_models(draw):
    """Qubit chains of 2-4 sites, each edge a Pauli word or a dense Hermitian.

    Every term has operator norm at most 1.5 and beta <= 1.5, so
    beta * spread(H) stays below 14 and logm_pd of the Gibbs state keeps
    enough digits to compare against.
    """
    n = draw(st.integers(2, 4))
    terms = []
    for i in range(1, n):
        if draw(st.booleans()):
            a, b = draw(st.tuples(st.sampled_from("XYZ"), st.sampled_from("XYZ")))
            terms.append(PauliTerm.from_letters(draw(st.floats(-1.0, 1.0)),
                                                {i: a, i + 1: b}))
        else:
            x = np.array(draw(st.lists(st.floats(-0.125, 0.125),
                                       min_size=32, max_size=32)))
            m = (x[:16] + 1j * x[16:]).reshape(4, 4)
            terms.append(SupportedOperator((i, i + 1), m + m.conj().T))
    beta = draw(st.floats(0.1, 1.5))
    return ModelInstance(SiteSpace.qubits(n), chain_graph(n), tuple(terms), beta=beta)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_models())
def test_log_gibbs_matches_the_log_of_the_gibbs_state(model):
    rho = gibbs(model).matrix
    got = log_gibbs(model)
    want = logm_pd(rho)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert np.abs(expm_herm(got) - rho).max() <= 1e-12


def test_log_gibbs_has_no_positivity_floor():
    model = families.ising_chain(6, beta=3.0)
    rho = gibbs(model).matrix
    with pytest.raises(PositivityViolationError):
        logm_pd(rho)
    got = log_gibbs(model)
    # log rho - beta H is -log Z times the identity
    diff = got - model.beta * model.hamiltonian()
    assert np.abs(diff - diff[0, 0] * np.eye(64)).max() <= 1e-12
    assert np.abs(expm_herm(got) - rho).max() <= 1e-12


@st.composite
def log_z_models(draw, diagonals=st.booleans()):
    """Chains of 2-4 qubit and qutrit sites with a term on every site and
    edge: Z words where all its sites are qubits, else a real diagonal
    matrix.  Non-diagonal draws (``diagonals`` draws whether H is diagonal)
    add an X or Y field or, on a qutrit, a dense Hermitian term with a 0.5
    hop.  Returns the model and whether its H is diagonal."""
    n = draw(st.integers(2, 4))
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
    space = SiteSpace(tuple(range(1, n + 1)), tuple(dims))
    coeff = st.floats(-1.0, 1.0)
    terms = []
    for sup in [(i,) for i in range(1, n + 1)] + [(i, i + 1) for i in range(1, n)]:
        if all(space.dim(s) == 2 for s in sup) and draw(st.booleans()):
            terms.append(PauliTerm.from_letters(draw(coeff), dict.fromkeys(sup, "Z")))
        else:
            d = math.prod(space.dim(s) for s in sup)
            terms.append(SupportedOperator(
                sup, np.diag(draw(st.lists(coeff, min_size=d, max_size=d)))))
    diagonal = draw(diagonals)
    if not diagonal:
        site = draw(st.integers(1, n))
        if space.dim(site) == 2:
            letter = draw(st.sampled_from("XY"))
            terms.append(PauliTerm.from_letters(draw(st.floats(0.1, 1.0)), {site: letter}))
        else:
            hop = np.diag(draw(st.lists(coeff, min_size=3, max_size=3))).astype(complex)
            hop[0, 2] = hop[2, 0] = 0.5
            terms.append(SupportedOperator((site,), hop))
    beta = draw(st.one_of(st.just(3.0), st.floats(0.1, 3.0)))
    return ModelInstance(space, chain_graph(n), tuple(terms), beta=beta), diagonal


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log_z_models())
def test_log_partition_matches_a_dense_eigensolve(case):
    model, diagonal = case
    h = model.hamiltonian()
    assert (np.count_nonzero(h - np.diag(h.diagonal())) == 0) == diagonal
    want = dense_log_partition(model)
    assert abs(log_partition(model) - want) <= 1e-12 * abs(want)


class _Eigensolve(Exception):
    pass


def test_log_partition_of_a_diagonal_model_needs_no_eigensolve(monkeypatch):
    ising = families.ising_chain(8, beta=3.0)
    noncommuting = ModelInstance(SiteSpace.qubits(3), chain_graph(3),
                                 (parse_sum("1.0 * X1 X2"), parse_sum("1.0 * Z2 Z3")))
    want = dense_log_partition(ising)

    def refuse(*args, **kwargs):
        raise _Eigensolve

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert abs(log_partition(ising) - want) <= 1e-12 * abs(want)
    with pytest.raises(_Eigensolve):
        log_partition(noncommuting)


def _refuse(*args, **kwargs):
    raise AssertionError("log Z of a diagonal model built a full-space matrix")


def test_log_partition_of_a_diagonal_model_builds_no_full_space_matrix(monkeypatch):
    model = families.ising_chain(12, beta=3.0)
    # transfer matrix over spins s = +-1 (the Z eigenvalues), fields on the right
    spins = np.array([1.0, -1.0])
    field = np.exp(model.beta * 0.5 * spins)
    step = np.exp(model.beta * np.outer(spins, spins)) * field
    want = math.log(field @ np.linalg.matrix_power(step, 11) @ np.ones(2))
    monkeypatch.setattr(ModelInstance, "hamiltonian", _refuse)
    monkeypatch.setattr(tensor, "embed_sum", _refuse)
    monkeypatch.setattr(markov, "embed_sum", _refuse)
    tracemalloc.start()
    try:
        got = log_partition(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(got - want) <= 1e-12 * abs(want)
    assert peak < 2 ** 20


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_z_models(diagonals=st.just(True)))
def test_log_partition_of_a_diagonal_model_is_bit_equal_to_the_dense_diagonal(case):
    model, _ = case
    w = np.sort(model.beta * model.hamiltonian().diagonal().real)
    assert log_partition(model) == float(w[-1] + np.log(np.sum(np.exp(w - w[-1]))))


def test_off_diagonal_parts_that_cancel_across_terms_take_the_diagonal_route(monkeypatch):
    # the blocks sum 0.7 X1 and -0.7 X1 to zero, so no eigensolve runs
    model = ModelInstance(SiteSpace.qubits(2), chain_graph(2),
                          (parse_sum("1.0 * Z1 Z2"), parse_sum("0.7 * X1"),
                           parse_sum("-0.7 * X1")), beta=2.0)
    h = model.hamiltonian()
    assert np.count_nonzero(h - np.diag(h.diagonal())) == 0
    want = dense_log_partition(model)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert abs(log_partition(model) - want) <= 1e-12 * abs(want)
    assert calls == []


def test_each_term_is_converted_and_checked_once(monkeypatch):
    converted, checked = [], []
    term_operator = ModelInstance.term_operator

    def convert(self, term):
        converted.append(term)
        return term_operator(self, term)

    def check(matrix):
        checked.append(matrix.shape)
        return tensor.check_hermitian(matrix)

    monkeypatch.setattr(ModelInstance, "term_operator", convert)
    monkeypatch.setattr(markov, "check_hermitian", check)
    monkeypatch.setattr(cumulants, "check_hermitian", check)
    model = ModelInstance(SiteSpace.qubits(2), chain_graph(2),
                          (parse_sum("1.0 * Z1 Z2"), parse_sum("0.5 * X1"),
                           SupportedOperator((2,), np.array([[0.0, 1.0], [1.0, 0.0]]))))
    model_cumulants(model)
    model.hamiltonian()
    log_partition(model)
    assert converted == list(model.terms)
    assert checked == [(2, 2)]  # the dense term, once, at construction
    ops = model.checked_terms
    assert [op.support for op in ops] == [(1, 2), (1,), (2,)]
    for op in ops:
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0


def _framed(seed, space, support, entries):
    """A term with the given eigenvalues, diagonal in a product of random
    per-site frames (site s drawn from seed + s)."""
    u = kron(*[families.random_unitary(np.random.default_rng(seed + s), space.dim(s))
               for s in support])
    return SupportedOperator(support, u @ np.diag(entries) @ u.conj().T)


@st.composite
def commuting_models(draw):
    """Models whose terms commute without being diagonal: diagonal terms on
    the sites and edges of a qubit and qutrit chain in a random per-site
    frame, a theorem4 model, or Pauli words on the sites and edges of a
    qubit chain, each kept when it commutes with the words kept before.
    Diagonal entries lie on a grid of step 1/4 with the first one apart,
    so every framed term has two or more well separated sectors."""
    kind = draw(st.sampled_from(("frame", "theorem4", "pauli")))
    beta = draw(st.floats(0.1, 3.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "theorem4":
        model = families.theorem4_model(
            draw(st.sampled_from(families.THEOREM4_KINDS)), np.random.default_rng(seed))
        return dataclasses.replace(model, beta=beta)
    n = draw(st.integers(2, 5))
    supports = [(i, i + 1) for i in range(1, n)] + [(i,) for i in range(1, n + 1)]
    if kind == "pauli":
        words: list[PauliTerm] = []
        for sup in supports:
            word = PauliTerm.from_letters(
                draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 1.0)),
                {q: draw(st.sampled_from("XYZ")) for q in sup})
            if all(commutes(word, other) for other in words):
                words.append(word)
        return ModelInstance(SiteSpace.qubits(n), chain_graph(n), tuple(words), beta=beta)
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
    space = SiteSpace(tuple(range(1, n + 1)), tuple(dims))
    terms = []
    for sup in supports:
        d = math.prod(space.dim(s) for s in sup)
        grid = draw(st.lists(st.integers(-4, 4), min_size=d - 1, max_size=d - 1))
        terms.append(_framed(seed, space, sup, [2.0] + [g / 4 for g in grid]))
    return ModelInstance(space, chain_graph(n), tuple(terms), beta=beta)


def _eigensolve_shapes(mp, names=("eigh", "eigvalsh")):
    """Record the shape of every input to the ``np.linalg`` solvers named."""
    shapes = []
    for name in names:
        solve = getattr(np.linalg, name)

        def recorded(a, *args, _solve=solve, **kwargs):
            shapes.append(np.shape(a))
            return _solve(a, *args, **kwargs)

        mp.setattr(np.linalg, name, recorded)
    return shapes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(commuting_models())
def test_log_partition_of_a_commuting_model_solves_no_full_space_matrix(model):
    want = dense_log_partition(model)
    with pytest.MonkeyPatch.context() as mp:
        shapes = _eigensolve_shapes(mp, ("eigvalsh",))
        got = log_partition(model)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert all(shape[-1] < model.space.total_dim for shape in shapes)


def test_terms_that_commute_only_to_about_1e_6_take_one_full_eigensolve(monkeypatch):
    model = families.theorem4_model("cycle4", np.random.default_rng(5))
    ops = list(model.checked_terms)
    a = np.random.default_rng(6).normal(size=(8, 8, 2)) @ np.array([1.0, 1j])
    kick = (a + a.conj().T) / np.linalg.norm(a + a.conj().T)
    ops[-1] = SupportedOperator(ops[-1].support, ops[-1].matrix + 1e-6 * kick)
    near = ModelInstance(model.space, model.graph, tuple(ops), beta=model.beta)
    want = dense_log_partition(near)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert abs(log_partition(near) - want) <= 1e-12 * abs(want)
    assert calls == [(64, 64)]


def test_log_partition_of_a_1024_dim_commuting_model_solves_sectors_only(monkeypatch):
    # non-degenerate pivots on (2,3) .. (8,9) cover all sites but 1 and 10,
    # so a sector is one joint eigenvector of the pivots times those two
    # qubits: 4 states
    rng = np.random.default_rng(11)
    space = SiteSpace.qubits(10)
    supports = [(2, 3), (4, 5), (6, 7), (8, 9), (1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
    terms = tuple(_framed(17, space, sup, rng.permutation([-0.9, -0.3, 0.2, 0.8])
                          + rng.uniform(-0.05, 0.05, 4)) for sup in supports)
    model = ModelInstance(space, chain_graph(10), terms, beta=0.7)
    want = dense_log_partition(model)
    shapes = _eigensolve_shapes(monkeypatch)
    assert abs(log_partition(model) - want) <= 1e-12 * abs(want)
    assert shapes and max(shape[-1] for shape in shapes) == 4


def test_log_partition_of_a_diagonal_model_is_capped_at_the_cap_squared(monkeypatch):
    monkeypatch.setenv("QMN_DENSE_CAP", "4")
    inside = families.ising_chain(4, beta=3.0)
    want = dense_log_partition(inside)
    assert abs(log_partition(inside) - want) <= 1e-12 * abs(want)
    with pytest.raises(DenseCapError):
        log_partition(families.ising_chain(5))


def test_non_hermitian_term_is_rejected_where_the_hamiltonian_is_summed():
    # refused at construction, so no route certifies, classifies or sums it
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    cases = [(2, (parse_sum("1.0 * Z1 Z2"), SupportedOperator((2,), raising)), "term 1"),
             (3, (parse_sum("1j * Z1 Z2"), parse_sum("1.0 * Z2 Z3")), "Pauli term 0"),
             (3, (parse_sum("1.0 * Z2 Z3"), parse_sum("nan * Z1 Z2")), "Pauli term 1"),
             (3, (SupportedOperator((1, 2), np.triu(np.ones((4, 4)))),), "term 0")]
    for n, terms, where in cases:
        with pytest.raises(NonHermitianError, match=where):
            ModelInstance(SiteSpace.qubits(n), chain_graph(n), terms)


@st.composite
def nearly_hermitian_models(draw):
    """Qubit chains of 2-4 sites whose dense edge terms carry a
    non-Hermitian defect of about 1e-14, within ``check_hermitian``'s
    tolerance, next to Pauli words."""
    n = draw(st.integers(2, 4))
    terms = []
    for i in range(1, n):
        if draw(st.booleans()):
            a, b = draw(st.tuples(st.sampled_from("XYZ"), st.sampled_from("XYZ")))
            terms.append(PauliTerm.from_letters(draw(st.floats(-1.0, 1.0)),
                                                {i: a, i + 1: b}))
        x = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=32, max_size=32)))
        e = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16)))
        m = (x[:16] + 1j * x[16:]).reshape(4, 4)
        m = 2 * np.eye(4) + m + m.conj().T + 1e-14 * (1 + 1j) * e.reshape(4, 4)
        terms.append(SupportedOperator((i, i + 1), m))
    return ModelInstance(SiteSpace.qubits(n), chain_graph(n), tuple(terms))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(nearly_hermitian_models())
def test_hamiltonian_is_exactly_hermitian(model):
    h = model.hamiltonian()
    assert np.array_equal(h, h.conj().T)


def test_model_instance_validation():
    space = SiteSpace.qubits(3)
    g = chain_graph(3)
    with pytest.raises(UnknownSiteError):
        ModelInstance(space, g, (parse_sum("1.0 * Z1 Z3"),))  # 1-3 not an edge
    with pytest.raises(UnknownSiteError):
        ModelInstance(space, g, (parse_sum("1.0 * Z9"),))
    with pytest.raises(UnknownSiteError):
        ModelInstance(space, Graph.from_edges([(1, 2)]), ())
    model = ModelInstance(space, g, (parse_sum("1.0 * Z1 Z2"),))
    assert model.term_support(model.terms[0]) == (1, 2)
    assert model.all_pauli()


def test_model_hamiltonian_dense():
    space = SiteSpace.qubits(3)
    model = ModelInstance(space, chain_graph(3),
                          (parse_sum("2.0 * X1 X2"), parse_sum("1.0 * Z3"),
                           parse_term("0.5")))
    want = (2.0 * dense_pauli_word({1: "X", 2: "X"}, [1, 2, 3])
            + dense_pauli_word({3: "Z"}, [1, 2, 3])
            + 0.5 * np.eye(8))
    assert np.allclose(model.hamiltonian(), want, atol=1e-14)


def test_composite_site_model():
    # site 1 holds qubits 10 and 11, site 2 holds qubit 20
    space = SiteSpace.from_dims({1: 4, 2: 2})
    g = Graph.from_edges([(1, 2)])
    comp = {1: (10, 11), 2: (20,)}
    model = ModelInstance(space, g,
                          (parse_sum("1.0 * Z10 X20"), parse_sum("0.5 * X10 X11")),
                          site_composition=comp)
    assert model.term_support(model.terms[0]) == (1, 2)
    assert model.term_support(model.terms[1]) == (1,)
    assert model.qubit_owner == {10: 1, 11: 1, 20: 2}
    want = (dense_pauli_word({1: "Z", 3: "X"}, [1, 2, 3])
            + 0.5 * dense_pauli_word({1: "X", 2: "X"}, [1, 2, 3]))
    assert np.allclose(model.hamiltonian(), want, atol=1e-14)


def test_composite_site_validation():
    space = SiteSpace.from_dims({1: 4, 2: 2})
    g = Graph.from_edges([(1, 2)])
    with pytest.raises(UnknownSiteError):
        ModelInstance(space, g, (), site_composition={1: (10, 11)})
    with pytest.raises(UnknownSiteError):
        ModelInstance(space, g, (), site_composition={1: (10, 11), 2: (10,)})
    with pytest.raises(DimensionMismatchError):
        ModelInstance(space, g, (), site_composition={1: (10,), 2: (20,)})
    with pytest.raises(UnknownSiteError):
        ModelInstance(space, g, (parse_sum("1.0 * Z99"),),
                      site_composition={1: (10, 11), 2: (20,)})



def test_pauli_term_on_a_qutrit_site_is_rejected():
    space = SiteSpace.from_dims({1: 3, 2: 2})
    with pytest.raises(DimensionMismatchError):
        ModelInstance(space, Graph.from_edges([(1, 2)]),
                      (parse_sum("1.0 * Z1 Z2"),))


def test_pauli_terms_on_a_qutrit_chain_are_rejected_at_construction():
    """No route answers a model whose Pauli letters sit on a qutrit: the
    certificate once passed it while the dense route raised."""
    space = SiteSpace.from_dims({1: 3, 2: 2, 3: 2})
    terms = (parse_sum("1.0 * Z1 Z2"), parse_sum("1.0 * Z2 Z3"))
    with pytest.raises(DimensionMismatchError, match=r"term 0 .*site 1 of dim 3"):
        ModelInstance(space, Graph.from_edges([(1, 2), (2, 3)]), terms)
    # the same letters on qubits, and a dense term on the qutrit, are fine
    ModelInstance(space, Graph.from_edges([(1, 2), (2, 3)]),
                  (SupportedOperator((1, 2), np.eye(6)), terms[1]))

def test_dense_cap_guard(monkeypatch):
    monkeypatch.setenv("QMN_DENSE_CAP", "4")
    space = SiteSpace.qubits(3)
    model = ModelInstance(space, chain_graph(3), (parse_sum("1.0 * Z1 Z2"),))
    with pytest.raises(DenseCapError):
        model.hamiltonian()


def test_stabilizer_ghz():
    space = SiteSpace.qubits(3)
    rho = stabilizer_state(
        [parse_term("1.0 * X1 X2 X3"), parse_term("1.0 * Z1 Z2"),
         parse_term("1.0 * Z2 Z3")], space)
    assert np.allclose(rho.matrix, ghz().matrix, atol=1e-12)
    assert entropy(rho.matrix) == pytest.approx(0.0, abs=1e-10)


def test_stabilizer_ring_mixture_is_markov():
    # three Z-type checks on a 4-ring leave a rank-2 mixture
    space = SiteSpace.qubits(4)
    ring = Graph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
    rho = stabilizer_state(
        [parse_term("1.0 * Z1 Z2"), parse_term("1.0 * Z2 Z3"),
         parse_term("1.0 * Z3 Z4")], space)
    w = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(w > 1e-12) == 2
    rep = is_markov_network(rho, ring)
    assert rep.passed
    assert len(rep.records) == 2


def test_stabilizer_state_needs_qubit_sites():
    space = SiteSpace.from_dims({1: 3, 2: 2})
    with pytest.raises(DimensionMismatchError):
        stabilizer_state([parse_term("1.0 * Z1 Z2")], space)


def test_stabilizer_negative_sign_generator():
    space = SiteSpace.qubits(2)
    rho = stabilizer_state([parse_term("-1.0 * Z1 Z2")], space)
    # odd-parity subspace
    assert rho.matrix[1, 1] == pytest.approx(0.5)
    assert rho.matrix[2, 2] == pytest.approx(0.5)
    assert rho.matrix[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_stabilizer_rejects_bad_generators():
    space = SiteSpace.qubits(2)
    with pytest.raises(ValueError, match="anticommute"):
        stabilizer_state([parse_term("1.0 * Z1"), parse_term("1.0 * X1")], space)
    with pytest.raises(ValueError, match="dependent"):
        stabilizer_state([parse_term("1.0 * Z1"), parse_term("1.0 * Z2"),
                          parse_term("1.0 * Z1 Z2")], space)
    with pytest.raises(ValueError, match="zero projector"):
        stabilizer_state([parse_term("1.0 * Z1"), parse_term("1.0 * Z2"),
                          parse_term("-1.0 * Z1 Z2")], space)
    with pytest.raises(ValueError, match="coefficient"):
        stabilizer_state([parse_term("2.0 * Z1")], space)
    with pytest.raises(ValueError, match="single Pauli"):
        stabilizer_state([parse_sum("1.0 * Z1 + 1.0 * Z2")], space)


def test_marginal_matches_oracle():
    space = SiteSpace.qubits(3)
    rng = np.random.default_rng(31)
    rho = DensityMatrix(random_density(rng, 8, rank=4), space)
    red = partial_trace(rho.matrix, space, [1, 3])
    want = ptrace_indexsum(rho.matrix, [2, 2, 2], [0, 2])
    assert np.allclose(red.matrix, want, atol=1e-12)
    assert red.support == (1, 3)
    DensityMatrix(red.matrix, space.subspace(red.support))  # a valid state
