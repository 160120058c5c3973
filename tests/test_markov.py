import json
import math

import numpy as np
import pytest

from qmn.errors import (
    DenseCapError,
    DimensionMismatchError,
    PositivityViolationError,
    UnknownSiteError,
)
from qmn.graphs import Graph
from qmn.markov import (
    DensityMatrix,
    ModelInstance,
    cmi,
    entropy,
    gibbs,
    is_markov_network,
    stabilizer_state,
)
from qmn.pauli import parse_sum, parse_term
from qmn.tensor import SiteSpace, logm_pd

from helpers import (
    classical_cmi,
    dense_pauli_word,
    expm_taylor,
    ptrace_indexsum,
    random_density,
)

# oracle values computed with the helpers in this directory and frozen here
NEG_CONTROL_CMI = 0.052051695401092335  # I(1:3|2) of e^H/Z, H = X1 X2 + Z2 Z3
W_STATE_CMI = 0.636514168294813         # I(1:3|2) of the three-qubit W state


def ghz(n=3):
    space = SiteSpace.qubits(n)
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1.0
    return DensityMatrix.from_vector(v, space)


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
    mm = DensityMatrix.maximally_mixed(space)
    assert math.isclose(entropy(mm.matrix), math.log(4), rel_tol=1e-12)


def test_entropy_pure_mixed_product():
    space = SiteSpace.qubits(1)
    pure = DensityMatrix.from_vector(np.array([1.0, 1.0]), space)
    assert entropy(pure.matrix) == pytest.approx(0.0, abs=1e-12)
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
    rho = DensityMatrix.from_vector(v, space)
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
    red = rho.marginal([1, 3])
    want = ptrace_indexsum(rho.matrix, [2, 2, 2], [0, 2])
    assert np.allclose(red.matrix, want, atol=1e-12)
    assert red.space.sites == (1, 3)
