import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmn import decompose, families
from qmn.cumulants import expand, model_cumulants
from qmn.decompose import (
    LOCAL_COMMUTING,
    NOT_SHIELD_COMMUTING,
    SHIELD_COMMUTING_ONLY,
    classify,
    coarse_grain_model,
    pairwise_commutation,
    star_decompose,
    theorem4_decompose,
    verify_gibbs,
)
from qmn.errors import (
    DecompositionResidualError,
    EnumerationCapError,
    NotMarkovError,
    NotTriangleFreeError,
    UnknownSiteError,
)
from qmn.graphs import Graph, Partition, cliques
from qmn.markov import DensityMatrix, ModelInstance, gibbs, is_markov_network
from qmn.pauli import PauliSum, PauliTerm, as_sum
from qmn.tensor import SiteSpace, SupportedOperator, embed_sum, logm_pd

from helpers import dense_pauli_word, expm_taylor, haar_unitary, log_gibbs

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def chain(n):
    return Graph.from_edges([(i, i + 1) for i in range(1, n)])


def part(a, b, c):
    return Partition(frozenset(a), frozenset(b), frozenset(c))


def pw(coeff, letters):
    return PauliTerm.from_letters(coeff, letters)


def cell_model(beta=0.35):
    """Four commuting-in-pairs plaquette terms around a center qubit."""
    graph = Graph.from_edges(
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 5), (3, 5), (4, 5)])
    terms = (pw(1.0, {1: "Z", 2: "Z", 5: "Y"}),
             pw(1.0, {2: "Z", 3: "Z", 5: "X"}),
             pw(1.0, {3: "Z", 4: "Z", 5: "Y"}),
             pw(1.0, {4: "Z", 1: "Z", 5: "X"}))
    return ModelInstance(SiteSpace.qubits(5), graph, terms, beta=beta)


# ---------------------------------------------------------------------------
# pairwise commutation

def test_pairwise_commutation_disjoint_supports_skipped():
    space = SiteSpace.qubits(2)
    rep = pairwise_commutation(
        [SupportedOperator((1,), X), SupportedOperator((2,), Z)], space)
    assert rep.commuting
    assert rep.max_norm == 0.0
    assert rep.worst is None


def test_pairwise_commutation_finds_worst_pair():
    space = SiteSpace.qubits(3)
    ops = [SupportedOperator((1, 2), np.kron(X, X)),
           SupportedOperator((2, 3), np.kron(Z, Z)),
           SupportedOperator((3,), Z)]
    rep = pairwise_commutation(ops, space)
    assert not rep.commuting
    assert rep.worst == (0, 1)
    # [X1 X2, Z2 Z3] = 2 X1 (X Z)2 Z3, of normalized norm 2 as the symbolic one
    assert rep.max_norm == pytest.approx(2.0, rel=1e-12)


def test_pairwise_commutation_names_no_pair_within_rtol():
    # a norm within the tolerance is reported, but no pair is to blame
    space = SiteSpace.qubits(3)
    ops = [SupportedOperator((1, 2), np.kron(X, X)),
           SupportedOperator((2, 3), np.kron(Z, Z))]
    rep = pairwise_commutation(ops, space, rtol=3.0)
    assert rep.commuting and rep.worst is None
    assert rep.max_norm == pytest.approx(2.0, rel=1e-12)


def test_relative_commutator_norm_is_the_same_symbolic_and_dense():
    # every pair anticommutes on one qubit, so each relative norm is 2
    # however many qubits the union support has
    pairs = [({1: "X"}, {1: "Z"}),
             ({1: "X", 2: "X"}, {2: "Z", 3: "Z"}),
             ({1: "X", 2: "X", 3: "X"}, {3: "Z", 4: "Z", 5: "Z", 6: "Z"})]
    space = SiteSpace.qubits(6)
    for la, lb in pairs:
        sym = [PauliSum.of(pw(1.0, la)), PauliSum.of(pw(1.0, lb))]
        dense = [SupportedOperator(s.support, s.matrix(s.support)) for s in sym]
        want = pairwise_commutation(sym, space).max_norm
        assert want == 2.0
        assert pairwise_commutation(dense, space).max_norm == pytest.approx(want, rel=1e-12)


def test_pairwise_commutation_zero_operator_skipped():
    space = SiteSpace.qubits(2)
    ops = [SupportedOperator((1, 2), np.zeros((4, 4))),
           SupportedOperator((1,), X)]
    rep = pairwise_commutation(ops, space)
    assert rep.commuting


# ---------------------------------------------------------------------------
# classification

def test_classify_local_commuting_chain():
    n = 5
    terms = tuple(pw(1.0, {i: "Z", i + 1: "Z"}) for i in range(1, n)) + (
        pw(0.4, {2: "Z"}), pw(-0.3, {4: "Z"}))
    model = ModelInstance(SiteSpace.qubits(n), chain(n), terms, beta=1.0)
    c = classify(model)
    assert c.verdict == LOCAL_COMMUTING
    assert c.pairwise_max == 0.0
    assert c.records == ()
    assert c.witness is None


def test_classify_cell_is_shield_commuting_only():
    c = classify(cell_model())
    assert c.verdict == SHIELD_COMMUTING_ONLY
    # [Z1Z2Y5, Z2Z3X5] = -2i Z1Z3Z5 at unit coefficients
    assert c.pairwise_max == pytest.approx(2.0, rel=1e-12)
    found = {(tuple(sorted(r.partition.a)), tuple(sorted(r.partition.b)),
              tuple(sorted(r.partition.c))) for r in c.records}
    assert found == {((1,), (2, 4, 5), (3,)), ((2,), (1, 3, 5), (4,))}
    assert all(r.commuting and r.commutator_norm == 0.0 for r in c.records)


def test_classify_cell_gibbs_state_is_markov():
    model = cell_model()
    rep = is_markov_network(gibbs(model), model.graph)
    assert rep.passed
    assert rep.max_cmi <= 1e-10


def test_classify_not_shield_commuting():
    terms = (pw(1.0, {1: "X", 2: "X"}), pw(1.0, {2: "Z", 3: "Z"}))
    model = ModelInstance(SiteSpace.qubits(3), chain(3), terms, beta=1.0)
    c = classify(model)
    assert c.verdict == NOT_SHIELD_COMMUTING
    assert c.witness is not None
    assert not c.records[-1].commuting
    assert c.records[-1].partition == c.witness


def test_classify_dense_terms_agree_with_symbolic():
    model = cell_model()
    dense = ModelInstance(model.space, model.graph,
                          tuple(model.term_operator(t) for t in model.terms),
                          beta=model.beta)
    c = classify(dense)
    assert c.verdict == SHIELD_COMMUTING_ONLY
    assert len(c.records) == 2
    assert all(r.commuting for r in c.records)

    terms = (SupportedOperator((1, 2), np.kron(X, X)),
             SupportedOperator((2, 3), np.kron(Z, Z)))
    bad = ModelInstance(SiteSpace.qubits(3), chain(3), terms, beta=1.0)
    assert classify(bad).verdict == NOT_SHIELD_COMMUTING


@st.composite
def pauli_models(draw, max_qubits=5):
    """A random graph on 2 to ``max_qubits`` qubits, signed integer Pauli
    words on its cliques."""
    n = draw(st.integers(2, max_qubits))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    graph = Graph.from_edges(edges, vertices=range(1, n + 1))
    words = cliques(graph)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        sites = draw(st.sampled_from(words))
        letters = {q: draw(st.sampled_from("XYZ")) for q in sites}
        terms.append(pw(draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0])), letters))
    return ModelInstance(SiteSpace.qubits(n), graph, tuple(terms), beta=1.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pauli_models())
def test_classify_symbolic_and_dense_agree(model):
    dense = ModelInstance(model.space, model.graph,
                          tuple(model.term_operator(t) for t in model.terms),
                          beta=model.beta)
    sym, den = classify(model), classify(dense)
    assert sym.verdict == den.verdict
    assert ([(r.partition, r.commuting) for r in sym.records]
            == [(r.partition, r.commuting) for r in den.records])

    def agree(exact: float, dense_norm: float) -> bool:
        if exact == 0.0:
            return dense_norm <= 1e-12
        return abs(dense_norm - exact) <= 1e-12 * exact

    assert agree(sym.pairwise_max, den.pairwise_max)
    if sym.verdict == LOCAL_COMMUTING:
        assert sym.pairwise_worst is None and den.pairwise_worst is None
    for a, b in zip(sym.records, den.records):
        assert agree(a.commutator_norm, b.commutator_norm), a.partition


# ---------------------------------------------------------------------------
# verify_gibbs: the certificate route and the dense sweep

@settings(max_examples=200, deadline=None, derandomize=True)
@given(pauli_models(max_qubits=6), st.sampled_from([0.3, 1.0, 1.5]))
def test_certificates_agree_with_the_dense_sweep(model, beta):
    model = ModelInstance(model.space, model.graph, model.terms, beta=beta)
    for mode in ("spanning", "all"):
        auto = verify_gibbs(model, tol=1e-9, mode=mode)
        dense = verify_gibbs(model, tol=1e-9, mode=mode, route="dense")
        assert (auto.mode, dense.mode, dense.route) == (mode, mode, "dense")
        assert auto.passed == dense.passed
        if auto.route == "certificate":
            c = classify(model)
            assert auto.certificate == c.verdict != NOT_SHIELD_COMMUTING
            assert dense.max_cmi <= 1e-12
            # the certificate lists what classify checked, whatever the mode
            assert ([r.partition for r in auto.records]
                    == [r.partition for r in c.records])
            assert all(r.cmi == 0.0 and r.passed for r in auto.records)
            assert ({r.partition for r in auto.records}
                    <= {r.partition for r in dense.records})
        else:
            assert auto == dense


def test_verify_gibbs_falls_through_past_the_search_cap(monkeypatch):
    # vertex 2 is isolated; across ({2}|{1}|{3}) the default grouping puts
    # Z1 with A and fails, and the grouping that commutes is the second
    terms = (pw(1.0, {1: "Z", 3: "X"}), pw(1.0, {1: "Z"}), pw(1.0, {3: "Z"}),
             pw(1.0, {1: "Y", 3: "Z"}))
    graph = Graph.from_edges([(1, 3)], vertices=[1, 2, 3])
    model = ModelInstance(SiteSpace.qubits(3), graph, terms, beta=1.0)
    with pytest.raises(EnumerationCapError):
        classify(model, search_cap=1)
    full = verify_gibbs(model, tol=1e-9)
    assert (full.route, full.certificate) == ("certificate", SHIELD_COMMUTING_ONLY)
    monkeypatch.setattr(decompose, "SPLIT_SEARCH_CAP", 1)
    capped = verify_gibbs(model, tol=1e-9)
    assert capped.route == "dense" and capped.certificate is None
    assert capped == is_markov_network(gibbs(model), graph, tol=1e-9)
    assert capped.passed


def test_verify_gibbs_validates_route_and_mode():
    model = cell_model()
    with pytest.raises(ValueError):
        verify_gibbs(model, route="local")
    with pytest.raises(ValueError):
        verify_gibbs(model, mode="everything")


# ---------------------------------------------------------------------------
# star decomposition

def test_star_decompose_planted_pull():
    # u = 2 has dimension 4 (factors a, b); the edge to 1 couples through
    # the full matrix algebra on factor a, the edge to 3 through Z on b.
    # K_2 = Xa + Zb must split as pull(1) = Xa, h_2 = Zb, pull(3) = 0:
    # Xa commutes with the other edge's factors but not with the joint
    # algebra, while Zb lands in the joint commutant.
    space = SiteSpace.from_dims({1: 2, 2: 4, 3: 2})
    xa, za, zb = np.kron(X, I2), np.kron(Z, I2), np.kron(I2, Z)
    k12 = SupportedOperator((1, 2), np.kron(X, xa) + np.kron(Y, za))
    k23 = SupportedOperator((2, 3), np.kron(zb, Z))
    k2 = SupportedOperator((2,), xa + zb)
    star = star_decompose(k2, {1: k12, 3: k23}, 2, space)
    assert star.residual <= 1e-10
    assert np.allclose(star.pulls[1].matrix, xa, atol=1e-9)
    assert np.allclose(star.pulls[3].matrix, 0.0, atol=1e-9)
    assert np.allclose(star.vertex_term.matrix, zb, atol=1e-9)


def test_star_decompose_reassembles_vertex_cumulant():
    rng = np.random.default_rng(23)
    space = SiteSpace.from_dims({1: 2, 2: 4, 3: 2})
    xa, zb = np.kron(X, I2), np.kron(I2, Z)
    k12 = SupportedOperator((1, 2), np.kron(X, xa))
    k23 = SupportedOperator((2, 3), np.kron(zb, Z))
    for _ in range(6):
        c = rng.normal(size=3)
        k2 = SupportedOperator((2,), c[0] * xa + c[1] * zb + c[2] * xa @ zb)
        star = star_decompose(k2, {1: k12, 3: k23}, 2, space)
        total = star.vertex_term.matrix + sum(g.matrix for g in star.pulls.values())
        assert np.allclose(total, k2.matrix, atol=1e-9)
        for g in star.pulls.values():
            assert np.allclose(g.matrix, g.matrix.conj().T, atol=1e-12)


def test_star_decompose_outside_ansatz_raises():
    # both edges generate only diagonal algebras, so X is unreachable
    space = SiteSpace.qubits(3)
    k12 = SupportedOperator((1, 2), np.kron(Z, Z))
    k23 = SupportedOperator((2, 3), np.kron(Z, Z))
    k2 = SupportedOperator((2,), X)
    with pytest.raises(DecompositionResidualError) as err:
        star_decompose(k2, {1: k12, 3: k23}, 2, space)
    assert err.value.residual > 1.0


def test_star_decompose_support_validation():
    space = SiteSpace.qubits(3)
    k12 = SupportedOperator((1, 2), np.kron(Z, Z))
    with pytest.raises(UnknownSiteError):
        star_decompose(SupportedOperator((1,), Z), {1: k12}, 2, space)
    with pytest.raises(UnknownSiteError):
        star_decompose(SupportedOperator((2,), Z), {3: k12}, 2, space)


# ---------------------------------------------------------------------------
# full decomposition of a state

def check_decomposition(dec, rho):
    space = rho.space
    assert np.allclose(embed_sum(dec.terms(), space), logm_pd(rho.matrix), atol=1e-8)
    rep = pairwise_commutation(dec.terms(), space, rtol=1e-8)
    assert rep.commuting
    rebuilt = gibbs(dec.to_model())
    assert np.allclose(rebuilt.matrix, rho.matrix, atol=1e-8)


def test_theorem4_diagonal_star_graph():
    graph = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    space = SiteSpace.qubits(4, first_id=0)
    terms = (pw(1.0, {0: "Z", 1: "Z"}), pw(0.7, {0: "Z", 2: "Z"}),
             pw(-0.5, {0: "Z", 3: "Z"}), pw(0.4, {0: "Z"}))
    model = ModelInstance(space, graph, terms, beta=0.9)
    rho = gibbs(model)
    dec = theorem4_decompose(model_cumulants(model), graph)
    assert dec.residual <= 1e-10
    assert dec.max_commutator <= 1e-10
    assert set(dec.edge_terms) == {(0, 1), (0, 2), (0, 3)}
    assert set(dec.vertex_terms) == {0, 1, 2, 3}
    # the field stays at the vertex: no edge algebra pull is needed for Z0
    v0 = dec.vertex_terms[0].matrix
    assert np.allclose(v0 - np.trace(v0) / 2 * I2, 0.9 * 0.4 * Z, atol=1e-9)
    check_decomposition(dec, rho)


def test_theorem4_pulls_edge_shred_on_composite_site():
    # the grouped edge term X1 Xa + Za hides a one-body piece at site 2
    # that lies outside the edge's own factor algebra span{I, Xa}; it must
    # be pulled back into the edge term through the commutant ansatz
    space = SiteSpace.from_dims({1: 2, 2: 4, 3: 2})
    graph = chain(3)
    xa, za, zb = np.kron(X, I2), np.kron(Z, I2), np.kron(I2, Z)
    h12 = SupportedOperator((1, 2), np.kron(X, xa) + np.kron(I2, za))
    h23 = SupportedOperator((2, 3), np.kron(zb, Z))
    beta = 0.7
    model = ModelInstance(space, graph, (h12, h23), beta=beta)
    rho = gibbs(model)
    dec = theorem4_decompose(model_cumulants(model), graph)
    assert np.allclose(dec.edge_terms[(1, 2)].matrix, beta * h12.matrix,
                       atol=1e-9)
    assert np.allclose(dec.edge_terms[(2, 3)].matrix, beta * h23.matrix,
                       atol=1e-9)
    check_decomposition(dec, rho)


def test_theorem4_conjugated_chain():
    # diagonal commuting chain with edge shreds, rotated by a random
    # product unitary; the decomposition must survive the change of frame
    n = 4
    graph = chain(n)
    space = SiteSpace.qubits(n)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        us = {i: haar_unitary(rng, 2) for i in range(1, n + 1)}
        terms = []
        for i in range(1, n):
            w = np.kron(us[i], us[i + 1])
            local = np.kron(Z, Z) + rng.normal() * np.kron(Z, I2)
            terms.append(SupportedOperator((i, i + 1), w @ local @ w.conj().T))
        w2 = us[2]
        terms.append(SupportedOperator((2,), w2 @ (0.6 * Z) @ w2.conj().T))
        model = ModelInstance(space, graph, tuple(terms), beta=0.8)
        rho = gibbs(model)
        dec = theorem4_decompose(model_cumulants(model), graph)
        assert dec.residual <= 1e-9
        assert dec.max_commutator <= 1e-9
        check_decomposition(dec, rho)


def test_theorem4_dimer_absorbs_vertex_part():
    # a two-site state is vacuously a Markov network; the one-body piece
    # that fails to commute with the coupling is absorbed into the edge
    space = SiteSpace.qubits(2)
    graph = Graph.from_edges([(1, 2)])
    h = SupportedOperator((1, 2), np.kron(X, X) + 0.5 * np.kron(Z, I2))
    beta = 0.9
    model = ModelInstance(space, graph, (h,), beta=beta)
    rho = gibbs(model)
    dec = theorem4_decompose(model_cumulants(model), graph)
    assert np.allclose(dec.edge_terms[(1, 2)].matrix, beta * h.matrix,
                       atol=1e-9)
    for u in (1, 2):
        v = dec.vertex_terms[u].matrix
        assert np.allclose(v, np.trace(v) / 2 * I2, atol=1e-9)
    check_decomposition(dec, rho)


@pytest.mark.parametrize("seed", [1145, 1234, 1362, 1382, 1388, 796403729])
def test_theorem4_seeded_models_decompose(seed):
    # drawn as the benchmark draws them; on these seeds rounding noise
    # admitted into a commutant basis breaks the regrouped terms' commutation
    rng = np.random.default_rng(seed)
    models = [families.theorem4_model("path4", rng)]
    models += [families.theorem4_model(kind, rng) for kind in families.THEOREM4_KINDS]
    for model in models:
        dec = theorem4_decompose(model_cumulants(model), model.graph)
        assert dec.residual <= 1e-8
        assert dec.max_commutator <= 1e-8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(families.THEOREM4_KINDS), st.integers(0, 2 ** 32 - 1),
       st.floats(0.3, 3.0))
def test_local_and_dense_decompositions_agree(kind, seed, beta):
    # the local route (cumulants from the terms) against the dense one
    # (expand of the full log rho): the same terms within 1e-12
    model = families.theorem4_model(kind, np.random.default_rng(seed), beta=beta)
    got = theorem4_decompose(model_cumulants(model), model.graph)
    want = theorem4_decompose(expand(log_gibbs(model), model.space), model.graph)
    assert set(got.vertex_terms) == set(want.vertex_terms)
    assert set(got.edge_terms) == set(want.edge_terms)
    pairs = [(got.vertex_terms[u], want.vertex_terms[u]) for u in want.vertex_terms]
    pairs += [(got.edge_terms[e], want.edge_terms[e]) for e in want.edge_terms]
    for a, b in pairs:
        assert a.support == b.support
        assert np.linalg.norm(a.matrix - b.matrix) <= 1e-12 * max(b.hs_norm(), 1.0)
    assert abs(got.residual - want.residual) <= 1e-12
    assert abs(got.max_commutator - want.max_commutator) <= 1e-12


def test_theorem4_triangle_raises():
    graph = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    space = SiteSpace.qubits(3)
    rho = DensityMatrix(np.eye(8, dtype=complex) / 8, space)
    with pytest.raises(NotTriangleFreeError):
        theorem4_decompose(expand(logm_pd(rho.matrix), space), graph)


def test_theorem4_off_clique_support_raises():
    space = SiteSpace.qubits(3)
    h = 0.6 * np.kron(np.kron(X, X), X)
    e = expm_taylor(h)
    rho = DensityMatrix(e / np.trace(e).real, space)
    with pytest.raises(NotMarkovError, match="outside"):
        theorem4_decompose(expand(logm_pd(rho.matrix), space), chain(3))


def test_theorem4_noncommuting_edge_cumulants_raise():
    space = SiteSpace.qubits(3)
    terms = (SupportedOperator((1, 2), np.kron(X, X)),
             SupportedOperator((2, 3), np.kron(Z, Z)))
    model = ModelInstance(space, chain(3), terms, beta=1.0)
    with pytest.raises(NotMarkovError, match="commute"):
        theorem4_decompose(model_cumulants(model), chain(3))


def test_theorem4_vertex_mismatch():
    rho = DensityMatrix(np.eye(8, dtype=complex) / 8, SiteSpace.qubits(3))
    with pytest.raises(UnknownSiteError):
        theorem4_decompose(expand(logm_pd(rho.matrix), rho.space), chain(4))


# ---------------------------------------------------------------------------
# coarse-graining

def assert_sum_equals(s, *terms):
    total = PauliSum.zero()
    for t in terms:
        total = total + as_sum(t)
    assert (as_sum(s) - total).is_zero


def test_coarse_grain_cell_merge_center_into_corner():
    model = cell_model()
    merged = coarse_grain_model(model, {5: 1})
    assert sorted(merged.graph.edges) == [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
    assert merged.space.sites == (1, 2, 3, 4)
    assert merged.space.dims == (4, 2, 2, 2)
    assert merged.site_composition == {1: (1, 5), 2: (2,), 3: (3,), 4: (4,)}
    supports = {tuple(sorted(merged.term_support(t))): t for t in merged.terms}
    assert set(supports) == {(1, 2, 3), (1, 3, 4)}
    assert_sum_equals(supports[(1, 2, 3)], model.terms[0], model.terms[1])
    assert_sum_equals(supports[(1, 3, 4)], model.terms[2], model.terms[3])
    assert classify(merged).verdict == LOCAL_COMMUTING


def test_coarse_grain_cell_merge_center_into_other_corner():
    model = cell_model()
    merged = coarse_grain_model(model, {5: 2})
    supports = {tuple(sorted(merged.term_support(t))): t for t in merged.terms}
    assert set(supports) == {(1, 2, 4), (2, 3, 4)}
    assert_sum_equals(supports[(1, 2, 4)], model.terms[0], model.terms[3])
    assert_sum_equals(supports[(2, 3, 4)], model.terms[1], model.terms[2])
    assert classify(merged).verdict == LOCAL_COMMUTING


def test_coarse_grain_merged_hamiltonian_matches():
    model = cell_model()
    merged = coarse_grain_model(model, {5: 1})
    # merging 5 into 1 reorders the qubit axes to (1, 5, 2, 3, 4)
    order = [1, 5, 2, 3, 4]
    want = sum(dense_pauli_word(dict(t.word), order) for t in model.terms)
    assert np.allclose(merged.hamiltonian(), want, atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(gibbs(merged).matrix),
                       np.linalg.eigvalsh(gibbs(model).matrix), atol=1e-12)


def test_coarse_grain_validation():
    model = cell_model()
    with pytest.raises(UnknownSiteError):
        coarse_grain_model(model, {3: 1})  # not adjacent

    dense = ModelInstance(SiteSpace.qubits(2), Graph.from_edges([(1, 2)]),
                          (SupportedOperator((1, 2), np.kron(Z, Z)),))
    with pytest.raises(ValueError, match="Pauli"):
        coarse_grain_model(dense, {2: 1})
