import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmn import families
from qmn.cumulants import (
    CUMULANT_TARGETS,
    expand,
    local_expansion,
    model_cumulants,
    verify_clique_support,
)
from qmn.decompose import hermitian_basis
from qmn.errors import NonHermitianError, UnknownSiteError
from qmn.graphs import Graph, cliques
from qmn.markov import DensityMatrix, ModelInstance, gibbs
from qmn.pauli import PauliTerm, parse_sum
from qmn.tensor import (
    SiteSpace, SupportedOperator, embed, embed_sum, hs_norm, logm_pd, partial_trace,
)

from helpers import (
    brute_cumulant,
    dense_pauli_word,
    log_gibbs,
    random_hermitian,
)


def chain(n):
    return Graph.from_edges([(i, i + 1) for i in range(1, n)])


def all_regions(sites):
    for r in range(len(sites) + 1):
        yield from combinations(sites, r)


def test_hermitian_basis_properties():
    for d in (2, 3, 4):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        assert np.allclose(basis[0], np.eye(d) / math.sqrt(d))
        for i, b in enumerate(basis):
            assert np.allclose(b, b.conj().T, atol=1e-14)
            if i > 0:
                assert abs(np.trace(b)) < 1e-14
            for j, b2 in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert np.vdot(b, b2) == pytest.approx(want, abs=1e-13)


def test_hermitian_basis_qubit_is_pauli():
    x, y, z = (m / math.sqrt(2) for m in
               (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                np.array([[1, 0], [0, -1]])))
    basis = hermitian_basis(2)
    assert np.allclose(basis[1], x)
    assert np.allclose(basis[2], y)
    assert np.allclose(basis[3], z)


def test_cumulant_matches_brute_oracle_mixed_dims():
    # the site-by-site split in ``local_expansion`` of operators on one,
    # two and three sites, against inclusion-exclusion on the full matrix
    space = SiteSpace.from_dims({1: 2, 2: 3, 3: 2})
    dims = [2, 3, 2]
    rng = np.random.default_rng(5)
    ops = [SupportedOperator(sup, random_hermitian(rng, space.subspace(sup).total_dim))
           for sup in [(1,), (2,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]]
    h = embed_sum(ops, space)
    exp = local_expansion(ops, space)
    for region in all_regions((1, 2, 3)):
        got = embed(exp.operator(region), space)
        axes = [s - 1 for s in region]
        want = brute_cumulant(h, dims, axes)
        assert np.allclose(got, want, atol=1e-12), region


def test_expand_matches_cumulant_route():
    space = SiteSpace.from_dims({1: 2, 2: 3, 3: 2})
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 12)
    exp = expand(h, space)
    for region in all_regions((1, 2, 3)):
        direct = brute_cumulant(h, [2, 3, 2], [s - 1 for s in region])
        assert np.allclose(embed(exp.operator(region), space), direct,
                           atol=1e-11), region


def test_expand_matches_cumulant_route_qubits():
    space = SiteSpace.qubits(4)
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 16)
    exp = expand(h, space)
    for region in [(1,), (2, 4), (1, 2, 3), (1, 2, 3, 4), ()]:
        direct = brute_cumulant(h, [2] * 4, [s - 1 for s in region])
        assert np.allclose(embed(exp.operator(region), space), direct, atol=1e-11)


def test_expand_known_components():
    space = SiteSpace.qubits(3)
    h = (dense_pauli_word({1: "Z", 2: "Z"}, [1, 2, 3])
         + dense_pauli_word({1: "X"}, [1, 2, 3])
         + 3.0 * np.eye(8))
    exp = expand(h, space)
    assert exp.supports() == [(), (1,), (1, 2)]
    assert np.allclose(exp.operator(()).matrix, [[3.0]])
    assert np.allclose(exp.operator((1,)).matrix, np.array([[0, 1], [1, 0]]))
    assert np.allclose(exp.operator((1, 2)).matrix,
                       np.kron(np.diag([1, -1]), np.diag([1, -1])))
    assert exp.norm_sq((1, 2)) == pytest.approx(8.0, rel=1e-12)
    assert exp.norm_sq((2, 3)) == 0.0


def test_parseval_orthogonality_reconstruction():
    for space in (SiteSpace.from_dims({1: 2, 2: 3, 3: 2}), SiteSpace.qubits(4)):
        rng = np.random.default_rng(space.total_dim)
        h = random_hermitian(rng, space.total_dim)
        exp = expand(h, space)
        total = hs_norm(h) ** 2
        assert sum(exp.norm_sq(x) for x in exp.entries) == \
            pytest.approx(total, rel=1e-12)
        kept = sum(exp.norm_sq(x) for x in exp.entries)
        assert abs(kept - exp.total_norm_sq) <= 1e-10 * total
        assert np.allclose(embed_sum(exp.entries.values(), space), h, atol=1e-11)
        embedded = [embed(op, space) for op in exp.entries.values()]
        for i in range(len(embedded)):
            for j in range(i + 1, len(embedded)):
                assert abs(np.vdot(embedded[i], embedded[j])) < 1e-9


def test_expansion_entries_are_genuine():
    space = SiteSpace.from_dims({1: 2, 2: 3, 3: 2})
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 12)
    exp = expand(h, space)
    for key, op in exp.entries.items():
        if not key:
            continue
        assert op.hs_norm() > 0, key
        sub = space.subspace(op.support)
        for s in op.support:
            keep = [x for x in op.support if x != s]
            red = partial_trace(op.matrix, sub, keep)
            bound = 1e-10 * math.sqrt(sub.dim(s)) * op.hs_norm()
            assert hs_norm(red.matrix) <= bound, (key, s)


def test_drop_tolerance():
    space = SiteSpace.qubits(3)
    h = (dense_pauli_word({1: "Z", 2: "Z"}, [1, 2, 3])
         + 1e-15 * dense_pauli_word({3: "X"}, [1, 2, 3]))
    exp = expand(h, space)
    assert frozenset({3}) not in exp.entries
    # residual is float noise plus the dropped weight, both far below 1e-12
    kept_sq = sum(exp.norm_sq(x) for x in exp.entries)
    assert abs(kept_sq - exp.total_norm_sq) <= 1e-12 * exp.total_norm_sq
    kept = expand(h, space, drop_rtol=0.0)
    assert frozenset({3}) in kept.entries


def test_expand_input_validation():
    space = SiteSpace.qubits(2)
    with pytest.raises(NonHermitianError):
        expand(np.array([[0, 1], [0, 0]], dtype=complex), SiteSpace.qubits(1))
    with pytest.raises(UnknownSiteError):
        expand(np.eye(2, dtype=complex), space)


def test_gibbs_log_is_clique_local_for_clique_hamiltonian():
    space = SiteSpace.qubits(3)
    model = ModelInstance(space, chain(3),
                          (parse_sum("0.8 * Z1 Z2"), parse_sum("0.6 * Z2 Z3")),
                          beta=0.7)
    log_rho = logm_pd(gibbs(model).matrix)
    rep = verify_clique_support(expand(log_rho, space), chain(3))
    assert rep.passed
    assert rep.worst is None


def test_clique_local_log_does_not_imply_markov():
    # Gibbs states of clique-local Hamiltonians always have clique-local
    # logarithms; without commuting terms they can still fail the Markov
    # condition.
    from qmn.markov import is_markov_network
    space = SiteSpace.qubits(3)
    model = ModelInstance(space, chain(3),
                          (parse_sum("1.0 * X1 X2"), parse_sum("1.0 * Z2 Z3")))
    rho = gibbs(model)
    rep = verify_clique_support(expand(logm_pd(rho.matrix), space), chain(3))
    assert rep.passed
    assert not is_markov_network(rho, chain(3)).passed


def test_off_clique_mass_detected():
    space = SiteSpace.qubits(3)
    h = (dense_pauli_word({1: "X", 2: "X", 3: "X"}, [1, 2, 3])
         + dense_pauli_word({1: "Z", 2: "Z"}, [1, 2, 3]))
    rep = verify_clique_support(expand(h, space), chain(3))
    assert not rep.passed
    assert rep.worst[0] == (1, 2, 3)
    assert rep.worst[1] == pytest.approx(math.sqrt(8.0), rel=1e-10)


def test_smoothed_ghz_log_has_off_clique_mass():
    space = SiteSpace.qubits(3)
    v = np.zeros(8)
    v[0] = v[7] = 1 / math.sqrt(2)
    rho = DensityMatrix(0.9 * np.outer(v, v) + 0.1 * np.eye(8) / 8, space)
    rep = verify_clique_support(expand(logm_pd(rho.matrix), space), chain(3))
    assert not rep.passed
    offenders = {w[0] for w in rep.witnesses}
    assert offenders == {(1, 3), (1, 2, 3)}
    assert rep.worst[0] == (1, 2, 3)


def test_verify_clique_support_site_mismatch():
    space = SiteSpace.qubits(3)
    exp = expand(np.eye(8, dtype=complex), space)
    with pytest.raises(UnknownSiteError):
        verify_clique_support(exp, Graph.from_edges([(1, 2)]))


def test_commutator_mass_stays_on_bridge_sets():
    # genuine a on A+B and b on B+C: every cumulant component of the
    # commutator keeps all of A and C and meets B
    space = SiteSpace.qubits(4)
    a_sites, b_sites = (1, 2, 3), (2, 3, 4)
    set_a, set_b, set_c = {1}, {2, 3}, {4}
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(12):
        ha = embed(SupportedOperator(a_sites, random_hermitian(rng, 8)), space)
        hb = embed(SupportedOperator(b_sites, random_hermitian(rng, 8)), space)
        da = brute_cumulant(ha, [2] * 4, [s - 1 for s in a_sites])
        db = brute_cumulant(hb, [2] * 4, [s - 1 for s in b_sites])
        comm = da @ db - db @ da
        if hs_norm(comm) <= 1e-10 * hs_norm(da) * hs_norm(db):
            continue
        checked += 1
        # i[a, b] is Hermitian and has the same component norms
        for key in expand(1j * comm, space, drop_rtol=1e-10).entries:
            assert set_a | set_c <= key
            assert key & set_b
    assert checked >= 10


def test_commutator_masses_account_for_norm():
    space = SiteSpace.qubits(3)
    rng = np.random.default_rng(41)
    ha = embed(SupportedOperator((1, 2), random_hermitian(rng, 4)), space)
    hb = embed(SupportedOperator((2, 3), random_hermitian(rng, 4)), space)
    da = brute_cumulant(ha, [2] * 3, [0, 1])
    db = brute_cumulant(hb, [2] * 3, [1, 2])
    comm = da @ db - db @ da
    exp = expand(1j * comm, space, drop_rtol=1e-10)
    total = hs_norm(comm) ** 2
    assert sum(exp.norm_sq(k) for k in exp.entries) == pytest.approx(total, rel=1e-8)


# ---------------------------------------------------------------------------
# cumulants of a model from its terms, against the dense route

COEFFS = (-1.5, -1.0, -0.7, -0.4, 0.3, 0.6, 0.9, 1.2)


@st.composite
def local_models(draw):
    """Models inside the dense cap: Pauli words (the identity word too) and
    dense terms on cliques of a random graph, some sites composite (two
    qubits, asymmetric words on them), beta in [0.3, 3]."""
    n = draw(st.integers(2, 4))
    sites = list(range(1, n + 1))
    graph = Graph.from_edges([e for e in combinations(sites, 2) if draw(st.booleans())],
                             vertices=sites)
    two = [s for s in sites if draw(st.booleans())][:2]
    comp = {s: (2 * s, 2 * s + 1) if s in two else (2 * s,) for s in sites}
    space = SiteSpace.from_dims({s: 2 ** len(comp[s]) for s in sites})
    pool = [c for c in cliques(graph, max_size=3) if c]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("pauli", "pauli", "dense", "identity")))
        sup = draw(st.sampled_from(pool))
        coeff = draw(st.sampled_from(COEFFS))
        if kind == "identity":
            terms.append(PauliTerm(coeff))
        elif kind == "pauli":
            letters = {q: draw(st.sampled_from("IXYZ")) for s in sup for q in comp[s]}
            terms.append(PauliTerm.from_letters(
                coeff, {q: a for q, a in letters.items() if a != "I"}))
        else:
            d = space.subspace(sup).total_dim
            terms.append(SupportedOperator(sup, random_hermitian(rng, d, coeff)))
    beta = draw(st.floats(0.3, 3.0))
    return ModelInstance(space, graph, tuple(terms), beta=beta, site_composition=comp)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(local_models(), st.sampled_from(CUMULANT_TARGETS))
def test_model_cumulants_match_the_dense_expansion(model, of):
    got = model_cumulants(model, of)
    dense = log_gibbs(model) if of == "log-gibbs" else model.beta * model.hamiltonian()
    want = expand(dense, model.space)
    assert got.scalar_known
    assert list(got.entries) == list(want.entries)
    assert got.total_norm_sq == pytest.approx(want.total_norm_sq, rel=1e-12)
    for key, op in want.entries.items():
        err = hs_norm(got.entries[key].matrix - op.matrix)
        assert err <= 1e-12 * op.hs_norm(), (sorted(key), err)


def test_model_cumulants_past_the_dense_cap(monkeypatch):
    model = families.theorem4_model("path4", np.random.default_rng(3))
    inside = model_cumulants(model)
    monkeypatch.setenv("QMN_DENSE_CAP", "4")
    past = model_cumulants(model)
    assert not past.scalar_known
    assert set(past.entries) == set(inside.entries) - {frozenset()}
    assert past.total_norm_sq == pytest.approx(
        inside.total_norm_sq - inside.norm_sq(()), rel=1e-12)
    assert model_cumulants(model, "hamiltonian").scalar_known


def test_model_cumulants_validation():
    space = SiteSpace.qubits(2)
    skew = SupportedOperator((1,), np.array([[0, 1], [0, 0]], dtype=complex))
    model = ModelInstance(space, chain(2), (skew,))
    for of in CUMULANT_TARGETS:
        with pytest.raises(NonHermitianError):
            model_cumulants(model, of)
    with pytest.raises(ValueError, match="of must be"):
        model_cumulants(model, "rho")
