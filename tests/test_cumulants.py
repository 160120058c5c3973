import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmn import families
from qmn.cli import main, save_model
from qmn.cumulants import (
    CUMULANT_TARGETS,
    _local_components,
    expand,
    model_cumulants,
    verify_clique_support,
)
from qmn.decompose import coarse_grain_model, hermitian_basis
from qmn.errors import NonHermitianError, UnknownSiteError
from qmn.graphs import Graph, cliques
from qmn.markov import DensityMatrix, ModelInstance, gibbs, log_partition
from qmn.pauli import PauliSum, PauliTerm, parse_sum
from qmn.tensor import (
    SiteSpace, SupportedOperator, embed_sum, hs_norm, logm_pd, partial_trace,
)

from helpers import (
    brute_cumulant,
    dense_model_cumulants,
    dense_pauli_word,
    local_expansion,
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
        got = embed_sum((exp.operator(region),), space)
        axes = [s - 1 for s in region]
        want = brute_cumulant(h, dims, axes)
        assert np.allclose(got, want, atol=1e-12), region


def test_a_stack_splits_as_its_operators_one_at_a_time():
    # the leading axes of a stack carry through the site-by-site split
    rng = np.random.default_rng(11)
    stack = np.stack([random_hermitian(rng, 6) for _ in range(3)])
    got = _local_components((4, 7), {4: 2, 7: 3}, stack)
    for i, m in enumerate(stack):
        want = _local_components((4, 7), {4: 2, 7: 3}, m)
        assert got.keys() == want.keys()
        for key, part in want.items():
            assert np.array_equal(got[key][i], part), key


def test_expand_matches_cumulant_route():
    space = SiteSpace.from_dims({1: 2, 2: 3, 3: 2})
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 12)
    exp = expand(h, space)
    for region in all_regions((1, 2, 3)):
        direct = brute_cumulant(h, [2, 3, 2], [s - 1 for s in region])
        assert np.allclose(embed_sum((exp.operator(region),), space), direct,
                           atol=1e-11), region


def test_expand_matches_cumulant_route_qubits():
    space = SiteSpace.qubits(4)
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 16)
    exp = expand(h, space)
    for region in [(1,), (2, 4), (1, 2, 3), (1, 2, 3, 4), ()]:
        direct = brute_cumulant(h, [2] * 4, [s - 1 for s in region])
        assert np.allclose(embed_sum((exp.operator(region),), space), direct, atol=1e-11)


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
        embedded = [embed_sum((op,), space) for op in exp.entries.values()]
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
        ha = embed_sum((SupportedOperator(a_sites, random_hermitian(rng, 8)),), space)
        hb = embed_sum((SupportedOperator(b_sites, random_hermitian(rng, 8)),), space)
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
    ha = embed_sum((SupportedOperator((1, 2), random_hermitian(rng, 4)),), space)
    hb = embed_sum((SupportedOperator((2, 3), random_hermitian(rng, 4)),), space)
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


@st.composite
def word_models(draw):
    """Pauli models on a chain of 2-4 qubits, one edge possibly contracted
    by ``coarse_grain_model`` (multi-word terms on a two-qubit site).  A
    term is one word on an edge or a site, identity letters allowed; or
    such a word plus a narrower one inside it; or the identity word; or a
    word drawn before, again.  With ``z_only`` every letter is a Z or an
    identity.  Coefficients are drawn floats, so sums round."""
    n = draw(st.integers(2, 4))
    z_only = draw(st.booleans())
    alphabet = "IZ" if z_only else "IXYZ"
    coeff = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)
    pool = [(i, i + 1) for i in range(1, n)] + [(i,) for i in range(1, n + 1)]

    def word(sup):
        letters = {q: draw(st.sampled_from(alphabet)) for q in sup}
        return PauliTerm.from_letters(draw(coeff), {q: a for q, a in letters.items()
                                                    if a != "I"})

    terms: list = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("word", "word", "narrow", "identity", "repeat")))
        sup = draw(st.sampled_from(pool))
        if kind == "identity":
            terms.append(PauliTerm(draw(coeff)))
        elif kind == "narrow":
            terms.append(PauliSum.of(word(sup), word(sup[:1])))
        elif kind == "repeat" and terms:
            old = draw(st.sampled_from(terms))
            old = old if isinstance(old, PauliTerm) else old.terms[0]
            terms.append(PauliTerm(draw(coeff), old.x, old.z))
        else:
            terms.append(word(sup))
    model = ModelInstance(SiteSpace.qubits(n), chain(n), tuple(terms),
                          beta=draw(st.floats(0.3, 3.0)))
    if draw(st.booleans()):
        u = draw(st.integers(1, n - 1))
        model = coarse_grain_model(model, {u: u + 1})
    return model


@settings(max_examples=300, deadline=None, derandomize=True)
@given(word_models(), st.sampled_from(CUMULANT_TARGETS))
def test_word_cumulants_match_the_dense_split_of_each_term(model, of):
    got = model_cumulants(model, of)
    want = dense_model_cumulants(model, of)
    assert got.entries.keys() == want.entries.keys()
    scale = math.sqrt(want.total_norm_sq)
    assert abs(got.total_norm_sq - want.total_norm_sq) <= 1e-14 * want.total_norm_sq
    for key, op in want.entries.items():
        assert got.entries[key].support == op.support
        err = hs_norm(got.entries[key].matrix - op.matrix)
        assert err * math.sqrt(model.space.total_dim / op.dim) <= 1e-14 * scale, sorted(key)
        assert abs(got.norm_sq(key) - want.norm_sq(key)) <= 1e-14 * want.total_norm_sq
    # a word of Z letters alone splits exactly, so one such word per term
    # leaves the dense split no rounding of its own
    if all(len(t.terms) == 1 and not t.terms[0].x for t in model.terms):
        assert got.total_norm_sq == want.total_norm_sq
        for key, op in want.entries.items():
            assert np.array_equal(got.entries[key].matrix, op.matrix)
            assert got.norm_sq(key) == want.norm_sq(key)


def test_pauli_models_need_no_dense_terms(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("checked_terms built")

    monkeypatch.setattr(ModelInstance, "checked_terms", property(refuse))
    ising = families.ising_chain(12)
    merged = coarse_grain_model(families.ising_chain(6), {1: 2, 4: 5})
    with pytest.raises(AssertionError, match="checked_terms"):
        ising.hamiltonian()
    for model in (ising, merged):
        assert model_cumulants(model, "hamiltonian").scalar_known
        assert model_cumulants(model).scalar_known
        assert math.isfinite(log_partition(model))
    for name, model in (("ising12", ising), ("merged", merged)):
        path = str(tmp_path / f"{name}.json")
        save_model(model, path)
        argv = [path, "--out", str(tmp_path / f"{name}-out.json")]
        assert main(["decompose", *argv, "--report", str(tmp_path / "rep.json")]) == 0
        assert main(["cumulants", *argv]) == 0


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
    with pytest.raises(NonHermitianError, match="term 0"):
        ModelInstance(space, chain(2), (skew,))  # refused before any route runs
    model = ModelInstance(space, chain(2), (SupportedOperator((1,), np.diag([1.0, -1.0])),))
    with pytest.raises(ValueError, match="of must be"):
        model_cumulants(model, "rho")
