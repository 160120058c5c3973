import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from qmn import decompose, families
from qmn.cumulants import expand, model_cumulants
from qmn.decompose import (
    LOCAL_COMMUTING,
    NOT_SHIELD_COMMUTING,
    SHIELD_COMMUTING_ONLY,
    classify,
    coarse_grain_model,
    pairwise_commutation,
    theorem4_decompose,
    verify_gibbs,
)
from qmn.errors import (
    DecompositionResidualError,
    DenseCapError,
    DimensionMismatchError,
    EnumerationCapError,
    NotMarkovError,
    NonHermitianError,
    NotTriangleFreeError,
    UnknownSiteError,
)
from qmn.graphs import Graph, Partition, cliques
from qmn.markov import DensityMatrix, ModelInstance, gibbs, is_markov_network, log_partition
from qmn.pauli import PauliSum, PauliTerm, as_sum
from qmn.tensor import SiteSpace, SupportedOperator, embed_sum, kron, logm_pd

from helpers import (
    dense_pauli_word,
    expm_taylor,
    haar_unitary,
    log_gibbs,
    random_hermitian,
    reference_commutator,
    relative_commutator_reference,
    star_reference,
    theorem4_reference,
    walk_oracle,
)

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


@st.composite
def pauli_ops(draw, qubits=(1, 2, 3, 4, 5)):
    """Sums of up to three words on a few qubits, so overlapping pairs
    commute word by word, anticommute, or have anticommuting word pairs
    whose products cancel."""
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            letters = {q: l for q in qubits if (l := draw(st.sampled_from("IIIXYZ"))) != "I"}
            terms.append(pw(draw(st.sampled_from((1.0, -1.0, 0.5, -0.0))), letters))
        ops.append(PauliSum(tuple(terms)))
    return ops


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pauli_ops())
@example([PauliSum.of(pw(1.0, {1: "Z", 2: "Z", 5: "Y"}), pw(1.0, {4: "Z", 1: "Z", 5: "X"})),
          PauliSum.of(pw(1.0, {2: "Z", 3: "Z", 5: "X"}), pw(1.0, {3: "Z", 4: "Z", 5: "Y"}))])
def test_pairwise_norms_equal_the_relative_commutator_per_pair(ops):
    space = SiteSpace.qubits(5)
    rep = pairwise_commutation(ops, space, 0.0)
    for (i, j), norm in rep.norms.items():
        assert norm.hex() == decompose._relative_commutator(ops[i], ops[j], space).hex()
        terms = reference_commutator(ops[i], ops[j])
        want = (PauliSum(terms).norm() / max(ops[i].norm() * ops[j].norm(), 1e-300)
                if terms else 0.0)
        assert norm.hex() == want.hex()


def test_pairwise_commutation_refuses_pauli_sums_mixed_with_dense_operators():
    space = SiteSpace.qubits(2)
    sym = PauliSum.of(pw(1.0, {1: "X"}))
    dense = SupportedOperator((1, 2), np.kron(Z, Z))
    for ops in ([sym, dense], [dense, sym]):
        with pytest.raises(ValueError, match="all Pauli sums or all dense operators"):
            pairwise_commutation(ops, space)


def assert_norm_close(got, want):
    assert abs(got - want) <= max(1e-12 * abs(want), 1e-14), (got, want)


@st.composite
def dense_ops(draw, sites=(1, 2, 3, 4, 5)):
    """A 5-site space of dims 2-4 (their product at most 256, so the union
    reference stays cheap) and 2-6 dense operators on 1-3 of its sites:
    Hermitian, non-Hermitian, zero, or real diagonal, which commute with
    each other."""
    dims = draw(st.lists(st.integers(2, 4), min_size=5, max_size=5)
                .filter(lambda ds: math.prod(ds) <= 256))
    space = SiteSpace.from_dims(dict(zip(sites, dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for _ in range(draw(st.integers(2, 6))):
        support = tuple(sorted(draw(st.sets(st.sampled_from(sites), min_size=1,
                                            max_size=3))))
        d = math.prod(space.dim(s) for s in support)
        kind = draw(st.sampled_from(("hermitian", "general", "zero", "diagonal")))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = {"hermitian": g + g.conj().T, "general": g, "zero": np.zeros((d, d)),
             "diagonal": np.diag(rng.normal(size=d))}[kind]
        ops.append(SupportedOperator(support, m))
    return space, ops


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dense_ops())
@example((SiteSpace.from_dims({1: 2, 2: 3, 3: 4, 4: 2, 5: 2}),
          [SupportedOperator((1, 2, 3), random_hermitian(np.random.default_rng(0), 24)),
           SupportedOperator((1, 2, 3), random_hermitian(np.random.default_rng(1), 24)),
           SupportedOperator((2, 3), random_hermitian(np.random.default_rng(2), 12)),
           SupportedOperator((3,), random_hermitian(np.random.default_rng(3), 4)),
           SupportedOperator((1, 3, 5), random_hermitian(np.random.default_rng(4), 16))]))
def test_dense_pair_norms_are_the_union_support_commutator(case):
    # identical supports share 3 sites, nested ones 1-2, and the rest
    # anything from 1 to 3; both operand orders give the same norm
    space, ops = case
    rep = pairwise_commutation(ops, space, 0.0)
    want = [(i, j) for i in range(len(ops)) for j in range(i + 1, len(ops))
            if set(ops[i].support) & set(ops[j].support)]
    assert list(rep.norms) == want
    for (i, j), norm in rep.norms.items():
        ref = relative_commutator_reference(ops[i], ops[j], space)
        assert_norm_close(norm, ref)
        assert_norm_close(decompose._relative_commutator(ops[j], ops[i], space), ref)


def test_dense_pairs_of_one_layout_are_stacked_in_chunks(monkeypatch):
    # 30 pairs of a chain of dim-3 sites share the layout (3, 3, 3); a chunk
    # cap of 4 pairs' products splits them over 8 batches, with the same norms
    rng = np.random.default_rng(11)
    space = SiteSpace.from_dims({s: 3 for s in range(1, 32)})
    ops = [SupportedOperator((s, s + 1), random_hermitian(rng, 9)) for s in range(1, 31)]
    ops += [SupportedOperator((s,), random_hermitian(rng, 3)) for s in (1, 31)]
    whole = pairwise_commutation(ops, space).norms
    monkeypatch.setattr(decompose, "PRODUCT_CHUNK", 4 * 27 ** 2)
    chunked = pairwise_commutation(ops, space).norms
    assert list(chunked) == list(whole)
    for key, norm in chunked.items():
        assert norm == whole[key]
        assert_norm_close(norm, relative_commutator_reference(*(ops[k] for k in key), space))


def test_dense_pairs_with_a_large_union_stay_within_the_chunk_memory():
    # seven 3-site dim-4 terms that share site 0: 21 pairs on a union of
    # dimension 1024, whose two products take 32 MiB; embedding both
    # operands there and multiplying peaks at 64 MiB traced
    rng = np.random.default_rng(12)
    space = SiteSpace.from_dims({s: 4 for s in range(15)})
    ops = [SupportedOperator((0, 2 * k + 1, 2 * k + 2), random_hermitian(rng, 64))
           for k in range(7)]
    tracemalloc.start()
    try:
        rep = pairwise_commutation(ops, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2 ** 20
    assert len(rep.norms) == 21
    assert_norm_close(rep.norms[0, 1], relative_commutator_reference(ops[0], ops[1], space))


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


def test_classify_holds_a_symbolic_pair_to_exact_cancellation():
    """A 1e-12 X2 rider does not commute with Z2 Z3: the pairwise stage
    holds it to the grouping stage's exact zero, so no certificate is
    issued and the dense sweep answers."""
    terms = (PauliSum.of(pw(1.0, {1: "Z", 2: "Z"}), pw(1e-12, {2: "X"})),
             pw(1.0, {2: "Z", 3: "Z"}))
    model = ModelInstance(SiteSpace.qubits(3), chain(3), terms, beta=1.0)
    c = classify(model)
    assert c.route == "symbolic"
    assert c.verdict == NOT_SHIELD_COMMUTING
    assert c.pairwise_worst == (0, 1)
    assert c.witness == Partition(frozenset({1}), frozenset({2}), frozenset({3}))
    rep = verify_gibbs(model)
    assert rep.route == "dense"
    assert rep.passed


def dense_chain_with_x2(coeff):
    space = SiteSpace.qubits(3)
    terms = [pw(1.0, {1: "Z", 2: "Z"}), pw(1.0, {2: "Z", 3: "Z"}), pw(coeff, {2: "X"})]
    model = ModelInstance(space, chain(3), terms)
    return ModelInstance(space, chain(3), tuple(map(model.term_operator, model.terms)))


def test_classify_does_not_judge_a_dense_term_at_rounding_level():
    c = classify(dense_chain_with_x2(1e-17))
    assert c.route == "dense"
    assert c.verdict == LOCAL_COMMUTING
    assert c.pairwise_max == 0.0 and c.pairwise_worst is None
    c = classify(dense_chain_with_x2(1e-3))
    assert c.verdict == NOT_SHIELD_COMMUTING
    assert c.pairwise_max == pytest.approx(2.0, rel=1e-12)
    assert c.witness == Partition(frozenset({1}), frozenset({2}), frozenset({3}))


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


COEFFS = [-2.0, -1.0, 1.0, 2.0]


def draw_graph(draw, min_qubits: int, max_qubits: int) -> Graph:
    n = draw(st.integers(min_qubits, max_qubits))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return Graph.from_edges(edges, vertices=range(1, n + 1))


def draw_words(draw, graph: Graph, count: int) -> list[PauliTerm]:
    """``count`` signed integer Pauli words on cliques of ``graph``."""
    words = cliques(graph)
    terms = []
    for _ in range(count):
        sites = draw(st.sampled_from(words))
        letters = {q: draw(st.sampled_from("XYZ")) for q in sites}
        terms.append(pw(draw(st.sampled_from(COEFFS)), letters))
    return terms


@st.composite
def pauli_models(draw, max_qubits=5):
    """A random graph on 2 to ``max_qubits`` qubits, signed integer Pauli
    words on its cliques."""
    graph = draw_graph(draw, 2, max_qubits)
    terms = draw_words(draw, graph, draw(st.integers(1, 6)))
    return ModelInstance(SiteSpace.qubits(len(graph.vertices)), graph, tuple(terms),
                         beta=1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pauli_models(max_qubits=6))
def test_pairwise_commutation_visits_every_overlapping_pair_in_order(model):
    ops = [as_sum(t) for t in model.terms]
    want = [(i, j) for i, j in itertools.combinations(range(len(ops)), 2)
            if set(ops[i].support) & set(ops[j].support)]
    assert list(pairwise_commutation(ops, model.space).norms) == want


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


def chain_gadget(draw, u: int, v: int, w: int) -> list[PauliTerm | PauliSum]:
    """P_u Q_v, r R_v and -r R_v + s Q_v T_w, with R anticommuting with Q:
    one noncommutation component on the path u-v-w, whose only commuting
    grouping across ({u}|{v}|{w}) sends r R_v to the C side."""
    p, q, t = (draw(st.sampled_from("XYZ")) for _ in range(3))
    r_letter = draw(st.sampled_from(sorted(set("XYZ") - {q})))
    a, r, s = (draw(st.sampled_from(COEFFS)) for _ in range(3))
    return [pw(a, {u: p, v: q}), pw(r, {v: r_letter}),
            PauliSum.of(pw(-r, {v: r_letter}), pw(s, {v: q, w: t}))]


@st.composite
def component_models(draw):
    """Pauli models for the component check.  Drawn words alone mostly form
    components on cliques, which have no partition to check, so two more
    kinds add structure: the cell's four terms, or a chain gadget on a
    path forced into a drawn graph; either may get one more gadget on an
    induced path and a drawn word.  Up to two disjoint edges are then
    contracted by ``coarse_grain_model``, whose terms are multi-word Pauli
    sums on four-dimensional sites."""
    kind = draw(st.sampled_from(["words", "cell", "gadget"]))
    if kind == "words":
        model = draw(pauli_models())
    else:
        if kind == "cell":
            graph, terms = cell_model().graph, list(cell_model().terms)
        else:
            graph = draw_graph(draw, 3, 5)
            u, v, w = draw(st.permutations(sorted(graph.vertices)))[:3]
            edges = set(graph.edges) | {(min(u, v), max(u, v)), (min(v, w), max(v, w))}
            graph = Graph.from_edges(edges - {(min(u, w), max(u, w))},
                                     vertices=graph.vertices)
            terms = chain_gadget(draw, u, v, w)
        paths = [(u, v, w) for v in sorted(graph.vertices)
                 for u in sorted(graph.neighbors(v)) for w in sorted(graph.neighbors(v))
                 if u < w and not graph.has_edge(u, w)]
        for path in draw(st.lists(st.sampled_from(paths), max_size=1)):
            terms += chain_gadget(draw, *path)
        terms += draw_words(draw, graph, draw(st.integers(0, 1)))
        model = ModelInstance(SiteSpace.qubits(len(graph.vertices)), graph,
                              tuple(terms), beta=1.0)
    merge: dict[int, int] = {}
    for u, v in draw(st.lists(st.sampled_from(sorted(model.graph.edges)), max_size=2)):
        if not {u, v} & (set(merge) | set(merge.values())):
            merge[u] = v
    return coarse_grain_model(model, merge) if merge else model


@settings(max_examples=300, deadline=None, derandomize=True)
@given(component_models())
def test_component_check_agrees_with_the_whole_graph_walk(model):
    dense = ModelInstance(model.space, model.graph,
                          tuple(model.term_operator(t) for t in model.terms),
                          beta=model.beta)
    for m in (model, dense):
        c = classify(m)
        walk = walk_oracle(m)
        assert (c.verdict == NOT_SHIELD_COMMUTING) == (not all(walk.values()))
        if c.witness is not None:
            assert not walk[c.witness]
        # every record is a spanning shielding partition of the model's graph
        assert all(r.partition in walk for r in c.records)


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
    # the three terms form one noncommutation component on the path 1-2-3;
    # across ({1}|{2}|{3}) the default grouping puts Z2 with A and fails,
    # and the grouping that commutes is the second: X1X2 | X2Z3
    terms = (pw(1.0, {1: "X", 2: "X"}), pw(1.0, {2: "Z"}),
             PauliSum.of(pw(-1.0, {2: "Z"}), pw(1.0, {2: "X", 3: "Z"})))
    graph = chain(3)
    model = ModelInstance(SiteSpace.qubits(3), graph, terms, beta=1.0)
    full = verify_gibbs(model, tol=1e-9)
    assert (full.route, full.certificate) == ("certificate", SHIELD_COMMUTING_ONLY)
    monkeypatch.setattr(decompose, "SPLIT_SEARCH_CAP", 1)
    with pytest.raises(EnumerationCapError):
        classify(model)
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


def dense_written(model: ModelInstance) -> ModelInstance:
    """The same model with every term written as a matrix."""
    return ModelInstance(model.space, model.graph,
                         tuple(model.term_operator(t) for t in model.terms),
                         beta=model.beta)


def test_dense_locally_commuting_chain_is_certified_past_the_cap():
    model = dense_written(families.ising_chain(60))
    rep = verify_gibbs(model)
    assert (rep.route, rep.certificate, rep.rtol) == (
        "certificate", LOCAL_COMMUTING, decompose.DEFAULT_RTOL)
    assert rep.passed and rep.records == () and rep.max_cmi == 0.0
    with pytest.raises(DenseCapError):
        verify_gibbs(model, route="dense")


def test_dense_shield_commuting_tiling_keeps_the_sweep_without_a_grouping_search(
        monkeypatch):
    model = dense_written(families.tiling_model(1, 2))
    assert classify(model).verdict == SHIELD_COMMUTING_ONLY

    def refuse(*args, **kwargs):
        raise AssertionError("the verify path ran the dense grouping search")

    monkeypatch.setattr(decompose, "_best_grouping", refuse)
    for mode in ("spanning", "all"):
        rep = verify_gibbs(model, mode=mode)
        assert (rep.route, rep.certificate, rep.rtol) == ("dense", None, None)
        assert rep.passed and rep.max_cmi <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pauli_models(max_qubits=6))
def test_dense_pairwise_stage_agrees_with_the_symbolic_one(model):
    sym = classify(model)
    dense = dense_written(model)
    commuting = decompose._pairwise_stage(dense, decompose.DEFAULT_RTOL)[-1].commuting
    if 0.0 < sym.pairwise_max <= 1e-6:
        # no verdict is asserted between the bands; the draws are counted
        # in the hypothesis statistics, not dropped
        event("symbolic pairwise_max in (0, 1e-6]")
        return
    assert commuting == (sym.verdict == LOCAL_COMMUTING)
    if commuting:
        rep = verify_gibbs(dense, tol=1e-9)
        assert (rep.route, rep.certificate) == ("certificate", LOCAL_COMMUTING)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 2.0, 8.0]),
       st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3]))
def test_dense_certificates_agree_with_the_sweep_under_perturbation(seed, beta, eta):
    rng = np.random.default_rng(seed)
    model = families.random_commuting_model(rng, beta=beta)
    terms = list(model.terms)
    k = int(rng.integers(len(terms)))
    r = random_hermitian(rng, terms[k].dim)
    scale = eta * terms[k].hs_norm() / np.linalg.norm(r)
    terms[k] = SupportedOperator(terms[k].support, terms[k].matrix + scale * r)
    model = ModelInstance(model.space, model.graph, tuple(terms), beta=beta)
    auto = verify_gibbs(model, tol=1e-9)
    dense = verify_gibbs(model, tol=1e-9, route="dense")
    event(f"eta {eta:g}: {auto.route}")
    assert auto.passed == dense.passed
    if auto.route == "certificate":
        assert (auto.certificate, auto.rtol) == (LOCAL_COMMUTING, decompose.DEFAULT_RTOL)
        assert dense.max_cmi <= 1e-12
    else:
        assert auto == dense


@st.composite
def admitted_or_refused_terms(draw):
    """Qubit chains of 2-4 sites with edge terms drawn as Pauli words of a
    real, imaginary or NaN coefficient, and as dense terms that are
    Hermitian, carry a ~1e-14 or an O(1) defect, or hold a NaN; and whether
    the model must refuse them."""
    n = draw(st.integers(2, 4))
    terms, refused = [], False
    for i in range(1, n):
        if draw(st.booleans()):
            coeff = draw(st.sampled_from((0.7, -1.2, 0.5j, float("nan"))))
            a, b = draw(st.tuples(st.sampled_from("XYZ"), st.sampled_from("XYZ")))
            terms.append(pw(coeff, {i: a, i + 1: b}))
            refused |= not isinstance(coeff, float) or math.isnan(coeff)
        if draw(st.booleans()):
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            kind = draw(st.sampled_from(("hermitian", "rounding", "defect", "nan")))
            m = x + x.conj().T + {"rounding": 1e-14, "defect": 1.0}.get(kind, 0.0) * x
            if kind == "nan":
                m[0, 1] = np.nan
            terms.append(SupportedOperator((i, i + 1), m))
            refused |= kind in ("defect", "nan")
    return n, tuple(terms), refused


@settings(max_examples=100, deadline=None, derandomize=True)
@given(admitted_or_refused_terms())
def test_every_route_sees_the_same_model(drawn):
    n, terms, refused = drawn
    if refused:
        with pytest.raises(NonHermitianError):
            ModelInstance(SiteSpace.qubits(n), chain(n), terms)
        return
    model = ModelInstance(SiteSpace.qubits(n), chain(n), terms)
    classify(model)
    assert verify_gibbs(model).passed == verify_gibbs(model, route="dense").passed
    model_cumulants(model)
    assert math.isfinite(log_partition(model))


def test_a_dense_term_that_does_not_fit_its_sites_is_refused():
    # a 2 x 2 matrix on the qubits (1, 2), which need 4 x 4: classify used
    # to answer it while the dense routes failed with a numpy error
    bad = SupportedOperator((1, 2), np.diag([1.0, -1.0]))
    good = SupportedOperator((2, 3), np.kron(Z, Z))
    for route in (classify, verify_gibbs, model_cumulants, log_partition):
        with pytest.raises(DimensionMismatchError, match=r"term 1 on sites \[1, 2\]"):
            route(ModelInstance(SiteSpace.qubits(3), chain(3), (good, bad)))
    model = ModelInstance(SiteSpace.qubits(3), chain(3), (good,))
    assert classify(model).verdict == LOCAL_COMMUTING
    assert verify_gibbs(model).passed
    assert model_cumulants(model).scalar_known
    assert math.isfinite(log_partition(model))


# ---------------------------------------------------------------------------
# star decomposition

def ends_at(u, edge_cumulants, space):
    """The Schmidt split at u of each edge cumulant, keyed by the other end."""
    ends = decompose._edge_ends(edge_cumulants, space)
    return {v: ends[w, v] for w, v in ends if w == u}


def star_at(u, k_u, edge_cumulants, space):
    """``_star_stack`` on the one site u: the free part, the pulls keyed by
    the other end, and the residual."""
    ends = ends_at(u, edge_cumulants, space)
    order = sorted(ends)
    h, pulls, res, _ = decompose._star_stack(
        k_u.matrix[None], [[ends[v].left[:ends[v].rank] for v in order]],
        decompose.DEFAULT_RTOL)
    return h[0], dict(zip(order, pulls)), float(res[0])


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
    h, pulls, res = star_at(2, k2, {(1, 2): k12, (2, 3): k23}, space)
    assert res <= 1e-10
    assert np.allclose(pulls[1], xa, atol=1e-9)
    assert np.allclose(pulls[3], 0.0, atol=1e-9)
    assert np.allclose(h, zb, atol=1e-9)


def test_star_decompose_reassembles_vertex_cumulant():
    rng = np.random.default_rng(23)
    space = SiteSpace.from_dims({1: 2, 2: 4, 3: 2})
    xa, zb = np.kron(X, I2), np.kron(I2, Z)
    k12 = SupportedOperator((1, 2), np.kron(X, xa))
    k23 = SupportedOperator((2, 3), np.kron(zb, Z))
    for _ in range(6):
        c = rng.normal(size=3)
        k2 = SupportedOperator((2,), c[0] * xa + c[1] * zb + c[2] * xa @ zb)
        h, pulls, _ = star_at(2, k2, {(1, 2): k12, (2, 3): k23}, space)
        assert np.allclose(h + sum(pulls.values()), k2.matrix, atol=1e-9)
        for g in pulls.values():
            assert np.allclose(g, g.conj().T, atol=1e-12)


def test_star_decompose_outside_ansatz_raises():
    # both edges generate only diagonal algebras, so X is unreachable
    space = SiteSpace.qubits(3)
    k12 = SupportedOperator((1, 2), np.kron(Z, Z))
    k23 = SupportedOperator((2, 3), np.kron(Z, Z))
    k2 = SupportedOperator((2,), X)
    assert star_at(2, k2, {(1, 2): k12, (2, 3): k23}, space)[2] > 1.0
    expansion = model_cumulants(ModelInstance(space, chain(3), (k12, k23, k2)))
    with pytest.raises(DecompositionResidualError, match="vertex cumulant at 2 ") as err:
        theorem4_decompose(expansion, chain(3))
    assert err.value.residual > 1.0


def test_star_decompose_support_validation():
    # an edge cumulant must sit on the edge that keys it
    space = SiteSpace.qubits(3)
    k12 = SupportedOperator((1, 2), np.kron(Z, Z))
    with pytest.raises(UnknownSiteError):
        decompose._edge_ends({(2, 3): k12}, space)


def block_star(rng, deg):
    """Edge-end generators at one site of a random block structure, and a
    vertex cumulant inside their split.

    The site is (+)_a ((x)_v K_{a,v}) (x) L_a in a random frame, with d <=
    12.  End v generates the algebra (+)_a B(K_{a,v}) (x) I: its generators
    are an orthonormal basis of that algebra's traceless part, as an edge
    cumulant's site factors are orthonormal and traceless.  Each end has a
    block with K_{a,v} of dimension 2 or more, or else, with one block, its
    algebra would be the multiples of the identity: made traceless they
    leave only rounding noise, and a relative eigen-cut on noise is
    arbitrary.  The cumulant is a free part on the L_a plus, per end, a
    part on K_{a,v} (x) L_a.
    """
    while True:
        blocks = [(rng.integers(1, 4, size=deg).tolist(), int(rng.integers(1, 3)))
                  for _ in range(rng.integers(1, 4))]
        sizes = [math.prod(k) * l for k, l in blocks]
        if sum(sizes) <= 12 and all(any(k[v] > 1 for k, _ in blocks) for v in range(deg)):
            break
    d = sum(sizes)
    frame = haar_unitary(rng, d)

    def site(block, factors):
        """A kron over block ``block``'s (K_1, ..., K_deg, L) of
        ``factors`` (None for the identity), zero on the other blocks."""
        out = np.zeros((d, d), dtype=complex)
        at = sum(sizes[:block])
        k, l = blocks[block]
        out[at:at + sizes[block], at:at + sizes[block]] = kron(*[
            np.eye(n) if m is None else m for n, m in zip(k + [l], factors)])
        return frame @ out @ frame.conj().T

    def herm(n):
        return random_hermitian(rng, n)

    basis = decompose.hermitian_basis(d)
    gens = []
    for v in range(deg):
        spans = [site(a, [b if w == v else None for w in range(deg)] + [None])
                 for a, (k, _) in enumerate(blocks) for b in decompose.hermitian_basis(k[v])]
        coords = (np.reshape(spans, (len(spans), -1)) @ basis.reshape(d * d, -1).conj().T).real
        coords[:, 0] = 0.0  # the traceless part
        _, sv, vt = np.linalg.svd(coords, full_matrices=False)
        gens.append(np.tensordot(vt[sv > 1e-9], basis, 1))
    k_u = sum(site(a, [None] * deg + [herm(l)]) for a, (_, l) in enumerate(blocks))
    for v in range(deg):
        for a, (k, l) in enumerate(blocks):
            k_u = k_u + site(a, [herm(n) if w == v else None for w, n in enumerate(k)]
                             + [herm(l)])
    return gens, k_u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_star_projections_match_the_least_squares_split(deg, seed, inside):
    # the projections of _star_stack against the minimum-norm lstsq split
    # with the joint part stripped out, on targets inside the split and on
    # random ones
    rng = np.random.default_rng(seed)
    gens, k_u = block_star(rng, deg)
    if not inside:
        k_u = random_hermitian(rng, len(k_u))
    h, pulls, res, scale = decompose._star_stack(k_u[None], [gens], decompose.DEFAULT_RTOL)
    want = star_reference(k_u, gens, decompose.DEFAULT_RTOL)
    tol = 1e-12 * want.scale
    assert scale[0] == pytest.approx(want.scale, rel=1e-14)
    assert abs(res[0] - want.residual) <= tol
    assert np.linalg.norm(h[0] - want.vertex_term) <= tol
    assert len(pulls) == deg
    for got, g in zip(pulls, want.pulls):
        assert np.linalg.norm(got - g) <= tol
    if inside:
        assert res[0] <= tol


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


def nudged(model, edge, seed, size=1e-12):
    """The model with ``size`` times a random unit Hermitian added to the
    term on ``edge``."""
    terms = list(model.terms)
    i = next(i for i, t in enumerate(terms) if t.support == edge)
    m = terms[i].matrix
    b = np.random.default_rng(seed).normal(size=m.shape + (2,)) @ [1, 1j]
    a = b + b.conj().T
    terms[i] = SupportedOperator(edge, m + size * a / np.linalg.norm(a))
    return ModelInstance(model.space, model.graph, tuple(terms), beta=model.beta)


def test_a_rounding_level_nudge_of_an_edge_term_decomposes():
    # a least-squares star split over the joint and pull spans, whose
    # columns are dependent, amplifies this 1e-12 nudge into "vertex
    # cumulant at 2 leaves residual 1.521e-03"
    model = nudged(families.theorem4_model("path4", np.random.default_rng(0)), (1, 2), 1)
    dec = theorem4_decompose(model_cumulants(model), model.graph)
    assert dec.residual <= 1e-12
    assert dec.max_commutator <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(families.THEOREM4_KINDS), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_rounding_level_nudges_of_edge_terms_decompose(kind, seed, data):
    model = families.theorem4_model(kind, np.random.default_rng(seed))
    edge = data.draw(st.sampled_from(sorted(model.graph.edges)))
    model = nudged(model, edge, seed)
    dec = theorem4_decompose(model_cumulants(model), model.graph)
    assert dec.residual <= 1e-10
    assert dec.max_commutator <= 1e-10


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0])
def test_star_states_decompose_from_their_logarithm(beta):
    # the state route: log rho taken by logm_pd carries rounding on every
    # cumulant, which a least-squares star split amplifies into false fails
    for seed in range(25):
        model = families.theorem4_model("star", np.random.default_rng(seed), beta=beta)
        expansion = expand(logm_pd(gibbs(model).matrix), model.space)
        dec = theorem4_decompose(expansion, model.graph)
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


def judged_max(dec, expansion, support_rtol=decompose.DEFAULT_SUPPORT_RTOL):
    """``pairwise_commutation`` of the terms over the pairs the final check
    judges: those of two terms whose embedded norm exceeds support_rtol
    times the expansion's."""
    terms = dec.terms()
    floor_sq = support_rtol ** 2 * expansion.total_norm_sq / dec.space.total_dim
    judged = [t.hs_norm() ** 2 / t.dim > floor_sq for t in terms]
    norms = pairwise_commutation(terms, dec.space).norms
    return max((x for (i, j), x in norms.items() if judged[i] and judged[j]),
               default=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(families.THEOREM4_KINDS), st.integers(0, 2 ** 32 - 1),
       st.floats(0.3, 3.0))
def test_decompositions_with_and_without_the_scalar_agree(kind, seed, beta):
    # past the dense cap -log Z is not computed; the edge terms must not
    # see that, and the vertex terms differ by the -log Z / n shift alone
    model = families.theorem4_model(kind, np.random.default_rng(seed), beta=beta)
    with_scalar = model_cumulants(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("QMN_DENSE_CAP", "16")
        without = model_cumulants(model)
    assert with_scalar.scalar_known and not without.scalar_known
    got = theorem4_decompose(without, model.graph)
    want = theorem4_decompose(with_scalar, model.graph)
    assert got.edge_terms.keys() == want.edge_terms.keys()
    for e, term in want.edge_terms.items():
        assert np.array_equal(got.edge_terms[e].matrix, term.matrix)
    shift = with_scalar.operator(()).matrix[0, 0].real / len(model.space)
    for u, term in want.vertex_terms.items():
        eye = np.eye(term.dim)
        assert np.allclose(term.matrix - got.vertex_terms[u].matrix, shift * eye,
                           rtol=0.0, atol=1e-12)
    for dec, exp in ((got, without), (want, with_scalar)):
        assert abs(dec.max_commutator - judged_max(dec, exp)) <= 1e-12
    # beta H, the expansion decompose regroups, carries its own trace part
    # as the scalar: the edge terms are the same, the vertex terms shift
    hamiltonian = model_cumulants(model, of="hamiltonian")
    regrouped = theorem4_decompose(hamiltonian, model.graph)
    assert regrouped.edge_terms.keys() == want.edge_terms.keys()
    for e, term in want.edge_terms.items():
        assert np.array_equal(regrouped.edge_terms[e].matrix, term.matrix)
    shift = (with_scalar.operator(()).matrix[0, 0].real
             - hamiltonian.operator(()).matrix[0, 0].real) / len(model.space)
    for u, term in want.vertex_terms.items():
        assert np.allclose(term.matrix - regrouped.vertex_terms[u].matrix,
                           shift * np.eye(term.dim), rtol=0.0, atol=1e-12)


def outcome(decompose_fn, expansion, graph):
    """The decomposition, or the type and message of the error it raised."""
    try:
        return decompose_fn(expansion, graph)
    except (NotMarkovError, DecompositionResidualError) as err:
        return type(err), str(err)


def assert_same_decomposition(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.vertex_terms.keys() == want.vertex_terms.keys()
    assert got.edge_terms.keys() == want.edge_terms.keys()
    pairs = [(got.vertex_terms[u], t) for u, t in want.vertex_terms.items()]
    pairs += [(got.edge_terms[e], t) for e, t in want.edge_terms.items()]
    for a, b in pairs:
        assert a.support == b.support
        assert np.linalg.norm(a.matrix - b.matrix) <= 1e-12 * max(b.hs_norm(), 1.0)
    assert abs(got.max_commutator - want.max_commutator) <= 1e-12
    assert abs(got.residual - want.residual) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(families.THEOREM4_KINDS), st.integers(0, 2 ** 32 - 1),
       st.floats(0.3, 3.0), st.booleans())
def test_stacked_decomposition_matches_the_vertex_loop(kind, seed, beta, scalar):
    # the stacked kernels against the vertex-by-vertex loop they replaced,
    # with and without -log Z
    model = families.theorem4_model(kind, np.random.default_rng(seed), beta=beta)
    with pytest.MonkeyPatch.context() as mp:
        if not scalar:
            mp.setenv("QMN_DENSE_CAP", "16")
        expansion = model_cumulants(model)
    assert expansion.scalar_known == scalar
    assert_same_decomposition(outcome(theorem4_decompose, expansion, model.graph),
                              outcome(theorem4_reference, expansion, model.graph))


def test_stacked_decomposition_matches_the_vertex_loop_on_small_graphs():
    rng = np.random.default_rng(4)
    u1 = haar_unitary(rng, 2)
    za, xa, zb = np.kron(Z, I2), np.kron(X, I2), np.kron(I2, Z)
    # an isolated vertex (4) next to a path, and a single edge
    cases = [(SiteSpace.from_dims({1: 2, 2: 4, 3: 2, 4: 3}),
              Graph.from_edges([(1, 2), (2, 3)], vertices=[4]),
              (SupportedOperator((1, 2), np.kron(u1 @ Z @ u1.conj().T, za)
                                 + 0.3 * np.kron(I2, xa)),
               SupportedOperator((2, 3), np.kron(zb, X)),
               SupportedOperator((4,), np.diag([0.3, -0.1, 0.5])))),
             (SiteSpace.from_dims({1: 2, 2: 4}), Graph.from_edges([(1, 2)]),
              (SupportedOperator((1, 2), np.kron(u1 @ Z @ u1.conj().T, za)),
               SupportedOperator((2,), 0.4 * xa + 0.3 * zb)))]
    for space, graph, terms in cases:
        model = ModelInstance(space, graph, terms, beta=0.8)
        expansion = model_cumulants(model)
        got = theorem4_decompose(expansion, graph)
        assert_same_decomposition(got, theorem4_reference(expansion, graph))
        assert got.residual <= 1e-12 and got.max_commutator <= 1e-12


def test_a_high_degree_vertex_pads_no_other_vertex():
    # a qubit hub with 60 leaves: the final check pairs the hub's 61 terms
    # with each other, 1830 pairs, and each leaf's two terms; each pair is
    # contracted over the one site it shares, a chunk of pairs at a time
    rng = np.random.default_rng(5)
    leaves = range(1, 61)
    frame = {s: haar_unitary(rng, 2) for s in range(61)}

    def framed(support, m):
        u = kron(*[frame[s] for s in support])
        return SupportedOperator(support, u @ m @ u.conj().T)

    terms = [framed((0, v), rng.uniform(0.4, 1.0) * np.kron(Z, Z)) for v in leaves]
    terms += [framed((0,), 0.3 * Z)] + [framed((v,), 0.2 * Z) for v in leaves]
    graph = Graph.from_edges([(0, v) for v in leaves])
    model = ModelInstance(SiteSpace.qubits(61, first_id=0), graph, tuple(terms), beta=0.7)
    expansion = model_cumulants(model)
    tracemalloc.start()
    try:
        got = theorem4_decompose(expansion, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert_same_decomposition(got, theorem4_reference(expansion, graph))


def test_a_high_degree_hub_forms_its_factor_products_in_chunks():
    # a dim-4 hub with 40 dim-4 leaves: the edge check pairs the 40 edge
    # cumulants at the hub, 780 pairs of 16 x 16 matrices; all their
    # products formed at once would grow as the square of the degree, so
    # they are formed a chunk of pairs at a time
    rng = np.random.default_rng(6)
    leaves = range(1, 41)
    frame = {s: haar_unitary(rng, 4) for s in range(41)}

    def framed(support, m):
        u = kron(*[frame[s] for s in support])
        return SupportedOperator(support, u @ m @ u.conj().T)

    terms = [framed((0, v), np.diag(rng.normal(size=16))) for v in leaves]
    terms += [framed((0,), np.diag(rng.normal(size=4)))]
    graph = Graph.from_edges([(0, v) for v in leaves])
    space = SiteSpace.from_dims({s: 4 for s in range(41)})
    expansion = model_cumulants(ModelInstance(space, graph, tuple(terms), beta=0.7))
    tracemalloc.start()
    try:
        got = theorem4_decompose(expansion, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert got.residual <= 1e-12 and got.max_commutator <= 1e-11


def test_theorem4_names_the_lowest_vertex_outside_the_ansatz():
    # dim-4 sites 1, 3, 5 and qubits 2, 4; every edge couples through Z on
    # a qubit and Z on the first factor of a dim-4 site, so neither X on
    # qubit 2 nor X on that factor at site 3 can be pulled into an edge.
    # The dim-4 stack is solved first and fails at 3; the error names 2.
    za, xa = np.kron(Z, I2), np.kron(X, I2)
    space = SiteSpace.from_dims({1: 4, 2: 2, 3: 4, 4: 2, 5: 4})
    graph = chain(5)
    terms = (SupportedOperator((1, 2), np.kron(za, Z)), SupportedOperator((2, 3), np.kron(Z, za)),
             SupportedOperator((3, 4), np.kron(za, Z)), SupportedOperator((4, 5), np.kron(Z, za)),
             SupportedOperator((2,), 0.5 * X), SupportedOperator((3,), 0.5 * xa))
    expansion = model_cumulants(ModelInstance(space, graph, terms, beta=0.7))
    with pytest.raises(DecompositionResidualError, match="vertex cumulant at 2 ") as err:
        theorem4_decompose(expansion, graph)
    with pytest.raises(DecompositionResidualError) as want:
        theorem4_reference(expansion, graph)
    assert str(err.value) == str(want.value)


def test_theorem4_names_the_worst_noncommuting_edge_pair():
    # at hub 2 the edge to 1 fails to commute with the edges to 3 and 4,
    # which commute with each other; (1, 2) against (2, 3) is the worst pair
    space = SiteSpace.qubits(4)
    graph = Graph.from_edges([(1, 2), (2, 3), (2, 4)])
    terms = (SupportedOperator((1, 2), np.kron(X, X)),
             SupportedOperator((2, 3), 0.9 * np.kron(Z, Z)),
             SupportedOperator((2, 4), 0.4 * np.kron(Z, X) + 0.3 * np.kron(I2, Z)))
    expansion = model_cumulants(ModelInstance(space, graph, terms, beta=0.6))
    with pytest.raises(NotMarkovError, match=r"edge cumulants on \(1, 2\) and \(2, 3\)") as err:
        theorem4_decompose(expansion, graph)
    with pytest.raises(NotMarkovError) as want:
        theorem4_reference(expansion, graph)
    assert str(err.value) == str(want.value)


@pytest.mark.parametrize("model, dims", [
    (families.ising_chain(10), 1),
    (families.theorem4_model("grid2x3", np.random.default_rng(3)), 2)])
def test_theorem4_runs_one_eigensolve_per_site_dimension(monkeypatch, model, dims):
    expansion = model_cumulants(model)
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(decompose.np.linalg, "eigh", counted)
    theorem4_decompose(expansion, model.graph)
    assert len(shapes) == dims


def test_theorem4_raises_the_edge_verdict_before_the_star_residual():
    # the worst-pair model plus a Y field on hub 2, which no edge can take
    # up, so vertex 2's star leaves a residual as well: the star now runs
    # before the edge verdict is read, and the edge verdict still comes
    # first, as in the vertex-by-vertex loop
    space = SiteSpace.qubits(4)
    graph = Graph.from_edges([(1, 2), (2, 3), (2, 4)])
    terms = (SupportedOperator((1, 2), np.kron(X, X)),
             SupportedOperator((2, 3), 0.9 * np.kron(Z, Z)),
             SupportedOperator((2, 4), 0.4 * np.kron(Z, X) + 0.3 * np.kron(I2, Z)),
             SupportedOperator((2,), 0.5 * Y))
    expansion = model_cumulants(ModelInstance(space, graph, terms, beta=0.6))
    k2 = expansion.operator((2,))
    edge_cumulants = {e: expansion.entries[frozenset(e)] for e in sorted(graph.edges)}
    assert star_at(2, k2, edge_cumulants, space)[2] > 0.1 * k2.hs_norm()
    with pytest.raises(NotMarkovError, match=r"edge cumulants on \(1, 2\) and \(2, 3\)") as err:
        theorem4_decompose(expansion, graph)
    with pytest.raises(NotMarkovError) as want:
        theorem4_reference(expansion, graph)
    assert str(err.value) == str(want.value)


def test_theorem4_raises_the_edge_verdict_without_a_star_split(monkeypatch):
    # edge cumulants that fail to commute end the decomposition before any
    # star split runs: the worst-pair model, and the non-commuting chain
    # X1X2 + Z2Z3 with its terms written as matrices
    worst_pair = ModelInstance(
        SiteSpace.qubits(4), Graph.from_edges([(1, 2), (2, 3), (2, 4)]),
        (SupportedOperator((1, 2), np.kron(X, X)),
         SupportedOperator((2, 3), 0.9 * np.kron(Z, Z)),
         SupportedOperator((2, 4), 0.4 * np.kron(Z, X) + 0.3 * np.kron(I2, Z))), beta=0.6)
    nc = families.noncommuting_chain()
    nc = ModelInstance(nc.space, nc.graph, tuple(map(nc.term_operator, nc.terms)))

    def no_star(*args):
        raise AssertionError("the star split ran")

    monkeypatch.setattr(decompose, "_star_stack", no_star)
    for model in (worst_pair, nc):
        expansion = model_cumulants(model)
        with pytest.raises(NotMarkovError, match=r"edge cumulants on \(1, 2\) and \(2, 3\)") as err:
            theorem4_decompose(expansion, model.graph)
        with pytest.raises(NotMarkovError) as want:
            theorem4_reference(expansion, model.graph)
        assert str(err.value) == str(want.value)


def test_theorem4_reads_the_edge_verdict_from_the_cumulant_rows_alone():
    # a 5-qubit Ising chain with X on both end spins: its edge cumulants
    # commute, its regrouped terms do not, so the shared table's full sums
    # are large while its cumulant sub-block is not, and the verdict is the
    # vertex loop's, not an edge verdict
    graph = chain(5)
    terms = tuple(SupportedOperator((i, i + 1), np.kron(Z, Z)) for i in range(1, 5))
    terms += tuple(SupportedOperator((i,), 0.5 * Z + (0.7 * X if i in (1, 5) else 0.0))
                   for i in range(1, 6))
    expansion = model_cumulants(ModelInstance(SiteSpace.qubits(5), graph, terms))
    got = outcome(theorem4_decompose, expansion, graph)
    assert not (isinstance(got, tuple) and got[0] is NotMarkovError)
    assert_same_decomposition(got, outcome(theorem4_reference, expansion, graph))


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
    want = sum(dense_pauli_word(dict(w.word), order) for t in model.terms for w in t.terms)
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
