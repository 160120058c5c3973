"""End-to-end acceptance checks, one test per claim with a timing budget.

Each test covers one headline behavior at its stated tolerance and prints a
single pass line (bypassing capture) once its assertions and time budget
hold, so a plain pytest run shows one line per claim.
"""

import itertools
import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from helpers import (
    brute_cumulant,
    classical_cmi,
    dense_pauli_word,
    expm_herm,
    ring_code,
    stabilizer_state,
    surface_strip,
)
from qmn import families
from qmn.cli import model_from_json, model_to_json
from qmn.cumulants import expand, model_cumulants, verify_clique_support
from qmn.decompose import classify, coarse_grain_model, theorem4_decompose
from qmn.errors import NotTriangleFreeError
from qmn.markov import (
    DensityMatrix,
    cmi,
    entropy,
    gibbs,
    is_markov_network,
)
from qmn.pauli import PauliSum, as_sum, commutator
from qmn.tensor import (
    SiteSpace,
    SupportedOperator,
    embed_sum,
    hs_norm,
    logm_pd,
    op_schmidt,
)


def _done(capsys, label: str, t0: float, budget: float, detail: str = "") -> None:
    dt = time.perf_counter() - t0
    assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"
    extra = f"; {detail}" if detail else ""
    with capsys.disabled():
        print(f"[pass] {label} ({dt:.2f}s{extra})", flush=True)


@lru_cache(maxsize=1)
def _commuting_corpus():
    """Twenty frame-conjugated diagonal-clique models on 4 to 7 qubits."""
    rng = np.random.default_rng(20260815)
    out = []
    for _ in range(20):
        model = families.random_commuting_model(rng, max_sites=7)
        out.append((model, gibbs(model)))
    return tuple(out)


def test_acceptance_1_counterexample_cell(capsys):
    t0 = time.perf_counter()
    model = families.cell_model()
    down, left, up, right = (t.terms[0] for t in model.terms)
    # the two shield groupings commute exactly, term algebra only
    assert commutator(PauliSum.of(down, right), PauliSum.of(left, up)).is_zero
    assert commutator(PauliSum.of(down, left), PauliSum.of(up, right)).is_zero
    # a single pair does not: dense Kronecker oracle for the commutator
    sites = [1, 2, 3, 4, 5]
    hd = dense_pauli_word(down.letters, sites)
    hl = dense_pauli_word(left.letters, sites)
    comm = hd @ hl - hl @ hd
    want = -2j * dense_pauli_word({1: "Z", 3: "Z", 5: "Z"}, sites)
    assert np.abs(comm - want).max() < 1e-12
    assert np.linalg.norm(comm) > 1.0
    # the Gibbs state is still Markov over exactly the two partitions
    rho = gibbs(model)
    rep = is_markov_network(rho, model.graph, tol=1e-9)
    assert rep.passed
    found = {(tuple(sorted(r.partition.a)), tuple(sorted(r.partition.b)),
              tuple(sorted(r.partition.c))) for r in rep.records}
    assert found == {((1,), (2, 4, 5), (3,)), ((2,), (1, 3, 5), (4,))}
    assert classify(model).verdict == "ShieldCommutingOnly"
    with pytest.raises(NotTriangleFreeError):
        theorem4_decompose(model_cumulants(model), model.graph)
    _done(capsys, "counterexample cell", t0, 1.0,
          f"max CMI {rep.max_cmi:.1e}, pair commutator norm "
          f"{np.linalg.norm(comm):.2f}")


def test_acceptance_2_commuting_models_are_markov(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for model, rho in _commuting_corpus():
        rep = is_markov_network(rho, model.graph, tol=1e-8)
        assert rep.passed, rep.max_cmi
        worst = max(worst, rep.max_cmi)
    space, graph, gens = ring_code(4)
    rep = is_markov_network(stabilizer_state(gens, space), graph, tol=1e-8)
    assert rep.passed
    worst = max(worst, rep.max_cmi)
    _done(capsys, "commuting models are Markov", t0, 60.0,
          f"21 states, worst CMI {worst:.1e}")


def test_acceptance_3_log_density_cumulants_stay_on_cliques(capsys):
    t0 = time.perf_counter()
    worst_gap, worst_pair = 0.0, 0.0
    for model, rho in _commuting_corpus():
        target = logm_pd(rho.matrix)
        exp = expand(target, model.space)
        rep = verify_clique_support(exp, model.graph, rtol=1e-6)
        assert rep.passed, rep.witnesses
        worst_gap = max(worst_gap, rep.off_clique_norm / rep.total_norm)
        # every non-adjacent pair cumulant, computed directly, vanishes
        for i, j in itertools.combinations(model.space.sites, 2):
            if model.graph.is_clique((i, j)):
                continue
            axes = [model.space.axis(i), model.space.axis(j)]
            emb = hs_norm(brute_cumulant(target, list(model.space.dims), axes))
            assert emb <= 1e-8, (i, j, emb)
            worst_pair = max(worst_pair, emb)
    _done(capsys, "log-density cumulants stay on cliques", t0, 30.0,
          f"off-clique fraction {worst_gap:.1e}, worst pair {worst_pair:.1e}")


def test_acceptance_4_triangle_free_decomposition(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_res, worst_comm = 0.0, 0.0
    for kind in families.THEOREM4_KINDS:
        model = families.theorem4_model(kind, rng)
        dec = theorem4_decompose(model_cumulants(model), model.graph)
        assert dec.residual <= 1e-8, (kind, dec.residual)
        assert dec.max_commutator <= 1e-8, (kind, dec.max_commutator)
        # round trip through the file format, then reclassify
        text = json.dumps(model_to_json(dec.to_model()))
        back = model_from_json(json.loads(text))
        verdict = classify(back, rtol=1e-8).verdict
        assert verdict == "LocalCommuting", (kind, verdict)
        worst_res = max(worst_res, dec.residual)
        worst_comm = max(worst_comm, dec.max_commutator)
    _done(capsys, "triangle-free decomposition", t0, 120.0,
          f"6 graphs, residual {worst_res:.1e}, commutator {worst_comm:.1e}")


def test_acceptance_5_negative_control(capsys):
    t0 = time.perf_counter()
    model = families.noncommuting_chain()
    rho = gibbs(model)
    val = cmi(rho, {1}, {2}, {3})
    assert val > 1e-3
    assert val == pytest.approx(0.052051695401092335, abs=1e-12)
    assert not is_markov_network(rho, model.graph, tol=1e-3).passed
    _done(capsys, "negative control fails as it must", t0, 5.0,
          f"I(1:3|2) = {val:.6f}")


def test_acceptance_6_cmi_properties(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    min_val = math.inf
    for _ in range(440):
        n = int(rng.integers(3, 5))
        space = SiteSpace.qubits(n)
        d = 2 ** n
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat = g @ g.conj().T
        rho = DensityMatrix(mat / np.trace(mat).real, space)
        perm = [int(x) for x in rng.permutation(space.sites)]
        a, b, c = [perm[0]], [perm[1]], [perm[2]]
        val = cmi(rho, a, b, c)
        assert val >= -1e-9
        min_val = min(min_val, val)
        if n == 4:
            # widening one side of the partition cannot lower the CMI
            extra = perm[3]
            grown = (a + [extra], b, c) if rng.integers(2) else (a, b, c + [extra])
            big = cmi(rho, *grown)
            assert big >= val - 1e-9
            min_val = min(min_val, big)
    worst_diag = 0.0
    for _ in range(60):
        n = int(rng.integers(3, 5))
        d = 2 ** n
        p = rng.gamma(1.0, size=d)
        p /= p.sum()
        rho = DensityMatrix(np.diag(p).astype(complex), SiteSpace.qubits(n))
        perm = [int(x) for x in rng.permutation(n)]
        a_ax, b_ax, c_ax = [perm[0]], [perm[1]] + perm[3:], [perm[2]]
        val = cmi(rho, [x + 1 for x in a_ax], [x + 1 for x in b_ax],
                  [x + 1 for x in c_ax])
        ref = classical_cmi(p, [2] * n, a_ax, b_ax, c_ax)
        assert abs(val - ref) <= 1e-10
        worst_diag = max(worst_diag, abs(val - ref))
    _done(capsys, "CMI positivity, monotonicity, classical limit", t0, 60.0,
          f"500 states, min CMI {min_val:.1e}, diagonal gap {worst_diag:.1e}")


def test_acceptance_7_stabilizer_mixtures(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for space, graph, gens in (ring_code(4), surface_strip()):
        rho = stabilizer_state(gens, space)
        rep = is_markov_network(rho, graph, tol=1e-9)
        assert rep.passed and rep.max_cmi <= 1e-9
        worst = max(worst, rep.max_cmi)
    _done(capsys, "stabilizer mixtures are Markov", t0, 10.0, f"worst CMI {worst:.1e}")


def test_acceptance_8_coarse_graining(capsys):
    t0 = time.perf_counter()
    merged = coarse_grain_model(families.cell_model(), {5: 1})
    assert len(merged.terms) == 2
    for a, b in itertools.combinations(merged.terms, 2):
        assert commutator(as_sum(a), as_sum(b)).is_zero
    big = families.tiling_model(5, 5, merged=True)
    sums = [as_sum(t) for t in big.terms]
    for a, b in itertools.combinations(sums, 2):
        assert commutator(a, b).is_zero
    _done(capsys, "coarse-graining restores commutation", t0, 10.0,
          f"{len(sums)} grouped tiling terms, all pairs symbolically zero")


def test_acceptance_9_numerics_floor(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    for d in (2, 8, 64):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / (2.0 * math.sqrt(d))
        back = logm_pd(expm_herm(h))
        assert hs_norm(back - h) <= 1e-10 * hs_norm(h)
    for d in (2, 3, 8, 64):
        assert abs(entropy(np.eye(d, dtype=complex) / d) - math.log(d)) <= 1e-12
    space = SiteSpace.from_dims({1: 2, 2: 3, 3: 2})
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    op = SupportedOperator((1, 2, 3), g)
    rebuilt = np.zeros((12, 12), dtype=complex)
    [split] = op_schmidt([(op, (1, 3))], space)
    for w, f, s in list(zip(*split))[:split.rank]:
        rebuilt += w * (embed_sum((SupportedOperator((1, 3), f),), space)
                        @ embed_sum((SupportedOperator((2,), s),), space))
    assert np.abs(rebuilt - g).max() <= 1e-10 * np.abs(g).max()
    _done(capsys, "numerics floor", t0, 10.0,
          "exp/log round trip, maximally mixed entropy, Schmidt rebuild")
