import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from qmn import cumulants, decompose, families, markov
from qmn.cli import main, model_from_json, model_to_json, load_model, save_model
from qmn.decompose import classify
from qmn.errors import ModelFormatError
from qmn.graphs import Graph, shield_partitions
from qmn.markov import ModelInstance, gibbs, is_markov_network
from qmn.pauli import PauliSum, PauliTerm, parse_sum, parse_term
from qmn.tensor import SiteSpace, SupportedOperator, check_hermitian

from helpers import term_bits
from test_decompose import pauli_models


def write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def gen(tmp_path, family, *extra):
    out = str(tmp_path / f"{family}-{'-'.join(extra) or 'x'}.json")
    assert main(["generate", family, "--out", out, *extra]) == 0
    return out


# ---------------------------------------------------------------------------
# model file round trips

def test_model_json_round_trip_symbolic():
    model = families.cell_model(beta=0.7)
    data = model_to_json(model)
    assert data["beta"] == 0.7
    assert data["sites"][0] == {"id": 1, "dim": 2}
    assert sorted(tuple(e) for e in data["edges"]) == sorted(model.graph.edges)
    assert data["terms"][0] == {"support": [1, 2, 5], "pauli": "Z Z Y",
                                "coeff": 1.0}
    back = model_from_json(data)
    assert back.space == model.space
    assert back.graph == model.graph
    assert np.allclose(back.hamiltonian(), model.hamiltonian())


def test_model_json_round_trip_dense():
    rng = np.random.default_rng(11)
    for _ in range(4):
        model = families.random_commuting_model(rng, max_sites=5)
        back = model_from_json(model_to_json(model))
        assert np.allclose(back.hamiltonian(), model.hamiltonian(), atol=1e-12)
        assert back.beta == model.beta


def test_model_json_identity_letters_skip_sites():
    term = PauliTerm.from_letters(0.5, {1: "X", 3: "Z"})
    data = {"sites": [{"id": i, "dim": 2} for i in (1, 2, 3)],
            "edges": [[1, 2], [2, 3], [1, 3]],
            "terms": [{"support": [1, 2, 3], "pauli": "X I Z", "coeff": 0.5}]}
    model = model_from_json(data)
    (got,) = model.terms[0].terms
    assert got.letters == term.letters
    assert got.coeff == term.coeff


def test_model_json_complex_coeff_matrix():
    data = {"sites": [{"id": 1, "dim": 2}], "edges": [],
            "terms": [{"support": [1],
                       "matrix": {"re": [[0, 0], [0, 0]],
                                  "im": [[0, -1], [1, 0]]},
                       "coeff": [2.0, 0.0]}]}
    model = model_from_json(data)
    op = model.terms[0]
    assert np.allclose(op.matrix, 2.0 * np.array([[0, -1j], [1j, 0]]))


def test_merged_model_serializes_dense_and_reloads():
    model = families.tiling_model(2, 2, merged=True)
    data = model_to_json(model)
    assert all("matrix" in t for t in data["terms"])
    back = model_from_json(data)
    assert back.space == model.space
    # full dim 8192 sits over the dense cap, so compare term by term
    for a, b in zip(model.terms, back.terms):
        oa, ob = model.term_operator(a), back.term_operator(b)
        assert oa.support == ob.support
        assert np.allclose(oa.matrix, ob.matrix, atol=1e-12)


def test_saved_model_is_one_line_and_reloads_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    models = [families.cell_model(beta=0.7), families.tiling_model(2, 2, merged=True),
              families.random_commuting_model(rng, max_sites=5)]
    for k, model in enumerate(models):
        path = str(tmp_path / f"model-{k}.json")
        save_model(model, path)
        text = Path(path).read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        back = load_model(path)
        assert back.beta == model.beta and back.space == model.space
        for a, b in zip(model.checked_terms, back.checked_terms, strict=True):
            assert a.support == b.support
            assert np.array_equal(a.matrix, b.matrix)


def test_scalar_terms_are_saved_on_a_site_and_reload(tmp_path):
    graph = Graph.from_edges([(1, 2), (2, 3)])
    symbolic = ModelInstance(SiteSpace.qubits(3), graph,
                             (parse_sum("1.0 * Z1 Z2"), parse_term("0.5"), PauliSum.zero(),
                              parse_term("0.4 * X2"), parse_sum("-0.7 * X2 X3")),
                             beta=0.8)
    dense = ModelInstance(SiteSpace.from_dims({1: 3, 2: 2, 3: 2}), graph,
                          (SupportedOperator((), [[0.5]]),
                           SupportedOperator((1, 2), np.diag(np.arange(6.0))),
                           parse_sum("1.0 * X2 X3")), beta=0.8)
    for k, model in enumerate((symbolic, dense)):
        path = str(tmp_path / f"scalar-{k}.json")
        save_model(model, path)
        assert all(t["support"] for t in read(path)["terms"])
        back = load_model(path)
        assert back.all_pauli() == model.all_pauli()
        assert markov.log_partition(back) == pytest.approx(
            markov.log_partition(model), rel=1e-12)
        want, got = cumulants.model_cumulants(model), cumulants.model_cumulants(back)
        assert got.supports() == want.supports()
        for sup in want.supports():
            assert np.allclose(got.operator(sup).matrix, want.operator(sup).matrix,
                               atol=1e-12)
    assert [t.get("pauli") for t in model_to_json(symbolic)["terms"]][1:3] == ["I", "I"]


def test_multi_word_pauli_terms_are_saved_as_words_and_keep_the_certificate(tmp_path):
    model = ModelInstance(SiteSpace.qubits(3), Graph.from_edges([(1, 2), (2, 3)]),
                          (parse_sum("1.0 * Z1 Z2 + 0.4 * Z1"), parse_term("1.0 * Z2 Z3"),
                           parse_sum("1.0 * Z2 Z3"), PauliTerm.from_letters(-0.5, {3: "Z"})))
    assert model.all_pauli()
    assert decompose.verify_gibbs(model).route == "certificate"
    path = str(tmp_path / "words.json")
    save_model(model, path)
    assert read(path)["terms"][0] == {
        "support": [1, 2], "words": [{"pauli": "Z I", "coeff": 0.4},
                                     {"pauli": "Z Z", "coeff": 1.0}]}
    back = load_model(path)
    assert back.all_pauli() and back.terms == model.terms
    out = str(tmp_path / "words.verify.json")
    assert main(["verify-markov", path, "--out", out]) == 0
    assert read(out)["route"] == "certificate"


def test_words_scale_by_the_term_coeff():
    data = {"sites": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}], "edges": [[1, 2]],
            "terms": [{"support": [1, 2], "coeff": 2.0,
                       "words": [{"pauli": "X X"}, {"pauli": "I z", "coeff": -0.25}]}]}
    (term,) = model_from_json(data).terms
    assert term == parse_sum("2.0 * X1 X2 - 0.5 * Z2")


BAD_MODELS = [
    ({"sites": [], "terms": []}, "sites"),
    ({"sites": [{"id": 1, "dim": 2}], "terms": "x"}, "terms"),
    ({"sites": [{"id": 1, "dim": 2}, {"id": 1, "dim": 2}], "terms": []},
     "repeats"),
    ({"sites": [{"id": 1, "dim": 1}], "terms": []}, "dim"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [[1, 2]], "terms": []},
     "edges[0]"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [2], "pauli": "Z"}]}, "unknown site 2"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "pauli": "Q"}]}, "letter"),
    ({"sites": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}], "edges": [[1, 2]],
      "terms": [{"support": [1, 2], "pauli": "Z"}]}, "terms[0].pauli"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "pauli": "Z", "coeff": [1.0, 0.5]}]},
     "real"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[0, 1], [0, 0]]}}]},
     "Hermitian"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[1.0]]}}]}, "shape"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1]}]}, "pauli string or a matrix"),
    ({"sites": [{"id": 1, "dim": 4}], "edges": [],
      "terms": [{"support": [1], "pauli": "Z"}]}, "dim 4"),
    ({"sites": [{"id": i, "dim": 2} for i in (1, 2, 3)],
      "edges": [[1, 2], [2, 3]],
      "terms": [{"support": [1, 3], "pauli": "Z Z"}]}, "clique"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "pauli": "Z"}], "beta": "hot"}, "beta"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "pauli": "Z", "coeff": float("nan")}]},
     "terms[0].coeff must be a finite"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[1, 0], [0, float("nan")]]}}]},
     "terms[0].matrix entries must be finite"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "pauli": "Z"}], "beta": float("inf")},
     "beta must be a finite"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "pauli": "Z"}], "beta": 10 ** 400},
     "beta must be a finite"),
    # a defect of 1e-11 relative to the largest entry, above HERMITIAN_RTOL
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[1, 1], [1 + 1e-11, 1]]}}]},
     "terms[0].matrix after coeff: matrix is not Hermitian"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "pauli": "Z", "words": []}]},
     "one of pauli, words or matrix"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "words": []}]}, "terms[0].words must be a non-empty"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "words": [{"pauli": "Z"}, {"pauli": "Q"}]}]},
     "terms[0].words[1].pauli: unknown letter"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "words": [{"pauli": "Z", "coeff": [1.0, 0.5]}]}]},
     "terms[0].words[0].coeff must be real"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "words": ["Z"]}]}, "terms[0].words[0] must be an object"),
    # an im that numpy would broadcast against re
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[1, 0], [0, 2]], "im": [[0, 0]]}}]},
     "terms[0].matrix.im has shape (1, 2); re has shape (2, 2)"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[1, 0], [0, 2]], "im": 0}}]},
     "terms[0].matrix.im has shape (); re has shape (2, 2)"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[1, 0], [0, 2]], "im": [0.0]}}]},
     "terms[0].matrix.im has shape (1,); re has shape (2, 2)"),
    # numpy reads true as 1.0 and "2" as 2.0
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[True, 0], [0, 1]]}}]},
     "terms[0].matrix entries must be numbers, not bool"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[1, 0], [0, 1]],
                                            "im": [[0, False], [0, 0]]}}]},
     "terms[0].matrix entries must be numbers, not bool"),
    ({"sites": [{"id": 1, "dim": 2}], "edges": [],
      "terms": [{"support": [1], "matrix": {"re": [[1, 0], [0, "2"]]}}]},
     "terms[0].matrix entries must be numbers, not str"),
    ({"sites": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}], "edges": [[1, 2], [1, 1]],
      "terms": [{"support": [1], "pauli": "Z"}]}, "edges[1] is a self-loop on site 1"),
]


@pytest.mark.parametrize("data,fragment", BAD_MODELS)
def test_model_json_diagnostics(data, fragment):
    with pytest.raises(ModelFormatError) as exc:
        model_from_json(data)
    assert fragment.lower() in str(exc.value).lower()


@st.composite
def plain_model_files(draw):
    """Model files on a chain of 2-4 sites of dims 2-4: Pauli terms of one
    word or several, words that cancel to zero, identity words and lower-case
    letters on qubit sites, and real or complex dense terms on one site or
    an edge, each exactly Hermitian."""
    n = draw(st.integers(2, 4))
    dims = draw(st.lists(st.sampled_from((2, 2, 3, 4)), min_size=n, max_size=n))
    coeffs = st.sampled_from((1.0, -0.5, 0.25, 2.0, 1.5e-3))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        first = draw(st.integers(1, n))
        support = list(range(first, min(first + draw(st.integers(1, 2)), n + 1)))
        if all(dims[s - 1] == 2 for s in support) and draw(st.booleans()):
            letters = st.text("IXYZixyz", min_size=len(support), max_size=len(support))
            words = [{"pauli": " ".join(draw(letters)), "coeff": draw(coeffs)}
                     for _ in range(draw(st.integers(1, 3)))]
            if draw(st.booleans()):  # the first word again, cancelling it
                words.append({"pauli": words[0]["pauli"].swapcase(),
                              "coeff": -words[0]["coeff"]})
            entry = ({"pauli": words[0]["pauli"]} if len(words) == 1
                     else {"words": words})
            terms.append({"support": support, "coeff": draw(coeffs), **entry})
        else:
            d = math.prod(dims[s - 1] for s in support)
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            x = rng.normal(size=(d, d))
            if draw(st.booleans()):
                x = x + 1j * rng.normal(size=(d, d))
            m = x + x.conj().T
            block = {"re": m.real.tolist()}
            if np.iscomplexobj(m):
                block["im"] = m.imag.tolist()
            coeff = draw(st.sampled_from((1.0, -0.5, [2.0, 0.0])))
            terms.append({"support": support, "matrix": block, "coeff": coeff})
    return {"sites": [{"id": s, "dim": d} for s, d in enumerate(dims, start=1)],
            "edges": [[s, s + 1] for s in range(1, n)], "terms": terms,
            "beta": draw(st.sampled_from((1.0, 0.3)))}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(plain_model_files())
def test_loaded_models_save_and_reload_unchanged(data):
    model = model_from_json(data)
    saved = model_to_json(model)
    back = model_from_json(json.loads(json.dumps(saved)))
    for a, b in zip(model.terms, back.terms, strict=True):
        if isinstance(a, PauliSum):
            assert a == b
        else:
            assert a.support == b.support
            assert np.array_equal(a.matrix, b.matrix)
    assert model_to_json(back) == saved


# finite floats of every magnitude, subnormals and -0.0 drawn often, small
# enough that symmetrizing a matrix (x + x) / 2 stays finite; json wrote
# 1e-05, orjson writes 0.00001
FLOATS = st.sampled_from((-0.0, 5e-324, -1e-310, 1e-05)) | st.floats(-1e300, 1e300)


@st.composite
def dense_models(draw):
    """Exactly Hermitian complex terms on a chain of 2-3 sites of dims 2-3,
    on one site or an edge, each entry drawn from ``FLOATS``."""
    n = draw(st.integers(2, 3))
    dims = draw(st.lists(st.sampled_from((2, 3)), min_size=n, max_size=n))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        first = draw(st.integers(1, n))
        support = tuple(range(first, min(first + draw(st.integers(1, 2)), n + 1)))
        d = math.prod(dims[s - 1] for s in support)
        m = np.zeros((d, d), dtype=complex)
        for i in range(d):
            m[i, i] = draw(FLOATS)
            for j in range(i + 1, d):
                m[i, j] = complex(draw(FLOATS), draw(FLOATS))
                m[j, i] = m[i, j].conjugate()
        terms.append(SupportedOperator(support, m))
    return ModelInstance(SiteSpace.from_dims(dict(enumerate(dims, start=1))),
                         Graph.from_edges([(s, s + 1) for s in range(1, n)]),
                         tuple(terms))


def model_bits(model):
    """beta and every term to the bit: Pauli words' coefficients, dense
    matrices' entries."""
    out = [np.float64(model.beta).view(np.uint64)]
    for t in model.terms:
        if isinstance(t, PauliSum):
            out.append(term_bits(t.terms))
        else:
            out.append((t.support, t.matrix.astype(complex).view(np.uint64).tolist()))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(dense_models(), pauli_models(max_qubits=6)), FLOATS)
def test_model_files_round_trip_bit_for_bit(tmp_path_factory, model, beta):
    # written by save_model, and as the stdlib json writer wrote it
    # (", " and ": " separators, 1e-05), both read back to the same bits
    model = dataclasses.replace(model, beta=beta)
    new = tmp_path_factory.getbasetemp() / "codec-orjson.json"
    old = tmp_path_factory.getbasetemp() / "codec-json.json"
    save_model(model, str(new))
    old.write_text(json.dumps(model_to_json(model)) + "\n", encoding="utf-8")
    want = model_bits(model)
    assert model_bits(load_model(str(new))) == want
    assert model_bits(load_model(str(old))) == want
    assert json.loads(new.read_text(encoding="utf-8")) == model_to_json(model)


def test_generate_writes_model_files_through_save_model(tmp_path, capsys):
    want = tmp_path / "saved.json"
    save_model(families.theorem4_model("path4", np.random.default_rng(3)), str(want))
    out = tmp_path / "generated.json"
    argv = ["generate", "theorem4", "--kind", "path4", "--seed", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == want.read_bytes()


def test_each_dense_term_is_checked_for_hermiticity_once(tmp_path, monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(np.shape(matrix))
        return check_hermitian(matrix)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("qmn") and \
                getattr(mod, "check_hermitian", None) is check_hermitian:
            monkeypatch.setattr(mod, "check_hermitian", counting)
    model = families.theorem4_model("path4", np.random.default_rng(1))
    dec = decompose.theorem4_decompose(cumulants.model_cumulants(model), model.graph)
    calls.clear()
    dec_model = dec.to_model()
    # the decomposition's terms are exactly Hermitian, and wrapped unchecked
    assert len(calls) == 0
    for t in dec_model.terms:
        assert np.array_equal(t.matrix, t.matrix.conj().T)
        assert not t.matrix.flags.writeable
    for k, m in enumerate((model, dec_model)):
        path = str(tmp_path / f"path4-{k}.json")
        save_model(m, path)
        dense = sum("matrix" in t for t in read(path)["terms"])
        assert dense > 0
        calls.clear()
        load_model(path)
        assert len(calls) == dense


def test_each_loaded_dense_term_is_constructed_once(tmp_path, monkeypatch):
    # the decoder builds each dense term's operator; admission wraps the
    # checked matrix without building and validating a second one
    calls = []
    post_init = SupportedOperator.__post_init__

    def counting(self):
        calls.append(self.support)
        post_init(self)

    model = families.theorem4_model("path4", np.random.default_rng(1))
    dec = decompose.theorem4_decompose(cumulants.model_cumulants(model), model.graph)
    path = str(tmp_path / "path4-dec.json")
    save_model(dec.to_model(), path)
    dense = sum("matrix" in t for t in read(path)["terms"])
    monkeypatch.setattr(SupportedOperator, "__post_init__", counting)
    loaded = load_model(path)
    assert dense == len(loaded.terms) > 0
    assert len(calls) == dense
    assert all(not t.matrix.flags.writeable for t in loaded.terms)


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="line 1"):
        load_model(str(path))
    with pytest.raises(ModelFormatError, match="nope"):
        load_model(str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# verify-markov

def test_cli_verify_markov_pass_and_schema(tmp_path, capsys):
    cell = gen(tmp_path, "cell")
    assert main(["verify-markov", cell, "--tol", "1e-9"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "pass"
    assert rep["max_cmi"] <= 1e-9
    parts = {(tuple(p["A"]), tuple(p["B"]), tuple(p["C"]))
             for p in rep["partitions"]}
    assert parts == {((1,), (2, 4, 5), (3,)), ((2,), (1, 3, 5), (4,))}
    assert all(p["pass"] for p in rep["partitions"])


def test_cli_verify_markov_fail(tmp_path):
    chain = gen(tmp_path, "noncommuting-chain")
    out = str(tmp_path / "rep.json")
    assert main(["verify-markov", chain, "--out", out]) == 2
    rep = read(out)
    assert rep["verdict"] == "fail"
    assert rep["max_cmi"] == pytest.approx(0.052051695401092335, abs=1e-12)


def test_cli_verify_markov_beta_override(tmp_path):
    chain = gen(tmp_path, "noncommuting-chain")
    out = str(tmp_path / "rep.json")
    main(["verify-markov", chain, "--beta", "0.25", "--out", out])
    weak = read(out)["max_cmi"]
    assert 0 < weak < 0.01


def test_cli_verify_markov_all_partitions(tmp_path):
    cell = gen(tmp_path, "cell")
    out = str(tmp_path / "rep.json")
    assert main(["verify-markov", cell, "--partitions", "all",
                 "--out", out]) == 0
    assert read(out)["verdict"] == "pass"


def test_cli_verify_markov_report_echoes_route_tolerance_and_mode(tmp_path):
    cell = gen(tmp_path, "cell")
    chain = gen(tmp_path, "noncommuting-chain")
    out = str(tmp_path / "rep.json")
    assert main(["verify-markov", cell, "--tol", "1e-9", "--partitions", "all",
                 "--out", out]) == 0
    rep = read(out)
    assert {k: rep[k] for k in ("route", "tolerance", "mode", "certificate",
                                "max_cmi", "verdict")} == {
        "route": "certificate", "tolerance": 1e-9, "mode": "all",
        "certificate": "ShieldCommutingOnly", "max_cmi": 0.0, "verdict": "pass"}
    assert all(p["cmi"] == 0.0 and p["pass"] for p in rep["partitions"])
    # NotShieldCommuting proves nothing: the dense sweep gives the verdict
    assert main(["verify-markov", chain, "--out", out]) == 2
    rep = read(out)
    assert (rep["route"], rep["mode"], rep["tolerance"]) == ("dense", "spanning", 1e-8)
    assert "certificate" not in rep


def test_cli_verify_markov_certifies_dense_commuting_terms_past_the_cap(
        tmp_path, monkeypatch):
    model = gen(tmp_path, "random-commuting", "--seed", "1", "--sites", "5")
    cell = gen(tmp_path, "cell")
    out = str(tmp_path / "rep.json")
    monkeypatch.setenv("QMN_DENSE_CAP", "8")
    assert main(["verify-markov", model, "--out", out]) == 0
    rep = read(out)
    assert {k: rep[k] for k in ("route", "certificate", "rtol", "partitions",
                                "max_cmi", "verdict")} == {
        "route": "certificate", "certificate": "LocalCommuting", "rtol": 1e-9,
        "partitions": [], "max_cmi": 0.0, "verdict": "pass"}
    # a Pauli certificate holds to exact cancellation
    assert main(["verify-markov", cell, "--out", out]) == 0
    assert read(out)["rtol"] == 0.0
    assert main(["verify-markov", model, "--route", "dense"]) == 3


def test_cli_verify_markov_unmerged_tiling_by_certificate(tmp_path):
    tiling = gen(tmp_path, "tiling", "--shape", "1x3")
    out = str(tmp_path / "rep.json")
    assert main(["verify-markov", tiling, "--out", out]) == 0
    rep = read(out)
    assert (rep["route"], rep["certificate"]) == ("certificate", "ShieldCommutingOnly")
    # each cell is a noncommutation component with two partitions of its own
    # five sites, widened by the other sites in B
    assert len(rep["partitions"]) == 6
    model = load_model(tiling)
    listed = [(p["A"], p["B"], p["C"]) for p in rep["partitions"]]
    assert listed == [(sorted(r.partition.a), sorted(r.partition.b),
                       sorted(r.partition.c)) for r in classify(model).records]
    spanning = {(tuple(sorted(p.a)), tuple(sorted(p.b)), tuple(sorted(p.c)))
                for p in shield_partitions(model.graph)}
    assert all(tuple(map(tuple, p)) in spanning for p in listed)


def test_cli_verify_markov_past_the_dense_cap(tmp_path):
    chain = gen(tmp_path, "ising", "--sites", "13")  # dimension 8192
    out = str(tmp_path / "rep.json")
    assert main(["verify-markov", chain, "--out", out]) == 0
    rep = read(out)
    assert (rep["route"], rep["verdict"], rep["max_cmi"]) == ("certificate", "pass", 0.0)
    assert main(["verify-markov", chain, "--route", "dense", "--out", out]) == 3


@pytest.mark.parametrize("mode", ["spanning", "all"])
def test_cli_verify_markov_certifies_local_commuting_past_the_caps(tmp_path, mode):
    # 100 sites: past the dense cap and both partition enumeration caps
    models = [write(tmp_path / "grid.json", grid(10, 10)),
              gen(tmp_path, "ising", "--sites", "100")]
    out = str(tmp_path / "rep.json")
    for model in models:
        assert main(["verify-markov", model, "--partitions", mode,
                     "--out", out]) == 0
        rep = read(out)
        assert {k: rep[k] for k in ("route", "certificate", "mode", "partitions",
                                    "max_cmi", "verdict")} == {
            "route": "certificate", "certificate": "LocalCommuting",
            "mode": mode, "partitions": [], "max_cmi": 0.0, "verdict": "pass"}


@pytest.mark.parametrize("mode", ["spanning", "all"])
def test_cli_verify_markov_uncertified_grid_is_a_limit(tmp_path, capsys, mode):
    # the X fields break pairwise commutation, and no grouping around a
    # fielded site commutes: NotShieldCommuting proves nothing, and the
    # dense sweep cannot build the state of 100 sites
    fielded = write(tmp_path / "grid-x.json", grid(10, 10, x_every=7))
    assert main(["verify-markov", fielded, "--partitions", mode]) == 3
    assert capsys.readouterr().out == ""


def test_cli_verify_markov_all_mode_certificate_lists_classify_records(tmp_path):
    tiling = gen(tmp_path, "tiling", "--shape", "1x3")  # 11 sites: 4^11 > 4^10
    out = str(tmp_path / "rep.json")
    assert main(["verify-markov", tiling, "--partitions", "all", "--out", out]) == 0
    rep = read(out)
    assert (rep["route"], rep["mode"], rep["certificate"]) == (
        "certificate", "all", "ShieldCommutingOnly")
    assert len(rep["partitions"]) == 6  # two per cell
    assert all(sorted(p["A"] + p["B"] + p["C"]) == list(range(1, 12))
               for p in rep["partitions"])
    assert main(["verify-markov", tiling, "--out", out]) == 0
    assert read(out)["partitions"] == rep["partitions"]


def test_cli_verify_markov_dense_route_keeps_the_sweep(tmp_path):
    cell = gen(tmp_path, "cell")
    out = str(tmp_path / "rep.json")
    assert main(["verify-markov", cell, "--route", "dense", "--out", out]) == 0
    rep = read(out)
    assert rep["route"] == "dense" and "certificate" not in rep
    model = load_model(cell)
    sweep = is_markov_network(gibbs(model), model.graph).to_json_dict()
    assert rep["partitions"] == sweep["partitions"]
    # the per-partition CMIs of the sweep before the certificate route existed
    assert [(p["A"], p["B"], p["C"]) for p in rep["partitions"]] == [
        ([1], [2, 4, 5], [3]), ([2], [1, 3, 5], [4])]
    for p in rep["partitions"]:
        assert abs(p["cmi"] - 1.3322676295501878e-15) <= 1e-15


# ---------------------------------------------------------------------------
# cumulants

def test_cli_cumulants_log_gibbs_stays_on_cliques(tmp_path, capsys):
    chain = gen(tmp_path, "noncommuting-chain")
    assert main(["cumulants", chain, "--rtol", "1e-8"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["clique"]["pass"]
    assert rep["parseval_gap"] < 1e-12
    sups = [tuple(s["sites"]) for s in rep["supports"]]
    assert (1, 2) in sups and (2, 3) in sups
    assert all(len(s) < 3 for s in sups)


def test_cli_cumulants_cell_mass_on_triangles(tmp_path, capsys):
    cell = gen(tmp_path, "cell")
    assert main(["cumulants", cell]) == 0
    rep = json.loads(capsys.readouterr().out)
    by_support = {tuple(s["sites"]): s["norm_sq"] for s in rep["supports"]}
    triangles = [(1, 2, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    assert set(by_support) == {()} | set(triangles)
    # each plaquette is a unit Pauli word, embedded norm 2^5
    for t in triangles:
        assert by_support[t] == pytest.approx(32.0, rel=1e-10)


def test_cli_cumulants_of_hamiltonian(tmp_path, capsys):
    chain = gen(tmp_path, "noncommuting-chain")
    assert main(["cumulants", chain, "--of", "hamiltonian"]) == 0
    rep = json.loads(capsys.readouterr().out)
    sups = [s["sites"] for s in rep["supports"]]
    assert sups == [[1, 2], [2, 3]]


def test_cli_cumulants_max_support_gap(tmp_path, capsys):
    fields = write(tmp_path / "f.json", {
        "sites": [{"id": i, "dim": 2} for i in (1, 2, 3)], "edges": [],
        "terms": [{"support": [1], "pauli": "Z", "coeff": 0.7},
                  {"support": [3], "pauli": "X", "coeff": 0.4}]})
    assert main(["cumulants", fields, "--max-support", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["parseval_gap"] < 1e-12

    ising = gen(tmp_path, "ising", "--sites", "4")
    assert main(["cumulants", ising, "--max-support", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    # two-body coupling mass is hidden by the cap and shows up in the gap
    assert 0.01 < rep["parseval_gap"] < 0.5
    assert all(len(s["sites"]) <= 1 for s in rep["supports"])


def test_cli_cumulants_past_the_dense_cap(tmp_path, capsys):
    # dim 2^100: every cumulant comes from the terms; of log rho only the
    # scalar -log Z needs the spectrum, so it alone is missing
    chain = gen(tmp_path, "ising", "--sites", "100")
    assert main(["cumulants", chain, "--of", "log-gibbs"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["route"] == "local"
    assert rep["scalar_computed"] is False
    sups = [tuple(s["sites"]) for s in rep["supports"]]
    assert () not in sups and len(sups) == 100 + 99
    assert rep["clique"]["pass"] and rep["parseval_gap"] < 1e-12
    assert main(["cumulants", chain, "--of", "hamiltonian"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["scalar_computed"] is True
    assert rep["clique"]["pass"]


def test_cli_cumulants_inside_the_cap_reports_the_scalar(tmp_path, capsys):
    chain = gen(tmp_path, "ising", "--sites", "4")
    assert main(["cumulants", chain]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["route"] == "local" and rep["scalar_computed"] is True
    assert rep["rtol"] == cumulants.DEFAULT_CLIQUE_RTOL
    assert rep["supports"][0]["sites"] == []


# ---------------------------------------------------------------------------
# classify

def test_cli_classify_cell(tmp_path, capsys):
    cell = gen(tmp_path, "cell")
    assert main(["classify", cell]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "ShieldCommutingOnly"
    assert rep["pairwise_max"] == pytest.approx(2.0)
    assert rep["witness"] is None
    assert len(rep["partitions"]) == 2
    assert all(r["commuting"] for r in rep["partitions"])


def test_cli_classify_ising_local_commuting(tmp_path, capsys):
    ising = gen(tmp_path, "ising", "--sites", "4")
    assert main(["classify", ising]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "LocalCommuting"
    assert rep["pairwise_max"] == 0.0
    assert rep["partitions"] == []


def test_cli_classify_report_echoes_rtol_search_cap_and_route(tmp_path, capsys,
                                                             monkeypatch):
    cell = gen(tmp_path, "cell")
    with monkeypatch.context() as m:
        m.setattr(decompose, "SPLIT_SEARCH_CAP", 64)
        assert main(["classify", cell, "--rtol", "1e-7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["route"], rep["rtol"], rep["search_cap"]) == ("symbolic", 0.0, 64)
    dense = gen(tmp_path, "theorem4", "--kind", "path4")
    assert main(["classify", dense]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["route"] == "dense"
    assert rep["rtol"] == decompose.DEFAULT_RTOL
    assert rep["search_cap"] == decompose.SPLIT_SEARCH_CAP


def test_cli_options_of_one_call_do_not_leak_into_the_next(tmp_path, capsys):
    dense = gen(tmp_path, "theorem4", "--kind", "path4")  # a dense model echoes --rtol
    assert main(["classify", dense, "--rtol", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["rtol"] == 1e-3
    assert main(["classify", dense]) == 0
    assert json.loads(capsys.readouterr().out)["rtol"] == decompose.DEFAULT_RTOL


def test_cli_classify_chain_fails(tmp_path, capsys):
    chain = gen(tmp_path, "noncommuting-chain")
    assert main(["classify", chain]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "NotShieldCommuting"
    assert rep["witness"] == {"A": [1], "B": [2], "C": [3]}


def cell_with(tmp_path, name, term):
    data = model_to_json(families.cell_model())
    data["terms"].append(term)
    return write(tmp_path / f"{name}.json", data)


def test_cli_classify_search_cap_when_the_default_commutes(tmp_path, capsys,
                                                          monkeypatch):
    # Z2 sits inside the shield of ({1}|{2,4,5}|{3}) and commutes with all
    # terms: the default grouping commutes, so a cap of 1 costs no verdict
    cell = cell_with(tmp_path, "cell-z2",
                     {"support": [2], "pauli": "Z", "coeff": 0.5})
    monkeypatch.setattr(decompose, "SPLIT_SEARCH_CAP", 1)
    assert main(["classify", cell]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "ShieldCommutingOnly"
    assert all(r["commuting"] for r in rep["partitions"])


def test_cli_classify_search_cap_when_the_default_fails(tmp_path, capsys,
                                                       monkeypatch):
    # X2X5 inside the same shield clashes with the C side by default; its
    # two groupings exceed a cap of 1: a limit, no verdict
    cell = cell_with(tmp_path, "cell-x2x5",
                     {"support": [2, 5], "pauli": "X X", "coeff": 1.0})
    with monkeypatch.context() as m:
        m.setattr(decompose, "SPLIT_SEARCH_CAP", 1)
        assert main(["classify", cell]) == 3
    assert "EnumerationCapError" in capsys.readouterr().err
    assert main(["classify", cell]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["partitions"][0]["commuting"]
    assert rep["witness"] == {"A": [2], "B": [1, 3, 5], "C": [4]}


# ---------------------------------------------------------------------------
# decompose

def test_cli_decompose_round_trip(tmp_path):
    model = gen(tmp_path, "theorem4", "--kind", "path4", "--seed", "3")
    dec = str(tmp_path / "dec.json")
    rep = str(tmp_path / "rep.json")
    assert main(["decompose", model, "--out", dec, "--report", rep]) == 0
    r = read(rep)
    assert r["decomposed"]
    assert r["residual"] < 1e-10
    assert r["max_commutator"] < 1e-10
    assert {v["site"] for v in r["vertex_terms"]} == {1, 2, 3, 4}

    out = str(tmp_path / "cls.json")
    assert main(["classify", dec, "--rtol", "1e-8", "--out", out]) == 0
    assert read(out)["verdict"] == "LocalCommuting"
    assert main(["verify-markov", dec, "--out", out]) == 0
    assert read(out)["verdict"] == "pass"


def test_cli_decompose_preserves_state(tmp_path):
    model = gen(tmp_path, "theorem4", "--kind", "cycle4", "--seed", "5")
    dec = str(tmp_path / "dec.json")
    assert main(["decompose", model, "--out", dec,
                 "--report", str(tmp_path / "r.json")]) == 0
    rho = gibbs(load_model(model))
    rho2 = gibbs(load_model(dec))
    assert np.abs(rho.matrix - rho2.matrix).max() < 1e-10


def test_cli_cold_model_decomposes_and_cumulants_stay_on_cliques(tmp_path, capsys):
    # at beta=3 the smallest Gibbs eigenvalue (~1e-17) sits below the
    # positivity floor of a matrix logarithm; log rho = beta H - log Z 1 has none
    cold = gen(tmp_path, "ising", "--sites", "6", "--beta", "3")
    assert main(["decompose", cold]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["residual"] <= 1e-8
    assert rep["max_commutator"] <= 1e-8
    assert main(["cumulants", cold, "--of", "log-gibbs"]) == 0
    assert json.loads(capsys.readouterr().out)["clique"]["pass"]


def test_cli_decompose_report_echoes_route_and_tolerances(tmp_path, capsys):
    model = gen(tmp_path, "theorem4", "--kind", "star", "--seed", "2")
    assert main(["decompose", model, "--tol", "1e-8", "--support-rtol", "1e-7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["route"], rep["tolerance"], rep["support_rtol"]) == ("local", 1e-8, 1e-7)
    cell = gen(tmp_path, "cell")
    assert main(["decompose", cell]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert not rep["decomposed"]
    assert (rep["route"], rep["tolerance"], rep["support_rtol"]) == (
        "local", decompose.DEFAULT_RTOL, decompose.DEFAULT_SUPPORT_RTOL)


def test_cli_decompose_past_the_dense_cap(tmp_path, capsys):
    chain = gen(tmp_path, "ising", "--sites", "100")
    dec = str(tmp_path / "dec.json")
    assert main(["decompose", chain, "--out", dec]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["decomposed"] and rep["route"] == "local"
    assert rep["residual"] <= 1e-8
    assert rep["max_commutator"] <= 1e-8
    assert len(rep["vertex_terms"]) == 100 and len(rep["edge_terms"]) == 99
    assert len(read(dec)["terms"]) == 199


@pytest.mark.parametrize(
    "family", [("theorem4", "--kind", k, "--seed", "3") for k in families.THEOREM4_KINDS]
    + [("ising", "--sites", "12")], ids=[*families.THEOREM4_KINDS, "ising12"])
def test_cli_decompose_without_the_scalar_keeps_rounding_level_vertex_terms(
        tmp_path, capsys, monkeypatch, family):
    # decompose regroups beta H, with no -log Z / n shift in the vertex
    # terms; on the theorem4 models at seed 3 the star decomposition leaves
    # some at rounding level (3.8e-16 on path4 site 2), which have no norm
    # to judge a commutator against and must not fail the check.  The
    # output is the same at the default dense cap and at 16.
    model = gen(tmp_path, *family)
    written = []
    for cap in (None, "16"):
        if cap is None:
            monkeypatch.delenv("QMN_DENSE_CAP", raising=False)
        else:
            monkeypatch.setenv("QMN_DENSE_CAP", cap)
        out, rep = tmp_path / f"dec-{cap}.json", tmp_path / f"rep-{cap}.json"
        assert main(["decompose", model, "--out", str(out), "--report", str(rep)]) == 0
        written.append((out.read_bytes(), rep.read_bytes()))
    assert written[0] == written[1]
    rep = json.loads(written[0][1])
    assert rep["decomposed"] and "scalar_computed" not in rep
    assert rep["max_commutator"] <= 1e-8 and rep["residual"] <= 1e-8
    assert main(["decompose", gen(tmp_path, "cell")]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert not rep["decomposed"] and "scalar_computed" not in rep


def test_cli_decompose_never_computes_log_z(tmp_path, capsys, monkeypatch):
    def refuse(model):
        raise AssertionError("log_partition called")

    monkeypatch.setattr(markov, "log_partition", refuse)
    monkeypatch.setattr(cumulants, "log_partition", refuse)
    ising4 = gen(tmp_path, "ising", "--sites", "4")
    for model in (gen(tmp_path, "theorem4", "--kind", "grid2x3", "--seed", "3"), ising4):
        assert main(["decompose", model]) == 0
        assert json.loads(capsys.readouterr().out)["decomposed"]
    with pytest.raises(AssertionError, match="log_partition called"):
        main(["cumulants", ising4, "--of", "log-gibbs"])


def test_cli_cumulants_of_a_diagonal_model_past_the_dense_cap_have_the_scalar(
        tmp_path, capsys):
    # d = 8192: log Z of the 13-site chain needs only its length-d diagonal
    chain = gen(tmp_path, "ising", "--sites", "13")
    assert main(["cumulants", chain]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["scalar_computed"] is True
    # transfer matrix over spins s = +-1 (coupling 1, field 0.5, beta 1)
    spins = np.array([1.0, -1.0])
    field = np.exp(0.5 * spins)
    log_z = math.log(field @ np.linalg.matrix_power(
        np.exp(np.outer(spins, spins)) * field, 12) @ np.ones(2))
    assert rep["supports"][0]["sites"] == []
    assert rep["supports"][0]["norm_sq"] == pytest.approx(log_z ** 2 * 2 ** 13, rel=1e-12)


def grid(rows, cols, x_every=0):
    """ZZ couplings and Z fields on a rows x cols grid of qubits, plus an X
    field on every ``x_every``-th site when it is nonzero."""
    ids = {(r, c): r * cols + c + 1 for r in range(rows) for c in range(cols)}
    edges = [[ids[r, c], ids[r2, c2]] for (r, c) in ids
             for (r2, c2) in ((r, c + 1), (r + 1, c)) if (r2, c2) in ids]
    terms = [{"support": e, "pauli": "Z Z", "coeff": 0.8} for e in edges]
    terms += [{"support": [v], "pauli": "Z", "coeff": 0.3} for v in ids.values()]
    if x_every:
        terms += [{"support": [v], "pauli": "X", "coeff": 0.5}
                  for v in ids.values() if v % x_every == 0]
    return {"sites": [{"id": v, "dim": 2} for v in ids.values()],
            "edges": edges, "terms": terms, "beta": 1.0}


def test_cli_decompose_and_cumulants_on_a_10x10_grid(tmp_path, capsys):
    model = write(tmp_path / "grid.json", grid(10, 10))
    assert main(["decompose", model]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["residual"] <= 1e-8 and rep["max_commutator"] <= 1e-8
    assert main(["cumulants", model, "--of", "hamiltonian"]) == 0
    assert json.loads(capsys.readouterr().out)["clique"]["pass"]
    # an X field on every 7th site does not commute with the ZZ couplings
    # there: rejected, not a limit
    fielded = write(tmp_path / "grid-x.json", grid(10, 10, x_every=7))
    assert main(["decompose", fielded]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert not rep["decomposed"] and "residual" in rep["reason"]


def test_cli_decompose_rejects_triangles(tmp_path, capsys):
    cell = gen(tmp_path, "cell")
    assert main(["decompose", cell]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert not rep["decomposed"]
    assert "triangle" in rep["reason"].lower()


def test_cli_decompose_rejects_non_markov(tmp_path, capsys):
    chain = gen(tmp_path, "noncommuting-chain")
    assert main(["decompose", chain]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert not rep["decomposed"]


# ---------------------------------------------------------------------------
# demos and generators

@pytest.mark.parametrize("name", ["counterexample", "coarse-grain"])
def test_cli_demo_passes(name, capsys):
    assert main(["demo", name]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out
    assert "[fail]" not in out


def test_cli_demo_tiling(capsys):
    assert main(["demo", "tiling", "2x3"]) == 0
    out = capsys.readouterr().out
    assert "[fail]" not in out
    assert "12 grouped terms" in out


def test_cli_demo_unknown(capsys):
    assert main(["demo", "nonsense"]) == 1


@pytest.mark.parametrize("kind", families.THEOREM4_KINDS)
def test_cli_generate_theorem4_kinds(tmp_path, kind):
    path = gen(tmp_path, "theorem4", "--kind", kind, "--seed", "2")
    model = load_model(path)
    assert any(d == 4 for d in model.space.dims)


def test_cli_generate_tiling_shape(tmp_path):
    path = gen(tmp_path, "tiling", "--shape", "2x3")
    model = load_model(path)
    # 3x4 corners plus 6 centers, four terms per cell
    assert len(model.space.sites) == 18
    assert len(model.terms) == 24


@pytest.mark.parametrize("family", ["theorem4", "random-commuting"])
def test_cli_generate_writes_the_given_beta(tmp_path, family):
    # the seeded families draw beta last, so --beta changes nothing else
    drawn = read(gen(tmp_path, family, "--seed", "3"))
    given = read(gen(tmp_path, family, "--seed", "3", "--beta", "2.5"))
    assert given == drawn | {"beta": 2.5}
    rng = np.random.default_rng(3)
    own = (families.theorem4_model("path4", rng) if family == "theorem4"
           else families.random_commuting_model(rng, max_sites=5))
    assert drawn == model_to_json(own)


def test_cli_generate_random_is_seeded(tmp_path):
    a = read(gen(tmp_path, "random-commuting", "--seed", "9"))
    b_path = str(tmp_path / "b.json")
    main(["generate", "random-commuting", "--seed", "9", "--out", b_path])
    assert a == read(b_path)


def test_cli_dot_export(tmp_path):
    cell = gen(tmp_path, "cell")
    dot = str(tmp_path / "g.dot")
    assert main(["classify", cell, "--dot", dot,
                 "--out", str(tmp_path / "r.json")]) == 0
    text = Path(dot).read_text(encoding="utf-8")
    assert text.startswith("graph G {")
    assert "1 -- 2" in text or "2 -- 1" in text


# ---------------------------------------------------------------------------
# exit codes on bad input

def test_cli_usage_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["verify-markov", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_cli_dense_cap_is_exit_3(tmp_path, capsys, monkeypatch):
    chain = gen(tmp_path, "noncommuting-chain")  # dimension 8, dense route
    monkeypatch.setenv("QMN_DENSE_CAP", "4")
    assert main(["verify-markov", chain]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "DenseCapError" in captured.err


def test_cli_dense_grouping_search_respects_the_dense_cap(tmp_path, capsys,
                                                         monkeypatch):
    tiling = families.tiling_model(1, 2)
    dense = ModelInstance(tiling.space, tiling.graph,
                          tuple(tiling.term_operator(t) for t in tiling.terms))
    path = write(tmp_path / "tiling-dense.json", model_to_json(dense))
    path4 = gen(tmp_path, "theorem4", "--kind", "path4")
    monkeypatch.setenv("QMN_DENSE_CAP", "16")
    # each cell of the 1x2 tiling is a component, whose grouping halves span
    # its region of five qubits, 32 dimensions
    assert main(["classify", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "DenseCapError" in captured.err
    # path4's terms commute pairwise, on unions of at most 32 dimensions
    assert main(["classify", path4]) == 0


@pytest.mark.parametrize("cap", ["abc", "0", "-3"])
def test_cli_bad_dense_cap_setting_is_exit_1(tmp_path, capsys, monkeypatch, cap):
    chain = gen(tmp_path, "noncommuting-chain")
    monkeypatch.setenv("QMN_DENSE_CAP", cap)
    assert main(["verify-markov", chain, "--route", "dense"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "QMN_DENSE_CAP" in captured.err


def test_cli_enumeration_cap_is_exit_3(tmp_path, capsys):
    # an X field on every site of a 15-site ZZ chain joins all its terms into
    # one noncommutation component, whose region needs 3^15 > 3^14 assignments
    edges = [[v, v + 1] for v in range(1, 15)]
    chain = write(tmp_path / "fielded-chain.json", {
        "sites": [{"id": v, "dim": 2} for v in range(1, 16)], "edges": edges,
        "terms": [{"support": e, "pauli": "Z Z", "coeff": 1.0} for e in edges]
                 + [{"support": [v], "pauli": "X", "coeff": 0.5} for v in range(1, 16)]})
    assert main(["classify", chain]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "EnumerationCapError" in captured.err
    # the 2x3 tiling has 18 sites, but each cell's region only five
    tiling = gen(tmp_path, "tiling", "--shape", "2x3")
    assert main(["classify", tiling]) == 0
    assert main(["verify-markov", tiling]) == 0


def test_cli_positivity_floor_is_exit_3(tmp_path, capsys, monkeypatch):
    cell = gen(tmp_path, "cell")
    # a floor above every eigenvalue of the state: the dense route's
    # validation of the Gibbs state rejects it
    monkeypatch.setattr(markov, "EIGENVALUE_FLOOR", 0.5)
    assert main(["verify-markov", cell, "--route", "dense"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "PositivityViolationError" in captured.err


def test_cli_bad_model_is_exit_1(tmp_path, capsys):
    path = write(tmp_path / "bad.json", {
        "sites": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
        "edges": [[1, 2]],
        "terms": [{"support": [1, 2], "pauli": "Z"}]})
    assert main(["classify", path]) == 1
    assert "terms[0]" in capsys.readouterr().err


def test_cli_non_finite_input_is_exit_1(tmp_path, capsys):
    # json writes and reads NaN; a NaN coefficient must not reach a verdict
    path = write(tmp_path / "nan.json", {
        "sites": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
        "edges": [[1, 2]],
        "terms": [{"support": [1, 2], "pauli": "Z Z", "coeff": float("nan")}]})
    assert main(["verify-markov", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "terms[0].coeff" in captured.err
    cell = gen(tmp_path, "cell")
    assert main(["verify-markov", cell, "--beta", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--beta" in captured.err


TWO_QUBITS = json.dumps({
    "sites": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}], "edges": [[1, 2]],
    "terms": [{"support": [1, 2], "pauli": "Z Z", "coeff": 1.0},
              {"support": [1], "matrix": {"re": [[1.0, 0.0], [0.0, -1.0]]}}],
    "beta": 1.0}, indent=1)


def stdlib_loader_error(path):
    """The stderr line of a loader that reads the file as text with stdlib
    json and checks its fields with ``model_from_json``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            return f"error: {path}: line {e.lineno}: {e.msg}\n"
    with pytest.raises(ModelFormatError) as exc:
        model_from_json(data)
    return f"error: {exc.value}\n"


@pytest.mark.parametrize("text", [
    TWO_QUBITS.replace('"coeff": 1.0', '"coeff": NaN'),
    TWO_QUBITS.replace('"beta": 1.0', '"beta": -Infinity'),
    TWO_QUBITS.replace("-1.0", "1e400"),
    TWO_QUBITS.replace('"Z Z"', '"Z \\ud800"'),  # a lone surrogate escape
    TWO_QUBITS + "\n{}",
    "\ufeff" + TWO_QUBITS,
    TWO_QUBITS[:len(TWO_QUBITS) // 2],
    (TWO_QUBITS + "x").replace("\n", "\r"),  # text mode reads \r as a newline
], ids=["nan", "infinity", "1e400", "lone-surrogate", "trailing-data", "bom",
        "truncated", "cr-newlines"])
def test_cli_model_files_orjson_refuses_get_the_stdlib_diagnostics(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(path.read_bytes())
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stdlib_loader_error(str(path))


@pytest.mark.parametrize("raw,fragment", [
    (TWO_QUBITS.encode("utf-8").replace(b'"Z Z"', b'"Z \xff"'), "not UTF-8 text"),
    (b"[" * 100000, "JSON nested too deeply to read"),
], ids=["non-utf8", "deep-nesting"])
def test_cli_model_file_that_json_cannot_read_is_exit_1(tmp_path, capsys, raw, fragment):
    path = tmp_path / "model.json"
    path.write_bytes(raw)
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {fragment}")


def test_cli_site_ids_must_fit_64_bits(tmp_path, capsys):
    def model(site):
        return write(tmp_path / f"site-{site}.json", {
            "sites": [{"id": site, "dim": 3}], "edges": [],
            "terms": [{"support": [site], "matrix": {"re": np.eye(3).tolist()}}]})

    # orjson reads an integer past 2**64 - 1 as a float
    assert main(["classify", model(2 ** 64)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sites[0] must be an object with an integer id" in captured.err
    biggest = model(2 ** 64 - 1)
    saved = str(tmp_path / "saved.json")
    save_model(load_model(biggest), saved)
    assert load_model(saved).space.sites == (2 ** 64 - 1,)


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command,option", [
    ("verify-markov", "--tol"), ("cumulants", "--rtol"), ("classify", "--rtol"),
    ("decompose", "--tol"), ("decompose", "--support-rtol"),
    ("cumulants", "--max-support")])  # a size, not a tolerance: an integer >= 0
def test_cli_tolerances_must_be_finite_and_positive(tmp_path, capsys, command,
                                                     option, value):
    chain = gen(tmp_path, "ising", "--sites", "4")
    assert main([command, chain, f"{option}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and option in captured.err


@pytest.mark.parametrize("argv", [
    ["generate", "tiling", "--shape", "foo"],
    ["generate", "tiling", "--shape", "0x2"],
    ["generate", "ising", "--sites", "1"],
    ["generate", "random-commuting", "--sites", "3"],
    ["demo", "tiling", "0x0"],
    ["demo", "tilingfoo"],
])
def test_cli_bad_family_input_is_exit_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def pauli_on(tmp_path, qubit):
    ids = sorted([0, qubit])
    return write(tmp_path / f"q{qubit}.json", {
        "sites": [{"id": q, "dim": 2} for q in ids],
        "edges": [ids],
        "terms": [{"support": [qubit], "pauli": "Z", "coeff": 1.0},
                  {"support": ids, "pauli": "Z Z", "coeff": 0.5}]})


@pytest.mark.parametrize("qubit", [-1, 2 ** 20])
def test_cli_pauli_qubit_id_out_of_range_is_exit_1(tmp_path, capsys, qubit):
    assert main(["classify", pauli_on(tmp_path, qubit)]) == 1
    err = capsys.readouterr().err
    assert "terms[0]" in err and f"qubit id {qubit}" in err


def test_cli_pauli_qubit_id_below_the_bound_loads(tmp_path, capsys):
    path = pauli_on(tmp_path, 2 ** 20 - 1)
    assert main(["classify", path]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "LocalCommuting"
    assert main(["verify-markov", path]) == 0


def bool_model(field):
    """Two qubits with one ZZ term, and one field set to ``true``."""
    data = {"sites": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
            "edges": [[1, 2]],
            "terms": [{"support": [1, 2], "pauli": "Z Z", "coeff": 1.0}],
            "beta": 1.0}
    if field == "site id":
        data["sites"][0]["id"] = True
    elif field == "edge endpoint":
        data["edges"][0][0] = True
    elif field == "support entry":
        data["terms"][0]["support"][0] = True
    elif field == "coeff":
        data["terms"][0]["coeff"] = True
    elif field == "coeff imaginary part":
        data["terms"][0]["coeff"] = [1.0, False]
    else:
        data[field] = True
    return data


# JSON true loads as Python True, which passes isinstance(x, int)
@pytest.mark.parametrize("field,fragment", [
    ("site id", "sites[0] must be an object with an integer id"),
    ("edge endpoint", "edges[0] must be a pair of site ids"),
    ("support entry", "terms[0].support must be a non-empty list of site ids"),
    ("coeff", "terms[0].coeff must be a finite real number"),
    ("coeff imaginary part", "terms[0].coeff must be a finite real number"),
    ("beta", "beta must be a finite number"),
])
def test_cli_json_booleans_in_ids_and_numbers_are_exit_1(tmp_path, capsys,
                                                         field, fragment):
    path = write(tmp_path / "bool.json", bool_model(field))
    for command in ("classify", "verify-markov"):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and fragment in captured.err
