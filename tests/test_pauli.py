
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    dense_pauli_word, merged_tiling_reference, reference_combine, reference_commutator,
    term_bits,
)
from qmn import families
from qmn.errors import ModelFormatError, NonHermitianError
from qmn.graphs import Graph
from qmn.markov import ModelInstance
from qmn.pauli import (
    QUBIT_ID_LIMIT, PauliSum, PauliTerm, commutator, parse_sum, parse_term, words_commute,
)
from qmn.tensor import SiteSpace


def T(coeff, spec):
    """Term from a compact spec like 'Z1 Z2 Y5'."""
    return parse_term(f"({coeff.real!r}+{coeff.imag!r}i) * {spec}" if isinstance(coeff, complex)
                      else f"{coeff!r} * {spec}")


def test_single_site_products_exact():
    x, y, z = T(1.0, "X1"), T(1.0, "Y1"), T(1.0, "Z1")
    assert (x * y) == T(1.0, "Z1") * 1j
    assert (y * x).coeff == -1j
    assert (y * z).letters == {1: "X"} and (y * z).coeff == 1j
    assert (z * x).letters == {1: "Y"} and (z * x).coeff == 1j
    assert (x * x).word == () and (x * x).coeff == 1.0


def test_product_phases_are_exact_powers_of_i():
    # chains of multiplications keep coefficients exactly in {1, i, -1, -i}
    x, y = T(1.0, "X1"), T(1.0, "Y1")
    p = x
    seen = set()
    for _ in range(8):
        p = p * y * x
        seen.add(p.coeff)
    assert seen <= {1 + 0j, -1 + 0j, 1j, -1j}


def test_products_match_dense_oracle_on_five_qubits():
    rng = np.random.default_rng(41)
    sites = [1, 2, 3, 4, 5]
    for _ in range(30):
        la = {s: "IXYZ"[rng.integers(4)] for s in sites}
        lb = {s: "IXYZ"[rng.integers(4)] for s in sites}
        la = {s: l for s, l in la.items() if l != "I"}
        lb = {s: l for s, l in lb.items() if l != "I"}
        a, b = PauliTerm.from_letters(1.0, la), PauliTerm.from_letters(1.0, lb)
        got = PauliSum.of(a * b).matrix(sites)
        want = dense_pauli_word(la, sites) @ dense_pauli_word(lb, sites)
        assert np.allclose(got, want), (la, lb)


def test_commutes_iff_dense_commutator_vanishes():
    rng = np.random.default_rng(43)
    sites = [1, 2, 3, 4]
    for _ in range(40):
        la = {s: l for s in sites if (l := "IXYZ"[rng.integers(4)]) != "I"}
        lb = {s: l for s in sites if (l := "IXYZ"[rng.integers(4)]) != "I"}
        a, b = PauliTerm.from_letters(1.0, la), PauliTerm.from_letters(1.0, lb)
        da, db = dense_pauli_word(la, sites), dense_pauli_word(lb, sites)
        dense_comm = da @ db - db @ da
        assert words_commute([(a.x, a.z)], [(b.x, b.z)]) == np.allclose(dense_comm, 0)
        got = commutator(a, b).matrix(sites)
        assert np.allclose(got, dense_comm)


def test_counterexample_commutator_value():
    # [Z1 Z2 Y5, Z2 Z3 X5] = -2i Z1 Z3 Z5
    h_down = parse_term("1.0 * Z1 Z2 Y5")
    h_left = parse_term("1.0 * Z2 Z3 X5")
    c = commutator(h_down, h_left)
    assert len(c.terms) == 1
    t = c.terms[0]
    assert t.letters == {1: "Z", 3: "Z", 5: "Z"}
    assert t.coeff == -2j


def test_grouped_counterexample_terms_commute_exactly():
    h_down = parse_term("1.0 * Z1 Z2 Y5")
    h_left = parse_term("1.0 * Z2 Z3 X5")
    h_up = parse_term("1.0 * Z3 Z4 Y5")
    h_right = parse_term("1.0 * Z4 Z1 X5")
    h_ab = PauliSum.of(h_down, h_right)
    h_bc = PauliSum.of(h_left, h_up)
    assert commutator(h_ab, h_bc).is_zero
    # second shielding partition groups the other way
    assert commutator(PauliSum.of(h_down, h_left), PauliSum.of(h_right, h_up)).is_zero


def test_sum_canonicalization_combines_and_drops_zeros():
    a = T(1.0, "X1 Z2")
    s = PauliSum.of(a, T(2.0, "X1 Z2"), T(-3.0, "X1 Z2"))
    assert s.is_zero
    s2 = PauliSum.of(T(1.0, "Z1"), T(0.5, "X2"), T(0.25, "Z1"))
    assert len(s2.terms) == 2
    assert s2.terms[0].coeff == 1.25


def test_sum_arithmetic_and_support():
    s = parse_sum("1.0 * X1 X2 + 1.0 * Z2 Z3")
    assert s.support == (1, 2, 3)
    assert (s - s).is_zero
    sq = s * s
    # (XX + ZZ)^2 = 2 + XX ZZ + ZZ XX = 2 - 2 X1 Y2 Z3 ... checked densely
    q = [1, 2, 3]
    assert np.allclose(sq.matrix(q), s.matrix(q) @ s.matrix(q))


def test_parse_format_roundtrip():
    texts = [
        "1.0 * Z1 Z2 Y5",
        "-2.0 * X3",
        "0.5 * X1 + 0.5 * Z2",
        "2.0i * Y1 Y2",
        "(1.0+2.0i) * Z4",
        "3.5",
    ]
    for text in texts:
        s = parse_sum(text)
        assert parse_sum(str(s)) == s, text


def test_parse_accepts_identity_letters_and_no_coeff():
    assert parse_term("Z1 I2 Z3").letters == {1: "Z", 3: "Z"}
    assert parse_term("Z1").coeff == 1.0


def test_parse_rejects_garbage():
    with pytest.raises(ModelFormatError):
        parse_term("1.0 * Q1")
    with pytest.raises(ModelFormatError):
        parse_term("foo * Z1")
    with pytest.raises(ModelFormatError):
        parse_term("1.0 * Z1 Z1")


def test_term_order_is_canonical():
    assert parse_term("1.0 * Y5 Z1 Z2") == parse_term("1.0 * Z2 Z1 Y5")
    words = [t.word for t in parse_sum("1.0 * Z2 + 1.0 * Z1 + 1.0 * X1").terms]
    assert words == sorted(words)


def test_multiplication_is_associative_exactly():
    rng = np.random.default_rng(47)
    sites = [1, 2, 3]
    for _ in range(25):
        ts = []
        for _ in range(3):
            letters = {s: l for s in sites if (l := "IXYZ"[rng.integers(4)]) != "I"}
            ts.append(PauliTerm.from_letters(1.0, letters))
        a, b, c = ts
        assert (a * b) * c == a * (b * c)


def test_qubit_ids_outside_range_rejected():
    with pytest.raises(ModelFormatError):
        PauliTerm.from_letters(1.0, {-1: "Z"})
    with pytest.raises(ModelFormatError):
        PauliTerm.from_letters(1.0, {QUBIT_ID_LIMIT: "Z"})
    with pytest.raises(ModelFormatError):
        parse_term(f"1.0 * X0 Z{QUBIT_ID_LIMIT}")
    top = PauliTerm.from_letters(1.0, {0: "X", QUBIT_ID_LIMIT - 1: "Y"})
    assert parse_term(str(top)) == top
    assert top.support == (0, QUBIT_ID_LIMIT - 1)


def test_negative_or_non_int_masks_are_refused_at_construction():
    # a negative mask has infinitely many set bits: its word never ends
    for x, z in ((-2, 0), (0, -1), (1.5, 0), (True, 0), (0, np.int64(3)), ("1", 0)):
        with pytest.raises(ModelFormatError):
            PauliTerm(1.0, x, z)
    assert PauliTerm(1.0, 3, 5).word == ((0, "Y"), (1, "X"), (2, "Z"))


def test_non_integral_or_bool_qubit_ids_are_refused():
    for q in (1.5, 2.0, True, False, "1", None):
        with pytest.raises(ModelFormatError):
            PauliTerm.from_letters(1.0, {q: "X"})
    assert PauliTerm.from_letters(1.0, {np.int64(2): "X"}) == PauliTerm(1.0, 4, 0)


def test_a_sum_keeps_the_terms_whose_words_do_not_combine():
    a, b = T(1.0, "Z1 Z2 Y5"), T(1.0, "Z4 Z1 X5")
    s = PauliSum.of(b, a, T(0.5, "X2"), T(-0.5, "X2"))
    assert s.terms[0] is a and s.terms[1] is b
    # 0j + (-1-0j) is (-1+0j): a term with a -0.0 part is made anew
    neg = PauliSum.of(-a, b)
    assert term_bits(neg.terms) == term_bits(reference_combine((-a, b)))


# ---------------------------------------------------------------------------
# the table and order-key routes against loops over term objects

# real and imaginary parts with signed zeros, so that 0j + c can differ from c
PARTS = (1.0, -1.0, 0.5, -2.0, 0.0, -0.0)


@st.composite
def loose_terms(draw, qubits=(1, 2, 5), max_size=6):
    """Terms on a few qubits, so words repeat, cancel and anticommute."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        letters = {q: l for q in qubits if (l := draw(st.sampled_from("IIXYZ"))) != "I"}
        coeff = complex(draw(st.sampled_from(PARTS)), draw(st.sampled_from(PARTS)))
        term = PauliTerm.from_letters(coeff, letters)
        out.append(-term if draw(st.booleans()) else term)
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(loose_terms(max_size=8))
def test_sum_order_and_coefficients_match_the_reference_combine(terms):
    s = PauliSum(tuple(terms))
    assert term_bits(s.terms) == term_bits(reference_combine(terms))
    assert [t.word for t in s.terms] == sorted(t.word for t in s.terms)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(loose_terms(), loose_terms())
@example([T(1.0, "Z1 Z2 Y5"), T(1.0, "Z4 Z1 X5")],
         [T(1.0, "Z2 Z3 X5"), T(1.0, "Z3 Z4 Y5")])  # the cell's groupings cancel
def test_commutator_matches_the_reference(a_terms, b_terms):
    a, b = PauliSum(tuple(a_terms)), PauliSum(tuple(b_terms))
    assert term_bits(commutator(a, b).terms) == term_bits(reference_commutator(a, b))
    for ta in a_terms[:2]:
        for tb in b_terms[:2]:
            assert (term_bits(commutator(ta, tb).terms)
                    == term_bits(reference_commutator(ta, tb)))


# ---------------------------------------------------------------------------
# the symplectic core against the Kronecker-product oracle

@st.composite
def gapped_ids(draw, max_qubits=6):
    """Ascending qubit ids starting at 0 with gaps of 1 to 4."""
    ids = [0]
    for gap in draw(st.lists(st.integers(1, 4), max_size=max_qubits - 1)):
        ids.append(ids[-1] + gap)
    return ids


@st.composite
def words(draw, ids, coeffs=(1.0, -1.0, 2.0, 0.5j, 1 - 2j)):
    """A term and its oracle matrix on ``ids`` in the given order."""
    letters = {q: l for q in ids if (l := draw(st.sampled_from("IXYZ"))) != "I"}
    coeff = draw(st.sampled_from(coeffs))
    term = PauliTerm.from_letters(coeff, letters)
    return term, coeff * dense_pauli_word(letters, ids)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_symplectic_core_matches_dense_oracle(data):
    order = data.draw(gapped_ids().flatmap(st.permutations))
    (a, da), (b, db) = data.draw(words(order)), data.draw(words(order))
    assert np.array_equal(PauliSum.of(a).matrix(order), da)
    assert np.allclose(PauliSum.of(a * b).matrix(order), da @ db, atol=1e-12)
    dense_comm = da @ db - db @ da
    assert words_commute([(a.x, a.z)], [(b.x, b.z)]) == np.allclose(dense_comm, 0, atol=1e-12)
    assert np.allclose(commutator(a, b).matrix(order), dense_comm, atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_stacked_matrices_match_the_dense_oracle(data):
    # sums of up to three words, each on its own order of the same qubits,
    # converted as one stack
    ids = data.draw(gapped_ids(max_qubits=4))
    sums, orders, want = [], [], []
    for _ in range(data.draw(st.integers(1, 4))):
        order = data.draw(st.permutations(ids))
        drawn = [data.draw(words(order)) for _ in range(data.draw(st.integers(0, 3)))]
        sums.append(PauliSum(tuple(t for t, _ in drawn)))
        orders.append(order)
        want.append(sum((m for _, m in drawn), np.zeros((2 ** len(ids),) * 2, dtype=complex)))
    got = PauliSum.matrices(sums, orders)
    assert got.shape == (len(sums),) + (2 ** len(ids),) * 2
    for g, w, s, order in zip(got, want, sums, orders):
        assert np.allclose(g, w, rtol=0.0, atol=1e-12)
        assert np.array_equal(g, s.matrix(order))
    with pytest.raises(ValueError, match="same number of qubits"):
        PauliSum.matrices(sums[:1] * 2, [ids, ids + [99]])


def assert_terms_match_composition_kron(model):
    comp = model.site_composition
    for t in model.terms:
        op = model.term_operator(t)
        qubits = [q for site in op.support for q in comp[site]]
        want = sum(u.coeff * dense_pauli_word(u.letters, qubits) for u in t.terms)
        assert np.allclose(op.matrix, want, atol=1e-12)


def test_merged_tiling_term_operators_follow_composition_order():
    assert_terms_match_composition_kron(families.tiling_model(1, 2, merged=True))


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 3), (3, 3), (8, 8)])
def test_merged_tiling_is_the_quotient_of_the_fine_tiling(shape):
    got = families.tiling_model(*shape, beta=0.7, merged=True)
    want = merged_tiling_reference(*shape, beta=0.7)
    assert got.graph == want.graph and got.space == want.space
    assert got.site_composition == want.site_composition
    assert got.terms == want.terms
    assert term_bits([t for s in got.terms for t in s.terms]) == \
        term_bits([t for s in want.terms for t in s.terms])
    assert got == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_composite_term_operators_follow_composition_order(data):
    qubits = data.draw(gapped_ids().flatmap(st.permutations))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(qubits) - 1), max_size=2))
                  if len(qubits) > 1 else [])
    chunks = [qubits[i:j] for i, j in zip([0] + cuts, cuts + [len(qubits)])]
    comp = {10 + k: tuple(chunk) for k, chunk in enumerate(chunks)}
    sites = sorted(comp)
    graph = Graph.from_edges([(u, v) for u in sites for v in sites if u < v],
                             vertices=sites)
    space = SiteSpace.from_dims({s: 2 ** len(qs) for s, qs in comp.items()})
    terms = tuple(PauliSum(tuple(data.draw(words(qubits, (1.0, -1.0, 2.0)))[0]
                                 for _ in range(2)))
                  for _ in range(3))
    model = ModelInstance(space, graph, terms, site_composition=comp)
    assert_terms_match_composition_kron(model)
    imaginary = PauliTerm.from_letters(0.5j, {qubits[0]: "X"})
    with pytest.raises(NonHermitianError):
        ModelInstance(space, graph, (imaginary,), site_composition=comp)
