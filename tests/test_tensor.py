import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    X2, Y2, Z2, embed_kron, expm_herm, expm_taylor, ptrace_indexsum, random_density,
    random_hermitian,
)
from qmn.errors import (
    DimensionMismatchError, NonHermitianError, PositivityViolationError, UnknownSiteError,
)
from qmn.tensor import (
    SiteSpace, SupportedOperator, check_hermitian, embed_sum, hs_norm, kron, logm_pd,
    op_schmidt, partial_trace,
)


def test_site_space_basic():
    sp = SiteSpace.qubits(3)
    assert sp.sites == (1, 2, 3)
    assert sp.total_dim == 8
    assert sp.dim(2) == 2
    assert sp.axis(3) == 2
    assert 2 in sp and 7 not in sp


def test_site_space_mixed_dims():
    sp = SiteSpace.from_dims({4: 3, 1: 2, 9: 4})
    assert sp.sites == (1, 4, 9)
    assert sp.dims == (2, 3, 4)
    assert sp.total_dim == 24
    assert sp.subspace([9, 1]).dims == (2, 4)


def test_site_space_rejects_duplicates():
    with pytest.raises(UnknownSiteError):
        SiteSpace((1, 1), (2, 2))
    with pytest.raises(UnknownSiteError):
        sp = SiteSpace.qubits(2)
        sp.axis(5)


def test_kron_matches_numpy():
    rng = np.random.default_rng(7)
    a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
    assert np.allclose(kron(a, b, c), np.kron(np.kron(a, b), c))
    assert np.allclose(kron(), np.eye(1))


def test_embed_middle_site():
    sp = SiteSpace.qubits(3)
    m = embed_sum((SupportedOperator((2,), Z2),), sp)
    assert np.allclose(m, np.kron(np.kron(np.eye(2), Z2), np.eye(2)))


def test_embed_gapped_support_and_unsorted_rejected():
    # a support must be listed sorted; one with a gap embeds with identity
    # on the skipped site
    sp = SiteSpace.qubits(3)
    with pytest.raises(UnknownSiteError):
        SupportedOperator((3, 1), np.kron(X2, Z2))
    op_13 = SupportedOperator((1, 3), np.kron(Z2, X2))
    assert np.allclose(embed_sum((op_13,), sp), np.kron(np.kron(Z2, np.eye(2)), X2))


def test_embed_mixed_dims_against_indexsum():
    rng = np.random.default_rng(3)
    sp = SiteSpace.from_dims({1: 2, 2: 3, 3: 2})
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    full = embed_sum((SupportedOperator((1, 2), m),), sp)
    # embedding then tracing the identity site recovers the operator (times dim)
    back = partial_trace(full, sp, [1, 2])
    assert np.allclose(back.matrix, 2 * m)


def test_embed_empty_support_is_scaled_identity():
    sp = SiteSpace.qubits(2)
    m = embed_sum((SupportedOperator((), np.array([[2.5]])),), sp)
    assert np.allclose(m, 2.5 * np.eye(4))


def test_embed_sum_onto_a_space_without_sites_adds_the_scalars():
    sp = SiteSpace((), ())
    assert np.array_equal(embed_sum((SupportedOperator((), [[2.0]]),), sp), [[2.0]])
    got = embed_sum([SupportedOperator((), [[2.0]]), SupportedOperator((), [[3.5]])], sp)
    assert np.array_equal(got, [[5.5]])


def test_embed_validates():
    sp = SiteSpace.qubits(2)
    with pytest.raises(UnknownSiteError):
        embed_sum((SupportedOperator((5,), Z2),), sp)
    with pytest.raises(DimensionMismatchError):
        embed_sum((SupportedOperator((1,), np.eye(3)),), sp)


def test_partial_trace_against_indexsum_oracle():
    rng = np.random.default_rng(11)
    dims = [2, 3, 2, 2]
    sp = SiteSpace(tuple(range(1, 5)), tuple(dims))
    d = sp.total_dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for keep_sites in ([1], [2], [1, 3], [2, 4], [1, 2, 3, 4], []):
        got = partial_trace(m, sp, keep_sites)
        keep_axes = [sp.axis(s) for s in keep_sites]
        want = ptrace_indexsum(m, dims, keep_axes)
        assert got.support == tuple(sorted(keep_sites))
        assert np.allclose(got.matrix, want), keep_sites


def test_partial_trace_of_embedding_scales_identity():
    sp = SiteSpace.qubits(3)
    full = embed_sum((SupportedOperator((1, 3), np.kron(X2, Y2)),), sp)
    red = partial_trace(full, sp, [1, 3])
    assert np.allclose(red.matrix, 2 * np.kron(X2, Y2))
    assert np.allclose(partial_trace(full, sp, [2]).matrix, np.zeros((2, 2)))


@st.composite
def kernel_cases(draw):
    """A space of 1-5 gapped site ids with dims in {2, 3, 4} (total at most
    96), one to three random operators on drawn supports, a random
    full-space matrix and a kept set; supports and kept sets may be empty
    or the whole space."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True))
    dims, total = [], 1
    for left in reversed(range(len(ids))):
        d = draw(st.sampled_from([d for d in (2, 3, 4) if total * d * 2 ** left <= 96]))
        dims.append(d)
        total *= d
    space = SiteSpace(tuple(sorted(ids)), tuple(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def matrix(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    subsets = st.sets(st.sampled_from(space.sites)).map(sorted)
    ops = []
    for support in draw(st.lists(subsets, min_size=1, max_size=3)):
        ops.append(SupportedOperator(
            tuple(support), matrix(math.prod(space.dim(s) for s in support))))
    return space, ops, matrix(total), draw(subsets)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_cases())
def test_embed_and_partial_trace_match_references_and_are_adjoint(case):
    space, ops, m, keep = case
    refs = [embed_kron(op, space) for op in ops]
    assert np.array_equal(embed_sum((ops[0],), space), refs[0])
    assert np.array_equal(embed_sum(ops, space), sum(refs))

    got = partial_trace(m, space, keep)
    want = ptrace_indexsum(m, list(space.dims), [space.axis(s) for s in keep])
    assert got.support == tuple(keep)
    assert np.allclose(got.matrix, want, rtol=0, atol=1e-12 * hs_norm(m))

    # Tr(embed(A) M) = Tr(A partial_trace(M, supp A))
    a = ops[0]
    lhs = np.sum(refs[0] * m.T)
    rhs = np.sum(a.matrix * partial_trace(m, space, a.support).matrix.T)
    assert abs(lhs - rhs) <= 1e-12 * hs_norm(refs[0]) * hs_norm(m)


def test_logm_pd_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        logm_pd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_check_hermitian_refuses_non_finite_entries():
    with pytest.raises(NonHermitianError, match="= nan exceeds"):
        check_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    infinite = np.array([[1.0, np.inf], [np.inf, 1.0]])
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    # the first failing matrix of a stack is the one named
    with pytest.raises(NonHermitianError, match="= nan exceeds"):
        check_hermitian(np.stack([np.eye(2), infinite, skew]))
    with pytest.raises(NonHermitianError, match="= 1.000e[+]00 exceeds"):
        check_hermitian(np.stack([np.eye(2), skew, infinite]))
    # an inf whose mirror entry is finite leaves an inf defect against an inf
    # scale, which used to pass the relative test
    for m in ([[1.0, np.inf], [0.0, 1.0]], [[1.0, 0.0], [-np.inf + 1j, 1.0]]):
        with pytest.raises(NonHermitianError, match="= inf exceeds"):
            check_hermitian(np.array(m))
    # an exactly Hermitian stack needs no scale, and comes back as it went in
    exact = np.stack([np.eye(2), np.array([[2.0, 1j], [-1j, 0.5]])])
    assert np.array_equal(check_hermitian(exact), exact)
    assert check_hermitian(np.zeros((3, 0, 0))).shape == (3, 0, 0)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (64, 64), (65, 65), (2, 3, 130, 130)])
def test_check_hermitian_output_bits_equal_the_symmetrized_input(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    exact = (a + a.mT.conj()) / 2
    noisy = exact + 1e-14 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    real = a.real + a.real.mT + 1e-14 * rng.normal(size=shape)
    for m in (exact, noisy, real, np.asfortranarray(noisy), noisy.mT):
        got = check_hermitian(m)
        want = (m + m.mT.conj()) / 2
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert check_hermitian(real).dtype == np.float64


def test_expm_matches_taylor_oracle():
    rng = np.random.default_rng(13)
    for d in (2, 8, 32):
        h = random_hermitian(rng, d)
        assert np.allclose(expm_herm(h), expm_taylor(h), atol=1e-10)


def test_exp_log_roundtrip():
    rng = np.random.default_rng(17)
    for d in (2, 16, 64):
        h = random_hermitian(rng, d)
        h *= 4.0 / np.max(np.abs(np.linalg.eigvalsh(h)))
        back = logm_pd(expm_herm(h))
        assert hs_norm(back - h) <= 1e-10 * max(1.0, hs_norm(h))


def test_log_positivity_floor():
    with pytest.raises(PositivityViolationError) as exc:
        logm_pd(np.diag([1.0, 0.0]))
    assert exc.value.min_eigenvalue is not None
    with pytest.raises(PositivityViolationError):
        logm_pd(np.diag([1.0, 1e-14]))
    # a projector-like state is rejected rather than clipped
    rng = np.random.default_rng(23)
    rho = random_density(rng, 8, rank=3)
    with pytest.raises(PositivityViolationError):
        logm_pd(rho)


def test_op_schmidt_single_term():
    # sigma_z (x) sigma_z across the cut: one weight, normalized factors
    sp = SiteSpace.qubits(2)
    op = SupportedOperator((1, 2), np.kron(Z2, Z2))
    [split] = op_schmidt([(op, [1])], sp)
    assert split.rank == 1
    w, f, g = split.weights[0], split.left[0], split.right[0]
    assert np.isclose(w, 2.0)
    assert np.isclose(abs(np.vdot(f, Z2 / np.sqrt(2))), 1.0)
    assert np.isclose(abs(np.vdot(g, Z2 / np.sqrt(2))), 1.0)


def test_op_schmidt_two_terms():
    sp = SiteSpace.qubits(2)
    op = SupportedOperator((1, 2), np.kron(Z2, Z2) + np.kron(X2, X2))
    [split] = op_schmidt([(op, [1])], sp)
    assert split.rank == 2
    assert np.allclose(split.weights[:split.rank], [2.0, 2.0])


def test_op_schmidt_reconstructs_and_is_orthonormal():
    rng = np.random.default_rng(37)
    sp = SiteSpace.from_dims({1: 2, 2: 3, 3: 2})
    d = sp.total_dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op = SupportedOperator((1, 2, 3), m)
    [split] = op_schmidt([(op, [1, 3])], sp)
    terms = [(SupportedOperator((1, 3), f), SupportedOperator((2,), g), w)
             for w, f, g in zip(*split)][:split.rank]
    rebuilt = np.zeros((d, d), dtype=complex)
    for f, g, w in terms:
        assert f.support == (1, 3) and g.support == (2,)
        # operator axes follow sorted site order; re-embed to compare
        rebuilt += w * embed_sum((f,), sp) @ embed_sum((g,), sp)
    assert np.allclose(rebuilt, m, atol=1e-10)
    for i, (f1, g1, _) in enumerate(terms):
        for j, (f2, g2, _) in enumerate(terms):
            want = 1.0 if i == j else 0.0
            assert np.isclose(np.vdot(f1.matrix, f2.matrix), want, atol=1e-10)
            assert np.isclose(np.vdot(g1.matrix, g2.matrix), want, atol=1e-10)


def test_op_schmidt_drops_tiny_weights():
    sp = SiteSpace.qubits(2)
    op = SupportedOperator((1, 2), np.kron(Z2, Z2) + 1e-13 * np.kron(X2, X2))
    assert op_schmidt([(op, [1])], sp)[0].rank == 1


def test_op_schmidt_rejects_bad_cut():
    sp = SiteSpace.qubits(2)
    op = SupportedOperator((1, 2), np.eye(4))
    with pytest.raises(UnknownSiteError):
        op_schmidt([(op, [])], sp)
    with pytest.raises(UnknownSiteError):
        op_schmidt([(op, [1, 2])], sp)
