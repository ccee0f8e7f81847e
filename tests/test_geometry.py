import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdconn import (
    SPD_EIG_FLOOR,
    InvalidInputError,
    NearSingularError,
    NumericRangeError,
    TangentVector,
    clip_spd,
    geodesic_distance,
    spd_expm,
    spd_logm,
    spd_sqrtm,
    symmetrize,
    tangent_inverse_map,
    tangent_map,
    validate_spd,
    vec_dim,
    vec_embed,
    vec_unembed,
)
from helpers import random_invertible, random_spd, random_symmetric


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


# strategies: build random matrices from drawn seeds so shrinking stays sane
seeds = st.integers(0, 2**31 - 1)
dims = st.integers(2, 8)


class TestMatrixFunctions:
    def test_logm_identity_is_zero(self):
        assert np.allclose(spd_logm(np.eye(2)), 0.0, atol=1e-15)

    def test_logm_diagonal(self):
        out = spd_logm(np.diag([np.e, 1.0]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_logm_2x2_hand_eigendecomposition(self):
        # eigenvalues {3, 1} with eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        expected = v @ np.diag([np.log(3.0), 0.0]) @ v.T
        out = spd_logm(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(out, expected, atol=1e-14)
        assert np.allclose(out, np.log(3.0) / 2.0, atol=1e-14)

    def test_logm_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            spd_logm(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_logm_rejects_indefinite(self):
        with pytest.raises(NearSingularError):
            spd_logm(np.diag([1.0, -1.0]))

    def test_expm_zero_is_identity(self):
        assert np.allclose(spd_expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_expm_diagonal(self):
        assert np.allclose(
            spd_expm(np.diag([1.0, 0.0])), np.diag([np.e, 1.0]), atol=1e-14
        )

    def test_expm_overflow(self):
        with pytest.raises(NumericRangeError):
            spd_expm(np.diag([800.0, 0.0]))

    @given(seeds, dims)
    def test_exp_log_roundtrip(self, seed, n):
        a = random_spd(np.random.default_rng(seed), n, cond=1e6)
        assert rel_err(spd_expm(spd_logm(a)), a) < 1e-10

    def test_sqrtm_diagonal(self):
        root, inv_root = spd_sqrtm(np.diag([4.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-14)
        assert np.allclose(inv_root, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_sqrtm_identity(self):
        root, inv_root = spd_sqrtm(np.eye(5))
        assert np.allclose(root, np.eye(5), atol=1e-15)
        assert np.allclose(inv_root, np.eye(5), atol=1e-15)

    @given(seeds, dims)
    def test_sqrtm_reconstruction(self, seed, n):
        a = random_spd(np.random.default_rng(seed), n, cond=1e4)
        root, inv_root = spd_sqrtm(a)
        assert rel_err(root @ root, a) < 1e-10
        assert np.linalg.norm(inv_root @ a @ inv_root - np.eye(n)) < 1e-10

    def test_sqrtm_near_singular(self):
        with pytest.raises(NearSingularError):
            spd_sqrtm(np.diag([1.0, 1e-14]))


class TestVecEmbedding:
    def test_n2_ordering(self):
        a = 0.7
        w = np.array([[1.0, a], [a, 2.0]])
        v = vec_embed(w)
        assert np.allclose(v, [np.sqrt(2.0) * a, 1.0, 2.0])

    def test_isometry_all_ones(self):
        w = np.ones((2, 2))
        v = vec_embed(w)
        assert np.allclose(v, [np.sqrt(2.0), 1.0, 1.0])
        assert np.isclose(np.sum(v**2), 4.0)

    def test_unembed_zero(self):
        assert np.array_equal(vec_unembed(np.zeros(3), 2), np.zeros((2, 2)))

    def test_unembed_hand_case(self):
        w = vec_unembed(np.array([np.sqrt(2.0), 1.0, 2.0]), 2)
        assert np.allclose(w, [[1.0, 1.0], [1.0, 2.0]])

    def test_unembed_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            vec_unembed(np.zeros(4), 2)

    @given(seeds, dims)
    def test_bijection(self, seed, n):
        # off-diagonal sqrt(2) scaling rounds once each way: 1-ulp roundtrip,
        # diagonal entries are exact
        v = np.random.default_rng(seed).standard_normal(vec_dim(n))
        back = vec_embed(vec_unembed(v, n))
        np.testing.assert_allclose(back, v, rtol=5e-16, atol=0)
        assert np.array_equal(back[-n:], v[-n:])

    @given(seeds, dims)
    def test_matrix_roundtrip(self, seed, n):
        w = random_symmetric(np.random.default_rng(seed), n)
        back = vec_unembed(vec_embed(w), n)
        np.testing.assert_allclose(back, w, rtol=5e-16, atol=0)
        assert np.array_equal(np.diag(back), np.diag(w))

    @given(seeds, dims)
    def test_isometry(self, seed, n):
        w = random_symmetric(np.random.default_rng(seed), n, scale=3.0)
        assert abs(np.linalg.norm(vec_embed(w)) - np.linalg.norm(w)) <= 1e-12 * max(
            1.0, np.linalg.norm(w)
        )

    def test_stacked_embedding(self):
        stack = np.stack([np.eye(3), 2.0 * np.eye(3)])
        v = vec_embed(stack)
        assert v.shape == (2, 6)
        assert np.allclose(vec_unembed(v, 3), stack)


class TestTangentMaps:
    def test_map_to_self_is_zero(self, rng):
        a = random_spd(rng, 4)
        assert tangent_map(a, a).norm < 1e-12

    def test_map_at_identity_is_logm(self, rng):
        b = random_spd(rng, 5)
        assert np.allclose(tangent_map(np.eye(5), b).matrix, spd_logm(b), atol=1e-12)

    def test_commuting_hand_case(self):
        out = tangent_map(np.diag([4.0, 1.0]), np.diag([8.0, np.e]))
        assert np.allclose(out.matrix, np.diag([np.log(2.0), 1.0]), atol=1e-14)

    def test_inverse_at_zero(self, rng):
        a = random_spd(rng, 3)
        assert np.allclose(tangent_inverse_map(a, np.zeros((3, 3))), a, atol=1e-12)

    def test_inverse_at_identity_is_expm(self, rng):
        w = random_symmetric(rng, 4)
        assert np.allclose(
            tangent_inverse_map(np.eye(4), w), spd_expm(w), atol=1e-12
        )

    @given(seeds, dims)
    def test_roundtrip(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_spd(rng, n, cond=1e4), random_spd(rng, n, cond=1e4)
        assert rel_err(tangent_inverse_map(a, tangent_map(a, b)), b) < 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            tangent_map(random_spd(rng, 3), random_spd(rng, 4))

    def test_tangent_vector_vec_matches_matrix(self, rng):
        w = TangentVector(random_symmetric(rng, 4))
        assert np.isclose(np.linalg.norm(w.vec), np.linalg.norm(w.matrix))
        np.testing.assert_allclose(
            vec_unembed(w.vec, 4), w.matrix, rtol=5e-16, atol=0
        )


class TestGeodesicDistance:
    def test_self_distance_zero(self, rng):
        a = random_spd(rng, 4)
        assert geodesic_distance(a, a) < 1e-12

    def test_scalar_case(self):
        assert np.isclose(geodesic_distance(np.diag([4.0, 1.0]), np.eye(2)), np.log(4.0))

    @given(seeds, st.integers(2, 6))
    def test_symmetry_and_affine_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_spd(rng, n), random_spd(rng, n)
        g = random_invertible(rng, n)
        d = geodesic_distance(a, b)
        assert abs(d - geodesic_distance(b, a)) <= 1e-8 * max(1.0, d)
        d_cong = geodesic_distance(g @ a @ g.T, g @ b @ g.T)
        assert abs(d - d_cong) <= 1e-8 * max(1.0, d)

    @given(seeds, st.integers(2, 5))
    def test_metric_axioms_on_triples(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b, c = (random_spd(rng, n) for _ in range(3))
        dab, dbc, dac = (
            geodesic_distance(a, b),
            geodesic_distance(b, c),
            geodesic_distance(a, c),
        )
        assert dab >= 0 and dbc >= 0 and dac >= 0
        assert dac <= dab + dbc + 1e-8


class TestValidation:
    def test_symmetrize(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(symmetrize(m), [[1.0, 1.0], [1.0, 1.0]])

    def test_validate_spd_rejects_floor(self):
        with pytest.raises(NearSingularError):
            validate_spd(np.diag([1.0, 5e-11]))

    def test_validate_spd_accepts_above_floor(self):
        validate_spd(np.diag([1.0, 1e-9]))

    def test_validate_spd_floor_is_per_matrix(self):
        # each matrix passes alone, so the stack passes whatever their scales
        stack = np.stack([np.eye(3), 1e-12 * np.eye(3)])
        np.testing.assert_array_equal(validate_spd(stack), stack)
        np.testing.assert_allclose(spd_logm(stack)[1], np.log(1e-12) * np.eye(3))
        with pytest.raises(NearSingularError):
            validate_spd(np.stack([np.eye(2), np.diag([1.0, 5e-11])]))


class TestClip:
    def test_clip_keeps_cone_members(self):
        m = np.diag([2.0, 1.0])
        out, clipped = clip_spd(m)
        assert clipped is False
        np.testing.assert_array_equal(out, m)

    def test_clip_raises_floor(self):
        out, clipped = clip_spd(np.diag([1.0, -0.5]))
        assert clipped is True
        np.testing.assert_allclose(out, np.diag([1.0, 2.0 * SPD_EIG_FLOOR]), atol=1e-15)
        validate_spd(out)

    def test_clip_floor_is_per_matrix(self):
        stack = np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([1e-6, -1e-6, 1e-12])])
        out, clipped = clip_spd(stack)
        assert clipped.tolist() == [False, True]
        np.testing.assert_array_equal(out[0], stack[0])
        # the floor of the second matrix follows its own largest eigenvalue
        np.testing.assert_allclose(
            np.diag(out[1]), [1e-6, 2.0 * SPD_EIG_FLOOR * 1e-6, 1e-12], rtol=1e-9, atol=0
        )
        validate_spd(out)
