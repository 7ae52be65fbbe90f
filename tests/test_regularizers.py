"""Sparsity weighting, similarity weights, simplex projection, penalty terms."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from hsunmix.errors import DegenerateDataError
from hsunmix.regularizers import (
    build_neighborhood,
    estimate_sparsity_weight,
    neighbor_weights,
    project_simplex,
    project_simplex_columns,
    sparsity_gradient,
    sparsity_norm,
    spectral_angle_cos,
)
from hsunmix.types import ClusterAssignment


def simplex_projection_oracle(v):
    """Brute-force projection: try every support set, keep the feasible
    candidate closest to v. Exponential in dimension, exact for small c."""
    c = v.size
    best, best_d = None, np.inf
    for r in range(1, c + 1):
        for support in itertools.combinations(range(c), r):
            x = np.zeros(c)
            idx = list(support)
            x[idx] = v[idx] + (1.0 - v[idx].sum()) / r
            if np.all(x >= -1e-12):
                d = np.sum((np.maximum(x, 0.0) - v) ** 2)
                if d < best_d:
                    best_d, best = d, np.maximum(x, 0.0)
    return best


class TestEstimateSparsityWeight:
    def test_constant_rows_give_zero(self):
        Y = np.ones((2, 4))
        assert estimate_sparsity_weight(Y) == 0.0

    def test_one_hot_rows_hand_value(self):
        Y = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        expected = (1 / np.sqrt(2)) * 2 * (2 - 1) / np.sqrt(3)
        assert np.isclose(estimate_sparsity_weight(Y), expected, rtol=0, atol=1e-15)
        assert np.isclose(expected, 0.816496580927726, rtol=0, atol=1e-15)

    def test_single_pixel_gives_zero(self):
        assert estimate_sparsity_weight(np.array([[3.0], [1.0]])) == 0.0

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateDataError, match="all-zero band row"):
            estimate_sparsity_weight(np.array([[0.0, 0.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_positive_within_bound(self, seed):
        rng = np.random.default_rng(seed)
        L, N = rng.integers(2, 30), rng.integers(2, 50)
        Y = rng.random((L, N)) + 0.01
        lam = estimate_sparsity_weight(Y)
        bound = np.sqrt(L) * (np.sqrt(N) - 1) / np.sqrt(N - 1)
        assert 0.0 <= lam <= bound
        # per-row ratio stays inside [1, sqrt(N)]
        ratios = np.abs(Y).sum(axis=1) / np.linalg.norm(Y, axis=1)
        assert np.all(ratios >= 1.0 - 1e-12)
        assert np.all(ratios <= np.sqrt(N) + 1e-12)


class TestSpectralAngleCos:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, 1.2, 0.5])
        assert spectral_angle_cos(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_is_zero(self):
        assert spectral_angle_cos(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_45_degrees(self):
        got = spectral_angle_cos(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            spectral_angle_cos(np.zeros(3), np.ones(3))


def row_weights(W, k):
    """The stored weights of row k of the CSR matrix W, in column order."""
    return W.data[W.indptr[k]:W.indptr[k + 1]]


class TestNeighborWeights:
    def test_single_neighbor_gets_weight_one(self):
        Y = np.array([[1.0, 2.0], [0.5, 1.5]])
        nbhd = neighbor_weights(Y, build_neighborhood(2, 1))
        assert row_weights(nbhd, 0).tolist() == [1.0]
        assert row_weights(nbhd, 1).tolist() == [1.0]

    def test_hand_built_similarities(self):
        # middle pixel of a 1x3 image; neighbors at cosine 0.8 and 0.2
        Y = np.array([[0.8, 1.0, 0.2], [0.6, 0.0, np.sqrt(0.96)]])
        nbhd = neighbor_weights(Y, build_neighborhood(3, 1))
        w = row_weights(nbhd, 1)
        assert np.allclose(w, [0.8, 0.2], rtol=0, atol=1e-12)

    def test_identical_neighbors_share_uniformly(self):
        Y = np.tile(np.array([[1.0], [2.0]]), (1, 9))
        nbhd = neighbor_weights(Y, build_neighborhood(3, 3))
        assert np.allclose(row_weights(nbhd, 4), np.full(8, 1 / 8), rtol=0, atol=1e-15)

    def test_weights_normalize_per_pixel(self):
        rng = np.random.default_rng(3)
        Y = rng.random((5, 12)) + 0.05
        nbhd = neighbor_weights(Y, build_neighborhood(4, 3))
        for k in range(12):
            assert np.isclose(row_weights(nbhd, k).sum(), 1.0, rtol=0, atol=1e-12)

    def test_zero_pixel_rejected(self):
        Y = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateDataError, match="zero-spectrum pixel"):
            neighbor_weights(Y, build_neighborhood(2, 1))

    def test_neighborless_last_pixel_keeps_an_empty_row(self):
        # pixels 0 and 1 are neighbors; pixel 2 has none
        adjacency = csr_matrix((np.ones(2), [1, 0], [0, 1, 2, 2]), shape=(3, 3))
        Y = np.array([[1.0, 2.0, 3.0], [0.5, 1.5, 1.0]])
        W = neighbor_weights(Y, adjacency)
        assert W.indptr.tolist() == [0, 1, 2, 2]
        assert W.indices.tolist() == [1, 0]
        assert W.data.tolist() == [1.0, 1.0]

    def test_orthogonal_neighbors_degenerate(self):
        # all similarities are exactly zero: normalization is impossible
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateDataError):
            neighbor_weights(Y, build_neighborhood(2, 1))

    def test_cluster_labels_must_cover_every_pixel(self):
        Y = np.array([[1.0, 2.0, 3.0], [0.5, 1.5, 1.0]])
        clusters = ClusterAssignment(np.zeros(2, dtype=int), np.ones((1, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="clusters do not match"):
            neighbor_weights(Y, build_neighborhood(3, 1), clusters)

    def test_peak_memory_stays_below_four_images(self):
        # the dot products gather N stored entries at a time, never L x nnz
        rng = np.random.default_rng(8)
        Y = rng.random((100, 50 * 50)) + 0.05
        adjacency = build_neighborhood(50, 50)
        tracemalloc.start()
        try:
            neighbor_weights(Y, adjacency)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * Y.nbytes, f"peak {peak / Y.nbytes:.1f} x the image"


class TestProjectSimplex:
    def test_feasible_point_returned_unchanged(self):
        v = np.array([0.2, 0.3, 0.5])
        out = project_simplex(v)
        assert np.array_equal(out, v)

    def test_symmetric_shift(self):
        assert np.array_equal(project_simplex(np.array([0.4, 0.4])), [0.5, 0.5])

    def test_clipping_case(self):
        assert np.array_equal(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(0)
        V = rng.normal(size=(5, 300))
        P = project_simplex_columns(V)
        assert np.array_equal(project_simplex_columns(P), P)

    def test_columns_land_on_simplex(self):
        rng = np.random.default_rng(1)
        V = rng.normal(scale=3.0, size=(6, 500))
        P = project_simplex_columns(V)
        assert np.all(P >= 0.0)
        assert np.allclose(P.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_huge_finite_columns_keep_the_unit_sum(self):
        # in place, 1 - 1e300 rounds so the first rank fails and tau is x/0
        V = np.array([[1e300, -1e300, 1e17, 0.5], [0.0, -1e300, 1e17 - 64, -1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = project_simplex_columns(V)
        assert np.array_equal(P, [[1.0, 0.5, 1.0, 1.0], [0.0, 0.5, 0.0, 0.0]])

    @pytest.mark.parametrize("c", [2, 3, 4, 5, 6])
    def test_matches_enumeration_oracle(self, c):
        rng = np.random.default_rng(c)
        for _ in range(50):
            v = rng.normal(scale=2.0, size=c)
            got = project_simplex(v)
            want = simplex_projection_oracle(v)
            assert np.max(np.abs(got - want)) < 1e-9


class TestSparsityTerms:
    def test_norm_q1_is_l1(self):
        s = np.array([0.3, 0.7])
        assert sparsity_norm(s, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_norm_q_half_hand_value(self):
        # (1 + 1)^2 = 4 for s = [1, 1]
        assert sparsity_norm(np.array([1.0, 1.0]), 0.5) == pytest.approx(4.0, rel=1e-10)

    def test_gradient_q1_is_sign(self):
        g = sparsity_gradient(np.array([0.3, 0.7]), 1.0)
        assert np.allclose(g, [1.0, 1.0], rtol=0, atol=1e-6)

    def test_gradient_q1_is_one_at_zero_entries(self):
        # the l1 gradient on the nonnegative orthant; a 0 at zero entries
        # would lift them against the rest after the simplex projection
        g = sparsity_gradient(np.array([0.0, 0.3, 0.7]), 1.0)
        assert np.array_equal(g, [1.0, 1.0, 1.0])

    def test_gradient_q_half_hand_value(self):
        g = sparsity_gradient(np.array([1.0, 1.0]), 0.5)
        assert np.allclose(g, [2.0, 2.0], rtol=1e-9, atol=0)

    def test_gradient_finite_at_zero(self):
        g = sparsity_gradient(np.array([0.0, 0.5]), 0.5)
        assert np.all(np.isfinite(g))

    def test_matrix_input_matches_columns(self):
        rng = np.random.default_rng(7)
        S = rng.random((4, 6)) + 0.1
        G = sparsity_gradient(S, 0.5)
        for j in range(6):
            assert np.allclose(G[:, j], sparsity_gradient(S[:, j], 0.5), rtol=1e-14)

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_gradient_matches_finite_differences(self, q):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(20):
            s = rng.random(5) + 0.2
            g = sparsity_gradient(s, q)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd = (sparsity_norm(s + e, q) - sparsity_norm(s - e, q)) / (2 * h)
                assert abs(g[i] - fd) / max(abs(fd), 1e-12) < 1e-5
