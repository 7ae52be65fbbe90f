"""Sparsity weighting, similarity weights, simplex projection, penalty terms."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from pixel_oracle import masked_neighbors
from sort_projection import SHIFT_BOUND, sort_projection

from hsunmix import regularizers
from hsunmix.errors import DegenerateDataError, NumericalFailureError
from hsunmix.regularizers import (
    SPARSITY_GUARD,
    _michelot_threshold,
    build_neighborhood,
    estimate_sparsity_weight,
    neighbor_weights,
    project_simplex,
    project_simplex_columns,
    sparsity_gradient,
    sparsity_norm,
)
from hsunmix.synth import bundled_library, generate_synthetic
from hsunmix.types import ClusterAssignment, HyperspectralImage


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


def image_of(Y):
    """``Y`` as a one-row image, the shape the weight does not depend on."""
    return HyperspectralImage(Y, Y.shape[1], 1)


def one_pass_sparsity_weight(arr):
    """``estimate_sparsity_weight`` as one whole-image pass."""
    n_bands, n_pixels = arr.shape
    l1 = np.abs(arr).sum(axis=1)
    l2 = np.sqrt((arr * arr).sum(axis=1))
    return float(max(((np.sqrt(n_pixels) - l1 / l2) / np.sqrt(n_pixels - 1)).sum() / np.sqrt(n_bands), 0.0))


class TestEstimateSparsityWeight:
    @pytest.mark.parametrize("seed", range(3))
    def test_band_row_blocks_give_the_bits_of_one_pass(self, monkeypatch, seed):
        Y = generate_synthetic(bundled_library(), 6, 37 + seed, 23, snr_db=25.0, seed=seed).Y
        want = one_pass_sparsity_weight(Y.data)
        assert estimate_sparsity_weight(Y) == want
        monkeypatch.setattr(regularizers, "BLOCK_BYTES", Y.data[0].nbytes)
        assert estimate_sparsity_weight(Y) == want

    def test_no_image_sized_temporary(self):
        Y = generate_synthetic(bundled_library(), 6, 64, 64, snr_db=25.0, seed=0).Y
        tracemalloc.start()
        try:
            estimate_sparsity_weight(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * Y.data.nbytes, f"peak {peak / Y.data.nbytes:.3f} x the image"

    def test_constant_rows_give_zero(self):
        Y = np.ones((2, 4))
        assert estimate_sparsity_weight(image_of(Y)) == 0.0

    def test_one_hot_rows_hand_value(self):
        Y = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        expected = (1 / np.sqrt(2)) * 2 * (2 - 1) / np.sqrt(3)
        assert np.isclose(estimate_sparsity_weight(image_of(Y)), expected, rtol=0, atol=1e-15)
        assert np.isclose(expected, 0.816496580927726, rtol=0, atol=1e-15)

    def test_single_pixel_gives_zero(self):
        assert estimate_sparsity_weight(image_of(np.array([[3.0], [1.0]]))) == 0.0

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateDataError, match="all-zero band row"):
            estimate_sparsity_weight(image_of(np.array([[0.0, 0.0], [1.0, 2.0]])))

    def test_a_plain_array_is_refused(self):
        with pytest.raises(ValueError, match="Y must be a HyperspectralImage"):
            estimate_sparsity_weight(np.ones((2, 4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_positive_within_bound(self, seed):
        rng = np.random.default_rng(seed)
        L, N = rng.integers(2, 30), rng.integers(2, 50)
        Y = rng.random((L, N)) + 0.01
        lam = estimate_sparsity_weight(image_of(Y))
        bound = np.sqrt(L) * (np.sqrt(N) - 1) / np.sqrt(N - 1)
        assert 0.0 <= lam <= bound
        # per-row ratio stays inside [1, sqrt(N)]
        ratios = np.abs(Y).sum(axis=1) / np.linalg.norm(Y, axis=1)
        assert np.all(ratios >= 1.0 - 1e-12)
        assert np.all(ratios <= np.sqrt(N) + 1e-12)


def row_weights(W, k):
    """The weights of pixel k's grid neighbors in the planes W, in neighbor order."""
    return masked_neighbors(k, W)[1]


class TestNeighborWeights:
    def test_single_neighbor_gets_weight_one(self):
        Y = np.array([[1.0, 2.0], [0.5, 1.5]])
        nbhd = neighbor_weights(HyperspectralImage(Y, 2, 1))
        assert row_weights(nbhd, 0).tolist() == [1.0]
        assert row_weights(nbhd, 1).tolist() == [1.0]

    def test_hand_built_similarities(self):
        # middle pixel of a 1x3 image; neighbors at cosine 0.8 and 0.2
        Y = np.array([[0.8, 1.0, 0.2], [0.6, 0.0, np.sqrt(0.96)]])
        nbhd = neighbor_weights(HyperspectralImage(Y, 3, 1))
        w = row_weights(nbhd, 1)
        assert np.allclose(w, [0.8, 0.2], rtol=0, atol=1e-12)

    def test_identical_neighbors_share_uniformly(self):
        Y = np.tile(np.array([[1.0], [2.0]]), (1, 9))
        nbhd = neighbor_weights(HyperspectralImage(Y, 3, 3))
        assert np.allclose(row_weights(nbhd, 4), np.full(8, 1 / 8), rtol=0, atol=1e-15)

    def test_weights_normalize_per_pixel(self):
        rng = np.random.default_rng(3)
        Y = rng.random((5, 12)) + 0.05
        nbhd = neighbor_weights(HyperspectralImage(Y, 4, 3))
        for k in range(12):
            assert np.isclose(row_weights(nbhd, k).sum(), 1.0, rtol=0, atol=1e-12)

    def test_zero_pixel_rejected(self):
        Y = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateDataError, match="zero-spectrum pixel"):
            neighbor_weights(HyperspectralImage(Y, 2, 1))

    def test_neighborless_last_pixel_keeps_an_empty_row(self):
        # on a grid, only the one pixel of a 1x1 image has no neighbors
        W = neighbor_weights(HyperspectralImage(np.array([[1.0], [0.5]]), 1, 1))
        assert W.shape == (8, 1, 1)
        assert row_weights(W, 0).tolist() == []
        assert not W.any()

    def test_weights_lie_on_the_grid_of_the_image(self):
        rng = np.random.default_rng(4)
        W = neighbor_weights(HyperspectralImage(rng.random((3, 35)) + 0.05, 7, 5))
        grid = build_neighborhood(7, 5)
        assert W.shape == grid.shape
        assert np.all((W > 0) == (grid > 0))

    def test_orthogonal_neighbors_degenerate(self):
        # all similarities are exactly zero: normalization is impossible
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateDataError):
            neighbor_weights(HyperspectralImage(Y, 2, 1))

    def test_a_bare_array_is_refused(self):
        with pytest.raises(ValueError, match="must be a HyperspectralImage"):
            neighbor_weights(np.array([[1.0, 2.0], [0.5, 1.5]]))

    def test_cluster_labels_must_cover_every_pixel(self):
        Y = np.array([[1.0, 2.0, 3.0], [0.5, 1.5, 1.0]])
        clusters = ClusterAssignment(np.zeros(2, dtype=int), np.ones((1, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="clusters do not match"):
            neighbor_weights(HyperspectralImage(Y, 3, 1), clusters)

    def test_peak_memory_stays_below_a_quarter_of_the_image(self):
        # the dot products read shifted slices of the image in place, with no
        # gathered copy, and the pixel norms form no image-sized square: the
        # peak is the eight planes and a few pixel-length vectors, 64 + O(1)
        # bytes a pixel against the image's 8 L, about 0.14 x here at L = 100
        rng = np.random.default_rng(8)
        Y = rng.random((100, 50 * 50)) + 0.05
        image = HyperspectralImage(Y, 50, 50)
        tracemalloc.start()
        try:
            neighbor_weights(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * Y.nbytes, f"peak {peak / Y.nbytes:.2f} x the image"


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_raises(self, bad):
        V = np.full((3, 5), 0.2)
        V[1, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="1 column.*NaN or inf.*index 3"):
                project_simplex_columns(V)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e16, -1e16, 1.7e308])
    def test_a_column_past_the_bound_is_a_numerical_failure(self, bad):
        V = np.full((3, 5), 0.2)
        V[1, 3] = V[2, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="2 column.*size 1e\\+16 or more.*index 3"):
                project_simplex_columns(V, bound=1e16)
            if np.isfinite(bad):  # without a bound, a finite column lands on the simplex
                top, rest = (1.0, 0.0) if bad > 0 else (0.0, 0.5)
                assert np.array_equal(project_simplex_columns(V)[:, 3:], [[rest, rest], [top, rest], [rest, top]])
            else:
                with pytest.raises(ValueError, match="2 column.*NaN or inf.*index 3"):
                    project_simplex_columns(V)

    def test_a_column_within_the_bound_projects_as_without_it(self):
        rng = np.random.default_rng(9)
        V = rng.normal(size=(4, 200)) * 10.0 ** rng.integers(-2, 16, size=200)
        V[0, :2] = np.nextafter(1e16, 0.0), -np.nextafter(1e16, 0.0)
        guess = rng.random(V.shape) < 0.5
        assert project_simplex_columns(V, guess, bound=1e16).tobytes() == project_simplex_columns(V, guess).tobytes()


def one_drop_per_pass(c):
    """A column from which Michelot's iteration drops one entry per pass.

    Entry k sits just below the threshold of the k - 1 entries above it, and
    the slack grows with k so that dropping entry k leaves entry k - 1 above
    the next threshold.
    """
    excess = [1.0, 0.5]
    for k in range(3, c + 1):
        excess.append(sum(excess[1:]) / (k - 1) * (1.0 - 1e-8 * math.factorial(k)))
    return np.array(excess[:c]) - 1.0


def shifted_and_clamped(V):
    """Columns of V measured from their top entry and clamped at -1, as projected."""
    return np.maximum(V - V.max(axis=0), -1.0)


class TestMichelotProjection:
    """``project_simplex_columns`` against the sort-based projection it replaced."""

    @pytest.mark.parametrize("c", range(1, 11))
    def test_matches_sort_oracle_on_unit_scale_columns(self, c):
        rng = np.random.default_rng(100 + c)
        S = rng.dirichlet(np.ones(c), size=2000).T
        V = np.hstack([rng.uniform(-1.0, 1.0, size=(c, 2000)), S + 0.05 * rng.normal(size=S.shape)])
        assert np.max(np.abs(project_simplex_columns(V) - sort_projection(V))) <= 4e-16

    @pytest.mark.parametrize("c", range(1, 11))
    def test_matches_sort_oracle_within_two_ulps_of_the_column_scale(self, c):
        rng = np.random.default_rng(200 + c)
        V = rng.normal(size=(c, 3000)) * 10.0 ** rng.integers(-2, 4, size=3000)
        diff = np.abs(project_simplex_columns(V) - sort_projection(V))
        scale = np.maximum(1.0, np.abs(V).max(axis=0))
        assert np.all(diff <= 2 * np.spacing(scale))

    @pytest.mark.parametrize("c", range(1, 11))
    def test_matches_sort_oracle_on_ties_one_hots_and_shift_bound_columns(self, c):
        columns = [np.full(c, value) for value in (-2.0, 0.0, 0.3, 1.0 / c, 5.0)]
        for top, rest in ((0.7, 0.1), (0.4, -0.3), (2.0, 1.0)):
            duplicated = np.full(c, rest)
            duplicated[: max(c // 2, 1)] = top
            columns.append(duplicated)
        for height in (0.5, 1.0, 3.0):
            columns += list(height * np.eye(c))
        for bound in (SHIFT_BOUND, -SHIFT_BOUND):
            columns += [np.full(c, bound), np.r_[bound, np.linspace(-1.0, 1.0, c - 1)]]
        V = np.column_stack(columns)
        P = project_simplex_columns(V)
        assert np.max(np.abs(P - sort_projection(V))) <= 4e-16
        # a feasible column may miss the unit sum by the feasibility slack
        assert np.all(P >= 0.0) and np.allclose(P.sum(axis=0), 1.0, rtol=0, atol=64 * np.finfo(float).eps)

    @pytest.mark.parametrize("c", range(1, 11))
    def test_worst_case_stays_within_c_passes(self, c):
        # the first active set comes free from the column sum, so one entry
        # dropped per pass takes c - 1 passes, the last one confirming
        V = one_drop_per_pass(c)[:, None]
        _, passes = _michelot_threshold(shifted_and_clamped(V))
        assert c - 1 <= passes <= c
        assert np.max(np.abs(project_simplex_columns(V) - sort_projection(V))) <= 4e-16
        rng = np.random.default_rng(c)
        W = rng.normal(size=(c, 4000)) * rng.uniform(0.1, 3.0, size=4000)
        assert _michelot_threshold(shifted_and_clamped(W))[1] <= c

    @pytest.mark.parametrize("c", [2, 6, 10])
    def test_large_columns_never_lose_their_active_set(self, c):
        # in place, the mean of c nearly equal entries near 1e15 can round
        # above all of them, and near 1e12 it misses the unit sum; measured
        # from their top entry, such columns lose neither
        rng = np.random.default_rng(c)
        tops = np.array([1e12, 1e13, 1e15, 4e15, -1e15, 0.9 * SHIFT_BOUND / (2 * c * c)])
        V = np.hstack(list(np.round(tops)[:, None, None] + rng.integers(0, 4, size=(tops.size, c, 50))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = project_simplex_columns(V)
        assert np.all(P >= 0.0) and np.all(P.max(axis=0) > 0.0)
        assert np.allclose(P.sum(axis=0), 1.0, rtol=0, atol=1e-15)

    def test_column_spanning_the_float_range(self):
        # measured from its top entry, the bottom entry overflows to -inf;
        # the last column's sum overflows to -inf as well
        V = np.array([[1.7e308, 0.25, 0.25], [-1.7e308, -1.7e308, -1.7e308], [0.0, 0.0, -1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = project_simplex_columns(V)
        assert np.array_equal(P, [[1.0, 0.625, 1.0], [0.0, 0.0, 0.0], [0.0, 0.375, 0.0]])


def support_guesses(rng, P):
    """Guesses of the support of the projections P, one kind per key."""
    c, n = P.shape
    true = P > 0
    single = np.zeros((c, n), dtype=bool)
    single[rng.integers(0, c, size=n), np.arange(n)] = True
    return {
        "true": true,
        "superset": true | (rng.random((c, n)) < 0.3),
        "random": rng.random((c, n)) < 0.5,
        "single entry": single,
        "full": np.ones((c, n), dtype=bool),
        "empty": np.zeros((c, n), dtype=bool),
    }


class TestWarmStartedProjection:
    """``project_simplex_columns(V, support=...)`` against the cold projection."""

    @pytest.mark.parametrize("c", range(1, 17))
    def test_every_guess_gives_the_cold_bits(self, c):
        rng = np.random.default_rng(300 + c)
        S = rng.dirichlet(np.ones(c), size=400).T
        V = np.hstack([
            rng.uniform(-1.0, 1.0, size=(c, 400)),
            S + 0.05 * rng.normal(size=S.shape),
            rng.normal(size=(c, 400)) * 10.0 ** rng.integers(-2, 4, size=400),
        ])
        cold = project_simplex_columns(V)
        X = shifted_and_clamped(V)
        for kind, guess in support_guesses(rng, cold).items():
            assert np.array_equal(project_simplex_columns(V, support=guess), cold), kind
            assert _michelot_threshold(X, guess)[1] <= c + 1, kind
        # a float 0/1 guess reads as its boolean one
        assert np.array_equal(project_simplex_columns(V, support=(cold > 0) * 1.0), cold)

    @pytest.mark.parametrize("c", [4, 6, 10])
    def test_the_true_support_settles_in_one_pass(self, c):
        rng = np.random.default_rng(c)
        V = rng.normal(size=(c, 500))
        X = shifted_and_clamped(V)
        cold_tau, cold_passes = _michelot_threshold(X)
        tau, passes = _michelot_threshold(X, project_simplex_columns(V) > 0)
        assert passes == 1 < cold_passes
        assert np.array_equal(tau, cold_tau)

    @pytest.mark.parametrize("c", range(1, 11))
    def test_worst_case_stays_within_c_plus_one_passes(self, c):
        V = one_drop_per_pass(c)[:, None]
        X = shifted_and_clamped(V)
        for entry in range(c):
            guess = np.zeros((c, 1), dtype=bool)
            guess[entry] = True
            tau, passes = _michelot_threshold(X, guess)
            assert passes <= c + 1
            assert np.array_equal(tau, _michelot_threshold(X)[0])

    def test_a_column_without_a_guessed_entry_starts_cold(self):
        rng = np.random.default_rng(5)
        V = rng.normal(size=(6, 40))
        X = shifted_and_clamped(V)
        guess = project_simplex_columns(V) > 0
        guess[:, :20] = False
        # alone, the unguessed columns take exactly the cold passes
        tau, passes = _michelot_threshold(X[:, :20], guess[:, :20])
        cold_tau, cold_passes = _michelot_threshold(X[:, :20])
        assert np.array_equal(tau, cold_tau) and passes == cold_passes
        assert np.array_equal(project_simplex_columns(V, support=guess), project_simplex_columns(V))

    def test_a_guess_of_another_shape_is_refused(self):
        V = np.array([[0.2, 0.9], [0.5, 0.4]])
        with pytest.raises(ValueError, match="support has shape"):
            project_simplex_columns(V, support=np.ones((2, 3), dtype=bool))

    def test_feasible_columns_ignore_the_guess(self):
        S = np.random.default_rng(6).dirichlet(np.ones(4), size=30).T
        P = project_simplex_columns(S, support=np.zeros_like(S))
        assert np.array_equal(P, S) and P is not S

    @pytest.mark.parametrize("c", [2, 5, 9, 13])
    def test_a_pass_that_keeps_every_count_ends_as_a_full_pass(self, c):
        # Michelot's iteration with every pass formed in full; ties (rounded
        # entries) and wrong guesses make columns settle in different passes
        def full_passes(X, support):
            mask = np.empty_like(X)
            np.not_equal(support, 0, out=mask, casting="unsafe")
            mask[:, mask.sum(axis=0) == 0] = 1.0
            tau = (np.multiply(mask, X).sum(axis=0) - 1.0) / mask.sum(axis=0)
            for passes in range(1, c + 2):
                np.greater(X, tau, out=mask, casting="unsafe")
                tau, previous = (np.multiply(mask, X).sum(axis=0) - 1.0) / mask.sum(axis=0), tau
                if (tau == previous).all():
                    break
            return tau, passes

        rng = np.random.default_rng(500 + c)
        for trial in range(100):
            n = (1, 3, 40)[trial % 3]
            V = rng.normal(size=(c, n)) * 10.0 ** rng.uniform(-3, 1, size=n)
            if trial % 2:
                V = np.round(V, 1)
            X = shifted_and_clamped(V)
            right = project_simplex_columns(V) > 0
            # a guess rolled off the support has its counts but not its sets
            for guess in (np.ones_like(V), rng.random(V.shape) < 0.3, right, np.roll(right, 1, axis=0)):
                tau, passes = _michelot_threshold(X, guess)
                want_tau, want_passes = full_passes(X, guess)
                assert tau.tobytes() == want_tau.tobytes() and passes == want_passes


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

    @pytest.mark.parametrize("kernel", [sparsity_norm, sparsity_gradient])
    def test_a_tiny_q_fails_with_a_typed_error_not_a_warning(self, kernel):
        # a simplex column's power sum is at least 1: its 1/q power
        # overflows, its (q-1)/q power underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="at q = 0.001 leaves the float range"):
                kernel(np.full((6, 4), 1 / 6), 0.001)

    def test_a_finite_result_keeps_the_bits_of_the_formula(self):
        S = np.random.default_rng(8).dirichlet(np.ones(5), size=20).T
        base = S + SPARSITY_GUARD
        sums = (base**0.5).sum(axis=0)
        assert np.array_equal(sparsity_norm(S, 0.5), sums ** (1.0 / 0.5))
        assert np.array_equal(sparsity_gradient(S, 0.5), S * base ** (0.5 - 2.0) / sums ** ((0.5 - 1.0) / 0.5))

    @pytest.mark.parametrize("kernel", [sparsity_norm, sparsity_gradient])
    @pytest.mark.parametrize("q", [0.0, 1.5])
    def test_a_q_outside_the_range_is_refused(self, kernel, q):
        with pytest.raises(ValueError, match=r"q must lie in \(0, 1\]"):
            kernel(np.full((3, 2), 1 / 3), q)

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
