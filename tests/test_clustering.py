"""Fuzzy clustering of pixel spectra."""

import tracemalloc

import numpy as np
import pytest

from hsunmix import clustering
from hsunmix.clustering import FCM_M, fcm, fcm_objective
from hsunmix.types import HyperspectralImage


def lloyd_kmeans(Y, centers, iters=200):
    """Plain k-means as an oracle for well-separated data."""
    for _ in range(iters):
        d2 = ((Y[:, :, None] - centers[:, None, :]) ** 2).sum(axis=0)
        labels = np.argmin(d2, axis=1)
        for c in range(centers.shape[1]):
            if np.any(labels == c):
                centers[:, c] = Y[:, labels == c].mean(axis=1)
    return labels


def make_image(Y):
    return HyperspectralImage(Y, width=Y.shape[1], height=1)


class TestFcmDegenerateCases:
    def test_identical_pixels_two_clusters(self):
        Y = np.tile(np.array([[0.4], [0.7]]), (1, 10))
        ca = fcm(make_image(Y), 2, seed=0)
        assert np.allclose(ca.centers[:, 0], [0.4, 0.7])
        assert np.allclose(ca.centers[:, 1], [0.4, 0.7])
        # ties collapse onto the lowest cluster index
        assert np.all(ca.labels == 0)
        # with both centers on the same point the split is arbitrary; the
        # memberships just have to stay a valid partition of unity
        assert np.all(ca.memberships >= 0)
        assert np.allclose(ca.memberships.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_single_cluster(self):
        rng = np.random.default_rng(2)
        Y = rng.random((3, 20)) + 0.1
        ca = fcm(make_image(Y), 1, seed=0)
        assert np.allclose(ca.centers[:, 0], Y.mean(axis=1), rtol=0, atol=1e-12)
        assert np.array_equal(ca.memberships, np.ones((1, 20)))

    def test_pixel_coinciding_with_center_is_hard_assigned(self):
        # pixels 0, 1 equal center 0 and pixels 3, 4 equal center 1; the
        # distances must be exactly zero there. On this draw the Gram form
        # |y|^2 - 2 v.y + |v|^2 rounds to -8.9e-16 at both, so a kernel that
        # loses exact zeros fails here.
        Y = np.random.default_rng(3).random((5, 6)) + 0.1
        Y[:, 1] = Y[:, 0]
        Y[:, 4] = Y[:, 3]
        u = clustering._memberships(clustering._sq_distances(Y, Y[:, [0, 3]]), FCM_M)
        assert np.array_equal(u[:, [0, 1]], [[1.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(u[:, [3, 4]], [[0.0, 0.0], [1.0, 1.0]])
        others = u[:, [2, 5]]
        assert np.all((others > 0.0) & (others < 1.0))


def explicit_sq_distances(Y, V):
    """C x N squared distances summed from explicit differences: the oracle."""
    return ((Y[:, None, :] - V[:, :, None]) ** 2).sum(axis=0)


class TestGramDistances:
    # u = eps / 2; the kernel's Gram entries lie within 2 gamma_(L+2) S of d^2
    # and the oracle within gamma_L S, where S = |y|^2 + |v|^2, so the two
    # agree within about (3 L + 4) u S; (L + 2) 2 eps S is the stated bound.
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_distances_agree_with_explicit_differences(self, scale):
        rng = np.random.default_rng(21)
        n_bands = 224
        Y = scale * (rng.random((n_bands, 300)) + 0.05)
        # centers: pixels, pixels moved a little, and means of pixels
        V = np.column_stack([Y[:, 4], Y[:, 9] * (1 + 1e-9), Y[:, :50].mean(axis=1), Y[:, 7] + scale * 1e-4])
        got = clustering._sq_distances(Y, V)
        want = explicit_sq_distances(Y, V)
        S = (V**2).sum(axis=0)[:, None] + (Y**2).sum(axis=0)
        assert np.all(got >= 0.0)
        assert np.all(np.abs(got - want) <= (n_bands + 2) * 2 * np.finfo(float).eps * S)
        # the pixels the first two centers were taken from
        assert got[0, 4] == 0.0
        assert got[1, 9] > 0.0

    @pytest.mark.parametrize("scale", [1e-160, 1e-3, 1e6, 1e150])
    def test_pixel_equal_to_a_center_is_exactly_zero_at_224_bands(self, scale):
        rng = np.random.default_rng(22)
        Y = scale * (rng.random((224, 40)) + 0.05)
        Y[:, 11] = Y[:, 3]
        d2 = clustering._sq_distances(Y, Y[:, [3, 20]])
        assert d2[0, 3] == d2[0, 11] == d2[1, 20] == 0.0
        assert np.count_nonzero(d2 == 0.0) == 3
        u = clustering._memberships(d2, FCM_M)
        assert np.array_equal(u[:, [3, 11, 20]], [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("n_bands", [224, 1024])
    def test_flat_spectrum_equal_to_a_center_is_exactly_zero(self, n_bands):
        # the Gram residue of a flat spectrum grows with the band count (up to
        # about 56 eps S at 224 bands and 127 eps S at 1024 on one OpenBLAS
        # build), so a fixed threshold such as 64 eps S misses some of them
        x = 1.0 + np.random.default_rng(25).random(60)
        Y = np.tile(x, (n_bands, 1))
        d2 = clustering._sq_distances(Y, Y)
        assert np.array_equal(np.diag(d2), np.zeros(60))

    def test_pixel_one_ulp_off_two_centers_is_shared_between_them(self):
        rng = np.random.default_rng(23)
        Y = rng.random((224, 10)) + 0.05
        y = Y[:, 0]
        V = np.column_stack([y, y, Y[:, 5]])
        V[17, 0] = np.nextafter(y[17], np.inf)
        V[90, 1] = np.nextafter(y[90], -np.inf)
        d2 = clustering._sq_distances(Y, V)
        assert d2[0, 0] == (V[17, 0] - y[17]) ** 2 > 0.0
        assert d2[1, 0] == (V[90, 1] - y[90]) ** 2 > 0.0
        u = clustering._memberships(d2, FCM_M)
        assert np.all((u[:2, 0] > 0.0) & (u[:2, 0] < 1.0))
        assert u[:2, 0].sum() == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_a_duplicate_heavy_image_stays_below_two_images(self):
        # 6 spectra that differ by about 1e-9 relative, repeated over 50 x 50
        # pixels: every distance lies below the rounding bound of the Gram
        # form, so every entry of every iteration is recomputed from
        # differences, in chunks
        rng = np.random.default_rng(24)
        spectra = (rng.random((100, 1)) + 0.05) * (1 + 1e-9 * rng.random((1, 6)))
        Y = HyperspectralImage(spectra[:, rng.integers(0, 6, size=50 * 50)], 50, 50)
        tracemalloc.start()
        try:
            ca = fcm(Y, 6, max_iter=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * Y.data.nbytes, f"peak {peak / Y.data.nbytes:.2f} x the image"
        d2 = clustering._sq_distances(Y.data, ca.centers)
        want = explicit_sq_distances(Y.data, ca.centers)
        assert np.all(np.abs(d2 - want) <= 1e-12 * want.max())


class TestFcmSeparatedClouds:
    def test_agrees_with_kmeans_oracle(self):
        rng = np.random.default_rng(5)
        a = np.array([[0.0], [0.0]]) + 0.01 * rng.standard_normal((2, 30))
        b = np.array([[10.0], [10.0]]) + 0.01 * rng.standard_normal((2, 30))
        Y = np.abs(np.concatenate([a, b], axis=1))
        ca = fcm(make_image(Y), 2, seed=3)

        km_labels = lloyd_kmeans(Y, Y[:, [0, 59]].copy())
        # align cluster ids by majority vote on the first cloud
        flip = np.bincount(ca.labels[:30], minlength=2).argmax() != np.bincount(
            km_labels[:30], minlength=2
        ).argmax()
        fcm_labels = 1 - ca.labels if flip else ca.labels
        assert np.array_equal(fcm_labels, km_labels)

        # memberships to the own cloud are decisive
        own = ca.memberships[ca.labels, np.arange(60)]
        assert np.all(own > 0.99)


class TestFcmProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_objective_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        Y = rng.random((4, 40)) + 0.05
        trace = []
        fcm(make_image(Y), 3, seed=seed, on_iteration=lambda i, u, v, j: trace.append(j))
        assert len(trace) >= 1
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_memberships_normalized_every_iteration(self, seed):
        rng = np.random.default_rng(100 + seed)
        Y = rng.random((3, 25)) + 0.05

        def check(i, u, v, j):
            assert np.all(u >= 0.0)
            assert np.allclose(u.sum(axis=0), 1.0, rtol=0, atol=1e-12)

        fcm(make_image(Y), 4, seed=seed, on_iteration=check)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        Y = rng.random((3, 30)) + 0.05
        a = fcm(make_image(Y), 3, seed=42)
        b = fcm(make_image(Y), 3, seed=42)
        assert np.array_equal(a.memberships, b.memberships)
        assert np.array_equal(a.centers, b.centers)

    def test_peak_memory_stays_below_two_images(self):
        # the distances are C x N; no L x N x C difference tensor is formed
        rng = np.random.default_rng(8)
        Y = HyperspectralImage(rng.random((100, 50 * 50)) + 0.05, 50, 50)
        tracemalloc.start()
        try:
            fcm(Y, 6, max_iter=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * Y.data.nbytes, f"peak {peak / Y.data.nbytes:.2f} x the image"

    def test_objective_value_matches_definition(self):
        rng = np.random.default_rng(12)
        Y = rng.random((3, 15)) + 0.1
        ca = fcm(make_image(Y), 2, seed=0)
        d2 = ((Y[:, :, None] - ca.centers[:, None, :]) ** 2).sum(axis=0).T
        want = np.sum(ca.memberships**2 * d2)
        assert fcm_objective(Y, ca.memberships, ca.centers, 2.0) == pytest.approx(want, rel=1e-12)


class TestFcmValidation:
    def test_a_plain_array_is_refused(self):
        Y = np.random.default_rng(0).random((2, 6)) + 0.1
        with pytest.raises(ValueError, match="Y must be a HyperspectralImage"):
            fcm(Y, 2)

    def test_too_many_clusters_rejected(self):
        Y = np.ones((2, 3)) * 0.5
        with pytest.raises(ValueError):
            fcm(make_image(Y), 4)

    def test_bad_fuzzifier_rejected(self):
        Y = np.random.default_rng(0).random((2, 6)) + 0.1
        with pytest.raises(ValueError):
            fcm(make_image(Y), 2, m=1.0)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"max_iter": 2.5}, "max_iter must be an integer"),
            ({"m": np.inf}, "fuzzifier m must be finite"),
            ({"tol": np.inf}, "tol must be positive and finite"),
        ],
    )
    def test_bad_settings_rejected(self, kwargs, message):
        Y = np.random.default_rng(0).random((2, 6)) + 0.1
        with pytest.raises(ValueError, match=message):
            fcm(make_image(Y), 2, **kwargs)
