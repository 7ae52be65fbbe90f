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
        u = clustering._memberships(Y, Y[:, [0, 3]], FCM_M)
        assert np.array_equal(u[:, [0, 1]], [[1.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(u[:, [3, 4]], [[0.0, 0.0], [1.0, 1.0]])
        others = u[:, [2, 5]]
        assert np.all((others > 0.0) & (others < 1.0))


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
