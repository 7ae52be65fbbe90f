"""Endmember extraction and starting-point construction."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import hsunmix.unmix
from hsunmix import initialize
from hsunmix.errors import DegenerateDataError
from hsunmix.initialize import fcls_abundances, random_init, vca
from hsunmix.metrics import match_endmembers, sad
from hsunmix.synth import bundled_library, generate_synthetic
from hsunmix.types import HyperspectralImage, SignatureMatrix, validate_abundances


def make_image(Y, width=None):
    width = Y.shape[1] if width is None else width
    return HyperspectralImage(Y, width=width, height=Y.shape[1] // width)


def max_volume_pixels(Y, c):
    """Exhaustive search for the pixel subset spanning the largest simplex.

    Volume of the simplex with vertices y_i is proportional to the
    determinant of the lifted matrix [[1...1], [y_1 ... y_c]] restricted to
    a basis; use the Gram determinant of the edge vectors.
    """
    N = Y.shape[1]
    best, best_vol = None, -1.0
    for subset in itertools.combinations(range(N), c):
        E = Y[:, subset[1:]] - Y[:, subset[:1]]
        vol = abs(np.linalg.det(E.T @ E)) if c > 1 else 1.0
        if vol > best_vol:
            best_vol, best = vol, subset
    return set(best)


def random_scene_with_pure_pixels(rng, L, c, n_mixed):
    A = rng.random((L, c)) + 0.5
    S_mixed = rng.dirichlet(np.ones(c), size=n_mixed).T
    S = np.concatenate([np.eye(c), S_mixed], axis=1)
    perm = rng.permutation(c + n_mixed)
    return A, S[:, perm], A @ S[:, perm]


class TestVca:
    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_pure_pixels(self, seed):
        rng = np.random.default_rng(seed)
        A, S, Y = random_scene_with_pure_pixels(rng, L=12, c=4, n_mixed=60)
        est = vca(make_image(Y), 4, seed=seed)
        perm = match_endmembers(A, est.data)
        angles = [sad(A[:, perm[j]], est.data[:, j]) for j in range(4)]
        assert max(angles) < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_max_volume_oracle(self, seed):
        rng = np.random.default_rng(20 + seed)
        A, S, Y = random_scene_with_pure_pixels(rng, L=8, c=3, n_mixed=12)
        est = vca(make_image(Y), 3, seed=seed)
        oracle = max_volume_pixels(Y, 3)
        got = set()
        for j in range(3):
            hits = np.nonzero((np.abs(Y - est.data[:, j : j + 1]) < 1e-12).all(axis=0))[0]
            assert hits.size >= 1
            got.add(int(hits[0]))
        oracle_cols = {tuple(Y[:, i]) for i in oracle}
        got_cols = {tuple(Y[:, i]) for i in got}
        assert got_cols == oracle_cols

    def test_returns_actual_pixels(self):
        rng = np.random.default_rng(3)
        _, _, Y = random_scene_with_pure_pixels(rng, L=10, c=3, n_mixed=30)
        est = vca(make_image(Y), 3, seed=0)
        for j in range(3):
            assert np.any((np.abs(Y - est.data[:, j : j + 1]) < 1e-12).all(axis=0))

    def test_single_endmember_on_ray(self):
        rng = np.random.default_rng(4)
        direction = rng.random(6) + 0.5
        scales = rng.random(20) + 0.1
        Y = direction[:, None] * scales[None, :]
        est = vca(make_image(Y), 1, seed=0)
        assert sad(est.data[:, 0], direction) < 1e-12
        # the largest-magnitude pixel is the representative
        assert np.allclose(est.data[:, 0], Y[:, np.argmax(scales)])

    def test_duplication_invariance(self):
        rng = np.random.default_rng(5)
        _, _, Y = random_scene_with_pure_pixels(rng, L=9, c=3, n_mixed=20)
        a = vca(make_image(Y), 3, seed=7)
        b = vca(make_image(np.concatenate([Y, Y], axis=1)), 3, seed=7)
        perm = match_endmembers(a.data, b.data)
        angles = [sad(a.data[:, perm[j]], b.data[:, j]) for j in range(3)]
        assert max(angles) < 1e-9

    def test_rank_deficient_data_rejected(self):
        # all pixels on a 1-D ray cannot support 3 endmembers
        direction = np.ones(5)
        Y = direction[:, None] * (np.arange(12) + 1.0)[None, :]
        with pytest.raises(DegenerateDataError):
            vca(make_image(Y, width=4), 3, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        _, _, Y = random_scene_with_pure_pixels(rng, L=7, c=3, n_mixed=25)
        a = vca(make_image(Y), 3, seed=11)
        b = vca(make_image(Y), 3, seed=11)
        assert np.array_equal(a.data, b.data)

    def test_a_plain_array_is_refused(self):
        rng = np.random.default_rng(6)
        _, _, Y = random_scene_with_pure_pixels(rng, L=7, c=3, n_mixed=25)
        with pytest.raises(ValueError, match="Y must be a HyperspectralImage"):
            vca(Y, 3)

    def test_no_image_sized_temporary(self):
        # 224 x 10 000, about 17 blocks of BLOCK_BYTES; a centred copy would be 1.07 x the image
        Y = generate_synthetic(bundled_library(), 6, 100, 100, snr_db=25.0, seed=3).Y
        tracemalloc.start()
        try:
            vca(Y, 6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * Y.data.nbytes, f"peak {peak / Y.data.nbytes:.3f} x the image"

    # one pixel column per block, and one block for the whole image
    @pytest.mark.parametrize("snr", [15.0, 25.0, 35.0])
    def test_the_block_size_leaves_the_picks_of_a_noisy_scene(self, monkeypatch, snr):
        Y = generate_synthetic(bundled_library(), 6, 40, 40, snr_db=snr, seed=7).Y
        default = vca(Y, 6, seed=0).data
        for block_bytes in (Y.data[:, 0].nbytes, 2 * Y.data.nbytes):
            monkeypatch.setattr(initialize, "BLOCK_BYTES", block_bytes)
            assert vca(Y, 6, seed=0).data.tobytes() == default.tobytes(), block_bytes


class TestRandomInit:
    def test_valid_and_deterministic(self):
        A1, S1 = random_init(8, 3, 14, seed=5)
        A2, S2 = random_init(8, 3, 14, seed=5)
        assert np.array_equal(A1.data, A2.data)
        assert np.array_equal(S1.data, S2.data)
        assert validate_abundances(S1.data, 1e-9)
        assert np.all(A1.data >= 0.0)

    def test_single_endmember_is_all_ones_row(self):
        _, S = random_init(4, 1, 9, seed=0)
        assert np.array_equal(S.data, np.ones((1, 9)))

    def test_different_seeds_differ(self):
        A1, _ = random_init(6, 2, 10, seed=1)
        A2, _ = random_init(6, 2, 10, seed=2)
        assert not np.array_equal(A1.data, A2.data)


class TestFclsAbundances:
    def test_grid_oracle_two_endmembers(self):
        rng = np.random.default_rng(8)
        A = rng.random((10, 2)) + 0.2
        S_true = np.array([[0.3, 0.9, 0.0], [0.7, 0.1, 1.0]])
        Y = A @ S_true + 0.01 * rng.standard_normal((10, 3))
        Y = np.abs(Y)
        S = fcls_abundances(make_image(Y), SignatureMatrix(A)).data

        grid = np.linspace(0.0, 1.0, 20001)
        candidates = np.stack([grid, 1.0 - grid])
        for k in range(3):
            errs = np.sum((Y[:, k : k + 1] - A @ candidates) ** 2, axis=0)
            best = candidates[:, np.argmin(errs)]
            assert np.max(np.abs(S[:, k] - best)) < 1e-3

    def test_exact_data_recovers_abundances(self):
        rng = np.random.default_rng(9)
        A = rng.random((12, 3)) + 0.3
        S_true = rng.dirichlet(np.ones(3), size=8).T
        Y = A @ S_true
        # the solve is exact, so only rounding separates it from the truth
        S = fcls_abundances(make_image(Y), SignatureMatrix(A)).data
        assert np.max(np.abs(S - S_true)) < 1e-12

    @pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (-0.1, "nonnegative")])
    def test_bad_signatures_are_refused_before_the_solve(self, monkeypatch, bad, message):
        def no_solve(*args):
            raise AssertionError("gram_fcls ran")

        monkeypatch.setattr(hsunmix.unmix, "gram_fcls", no_solve)
        A = np.ones((4, 2))
        A[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^signatures must be {message}$"):
                fcls_abundances(make_image(np.ones((4, 3))), A)

    def test_all_zero_signatures_are_refused(self):
        with pytest.raises(DegenerateDataError, match="identically zero"):
            fcls_abundances(make_image(np.ones((4, 3))), SignatureMatrix(np.zeros((4, 2))))

    def test_a_capped_solve_warns_and_stays_feasible(self, monkeypatch):
        # with no passes every pixel keeps the vertex it starts from
        monkeypatch.setattr(hsunmix.unmix, "_FCLS_PASSES_PER_ENDMEMBER", 0)
        rng = np.random.default_rng(11)
        A = rng.random((9, 4)) + 0.2
        Y = rng.random((9, 11)) + 0.1
        with pytest.warns(RuntimeWarning, match="pass cap"):
            S = fcls_abundances(make_image(Y), SignatureMatrix(A)).data
        assert validate_abundances(S, 1e-12)

    def test_a_full_solve_does_not_warn(self):
        rng = np.random.default_rng(12)
        A = rng.random((9, 4)) + 0.2
        Y = rng.random((9, 11)) + 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fcls_abundances(make_image(Y), SignatureMatrix(A))

    def test_output_is_feasible(self):
        rng = np.random.default_rng(10)
        A = rng.random((9, 4)) + 0.2
        Y = rng.random((9, 11)) + 0.1
        S = fcls_abundances(make_image(Y), SignatureMatrix(A)).data
        assert validate_abundances(S, 1e-9)
