"""Synthetic scene generation and the bundled spectral library."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from hsunmix.metrics import sad
from hsunmix.synth import (
    _moving_average,
    _scaled_truncated_noise,
    bundled_library,
    check_scene_settings,
    generate_synthetic,
)
from hsunmix.types import validate_abundances


@pytest.fixture(scope="module")
def library():
    return bundled_library()


class TestBundledLibrary:
    def test_shape_contract(self, library):
        assert library.data.shape[0] == 224
        assert library.data.shape[1] >= 8

    def test_reflectance_range(self, library):
        assert library.data.min() > 0.0
        assert library.data.max() < 1.0

    def test_pairwise_angles_separated(self, library):
        c = library.data.shape[1]
        for i in range(c):
            for j in range(i + 1, c):
                assert sad(library.data[:, i], library.data[:, j]) > 0.05

    def test_wavelengths_increasing(self, library):
        assert np.all(np.diff(library.wavelengths) > 0)


class TestGenerateSynthetic:
    def test_bitwise_reconstruction(self, library):
        scene = generate_synthetic(library.data, 4, width=12, height=9, snr_db=20.0, seed=3)
        assert np.array_equal(
            scene.Y.data, scene.A_true.data @ scene.S_true.data + scene.noise
        )

    def test_peak_memory_stays_below_three_and_a_half_cubes(self, library):
        # the peak, about 3.2 cubes, is A S, the draw and one draw * draw in the
        # noise scaling, or A S, the noise and Y on the way out; a second full
        # temporary in the scaling or a second A_true @ S_true + noise on the way
        # out would cost one more
        tracemalloc.start()
        try:
            scene = generate_synthetic(library.data, 6, width=100, height=100, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cube = scene.Y.data.nbytes
        assert peak < 3.5 * cube, f"peak {peak / cube:.2f} x the cube"

    def test_noiseless_limit(self, library):
        scene = generate_synthetic(library.data, 3, width=8, height=8, snr_db=np.inf, seed=1)
        assert np.array_equal(scene.noise, np.zeros_like(scene.noise))
        assert np.array_equal(scene.Y.data, scene.A_true.data @ scene.S_true.data)

    @pytest.mark.parametrize("snr", [3.0, 5.0, 15.0, 25.0, 40.0])
    def test_realized_snr_matches_target(self, library, snr):
        scene = generate_synthetic(library.data, 4, width=10, height=10, snr_db=snr, seed=2)
        product = scene.A_true.data @ scene.S_true.data
        realized = 10 * np.log10(np.sum(product**2) / np.sum(scene.noise**2))
        # the scale is solved in closed form, so only rounding is left
        assert abs(realized - snr) < 1e-12

    def test_abundances_feasible(self, library):
        scene = generate_synthetic(library.data, 6, width=40, height=40, snr_db=25.0, seed=4)
        assert validate_abundances(scene.S_true.data, 1e-9)

    def test_purity_cap_enforced(self, library):
        scene = generate_synthetic(
            library.data, 5, width=24, height=24, snr_db=30.0, purity_cap=0.8, seed=5
        )
        assert scene.S_true.data.max() <= 0.8

    def test_purity_cap_disabled_allows_pure_pixels(self, library):
        scene = generate_synthetic(
            library.data, 3, width=30, height=30, patch=10, filter_size=3,
            snr_db=np.inf, purity_cap=1.0, seed=6,
        )
        assert scene.S_true.data.max() > 0.99

    def test_image_stays_nonnegative(self, library):
        scene = generate_synthetic(library.data, 4, width=15, height=15, snr_db=3.0, seed=7)
        assert scene.Y.data.min() >= 0.0

    def test_deterministic(self, library):
        a = generate_synthetic(library.data, 4, width=10, height=8, snr_db=18.0, seed=11)
        b = generate_synthetic(library.data, 4, width=10, height=8, snr_db=18.0, seed=11)
        assert np.array_equal(a.Y.data, b.Y.data)
        assert np.array_equal(a.S_true.data, b.S_true.data)

    def test_spatial_smoothing_leaves_no_constant_columns(self, library):
        scene = generate_synthetic(library.data, 4, width=20, height=20, snr_db=np.inf, seed=8)
        # smoothing spreads every patch across several endmembers
        assert np.all(scene.S_true.data.max(axis=0) < 1.0)

    def test_signatures_come_from_library(self, library):
        scene = generate_synthetic(library.data, 4, width=8, height=8, snr_db=np.inf, seed=9)
        cols = {tuple(library.data[:, j]) for j in range(library.data.shape[1])}
        for j in range(4):
            assert tuple(scene.A_true.data[:, j]) in cols

    @pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (-0.1, "nonnegative")])
    def test_a_bad_library_is_refused_by_the_signature_check(self, library, bad, message):
        data = library.data.copy()
        data[10, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^signatures must be {message}$"):
                generate_synthetic(data, 3, width=8, height=8, snr_db=25.0)

    def test_a_signature_library_keeps_its_metadata_and_an_array_has_none(self, library):
        scene = generate_synthetic(library, 4, width=8, height=8, snr_db=25.0, seed=9)
        plain = generate_synthetic(library.data, 4, width=8, height=8, snr_db=25.0, seed=9)
        chosen = [library.names.index(name) for name in scene.A_true.names]
        assert np.array_equal(scene.A_true.data, library.data[:, chosen])
        assert np.array_equal(scene.A_true.wavelengths, library.wavelengths)
        assert plain.A_true.names is None and plain.A_true.wavelengths is None
        assert np.array_equal(plain.A_true.data, scene.A_true.data)
        assert np.array_equal(plain.Y.data, scene.Y.data)

    def test_library_too_small_rejected(self, library):
        with pytest.raises(ValueError):
            generate_synthetic(library.data[:, :3], 4, width=8, height=8, snr_db=20.0)

    def test_even_filter_rejected(self, library):
        with pytest.raises(ValueError):
            generate_synthetic(library.data, 3, width=8, height=8, filter_size=4, snr_db=20.0)

    def test_nan_snr_rejected(self, library):
        with pytest.raises(ValueError):
            generate_synthetic(library.data, 3, width=8, height=8, snr_db=np.nan)

    @pytest.mark.parametrize("snr", [4000.0, -4000.0, 1e300, -1e300])
    def test_an_snr_beyond_a_doubles_power_ratio_is_rejected(self, snr):
        with pytest.raises(ValueError, match="^" + re.escape(f"snr_db = {snr:g} gives a power ratio beyond")):
            check_scene_settings(3, 8, 8, 4, 3, snr, 0.8)

    @pytest.mark.parametrize("snr", [3000.0, -3000.0, -3200.0])
    def test_the_settings_check_passes_any_snr_whose_power_ratio_is_a_positive_double(self, snr):
        check_scene_settings(3, 8, 8, 4, 3, snr, 0.8)

    def test_an_snr_whose_noise_energy_overflows_is_rejected(self, library):
        # 10^-320 is a positive (subnormal) double, but |A S|^2 / 10^-320 is not finite
        with pytest.raises(ValueError, match="^snr_db = -3200 asks for a noise energy beyond"):
            generate_synthetic(library.data, 3, width=8, height=8, snr_db=-3200.0)


class TestMovingAverage:
    """The package's moving average against SciPy's ``uniform_filter``, which only the tests import."""

    @pytest.mark.parametrize("f", [1, 3, 5, 7, 9])
    def test_bit_identical_to_scipy_uniform_filter(self, f):
        rng = np.random.default_rng(f)
        # the small and one-pixel-wide images are narrower than most windows
        for height, width in [(40, 40), (9, 13), (3, 2), (1, 7), (6, 1), (1, 1)]:
            c = int(rng.integers(1, 7))
            labels = rng.integers(0, c, size=(height, width))
            planes = (labels[None] == np.arange(c)[:, None, None]).astype(np.float64)
            want = uniform_filter(planes, size=(1, f, f), mode="nearest")
            assert np.array_equal(_moving_average(planes, f), want), (height, width)

    def test_window_of_one_leaves_the_planes_alone(self):
        planes = np.random.default_rng(0).random((2, 4, 5))
        assert _moving_average(planes, 1) is planes


class TestScaledTruncatedNoise:
    def test_untruncated_draw_is_scaled_exactly_once(self):
        rng = np.random.default_rng(0)
        product = rng.random((5, 30)) + 10.0
        draw = rng.standard_normal(product.shape)
        target = np.sum(product**2) / 10.0**2.5
        noise = _scaled_truncated_noise(product, draw.copy(), 25.0)
        assert np.array_equal(noise, np.sqrt(target / np.sum(draw**2)) * draw)

    def test_truncated_entries_zero_the_image_and_the_rest_share_one_scale(self):
        rng = np.random.default_rng(1)
        product = rng.random((8, 50))
        draw = rng.standard_normal(product.shape)
        noise = _scaled_truncated_noise(product, draw.copy(), 3.0)
        assert np.all(product + noise >= 0)
        truncated = product + noise == 0
        assert 0 < truncated.sum() < truncated.size
        free = ~truncated & (draw != 0)
        ratio = noise[free] / draw[free]
        assert np.ptp(ratio) <= 1e-15 * ratio[0]
        assert np.all(ratio[0] * draw[truncated] < -product[truncated])
        realized = 10 * np.log10(np.sum(product**2) / np.sum(noise**2))
        assert abs(realized - 3.0) < 1e-12

    def test_all_negative_draw_beyond_the_truncated_energy_is_rejected(self):
        product = np.full((2, 3), 0.5)
        draw = -np.ones_like(product)
        # truncating every entry leaves noise energy sum(p^2) = 1.5, short of the
        # -1 dB target 1.5 * 10**0.1
        with pytest.raises(ValueError, match="no untruncated"):
            _scaled_truncated_noise(product, draw, -1.0)
