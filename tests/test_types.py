"""Core data structures: images, signatures, abundances, neighborhoods."""

import copy
import importlib
import pickle
import pkgutil
import re
import sys
import tracemalloc
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import hsunmix
from hsunmix import clustering, initialize, regularizers, synth, types, unmix
from hsunmix.initialize import random_init
from hsunmix.regularizers import (
    OFFSETS,
    build_neighborhood,
    coupling,
    coupling_pull,
    estimate_sparsity_weight,
    neighbor_weights,
)
from hsunmix.synth import bundled_library, generate_synthetic
from hsunmix.types import (
    AbundanceMatrix,
    AlgorithmVariant,
    ClusterAssignment,
    HyperspectralImage,
    SignatureMatrix,
    UnmixingConfig,
    column_sq_norms,
    validate_abundances,
)
from hsunmix.unmix import run_unmixing


def grid_neighbors(width, height, k):
    """Reference 8-connected neighbor list, brute force over all pixels."""
    ky, kx = divmod(k, width)
    out = []
    for j in range(width * height):
        if j == k:
            continue
        jy, jx = divmod(j, width)
        if abs(jy - ky) <= 1 and abs(jx - kx) <= 1:
            out.append(j)
    return out


def neighbors(planes, k):
    """Row-major indices of the neighbors that 0/1 weight planes give pixel k, in plane order."""
    _, height, width = planes.shape
    y, x = divmod(k, width)
    return [(y + dy) * width + x + dx for o, (dy, dx) in enumerate(OFFSETS) if planes[o, y, x]]


class TestBuildNeighborhood:
    def test_zero_one_planes_with_grid_degrees(self):
        planes = build_neighborhood(5, 4)
        assert planes.shape == (8, 4, 5) and planes.dtype == np.float64
        assert set(np.unique(planes)) == {0.0, 1.0}
        degrees = np.array([
            [3, 5, 5, 5, 3],
            [5, 8, 8, 8, 5],
            [5, 8, 8, 8, 5],
            [3, 5, 5, 5, 3],
        ])
        assert np.array_equal(planes.sum(axis=0), degrees)

    def test_planes_list_the_king_moves_in_sorted_neighbor_order(self):
        # no self-loop, and the order of a pixel's row of the N x N matrix
        assert (0, 0) not in OFFSETS and len(set(OFFSETS)) == 8
        assert all(abs(dy) <= 1 and abs(dx) <= 1 for dy, dx in OFFSETS)
        assert sorted(OFFSETS) == list(OFFSETS)

    def test_center_of_3x3_has_8_neighbors(self):
        nbhd = build_neighborhood(3, 3)
        assert neighbors(nbhd, 4) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_corner_of_3x3_has_3_neighbors(self):
        nbhd = build_neighborhood(3, 3)
        assert neighbors(nbhd, 0) == [1, 3, 4]

    def test_middle_of_1x5_row_has_2_neighbors(self):
        nbhd = build_neighborhood(5, 1)
        assert neighbors(nbhd, 2) == [1, 3]

    @pytest.mark.parametrize(
        "width,height", [(1, 1), (1, 5), (5, 1), (2, 7), (2, 2), (4, 3), (7, 5)]
    )
    def test_matches_brute_force(self, width, height):
        nbhd = build_neighborhood(width, height)
        for k in range(width * height):
            assert neighbors(nbhd, k) == grid_neighbors(width, height, k)

    def test_single_pixel_has_no_neighbors(self):
        nbhd = build_neighborhood(1, 1)
        assert nbhd.shape == (8, 1, 1) and not nbhd.any()

    def test_symmetry(self):
        nbhd = build_neighborhood(6, 4)
        for k in range(24):
            assert k not in neighbors(nbhd, k)
            for j in neighbors(nbhd, k):
                assert k in neighbors(nbhd, j)
        # plane by plane: the opposite move of OFFSETS[o] is OFFSETS[7 - o]
        for o, (dy, dx) in enumerate(OFFSETS):
            assert OFFSETS[7 - o] == (-dy, -dx)
            assert np.array_equal(
                nbhd[o, max(0, -dy):4 - max(0, dy), max(0, -dx):6 - max(0, dx)],
                nbhd[7 - o, max(0, dy):4 - max(0, -dy), max(0, dx):6 - max(0, -dx)],
            )

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            build_neighborhood(0, 3)
        with pytest.raises(ValueError):
            build_neighborhood(3, -1)


class TestValidateAbundances:
    def test_valid_column(self):
        assert validate_abundances(np.array([[0.5], [0.5]]))

    def test_negative_entry_fails(self):
        assert not validate_abundances(np.array([[1.1], [-0.1]]))

    def test_sum_violation_fails(self):
        tol = 1e-9
        assert not validate_abundances(np.array([[0.6], [0.4 + 2 * tol]]), tol)

    def test_sum_within_tolerance_passes(self):
        assert validate_abundances(np.array([[0.6], [0.4 + 0.5e-9]]), 1e-9)

    def test_nonfinite_fails(self):
        assert not validate_abundances(np.array([[np.nan], [1.0]]))
        assert not validate_abundances(np.array([[np.inf], [0.0]]))

    def test_multiple_columns(self):
        S = np.array([[0.2, 1.0, 0.5], [0.8, 0.0, 0.5]])
        assert validate_abundances(S)
        S[0, 1] = -1e-12
        assert not validate_abundances(S)


class TestHyperspectralImage:
    def test_basic_properties(self):
        img = HyperspectralImage(np.ones((5, 6)), width=3, height=2)
        assert img.n_bands == 5
        assert img.n_pixels == 6

    def test_pixel_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HyperspectralImage(np.ones((5, 6)), width=4, height=2)

    def test_negative_entries_rejected(self):
        data = np.ones((2, 4))
        data[0, 1] = -0.5
        with pytest.raises(ValueError):
            HyperspectralImage(data, width=2, height=2)

    def test_nonfinite_rejected(self):
        data = np.ones((2, 4))
        data[1, 2] = np.nan
        with pytest.raises(ValueError):
            HyperspectralImage(data, width=2, height=2)

    def test_an_image_without_bands_is_rejected(self):
        with pytest.raises(ValueError, match="image entries must not be empty"):
            HyperspectralImage(np.ones((0, 4)), width=2, height=2)

    # a non-finite entry is named before a negative one, whichever comes first
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entries,message", [
        ([np.nan, 1.0], "finite"), ([-1.0, np.nan], "finite"), ([np.inf, -1.0], "finite"),
        ([-np.inf, 1.0], "finite"), ([-1.0, 1.0], "nonnegative"), ([-0.0, 1e-300], None),
    ])
    def test_entries_are_judged_by_their_extremes(self, entries, message):
        data = np.ones((2, 4))
        data[1, 1:3] = entries
        if message is None:
            assert HyperspectralImage(data, width=2, height=2).data.tobytes() == data.tobytes()
        else:
            with pytest.raises(ValueError, match=f"^image entries must be {message}$"):
                HyperspectralImage(data, width=2, height=2)

    def test_the_check_makes_no_image_sized_temporary(self):
        data = np.random.default_rng(0).random((224, 4096))
        tracemalloc.start()
        try:
            HyperspectralImage(data, width=64, height=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * data.nbytes, f"peak {peak / data.nbytes:.3f} x the image"


class TestSignatureAndAbundanceMatrices:
    def test_signature_rejects_negative(self):
        with pytest.raises(ValueError):
            SignatureMatrix(np.array([[1.0, -0.1], [0.5, 0.5]]))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_signature_rejects_an_empty_matrix(self, shape):
        with pytest.raises(ValueError, match="signatures must not be empty"):
            SignatureMatrix(np.ones(shape))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_wavelengths_are_rejected(self, bad):
        # the library reader refuses such a file, so the writer must not get one
        with pytest.raises(ValueError, match="wavelengths must be finite"):
            SignatureMatrix(np.ones((2, 1)), wavelengths=[bad, 1.0])

    def test_wavelength_length_checked(self):
        with pytest.raises(ValueError, match="wavelengths length"):
            SignatureMatrix(np.ones((3, 2)), wavelengths=np.array([1.0, 2.0]))

    def test_signature_names_length_checked(self):
        with pytest.raises(ValueError):
            SignatureMatrix(np.ones((3, 2)), names=["a"])

    def test_abundance_rejects_invalid(self):
        with pytest.raises(ValueError):
            AbundanceMatrix(np.array([[0.7], [0.7]]))

    def test_abundance_accepts_simplex(self):
        S = AbundanceMatrix(np.array([[0.25, 1.0], [0.75, 0.0]]))
        assert S.data.shape == (2, 2)


class TestClusterAssignment:
    def test_valid_assignment(self):
        u = np.array([[0.9, 0.2], [0.1, 0.8]])
        ca = ClusterAssignment(np.array([0, 1]), u, np.ones((3, 2)))
        assert ca.memberships.shape[0] == 2

    def test_membership_columns_must_normalize(self):
        u = np.array([[0.9, 0.2], [0.2, 0.8]])
        with pytest.raises(ValueError):
            ClusterAssignment(np.array([0, 1]), u, np.ones((3, 2)))

    def test_labels_must_match_argmax(self):
        u = np.array([[0.9, 0.2], [0.1, 0.8]])
        with pytest.raises(ValueError):
            ClusterAssignment(np.array([1, 1]), u, np.ones((3, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("labels", [[0.9, 1.2], [0.0, 1.5], [np.nan, 1.0], [0.0, np.inf]])
    def test_non_integral_labels_are_rejected(self, labels):
        # a cast would truncate [0.9, 1.2] to the argmax [0, 1]
        with pytest.raises(ValueError, match="labels must be integers"):
            ClusterAssignment(labels, np.array([[0.9, 0.2], [0.1, 0.8]]), np.ones((3, 2)))

    @pytest.mark.parametrize("labels", [[0.0, 1.0], np.array([0, 1], dtype=np.int32), [False, True]])
    def test_integer_valued_labels_are_stored_as_int64(self, labels):
        ca = ClusterAssignment(labels, np.array([[0.9, 0.2], [0.1, 0.8]]), np.ones((3, 2)))
        assert ca.labels.dtype == np.int64 and ca.labels.tolist() == [0, 1]

    # NaN passes every comparison the range and column-sum tests make
    def test_a_nan_membership_column_is_rejected(self):
        u = np.array([[0.9, np.nan], [0.1, np.nan]])
        with pytest.raises(ValueError, match="memberships must be finite"):
            ClusterAssignment(np.array([0, 0]), u, np.ones((3, 2)))

    def test_a_nan_center_is_rejected(self):
        centers = np.ones((3, 2))
        centers[1, 1] = np.nan
        with pytest.raises(ValueError, match="centers must be finite"):
            ClusterAssignment(np.array([0, 1]), np.array([[0.9, 0.2], [0.1, 0.8]]), centers)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make,message", [
    (lambda: HyperspectralImage(np.ones((0, 4)), 2, 2), "image entries must not be empty, got shape (0, 4)"),
    (lambda: SignatureMatrix(np.ones((3, 0))), "signatures must not be empty, got shape (3, 0)"),
    (lambda: AbundanceMatrix(np.ones((3, 0))), "abundances must not be empty, got shape (3, 0)"),
    (lambda: ClusterAssignment(np.zeros(0, dtype=np.int64), np.ones((3, 0)), np.ones((4, 3))),
     "memberships must not be empty, got shape (3, 0)"),
], ids=["image", "signatures", "abundances", "clusters"])
def test_every_value_type_refuses_an_empty_matrix(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


U = np.array([[0.9, 0.2], [0.1, 0.8]])  # memberships (or abundances) of two pixels
ONES = np.ones((3, 2))


class TestReadOnlyArrays:
    @pytest.mark.parametrize(
        "hold,source",
        [
            (lambda a: HyperspectralImage(a, 2, 1).data, ONES),
            (lambda a: SignatureMatrix(a).data, ONES),
            (lambda a: SignatureMatrix(ONES, wavelengths=a).wavelengths, np.arange(3.0)),
            (lambda a: AbundanceMatrix(a).data, U),
            (lambda a: ClusterAssignment(a, U, ONES).labels, np.array([0, 1])),
            (lambda a: ClusterAssignment(np.array([0, 1]), a, ONES).memberships, U),
            (lambda a: ClusterAssignment(np.array([0, 1]), U, a).centers, ONES),
            (lambda a: generate_synthetic(a, 2, width=4, height=4, patch=2, filter_size=3).noise,
             np.linspace(0.1, 0.9, 6).reshape(3, 2)),
        ],
        ids=[
            "image.data", "signatures.data", "signatures.wavelengths",
            "abundances.data", "clusters.labels", "clusters.memberships", "clusters.centers",
            "scene.noise",
        ],
    )
    def test_a_held_array_refuses_writes_and_the_source_keeps_its_flags(self, hold, source):
        held = hold(source)
        with pytest.raises(ValueError, match="read-only"):
            held[(0,) * held.ndim] = 0
        assert source.flags.writeable

    @pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize(
        "value",
        [
            HyperspectralImage(ONES, 2, 1),
            SignatureMatrix(ONES, wavelengths=np.arange(3.0), names=("a", "b")),
            AbundanceMatrix(U),
            ClusterAssignment(np.array([0, 1]), U, ONES),
            generate_synthetic(np.linspace(0.1, 0.9, 6).reshape(3, 2), 2, width=4, height=4, patch=2,
                               filter_size=3),
        ],
        ids=["image", "signatures", "abundances", "clusters", "scene"],
    )
    def test_a_clone_is_rebuilt_read_only(self, value, clone):
        def check(held, source):
            assert type(held) is type(source)
            if isinstance(held, np.ndarray):
                assert np.array_equal(held, source) and not held.flags.writeable
            elif is_dataclass(held):  # a scene holds value types
                for f in fields(held):
                    check(getattr(held, f.name), getattr(source, f.name))
            else:
                assert held == source

        check(clone(value), value)

    def test_a_solve_returns_read_only_estimates(self):
        Y = HyperspectralImage(np.linspace(0.1, 0.9, 12).reshape(3, 4), 2, 2)
        A0, S0 = random_init(3, 2, 4, seed=0)
        result = run_unmixing(Y, UnmixingConfig(variant="nmf", max_iter=3), A0, S0)
        for array in (result.A.data, result.S.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0


class TestUnmixingConfig:
    def test_defaults_valid(self):
        cfg = UnmixingConfig()
        assert cfg.mu == 0.02
        assert cfg.eta == 0.1
        assert cfg.q == 1.0
        assert cfg.max_iter == 1000
        assert cfg.eps == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.0},
            {"mu": -1.0},
            {"eta": -0.5},
            {"q": 0.0},
            {"q": 1.5},
            {"max_iter": 0},
            {"max_iter": 2.5},
            {"eps": -1e-8},
            {"eps": np.inf},
            {"variant": "unknown"},
            {"variant": None},
            {"sparsity_weight": -0.1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            UnmixingConfig(**kwargs)

    def test_variant_member_is_stored_as_its_name(self):
        cfg = UnmixingConfig(variant=AlgorithmVariant.NMF)
        assert type(cfg.variant) is str
        assert cfg.variant == "nmf"

    def test_proposed_alias_is_stored_as_the_variant_it_names(self):
        cfg = UnmixingConfig(variant="proposed")
        assert type(cfg.variant) is str
        assert cfg.variant == AlgorithmVariant.CLUSTERED_SPARSE_DISTRIBUTED.value


@pytest.mark.parametrize("shape", [(224, 1600), (100, 2500), (5, 1600), (224, 37)])
def test_column_sq_norms_equal_the_sum_of_squares_bit_for_bit(shape):
    # on C-ordered arrays the einsum reduction sums each column in the order
    # of (x * x).sum(axis=0), so swapping one for the other keeps every bit
    x = np.random.default_rng(shape[1]).random(shape)
    assert np.array_equal(column_sq_norms(x), (x * x).sum(axis=0))


@pytest.mark.parametrize("seed", range(10))
def test_column_sq_norms_equal_the_sum_of_squares_on_synthetic_scenes(seed):
    Y = generate_synthetic(bundled_library(), 6, width=40, height=40, seed=seed).Y.data
    assert np.array_equal(column_sq_norms(Y), (Y * Y).sum(axis=0))


def _noisy_scene():
    # at 5 dB the noise scaling truncates entries and runs several rounds;
    # a 1-byte block makes every one of the 224 band rows its own block
    scene = generate_synthetic(bundled_library(), 4, width=12, height=10, patch=4,
                               filter_size=3, snr_db=5.0, seed=3)
    assert (scene.Y.data == 0).any()
    return scene.Y.data, scene.noise


def _recomputed_distances():
    # 6 spectra that differ by about 1e-9 relative, repeated over 200 pixels:
    # every one of the 1200 distances lies below the Gram form's rounding
    # bound and is recomputed, one entry per chunk at a 1-byte block
    rng = np.random.default_rng(24)
    spectra = (rng.random((100, 1)) + 0.05) * (1 + 1e-9 * rng.random((1, 6)))
    d2 = clustering._sq_distances(spectra[:, rng.integers(0, 6, size=200)], spectra)
    assert (d2 == 0).sum() == 200 and (d2 > 0).any()
    return (d2,)


def _sparsity_weight():
    # a 1-byte block makes every one of the 224 band rows its own block
    Y = generate_synthetic(bundled_library(), 6, 37, 23, snr_db=25.0, seed=0).Y
    return (np.float64(estimate_sparsity_weight(Y)),)


def _pull():
    # three random clusters, so some weights are zero; a 1-byte block makes
    # every pixel its own block
    rng = np.random.default_rng(2)
    Y = HyperspectralImage(rng.random((4, 1600)) + 0.05, 40, 40)
    labels = rng.integers(0, 3, size=1600)
    memberships = np.full((3, 1600), 0.1)
    memberships[labels, np.arange(1600)] = 0.8
    graph = coupling(neighbor_weights(Y, ClusterAssignment(labels, memberships, np.ones((4, 3)))), 0.1)
    return (coupling_pull(graph, rng.dirichlet(np.ones(5), size=1600).T),)


# the blocked passes whose bits do not depend on the block size
@pytest.mark.parametrize("run", [_noisy_scene, _recomputed_distances, _sparsity_weight, _pull],
                         ids=["noise-scaling", "fcm-recompute", "sparsity-weight", "pull"])
def test_a_tiny_block_size_gives_the_bits_of_the_default(monkeypatch, run):
    default = run()
    monkeypatch.setattr(types, "BLOCK_BYTES", 1)
    for got, want in zip(run(), default):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, unit_bytes, block_bytes, stops", [
    (10, 3, 9, [3, 6, 9, 10]),  # three units a block, the last one clamped to n
    (4, 5, 4, [1, 2, 3, 4]),    # a unit larger than a block still makes one
    (7, 2, 64, [7]),
    (0, 8, 64, []),
])
def test_blocks_cut_the_range_in_order(monkeypatch, n, unit_bytes, block_bytes, stops):
    monkeypatch.setattr(types, "BLOCK_BYTES", block_bytes)
    parts = types.blocks(n, unit_bytes)
    assert [(b.start, b.stop) for b in parts] == list(zip([0] + stops[:-1], stops))


def test_one_block_size_sets_the_blocks_of_every_pass(monkeypatch):
    counts = {}

    def counted(n, unit_bytes):
        parts = types.blocks(n, unit_bytes)
        counts[sys._getframe(1).f_code.co_name] = len(parts)
        return parts

    for module in (clustering, initialize, regularizers, synth, unmix):
        monkeypatch.setattr(module, "blocks", counted)

    def run_every_pass():
        counts.clear()
        scene = generate_synthetic(bundled_library(), 6, 40, 40, snr_db=25.0, seed=0)
        Y, A, S = scene.Y, scene.A_true.data, scene.S_true.data
        unmix.signature_step(Y.data, A, S, S @ S.T)
        estimate_sparsity_weight(Y)
        coupling_pull(coupling(neighbor_weights(Y), 0.1), S)
        initialize.vca(Y, 6)
        _recomputed_distances()
        return dict(counts)

    default = run_every_pass()
    # 16 band rows of the 40 x 40 image, the fewest the signature step splits
    monkeypatch.setattr(types, "BLOCK_BYTES", 16 * 1600 * 8)
    shrunk = run_every_pass()
    assert set(default) == {"signature_step", "estimate_sparsity_weight", "coupling_pull", "vca",
                            "_sq_distances", "_scaled_truncated_noise"}
    assert all(shrunk[name] > default[name] for name in default), (default, shrunk)


def test_only_types_holds_the_block_size():
    names = [info.name for info in pkgutil.iter_modules(hsunmix.__path__)]
    holders = [name for name in names if "BLOCK_BYTES" in vars(importlib.import_module(f"hsunmix.{name}"))]
    assert holders == ["types"]
