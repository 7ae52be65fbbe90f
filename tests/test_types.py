"""Core data structures: images, signatures, abundances, neighborhoods."""

import copy
import pickle
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from hsunmix.initialize import random_init
from hsunmix.regularizers import OFFSETS, build_neighborhood
from hsunmix.synth import generate_synthetic
from hsunmix.types import (
    AbundanceMatrix,
    AlgorithmVariant,
    ClusterAssignment,
    HyperspectralImage,
    SignatureMatrix,
    UnmixingConfig,
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


class TestSignatureAndAbundanceMatrices:
    def test_signature_rejects_negative(self):
        with pytest.raises(ValueError):
            SignatureMatrix(np.array([[1.0, -0.1], [0.5, 0.5]]))

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
