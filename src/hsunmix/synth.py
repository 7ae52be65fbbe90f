"""Synthetic scene generation for controlled unmixing experiments.

A scene starts from randomly chosen library signatures, lays them out in
square single-material patches, smooths the abundance planes with a moving
average to create mixed pixels, caps the maximum purity, and adds white
Gaussian noise scaled to an exact signal-to-noise ratio. The moving average
takes its sums in the order of SciPy's ``ndimage.uniform_filter`` with
``mode="nearest"``, so it gives the same bits without importing SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .fileio import read_spectral_library
from .types import (
    AbundanceMatrix,
    HyperspectralImage,
    SignatureMatrix,
    _Value,
    blocks,
    read_only,
)

# scene defaults, read by the experiment spec and the ``synth`` and ``unmix`` commands
SCENE_ENDMEMBERS = 6
SCENE_WIDTH = 40
SCENE_HEIGHT = 40
SCENE_PATCH = 8  # side of the single-material blocks
SCENE_FILTER = 7  # side of the smoothing window
SCENE_PURITY_CAP = 0.8


@dataclass(frozen=True)
class SyntheticScene(_Value):
    """A generated scene together with its ground truth.

    ``A_true`` carries the chosen library columns' wavelengths and names.
    ``noise`` is the realized additive noise; :func:`generate_synthetic`
    forms the observed image as Y = A_true @ S_true + noise, so the two
    agree bit for bit. It is read-only, like the arrays of the value types.
    """

    Y: HyperspectralImage
    A_true: SignatureMatrix
    S_true: AbundanceMatrix
    noise: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "noise", read_only(self.noise))


def generate_synthetic(
    library,
    c: int,
    width: int = SCENE_WIDTH,
    height: int = SCENE_HEIGHT,
    patch: int = SCENE_PATCH,
    filter_size: int = SCENE_FILTER,
    snr_db: float = 25.0,
    purity_cap: float = SCENE_PURITY_CAP,
    seed: int = 0,
) -> SyntheticScene:
    """Generate a width x height scene mixing ``c`` random library signatures.

    The grid is tiled into ``patch`` x ``patch`` blocks, each assigned to a
    single signature; when there are at least ``c`` blocks, every signature
    is guaranteed at least one block so the ground truth never contains an
    endmember that is absent from the scene. The one-hot abundance planes
    are smoothed with a ``filter_size`` x ``filter_size`` moving average
    (replicated edges, :func:`_moving_average`) and renormalized. Columns
    whose maximum abundance exceeds ``purity_cap`` are blended toward the
    uniform mixture at the smallest rate that satisfies the cap (set
    ``purity_cap=1`` to disable).

    Noise is white Gaussian, truncated where it would push an entry of Y
    below zero and rescaled so that

        10*log10(||A S||_F^2 / ||noise||_F^2) == snr_db

    holds exactly up to rounding: the scale is solved in closed form for
    the truncated entries and solved again while that set keeps growing.
    ``snr_db=inf`` produces a noise-free scene.
    All randomness comes from ``seed``.
    """
    library = library if isinstance(library, SignatureMatrix) else SignatureMatrix(library)
    n_available = library.data.shape[1]
    check_scene_settings(c, width, height, patch, filter_size, snr_db, purity_cap)
    if c > n_available:
        raise ValueError(f"c must lie in [1, {n_available}]")

    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n_available, size=c, replace=False))
    A = library.data[:, chosen]

    blocks_y = -(-height // patch)
    blocks_x = -(-width // patch)
    assignment = rng.integers(0, c, size=(blocks_y, blocks_x))
    if assignment.size >= c:
        # every selected signature must actually appear in the scene, or the
        # ground truth would contain an endmember that no method could see
        flat = assignment.ravel()
        flat[rng.choice(assignment.size, size=c, replace=False)] = rng.permutation(c)
    label_img = np.repeat(np.repeat(assignment, patch, axis=0), patch, axis=1)
    label_img = label_img[:height, :width]

    planes = (label_img[None, :, :] == np.arange(c)[:, None, None]).astype(np.float64)
    planes = _moving_average(planes, filter_size)
    # the moving average of a 0/1 plane lives in [0, 1]; rounding can leave
    # values a few ulp outside, which the simplex constraint does not forgive
    planes = np.maximum(planes, 0.0)
    S = planes.reshape(c, width * height)
    S = S / S.sum(axis=0)

    peak = S.max(axis=0)
    over = peak > purity_cap
    # blend toward the uniform mixture; the tiny overshoot keeps the capped
    # maximum at or below the cap after rounding. At purity_cap = 1 no column
    # is over: a normalized nonnegative column never exceeds 1.
    beta = (peak[over] - purity_cap) / (peak[over] - 1.0 / c)
    beta = np.minimum(beta * (1.0 + 1e-12), 1.0)
    S[:, over] = (1.0 - beta) * S[:, over] + beta / c

    product = A @ S
    if np.isinf(snr_db):
        noise = np.zeros_like(product)
    else:
        noise = _scaled_truncated_noise(
            product, rng.standard_normal(product.shape), snr_db
        )
    Y = product + noise

    names = None if library.names is None else [library.names[j] for j in chosen]
    return SyntheticScene(
        Y=HyperspectralImage(Y, width, height),
        A_true=SignatureMatrix(A, wavelengths=library.wavelengths, names=names),
        S_true=AbundanceMatrix(S),
        noise=noise,
    )


def check_scene_settings(c: int, width: int, height: int, patch: int, filter_size: int,
                         snr_db: float, purity_cap: float) -> None:
    """Raise ``ValueError`` on settings that ``generate_synthetic`` rejects for any library."""
    if c < 1:
        raise ValueError("c must be at least 1")
    if width < 1 or height < 1:
        raise ValueError("scene dimensions must be positive")
    if patch < 1:
        raise ValueError("patch must be positive")
    if filter_size < 1 or filter_size % 2 == 0:
        raise ValueError("filter_size must be odd and positive")
    if not (0 < purity_cap <= 1):
        raise ValueError("purity_cap must lie in (0, 1]")
    if purity_cap < 1.0 / c:
        raise ValueError("purity_cap below 1/c cannot be satisfied")
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError("snr_db must be a finite value or +inf")
    if np.isfinite(snr_db) and not 0 < _power_ratio(snr_db) < math.inf:
        raise ValueError(f"snr_db = {snr_db:g} gives a power ratio beyond the range of a double")


def bundled_library() -> SignatureMatrix:
    """The spectral library shipped with the package.

    Eight smooth reflectance spectra on 224 bands, entries in [0, 1], every
    pair separated by more than 0.3 rad of spectral angle.
    """
    path = resources.files("hsunmix.data").joinpath("library.csv")
    with resources.as_file(path) as p:
        return read_spectral_library(p)


def _power_ratio(snr_db: float) -> float:
    """|A S|^2 / |noise|^2 at ``snr_db``: 10^(snr_db / 10), inf where that overflows."""
    try:
        return 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        return math.inf


def _moving_average(planes: np.ndarray, f: int) -> np.ndarray:
    """Mean over the f x f window around each pixel of every plane, edges repeated.

    Each line along axis 1, then along axis 2, is extended by f // 2 copies
    of its first entry and f - f // 2 - 1 of its last. The first window is
    summed from zero, each next one adds the entry entering the window minus
    the one leaving it (a sequential ``cumsum``), and every sum is divided by
    f. This is the order of SciPy's ``uniform_filter1d``, so the result
    matches ``uniform_filter(planes, size=(1, f, f), mode="nearest")`` bit
    for bit; a running mean or the other axis order would not.
    """
    if f == 1:
        return planes
    for axis in (1, 2):
        lines = np.moveaxis(planes, axis, -1)
        n = lines.shape[-1]
        ext = lines[..., np.clip(np.arange(-(f // 2), n + f - f // 2 - 1), 0, n - 1)]
        sums = np.cumsum(np.concatenate([ext[..., :f], ext[..., f:] - ext[..., :n - 1]], axis=-1), axis=-1)
        planes = np.moveaxis(sums[..., f - 1:] / f, -1, axis)
    return planes


def _scaled_truncated_noise(product: np.ndarray, draw: np.ndarray, snr_db: float) -> np.ndarray:
    """Scale ``draw`` so the realized SNR after truncation matches ``snr_db``.

    Entries that would push ``product + noise`` below zero are replaced by
    ``-product`` (the observed entry becomes exactly zero). For a fixed set T
    of truncated entries the noise energy is a^2 sum_{not T} d^2 + sum_T p^2,
    so the scale a has a closed form. Starting from T empty, the scale is
    solved, the entries it truncates join T, and the step repeats until T
    stops growing; T only grows, so this ends, and the scale never shrinks,
    so every entry of T stays truncated at the final scale.

    ``draw`` is scaled in place and returned as the noise. The truncation
    test and the clipping run over the row blocks of ``types.blocks``, so the
    only image-sized temporaries are the squares summed for the energies,
    one at a time.
    """
    signal_energy = float(np.sum(product * product))
    if signal_energy == 0:
        raise ValueError("cannot scale noise against an all-zero scene")
    target = signal_energy / _power_ratio(snr_db)
    if not math.isfinite(target):
        raise ValueError(f"snr_db = {snr_db:g} asks for a noise energy beyond the range of a double")

    truncated_energy, free_energy = 0.0, float(np.sum(draw * draw))
    parts = blocks(len(draw), draw[0].nbytes)
    truncated = np.zeros(product.shape, dtype=bool)
    grown = np.empty_like(truncated)
    while True:
        if free_energy == 0:
            raise ValueError("no untruncated noise entry is left to scale")
        scale = np.sqrt((target - truncated_energy) / free_energy)
        for b in parts:
            np.logical_or(truncated[b], scale * draw[b] < -product[b], out=grown[b])
        if np.array_equal(grown, truncated):
            break
        truncated, grown = grown, truncated
        truncated_energy = float(np.sum(product[truncated] ** 2))
        free_energy = float(np.sum(np.square(draw), where=~truncated))
    # p + s < 0 exactly when s < -p, so this is the truncation rule above
    noise = np.multiply(scale, draw, out=draw)
    for b in parts:
        np.maximum(noise[b], -product[b], out=noise[b])
    return noise
