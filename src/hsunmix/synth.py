"""Synthetic scene generation for controlled unmixing experiments.

A scene starts from randomly chosen library signatures, lays them out in
square single-material patches, smooths the abundance planes with a uniform
filter to create mixed pixels, caps the maximum purity, and adds white
Gaussian noise scaled to an exact signal-to-noise ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.ndimage import uniform_filter

from .fileio import read_spectral_library
from .types import (
    AbundanceMatrix,
    HyperspectralImage,
    SignatureMatrix,
    as_matrix,
)

_SNR_BISECT_TOL_DB = 1e-9


@dataclass(frozen=True)
class SyntheticScene:
    """A generated scene together with its ground truth.

    ``noise`` is the realized additive noise; the observed image satisfies
    Y = A_true @ S_true + noise bit for bit.
    """

    Y: HyperspectralImage
    A_true: SignatureMatrix
    S_true: AbundanceMatrix
    snr_db: float
    noise: np.ndarray

    def __post_init__(self):
        noise = np.asarray(self.noise, dtype=np.float64)
        object.__setattr__(self, "noise", noise)
        product = self.A_true.data @ self.S_true.data
        if not np.array_equal(self.Y.data, product + noise):
            raise ValueError("Y must equal A_true @ S_true + noise exactly")


def generate_synthetic(
    library,
    c: int,
    width: int = 40,
    height: int = 40,
    patch: int = 8,
    filter_size: int = 7,
    snr_db: float = 25.0,
    purity_cap: float = 0.8,
    seed: int = 0,
) -> SyntheticScene:
    """Generate a width x height scene mixing ``c`` random library signatures.

    The grid is tiled into ``patch`` x ``patch`` blocks, each assigned to a
    single signature; when there are at least ``c`` blocks, every signature
    is guaranteed at least one block so the ground truth never contains an
    endmember that is absent from the scene. The one-hot abundance planes
    are smoothed with a ``filter_size`` x ``filter_size`` uniform filter
    (replicated edges) and renormalized. Columns whose maximum abundance
    exceeds ``purity_cap`` are blended toward the uniform mixture at the
    smallest rate that satisfies the cap (set ``purity_cap=1`` to disable).

    Noise is white Gaussian, truncated where it would push an entry of Y
    below zero and rescaled so that

        10*log10(||A S||_F^2 / ||noise||_F^2) == snr_db

    holds to within 1e-9 dB. ``snr_db=inf`` produces a noise-free scene.
    All randomness comes from ``seed``.
    """
    lib = as_matrix(library, "library")
    wavelengths = getattr(library, "wavelengths", None)
    n_bands, n_available = lib.shape
    if not (1 <= c <= n_available):
        raise ValueError(f"c must lie in [1, {n_available}]")
    if width < 1 or height < 1:
        raise ValueError("scene dimensions must be positive")
    if patch < 1:
        raise ValueError("patch must be positive")
    if filter_size < 1 or filter_size % 2 == 0:
        raise ValueError("filter_size must be odd and positive")
    if not (0 < purity_cap <= 1):
        raise ValueError("purity_cap must lie in (0, 1]")
    if purity_cap < 1.0 and purity_cap < 1.0 / c:
        raise ValueError("purity_cap below 1/c cannot be satisfied")
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError("snr_db must be a finite value or +inf")

    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n_available, size=c, replace=False))
    A = lib[:, chosen].copy()

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
    planes = uniform_filter(planes, size=(1, filter_size, filter_size), mode="nearest")
    # the moving average of a 0/1 plane lives in [0, 1]; rounding can leave
    # values a few ulp outside, which the simplex constraint does not forgive
    planes = np.maximum(planes, 0.0)
    S = planes.reshape(c, width * height)
    S = S / S.sum(axis=0)

    if purity_cap < 1.0:
        peak = S.max(axis=0)
        over = peak > purity_cap
        if np.any(over):
            # blend toward the uniform mixture; the tiny overshoot keeps the
            # capped maximum at or below the cap after rounding
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

    names = None
    if getattr(library, "names", None) is not None:
        names = [library.names[j] for j in chosen]
    image = HyperspectralImage(Y, width, height, wavelengths=wavelengths)
    return SyntheticScene(
        Y=image,
        A_true=SignatureMatrix(A, wavelengths=wavelengths, names=names),
        S_true=AbundanceMatrix(S),
        snr_db=float(snr_db),
        noise=noise,
    )


def bundled_library() -> SignatureMatrix:
    """The spectral library shipped with the package.

    Eight smooth reflectance spectra on 224 bands, entries in [0, 1], every
    pair separated by more than 0.3 rad of spectral angle.
    """
    path = resources.files("hsunmix.data").joinpath("library.csv")
    with resources.as_file(path) as p:
        return read_spectral_library(p)


def _scaled_truncated_noise(product: np.ndarray, draw: np.ndarray, snr_db: float) -> np.ndarray:
    """Scale ``draw`` so the realized SNR after truncation matches ``snr_db``.

    Entries that would push ``product + noise`` below zero are replaced by
    ``-product`` (the observed entry becomes exactly zero). Truncation only
    shrinks the noise, so the scale is found by growing it and bisecting on
    the realized noise energy, which increases monotonically with the scale.
    """
    signal_energy = float(np.sum(product * product))
    if signal_energy == 0:
        raise ValueError("cannot scale noise against an all-zero scene")
    target = signal_energy / 10.0 ** (snr_db / 10.0)

    def realized(alpha: float) -> tuple[np.ndarray, float]:
        scaled = alpha * draw
        noise = np.where(product + scaled < 0, -product, scaled)
        return noise, float(np.sum(noise * noise))

    draw_energy = float(np.sum(draw * draw))
    if draw_energy == 0:
        raise ValueError("noise draw is all zero")
    lo = float(np.sqrt(target / draw_energy))
    noise, energy = realized(lo)
    if _db_error(signal_energy, energy, snr_db) <= _SNR_BISECT_TOL_DB:
        return noise
    hi = lo
    for _ in range(200):
        hi *= 2.0
        _, energy = realized(hi)
        if energy >= target:
            break
    else:
        raise ValueError("failed to bracket the noise scale")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        noise, energy = realized(mid)
        if _db_error(signal_energy, energy, snr_db) <= _SNR_BISECT_TOL_DB:
            return noise
        if energy < target:
            lo = mid
        else:
            hi = mid
    return noise


def _db_error(signal_energy: float, noise_energy: float, snr_db: float) -> float:
    if noise_energy == 0:
        return np.inf
    return abs(10.0 * np.log10(signal_energy / noise_energy) - snr_db)
