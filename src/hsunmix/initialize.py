"""Initial signature and abundance estimates.

``vca`` picks candidate endmembers directly from the data by repeatedly
projecting onto random directions orthogonal to the endmembers found so far;
``random_init`` draws a fully random starting point; ``fcls_abundances``
solves for the simplex-constrained least-squares abundances of fixed
signatures exactly, which is how the vca signatures are paired with a
starting abundance matrix.
"""

from __future__ import annotations

import warnings
from typing import Tuple

import numpy as np

from .errors import DegenerateDataError
from .types import (
    AbundanceMatrix,
    HyperspectralImage,
    SignatureMatrix,
    UnmixingConfig,
    as_matrix,
)
from .unmix import StopReason, run_unmixing


def vca(Y, c: int, seed: int = 0) -> SignatureMatrix:
    """Vertex component analysis: select ``c`` pixels as endmember candidates.

    The data are reduced to c-1 principal components of the mean-removed
    matrix plus a constant coordinate standing in for the mean direction.
    Each step draws a random direction, removes its component along the span
    of the endmembers selected so far, and keeps the pixel with the largest
    absolute projection onto what remains. The returned columns are actual
    pixels of Y. Deterministic for a fixed seed.
    """
    arr = as_matrix(Y, "image")
    n_bands, n_pixels = arr.shape
    if not (1 <= c <= min(n_bands, n_pixels)):
        raise ValueError(f"c must lie in [1, {min(n_bands, n_pixels)}]")
    rng = np.random.default_rng(seed)

    mean = arr.mean(axis=1, keepdims=True)
    if c == 1:
        norm = float(np.linalg.norm(mean))
        if norm == 0:
            raise DegenerateDataError("data is identically zero")
        scores = np.abs((mean.T / norm) @ arr).ravel()
        idx = np.array([int(np.argmax(scores))])
        return SignatureMatrix(arr[:, idx])

    centered = arr - mean
    # The subspace comes from the Gram matrix so that duplicating pixels
    # leaves the basis (and therefore the selection) unchanged.
    gram = centered @ centered.T / n_pixels
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    if eigvals[0] <= 0:
        raise DegenerateDataError("data has no spread around its mean")
    # eigenvalues of the Gram carry FP noise at a relative level of about
    # machine epsilon, so the rank test must compare eigenvalue ratios (not
    # their square roots, which would inflate that noise to ~1e-8)
    rel = eigvals[c - 2] / eigvals[0]
    if rel <= max(n_bands, n_pixels) * np.finfo(np.float64).eps:
        raise DegenerateDataError(
            f"data rank is below {c - 1}; cannot extract {c} endmembers"
        )
    basis = eigvecs[:, : c - 1]
    reduced = basis.T @ centered
    lift = float(np.max(np.sqrt((reduced * reduced).sum(axis=0))))
    z = np.vstack([reduced, np.full((1, n_pixels), lift)])

    selected = np.zeros((c, c))
    selected[-1, 0] = 1.0
    indices = np.zeros(c, dtype=np.int64)
    for i in range(c):
        while True:
            w = rng.standard_normal(c)
            f = w - selected @ (np.linalg.pinv(selected) @ w)
            norm = float(np.linalg.norm(f))
            if norm > 1e-12:
                break
        f /= norm
        projections = f @ z
        indices[i] = int(np.argmax(np.abs(projections)))
        selected[:, i] = z[:, indices[i]]

    return SignatureMatrix(arr[:, indices])


def random_init(
    n_bands: int, c: int, n_pixels: int, seed: int = 0
) -> Tuple[SignatureMatrix, AbundanceMatrix]:
    """Random starting point: signatures uniform on (0, 1], abundance columns
    uniform on the simplex (normalized exponential draws)."""
    if min(n_bands, c, n_pixels) < 1:
        raise ValueError("all dimensions must be positive")
    rng = np.random.default_rng(seed)
    A = 1.0 - rng.random((n_bands, c))
    e = rng.standard_exponential((c, n_pixels))
    S = e / e.sum(axis=0)
    return SignatureMatrix(A), AbundanceMatrix(S)


def fcls_abundances(Y: HyperspectralImage, signatures) -> AbundanceMatrix:
    """Fully constrained least-squares abundances for fixed signatures.

    Each column minimises |y_k - A s|^2 over the unit simplex, solved exactly
    by ``hsunmix.unmix.gram_fcls`` through ``run_unmixing``'s ``fcls``
    variant without start abundances, which forms A^T Y and A^T A once. If
    the kernel's pass cap stops a pixel short of the optimum, a
    ``RuntimeWarning`` says so; that pixel's column is still feasible.
    """
    A = as_matrix(signatures, "signatures")
    if not np.any(A):
        raise DegenerateDataError("signatures are identically zero")
    result = run_unmixing(Y, UnmixingConfig(variant="fcls"), A, None)
    if result.stop_reason is StopReason.MAX_ITER:
        warnings.warn("fcls_abundances: the pass cap stopped some pixels short of the "
                      "least-squares optimum; their abundances are feasible", RuntimeWarning)
    return result.S
