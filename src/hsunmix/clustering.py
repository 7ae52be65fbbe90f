"""Fuzzy c-means clustering of pixel spectra.

Alternates the closed-form membership and center updates until the largest
membership change drops below a tolerance. Used to split the pixel network
into spectrally coherent groups before cooperative unmixing.

Squared distances come in Gram form, ||y||^2 + ||v||^2 - 2 v.y: one matrix
product per iteration, with the pixel norms formed once per call. The form
cancels where a pixel lies near a center, so a pixel equal to a center would
get a rounding residue instead of the exact zero that the coincidence rule
needs. Every entry that rounding could have brought down from zero is
therefore recomputed from explicit differences. The threshold comes from the
worst-case rounding bound of a length-L dot product (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., section 3.1), which grows like
L eps; it is not a tuned constant.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import NumericalFailureError
from .types import ClusterAssignment, HyperspectralImage, as_integer, as_matrix, blocks, column_sq_norms

# defaults of fcm's settings, read by the experiment spec and the ``cluster``
# and ``unmix`` commands; fcm itself takes the cluster count explicitly
FCM_CLUSTERS = 6
FCM_M = 2.0  # fuzzifier
FCM_TOL = 1e-6  # largest membership change that stops the iteration
FCM_MAX_ITER = 300

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
_FLOAT_MAX = np.finfo(np.float64).max


def fcm(
    Y: HyperspectralImage,
    n_clusters: int,
    m: float = FCM_M,
    tol: float = FCM_TOL,
    max_iter: int = FCM_MAX_ITER,
    seed: int = 0,
    on_iteration: Optional[Callable[[int, np.ndarray, np.ndarray, float], None]] = None,
) -> ClusterAssignment:
    """Cluster the pixel spectra of the image Y into ``n_clusters`` fuzzy groups.

    Memberships follow the inverse-distance rule
    u_ck proportional to (1 / ||y_k - v_c||^2)^(1/(m-1)), centers are the
    membership^m weighted means. A pixel coinciding exactly with a center
    gets full membership in the first such cluster. Centers start at
    ``n_clusters`` distinct random pixels.

    ``on_iteration`` receives (iteration, memberships, centers, objective)
    after every center update; the objective is the weighted squared
    distortion and never increases between iterations.

    Pixels whose squared distances could overflow raise
    :class:`NumericalFailureError` before the first iteration.
    """
    if not isinstance(Y, HyperspectralImage):
        raise ValueError("Y must be a HyperspectralImage")
    arr, n_pixels = Y.data, Y.n_pixels
    if not (1 <= n_clusters <= n_pixels):
        raise ValueError("n_clusters must lie in [1, pixel count]")
    check_fcm_settings(m, tol, max_iter)

    rng = np.random.default_rng(seed)
    picks = rng.choice(n_pixels, size=n_clusters, replace=False)
    centers = arr[:, picks]

    y_sq = column_sq_norms(arr)
    # a center is a weighted mean of pixels, so no squared distance, and no
    # partial sum of one, exceeds 4 max |y|^2
    if not y_sq.max() <= _FLOAT_MAX / 4:
        raise NumericalFailureError("squared distances between the pixel spectra overflow")
    d2 = _sq_distances(arr, centers, y_sq)
    memberships = None
    for iteration in range(1, max_iter + 1):
        new_u = _memberships(d2, m)
        d2 = None  # freed before the next distances are formed
        centers = _centers(arr, new_u, m, centers)
        converged = memberships is not None and np.max(np.abs(new_u - memberships)) < tol
        memberships = new_u
        # the distances to the new centers serve the hook and the next
        # iteration; after the last one only the hook reads them
        if on_iteration is not None or not (converged or iteration == max_iter):
            d2 = _sq_distances(arr, centers, y_sq)
        if on_iteration is not None:
            on_iteration(iteration, new_u, centers, _distortion(new_u, d2, m))
        if converged:
            break

    labels = np.argmax(memberships, axis=0)
    return ClusterAssignment(labels, memberships, centers)


def check_fcm_settings(m: float, tol: float, max_iter: int) -> None:
    """Raise ``ValueError`` unless ``fcm`` accepts these m, tol and max_iter."""
    if not (m > 1):
        raise ValueError("fuzzifier m must exceed 1")
    if not np.isfinite(m):
        raise ValueError("fuzzifier m must be finite")
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if as_integer(max_iter, "max_iter") < 1:
        raise ValueError("max_iter must be at least 1")


def fcm_objective(Y, memberships: np.ndarray, centers: np.ndarray, m: float = FCM_M) -> float:
    """Weighted squared distortion sum_ck u_ck^m ||y_k - v_c||^2."""
    arr = as_matrix(Y, "image")
    u = np.asarray(memberships, dtype=np.float64)
    v = np.asarray(centers, dtype=np.float64)
    return _distortion(u, _sq_distances(arr, v), m)


def _distortion(u: np.ndarray, d2: np.ndarray, m: float) -> float:
    return float(np.sum(u**m * d2))


def _sq_distances(arr: np.ndarray, centers: np.ndarray, y_sq: Optional[np.ndarray] = None) -> np.ndarray:
    """C x N squared distances; exactly zero wherever a pixel equals a center.

    ``y_sq`` holds the pixel norms ``column_sq_norms(arr)`` when the caller has them.
    """
    if y_sq is None:
        y_sq = column_sq_norms(arr)
    n_bands = arr.shape[0]
    # Rounding bound: with gamma_n = n u / (1 - n u), a computed dot product of
    # length L lies within gamma_L |x|.|y| of its value, in any summation
    # order. So ||y||^2 and ||v||^2 err by at most gamma_L times themselves, 2 v.y
    # by gamma_L (||y||^2 + ||v||^2), and the two additions by 3 u times that
    # sum S: the Gram entry lies within (2 gamma_L + 3 u) S of d^2. tau =
    # 2 gamma_(L+2) exceeds that by at least u S, which covers the rounding of
    # S and of tau S themselves. sigma adds what gradual underflow can lose
    # absolutely: half the smallest subnormal for each of the 3 L products,
    # the cross products counted twice.
    # Where d^2 = 0 the Gram entry is at most tau S + sigma, so every exact
    # coincidence is recomputed from differences, which are exactly zero; an
    # entry above the bound is positive, so no zero is made up. A NaN from
    # overflowed norms fails the comparison and is recomputed too.
    n = n_bands + 2
    tau = 2.0 * n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    sigma = 2.0 * n_bands * _SMALLEST_SUBNORMAL
    d2 = centers.T @ arr
    d2 *= -2.0
    bound = column_sq_norms(centers)[:, None] + y_sq
    d2 += bound
    bound *= tau
    bound += sigma
    rows, cols = np.nonzero(~(d2 > bound))
    # each chunk of recomputed entries forms two L x chunk temporaries of at
    # most one block each
    for b in blocks(rows.size, arr.itemsize * n_bands):
        r, k = rows[b], cols[b]
        diff = arr[:, k]
        diff -= centers[:, r]
        d2[r, k] = column_sq_norms(diff)
    return d2


def _memberships(d2: np.ndarray, m: float) -> np.ndarray:
    """Memberships of the pixels in the clusters, from their C x N squared distances ``d2``."""
    coincident = d2 == 0.0
    hit = coincident.any(axis=0)
    power = 1.0 / (m - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (d2.min(axis=0) / d2) ** power
        u = scaled / scaled.sum(axis=0)
    if np.any(hit):
        cols = np.nonzero(hit)[0]
        u[:, cols] = 0.0
        u[np.argmax(coincident[:, cols], axis=0), cols] = 1.0
    return u


def _centers(arr: np.ndarray, u: np.ndarray, m: float, previous: np.ndarray) -> np.ndarray:
    w = u**m
    mass = w.sum(axis=1)
    # a cluster that attracted no mass keeps its previous center
    safe = np.where(mass > 0, mass, 1.0)
    return np.where(mass > 0, (arr @ w.T) / safe, previous)
