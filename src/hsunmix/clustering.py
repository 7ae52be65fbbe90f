"""Fuzzy c-means clustering of pixel spectra.

Alternates the closed-form membership and center updates until the largest
membership change drops below a tolerance. Used to split the pixel network
into spectrally coherent groups before cooperative unmixing. Distances come
from one pairwise call that sums explicit differences: exact zeros where a
pixel equals a center, and C x N memory.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.spatial.distance import cdist

from .types import ClusterAssignment, as_integer, as_matrix

# defaults of fcm's settings, read by the experiment spec and the ``cluster``
# and ``unmix`` commands; fcm itself takes the cluster count explicitly
FCM_CLUSTERS = 6
FCM_M = 2.0  # fuzzifier
FCM_TOL = 1e-6  # largest membership change that stops the iteration
FCM_MAX_ITER = 300


def fcm(
    Y,
    n_clusters: int,
    m: float = FCM_M,
    tol: float = FCM_TOL,
    max_iter: int = FCM_MAX_ITER,
    seed: int = 0,
    initial_centers: Optional[np.ndarray] = None,
    on_iteration: Optional[Callable[[int, np.ndarray, np.ndarray, float], None]] = None,
) -> ClusterAssignment:
    """Cluster the pixel spectra of Y into ``n_clusters`` fuzzy groups.

    Memberships follow the inverse-distance rule
    u_ck proportional to (1 / ||y_k - v_c||^2)^(1/(m-1)), centers are the
    membership^m weighted means. A pixel coinciding exactly with a center
    gets full membership in the first such cluster. Centers start at
    ``n_clusters`` distinct random pixels unless ``initial_centers`` (an
    L x C array) is supplied.

    ``on_iteration`` receives (iteration, memberships, centers, objective)
    after every center update; the objective is the weighted squared
    distortion and never increases between iterations.
    """
    arr = as_matrix(Y, "image")
    n_bands, n_pixels = arr.shape
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must be finite")
    if not (1 <= n_clusters <= n_pixels):
        raise ValueError("n_clusters must lie in [1, pixel count]")
    check_fcm_settings(m, tol, max_iter)

    if initial_centers is not None:
        centers = np.array(initial_centers, dtype=np.float64)
        if centers.shape != (n_bands, n_clusters):
            raise ValueError(f"initial_centers must have shape ({n_bands}, {n_clusters})")
    else:
        rng = np.random.default_rng(seed)
        picks = rng.choice(n_pixels, size=n_clusters, replace=False)
        centers = arr[:, picks]

    memberships = None
    for iteration in range(1, max_iter + 1):
        new_u = _memberships(arr, centers, m)
        centers = _centers(arr, new_u, m, centers)
        if on_iteration is not None:
            on_iteration(iteration, new_u, centers, fcm_objective(arr, new_u, centers, m))
        if memberships is not None and np.max(np.abs(new_u - memberships)) < tol:
            memberships = new_u
            break
        memberships = new_u

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
    return float(np.sum(u**m * _sq_distances(arr, v)))


def _sq_distances(arr: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # C x N, summed from explicit differences: a pixel equal to a center gets
    # the exact zero that the coincidence rule in _memberships relies on.
    return cdist(centers.T, arr.T, "sqeuclidean")


def _memberships(arr: np.ndarray, centers: np.ndarray, m: float) -> np.ndarray:
    d2 = _sq_distances(arr, centers)
    n_clusters, n_pixels = d2.shape
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
