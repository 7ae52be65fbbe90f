"""Regularization building blocks: sparsity weight, similarity weights, simplex projection.

These are the small numerical kernels the solver composes: a data-driven
estimate of the sparsity penalty weight, cosine-similarity weights over the
pixel neighborhood, the Euclidean projection onto the unit simplex, and the
(sub)gradient of the q-norm sparsity penalty.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDataError
from .types import HyperspectralImage, NeighborhoodSystem, as_matrix

SPARSITY_GUARD = 1e-12  # keeps the q-norm gradient finite at exact zeros

# Inputs already nonnegative with column sums this close to 1 are returned
# unchanged by the simplex projection, which makes it exactly idempotent in
# floating point. The slack is far below every consumer tolerance.
_FEASIBLE_SLACK = 64 * np.finfo(np.float64).eps

# Below this size (2^52), x + (1 - x) rounds to about 1 for every float x;
# from 2^53 on it can round to 0.
_SHIFT_BOUND = 1.0 / np.finfo(np.float64).eps


def estimate_sparsity_weight(Y) -> float:
    """Data-driven weight for the sparsity penalty.

    Averages, over band rows y of the image matrix, the normalized gap
    between sqrt(N) and the l1/l2 ratio of the row:

        (1 / sqrt(L)) * sum_rows (sqrt(N) - |y|_1 / |y|_2) / sqrt(N - 1)

    A single-pixel image has no spread to measure, so the weight is 0.
    """
    arr = as_matrix(Y, "image")
    n_bands, n_pixels = arr.shape
    if n_pixels == 1:
        return 0.0
    l1 = np.abs(arr).sum(axis=1)
    l2 = np.sqrt((arr * arr).sum(axis=1))
    if np.any(l2 == 0):
        raise ValueError("image has an all-zero band row")
    terms = (np.sqrt(n_pixels) - l1 / l2) / np.sqrt(n_pixels - 1)
    return float(max(terms.sum() / np.sqrt(n_bands), 0.0))


def spectral_angle_cos(a, b) -> float:
    """Cosine similarity of two spectra; both must be nonzero."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("spectra must have equal length")
    na2 = float(a @ a)
    nb2 = float(b @ b)
    if na2 == 0 or nb2 == 0:
        raise ValueError("cosine similarity of a zero vector is undefined")
    # sqrt of the product (not product of sqrts) makes identical inputs
    # yield exactly 1, so downstream angles of self-pairs are exactly 0
    return float(a @ b) / float(np.sqrt(na2 * nb2))


def neighbor_weights(Y, nbhd: NeighborhoodSystem) -> NeighborhoodSystem:
    """Attach cosine-similarity weights, normalized over each neighbor list.

    The weight of neighbor j for pixel k is the cosine similarity of their
    spectra divided by the summed similarity over all neighbors of k, so the
    weights of every pixel with neighbors sum to 1.
    """
    arr = as_matrix(Y, "image")
    n = arr.shape[1]
    if nbhd.n_pixels != n:
        raise ValueError("neighborhood size does not match the pixel count")
    norms = np.sqrt((arr * arr).sum(axis=0))
    if np.any(norms == 0):
        raise ValueError("image contains a zero-spectrum pixel")
    if nbhd.indices.size == 0:
        return nbhd.with_weights(np.zeros(0))
    src = np.repeat(np.arange(n), np.diff(nbhd.indptr))
    dst = nbhd.indices
    dots = np.einsum("ij,ij->j", arr[:, src], arr[:, dst])
    theta = dots / (norms[src] * norms[dst])
    denom = np.add.reduceat(theta, nbhd.indptr[:-1])
    degrees = np.diff(nbhd.indptr)
    if np.any((degrees > 0) & (denom[: degrees.size] == 0)):
        raise DegenerateDataError("a pixel has zero total similarity to its neighbors")
    return nbhd.with_weights(theta / denom[src])


def project_simplex_columns(V) -> np.ndarray:
    """Euclidean projection of every column of V onto the unit simplex.

    Sort-based thresholding, O(c log c) per column. Columns that already
    satisfy the constraints (nonnegative, sum within a few ulps of 1) are
    returned unchanged, so the projection is exactly idempotent.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError("expected a 2-D array of column vectors")
    c, n = V.shape
    feasible = (V >= 0).all(axis=0) & (np.abs(V.sum(axis=0) - 1.0) <= _FEASIBLE_SLACK)
    if feasible.all():
        return V.copy()
    # The projection commutes with shifts along the ones vector. A column
    # whose largest entry reaches _SHIFT_BOUND in size is measured from that
    # entry, so its top entry is exactly 0 and the first rank qualifies;
    # unshifted, u + (1 - u) can round to 0 there. Smaller columns stay in
    # place, bit for bit, because the first rank always qualifies for them.
    top = V.max(axis=0)
    X = V - np.where(np.abs(top) < _SHIFT_BOUND, 0.0, top)
    u = np.sort(X, axis=0)[::-1]
    css = np.cumsum(u, axis=0)
    ranks = np.arange(1, c + 1, dtype=np.float64)[:, None]
    # the indices where this holds form a prefix of the sorted column
    positive = u + (1.0 - css) / ranks > 0
    rho = positive.sum(axis=0) - 1
    tau = (1.0 - css[rho, np.arange(n)]) / (rho + 1.0)
    out = np.maximum(X + tau, 0.0)
    out[:, feasible] = V[:, feasible]
    return out


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of one vector onto the unit simplex."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    return project_simplex_columns(v[:, None])[:, 0]


def sparsity_norm(s, q: float, guard: float = SPARSITY_GUARD):
    """Guarded q-norm: (sum_i (|s_i| + guard)^q)^(1/q).

    Accepts a vector or a matrix of column vectors (reduction over axis 0).
    """
    _check_q_guard(q, guard)
    s = np.asarray(s, dtype=np.float64)
    return ((np.abs(s) + guard) ** q).sum(axis=0) ** (1.0 / q)


def sparsity_gradient(s, q: float, guard: float = SPARSITY_GUARD) -> np.ndarray:
    """Gradient of the q-norm sparsity penalty.

    For q < 1, guarded against zeros, componentwise
    s_i * (|s_i| + guard)^(q-2) / (sum_j (|s_j| + guard)^q)^((q-1)/q).

    For q = 1 the penalty is the l1 norm, whose gradient on the nonnegative
    orthant is exactly 1 at zero and positive entries (-1 at negative ones).
    On the simplex the l1 norm is constant, so this all-ones gradient is a
    uniform shift that the simplex projection cancels: after projection a
    q = 1 step changes nothing and promotes no sparsity. Only q < 1 does.

    Accepts a vector or a matrix of column vectors.
    """
    _check_q_guard(q, guard)
    s = np.asarray(s, dtype=np.float64)
    if q == 1.0:
        return np.where(s < 0, -1.0, 1.0)
    base = np.abs(s) + guard
    num = s * base ** (q - 2.0)
    den = (base**q).sum(axis=0) ** ((q - 1.0) / q)
    return num / den


def _check_q_guard(q: float, guard: float) -> None:
    if not (0 < q <= 1):
        raise ValueError("q must lie in (0, 1]")
    if not (guard > 0):
        raise ValueError("guard must be positive")
