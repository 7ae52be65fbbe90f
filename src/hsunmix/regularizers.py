"""Regularization building blocks: pixel graph, sparsity weight, simplex projection.

These are the small numerical kernels the solver composes: the pixel graph
(the 8-connected grid adjacency and its cosine-similarity weights, gated by
cluster when asked), a data-driven estimate of the sparsity penalty weight,
the Euclidean projection onto the unit simplex, and the (sub)gradient of
the q-norm sparsity penalty.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix, diags, identity, kron

from .errors import DegenerateDataError
from .types import ClusterAssignment, as_matrix

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
        raise DegenerateDataError("image has an all-zero band row")
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


def build_neighborhood(width: int, height: int) -> csr_matrix:
    """8-connected adjacency of a width x height grid, pixels row-major.

    An N x N CSR matrix in canonical form (sorted columns, no duplicates)
    with a stored 1 for each neighbor pair, symmetric, with an empty
    diagonal. Interior pixels get 8 neighbors, edge pixels 5, corner pixels
    3. A 1x1 grid yields an empty matrix.

    The king-move grid is (B_h kron B_w) - I, with B_m the m x m tridiagonal
    matrix of ones. Both terms are CSR, so the difference drops the
    cancelled diagonal; a default-format kron would keep it stored.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    band_h, band_w = (diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(m, m)) for m in (height, width))
    return kron(band_h, band_w, format="csr") - identity(width * height, format="csr")


def neighbor_weights(Y, adjacency, clusters: Optional[ClusterAssignment] = None) -> csr_matrix:
    """Cosine-similarity weights on the pattern of ``adjacency``, normalized per row.

    The weight of neighbor j for pixel k is the cosine similarity of their
    spectra divided by the summed similarity over all neighbors of k, so the
    weights of every pixel with neighbors sum to 1. The result has the
    stored entries of ``adjacency`` as its pattern; a pixel without
    neighbors keeps an empty row.

    With ``clusters`` given, the weights to neighbors in another cluster are
    then set to zero, kept as explicit zeros so the pattern stays, and the
    coupling only sees same-cluster neighbors; the remaining weights are not
    renormalized. The spectral dot products are formed N stored entries at
    a time, so the gathered spectra never exceed two copies of the image.
    """
    arr = as_matrix(Y, "image")
    n = arr.shape[1]
    adjacency = csr_matrix(adjacency)
    if adjacency.shape != (n, n):
        raise ValueError("neighborhood size does not match the pixel count")
    if clusters is not None and clusters.labels.shape != (n,):
        raise ValueError("clusters do not match the pixel count")
    norms = np.sqrt((arr * arr).sum(axis=0))
    if np.any(norms == 0):
        raise DegenerateDataError("image contains a zero-spectrum pixel")
    indptr, dst = adjacency.indptr, adjacency.indices
    degrees = np.diff(indptr)
    src = np.repeat(np.arange(n), degrees)
    dots = np.empty(dst.size)
    for start in range(0, dst.size, n):
        part = slice(start, start + n)
        dots[part] = np.einsum("ij,ij->j", arr[:, src[part]], arr[:, dst[part]])
    theta = dots / (norms[src] * norms[dst])
    # reduceat over the nonempty rows only: an empty row would read past theta
    nonempty = degrees > 0
    denom = np.zeros(n)
    denom[nonempty] = np.add.reduceat(theta, indptr[:-1][nonempty])
    if np.any(nonempty & (denom == 0)):
        raise DegenerateDataError("a pixel has zero total similarity to its neighbors")
    weights = theta / denom[src]
    if clusters is not None:
        weights = weights * (clusters.labels[src] == clusters.labels[dst])
    return csr_matrix((weights, dst, indptr), shape=(n, n))


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


def sparsity_norm(s, q: float):
    """Guarded q-norm: (sum_i (|s_i| + guard)^q)^(1/q), guard = ``SPARSITY_GUARD``.

    Accepts a vector or a matrix of column vectors (reduction over axis 0).
    """
    _check_q(q)
    s = np.asarray(s, dtype=np.float64)
    return ((np.abs(s) + SPARSITY_GUARD) ** q).sum(axis=0) ** (1.0 / q)


def sparsity_gradient(s, q: float) -> np.ndarray:
    """Gradient of the q-norm sparsity penalty.

    For q < 1, guarded against zeros by guard = ``SPARSITY_GUARD``, componentwise
    s_i * (|s_i| + guard)^(q-2) / (sum_j (|s_j| + guard)^q)^((q-1)/q).

    For q = 1 the penalty is the l1 norm, whose gradient on the nonnegative
    orthant is exactly 1 at zero and positive entries (-1 at negative ones).
    On the simplex the l1 norm is constant, so this all-ones gradient is a
    uniform shift that the simplex projection cancels: after projection a
    q = 1 step changes nothing and promotes no sparsity. Only q < 1 does.

    Accepts a vector or a matrix of column vectors.
    """
    _check_q(q)
    s = np.asarray(s, dtype=np.float64)
    if q == 1.0:
        return np.where(s < 0, -1.0, 1.0)
    base = np.abs(s) + SPARSITY_GUARD
    num = s * base ** (q - 2.0)
    den = (base**q).sum(axis=0) ** ((q - 1.0) / q)
    return num / den


def _check_q(q: float) -> None:
    if not (0 < q <= 1):
        raise ValueError("q must lie in (0, 1]")
