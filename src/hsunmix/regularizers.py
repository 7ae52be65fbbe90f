"""Regularization building blocks: pixel graph, sparsity weight, simplex projection.

These are the small numerical kernels the solver composes: the pixel graph
(the 8-connected grid adjacency and its cosine-similarity weights, gated by
cluster when asked), a data-driven estimate of the sparsity penalty weight,
the Euclidean projection onto the unit simplex, and the (sub)gradient of
the q-norm sparsity penalty. The angles used for scoring (SAD, AAD) are
computed in :mod:`hsunmix.metrics`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DegenerateDataError
from .types import ClusterAssignment, HyperspectralImage, as_matrix, column_sq_norms

SPARSITY_GUARD = 1e-12  # keeps the q-norm gradient finite at exact zeros

# Inputs already nonnegative with column sums this close to 1 are returned
# unchanged by the simplex projection, which makes it exactly idempotent in
# floating point. The slack is far below every consumer tolerance.
_FEASIBLE_SLACK = 64 * np.finfo(np.float64).eps

# The king moves (dy, dx) of the pixel graph, one weight plane each, sorted
# by the neighbor's offset dy * width + dx in the row-major pixel order.
OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


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


def build_neighborhood(width: int, height: int) -> np.ndarray:
    """8-connected adjacency of a width x height grid, as 0/1 weight planes.

    An ``(8, height, width)`` array: plane o holds 1 at every pixel whose
    neighbor at king move ``OFFSETS[o]`` lies on the grid, and 0 where that
    neighbor would fall off it. Interior pixels get 8 neighbors, edge pixels
    5, corner pixels 3, and a 1x1 grid none. The planes run in the sorted
    order of the neighbors' row-major indices (NW, N, NE, W, E, SW, S, SE),
    the order in which pixel k's row of the N x N adjacency matrix lists them.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    planes = np.ones((len(OFFSETS), height, width))
    for plane, (dy, dx) in zip(planes, OFFSETS):
        if dy:
            plane[0 if dy < 0 else -1] = 0.0
        if dx:
            plane[:, 0 if dx < 0 else -1] = 0.0
    return planes


def grid_pairs(width: int, height: int):
    """The neighbor pairs of a width x height grid, in the row-major order of the N x N matrix.

    Returns ``(pixel, move, neighbor, starts)``: for every pair the pixel,
    the index in ``OFFSETS`` of the move to its neighbor, and the neighbor's
    pixel index, sorted by pixel and then by neighbor; and the index where
    each pixel's pairs start.
    """
    pixel, move = np.nonzero(build_neighborhood(width, height).reshape(len(OFFSETS), -1).T)
    shifts = np.array([dy * width + dx for dy, dx in OFFSETS])
    return pixel, move, pixel + shifts[move], np.searchsorted(pixel, np.arange(width * height))


def neighbor_weights(image, clusters: Optional[ClusterAssignment] = None) -> np.ndarray:
    """Cosine-similarity weights on the 8-connected grid of ``image``, normalized per pixel.

    ``image`` is a :class:`HyperspectralImage`. The result has the shape and
    layout of ``build_neighborhood(image.width, image.height)``: entry
    ``[o, y, x]`` is the weight of the neighbor at ``OFFSETS[o]`` of pixel
    (y, x), and 0 where that neighbor is off the grid. The weight of neighbor
    j for pixel k is the cosine similarity of their spectra divided by the
    summed similarity over all neighbors of k, so the weights of every pixel
    sum to 1. A 1x1 image has no neighbors and gets all-zero planes.

    With ``clusters`` given, the weights to neighbors in another cluster are
    then set to zero, and the coupling only sees same-cluster neighbors; the
    remaining weights are not renormalized. The spectral dot products are
    formed N / 8 neighbor pairs at a time, so the two gathered blocks of
    spectra hold a quarter of the image between them.
    """
    if not isinstance(image, HyperspectralImage):
        raise ValueError("image must be a HyperspectralImage")
    arr, n = image.data, image.n_pixels
    if clusters is not None and clusters.labels.shape != (n,):
        raise ValueError("clusters do not match the pixel count")
    norms = np.sqrt(column_sq_norms(arr))
    if np.any(norms == 0):
        raise DegenerateDataError("image contains a zero-spectrum pixel")
    planes = np.zeros((len(OFFSETS), image.height, image.width))
    if n == 1:
        return planes
    src, move, dst, starts = grid_pairs(image.width, image.height)
    dots = np.empty(dst.size)
    chunk = max(1, n // 8)
    for start in range(0, dst.size, chunk):
        part = slice(start, start + chunk)
        dots[part] = np.einsum("ij,ij->j", arr[:, src[part]], arr[:, dst[part]])
    theta = dots / (norms[src] * norms[dst])
    denom = np.add.reduceat(theta, starts)
    if np.any(denom == 0):
        raise DegenerateDataError("a pixel has zero total similarity to its neighbors")
    weights = theta / denom[src]
    if clusters is not None:
        weights = weights * (clusters.labels[src] == clusters.labels[dst])
    planes.reshape(len(OFFSETS), n)[move, src] = weights
    return planes


def project_simplex_columns(V, support=None) -> np.ndarray:
    """Euclidean projection of every column of V onto the unit simplex.

    Michelot's active-set iteration (Math. Programming 1986; see Condat,
    Math. Programming 2016), on all columns at once: column v projects to
    max(v - tau, 0), with tau the mean excess over 1 of the entries above
    tau. No sort; each pass is a few c x N operations, and at most c + 1
    passes run (``_michelot_threshold``). The projection commutes with shifts
    along the ones vector, so every column is measured from its top entry,
    which keeps the threshold's rounding at the scale of the simplex whatever
    the column's size. Columns that already satisfy the constraints
    (nonnegative, sum within a few ulps of 1) are returned unchanged, so the
    projection is exactly idempotent. A column holding NaN or an infinity
    raises ``ValueError``.

    ``support`` is an optional hint, an array of V's shape that is nonzero on
    a guess of every column's support, such as the support of the previous
    iterate of a solver. The iteration then starts from the mean excess of
    the guessed entries; a column without a guessed entry starts as without
    a hint. The result is the same, bit for bit; a good guess saves passes.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError("expected a 2-D array of column vectors")
    if support is not None and np.shape(support) != V.shape:
        raise ValueError(f"support has shape {np.shape(support)}, the columns {V.shape}")
    top = V.max(axis=0)
    bottom = V.min(axis=0)
    # max and min propagate NaN, so between them they see every non-finite entry
    bad = ~(np.isfinite(top) & np.isfinite(bottom))
    if bad.any():
        columns = np.flatnonzero(bad)
        raise ValueError(
            f"cannot project onto the simplex: {columns.size} column(s) hold NaN or inf, "
            f"the first at index {columns[0]}"
        )
    # a finite column can still sum past the float range; it is not feasible
    with np.errstate(over="ignore"):
        total = V.sum(axis=0)
        feasible = (bottom >= 0) & (np.abs(total - 1.0) <= _FEASIBLE_SLACK)
        X = V - top
    # The top entry is now exactly 0, so tau >= -1 and no entry at or below
    # -1 is in a support: the clamp changes no result, and it keeps an entry
    # that overflowed to -inf out of the masked sums (0 * -inf is NaN).
    np.maximum(X, -1.0, out=X)
    tau, _ = _michelot_threshold(X, support)
    np.subtract(X, tau, out=X)
    np.maximum(X, 0.0, out=X)
    if feasible.any():
        X[:, feasible] = V[:, feasible]
    return X


def _michelot_threshold(X, support=None):
    """The threshold tau of every column of X, and the passes it took.

    Every column of X is measured from its top entry, so that entry is 0,
    and clamped at -1. For every nonempty set I of entries, the mean excess
    (sum_I x - 1) / |I| is at most tau: the entries of the support exceed
    tau by 1 in sum, and no other entry exceeds it. The first bound is that
    of the guessed support, or of the whole column where there is no guess,
    and the first active set is the entries above it. Each pass sets tau to
    the mean excess of the active entries; tau only rises, so the active set
    only shrinks, and the iteration stops at the first pass that leaves every
    tau as it was, when the next set would be the current one. A column runs
    through at most c nested sets, and one pass confirms the last: the loop
    is capped at c + 1 passes. The last tau is always the mean excess of the
    final set, formed the same way, so every start gives the same bits.
    """
    c = X.shape[0]
    mask = np.empty_like(X)  # the active entries as 0/1, then those entries
    if support is None:
        tau = (X.sum(axis=0) - 1.0) / c
    else:
        np.not_equal(support, 0, out=mask, casting="unsafe")
        count = mask.sum(axis=0)
        if not count.all():  # a column without a guessed entry starts from all of them
            mask[:, count == 0] = 1.0
            count = mask.sum(axis=0)
        tau = (np.multiply(mask, X, out=mask).sum(axis=0) - 1.0) / count
    for passes in range(1, c + 2):
        np.greater(X, tau, out=mask, casting="unsafe")
        count = mask.sum(axis=0)
        tau, previous = (np.multiply(mask, X, out=mask).sum(axis=0) - 1.0) / count, tau
        if (tau == previous).all():
            break
    return tau, passes


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
