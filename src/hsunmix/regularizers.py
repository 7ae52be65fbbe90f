"""Regularization building blocks: pixel network, sparsity weight, simplex projection.

These are the small numerical kernels the solver composes: the pixel
network (the 8-connected grid, its cosine-similarity weights, gated by
cluster when asked, their ``coupling`` and its ``coupling_pull``), a
data-driven estimate of the sparsity penalty weight, the Euclidean
projection onto the unit simplex, and the (sub)gradient of the q-norm
sparsity penalty. Only this module knows how the network's weight planes
are laid out. The angles used for scoring (SAD, AAD) are computed in
:mod:`hsunmix.metrics`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import DegenerateDataError, NumericalFailureError
from .types import ClusterAssignment, HyperspectralImage, blocks, check_q, column_sq_norms

SPARSITY_GUARD = 1e-12  # keeps the q-norm gradient finite at exact zeros

# Inputs already nonnegative with column sums this close to 1 are returned
# unchanged by the simplex projection, which makes it exactly idempotent in
# floating point. The slack is far below every consumer tolerance.
_FEASIBLE_SLACK = 64 * np.finfo(np.float64).eps

# The king moves (dy, dx) of the pixel graph, one weight plane each, sorted
# by the neighbor's offset dy * width + dx in the row-major pixel order.
OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def estimate_sparsity_weight(Y: HyperspectralImage) -> float:
    """Data-driven weight for the sparsity penalty.

    Averages, over band rows y of the image matrix, the normalized gap
    between sqrt(N) and the l1/l2 ratio of the row:

        (1 / sqrt(L)) * sum_rows (sqrt(N) - |y|_1 / |y|_2) / sqrt(N - 1)

    A single-pixel image has no spread to measure, so the weight is 0.
    """
    if not isinstance(Y, HyperspectralImage):
        raise ValueError("Y must be a HyperspectralImage")
    arr = Y.data
    n_bands, n_pixels = arr.shape
    if n_pixels == 1:
        return 0.0
    # in band-row blocks, so no image-sized temporary is made; each row is
    # still summed whole, as one contiguous pass
    l1, sq = np.empty(n_bands), np.empty(n_bands)
    for b in blocks(n_bands, arr.itemsize * n_pixels):
        block = arr[b]
        l1[b] = np.abs(block).sum(axis=1)
        sq[b] = (block * block).sum(axis=1)
    l2 = np.sqrt(sq)
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


def plane_slices(width: int, height: int):
    """Per king move, two equal slices ``(pixels, neighbors)`` of the row-major pixel order.

    ``neighbors`` = ``pixels`` + dy * width + dx for the move (dy, dx) of
    ``OFFSETS``, row wraps included (``build_neighborhood`` zeroes them).
    Entry 7 - o is entry o swapped.
    """
    n = width * height
    slices = []
    for dy, dx in OFFSETS:
        shift = dy * width + dx
        first, length = max(-shift, 0), max(n - abs(shift), 0)
        slices.append((slice(first, first + length), slice(first + shift, first + shift + length)))
    return slices


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
    remaining weights are not renormalized. Each forward move (E, SW, S, SE)
    takes its dot products from one ``einsum`` over two shifted column slices
    of the image, with no gathered copy, and its mirror's plane gets the same
    values; the normalizer is the sum of the planes.
    """
    if not isinstance(image, HyperspectralImage):
        raise ValueError("image must be a HyperspectralImage")
    arr, n = image.data, image.n_pixels
    if clusters is not None and clusters.labels.shape != (n,):
        raise ValueError("clusters do not match the pixel count")
    norms = np.sqrt(column_sq_norms(arr))
    if np.any(norms == 0):
        raise DegenerateDataError("image contains a zero-spectrum pixel")
    planes = build_neighborhood(image.width, image.height)
    if n == 1:
        return planes
    flat = planes.reshape(len(OFFSETS), n)
    moves = plane_slices(image.width, image.height)
    for o, (pixels, neighbors) in enumerate(moves[4:], start=4):  # E, SW, S, SE
        dots = np.einsum("ij,ij->j", arr[:, pixels], arr[:, neighbors])
        theta = dots / (norms[pixels] * norms[neighbors])
        flat[o, pixels] *= theta
        flat[7 - o, neighbors] *= theta
    denom = flat.sum(axis=0)
    if np.any(denom == 0):
        raise DegenerateDataError("a pixel has zero total similarity to its neighbors")
    flat /= denom
    if clusters is not None:
        for plane, (pixels, neighbors) in zip(flat, moves):
            plane[pixels] *= clusters.labels[pixels] == clusters.labels[neighbors]
    return planes


class Coupling(NamedTuple):
    """The coupling: neighbor operator W, strength ``eta`` and what the kernels read of W.

    ``unmix.gram_objective`` forms the coupling term from one product with W:
    expanding |s_k - s_j|^2 = |s_k|^2 + |s_j|^2 - 2 <s_k, s_j>, the first two
    terms weighted by W[k, j] sum to <W 1, |s|^2> and <W^T 1, |s|^2>, and the
    third to -2 <S, S W^T>, so

        sum_kj W[k, j] |s_k - s_j|^2 = <W 1 + W^T 1, |s|^2> - 2 <S, S W^T>

    with |s|^2 the squared norm of every abundance column. The right side
    is a difference of two sums as large as <spread, |s|^2>, so it rounds at
    about machine epsilon times eta <spread, |s|^2>, not times the term.
    """

    W: np.ndarray  # the (8, height, width) weight planes of ``neighbor_weights``
    degree: np.ndarray  # W 1, the summed weight of each row
    spread: np.ndarray  # W 1 + W^T 1, each pixel's weight as sender and receiver
    eta: float  # the coupling strength
    shifts: Tuple[int, ...]  # dy * width + dx of every plane's move, in the row-major pixel order


def coupling(W, eta: float) -> Coupling:
    """Bundle the weight planes W with their row sums, row-plus-column sums, ``eta`` and shifts.

    The planes must be zero off the grid. W 1 is the sum of the planes; W^T 1
    adds each plane shifted onto the neighbors it weights, in descending
    offset order, so every column is summed in ascending row order.
    """
    W = np.ascontiguousarray(W, dtype=np.float64)
    _, height, width = W.shape
    planes = W.reshape(len(OFFSETS), height * width)
    degree = planes.sum(axis=0)
    received = np.zeros(height * width)
    moves = plane_slices(width, height)
    for plane, (pixels, neighbors) in zip(planes[::-1], moves[::-1]):
        received[neighbors] += plane[pixels]
    shifts = tuple(neighbors.start - pixels.start for pixels, neighbors in moves)
    return Coupling(W, degree, degree + received, eta, shifts)


def coupling_pull(graph: Coupling, S, out: Optional[np.ndarray] = None) -> np.ndarray:
    """S W^T: column k is the weighted sum of pixel k's neighbor columns.

    One multiply-add per weight plane. With the rows of S laid end to end
    between zero margins of width + 1, every plane multiplies one contiguous
    c x N window, shifted by the plane's offset in the row-major pixel order
    (``graph.shifts``). Where a neighbor is off the grid the plane's weight
    is 0: the value the window reads there (a margin zero, a pixel at the
    other end of an image row, or one of the adjacent row of S) is finite,
    so it adds an exact 0. The planes are added in offset order to a zeroed
    sum, the order in which a compressed-row sparse product sums row k of W,
    so the result has its bits. The pixels are taken in the blocks of
    ``types.blocks``, whose sum, product and window fill one block between
    them, so each block's eight multiply-adds run in cache. The sum is
    written to ``out`` if given, an array of S's shape that is not S.
    """
    c, n = S.shape
    margin = graph.W.shape[2] + 1
    size = c * n
    flat = np.empty(size + 2 * margin)
    flat[:margin] = flat[margin + size:] = 0.0
    flat[margin:margin + size] = S.ravel()
    windows = [flat[margin + shift:margin + shift + size].reshape(c, n) for shift in graph.shifts]
    planes = graph.W.reshape(len(OFFSETS), n)
    parts = blocks(n, 3 * flat.itemsize * c)
    pull = np.empty((c, n)) if out is None else out
    pull.fill(0.0)
    term = np.empty((c, parts[0].stop))
    for b in parts:
        part = pull[:, b]
        product = term[:, :part.shape[1]]
        for plane, window in zip(planes[:, b], windows):
            part += np.multiply(plane, window[:, b], out=product)
    return pull


def project_simplex_columns(V, support=None, bound=None) -> np.ndarray:
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

    ``bound`` marks a diverged input, such as the update of a solver that has
    left every meaningful scale: a column holding NaN, an infinity or an entry
    of size ``bound`` or more then raises :class:`NumericalFailureError`
    instead. The test reads the top and bottom entries the projection forms
    anyway, so it costs no pass over V.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError("expected a 2-D array of column vectors")
    if support is not None and np.shape(support) != V.shape:
        raise ValueError(f"support has shape {np.shape(support)}, the columns {V.shape}")
    top = V.max(axis=0)
    bottom = V.min(axis=0)
    # max and min propagate NaN, so between them they see every non-finite
    # entry, and a comparison with NaN is false
    limit = np.inf if bound is None else bound
    inside = (top < limit) & (bottom > -limit)
    if not inside.all():
        columns = np.flatnonzero(~inside)
        if bound is None:
            error, what = ValueError, "NaN or inf"
        else:
            error, what = NumericalFailureError, f"NaN, inf or an entry of size {bound:g} or more"
        raise error(
            f"cannot project onto the simplex: {columns.size} column(s) hold {what}, "
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
    From the second pass on, the current and the next active set are both
    the entries above a threshold, so they are nested, and a pass that keeps
    every column's count keeps every set: its taus would be the last ones,
    bit for bit, and it stops before forming them.
    """
    c = X.shape[0]
    mask = np.empty_like(X)  # the active entries as 0/1, then those entries
    if support is None:  # every entry guessed
        mask.fill(1.0)
    else:
        np.not_equal(support, 0, out=mask, casting="unsafe")
    count = mask.sum(axis=0)
    if not count.all():  # a column without a guessed entry starts from all of them
        mask[:, count == 0] = 1.0
        count = mask.sum(axis=0)
    tau = (np.multiply(mask, X, out=mask).sum(axis=0) - 1.0) / count
    for passes in range(1, c + 2):
        np.greater(X, tau, out=mask, casting="unsafe")
        count, last = mask.sum(axis=0), count
        if passes > 1 and (count == last).all():
            break
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
    A norm past the float range, as at a tiny q, where the 1/q power of a
    power sum of at least 1 overflows, raises :class:`NumericalFailureError`.
    """
    check_q(q)
    s = np.asarray(s, dtype=np.float64)
    with np.errstate(over="ignore"):
        return _in_float_range(((np.abs(s) + SPARSITY_GUARD) ** q).sum(axis=0) ** (1.0 / q), "norm", q)


def sparsity_gradient(s, q: float) -> np.ndarray:
    """Gradient of the q-norm sparsity penalty.

    For q < 1, guarded against zeros by guard = ``SPARSITY_GUARD``, componentwise
    s_i * (|s_i| + guard)^(q-2) / (sum_j (|s_j| + guard)^q)^((q-1)/q).

    For q = 1 the penalty is the l1 norm, whose gradient on the nonnegative
    orthant is exactly 1 at zero and positive entries (-1 at negative ones).
    On the simplex the l1 norm is constant, so this all-ones gradient is a
    uniform shift that the simplex projection cancels: after projection a
    q = 1 step changes nothing and promotes no sparsity. Only q < 1 does.

    Accepts a vector or a matrix of column vectors. A gradient past the float
    range, as at a tiny q, where the (q-1)/q power of the power sum
    underflows, raises :class:`NumericalFailureError`.
    """
    check_q(q)
    s = np.asarray(s, dtype=np.float64)
    if q == 1.0:
        return np.where(s < 0, -1.0, 1.0)
    base = np.abs(s) + SPARSITY_GUARD
    num = s * base ** (q - 2.0)
    den = (base**q).sum(axis=0) ** ((q - 1.0) / q)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _in_float_range(num / den, "gradient", q)


def _in_float_range(x, what: str, q: float):
    """``x``, unless an entry of it is not finite, which raises :class:`NumericalFailureError`."""
    if not np.isfinite(x).all():
        raise NumericalFailureError(f"the sparsity {what} at q = {q:g} leaves the float range")
    return x
