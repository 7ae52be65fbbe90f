"""The pixel network as a SciPy CSR matrix, kept as an oracle for the weight planes.

This is how ``hsunmix`` held the network before it switched to one weight
plane per king move: the 8-connected grid as ``(B_h kron B_w) - I`` in
canonical CSR form, the cosine-similarity weights stored on that pattern
(cluster-gated weights kept as explicit zeros), the row and column sums of
``W.sum`` and the pull ``S W^T`` as a sparse product. ``as_csr`` reads weight
planes back into the same CSR layout, so tests can compare the two bit for
bit.
"""

import numpy as np
from scipy.sparse import csr_matrix, diags, identity, kron

from hsunmix.regularizers import OFFSETS


def csr_grid(width, height):
    """8-connected adjacency of a width x height grid as a canonical CSR matrix."""
    band_h, band_w = (diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(m, m)) for m in (height, width))
    return kron(band_h, band_w, format="csr") - identity(width * height, format="csr")


def csr_weights(image, clusters=None):
    """Cosine-similarity weights normalized per row, on the pattern of ``csr_grid``."""
    arr, n = image.data, image.n_pixels
    norms = np.sqrt((arr * arr).sum(axis=0))
    if n == 1:
        return csr_matrix((1, 1))
    adjacency = csr_grid(image.width, image.height)
    indptr, dst = adjacency.indptr, adjacency.indices
    src = np.repeat(np.arange(n), np.diff(indptr))
    dots = np.empty(dst.size)
    chunk = max(1, n // 8)
    for start in range(0, dst.size, chunk):
        part = slice(start, start + chunk)
        dots[part] = np.einsum("ij,ij->j", arr[:, src[part]], arr[:, dst[part]])
    theta = dots / (norms[src] * norms[dst])
    weights = theta / np.add.reduceat(theta, indptr[:-1])[src]
    if clusters is not None:
        weights = weights * (clusters.labels[src] == clusters.labels[dst])
    return csr_matrix((weights, dst, indptr), shape=(n, n))


def csr_sums(W):
    """The row sums W 1 and the row-plus-column sums W 1 + W^T 1 of a CSR matrix."""
    degree = np.asarray(W.sum(axis=1)).ravel()
    return degree, degree + np.asarray(W.sum(axis=0)).ravel()


def csr_pull(W, S):
    """S W^T as the sparse product on a C-ordered S^T."""
    return (W @ np.ascontiguousarray(S.T)).T


def as_csr(planes):
    """Weight planes as a CSR matrix on the pattern of ``csr_grid``, zeros kept."""
    _, height, width = planes.shape
    grid = csr_grid(width, height)
    src = np.repeat(np.arange(width * height), np.diff(grid.indptr))
    (sy, sx), (ty, tx) = np.divmod(src, width), np.divmod(grid.indices, width)
    offset = np.array([OFFSETS.index(move) for move in zip(ty - sy, tx - sx)], dtype=np.intp)
    data = planes.reshape(len(OFFSETS), -1)[offset, src]
    return csr_matrix((data, grid.indices, grid.indptr), shape=grid.shape)
