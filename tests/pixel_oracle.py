"""Per-pixel reference forms of the solver's whole-image kernels.

Each function works on one pixel k with plain loops over its neighbor list,
the way the method is written down. Tests compare the kernels that
``run_unmixing`` calls against these, column by column.

``clusters`` turns the cluster mask on: only neighbors with the label of
pixel k count.
"""

import numpy as np

from hsunmix.regularizers import sparsity_gradient, sparsity_norm


def masked_neighbors(k, W, clusters=None):
    """Neighbors of pixel k and their weights (row k of the CSR matrix W),
    restricted to its cluster."""
    if W is None:
        raise ValueError("coupling needs a neighbor graph")
    row = slice(W.indptr[k], W.indptr[k + 1])
    neighbors = W.indices[row]
    weights = W.data[row]
    if clusters is not None:
        keep = clusters.labels[neighbors] == clusters.labels[k]
        neighbors = neighbors[keep]
        weights = weights[keep]
    return neighbors, weights


def local_cost(k, Y, A, S, W=None, clusters=None, eta=0.0, lam=0.0, q=1.0):
    """Pixel k's cost: residual + eta * weighted squared neighbor differences
    + lam * guarded q-norm of its abundance vector."""
    s_k = S[:, k]
    resid = Y[:, k] - A @ s_k
    value = float(resid @ resid)
    if eta > 0:
        neighbors, weights = masked_neighbors(k, W, clusters)
        diff = S[:, neighbors] - s_k[:, None]
        value += eta * float(weights @ np.einsum("ij,ij->j", diff, diff))
    if lam > 0:
        value += lam * float(sparsity_norm(s_k, q))
    return value


def pixel_step(k, Y, A, S, mu, W=None, clusters=None, eta=0.0, lam=0.0, q=1.0):
    """Pixel k's abundance step before projection, neighbors read from S."""
    s_k = S[:, k]
    step = mu * (A.T @ (Y[:, k] - A @ s_k))
    if eta > 0:
        neighbors, weights = masked_neighbors(k, W, clusters)
        step = step + mu * eta * ((S[:, neighbors] - s_k[:, None]) @ weights)
    if lam > 0:
        step = step - mu * lam * sparsity_gradient(s_k, q)
    return step
