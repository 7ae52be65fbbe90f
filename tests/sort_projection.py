"""The sort-based simplex projection, kept as an oracle for the Michelot one.

This is the projection ``hsunmix.regularizers.project_simplex_columns`` used
before it switched to Michelot's active-set iteration: sort every column,
take cumulative sums and pick the threshold at the last rank that still
qualifies. It keeps the same feasible-column rule and shifts columns whose
top entry reaches 2^52 in size.
"""

import numpy as np

FEASIBLE_SLACK = 64 * np.finfo(np.float64).eps
SHIFT_BOUND = 1.0 / np.finfo(np.float64).eps


def sort_projection(V) -> np.ndarray:
    """Euclidean projection of every column of V onto the unit simplex, by sorting."""
    V = np.asarray(V, dtype=np.float64)
    c, n = V.shape
    feasible = (V >= 0).all(axis=0) & (np.abs(V.sum(axis=0) - 1.0) <= FEASIBLE_SLACK)
    if feasible.all():
        return V.copy()
    # below 2^52 in size, u + (1 - u) rounds to about 1, so the first rank
    # always qualifies; larger columns are measured from their top entry
    top = V.max(axis=0)
    X = V - np.where(np.abs(top) < SHIFT_BOUND, 0.0, top)
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
