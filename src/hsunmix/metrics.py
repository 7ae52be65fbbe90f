"""Recovery metrics: spectral and abundance angles, endmember matching.

Every angle (SAD, AAD and the matching's costs) comes from one kernel,
``_column_angles``. Estimated endmembers come back in arbitrary order, so
evaluation first finds the assignment between true and estimated columns
that minimizes the total spectral angle, then scores signatures and
abundances under that alignment. The assignment is solved exactly by the
Hungarian method in ``_min_cost_assignment``, so the module needs nothing
from SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .types import as_matrix


@dataclass(frozen=True)
class EvaluationReport:
    """Alignment and error summary for one unmixing run.

    ``matching[j]`` is the index of the true column assigned to estimated
    column j. ``per_endmember_sad`` is indexed by true column, and
    ``rms_sad`` is its root mean square.
    """

    per_endmember_sad: List[float]
    rms_aad: float
    matching: List[int]

    def __post_init__(self):
        sads = list(float(v) for v in self.per_endmember_sad)
        matching = [int(i) for i in self.matching]
        object.__setattr__(self, "per_endmember_sad", sads)
        object.__setattr__(self, "matching", matching)
        if sorted(matching) != list(range(len(matching))):
            raise ValueError("matching must be a permutation")
        if len(sads) != len(matching):
            raise ValueError("one spectral angle per endmember is required")

    @property
    def rms_sad(self) -> float:
        return float(np.sqrt(np.mean(np.square(self.per_endmember_sad))))


def _column_angles(X, Z) -> np.ndarray:
    """Angle, in radians, between column k of X and column k of Z, for every k.

    Columns are reduced as contiguous rows, so a pair gets the same bits in
    any layout and in any call; a zero column raises ``ValueError``.
    """
    P = np.ascontiguousarray(np.transpose(X), dtype=np.float64)
    Q = np.ascontiguousarray(np.transpose(Z), dtype=np.float64)
    p2 = (P * P).sum(axis=1)
    q2 = (Q * Q).sum(axis=1)
    if np.any(p2 == 0) or np.any(q2 == 0):
        raise ValueError("the angle of a zero vector is undefined")
    # sqrt of the product (not product of sqrts) makes identical inputs
    # yield cosine exactly 1, so the angles of self-pairs are exactly 0
    cos = (P * Q).sum(axis=1) / np.sqrt(p2 * q2)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def sad(a, b) -> float:
    """Spectral angle between two signatures, in radians."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("spectra must have equal length")
    return float(_column_angles(a[:, None], b[:, None])[0])


def aad(a, b) -> float:
    """Angle between two abundance vectors, in radians: the angle of :func:`sad`."""
    return sad(a, b)


def match_endmembers(A_true, A_est) -> np.ndarray:
    """Assignment of estimated to true columns minimizing the total spectral angle.

    Returns ``perm`` with ``perm[j]`` the true-column index matched to
    estimated column j. Solved exactly by :func:`_min_cost_assignment`.
    """
    true = as_matrix(A_true, "true signatures")
    est = as_matrix(A_est, "estimated signatures")
    if true.shape != est.shape:
        raise ValueError("signature matrices must have equal shapes")
    c = true.shape[1]
    i, j = np.divmod(np.arange(c * c), c)
    return _min_cost_assignment(_column_angles(true[:, i], est[:, j]).reshape(c, c))


def _min_cost_assignment(cost) -> np.ndarray:
    """Row assigned to each column of a square cost matrix, at the least total cost.

    Shortest augmenting paths over reduced costs with row and column
    potentials: the Hungarian method in the form of Crouse (IEEE TAES 2016)
    that SciPy's ``linear_sum_assignment`` implements, O(c^3). Each row joins
    by a Dijkstra search whose scan over the columns not yet reached is one
    vector operation. The scan order, the tie rule (of the nearest columns,
    the last unmatched one after the first in scan order, else the first)
    and the order of every floating-point operation are SciPy's, so ties are
    broken as SciPy breaks them. A non-finite cost raises ``ValueError``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    c = cost.shape[0]
    if cost.shape != (c, c):
        raise ValueError("the cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise ValueError("the cost matrix must be finite")
    u = np.zeros(c)  # row potentials
    v = np.zeros(c)  # column potentials
    col_of_row = np.full(c, -1, dtype=np.int64)
    row_of_col = np.full(c, -1, dtype=np.int64)
    prev_row = np.full(c, -1, dtype=np.int64)  # row before each column on its shortest path
    for new_row in range(c):
        scan = np.arange(c - 1, -1, -1)  # the columns not yet reached, in scan order
        n_open = c
        dist = np.full(c, np.inf)
        rows_seen = np.zeros(c, dtype=bool)
        cols_reached = np.zeros(c, dtype=bool)
        reach = 0.0
        row = new_row
        while True:
            rows_seen[row] = True
            cols = scan[:n_open]
            via_row = reach + cost[row, cols] - u[row] - v[cols]
            closer = via_row < dist[cols]
            prev_row[cols[closer]] = row
            dist[cols[closer]] = via_row[closer]
            d = dist[cols]
            reach = d.min()
            ties = np.flatnonzero(d == reach)
            free = ties[1:][row_of_col[cols[ties[1:]]] < 0]
            pick = free[-1] if free.size else ties[0]
            col = cols[pick]
            cols_reached[col] = True
            n_open -= 1
            scan[pick] = scan[n_open]
            if row_of_col[col] < 0:
                break
            row = row_of_col[col]
        u[new_row] += reach
        rows_seen[new_row] = False
        u[rows_seen] += reach - dist[col_of_row[rows_seen]]
        v[cols_reached] -= reach - dist[cols_reached]
        # augment: each row on the path moves to the column it reached
        while True:
            row = prev_row[col]
            row_of_col[col] = row
            col_of_row[row], col = col, col_of_row[row]
            if row == new_row:
                break
    return row_of_col


def evaluate_matrices(A_true, S_true, A_est, S_est) -> EvaluationReport:
    """Score estimated signatures and abundances against the ground truth.

    Endmembers are aligned by :func:`match_endmembers`; the report then
    carries the per-endmember spectral angles, their root mean square, and
    the root mean square abundance angle over all pixels.
    """
    At = as_matrix(A_true, "true signatures")
    St = as_matrix(S_true, "true abundances")
    Ae = as_matrix(A_est, "estimated signatures")
    Se = as_matrix(S_est, "estimated abundances")
    c = At.shape[1]
    if St.shape[0] != c or Se.shape[0] != c or St.shape[1] != Se.shape[1]:
        raise ValueError("matrix shapes are inconsistent")
    est_to_true = match_endmembers(At, Ae)
    true_to_est = np.argsort(est_to_true)

    aad_angles = _column_angles(St, Se[true_to_est, :])
    return EvaluationReport(
        per_endmember_sad=_column_angles(At, Ae[:, true_to_est]),
        rms_aad=float(np.sqrt(np.mean(aad_angles * aad_angles))),
        matching=est_to_true,
    )


def evaluate(A_true, S_true, result) -> EvaluationReport:
    """Score an :class:`~hsunmix.unmix.UnmixingResult` against the ground truth."""
    return evaluate_matrices(A_true, S_true, result.A, result.S)
