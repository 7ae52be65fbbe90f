"""Recovery metrics: spectral and abundance angles, endmember matching.

Every angle (SAD, AAD and the matching's costs) comes from one kernel,
``_column_angles``. Estimated endmembers come back in arbitrary order, so
evaluation first finds the assignment between true and estimated columns
that minimizes the total spectral angle, then scores signatures and
abundances under that alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    estimated column j. Solved exactly via the Hungarian method.
    """
    true = as_matrix(A_true, "true signatures")
    est = as_matrix(A_est, "estimated signatures")
    if true.shape != est.shape:
        raise ValueError("signature matrices must have equal shapes")
    c = true.shape[1]
    i, j = np.divmod(np.arange(c * c), c)
    cost = _column_angles(true[:, i], est[:, j]).reshape(c, c)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(c, dtype=np.int64)
    perm[cols] = rows
    return perm


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
