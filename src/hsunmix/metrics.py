"""Recovery metrics: spectral and abundance angles, endmember matching.

Estimated endmembers come back in arbitrary order, so evaluation first finds
the assignment between true and estimated columns that minimizes the total
spectral angle, then scores signatures and abundances under that alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.optimize import linear_sum_assignment

from .regularizers import spectral_angle_cos
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


def sad(a, b) -> float:
    """Spectral angle between two signatures, in radians."""
    cos = spectral_angle_cos(a, b)
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


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
    cost = np.empty((c, c))
    for i in range(c):
        for j in range(c):
            cost[i, j] = sad(true[:, i], est[:, j])
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
    true_to_est = np.empty(c, dtype=np.int64)
    true_to_est[est_to_true] = np.arange(c)

    per_sad = [sad(At[:, t], Ae[:, true_to_est[t]]) for t in range(c)]

    aligned = Se[true_to_est, :]
    nt2 = (St * St).sum(axis=0)
    ne2 = (aligned * aligned).sum(axis=0)
    if np.any(nt2 == 0) or np.any(ne2 == 0):
        raise ValueError("abundance angle of a zero vector is undefined")
    # sqrt of the product keeps self-pairs at cosine exactly 1
    cos = np.clip(np.einsum("ij,ij->j", St, aligned) / np.sqrt(nt2 * ne2), -1.0, 1.0)
    angles = np.arccos(cos)
    rms_aad = float(np.sqrt(np.mean(angles * angles)))

    return EvaluationReport(
        per_endmember_sad=per_sad,
        rms_aad=rms_aad,
        matching=[int(i) for i in est_to_true],
    )


def evaluate(A_true, S_true, result) -> EvaluationReport:
    """Score an :class:`~hsunmix.unmix.UnmixingResult` against the ground truth."""
    return evaluate_matrices(A_true, S_true, result.A, result.S)
