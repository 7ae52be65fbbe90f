"""Simplex-constrained unmixing: one solver loop, six presets.

Every variant runs the same alternating loop. Each iteration may update the
signatures with the multiplicative rule, then updates all abundance columns
at once, projects each column onto the unit simplex and records the
objective. A variant is a row of ``PRESETS`` over five knobs:

================================  =======  ============  ======  ==============  ========
variant                           coupled  cluster mask  sparse  multiplicative  update A
================================  =======  ============  ======  ==============  ========
``nmf``                           no       no            no      yes             yes
``lq_nmf``                        no       no            yes     no              yes
``distributed``                   yes      no            no      no              yes
``sparse_distributed``            yes      no            yes     no              yes
``clustered_sparse_distributed``  yes      yes           yes     no              yes
``fcls``                          no       no            no      no              no
================================  =======  ============  ======  ==============  ========

*coupled* pulls each pixel toward its neighbors with strength ``cfg.eta``;
the *cluster mask* keeps only neighbors in the pixel's own cluster; *sparse*
adds the q-norm penalty with weight ``cfg.sparsity_weight`` (estimated from
the image when unset); *multiplicative* replaces the gradient abundance step
by the multiplicative rule; *update A* turns the signature update on.

The gradient abundance step is diffusion LMS: pixel k steps down the
gradient of its own local cost, residual plus weighted squared differences
to its neighbors plus penalty. The neighbor weights are normalized per
pixel, so the neighbor graph is not symmetric and the stacked step is not
the gradient of the summed objective. The sweep is synchronous: every
pixel reads its neighbors from the previous iterate.

The sparsity penalty promotes sparsity only for q < 1. At q = 1 it is the l1
norm, constant on the simplex, and the projection cancels its step up to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, NamedTuple, Optional

import numpy as np
from scipy.sparse import csr_matrix

from .errors import NumericalFailureError
from .regularizers import (
    estimate_sparsity_weight,
    neighbor_weights,
    project_simplex_columns,
    sparsity_gradient,
    sparsity_norm,
)
from .types import (
    AbundanceMatrix,
    AlgorithmVariant,
    ClusterAssignment,
    HyperspectralImage,
    NeighborhoodSystem,
    SignatureMatrix,
    UnmixingConfig,
    as_matrix,
    build_neighborhood,
)

MULT_GUARD = 1e-12  # added to multiplicative-update denominators
# Abundances this large (or non-finite) leave the unit column sum below
# rounding, so the simplex projection can no longer resolve it.
DIVERGENCE_BOUND = 1.0 / np.finfo(np.float64).eps


class Preset(NamedTuple):
    """The knobs one variant sets; see the module docstring."""

    coupled: bool
    cluster_mask: bool
    sparse: bool
    multiplicative: bool
    update_a: bool


PRESETS = {
    AlgorithmVariant.NMF: Preset(False, False, False, True, True),
    AlgorithmVariant.LQ_NMF: Preset(False, False, True, False, True),
    AlgorithmVariant.DISTRIBUTED: Preset(True, False, False, False, True),
    AlgorithmVariant.SPARSE_DISTRIBUTED: Preset(True, False, True, False, True),
    AlgorithmVariant.CLUSTERED_SPARSE_DISTRIBUTED: Preset(True, True, True, False, True),
    AlgorithmVariant.FCLS: Preset(False, False, False, False, False),
}


class StopReason(str, Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class UnmixingResult:
    """Outcome of a solver run. ``cost_trace`` holds one objective value per iteration."""

    A: SignatureMatrix
    S: AbundanceMatrix
    cost_trace: List[float]
    iterations_run: int
    stop_reason: StopReason

    def __post_init__(self):
        if len(self.cost_trace) != self.iterations_run:
            raise ValueError("cost_trace length must equal iterations_run")


def _factors(Y, A, S):
    """Image, signature and abundance matrices, checked for matching shapes."""
    Yd = as_matrix(Y, "image")
    Ad = as_matrix(A, "signatures")
    Sd = as_matrix(S, "abundances")
    if Ad.shape[0] != Yd.shape[0] or Ad.shape[1] != Sd.shape[0] or Sd.shape[1] != Yd.shape[1]:
        raise ValueError("incompatible shapes for image, signatures, abundances")
    return Yd, Ad, Sd


def global_cost(Y, A, S) -> float:
    """Summed squared reconstruction error over all pixels."""
    Yd, Ad, Sd = _factors(Y, A, S)
    resid = Yd - Ad @ Sd
    return float(np.sum(resid * resid))


def neighbor_operator(
    nbhd: NeighborhoodSystem, clusters: Optional[ClusterAssignment] = None
) -> csr_matrix:
    """The weighted neighbor graph as an N x N CSR matrix W.

    Row k holds the attached weights of the neighbors of pixel k. With
    ``clusters`` given, the weights to neighbors in another cluster are set
    to zero, so the coupling only sees same-cluster neighbors.
    """
    if nbhd.weights is None:
        raise ValueError("neighborhood weights have not been attached")
    n = nbhd.n_pixels
    weights = nbhd.weights
    if clusters is not None:
        labels = clusters.labels
        if labels.shape != (n,):
            raise ValueError("clusters do not match the neighborhood size")
        rows = np.repeat(np.arange(n), np.diff(nbhd.indptr))
        weights = weights * (labels[rows] == labels[nbhd.indices])
    return csr_matrix((weights, nbhd.indices, nbhd.indptr), shape=(n, n))


def abundance_step(
    Y, A, S, mu: float, W: Optional[csr_matrix] = None,
    eta: float = 0.0, lam: float = 0.0, q: float = 1.0,
) -> np.ndarray:
    """Diffusion-LMS abundance step of every pixel at once, before projection.

    Column k is ``mu`` times

        A^T (y_k - A s_k) + eta sum_j W[k, j] (s_j - s_k) - lam grad |s_k|_q

    with every pixel read from ``S``. The first two terms are minus half the
    gradient of pixel k's local cost in s_k; the neighbor sum is
    ``S W^T - S diag(W 1)``.
    """
    Yd, Ad, Sd = _factors(Y, A, S)
    step = mu * (Ad.T @ (Yd - Ad @ Sd))
    if W is not None and eta > 0:
        degree = np.asarray(W.sum(axis=1)).ravel()
        step += (mu * eta) * ((W @ Sd.T).T - Sd * degree)
    if lam > 0:
        step -= (mu * lam) * sparsity_gradient(Sd, q)
    return step


def objective(
    Y, A, S, W: Optional[csr_matrix] = None,
    eta: float = 0.0, lam: float = 0.0, q: float = 1.0,
) -> float:
    """The objective the solver records: the sum of every pixel's local cost.

    That is ``global_cost`` plus eta sum_kj W[k, j] |s_k - s_j|^2 plus lam
    times the summed guarded q-norms of the abundance columns.
    """
    value = global_cost(Y, A, S)
    Sd = as_matrix(S, "abundances")
    if W is not None and eta > 0:
        rows = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
        diff = Sd[:, rows] - Sd[:, W.indices]
        value += eta * float(W.data @ np.einsum("ij,ij->j", diff, diff))
    if lam > 0:
        value += lam * float(sparsity_norm(Sd, q).sum())
    return value


def update_signatures(Y, A, S) -> np.ndarray:
    """Multiplicative signature update A * (Y S^T) / (A S S^T + guard).

    Keeps nonnegativity and never increases the reconstruction error; the
    additive guard only protects against zero denominators.
    """
    Yd, Ad, Sd = _factors(Y, A, S)
    gram = Sd @ Sd.T
    return Ad * (Yd @ Sd.T) / (Ad @ gram + MULT_GUARD)


def update_abundance_multiplicative(Y, A, S) -> np.ndarray:
    """Multiplicative abundance update S * (A^T Y) / (A^T A S + guard)."""
    Yd, Ad, Sd = _factors(Y, A, S)
    return Sd * (Ad.T @ Yd) / ((Ad.T @ Ad) @ Sd + MULT_GUARD)


def converged(j_new: float, j_old: float, eps: float) -> bool:
    """Stopping rule: the absolute objective change fell below ``eps``."""
    if not (np.isfinite(j_new) and np.isfinite(j_old)):
        raise ValueError("objective values must be finite")
    return bool(abs(j_new - j_old) < eps)


def run_unmixing(
    Y,
    cfg: UnmixingConfig,
    init_A,
    init_S,
    clusters: Optional[ClusterAssignment] = None,
    on_iteration: Optional[Callable[[int, np.ndarray, np.ndarray, float], None]] = None,
) -> UnmixingResult:
    """Run the preset of ``cfg.variant`` from the given initialization.

    Every outer iteration updates the signatures (if the preset does),
    updates all abundance columns synchronously, projects each column onto
    the simplex, and records the objective. The run stops when two
    consecutive objectives differ by less than ``cfg.eps`` or after
    ``cfg.max_iter`` iterations. An abundance update that is non-finite or
    too large to project raises :class:`NumericalFailureError` before the
    projection sees it.

    ``clusters`` is required by the clustered variant and ignored elsewhere.
    ``on_iteration`` receives (iteration, A, S, objective) after each pass;
    the arrays must not be modified.
    """
    if not isinstance(Y, HyperspectralImage):
        raise ValueError("Y must be a HyperspectralImage")
    preset = PRESETS[AlgorithmVariant(cfg.variant)]
    if preset.cluster_mask and clusters is None:
        raise ValueError("the clustered variant requires a ClusterAssignment")
    Yd = Y.data
    A = as_matrix(init_A, "init_A").copy()
    S = as_matrix(init_S, "init_S").copy()
    n_bands, n_pixels = Yd.shape
    if A.shape[0] != n_bands or S.shape != (A.shape[1], n_pixels):
        raise ValueError("initial matrices do not match the image dimensions")

    eta = cfg.eta if preset.coupled else 0.0
    lam = 0.0
    if preset.sparse:
        lam = cfg.sparsity_weight
        if lam is None:
            lam = estimate_sparsity_weight(Yd)
    W = None
    if eta > 0:
        W = neighbor_operator(
            neighbor_weights(Y, build_neighborhood(Y.width, Y.height)),
            clusters if preset.cluster_mask else None,
        )

    trace: List[float] = []
    j_prev: Optional[float] = None
    reason = StopReason.MAX_ITER
    for iteration in range(1, cfg.max_iter + 1):
        if preset.update_a:
            A = update_signatures(Yd, A, S)
        if preset.multiplicative:
            S = update_abundance_multiplicative(Yd, A, S)
        else:
            S = S + abundance_step(Yd, A, S, cfg.mu, W, eta, lam, cfg.q)
        if not np.abs(S).max() < DIVERGENCE_BOUND:
            raise NumericalFailureError(
                f"abundance update diverged at iteration {iteration}", iteration=iteration
            )
        S = project_simplex_columns(S)

        j = objective(Yd, A, S, W, eta, lam, cfg.q)
        if not np.isfinite(j):
            raise NumericalFailureError(
                f"objective became non-finite at iteration {iteration}", iteration=iteration
            )
        trace.append(j)
        if on_iteration is not None:
            on_iteration(iteration, A, S, j)
        if j_prev is not None and converged(j, j_prev, cfg.eps):
            reason = StopReason.CONVERGED
            break
        j_prev = j

    return UnmixingResult(
        A=SignatureMatrix(A),
        S=AbundanceMatrix(S),
        cost_trace=trace,
        iterations_run=len(trace),
        stop_reason=reason,
    )
