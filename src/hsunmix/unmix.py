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

The loop never forms the L x N residual. The image enters the abundance
kernels only through the products of ``signature_products``, by the Gram
identities

    A^T (Y - A S) = A^T Y - (A^T A) S
    |Y - A S|^2   = |Y|^2 - 2 <A^T Y, S> + <A^T A, S S^T>

and the coupling term of the objective, for the neighbor operator W (the
scipy CSR matrix ``neighbor_weights`` forms on ``build_neighborhood``'s
grid, cluster-gated for the cluster mask), by

    sum_kj W[k, j] |s_k - s_j|^2 = <W 1 + W^T 1, |s|^2> - 2 <S, S W^T>

with |s|^2 the squared norms of the abundance columns. |Y|^2 and W, with
its row sums W 1 and its spread W 1 + W^T 1 (``coupling``), are formed once
per run. A^T Y and A^T A are formed once per signature update: every
iteration for the presets that update A, once per run for ``fcls``. The
coupling pull S W^T (``coupling_pull``) is formed once per iteration, after
the projection, and read by the objective and by the next step. The rest of
an iteration is c x N work, products with the sparse W included, apart from
the L x N products inside ``update_signatures``.

The Gram form of the residual rounds at about machine epsilon times |Y|^2,
not times |Y - A S|^2. On 40 x 40 scenes with |Y|^2 of about 2e4, noiseless
or noisy, the recorded cost differs from the direct ``global_cost`` by at
most 1e-10, 100 times below the stop rule's default ``eps`` of 1e-8. The
coupling identity likewise rounds at about machine epsilon times
eta <W 1 + W^T 1, |s|^2>, not times the coupling term itself. Rows of W
sum to at most 1 and abundance columns on the simplex have |s|^2 <= 1, so
that scale is at most 2 eta N: about 7e-14 at the default eta = 0.1 on a
40 x 40 scene.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, NamedTuple, Optional

import numpy as np
from scipy.sparse import csr_matrix

from .errors import NumericalFailureError
from .regularizers import (
    build_neighborhood,
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
    SignatureMatrix,
    UnmixingConfig,
    as_matrix,
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
    """Summed squared reconstruction error over all pixels, from the residual.

    The solver records the same term in Gram form (``gram_objective``); this
    direct definition is the reference it is checked against.
    """
    Yd, Ad, Sd = _factors(Y, A, S)
    resid = Yd - Ad @ Sd
    return float(np.sum(resid * resid))


class Coupling(NamedTuple):
    """The neighbor operator W with what the kernels read of it every iteration.

    ``gram_objective`` forms the coupling term from one sparse product,

        sum_kj W[k, j] |s_k - s_j|^2 = <spread, |s|^2> - 2 <S, S W^T>

    with |s|^2 the squared norm of every abundance column. The right side
    is a difference of two sums as large as <spread, |s|^2>, so it rounds at
    about machine epsilon times eta <spread, |s|^2>, not times the term.
    """

    W: csr_matrix
    degree: np.ndarray  # W 1, the summed weight of each row
    spread: np.ndarray  # W 1 + W^T 1, each pixel's weight as sender and receiver


def coupling(W: csr_matrix) -> Coupling:
    """Bundle W with its row sums and its row-plus-column sums."""
    degree = np.asarray(W.sum(axis=1)).ravel()
    return Coupling(W, degree, degree + np.asarray(W.sum(axis=0)).ravel())


class Products(NamedTuple):
    """What the abundance kernels need of the image for fixed signatures A."""

    AtY: np.ndarray  # c x N
    AtA: np.ndarray  # c x c


def signature_products(Y, A) -> Products:
    """A^T Y and A^T A: the only band-sized work of an abundance update."""
    return Products(A.T @ Y, A.T @ A)


def image_energy(Y) -> float:
    """|Y|^2, the constant term of the Gram-form residual."""
    return float(np.vdot(Y, Y))


def coupling_pull(graph: Coupling, S) -> np.ndarray:
    """S W^T: column k is the weighted sum of pixel k's neighbor columns."""
    return (graph.W @ S.T).T


def gram_step(
    P: Products, S, mu: float, graph: Optional[Coupling] = None,
    eta: float = 0.0, lam: float = 0.0, q: float = 1.0, pull: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Diffusion-LMS abundance step of every pixel at once, before projection.

    Column k is ``mu`` times

        A^T (y_k - A s_k) + eta sum_j W[k, j] (s_j - s_k) - lam grad |s_k|_q

    with every pixel read from ``S``. The first two terms are minus half the
    gradient of pixel k's local cost in s_k. The residual part is
    ``AtY - AtA S``; the neighbor sum is ``S W^T - S diag(W 1)``, with
    S W^T taken from ``pull`` when given (``coupling_pull(graph, S)``).
    """
    step = mu * (P.AtY - P.AtA @ S)
    if graph is not None and eta > 0:
        if pull is None:
            pull = coupling_pull(graph, S)
        step += (mu * eta) * (pull - S * graph.degree)
    if lam > 0:
        step -= (mu * lam) * sparsity_gradient(S, q)
    return step


def gram_objective(
    y_energy: float, P: Products, S, graph: Optional[Coupling] = None,
    eta: float = 0.0, lam: float = 0.0, q: float = 1.0, pull: Optional[np.ndarray] = None,
) -> float:
    """The objective the solver records: the sum of every pixel's local cost.

    The residual term is |Y|^2 - 2 <AtY, S> + <AtA, S S^T> with
    ``y_energy`` = |Y|^2; to it come eta sum_kj W[k, j] |s_k - s_j|^2 and
    lam times the summed guarded q-norms of the abundance columns; the
    coupling term comes from one sparse product, S W^T (see ``Coupling``),
    taken from ``pull`` when given. On an exact fit the residual term can
    round to a tiny negative value.
    """
    value = y_energy - 2.0 * float(np.vdot(P.AtY, S)) + float(np.vdot(P.AtA, S @ S.T))
    if graph is not None and eta > 0:
        if pull is None:
            pull = coupling_pull(graph, S)
        # np.vdot, not a full einsum reduction: that one sums sequentially
        # and rounds about ten times worse on 40 x 40 scenes
        value += eta * (
            float(graph.spread @ np.einsum("ij,ij->j", S, S)) - 2.0 * float(np.vdot(S, pull))
        )
    if lam > 0:
        value += lam * float(sparsity_norm(S, q).sum())
    return value


def gram_multiplicative(P: Products, S) -> np.ndarray:
    """Multiplicative abundance update S * AtY / (AtA S + guard)."""
    return S * P.AtY / (P.AtA @ S + MULT_GUARD)


def abundance_step(
    Y, A, S, mu: float, W: Optional[csr_matrix] = None,
    eta: float = 0.0, lam: float = 0.0, q: float = 1.0,
) -> np.ndarray:
    """``gram_step`` for an image, signatures and neighbor operator W."""
    Yd, Ad, Sd = _factors(Y, A, S)
    graph = None if W is None else coupling(W)
    return gram_step(signature_products(Yd, Ad), Sd, mu, graph, eta, lam, q)


def objective(
    Y, A, S, W: Optional[csr_matrix] = None,
    eta: float = 0.0, lam: float = 0.0, q: float = 1.0,
) -> float:
    """``gram_objective`` for an image, signatures and neighbor operator W.

    That is ``global_cost`` plus eta sum_kj W[k, j] |s_k - s_j|^2 plus lam
    times the summed guarded q-norms of the abundance columns.
    """
    Yd, Ad, Sd = _factors(Y, A, S)
    graph = None if W is None else coupling(W)
    return gram_objective(
        image_energy(Yd), signature_products(Yd, Ad), Sd, graph, eta, lam, q
    )


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
    return gram_multiplicative(signature_products(Yd, Ad), Sd)


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
    y_energy = image_energy(Yd)
    graph = None
    if eta > 0:
        graph = coupling(neighbor_weights(
            Y, build_neighborhood(Y.width, Y.height), clusters if preset.cluster_mask else None
        ))
    products = None if preset.update_a else signature_products(Yd, A)
    # S W^T of the current iterate, read by the objective and the next step
    pull = None if graph is None else coupling_pull(graph, S)

    trace: List[float] = []
    j_prev: Optional[float] = None
    reason = StopReason.MAX_ITER
    for iteration in range(1, cfg.max_iter + 1):
        if preset.update_a:
            A = update_signatures(Yd, A, S)
            products = signature_products(Yd, A)
        if preset.multiplicative:
            S = gram_multiplicative(products, S)
        else:
            S = S + gram_step(products, S, cfg.mu, graph, eta, lam, cfg.q, pull)
        if not np.abs(S).max() < DIVERGENCE_BOUND:
            raise NumericalFailureError(
                f"abundance update diverged at iteration {iteration}", iteration=iteration
            )
        S = project_simplex_columns(S)
        if graph is not None:
            pull = coupling_pull(graph, S)

        j = gram_objective(y_energy, products, S, graph, eta, lam, cfg.q, pull)
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
