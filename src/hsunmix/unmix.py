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
the image when unset) when ``cfg.q < 1``; *multiplicative* replaces the
gradient abundance step by the multiplicative rule; *update A* turns the
signature update on.

Given no start abundances, ``fcls`` runs no loop: ``gram_fcls`` solves for
the fully constrained least-squares abundances of the fixed signatures
exactly, once. This is how ``initialize.fcls_abundances`` pairs the vca
signatures with a start.

The gradient abundance step is diffusion LMS: pixel k steps down the
gradient of its own local cost, residual plus weighted squared differences
to its neighbors plus penalty. The neighbor weights are normalized per
pixel, so the neighbor graph is not symmetric and the stacked step is not
the gradient of the summed objective. The sweep is synchronous: every
pixel reads its neighbors from the previous iterate.

The sparsity penalty promotes sparsity only for q < 1. At q = 1 it is the l1
norm, constant on the simplex, and the projection would cancel its step, so
the solver leaves the term out: no weight is estimated, no gradient taken
and no constant lam N added to the recorded cost. At q = 1
``sparse_distributed`` therefore runs ``distributed``,
``clustered_sparse_distributed`` a cluster-gated ``distributed``, and
``lq_nmf`` ``distributed`` at eta = 0, bit for bit.

The loop never forms the L x N residual. The image enters the abundance
kernels only through A^T Y and A^T A (``Products``), by the Gram identities

    A^T (Y - A S) = A^T Y - (A^T A) S
    |Y - A S|^2   = |Y|^2 - 2 <A^T Y, S> + <A^T A, S S^T>

and the coupling term of the objective by the identity derived in
``Coupling``, for the neighbor operator W: the N x N matrix whose row k
holds pixel k's weights on the 8-connected grid of the image, cluster-gated
for the cluster mask. The network, its storage and its kernels live in
:mod:`hsunmix.regularizers`. |Y|^2 and the ``coupling`` of W (its row
sums, its spread and eta) are formed once per run. For the presets that
update A, ``signature_step`` forms the new A and its A^T Y and A^T A in
one pass over the image, every iteration; ``fcls`` forms A^T Y and A^T A
once per run (``signature_products``). The abundance Gram matrix S S^T and
the coupling pull S W^T (``coupling_pull``) are formed once per iteration,
after the projection, and read by the objective and by the next step. The
rest of an iteration is c x N work, the pull included, apart from the one
pass of ``signature_step`` over the L x N image.

The Gram form of the residual rounds at about machine epsilon times |Y|^2,
not times |Y - A S|^2. On 40 x 40 scenes with |Y|^2 of about 2e4, noiseless
or noisy, the recorded cost differs from the direct ``global_cost`` by at
most 1e-10, 100 times below the stop rule's default ``eps`` of 1e-8. The
coupling identity likewise rounds at about machine epsilon times
eta <W 1 + W^T 1, |s|^2>, not times the coupling term itself. Rows of W
sum to at most 1 and abundance columns on the simplex have |s|^2 <= 1, so
that scale is at most 2 eta N: about 7e-14 at the default eta = 0.1 on a
40 x 40 scene.

``update_signatures``, ``update_abundance_multiplicative`` and ``global_cost``
keep an image-level form: the last is the Gram form's reference, and perfbench
replays all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import NumericalFailureError
from .regularizers import (
    Coupling,
    coupling,
    coupling_pull,
    estimate_sparsity_weight,
    neighbor_weights,
    project_simplex_columns,
    sparsity_gradient,
    sparsity_norm,
)
from .types import (
    BLOCK_BYTES,
    AbundanceMatrix,
    AlgorithmVariant,
    ClusterAssignment,
    HyperspectralImage,
    SignatureMatrix,
    UnmixingConfig,
    as_matrix,
    column_sq_norms,
)

MULT_GUARD = 1e-12  # added to multiplicative-update denominators
# An abundance update this large (or non-finite) has diverged. The simplex
# projection handles any finite column; this bound only marks the step.
DIVERGENCE_BOUND = 1.0 / np.finfo(np.float64).eps
# ``signature_step`` reads the image in blocks of whole band rows of
# ``BLOCK_BYTES``. Below this many rows a block saves less than the extra
# calls cost, and the image is read as one block; chosen by timing the
# kernel at 224 bands on 24 x 24 to 200 x 200 scenes (BENCH_21.json).
_MIN_BLOCK_BANDS = 16
# ``gram_fcls`` stops after this many passes per endmember, the iteration
# limit of Lawson & Hanson's NNLS; no scene or random problem checked, with
# c = 1 to 16, needed more than c + 3.
_FCLS_PASSES_PER_ENDMEMBER = 3


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
    stop_reason: StopReason

    @property
    def iterations_run(self) -> int:
        return len(self.cost_trace)


def _factors(Y, A, S):
    """Image, signature and abundance matrices, checked for matching shapes; ``S`` may be None."""
    Yd = as_matrix(Y, "image")
    Ad = as_matrix(A, "signatures")
    Sd = None if S is None else as_matrix(S, "abundances")
    if Ad.shape[0] != Yd.shape[0] or (Sd is not None and Sd.shape != (Ad.shape[1], Yd.shape[1])):
        raise ValueError("incompatible shapes for image, signatures, abundances")
    return Yd, Ad, Sd


def global_cost(Y, A, S) -> float:
    """Summed squared reconstruction error over all pixels, from the residual:
    the direct reference for the Gram form that ``gram_objective`` records."""
    Yd, Ad, Sd = _factors(Y, A, S)
    resid = Yd - Ad @ Sd
    return float(np.sum(resid * resid))


class Products(NamedTuple):
    """What the abundance kernels need of the image for fixed signatures A."""

    AtY: np.ndarray  # c x N
    AtA: np.ndarray  # c x c


def signature_products(Y, A) -> Products:
    """A^T Y and A^T A for signatures that stay fixed, as in ``fcls``."""
    return Products(A.T @ Y, A.T @ A)


def image_energy(Y) -> float:
    """|Y|^2, the constant term of the Gram-form residual."""
    return float(np.vdot(Y, Y))


def gram_step(
    P: Products, S, mu: float, graph: Optional[Coupling] = None,
    lam: float = 0.0, q: float = 1.0, pull: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Diffusion-LMS abundance step of every pixel at once, before projection.

    Column k is ``mu`` times

        A^T (y_k - A s_k) + eta sum_j W[k, j] (s_j - s_k) - lam grad |s_k|_q

    with every pixel read from ``S`` and eta = ``graph.eta``. The first two
    terms are minus half the gradient of pixel k's local cost in s_k. The
    residual part is ``AtY - AtA S``; the neighbor sum is
    ``S W^T - S diag(W 1)``. With a ``graph``, ``pull`` must be S W^T
    (``coupling_pull(graph, S)``). The step is written to ``out`` if given,
    an array of S's shape that is none of the inputs.
    """
    step = np.matmul(P.AtA, S, out=out)
    np.subtract(P.AtY, step, out=step)
    np.multiply(step, mu, out=step)
    if graph is not None:
        term = np.multiply(S, graph.degree)
        np.subtract(pull, term, out=term)
        step += np.multiply(term, mu * graph.eta, out=term)
    if lam > 0:
        step -= (mu * lam) * sparsity_gradient(S, q)
    return step


def gram_objective(
    y_energy: float, P: Products, S, gram: np.ndarray, graph: Optional[Coupling] = None,
    lam: float = 0.0, q: float = 1.0, pull: Optional[np.ndarray] = None,
) -> float:
    """The objective the solver records: the sum of every pixel's local cost.

    The residual term is |Y|^2 - 2 <AtY, S> + <AtA, S S^T> with
    ``y_energy`` = |Y|^2 and ``gram`` = S S^T, which the solver forms once
    per iteration for the next signature step too; to it come
    eta sum_kj W[k, j] |s_k - s_j|^2, with eta = ``graph.eta`` and the sum
    formed from S W^T by the identity in ``Coupling``, and lam times the
    summed guarded q-norms of the abundance columns.
    With a ``graph``, ``pull`` must be S W^T (``coupling_pull(graph, S)``).
    On an exact fit the residual term can round to a tiny negative value.
    """
    value = y_energy - 2.0 * float(np.vdot(P.AtY, S)) + float(np.vdot(P.AtA, gram))
    if graph is not None:
        # np.vdot, not a full einsum reduction: that one sums sequentially
        # and rounds about ten times worse on 40 x 40 scenes
        value += graph.eta * (
            float(graph.spread @ column_sq_norms(S)) - 2.0 * float(np.vdot(S, pull))
        )
    if lam > 0:
        value += lam * float(sparsity_norm(S, q).sum())
    return value


def gram_multiplicative(P: Products, S, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Multiplicative abundance update S * AtY / (AtA S + guard).

    The update is written to ``out`` if given, an array of S's shape that is
    none of the inputs.
    """
    denominator = np.matmul(P.AtA, S, out=out)
    denominator += MULT_GUARD
    return np.divide(S * P.AtY, denominator, out=denominator)


def gram_fcls(P: Products) -> Tuple[np.ndarray, bool]:
    """Fully constrained least squares of every pixel at once, solved exactly.

    Column k of the result minimises |y_k - A s|^2 = |y_k|^2 - 2 b^T s +
    s^T G s over s >= 0 with 1^T s = 1, where b = (A^T Y)_k and G = A^T A.
    The method is Lawson & Hanson's (1974) primal active set, with the
    sum-to-one kept as an exact equality in every subproblem rather than as
    the weighted extra row of Heinz & Chang (IEEE TGRS 2001), which only
    approximates it. Each pixel starts at its best vertex, with that
    signature as its free set F. While s is the optimum on F, the pixel frees
    the signature of most negative multiplier lambda_j = g_j - s^T g, with
    g = G s - b, and stops when no multiplier lies below rounding. Otherwise
    it solves the equality-constrained problem on F,

        [G_FF 1; 1^T 0] [z; nu] = [b_F; 1],

    and moves to z if z > 0, else as far toward z as s stays nonnegative,
    dropping the signatures that reach zero. Each pass frees at most one
    signature and takes one solve per pixel. Pixels with the same free set
    share one KKT matrix, whose pseudo-inverse is formed once per pass; it
    also serves a set whose signatures are affinely dependent, such as a
    duplicated column.

    Returns the c x N abundances and whether every pixel met the multiplier
    test within ``_FCLS_PASSES_PER_ENDMEMBER`` c passes; a pixel the cap
    stops keeps a feasible column of lower cost than its start.
    """
    # the problem is unchanged when G and b are scaled together; at unit
    # scale the KKT matrix is balanced and lambda's rounding is about
    # (c + 2) eps (1 + |b|) for a given s (Higham, section 3.1)
    scale = float(np.abs(P.AtA).max())
    scale = scale if scale > 0 else 1.0
    G, B = P.AtA / scale, P.AtY / scale
    c, n = B.shape
    tol = 4 * (c + 2) * np.finfo(np.float64).eps * (1.0 + np.abs(B).max(axis=0))
    S = np.zeros((c, n))
    S[np.argmin(np.diag(G)[:, None] - 2.0 * B, axis=0), np.arange(n)] = 1.0
    free = S > 0
    optimal = np.ones(n, dtype=bool)  # S is the optimum on its free set
    done = np.zeros(n, dtype=bool)
    for _ in range(_FCLS_PASSES_PER_ENDMEMBER * c):
        k = np.nonzero(optimal & ~done)[0]
        Sk = S[:, k]
        g = G @ Sk - B[:, k]
        lam = g - np.einsum("ij,ij->j", Sk, g)
        lam[free[:, k]] = np.inf
        t = np.argmin(lam, axis=0)
        enter = lam[t, np.arange(k.size)] < -tol[k]
        done[k[~enter]] = True
        free[t[enter], k[enter]] = True
        optimal[k[enter]] = False

        k = np.nonzero(~optimal)[0]
        if k.size == 0:
            break
        F = free[:, k]
        # number the distinct free sets: sort the pixels by their packed sets
        order = np.lexsort(np.packbits(F, axis=0))
        sets = F[:, order]
        first = np.ones(k.size, dtype=bool)
        first[1:] = (sets[:, 1:] != sets[:, :-1]).any(axis=0)
        which = np.empty(k.size, dtype=np.intp)
        which[order] = np.cumsum(first) - 1
        # each set's KKT matrix at full size: identity rows hold the others at 0
        Fm = sets[:, first].T.astype(np.float64)
        kkt = np.zeros((Fm.shape[0], c + 1, c + 1))
        kkt[:, :c, :c] = G * (Fm[:, :, None] * Fm[:, None, :])
        kkt[:, np.arange(c), np.arange(c)] += 1.0 - Fm
        kkt[:, :c, c] = kkt[:, c, :c] = Fm
        inverse = np.linalg.pinv(kkt)[:, :c]
        Z = np.einsum("nij,jn->in", inverse[which, :, :c], np.where(F, B[:, k], 0.0))
        Z += inverse[which, :, c].T
        Z[~F] = 0.0

        Sk = S[:, k]
        block = F & (Z <= 0)
        inside = ~block.any(axis=0)
        gap = Sk - Z  # zero on a blocking entry only where s_j = z_j = 0
        ratio = np.where(block, Sk / np.where(gap > 0, gap, 1.0), np.inf)
        j = np.argmin(ratio, axis=0)
        step = np.where(inside, 1.0, ratio[j, np.arange(k.size)])
        Sk += step * (Z - Sk)
        Sk[j[~inside], np.nonzero(~inside)[0]] = 0.0
        F &= Sk > 0
        Sk[~F] = 0.0
        S[:, k] = Sk
        free[:, k] = F
        optimal[k[inside]] = True
    S /= S.sum(axis=0)
    return S, bool(done.all())


def signature_step(Y, A, S, gram) -> Tuple[np.ndarray, Products]:
    """The multiplicative signature update and the products of its result, in one pass over Y.

    Returns A_new = A * (Y S^T) / (A gram + guard), with ``gram`` = S S^T,
    and ``Products(A_new^T Y, A_new^T A_new)``. Row l of A_new reads only
    row l of Y, so Y is walked in blocks of whole band rows: each block of
    A_new is formed and its share A_new[b]^T Y[b] of A_new^T Y added while
    the block is still in cache, one trip through memory where two full
    products take two (cache blocking as in Goto & van de Geijn, ACM TOMS
    2008). A block holds ``BLOCK_BYTES`` of Y; when that is fewer than
    ``_MIN_BLOCK_BANDS`` rows, Y is one block and the kernel is exactly the
    two full products. Summing A_new^T Y over blocks rounds differently from
    one product, by a few ulps.

    Y S^T is formed as (S Y^T)^T, the operand layout BLAS is fast on for a
    C-ordered Y; it rounds differently from Y @ S.T, by a few ulps.
    """
    n_bands, n_pixels = Y.shape
    rows = BLOCK_BYTES // (Y.itemsize * max(n_pixels, 1))
    if rows < _MIN_BLOCK_BANDS:
        rows = n_bands
    A_new = np.empty(A.shape)
    AtY = None
    for start in range(0, n_bands, rows):
        b = slice(start, start + rows)
        Yb = Y[b]
        A_new[b] = A[b] * (S @ Yb.T).T / (A[b] @ gram + MULT_GUARD)
        part = A_new[b].T @ Yb
        AtY = part if AtY is None else np.add(AtY, part, out=AtY)
    return A_new, Products(AtY, A_new.T @ A_new)


def update_signatures(Y, A, S) -> np.ndarray:
    """Multiplicative signature update A * (Y S^T) / (A S S^T + guard).

    Keeps nonnegativity and never increases the reconstruction error; the
    additive guard only protects against zero denominators. The checked
    entry point of ``signature_step``, which the solver runs; it returns the
    new signatures and drops the products.
    """
    Yd, Ad, Sd = _factors(Y, A, S)
    return signature_step(Yd, Ad, Sd, Sd @ Sd.T)[0]


def update_abundance_multiplicative(Y, A, S) -> np.ndarray:
    """Multiplicative abundance update S * (A^T Y) / (A^T A S + guard)."""
    Yd, Ad, Sd = _factors(Y, A, S)
    return gram_multiplicative(signature_products(Yd, Ad), Sd)


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
    the simplex, and records the objective. Without the sparsity term, the
    projection starts from the support of the current iterate, which the new
    one most often keeps; the sparsity term moves the support, and there the
    guess would cost passes. The run stops when two consecutive objectives
    differ by less than ``cfg.eps`` or after ``cfg.max_iter`` iterations. An
    abundance update that is non-finite or reaches ``DIVERGENCE_BOUND`` in
    size has diverged and raises :class:`NumericalFailureError`; the
    projection tells from the top and bottom entry of every column, which it
    forms anyway. The update is written to one buffer held for the run, and
    the coupling pull S W^T to another.

    ``init_S=None`` is accepted by ``fcls`` only, which then solves for the
    abundances once with ``gram_fcls`` instead of the loop. Its cost trace
    holds one value and ``on_iteration`` is called once; the stop reason is
    ``max_iter`` if the kernel's pass cap stopped a pixel short of the
    optimum, else ``converged``. Both ``fcls`` paths run one prologue with
    the loop: the same checks and, for a preset that keeps A fixed, A^T Y and
    A^T A formed once. A non-finite |Y|^2, A^T Y or A^T A raises
    :class:`NumericalFailureError` there, before any kernel reads it.

    The start is checked first, by its value types. ``clusters`` is required
    by the clustered variant and ignored elsewhere.
    ``on_iteration`` receives (iteration, A, S, objective) after each pass;
    the arrays must not be modified.
    """
    if not isinstance(Y, HyperspectralImage):
        raise ValueError("Y must be a HyperspectralImage")
    preset = PRESETS[AlgorithmVariant(cfg.variant)]
    if preset.cluster_mask and not isinstance(clusters, ClusterAssignment):
        raise ValueError("the clustered variant requires a ClusterAssignment")
    if init_S is None and preset.update_a:
        raise ValueError("only the fcls variant runs without start abundances")
    S = None if init_S is None else AbundanceMatrix(init_S)
    Yd, A, S = _factors(Y, SignatureMatrix(init_A), S)
    # fcls returns its signatures as the estimate, which must not share the
    # caller's array; S is replaced before anything could write to it
    A = A.copy()
    # every preset's objective holds |Y|^2, so no run could record a finite one
    y_energy = image_energy(Yd)
    if not np.isfinite(y_energy):
        raise NumericalFailureError("|Y|^2 of the objective is non-finite")
    products = None
    if not preset.update_a:
        products = signature_products(Yd, A)
        if not (np.isfinite(products.AtY).all() and np.isfinite(products.AtA).all()):
            raise NumericalFailureError("A^T Y or A^T A of the fcls solve is non-finite")
    if S is None:
        S, solved = gram_fcls(products)
        j = gram_objective(y_energy, products, S, S @ S.T)
        if not np.isfinite(j):
            raise NumericalFailureError("objective of the fcls solve is non-finite")
        if on_iteration is not None:
            on_iteration(1, A, S, j)
        reason = StopReason.CONVERGED if solved else StopReason.MAX_ITER
        return UnmixingResult(SignatureMatrix(A), AbundanceMatrix(S), [j], reason)

    lam = 0.0
    if preset.sparse and cfg.q < 1:
        lam = cfg.sparsity_weight
        if lam is None:
            lam = estimate_sparsity_weight(Y)
    graph = None
    if preset.coupled and cfg.eta > 0:
        graph = coupling(neighbor_weights(Y, clusters if preset.cluster_mask else None), cfg.eta)
    # S S^T and S W^T of the current iterate, read by the objective and the next step
    gram = S @ S.T
    pull = None if graph is None else coupling_pull(graph, S)

    # the abundance update, in one buffer for the run: the projection returns
    # a new S. It is C-ordered whatever the start's layout, as a fresh update
    # is; in Fortran order the step's product and the projection's sums
    # would round otherwise.
    V = np.empty(S.shape)
    # the current iterate is its own support hint (S >= 0 is nonzero on its
    # support), unless the sparsity term moves the support: there it costs passes
    hinted = lam == 0

    trace: List[float] = []
    j_prev: Optional[float] = None
    reason = StopReason.MAX_ITER
    for iteration in range(1, cfg.max_iter + 1):
        if preset.update_a:
            A, products = signature_step(Yd, A, S, gram)
        if preset.multiplicative:
            gram_multiplicative(products, S, out=V)
        else:
            np.add(S, gram_step(products, S, cfg.mu, graph, lam, cfg.q, pull, out=V), out=V)
        try:
            S = project_simplex_columns(V, support=S if hinted else None, bound=DIVERGENCE_BOUND)
        except NumericalFailureError as error:
            raise NumericalFailureError(f"abundance update diverged at iteration {iteration}") from error
        gram = S @ S.T
        if graph is not None:
            pull = coupling_pull(graph, S, out=pull)  # the step has read the last one

        j = gram_objective(y_energy, products, S, gram, graph, lam, cfg.q, pull)
        if not np.isfinite(j):
            raise NumericalFailureError(f"objective became non-finite at iteration {iteration}")
        trace.append(j)
        if on_iteration is not None:
            on_iteration(iteration, A, S, j)
        if j_prev is not None and abs(j - j_prev) < cfg.eps:
            reason = StopReason.CONVERGED
            break
        j_prev = j

    return UnmixingResult(SignatureMatrix(A), AbundanceMatrix(S), trace, reason)
