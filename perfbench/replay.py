"""Kernel replay and fixed short solver runs on an iterate captured while tracing.

The public kernels ``update_signatures``, ``update_abundance_multiplicative``
and ``global_cost`` are twins of code that the solver loop inlines, so their
timings describe the public functions, not the loop; the loop's own cost is
``unmix.ms_per_iter.<variant>`` and ``unmix.loop_self_ms_per_iter``.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from hsunmix.clustering import fcm_objective
from hsunmix.regularizers import project_simplex_columns, sparsity_gradient
from hsunmix.types import ClusterAssignment, HyperspectralImage, UnmixingConfig, validate_abundances
from hsunmix.unmix import (
    AlgorithmVariant,
    global_cost,
    run_unmixing,
    update_abundance_multiplicative,
    update_signatures,
)

VARIANTS = tuple(v.value for v in AlgorithmVariant)
# A positive eps far below any objective change keeps the short runs at a
# fixed iteration count.
_NEVER_CONVERGE = 1e-300


def load_capture(trace_dir: Path) -> dict:
    """The captured iterate with the smallest cell key (deterministic per seed)."""
    paths = sorted(Path(trace_dir).glob("capture-*.npz"))
    if not paths:
        raise RuntimeError("the traced repetition captured no solver iterate")
    with np.load(paths[0]) as data:
        cap = {k: data[k] for k in data.files}
    width, height = (int(v) for v in cap["shape"])
    cap["image"] = HyperspectralImage(cap["Y"], width, height)
    cap["clusters"] = ClusterAssignment(cap["labels"], cap["memberships"], cap["centers"])
    return cap


def _median_ms(fn, min_reps: int = 5, min_seconds: float = 0.2) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def replay_kernels(cap: dict) -> tuple[dict, list[str]]:
    """Time the public kernels on the captured iterate; return (metrics, failures)."""
    Y, A, S = cap["Y"], cap["A"], cap["S"]
    mu, q = float(cap["mu"]), float(cap["q"])
    failures = []
    # the unprojected abundance step: infeasible, so the projection does real work
    V = S + mu * (A.T @ (Y - A @ S))
    if np.array_equal(project_simplex_columns(V), V):
        failures.append("replay: project_simplex_columns returned its input unchanged")
    metrics = {
        "unmix.update_signatures_ms": _median_ms(lambda: update_signatures(Y, A, S)),
        "unmix.update_abundance_multiplicative_ms": _median_ms(
            lambda: update_abundance_multiplicative(Y, A, S)
        ),
        "unmix.global_cost_ms": _median_ms(lambda: global_cost(Y, A, S)),
        "regularizers.project_simplex_columns_ms": _median_ms(lambda: project_simplex_columns(V)),
        "regularizers.sparsity_gradient_ms": _median_ms(lambda: sparsity_gradient(S, q)),
        "clustering.fcm_objective_ms": _median_ms(
            lambda: fcm_objective(Y, cap["memberships"], cap["centers"])
        ),
    }
    return metrics, failures


def variant_runs(cap: dict, iterations: int) -> tuple[dict, list[str]]:
    """Median ms per iteration of every variant over a fixed short run."""
    metrics, failures = {}, []
    for variant in VARIANTS:
        cfg = UnmixingConfig(
            mu=float(cap["mu"]), eta=float(cap["eta"]), q=float(cap["q"]),
            max_iter=iterations, eps=_NEVER_CONVERGE, variant=variant,
        )
        stamps = []
        result = run_unmixing(
            cap["image"], cfg, cap["A"], cap["S"], cap["clusters"],
            on_iteration=lambda *_: stamps.append(time.perf_counter()),
        )
        if result.iterations_run != iterations or not validate_abundances(result.S.data):
            failures.append(f"variant run {variant}: {result.iterations_run} iterations, "
                            "or abundances off the simplex")
        metrics[f"unmix.ms_per_iter.{variant}"] = 1e3 * float(np.median(np.diff(stamps)))
    return metrics, failures
