"""Spans recorded from outside the package, around calls into its public names.

The tracer replaces, for the duration of one traced repetition, the names that
``hsunmix.cli``, ``hsunmix.experiment``, ``hsunmix.initialize`` and
``hsunmix.unmix`` look up at call time. Each wrapper records a span (name,
start, end, parent) and, where the layer exposes one, an ``on_iteration``
hook is injected to count iterations. Spans stay in memory; worker processes
of the experiment pool (forked, so they inherit the wrappers) append theirs to
one file per process when each cell ends, and the parent reads them back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

import hsunmix.cli
import hsunmix.experiment
import hsunmix.initialize
import hsunmix.unmix

# Layer names (module.function) for every wrapped call site.
CLI_STAGES = {
    "vca": "initialize.vca",
    "fcls_abundances": "initialize.fcls",
    "fcm": "clustering.fcm",
    "run_unmixing": "unmix.solve",
    "evaluate_matrices": "metrics.evaluate",
    "read_cube": "fileio.read",
    "read_spectral_library": "fileio.read",
    "write_cube": "fileio.write",
    "write_spectral_library": "fileio.write",
    "write_report": "fileio.write",
    "write_rows_csv": "fileio.write",
    "write_aggregate_csv": "fileio.write",
    "run_experiment": "experiment.run",
}
EXPERIMENT_STAGES = {
    "run_cell": "experiment.cell",
    "generate_synthetic": "synth.generate",
    "vca": "initialize.vca",
    "fcls_abundances": "initialize.fcls",
    "fcm": "clustering.fcm",
    "run_unmixing": "unmix.solve",
    "evaluate": "metrics.evaluate",
}
INITIALIZE_STAGES = {"run_unmixing": "initialize.fcls_solve"}
UNMIX_STAGES = {
    "project_simplex_columns": "regularizers.project_simplex",
    "sparsity_gradient": "regularizers.sparsity_gradient",
    "neighbor_weights": "regularizers.neighbor_weights",
}
# Spans whose tracemalloc peak is recorded; they never nest inside each other.
PEAK_SPANS = {"clustering.fcm", "unmix.solve"}
CAPTURE_ITERATION = 50


class Tracer:
    """Span store for one traced repetition, plus the wrappers that feed it."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._count = 0
        self._patched: list[tuple[object, str, object]] = []
        self._cell_key = "main"
        self._parent_pid = os.getpid()

    # -- span store -------------------------------------------------------

    def open(self, name: str) -> dict:
        self._count += 1
        span = {
            "id": f"{os.getpid()}:{self._count}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "pid": os.getpid(),
            "start": time.perf_counter(),
        }
        if name in PEAK_SPANS and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            span["mem0"] = tracemalloc.get_traced_memory()[0]
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if "mem0" in span:
            span["peak_mb"] = (tracemalloc.get_traced_memory()[1] - span.pop("mem0")) / 2**20
        self._stack.pop()
        self.spans.append(span)

    def flush(self, since: int) -> None:
        """Append spans recorded since index ``since`` to this process's file."""
        path = self.trace_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans[since:]:
                fh.write(json.dumps(span) + "\n")

    def collect(self) -> list[dict]:
        """All spans: this process's plus those flushed by worker processes."""
        spans = list(self.spans)
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            if path.name != f"spans-{os.getpid()}.jsonl":
                with open(path) as fh:
                    spans.extend(json.loads(line) for line in fh)
        return spans

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        self._patch(hsunmix.cli, "main", "cli.main")
        for module, table in (
            (hsunmix.cli, CLI_STAGES),
            (hsunmix.experiment, EXPERIMENT_STAGES),
            (hsunmix.initialize, INITIALIZE_STAGES),
            (hsunmix.unmix, UNMIX_STAGES),
        ):
            for attr, name in table.items():
                self._patch(module, attr, name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return  # the program no longer has this name; its spans read as zero
        if name == "unmix.solve":
            wrapper = self._wrap_solve(original)
        elif name == "initialize.fcls_solve":
            wrapper = self._wrap_counted(original, name)
        elif name == "clustering.fcm":
            wrapper = self._wrap_fcm(original)
        elif name == "fileio.write":
            wrapper = self._wrap_write(original)
        elif name == "experiment.cell":
            wrapper = self._wrap_cell(original)
        else:
            wrapper = self._wrap(original, name)
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def _wrap_counted(self, fn, name):
        """Span that also records the solver's ``iterations_run``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                span["iterations"] = int(result.iterations_run)
                return result
            finally:
                self.close(span)

        return wrapper

    def _wrap_write(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            span = self.open("fileio.write")
            try:
                return fn(path, *args, **kwargs)
            finally:
                self.close(span)
                span["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0

        return wrapper

    def _wrap_cell(self, fn):
        """Experiment cell; in a worker process its spans are flushed when it ends."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            since = len(self.spans)
            self._cell_key = "-".join(str(a) for a in args[2:]) or str(os.getpid())
            span = self.open("experiment.cell")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if os.getpid() != self._parent_pid:
                    self.flush(since)

        return wrapper

    def _wrap_fcm(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            user_hook = bound.arguments.get("on_iteration")
            span = self.open("clustering.fcm")
            span["iterations"] = 0

            def hook(iteration, u, v, objective):
                span["iterations"] = iteration
                if user_hook is not None:
                    user_hook(iteration, u, v, objective)

            bound.arguments["on_iteration"] = hook
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self.close(span)

        return wrapper

    def _wrap_solve(self, fn):
        """Solver span: per-iteration timestamps, and one captured iterate."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            user_hook = bound.arguments.get("on_iteration")
            cfg = bound.arguments["cfg"]
            image = bound.arguments["Y"]
            clusters = bound.arguments.get("clusters")
            capture_at = min(CAPTURE_ITERATION, cfg.max_iter)
            stamps, captured = [], []
            span = self.open("unmix.solve")

            def hook(iteration, A, S, objective):
                stamps.append(time.perf_counter())
                if iteration == capture_at and clusters is not None:
                    captured.append((A.copy(), S.copy()))
                if user_hook is not None:
                    user_hook(iteration, A, S, objective)

            bound.arguments["on_iteration"] = hook
            try:
                result = fn(*bound.args, **bound.kwargs)
                span["iterations"] = int(result.iterations_run)
                return result
            finally:
                self.close(span)
                span["iter_ms"] = (np.diff([span["start"], *stamps]) * 1e3).tolist()
                if captured:
                    self._capture(image, *captured[0], cfg, clusters)

        return wrapper

    def _capture(self, image, A, S, cfg, clusters) -> None:
        """Save one real iterate of the clustered solver for the kernel replay."""
        path = self.trace_dir / f"capture-{self._cell_key}.npz"
        if path.exists():
            return
        np.savez(
            path,
            Y=image.data,
            shape=np.array([image.width, image.height]),
            A=A,
            S=S,
            mu=cfg.mu,
            q=cfg.q,
            eta=cfg.eta,
            labels=clusters.labels,
            memberships=clusters.memberships,
            centers=clusters.centers,
        )

    def start(self) -> None:
        tracemalloc.start()
        self.install()

    def stop(self) -> None:
        self.uninstall()
        tracemalloc.stop()


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of its interval that child spans cover."""
    covered = 0.0
    cursor = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo = max(child["start"], cursor)
        hi = min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span["end"] - span["start"]) - covered


def children_of(spans: list[dict]) -> dict:
    kids: dict = {}
    for span in spans:
        kids.setdefault(span["parent"], []).append(span)
    return kids


def layer_metrics(spans: list[dict], jobs: int) -> dict:
    """Per-layer numbers from the spans of one traced repetition."""
    kids = children_of(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def per_call(name, key):
        values = [s[key] for s in named(name) if key in s]
        return float(np.median(values)) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    cell_ids = {s["id"] for s in named("experiment.cell")}

    def cell_calls(name):
        return sum(1 for s in named(name) if s["parent"] in cell_ids)

    fcls_iters = sum(s.get("iterations", 0) for s in named("initialize.fcls_solve"))
    fcm_iters = sum(s.get("iterations", 0) for s in named("clustering.fcm"))
    solves = named("unmix.solve")
    solve_iters = sum(s.get("iterations", 0) for s in solves)
    solve_self = sum(self_time(s, kids.get(s["id"], [])) for s in solves)
    iter_ms = [ms for s in solves for ms in s.get("iter_ms", [])]
    cells = named("experiment.cell")
    runs = named("experiment.run")
    writes = named("fileio.write")
    root = named("cli.main")[0]
    root_dur = root["end"] - root["start"]
    return {
        "initialize.vca_s": total("initialize.vca"),
        "initialize.fcls_s": total("initialize.fcls"),
        "initialize.fcls_iterations": per_call("initialize.fcls_solve", "iterations"),
        "initialize.fcls_ms_per_iter": 1e3 * ratio(total("initialize.fcls"), fcls_iters),
        "clustering.fcm_s": total("clustering.fcm"),
        "clustering.fcm_iterations": per_call("clustering.fcm", "iterations"),
        "clustering.fcm_ms_per_iter": 1e3 * ratio(total("clustering.fcm"), fcm_iters),
        "clustering.fcm_peak_alloc_mb": max((s.get("peak_mb", 0.0) for s in named("clustering.fcm")), default=0.0),
        "unmix.solve_s": total("unmix.solve"),
        "unmix.iterations": float(solve_iters),
        "unmix.ms_per_iter": 1e3 * ratio(total("unmix.solve"), solve_iters),
        "unmix.iter_ms_p90": float(np.percentile(iter_ms, 90)) if iter_ms else 0.0,
        "unmix.loop_self_ms_per_iter": 1e3 * ratio(solve_self, solve_iters),
        "unmix.peak_alloc_mb": max((s.get("peak_mb", 0.0) for s in solves), default=0.0),
        "regularizers.project_simplex_s": total("regularizers.project_simplex"),
        "regularizers.project_simplex_calls": float(len(named("regularizers.project_simplex"))),
        "regularizers.sparsity_gradient_s": total("regularizers.sparsity_gradient"),
        "regularizers.neighbor_weights_s": total("regularizers.neighbor_weights"),
        "experiment.cells": float(len(cells)),
        "experiment.cell_s": float(np.median([s["end"] - s["start"] for s in cells])) if cells else 0.0,
        "experiment.worker_busy_frac": ratio(total("experiment.cell"), jobs * total("experiment.run")) if runs else 0.0,
        "experiment.synth_calls": float(cell_calls("synth.generate")),
        "experiment.vca_calls": float(cell_calls("initialize.vca")),
        "experiment.fcls_calls": float(cell_calls("initialize.fcls")),
        "experiment.fcm_calls": float(cell_calls("clustering.fcm")),
        "fileio.read_s": total("fileio.read"),
        "fileio.write_s": total("fileio.write"),
        "fileio.bytes_written": float(sum(s.get("bytes", 0) for s in writes)),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "synth.generate_s": total("synth.generate"),
        "trace.span_coverage": 1.0 - self_time(root, kids.get(root["id"], [])) / root_dur,
    }
