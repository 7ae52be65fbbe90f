"""Monte-Carlo experiment harness.

An experiment sweeps algorithm variants over noise levels, cluster counts,
and repeated runs on freshly generated synthetic scenes, then writes a tidy
per-run CSV plus an aggregate CSV of per-cell means. Every random ingredient
is derived from the master seed and the cell coordinates, so any cell can be
reproduced in isolation with ``run_cell``. A cell runs the same steps as
``hsunmix unmix``: ``initial_estimates``, then fuzzy c-means when the
variant's preset gates the coupling by cluster (``needs_clusters``), then
the solver.

The scene and the starting point depend only on (snr, run), a clustering also
on the cluster count, and a solve on the variant too, so ``run_experiment``
works one (snr, run) group at a time and hands its cells one memo, keyed as
``run_cell`` says: the first cell that needs a scene, start, clustering or
solve makes it and the others reuse it, which is safe because the value types
hold their arrays read-only. The module keeps no state between calls. With
``jobs > 1`` the groups, not the cells, are spread over the worker processes.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import product
from typing import (
    Callable, List, NamedTuple, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints,
)

import numpy as np

from .clustering import FCM_CLUSTERS, FCM_M, FCM_MAX_ITER, FCM_TOL, check_fcm_settings, fcm
from .initialize import fcls_abundances, random_init, vca
from .metrics import evaluate
from .synth import (
    SCENE_ENDMEMBERS, SCENE_FILTER, SCENE_HEIGHT, SCENE_PATCH, SCENE_PURITY_CAP, SCENE_WIDTH,
    check_scene_settings, generate_synthetic,
)
from .types import (
    AbundanceMatrix, AlgorithmVariant, HyperspectralImage, SignatureMatrix, UnmixingConfig, as_integer,
    resolve_variant,
)
from .unmix import PRESETS, run_unmixing

RUN_COLUMNS = (
    "variant",
    "snr_db",
    "clusters",
    "run",
    "rms_sad",
    "rms_aad",
    "iterations",
    "stop_reason",
)
_CELL_COLUMNS = ("variant", "snr_db", "clusters")
AGGREGATE_COLUMNS = (*_CELL_COLUMNS, "rms_sad", "rms_aad")

# seed stream tags
_SCENE, _FCM, _INIT, _SIGNATURES = 0, 1, 2, 3

INIT_METHODS = ("vca", "random")


def check_init(init: str) -> None:
    """Raise ``ValueError`` unless ``init`` names one of ``INIT_METHODS``."""
    if init not in INIT_METHODS:
        raise ValueError("init must be " + " or ".join(map(repr, INIT_METHODS)))


def initial_estimates(
    Y: HyperspectralImage, endmembers: int, init: str, seed: int
) -> Tuple[SignatureMatrix, AbundanceMatrix]:
    """Starting signatures and abundances: ``"vca"`` (VCA signatures, FCLS abundances) or ``"random"``."""
    check_init(init)
    if init == "vca":
        A0 = vca(Y, endmembers, seed=seed)
        return A0, fcls_abundances(Y, A0)
    return random_init(Y.n_bands, endmembers, Y.n_pixels, seed=seed)


def needs_clusters(variant: str) -> bool:
    """Whether the preset of ``variant`` gates its coupling by FCM cluster."""
    return PRESETS[AlgorithmVariant(variant)].cluster_mask


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one experiment sweep.

    The solver settings are the :class:`UnmixingConfig` fields but ``variant``,
    by name and with its defaults, plus ``q_lq``, the ``q`` of ``lq_nmf``; the
    FCM settings and the cluster count default to the ``FCM_*`` constants of
    :mod:`hsunmix.clustering`. The scenes, the cluster counts, the FCM
    settings (if a variant clusters) and every config are checked on
    construction, so a bad setting fails before any cell runs. No list may
    name an entry twice, aliases resolved.
    """

    variants: Tuple[str, ...] = (UnmixingConfig.variant,)
    snr_levels: Tuple[float, ...] = (15.0, 20.0, 25.0, 30.0, 35.0)
    cluster_counts: Tuple[int, ...] = (FCM_CLUSTERS,)
    runs: int = 20
    width: int = SCENE_WIDTH
    height: int = SCENE_HEIGHT
    endmembers: int = SCENE_ENDMEMBERS
    patch: int = SCENE_PATCH
    filter_size: int = SCENE_FILTER
    purity_cap: float = SCENE_PURITY_CAP
    mu: float = UnmixingConfig.mu
    eta: float = UnmixingConfig.eta
    q: float = UnmixingConfig.q
    q_lq: float = 0.5
    sparsity_weight: Optional[float] = UnmixingConfig.sparsity_weight
    max_iter: int = UnmixingConfig.max_iter
    eps: float = UnmixingConfig.eps
    init: str = "vca"
    fcm_m: float = FCM_M
    fcm_tol: float = FCM_TOL
    fcm_max_iter: int = FCM_MAX_ITER
    seed: int = 0
    fix_signatures: bool = False
    library: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(resolve_variant(v) for v in self.variants))
        object.__setattr__(self, "snr_levels", tuple(float(s) for s in self.snr_levels))
        counts = tuple(as_integer(c, "cluster_counts") for c in self.cluster_counts)
        object.__setattr__(self, "cluster_counts", counts)
        for name, kind in _SPEC_TYPES.items():
            if kind is int:
                object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if not self.variants or not self.snr_levels or not self.cluster_counts:
            raise ValueError("variants, snr_levels, and cluster_counts must be nonempty")
        for name in ("variants", "snr_levels", "cluster_counts"):
            entries = getattr(self, name)
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    # the repeated cells would get rows no reader can tell apart
                    raise ValueError(f"{name} lists {entry} twice")
        if min(self.cluster_counts) < 1:
            raise ValueError("clusters must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        check_init(self.init)
        for snr in self.snr_levels:
            check_scene_settings(**self.scene_settings(snr))
        pixels = f"the {self.width * self.height} pixels of a {self.width} x {self.height} scene"
        if any(needs_clusters(v) for v in self.variants):
            check_fcm_settings(self.fcm_m, self.fcm_tol, self.fcm_max_iter)
            for n_clusters in self.cluster_counts:
                if n_clusters > self.width * self.height:
                    raise ValueError(f"cluster count {n_clusters} exceeds {pixels}")
        if self.init == "vca" and self.endmembers > self.width * self.height:
            raise ValueError(f"endmember count {self.endmembers} exceeds {pixels}")
        for variant in self.variants:
            self.config(variant)

    def config(self, variant: str) -> UnmixingConfig:
        """Solver settings of one cell, each the spec field of its name; ``lq_nmf`` runs at ``q_lq``."""
        settings = {f.name: getattr(self, f.name) for f in fields(UnmixingConfig) if f.name != "variant"}
        if variant == AlgorithmVariant.LQ_NMF:
            settings["q"] = self.q_lq
        return UnmixingConfig(**settings, variant=variant)

    def scene_settings(self, snr: float) -> dict:
        """Settings of ``generate_synthetic`` for the scenes at ``snr`` dB, all but library and seed."""
        return dict(c=self.endmembers, width=self.width, height=self.height, patch=self.patch,
                    filter_size=self.filter_size, snr_db=snr, purity_cap=self.purity_cap)

    @property
    def n_cells(self) -> int:
        return len(self.variants) * len(self.snr_levels) * len(self.cluster_counts) * self.runs


_SPEC_TYPES = get_type_hints(ExperimentSpec)


def _parse_spec_value(kind, text: str):
    """Parse ``text`` as a value of the ``ExperimentSpec`` field type ``kind``.

    Tuples take comma-separated items; only ``Optional`` fields accept ``none``.
    """
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(_parse_spec_value(item, v.strip()) for v in text.split(",") if v.strip())
    if get_origin(kind) is Union:
        if text.lower() == "none":
            return None
        kind = get_args(kind)[0]
    if kind is bool:
        if text.lower() not in ("true", "false"):
            raise ValueError(f"expected true/false, got {text!r}")
        return text.lower() == "true"
    return kind(text)


def parse_experiment_spec(text: str) -> ExperimentSpec:
    """Parse the flat key-value experiment grammar.

    One ``key = value`` pair per line; ``#`` starts a comment; blank lines
    are ignored. The keys are the :class:`ExperimentSpec` fields, and each
    value is read as its field's type. List-valued keys take comma-separated
    entries.
    """
    values = {}
    linenos = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key not in _SPEC_TYPES:
                raise ValueError(f"unknown key {key!r}")
            values[key] = _parse_spec_value(_SPEC_TYPES[key], val.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        linenos[key] = lineno
    try:
        return ExperimentSpec(**values)
    except ValueError as exc:
        # Name the line after which the settings read so far first fail the
        # same way: the setting that made the spec invalid.
        keys = list(values)
        for i, key in enumerate(keys, start=1):
            try:
                ExperimentSpec(**{k: values[k] for k in keys[:i]})
            except ValueError as partial:
                if str(partial) == str(exc):
                    raise ValueError(f"line {linenos[key]}: {exc}") from None
        raise


def derive_seed(master: int, *indices: int) -> int:
    """Deterministic child seed for a cell coordinate tuple."""
    state = np.random.SeedSequence([int(master), *[int(i) for i in indices]])
    return int(state.generate_state(1, np.uint32)[0])


def _cell_library(spec: ExperimentSpec, library: np.ndarray) -> np.ndarray:
    if not spec.fix_signatures:
        return library
    rng = np.random.default_rng(derive_seed(spec.seed, _SIGNATURES))
    chosen = np.sort(rng.choice(library.shape[1], size=spec.endmembers, replace=False))
    return library[:, chosen]


class GroupScene(NamedTuple):
    """A scene as a group's memo holds it: its image and its truth, without the
    noise cube of :class:`~hsunmix.synth.SyntheticScene`, which no cell reads."""

    Y: HyperspectralImage
    A_true: SignatureMatrix
    S_true: AbundanceMatrix


def run_cell(
    spec: ExperimentSpec,
    library: np.ndarray,
    variant_idx: int,
    snr_idx: int,
    cluster_idx: int,
    run: int,
    *,
    group: Optional[dict] = None,
) -> dict:
    """Run a single (variant, snr, cluster count, run) cell and score it.

    The scene and initialization seeds depend only on (snr, run), and the
    FCM seed only on (snr, cluster count, run), so that all variants and
    cluster counts see the same data and starting point. ``group`` is the
    memo of one (snr, run) group: the scene under ``"scene"`` as a
    :class:`GroupScene`, which holds no noise cube, the start
    under ``"init"``, each clustering under its cluster index, and each solve
    with its scores under ``(variant, cluster index)``, the index ``None`` if
    the variant does not cluster. The cell makes what the memo lacks and
    leaves it there, read-only as every value type is, for the next cell;
    without ``group`` it makes its own. The row does not depend on ``group``.
    """
    variant = spec.variants[variant_idx]
    snr = spec.snr_levels[snr_idx]
    n_clusters = spec.cluster_counts[cluster_idx]
    group = {} if group is None else group

    def shared(key, make):
        if key not in group:
            group[key] = make()
        return group[key]

    def make_scene():
        scene = generate_synthetic(
            _cell_library(spec, library), **spec.scene_settings(snr),
            seed=derive_seed(spec.seed, _SCENE, snr_idx, run),
        )
        return GroupScene(scene.Y, scene.A_true, scene.S_true)
    scene = shared("scene", make_scene)
    A0, S0 = shared("init", lambda: initial_estimates(
        scene.Y, spec.endmembers, spec.init, derive_seed(spec.seed, _INIT, snr_idx, run),
    ))
    clusters = shared(cluster_idx, lambda: fcm(
        scene.Y, n_clusters, seed=derive_seed(spec.seed, _FCM, snr_idx, cluster_idx, run),
        m=spec.fcm_m, tol=spec.fcm_tol, max_iter=spec.fcm_max_iter,
    )) if needs_clusters(variant) else None

    def solve():
        result = run_unmixing(scene.Y, spec.config(variant), A0, S0, clusters)
        return result, evaluate(scene.A_true, scene.S_true, result)
    result, report = shared((variant, None if clusters is None else cluster_idx), solve)
    return {
        "variant": variant,
        "snr_db": snr,
        "clusters": n_clusters,
        "run": run,
        "rms_sad": report.rms_sad,
        "rms_aad": report.rms_aad,
        "iterations": result.iterations_run,
        "stop_reason": result.stop_reason.value,
    }


def _run_group(args) -> List[dict]:
    """Rows of every (variant, cluster count) cell of one (snr, run) group, in cell order."""
    spec, library, snr_idx, run = args
    group: dict = {}
    return [
        run_cell(spec, library, vi, snr_idx, ci, run, group=group)
        for vi, ci in product(range(len(spec.variants)), range(len(spec.cluster_counts)))
    ]


def run_experiment(
    spec: ExperimentSpec,
    library: Union[SignatureMatrix, np.ndarray],
    jobs: int = 1,
    progress: Optional[Callable[[int, int, dict], None]] = None,
) -> Tuple[List[dict], List[dict]]:
    """Run all cells of ``spec`` and return (per-run rows, aggregate rows).

    The work is split into one task per (snr, run) group, whose cells share
    the scene, the starting point, the clusterings and the solves; with
    ``jobs > 1`` the tasks go to a pool of that many processes, so more jobs
    than groups leave workers idle. Rows come back in cell order (variants,
    snr levels, cluster counts, runs); ``progress(done, total, row)`` gets
    each row as soon as its group returns, in group order, the same for
    every ``jobs``. Aggregates hold the per-cell means of rms_sad and
    rms_aad over the Monte-Carlo runs. A bad ``library``, or one with fewer
    columns than the spec's endmembers, fails before any cell.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    # both checked before the pool starts: a cell would fail only inside its worker
    library = SignatureMatrix(library).data
    if spec.endmembers > library.shape[1]:
        raise ValueError(
            f"endmembers = {spec.endmembers} exceeds the {library.shape[1]} signatures of the library"
        )
    groups = [(spec, library, si, run) for si in range(len(spec.snr_levels)) for run in range(spec.runs)]
    rows: List[dict] = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for group_rows in map(_run_group, groups) if pool is None else pool.map(_run_group, groups):
            for row in group_rows:
                rows.append(row)
                if progress is not None:
                    progress(len(rows), spec.n_cells, row)

    axes = (spec.variants, spec.snr_levels, spec.cluster_counts)
    rows.sort(key=lambda r: ([axis.index(r[c]) for axis, c in zip(axes, _CELL_COLUMNS)], r["run"]))
    aggregates = []
    for start in range(0, len(rows), spec.runs):
        runs = rows[start:start + spec.runs]
        aggregates.append(
            {
                **{c: runs[0][c] for c in _CELL_COLUMNS},
                "rms_sad": sum(r["rms_sad"] for r in runs) / spec.runs,
                "rms_aad": sum(r["rms_aad"] for r in runs) / spec.runs,
            }
        )
    return rows, aggregates


def write_rows_csv(path, rows: Sequence[dict]) -> None:
    """Write per-run rows with the fixed tidy schema."""
    _write_csv(path, RUN_COLUMNS, rows)


def write_aggregate_csv(path, aggregates: Sequence[dict]) -> None:
    """Write aggregate means with the fixed schema."""
    _write_csv(path, AGGREGATE_COLUMNS, aggregates)


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            # csv writes floats with repr, so every value reads back exactly
            writer.writerow([row[c] for c in columns])
