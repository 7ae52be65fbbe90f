"""Command-line interface.

Subcommands cover the full pipeline: synthesize a scene, cluster its pixels,
unmix it with any algorithm variant, score estimates against ground truth,
and drive Monte-Carlo experiment sweeps from a spec file. ``unmix``
initializes (:func:`hsunmix.experiment.initial_estimates`), clusters when the
variant's preset asks for it, and solves; every experiment cell runs the same
three steps, shared within its (snr, run) group.

Exit codes: 0 on success, 1 when the algorithm itself fails (numerical
breakdown or degenerate input data), 2 for usage, IO, and format errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .clustering import FCM_CLUSTERS, FCM_M, FCM_MAX_ITER, FCM_TOL, fcm
from .errors import DegenerateDataError, NumericalFailureError
from .experiment import (
    INIT_METHODS, initial_estimates, needs_clusters, parse_experiment_spec, run_experiment,
    write_aggregate_csv, write_rows_csv,
)
from .fileio import read_cube, read_spectral_library, write_cube, write_report, write_spectral_library
from .metrics import evaluate_matrices
from .synth import (
    SCENE_ENDMEMBERS, SCENE_FILTER, SCENE_HEIGHT, SCENE_PATCH, SCENE_PURITY_CAP, SCENE_WIDTH,
    bundled_library, generate_synthetic,
)
from .types import (
    VARIANT_ALIASES, AbundanceMatrix, AlgorithmVariant, HyperspectralImage, UnmixingConfig, resolve_variant,
)
from .unmix import run_unmixing

VARIANT_CHOICES = tuple(v.value for v in AlgorithmVariant) + tuple(VARIANT_ALIASES)


def _seed(text: str) -> int:
    """Parse a ``--seed`` value: an integer of at least 0, which numpy's generators require."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _load_library(path):
    if path is None:
        return bundled_library()
    return read_spectral_library(path)


def _truth_abundances(path, cube: HyperspectralImage) -> AbundanceMatrix:
    """The ``--truth-s`` cube as abundances; a column off the simplex raises, naming ``path``."""
    try:
        return AbundanceMatrix(cube.data)
    except ValueError as exc:
        raise ValueError(f"--truth-s {path}: {exc}") from None


def _cmd_synth(args) -> int:
    library = _load_library(args.library)
    scene = generate_synthetic(
        library,
        args.c,
        width=args.width,
        height=args.height,
        patch=args.patch,
        filter_size=args.filter,
        snr_db=args.snr,
        purity_cap=args.purity_cap,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_cube(out / "Y.cube", scene.Y)
    write_spectral_library(out / "A_true.csv", scene.A_true)
    write_cube(
        out / "S_true.cube",
        HyperspectralImage(scene.S_true.data, scene.Y.width, scene.Y.height),
    )
    print(f"wrote scene with {scene.Y.n_pixels} pixels, {scene.Y.n_bands} bands to {out}")
    return 0


def _cmd_cluster(args) -> int:
    image = read_cube(args.cube)
    assignment = fcm(
        image,
        args.clusters,
        m=args.m,
        tol=args.tol,
        max_iter=args.max_iter,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_cube(
        out / "memberships.cube",
        HyperspectralImage(assignment.memberships, image.width, image.height),
    )
    write_cube(
        out / "labels.cube",
        HyperspectralImage(
            assignment.labels.astype(np.float64)[np.newaxis, :], image.width, image.height
        ),
    )
    counts = np.bincount(assignment.labels, minlength=args.clusters)
    print(f"clustered {image.n_pixels} pixels into {args.clusters} groups; sizes {counts.tolist()}")
    return 0


def _cmd_unmix(args) -> int:
    image = read_cube(args.cube)
    variant = resolve_variant(args.variant)
    n_clusters = args.clusters
    if n_clusters is None:
        n_clusters = FCM_CLUSTERS
    elif n_clusters < 1:
        raise ValueError("clusters must be at least 1")
    elif not needs_clusters(variant):
        print(f"warning: --clusters has no effect for variant {variant}", file=sys.stderr)

    cfg = UnmixingConfig(
        mu=args.mu,
        eta=args.eta,
        q=args.q,
        sparsity_weight=args.sparsity_weight,
        max_iter=args.max_iter,
        eps=args.eps,
        variant=variant,
    )
    truth = None
    if args.truth_a is not None or args.truth_s is not None:
        if args.truth_a is None or args.truth_s is None:
            raise ValueError("--truth-a and --truth-s must be given together")
        truth = read_spectral_library(args.truth_a), read_cube(args.truth_s)
        # checked here: a mismatch would otherwise surface only when scoring, after the solve
        for flag, path, matrix, (rows, cols), axes in (
            ("--truth-a", args.truth_a, truth[0], (image.n_bands, args.endmembers), "bands x endmembers"),
            ("--truth-s", args.truth_s, truth[1], (args.endmembers, image.n_pixels), "endmembers x pixels"),
        ):
            if matrix.data.shape != (rows, cols):
                found = " x ".join(map(str, matrix.data.shape))
                raise ValueError(f"{flag} {path} is {found}, expected {rows} x {cols} ({axes})")
        truth = truth[0], _truth_abundances(args.truth_s, truth[1])

    # clustering checks --clusters against the pixel count, so it runs before the costlier start
    clusters = fcm(image, n_clusters, seed=args.seed) if needs_clusters(variant) else None
    A0, S0 = initial_estimates(image, args.endmembers, args.init, args.seed)
    result = run_unmixing(image, cfg, A0, S0, clusters)

    report = None
    if truth is not None:
        A_true, S_true = truth
        report = evaluate_matrices(A_true.data, S_true.data, result.A.data, result.S.data)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_spectral_library(out / "A_est.csv", result.A)
    write_cube(out / "S_est.cube", HyperspectralImage(result.S.data, image.width, image.height))
    write_report(out / "report.json", report, result.cost_trace,
                 dict(asdict(cfg), clusters=n_clusters, seed=args.seed))
    line = (
        f"{variant}: {result.iterations_run} iterations "
        f"({result.stop_reason.value}), final cost {result.cost_trace[-1]:.6g}"
    )
    if report is not None:
        line += f", rms_sad {report.rms_sad:.6g}, rms_aad {report.rms_aad:.6g}"
    print(line)
    return 0


def _cmd_eval(args) -> int:
    A_true = read_spectral_library(args.truth_a)
    S_true = _truth_abundances(args.truth_s, read_cube(args.truth_s))
    A_est, S_est = read_spectral_library(args.est_a), read_cube(args.est_s)
    report = evaluate_matrices(A_true.data, S_true.data, A_est.data, S_est.data)
    if args.out is not None:
        write_report(args.out, report, [], {})
    print(f"rms_sad {report.rms_sad:.6g}, rms_aad {report.rms_aad:.6g}")
    return 0


def _cmd_experiment(args) -> int:
    with open(args.spec) as fh:
        spec = parse_experiment_spec(fh.read())
    library = _load_library(spec.library)

    def progress(done, total, row):
        print(f"[{done}/{total}] {row['variant']} snr={row['snr_db']:g} clusters={row['clusters']} "
              f"run={row['run']} rms_sad={row['rms_sad']:.4g}", flush=True)

    rows, aggregates = run_experiment(spec, library, args.jobs, None if args.quiet else progress)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_rows_csv(out / "runs.csv", rows)
    write_aggregate_csv(out / "aggregate.csv", aggregates)
    print(f"wrote {len(rows)} runs and {len(aggregates)} aggregate rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsunmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--c", type=int, default=SCENE_ENDMEMBERS, help="number of endmembers")
    p.add_argument("--width", type=int, default=SCENE_WIDTH)
    p.add_argument("--height", type=int, default=SCENE_HEIGHT)
    p.add_argument("--patch", type=int, default=SCENE_PATCH, help="side of the square patches")
    p.add_argument("--filter", type=int, default=SCENE_FILTER, help="odd smoothing window size")
    p.add_argument("--snr", type=float, default=25.0, help="target SNR in dB")
    p.add_argument("--purity-cap", type=float, default=SCENE_PURITY_CAP,
                   help="maximum abundance of any pixel")
    p.add_argument("--library", default=None, help="spectral library CSV (default: bundled)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("cluster", help="fuzzy-cluster the pixels of a cube")
    p.add_argument("cube", help="input data cube")
    p.add_argument("--clusters", type=int, default=FCM_CLUSTERS)
    p.add_argument("--m", type=float, default=FCM_M, help="fuzziness exponent")
    p.add_argument("--tol", type=float, default=FCM_TOL)
    p.add_argument("--max-iter", type=int, default=FCM_MAX_ITER)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("unmix", help="estimate signatures and abundances")
    p.add_argument("cube", help="input data cube")
    p.add_argument("--variant", choices=VARIANT_CHOICES, default="proposed")
    p.add_argument("--init", choices=INIT_METHODS, default="vca")
    p.add_argument("--endmembers", type=int, default=SCENE_ENDMEMBERS)
    p.add_argument("--clusters", type=int, default=None,
                   help="cluster count for the clustered variant")
    p.add_argument("--mu", type=float, default=UnmixingConfig.mu, help="gradient step size")
    p.add_argument("--eta", type=float, default=UnmixingConfig.eta, help="neighborhood coupling strength")
    p.add_argument("--q", type=float, default=UnmixingConfig.q, help="sparsity norm exponent in (0, 1]")
    p.add_argument("--sparsity-weight", type=float, default=UnmixingConfig.sparsity_weight,
                   help="override the data-driven sparsity weight (read only when q < 1)")
    p.add_argument("--max-iter", type=int, default=UnmixingConfig.max_iter)
    p.add_argument("--eps", type=float, default=UnmixingConfig.eps, help="cost-change stopping threshold")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--truth-a", default=None, help="true signatures CSV for scoring")
    p.add_argument("--truth-s", default=None, help="true abundance cube for scoring")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_unmix)

    p = sub.add_parser("eval", help="score estimates against ground truth")
    p.add_argument("--truth-a", required=True)
    p.add_argument("--truth-s", required=True)
    p.add_argument("--est-a", required=True)
    p.add_argument("--est-s", required=True)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a Monte-Carlo sweep from a spec file")
    p.add_argument("spec", help="experiment spec file (key = value lines)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--quiet", action="store_true", help="suppress per-run progress lines")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalFailureError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
