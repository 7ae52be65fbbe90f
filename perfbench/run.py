"""hsunmix benchmark: end-to-end and per-layer numbers for three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scene40 --seed 7 --seconds 30 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` with no instrumentation
and reports the end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` does
the same untraced repetitions, then one traced repetition and a kernel replay,
and reports the per-layer metrics. ``--smoke`` runs the same code on tiny
inputs. The program is imported from ``src/`` of the checkout and driven only
through ``hsunmix.cli.main`` and the public functions it calls. The last line
printed is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys
import time

T_START = time.perf_counter()
# One BLAS/OpenMP thread per process, set before NumPy loads; experiment
# workers inherit it, so ``--jobs 2`` cannot oversubscribe two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import multiprocessing
import platform
import resource
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hsunmix" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hsunmix sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

import hsunmix
import hsunmix.cli
from hsunmix import HyperspectralImage, bundled_library, generate_synthetic, write_cube, write_spectral_library
from checks import check_sweep, check_unmix
from reference import reference_seconds, warm_up
from replay import load_capture, replay_kernels, variant_runs
from tracing import Tracer, layer_metrics

if Path(hsunmix.__file__).resolve().parent != SRC / "hsunmix":
    sys.exit(f"perfbench: imported hsunmix from {hsunmix.__file__}, not from {SRC}")
IMPORT_S = time.perf_counter() - T_START

SETUP_REPEATS = 5
MAX_REPS = 100
BANDS, ENDMEMBERS = 224, 6
SCENE_SEED = 7  # synth seed of the README quick-start scene
SWEEP = {
    "variants": ("proposed", "sparse_distributed", "nmf"),
    "snr_levels": (15.0, 35.0),
    "clusters": 6,
    "runs": 1,
    "jobs": 2,
}
# name -> (scene side, solver max_iter; None keeps the CLI default of 1000)
SCENES = {"scene40": (40, None), "scene100": (100, 100)}
SMOKE_SIDE, SMOKE_MAX_ITER = 16, 20
VARIANT_ITERS, SMOKE_VARIANT_ITERS = 20, 5


def run_cli(argv) -> int:
    """One call into the program; its stdout is kept out of the benchmark's."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return hsunmix.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


class SceneWorkload:
    """``hsunmix unmix`` with all defaults on a synthetic 25 dB scene."""

    jobs = 1

    def __init__(self, side: int, max_iter, seed: int, work: Path):
        self.side, self.seed, self.work = side, seed, work
        self.max_iter = max_iter or 1000
        self.extra = [] if max_iter is None else ["--max-iter", str(max_iter)]
        self.scene = work / "scene"

    def setup(self) -> None:
        """The README quick-start scene at this size, with its noise field
        cyclically shifted by (seed - 7) pixels: seed 7 is the README scene
        itself, and every seed gives the same layout, signatures and SNR, so
        the work per repetition does not depend on the seed."""
        side = self.side
        t0 = time.perf_counter()
        scene = generate_synthetic(bundled_library(), ENDMEMBERS, width=side, height=side,
                                   snr_db=25.0, seed=SCENE_SEED)
        self.generate_s = time.perf_counter() - t0
        product = scene.A_true.data @ scene.S_true.data
        noise = np.roll(scene.noise, self.seed - SCENE_SEED, axis=1)
        # the synthesizer's truncation rule: no observed entry below zero
        noise = np.where(product + noise < 0, -product, noise)
        self.scene.mkdir(parents=True, exist_ok=True)
        write_cube(self.scene / "Y.cube", HyperspectralImage(product + noise, side, side))
        write_spectral_library(self.scene / "A_true.csv", scene.A_true)
        write_cube(self.scene / "S_true.cube", HyperspectralImage(scene.S_true.data, side, side))

    def argv(self, out: Path) -> list:
        s = self.scene
        return ["unmix", str(s / "Y.cube"), "--truth-a", str(s / "A_true.csv"),
                "--truth-s", str(s / "S_true.cube"), *self.extra, "--out", str(out)]

    def check(self, out: Path, rc: int):
        return check_unmix(out, rc, (BANDS, ENDMEMBERS, self.side**2), self.max_iter)


class SweepWorkload:
    """``hsunmix experiment --jobs 2 --quiet`` over a small Monte-Carlo spec."""

    jobs = SWEEP["jobs"]

    def __init__(self, side: int, max_iter: int, seed: int, work: Path):
        self.max_iter, self.work = max_iter, work
        self.spec = work / "sweep.spec"
        self.text = "\n".join([
            f"variants = {', '.join(SWEEP['variants'])}",
            f"snr_levels = {', '.join(f'{s:g}' for s in SWEEP['snr_levels'])}",
            f"cluster_counts = {SWEEP['clusters']}",
            f"runs = {SWEEP['runs']}",
            f"max_iter = {max_iter}",
            f"width = {side}",
            f"height = {side}",
            f"seed = {seed}",
        ]) + "\n"

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.spec.write_text(self.text)

    def argv(self, out: Path) -> list:
        return ["experiment", str(self.spec), "--jobs", str(self.jobs), "--quiet", "--out", str(out)]

    def check(self, out: Path, rc: int):
        variants = [hsunmix.resolve_variant(v) for v in SWEEP["variants"]]
        return check_sweep(out, rc, variants, SWEEP["snr_levels"], SWEEP["clusters"],
                           SWEEP["runs"], self.max_iter)


def make_workload(name: str, seed: int, smoke: bool, work: Path):
    if name == "sweep40":
        return SweepWorkload(SMOKE_SIDE if smoke else 40, SMOKE_MAX_ITER if smoke else 300, seed, work)
    side, max_iter = SCENES[name]
    if smoke:
        side, max_iter = SMOKE_SIDE, SMOKE_MAX_ITER
    return SceneWorkload(side, max_iter, seed, work)


class Run:
    """Repetitions of one workload, each checked before it counts."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: list[float] = []
        self.refs: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None
        self.scores = None

    def repetition(self, tracer=None) -> float:
        out = self.workload.work / f"out{self.attempted}"
        gc.collect()
        if tracer is not None:
            tracer.start()
        try:
            t0 = time.perf_counter()
            rc = run_cli(self.workload.argv(out))
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.stop()
        failures, fingerprint, scores = self.workload.check(out, rc)
        if fingerprint is not None:
            if self.fingerprint is None:
                self.fingerprint, self.scores = fingerprint, scores
            elif fingerprint != self.fingerprint:
                failures.append("results differ from the first repetition of this run")
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(f"repetition {self.attempted}: {f}" for f in failures)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def measure(self, seconds: float) -> None:
        """Untraced repetitions until the next one would end past ``seconds``,
        with the reference computation timed before the first and after each."""
        start = time.perf_counter()
        warm_up()
        self.refs.append(reference_seconds())
        while self.attempted < MAX_REPS:
            self.walls.append(self.repetition())
            self.refs.append(reference_seconds())
            elapsed = time.perf_counter() - start
            if elapsed + float(np.median(self.walls)) > seconds:
                break

    def wall_norm(self) -> float:
        """Median over repetitions of the wall time divided by the mean time of
        the reference computation just before and just after it."""
        refs = np.asarray(self.refs)
        return float(np.median(np.asarray(self.walls) / (0.5 * (refs[:-1] + refs[1:]))))


def timed_setup(args, workload) -> list[float]:
    """Time the workload's set-up from a fresh interpreter, several times:
    process start, imports, library load, scene synthesis and input files."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-into", str(workload.work / "setup")]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its (joined) worker processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "start_method": multiprocessing.get_start_method(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def traced_metrics(run: Run, workload, smoke: bool) -> dict:
    tracer = Tracer(workload.work / "trace")
    traced_wall = run.repetition(tracer)
    metrics = layer_metrics(tracer.collect(), workload.jobs)
    metrics["trace.overhead_s"] = traced_wall - float(np.median(run.walls))
    if isinstance(workload, SceneWorkload):
        metrics["synth.generate_s"] = workload.generate_s
    capture = load_capture(tracer.trace_dir)
    kernels, failures = replay_kernels(capture)
    variants, variant_failures = variant_runs(capture, SMOKE_VARIANT_ITERS if smoke else VARIANT_ITERS)
    # the replay counts as one more checked operation of the run
    run.attempted += 1
    run.failures.extend(failures + variant_failures)
    if failures or variant_failures:
        run.failed += 1
    metrics.update(kernels)
    metrics.update(variants)
    metrics["metrics.rms_sad"], metrics["metrics.rms_aad"] = run.scores or (0.0, 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scene40", "scene100", "sweep40"))
    parser.add_argument("--seed", type=int, required=True, help="input seed: noise shift of the scenes, spec seed of the sweep")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into is not None:
        make_workload(args.workload, args.seed, args.smoke, args.setup_into).setup()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, args.smoke, work)
        workload.setup()
        run = Run(workload)
        run.measure(args.seconds)
        # read before the set-up subprocesses below join this process's children
        peak_mb = peak_rss_mb()
        setup_times = timed_setup(args, workload)
        setup_s = float(np.median(setup_times))
        if args.trace:
            values = traced_metrics(run, workload, args.smoke)
            wanted = spec["per_layer"]
        else:
            values = {"wall_norm": run.wall_norm(), "setup_s": setup_s, "peak_rss_mb": peak_mb}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    rms_sad, rms_aad = run.scores or (float("nan"), float("nan"))
    summary = {
        "wall_s": (float(np.median(run.walls)), "s", len(run.walls)),
        "wall_norm": (run.wall_norm(), "ref", len(run.walls)),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "rms_sad": (rms_sad, "rad", run.attempted),
        "rms_aad": (rms_aad, "rad", run.attempted),
        "failed_frac": (run.failed / run.attempted, "ratio", run.attempted),
    }
    if not args.trace:
        summary["peak_rss_mb"] = (values["peak_rss_mb"], "MB", 1)
    for name, (value, unit, count) in summary.items():
        print(f"{name:<13} {value:.9g} {unit} (n={count})")
    for failure in run.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, environment=environment(args), rms_sad=rms_sad, rms_aad=rms_aad,
                  walls_s=run.walls, reference_s=run.refs,
                  setup_samples_s=setup_times, import_s=IMPORT_S, failures=run.failures)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print("# environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
