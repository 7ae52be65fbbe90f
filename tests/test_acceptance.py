"""Acceptance suite: ten end-to-end checks, one test (and one pass/fail
line under ``pytest -v``) per criterion. Tolerances and time limits are part
of the assertions.

Run with ``python3 -m pytest tests/test_acceptance.py -v``. Criterion 5 runs
a full Monte-Carlo sweep and takes a few minutes; everything else finishes
in seconds.
"""

import itertools
import json
import time
from dataclasses import asdict

import numpy as np
import pytest

from hsunmix.clustering import fcm, fcm_objective
from hsunmix.errors import CubeFormatError, LibraryParseError
from hsunmix.experiment import ExperimentSpec, run_experiment
from hsunmix.fileio import (
    read_cube,
    read_spectral_library,
    write_cube,
    write_report,
    write_spectral_library,
)
from hsunmix.initialize import fcls_abundances, vca
from hsunmix.metrics import aad, match_endmembers, sad
from hsunmix.regularizers import (
    neighbor_weights,
    project_simplex,
    sparsity_gradient,
    sparsity_norm,
)
from hsunmix.synth import bundled_library, generate_synthetic
from hsunmix.types import (
    ClusterAssignment,
    HyperspectralImage,
    SignatureMatrix,
    UnmixingConfig,
    validate_abundances,
)
from hsunmix.unmix import (
    StopReason,
    coupling,
    coupling_pull,
    gram_step,
    run_unmixing,
    signature_products,
    update_abundance_multiplicative,
    update_signatures,
)
from pixel_oracle import local_cost


def simplex_projection_qp_oracle(v):
    """Brute-force active-set QP: try every support, keep the feasible
    candidate closest to v."""
    c = v.size
    best, best_d = None, np.inf
    for r in range(1, c + 1):
        for support in itertools.combinations(range(c), r):
            idx = list(support)
            x = np.zeros(c)
            x[idx] = v[idx] + (1.0 - v[idx].sum()) / r
            if np.all(x[idx] >= -1e-12):
                d = float(np.sum((x - v) ** 2))
                if d < best_d:
                    best, best_d = np.maximum(x, 0.0), d
    return best


def test_criterion_01_simplex_projection_matches_qp_oracle():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for c in range(2, 7):
        for _ in range(1000):
            v = rng.standard_normal(c) * rng.choice([0.1, 1.0, 10.0])
            got = project_simplex(v)
            want = simplex_projection_qp_oracle(v)
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"max deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    start = time.perf_counter()

    # smooth part: residual plus neighborhood coupling
    width = height = 3
    L, c = 7, 4
    Y = rng.random((L, width * height)) + 0.1
    A = rng.random((L, c)) + 0.1
    nbhd = neighbor_weights(HyperspectralImage(Y, width, height))
    eta = 0.3
    P, graph = signature_products(Y, A), coupling(nbhd, eta)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        S = rng.dirichlet(np.ones(c), size=width * height).T
        k = int(rng.integers(width * height))
        # the solver's step at mu = 1 is minus half the local-cost gradient
        g = -2.0 * gram_step(P, S, 1.0, graph, pull=coupling_pull(graph, S))[:, k]
        fd = np.zeros(c)
        for i in range(c):
            Sp, Sm = S.copy(), S.copy()
            Sp[i, k] += h
            Sm[i, k] -= h
            fd[i] = (
                local_cost(k, Y, A, Sp, nbhd, eta=eta)
                - local_cost(k, Y, A, Sm, nbhd, eta=eta)
            ) / (2 * h)
        rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    assert worst < 1e-5, f"smooth gradient relative error {worst:.3e}"

    # sparsity term, strictly positive points
    worst_sparse = 0.0
    for q in (0.5, 1.0):
        for _ in range(100):
            s = rng.uniform(0.1, 1.0, size=4)
            g = sparsity_gradient(s, q)
            fd = np.zeros(4)
            for i in range(4):
                sp, sm = s.copy(), s.copy()
                sp[i] += h
                sm[i] -= h
                fd[i] = (sparsity_norm(sp, q) - sparsity_norm(sm, q)) / (2 * h)
            rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))
            worst_sparse = max(worst_sparse, rel)
    assert worst_sparse < 1e-5, f"sparsity gradient relative error {worst_sparse:.3e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_multiplicative_updates_never_increase_cost():
    rng = np.random.default_rng(13)
    start = time.perf_counter()
    L, c, N = 20, 4, 50
    worst_jump = -np.inf
    for _ in range(100):
        Y = rng.random((L, N)) + 0.05
        A = rng.random((L, c)) + 0.05
        S = rng.random((c, N)) + 0.05
        cost = float(np.sum((Y - A @ S) ** 2))
        for _ in range(200):
            A = update_signatures(Y, A, S)
            mid = float(np.sum((Y - A @ S) ** 2))
            worst_jump = max(worst_jump, mid - cost)
            S = update_abundance_multiplicative(Y, A, S)
            cost_new = float(np.sum((Y - A @ S) ** 2))
            worst_jump = max(worst_jump, cost_new - mid)
            cost = cost_new
    elapsed = time.perf_counter() - start
    assert worst_jump <= 1e-10, f"cost increased by {worst_jump:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def _small_scene(seed=14):
    library = bundled_library()
    return generate_synthetic(
        library.data, 3, width=8, height=8, patch=4, filter_size=3,
        snr_db=25.0, seed=seed,
    )


def test_criterion_04_every_iterate_feasible_for_every_variant():
    scene = _small_scene()
    A0 = vca(scene.Y, 3, seed=1)
    S0 = fcls_abundances(scene.Y, A0)
    clusters = fcm(scene.Y, 2, seed=1)
    for variant in (
        "nmf", "lq_nmf", "distributed", "sparse_distributed",
        "clustered_sparse_distributed", "fcls",
    ):
        violations = []

        def check(iteration, A, S, objective):
            if not validate_abundances(S, 1e-9):
                violations.append((variant, iteration, "abundances"))
            if A.min() < 0:
                violations.append((variant, iteration, "signatures"))

        cfg = UnmixingConfig(variant=variant, max_iter=25)
        run_unmixing(scene.Y, cfg, A0, S0, clusters, on_iteration=check)
        assert not violations, f"constraint violations: {violations[:5]}"


@pytest.mark.slow
def test_criterion_05_proposed_variant_wins_the_synthetic_ordering():
    library = bundled_library()
    spec = ExperimentSpec(
        variants=("clustered_sparse_distributed", "sparse_distributed", "nmf"),
        snr_levels=(15.0, 25.0, 35.0),
        cluster_counts=(6,),
        runs=5,
    )
    start = time.perf_counter()
    _, aggregates = run_experiment(spec, library.data)
    elapsed = time.perf_counter() - start

    mean_sad = {(a["variant"], a["snr_db"]): a["rms_sad"] for a in aggregates}
    wins = sum(
        mean_sad[("clustered_sparse_distributed", snr)] < mean_sad[("nmf", snr)]
        for snr in (15.0, 25.0, 35.0)
    )
    detail = {
        snr: (
            mean_sad[("clustered_sparse_distributed", snr)],
            mean_sad[("sparse_distributed", snr)],
            mean_sad[("nmf", snr)],
        )
        for snr in (15.0, 25.0, 35.0)
    }
    assert wins >= 2, f"beats plain factorization at only {wins}/3 SNR levels: {detail}"
    for snr in (15.0, 25.0, 35.0):
        assert (
            mean_sad[("clustered_sparse_distributed", snr)]
            <= mean_sad[("sparse_distributed", snr)] + 0.01
        ), f"worse than the unclustered solver at {snr} dB: {detail}"
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_criterion_06_single_cluster_run_is_bitwise_identical_to_unclustered():
    scene = _small_scene(seed=15)
    A0 = vca(scene.Y, 3, seed=2)
    S0 = fcls_abundances(scene.Y, A0)
    one_cluster = ClusterAssignment(
        labels=np.zeros(scene.Y.n_pixels, dtype=np.int64),
        memberships=np.ones((1, scene.Y.n_pixels)),
        centers=scene.Y.data.mean(axis=1, keepdims=True),
    )
    kw = dict(mu=0.02, eta=0.1, q=1.0, max_iter=40, eps=1e-12)
    clustered = run_unmixing(
        scene.Y,
        UnmixingConfig(variant="clustered_sparse_distributed", **kw),
        A0, S0, one_cluster,
    )
    plain = run_unmixing(
        scene.Y, UnmixingConfig(variant="sparse_distributed", **kw), A0, S0
    )
    assert clustered.cost_trace == plain.cost_trace
    assert clustered.iterations_run == plain.iterations_run


def test_criterion_07_fcm_objective_descends_and_memberships_normalize():
    rng = np.random.default_rng(17)
    for trial in range(50):
        L = int(rng.integers(2, 6))
        N = int(rng.integers(20, 61))
        C = int(rng.integers(2, 5))
        Y = rng.random((L, N)) * rng.choice([0.5, 1.0, 5.0])
        objectives = []

        def watch(iteration, memberships, centers, objective):
            objectives.append(objective)
            assert np.all(memberships >= 0)
            assert np.allclose(
                memberships.sum(axis=0), 1.0, rtol=0, atol=1e-9
            ), f"trial {trial}: memberships do not sum to one"

        fcm(HyperspectralImage(Y, N, 1), C, seed=trial, on_iteration=watch)
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-10), (
            f"trial {trial}: objective rose by {diffs.max():.3e}"
        )


def test_criterion_08_near_constant_cost_halts_as_converged():
    # factorizable data with a perfect start: the cost flatlines immediately
    rng = np.random.default_rng(18)
    A = rng.random((10, 3)) + 0.1
    S = rng.dirichlet(np.ones(3), size=30).T
    image = HyperspectralImage(A @ S, 30, 1)
    cfg = UnmixingConfig(variant="nmf", max_iter=100, eps=1e-8)
    result = run_unmixing(image, cfg, A, S)
    assert result.stop_reason is StopReason.CONVERGED
    assert result.iterations_run < 100
    assert abs(result.cost_trace[-1] - result.cost_trace[-2]) < 1e-8


def test_criterion_09_metric_examples_and_exhaustive_matching():
    # angle examples frozen by hand
    assert sad([1.0, 0.0], [2.0, 0.0]) == 0.0
    assert sad([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2, abs=1e-15)
    assert sad([1.0, 0.0], [1.0, 1.0]) == pytest.approx(np.pi / 4, abs=1e-15)
    assert aad([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert aad([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2, abs=1e-15)
    assert aad([0.5, 0.5], [1.0, 0.0]) == pytest.approx(np.pi / 4, abs=1e-15)

    # matching equals exhaustive search over all permutations
    rng = np.random.default_rng(19)
    for c in range(2, 7):
        for _ in range(5):
            A_true = rng.random((12, c)) + 0.05
            A_est = rng.random((12, c)) + 0.05
            perm = match_endmembers(A_true, A_est)
            assert sorted(perm) == list(range(c))
            # estimated column j is paired with true column perm[j]
            cost = sum(sad(A_true[:, perm[j]], A_est[:, j]) for j in range(c))
            best = min(
                sum(sad(A_true[:, p[j]], A_est[:, j]) for j in range(c))
                for p in itertools.permutations(range(c))
            )
            assert cost == pytest.approx(best, rel=0, abs=1e-12)


def test_criterion_10_io_round_trips_and_typed_errors(tmp_path):
    rng = np.random.default_rng(20)

    # cube round-trip is bit-exact
    Y = rng.random((5, 12))
    cube_path = tmp_path / "scene.cube"
    write_cube(cube_path, HyperspectralImage(Y, 4, 3))
    back = read_cube(cube_path)
    assert back.data.tobytes() == Y.tobytes()
    assert (back.width, back.height) == (4, 3)

    # library round-trip is value-exact
    lib_path = tmp_path / "lib.csv"
    A = rng.random((6, 3))
    wavelengths = np.linspace(0.4, 2.5, 6)
    write_spectral_library(
        lib_path, SignatureMatrix(A, wavelengths=wavelengths, names=("a", "b", "c"))
    )
    lib = read_spectral_library(lib_path)
    assert np.array_equal(lib.data, A)
    assert np.array_equal(lib.wavelengths, wavelengths)
    assert lib.names == ("a", "b", "c")

    # report round-trip recovers every float exactly and is deterministic
    report_path = tmp_path / "report.json"
    trace = [1.0 / 3.0, 2.0**-40, 0.1 + 0.2]
    cfg = asdict(UnmixingConfig(variant="nmf"))
    write_report(report_path, None, trace, cfg)
    first = report_path.read_bytes()
    with open(report_path) as fh:
        doc = json.load(fh)
    assert doc["cost_trace"] == trace
    write_report(report_path, None, trace, cfg)
    assert report_path.read_bytes() == first

    # malformed inputs raise the dedicated error types
    bad_magic = tmp_path / "bad_magic.cube"
    bad_magic.write_bytes(b"HSCUBEXX" + bytes(14))
    with pytest.raises(CubeFormatError):
        read_cube(bad_magic)

    truncated = tmp_path / "short.cube"
    truncated.write_bytes(cube_path.read_bytes()[:-8])
    with pytest.raises(CubeFormatError, match=r"\d+"):
        read_cube(truncated)

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("frequency,a\n1.0,2.0\n")
    with pytest.raises(LibraryParseError):
        read_spectral_library(bad_header)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("wavelength,a,b\n0.4,1.0,2.0\n0.5,1.0\n")
    with pytest.raises(LibraryParseError):
        read_spectral_library(ragged)

    with pytest.raises(ValueError):
        write_report(tmp_path / "nan.json", None, [float("nan")], cfg)
