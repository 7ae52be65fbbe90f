"""Cost functions, update rules, and the unmixing driver."""

import warnings

import numpy as np
import pytest

from hsunmix import unmix
from hsunmix.clustering import fcm
from hsunmix.errors import NumericalFailureError
from hsunmix.initialize import fcls_abundances, vca
from hsunmix.regularizers import (
    build_neighborhood,
    neighbor_weights,
    project_simplex_columns,
    sparsity_norm,
)
from hsunmix.synth import bundled_library, generate_synthetic
from hsunmix.types import (
    AbundanceMatrix,
    ClusterAssignment,
    HyperspectralImage,
    SignatureMatrix,
    UnmixingConfig,
    validate_abundances,
)
from hsunmix.unmix import (
    PRESETS,
    AlgorithmVariant,
    StopReason,
    abundance_step,
    converged,
    coupling,
    global_cost,
    gram_multiplicative,
    gram_objective,
    gram_step,
    image_energy,
    objective,
    run_unmixing,
    signature_products,
    update_abundance_multiplicative,
    update_signatures,
)
from pixel_oracle import local_cost, pixel_step


def random_problem(rng, L=6, c=3, width=4, height=3):
    N = width * height
    A = rng.random((L, c)) + 0.3
    S = rng.dirichlet(np.ones(c), size=N).T
    noise = 0.01 * rng.standard_normal((L, N))
    Y = np.abs(A @ S + noise)
    image = HyperspectralImage(Y, width, height)
    return image, A, S


def split_clusters(width, height, n_bands):
    """Three clusters in diagonal stripes, so most neighborhoods are split."""
    x, y = np.meshgrid(np.arange(width), np.arange(height))
    labels = ((x + 2 * y) // 3).ravel() % 3
    memberships = np.full((3, labels.size), 0.1)
    memberships[labels, np.arange(labels.size)] = 0.8
    return ClusterAssignment(labels, memberships, np.ones((n_bands, 3)))


class TestGlobalCost:
    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(0)
        A = rng.random((5, 2)) + 0.1
        S = rng.dirichlet(np.ones(2), size=7).T
        assert global_cost(A @ S, A, S) == 0.0

    def test_scalar_hand_value(self):
        assert global_cost(np.array([[3.0]]), np.array([[1.0]]), np.array([[1.0]])) == 4.0

    def test_additive_over_pixels(self):
        rng = np.random.default_rng(1)
        A = rng.random((4, 2)) + 0.1
        S = rng.dirichlet(np.ones(2), size=2).T
        Y = rng.random((4, 2)) + 0.1
        total = global_cost(Y, A, S)
        parts = sum(global_cost(Y[:, k : k + 1], A, S[:, k : k + 1]) for k in range(2))
        assert total == pytest.approx(parts, rel=1e-12)


class TestLocalCost:
    """Hand values of the objective the loop records, the sum of the local costs."""

    def test_reduces_to_residual_without_regularizers(self):
        rng = np.random.default_rng(2)
        image, A, S = random_problem(rng)
        k = 5
        want = np.sum((image.data[:, k] - A @ S[:, k]) ** 2)
        got = objective(image.data[:, k : k + 1], A, S[:, k : k + 1])
        assert got == pytest.approx(want, rel=1e-12)

    def test_identical_neighbors_add_nothing(self):
        image = HyperspectralImage(np.ones((3, 4)), 2, 2)
        A = np.ones((3, 2)) * 0.5
        S = np.tile(np.array([[0.4], [0.6]]), (1, 4))
        W = neighbor_weights(image.data, build_neighborhood(2, 2))
        want = np.sum((image.data - A @ S) ** 2)
        assert objective(image.data, A, S, W, eta=0.7) == pytest.approx(want, rel=1e-12)

    def test_hand_built_neighborhood_term(self):
        # zero residual, one neighbor with weight 1, opposite unit abundances:
        # each of the two pixels pays 0.1 * 2
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        A = np.eye(2)
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        nbhd = build_neighborhood(2, 1)  # the 0/1 adjacency: one neighbor, weight 1
        assert objective(Y, A, S, nbhd, eta=0.1) == pytest.approx(0.4, rel=1e-12)
        assert local_cost(0, Y, A, S, nbhd, eta=0.1) == pytest.approx(0.2, rel=1e-12)

    def test_sparsity_term_included(self):
        rng = np.random.default_rng(3)
        image, A, S = random_problem(rng)
        diff = objective(image.data, A, S, lam=0.5, q=0.5) - objective(image.data, A, S)
        assert diff == pytest.approx(0.5 * sparsity_norm(S, 0.5).sum(), rel=1e-9)

    def test_objective_is_the_sum_of_local_costs(self):
        rng = np.random.default_rng(31)
        image, A, S = random_problem(rng, width=6, height=5)
        adjacency = build_neighborhood(6, 5)
        nbhd = neighbor_weights(image.data, adjacency)
        knobs = dict(eta=0.3, lam=0.4, q=0.5)
        # every pixel in its own cluster gates W to explicit zeros, so the
        # coupling identity must add exactly nothing to residual plus sparsity
        alone = ClusterAssignment(np.arange(30), np.eye(30), np.ones((image.n_bands, 30)))
        for clusters in (split_clusters(6, 5, image.n_bands), alone):
            W = neighbor_weights(image.data, adjacency, clusters)
            want = sum(
                local_cost(k, image.data, A, S, nbhd, clusters, **knobs) for k in range(30)
            )
            assert objective(image.data, A, S, W, **knobs) == pytest.approx(want, rel=1e-12)
        assert W.nnz == nbhd.nnz and not W.data.any()
        uncoupled = objective(image.data, A, S, lam=knobs["lam"], q=knobs["q"])
        assert objective(image.data, A, S, W, **knobs) == uncoupled


class TestSmoothGradient:
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_matches_finite_differences(self, eta):
        # at mu = 1, minus twice the step is the smooth local-cost gradient
        rng = np.random.default_rng(4)
        image, A, S = random_problem(rng, L=7, c=4, width=3, height=3)
        nbhd = neighbor_weights(image.data, build_neighborhood(3, 3))
        g = -2.0 * abundance_step(image.data, A, S, 1.0, nbhd, eta)
        h = 1e-6
        for k in [0, 4, 8]:
            for i in range(4):
                Sp, Sm = S.copy(), S.copy()
                Sp[i, k] += h
                Sm[i, k] -= h
                fd = (
                    local_cost(k, image.data, A, Sp, nbhd, eta=eta)
                    - local_cost(k, image.data, A, Sm, nbhd, eta=eta)
                ) / (2 * h)
                assert abs(g[i, k] - fd) / max(abs(fd), 1e-10) < 1e-5


def projected_step(Y, A, S, mu, *args, **kwargs):
    return project_simplex_columns(S + abundance_step(Y, A, S, mu, *args, **kwargs))


class TestUpdateAbundance:
    def test_hand_step(self):
        Y = np.array([[1.0], [0.0]])
        A = np.eye(2)
        S = np.array([[0.5], [0.5]])
        out = projected_step(Y, A, S, 0.1)
        assert np.allclose(out[:, 0], [0.55, 0.45], rtol=0, atol=1e-15)

    def test_identical_neighbors_contribute_nothing(self):
        Y = np.ones((3, 4))
        A = np.ones((3, 2)) * 0.5
        S = np.tile(np.array([[0.4], [0.6]]), (1, 4))
        W = neighbor_weights(Y, build_neighborhood(2, 2))
        with_nb = projected_step(Y, A, S, 0.02, W, eta=0.9)
        without = projected_step(Y, A, S, 0.02)
        assert np.array_equal(with_nb, without)

    def test_fixed_point_at_constrained_optimum(self):
        # dense simplex grid locates the constrained least-squares solution
        rng = np.random.default_rng(5)
        A = rng.random((8, 2)) + 0.2
        y = A @ np.array([0.35, 0.65]) + 0.05 * rng.standard_normal(8)
        y = np.abs(y)
        grid = np.linspace(0.0, 1.0, 2000001)
        cand = np.stack([grid, 1.0 - grid])
        errs = np.sum((y[:, None] - A @ cand) ** 2, axis=0)
        s_star = cand[:, np.argmin(errs)]
        out = projected_step(y[:, None], A, s_star[:, None], 0.01)
        assert np.max(np.abs(out[:, 0] - s_star)) < 1e-9

    def test_output_feasible(self):
        rng = np.random.default_rng(6)
        image, A, S = random_problem(rng)
        out = projected_step(image.data, A, S, 0.5, lam=2.0)
        assert out.min() >= 0.0
        assert np.allclose(out.sum(axis=0), 1.0, rtol=0, atol=1e-12)


class TestAbundanceStepMatchesOracle:
    @pytest.mark.parametrize("variant", ["distributed", "clustered_sparse_distributed"])
    def test_every_column_matches_the_pixel_step(self, variant):
        rng = np.random.default_rng(32)
        image, A, S = random_problem(rng, width=6, height=5)
        adjacency = build_neighborhood(6, 5)
        nbhd = neighbor_weights(image.data, adjacency)
        preset = PRESETS[AlgorithmVariant(variant)]
        clusters = split_clusters(6, 5, image.n_bands) if preset.cluster_mask else None
        knobs = dict(eta=0.3, lam=0.4 if preset.sparse else 0.0, q=0.5)
        W = neighbor_weights(image.data, adjacency, clusters)
        step = abundance_step(image.data, A, S, 0.05, W, **knobs)
        for k in range(image.n_pixels):
            want = pixel_step(k, image.data, A, S, 0.05, nbhd, clusters, **knobs)
            np.testing.assert_allclose(step[:, k], want, rtol=0, atol=1e-15)
        unmasked = abundance_step(image.data, A, S, 0.05, nbhd, **knobs)
        assert (np.max(np.abs(step - unmasked)) > 1e-4) == preset.cluster_mask

    @staticmethod
    def _one_iteration(variant):
        rng = np.random.default_rng(33)
        image, A_true, S_true = random_problem(rng, L=8, width=6, height=5)
        A0 = rng.random((8, 3)) + 0.3
        # C order, like the copy the solver works on, so BLAS rounds alike
        S0 = np.ascontiguousarray(rng.dirichlet(np.ones(3), size=30).T)
        clusters = split_clusters(6, 5, 8)
        cfg = UnmixingConfig(variant=variant, sparsity_weight=0.4, q=0.5, max_iter=1)
        return run_unmixing(image, cfg, A0, S0, clusters), image.data, A0, S0, clusters, cfg

    def test_loop_runs_the_kernels(self):
        result, Y, A0, S0, clusters, cfg = self._one_iteration("clustered_sparse_distributed")
        W = neighbor_weights(Y, build_neighborhood(6, 5), clusters)
        graph = coupling(W)
        A1 = update_signatures(Y, A0, S0)
        P = signature_products(Y, A1)
        S1 = project_simplex_columns(S0 + gram_step(P, S0, cfg.mu, graph, cfg.eta, 0.4, 0.5))
        J = gram_objective(image_energy(Y), P, S1, graph, cfg.eta, 0.4, 0.5)
        assert np.array_equal(result.A.data, A1)
        assert np.array_equal(result.S.data, S1)
        assert result.cost_trace == [J]
        # the public wrappers run the same kernels
        assert np.array_equal(S1, projected_step(Y, A1, S0, cfg.mu, W, cfg.eta, 0.4, 0.5))
        assert result.cost_trace == [objective(Y, A1, S1, W, cfg.eta, 0.4, 0.5)]

    def test_loop_reuses_the_pull_of_the_projected_iterate(self):
        # The loop forms S W^T once per iteration for the objective and the
        # next step; composing the one-call kernels must give the same bits.
        rng = np.random.default_rng(34)
        image, _, _ = random_problem(rng, L=8, width=6, height=5)
        A = rng.random((8, 3)) + 0.3
        S = np.ascontiguousarray(rng.dirichlet(np.ones(3), size=30).T)
        cfg = UnmixingConfig(variant="distributed", max_iter=4, eps=1e-300)
        result = run_unmixing(image, cfg, A, S)
        graph = coupling(neighbor_weights(image.data, build_neighborhood(6, 5)))
        trace = []
        for _ in range(cfg.max_iter):
            A = update_signatures(image.data, A, S)
            P = signature_products(image.data, A)
            S = project_simplex_columns(S + gram_step(P, S, cfg.mu, graph, cfg.eta))
            trace.append(gram_objective(image_energy(image.data), P, S, graph, cfg.eta))
        assert np.array_equal(result.A.data, A)
        assert np.array_equal(result.S.data, S)
        assert result.cost_trace == trace

    @pytest.mark.parametrize("variant", ["nmf", "fcls"])
    def test_uncoupled_loop_runs_the_kernels(self, variant):
        result, Y, A0, S0, _, cfg = self._one_iteration(variant)
        A1 = update_signatures(Y, A0, S0) if variant == "nmf" else A0
        P = signature_products(Y, A1)
        if variant == "nmf":
            S1 = project_simplex_columns(gram_multiplicative(P, S0))
        else:
            S1 = project_simplex_columns(S0 + gram_step(P, S0, cfg.mu))
        assert np.array_equal(result.A.data, A1)
        assert np.array_equal(result.S.data, S1)
        assert result.cost_trace == [gram_objective(image_energy(Y), P, S1)]


@pytest.fixture(scope="module")
def scenes():
    """40 x 40 scenes at 15, 25 and 35 dB and a noiseless one, with VCA + FCLS starts."""
    out = {}
    for snr in (15.0, 25.0, 35.0, np.inf):
        scene = generate_synthetic(bundled_library().data, 6, snr_db=snr, seed=7)
        A0 = vca(scene.Y, 6, seed=7)
        out[snr] = (scene, A0, fcls_abundances(scene.Y, A0))
    return out


class TestGramForm:
    """The solver's Gram-form residual against the direct ``global_cost``."""

    @pytest.mark.parametrize("snr", [15.0, 25.0, 35.0, np.inf])
    def test_residual_matches_global_cost(self, scenes, snr):
        scene, A0, S0 = scenes[snr]
        Y = scene.Y.data
        worst = abs(objective(Y, scene.A_true, scene.S_true)
                    - global_cost(Y, scene.A_true, scene.S_true))
        recorded, direct = [], []

        def watch(iteration, A, S, J):
            recorded.append(J)
            direct.append(global_cost(Y, A, S))

        run_unmixing(scene.Y, UnmixingConfig(variant="nmf", max_iter=30), A0, S0,
                     on_iteration=watch)
        worst = max(worst, float(np.max(np.abs(np.subtract(recorded, direct)))))
        assert worst < 1e-9

    @pytest.mark.parametrize("variant", ["nmf", "fcls", "distributed"])
    def test_converging_run_stops_where_the_residual_form_would(self, scenes, variant):
        scene, A0, S0 = scenes[25.0]
        Y = scene.Y.data
        cfg = UnmixingConfig(variant=variant, max_iter=2000, eps=1e-3)
        direct = []

        def watch(iteration, A, S, J):
            # swap the Gram residual for the direct one; other terms are unchanged
            direct.append(J - objective(Y, A, S) + global_cost(Y, A, S))

        result = run_unmixing(scene.Y, cfg, A0, S0, on_iteration=watch)
        assert result.stop_reason is StopReason.CONVERGED
        steps = np.abs(np.diff(direct))
        assert np.all(steps[:-1] >= cfg.eps) and steps[-1] < cfg.eps

    def test_products_once_per_signature_update(self, monkeypatch):
        rng = np.random.default_rng(10)
        image, _, _ = random_problem(rng, L=8, width=5, height=4)
        A0 = rng.random((8, 3)) + 0.3
        S0 = rng.dirichlet(np.ones(3), size=20).T
        calls = []

        def counting(Y, A):
            calls.append(1)
            return signature_products(Y, A)

        monkeypatch.setattr(unmix, "signature_products", counting)
        fcls_abundances(image, A0)
        assert len(calls) == 1
        for variant in AlgorithmVariant:
            calls.clear()
            cfg = UnmixingConfig(variant=variant.value, max_iter=7, eps=1e-300)
            result = run_unmixing(image, cfg, A0, S0, split_clusters(5, 4, 8))
            want = result.iterations_run if PRESETS[variant].update_a else 1
            assert result.iterations_run == 7 and len(calls) == want


class TestUpdateSignatures:
    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(7)
        A = rng.random((5, 3)) + 0.2
        S = rng.dirichlet(np.ones(3), size=9).T
        out = update_signatures(A @ S, A, S)
        assert np.max(np.abs(out - A)) < 1e-9

    def test_scalar_hand_value(self):
        out = update_signatures(np.array([[4.0]]), np.array([[2.0]]), np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_cost_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        L, c, N = 8, 3, 15
        Y = rng.random((L, N)) + 0.05
        A = rng.random((L, c)) + 0.05
        S = rng.random((c, N)) + 0.05
        before = global_cost(Y, A, S)
        after = global_cost(Y, update_signatures(Y, A, S), S)
        assert after <= before + 1e-10

    def test_preserves_nonnegativity(self):
        rng = np.random.default_rng(8)
        Y = rng.random((6, 10)) + 0.01
        A = rng.random((6, 2)) + 0.01
        S = rng.random((2, 10)) + 0.01
        assert np.all(update_signatures(Y, A, S) >= 0.0)


class TestConverged:
    def test_equal_costs_converged(self):
        assert converged(5.0, 5.0, 1e-8)

    def test_small_difference_converged(self):
        assert converged(1.0, 1.0 + 1e-9, 1e-8)

    def test_large_difference_not_converged(self):
        assert not converged(1.0, 2.0, 1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            converged(np.nan, 1.0, 1e-8)


class TestRunUnmixing:
    def _setup(self, seed=0, width=5, height=4, c=3):
        rng = np.random.default_rng(seed)
        image, A_true, S_true = random_problem(rng, L=8, c=c, width=width, height=height)
        A0 = SignatureMatrix(rng.random((8, c)) + 0.3)
        S0 = AbundanceMatrix(rng.dirichlet(np.ones(c), size=width * height).T)
        return image, A0, S0

    def test_requires_clusters_for_clustered_variant(self):
        image, A0, S0 = self._setup()
        cfg = UnmixingConfig(variant="clustered_sparse_distributed")
        with pytest.raises(ValueError):
            run_unmixing(image, cfg, A0, S0)

    @pytest.mark.parametrize("variant", [v.value for v in AlgorithmVariant])
    def test_every_iterate_feasible(self, variant):
        image, A0, S0 = self._setup(seed=3)
        cfg = UnmixingConfig(variant=variant, max_iter=25, clusters=2)
        clusters = fcm(image, 2, seed=0) if variant == "clustered_sparse_distributed" else None
        seen = []

        def check(iteration, A, S, J):
            assert validate_abundances(S, 1e-9)
            assert np.all(A >= 0.0)
            seen.append(iteration)

        result = run_unmixing(image, cfg, A0, S0, clusters, on_iteration=check)
        assert validate_abundances(result.S.data, 1e-9)
        assert len(seen) == result.iterations_run

    def test_cost_trace_matches_iterations(self):
        image, A0, S0 = self._setup(seed=4)
        cfg = UnmixingConfig(variant="nmf", max_iter=30)
        result = run_unmixing(image, cfg, A0, S0)
        assert len(result.cost_trace) == result.iterations_run
        assert result.stop_reason in (StopReason.CONVERGED, StopReason.MAX_ITER)

    def test_deterministic_traces(self):
        image, A0, S0 = self._setup(seed=5)
        cfg = UnmixingConfig(variant="sparse_distributed", max_iter=40)
        r1 = run_unmixing(image, cfg, A0, S0)
        r2 = run_unmixing(image, cfg, A0, S0)
        assert r1.cost_trace == r2.cost_trace
        assert np.array_equal(r1.S.data, r2.S.data)

    def test_perfect_init_on_factorizable_data_stops_immediately(self):
        rng = np.random.default_rng(9)
        c, width, height = 3, 4, 3
        A = rng.random((8, c)) + 0.3
        S = rng.dirichlet(np.ones(c), size=width * height).T
        image = HyperspectralImage(A @ S, width, height)
        cfg = UnmixingConfig(variant="nmf", max_iter=100)
        result = run_unmixing(image, cfg, SignatureMatrix(A), AbundanceMatrix(S))
        assert result.stop_reason is StopReason.CONVERGED
        assert result.iterations_run == 2

    def test_single_cluster_equals_unmasked_bitwise(self):
        image, A0, S0 = self._setup(seed=6)
        clusters = fcm(image, 1, seed=0)
        cfg_masked = UnmixingConfig(
            variant="clustered_sparse_distributed", max_iter=35, clusters=1
        )
        cfg_plain = UnmixingConfig(variant="sparse_distributed", max_iter=35)
        masked = run_unmixing(image, cfg_masked, A0, S0, clusters)
        plain = run_unmixing(image, cfg_plain, A0, S0)
        assert masked.cost_trace == plain.cost_trace
        assert np.array_equal(masked.S.data, plain.S.data)
        assert np.array_equal(masked.A.data, plain.A.data)

    def test_q1_sparsity_step_changes_nothing(self):
        # on the simplex the l1 norm is constant, so a q = 1 sparsity step
        # must leave the coupled solver where the unsparse one goes
        scene = generate_synthetic(
            bundled_library().data, 3, width=8, height=8, patch=4,
            filter_size=3, snr_db=25.0, seed=14,
        )
        A0 = vca(scene.Y, 3, seed=1)
        S0 = fcls_abundances(scene.Y, A0)
        sparse = run_unmixing(
            scene.Y, UnmixingConfig(variant="sparse_distributed", q=1.0, max_iter=40),
            A0, S0,
        )
        plain = run_unmixing(
            scene.Y, UnmixingConfig(variant="distributed", max_iter=40), A0, S0
        )
        assert sparse.iterations_run == plain.iterations_run == 40
        assert np.max(np.abs(sparse.A.data - plain.A.data)) < 1e-12
        assert np.max(np.abs(sparse.S.data - plain.S.data)) < 1e-12
        assert np.array_equal(sparse.S.data == 0, plain.S.data == 0)
        assert np.array_equal(sparse.A.data == 0, plain.A.data == 0)

    def test_fcls_keeps_signatures_fixed(self):
        image, A0, S0 = self._setup(seed=7)
        cfg = UnmixingConfig(variant="fcls", max_iter=20)
        result = run_unmixing(image, cfg, A0, S0)
        assert np.array_equal(result.A.data, A0.data)

    def test_numerical_failure_raises_typed_error(self):
        image, A0, S0 = self._setup(seed=8)
        # a destructive step size drives the gradient update to overflow
        cfg = UnmixingConfig(variant="distributed", mu=1e300, max_iter=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError):
                run_unmixing(image, cfg, A0, S0)


class TestMultiplicativeAbundanceStep:
    @pytest.mark.parametrize("seed", range(10))
    def test_cost_never_increases(self, seed):
        rng = np.random.default_rng(40 + seed)
        L, c, N = 10, 3, 20
        Y = rng.random((L, N)) + 0.05
        A = rng.random((L, c)) + 0.05
        S = rng.random((c, N)) + 0.05
        before = global_cost(Y, A, S)
        after = global_cost(Y, A, update_abundance_multiplicative(Y, A, S))
        assert after <= before + 1e-10

    def test_preserves_nonnegativity(self):
        rng = np.random.default_rng(51)
        Y = rng.random((5, 8)) + 0.01
        A = rng.random((5, 2)) + 0.01
        S = rng.random((2, 8)) + 0.01
        assert np.all(update_abundance_multiplicative(Y, A, S) >= 0.0)
