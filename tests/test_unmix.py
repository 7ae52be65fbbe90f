"""Cost functions, update rules, and the unmixing driver."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import hsunmix
from hsunmix import regularizers, unmix
from hsunmix.clustering import fcm
from hsunmix.errors import NumericalFailureError
from hsunmix.initialize import fcls_abundances, vca
from hsunmix.regularizers import (
    build_neighborhood,
    coupling,
    coupling_pull,
    estimate_sparsity_weight,
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
    MULT_GUARD,
    PRESETS,
    AlgorithmVariant,
    StopReason,
    global_cost,
    gram_fcls,
    gram_multiplicative,
    gram_objective,
    gram_step,
    image_energy,
    run_unmixing,
    signature_products,
    signature_step,
    update_abundance_multiplicative,
    update_signatures,
)
from csr_network import as_csr, csr_grid, csr_pull, csr_sums, csr_weights
from fcls_oracle import fcls_oracle
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


def test_every_public_name_resolves():
    # a stale entry would fail only on ``from hsunmix import *``
    assert [name for name in hsunmix.__all__ if not hasattr(hsunmix, name)] == []


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
        y, s = image.data[:, k : k + 1], S[:, k : k + 1]
        want = np.sum((image.data[:, k] - A @ S[:, k]) ** 2)
        got = gram_objective(image_energy(y), signature_products(y, A), s, s @ s.T)
        assert got == pytest.approx(want, rel=1e-12)

    def test_identical_neighbors_add_nothing(self):
        image = HyperspectralImage(np.ones((3, 4)), 2, 2)
        A = np.ones((3, 2)) * 0.5
        S = np.tile(np.array([[0.4], [0.6]]), (1, 4))
        graph = coupling(neighbor_weights(image), 0.7)
        want = np.sum((image.data - A @ S) ** 2)
        P = signature_products(image.data, A)
        got = gram_objective(
            image_energy(image.data), P, S, S @ S.T, graph, pull=coupling_pull(graph, S)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_hand_built_neighborhood_term(self):
        # zero residual, one neighbor with weight 1, opposite unit abundances:
        # each of the two pixels pays 0.1 * 2
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        A = np.eye(2)
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        nbhd = build_neighborhood(2, 1)  # the 0/1 adjacency: one neighbor, weight 1
        graph = coupling(nbhd, 0.1)
        P = signature_products(Y, A)
        got = gram_objective(image_energy(Y), P, S, S @ S.T, graph, pull=coupling_pull(graph, S))
        assert got == pytest.approx(0.4, rel=1e-12)
        assert local_cost(0, Y, A, S, nbhd, eta=0.1) == pytest.approx(0.2, rel=1e-12)

    def test_sparsity_term_included(self):
        rng = np.random.default_rng(3)
        image, A, S = random_problem(rng)
        y_energy, P = image_energy(image.data), signature_products(image.data, A)
        gram = S @ S.T
        diff = gram_objective(y_energy, P, S, gram, lam=0.5, q=0.5) - gram_objective(y_energy, P, S, gram)
        assert diff == pytest.approx(0.5 * sparsity_norm(S, 0.5).sum(), rel=1e-9)

    def test_objective_is_the_sum_of_local_costs(self):
        rng = np.random.default_rng(31)
        image, A, S = random_problem(rng, width=6, height=5)
        nbhd = neighbor_weights(image)
        knobs = dict(eta=0.3, lam=0.4, q=0.5)
        y_energy, P, gram = image_energy(image.data), signature_products(image.data, A), S @ S.T
        # every pixel in its own cluster gates W to explicit zeros, so the
        # coupling identity must add exactly nothing to residual plus sparsity
        alone = ClusterAssignment(np.arange(30), np.eye(30), np.ones((image.n_bands, 30)))
        for clusters in (split_clusters(6, 5, image.n_bands), alone):
            W = neighbor_weights(image, clusters)
            graph = coupling(W, knobs["eta"])
            want = sum(
                local_cost(k, image.data, A, S, nbhd, clusters, **knobs) for k in range(30)
            )
            got = gram_objective(
                y_energy, P, S, gram, graph, knobs["lam"], knobs["q"], coupling_pull(graph, S)
            )
            assert got == pytest.approx(want, rel=1e-12)
        assert W.shape == nbhd.shape and not W.any()
        assert got == gram_objective(y_energy, P, S, gram, lam=knobs["lam"], q=knobs["q"])


class TestSmoothGradient:
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_matches_finite_differences(self, eta):
        # at mu = 1, minus twice the step is the smooth local-cost gradient
        rng = np.random.default_rng(4)
        image, A, S = random_problem(rng, L=7, c=4, width=3, height=3)
        nbhd = neighbor_weights(image)
        graph = coupling(nbhd, eta)
        P = signature_products(image.data, A)
        g = -2.0 * gram_step(P, S, 1.0, graph, pull=coupling_pull(graph, S))
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


def projected_step(P, S, mu, *args, **kwargs):
    return project_simplex_columns(S + gram_step(P, S, mu, *args, **kwargs))


class TestUpdateAbundance:
    def test_hand_step(self):
        Y = np.array([[1.0], [0.0]])
        A = np.eye(2)
        S = np.array([[0.5], [0.5]])
        out = projected_step(signature_products(Y, A), S, 0.1)
        assert np.allclose(out[:, 0], [0.55, 0.45], rtol=0, atol=1e-15)

    def test_identical_neighbors_contribute_nothing(self):
        Y = np.ones((3, 4))
        A = np.ones((3, 2)) * 0.5
        S = np.tile(np.array([[0.4], [0.6]]), (1, 4))
        P = signature_products(Y, A)
        graph = coupling(neighbor_weights(HyperspectralImage(Y, 2, 2)), 0.9)
        with_nb = projected_step(P, S, 0.02, graph, pull=coupling_pull(graph, S))
        without = projected_step(P, S, 0.02)
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
        out = projected_step(signature_products(y[:, None], A), s_star[:, None], 0.01)
        assert np.max(np.abs(out[:, 0] - s_star)) < 1e-9

    def test_output_feasible(self):
        rng = np.random.default_rng(6)
        image, A, S = random_problem(rng)
        out = projected_step(signature_products(image.data, A), S, 0.5, lam=2.0)
        assert out.min() >= 0.0
        assert np.allclose(out.sum(axis=0), 1.0, rtol=0, atol=1e-12)


class TestAbundanceStepMatchesOracle:
    @pytest.mark.parametrize("variant", ["distributed", "clustered_sparse_distributed"])
    def test_every_column_matches_the_pixel_step(self, variant):
        rng = np.random.default_rng(32)
        image, A, S = random_problem(rng, width=6, height=5)
        nbhd = neighbor_weights(image)
        preset = PRESETS[AlgorithmVariant(variant)]
        clusters = split_clusters(6, 5, image.n_bands) if preset.cluster_mask else None
        knobs = dict(eta=0.3, lam=0.4 if preset.sparse else 0.0, q=0.5)
        P = signature_products(image.data, A)
        graph = coupling(neighbor_weights(image, clusters), knobs["eta"])
        step = gram_step(P, S, 0.05, graph, knobs["lam"], knobs["q"], coupling_pull(graph, S))
        for k in range(image.n_pixels):
            want = pixel_step(k, image.data, A, S, 0.05, nbhd, clusters, **knobs)
            np.testing.assert_allclose(step[:, k], want, rtol=0, atol=1e-15)
        graph = coupling(nbhd, knobs["eta"])
        unmasked = gram_step(P, S, 0.05, graph, knobs["lam"], knobs["q"], coupling_pull(graph, S))
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
        graph = coupling(neighbor_weights(HyperspectralImage(Y, 6, 5), clusters), cfg.eta)
        A1 = update_signatures(Y, A0, S0)
        P = signature_products(Y, A1)
        step = gram_step(P, S0, cfg.mu, graph, 0.4, 0.5, coupling_pull(graph, S0))
        S1 = project_simplex_columns(S0 + step)
        J = gram_objective(
            image_energy(Y), P, S1, S1 @ S1.T, graph, 0.4, 0.5, coupling_pull(graph, S1)
        )
        assert np.array_equal(result.A.data, A1)
        assert np.array_equal(result.S.data, S1)
        assert result.cost_trace == [J]

    @pytest.mark.parametrize("variant, q, order", [
        ("nmf", 1.0, "C"), ("lq_nmf", 0.5, "C"), ("distributed", 1.0, "C"),
        ("clustered_sparse_distributed", 0.5, "C"), ("fcls", 1.0, "C"),
        ("nmf", 1.0, "F"), ("distributed", 1.0, "F"),
    ])
    def test_loop_reuses_the_pull_of_the_projected_iterate(self, variant, q, order):
        # The loop forms S W^T once per iteration for the objective and the
        # next step, and writes the update and the pull to buffers it holds
        # for the run; the one-call kernels on fresh arrays give the same bits.
        # A start in Fortran order must not lay out the update buffer: its
        # products would round as another BLAS call, its sums in another order.
        rng = np.random.default_rng(34)
        image, _, _ = random_problem(rng, L=8, width=7, height=5)
        Y = image.data
        A = rng.random((8, 3)) + 0.3
        S = np.asarray(rng.dirichlet(np.ones(3), size=35).T, order=order)
        clusters = split_clusters(7, 5, 8)
        cfg = UnmixingConfig(variant=variant, q=q, max_iter=25, eps=1e-300)
        seen = []  # the hook's arrays, and copies of them as it got them
        result = run_unmixing(image, cfg, A, S, clusters,
                              on_iteration=lambda _, A, S, j: seen.append((A, S, A.copy(), S.copy())))
        # the loop reuses its temporaries only: no hook array was written later
        assert all(np.array_equal(A, A0) and np.array_equal(S, S0) for A, S, A0, S0 in seen)
        preset = PRESETS[AlgorithmVariant(variant)]
        lam = estimate_sparsity_weight(image) if preset.sparse and q < 1 else 0.0
        graph = None
        if preset.coupled:
            graph = coupling(neighbor_weights(image, clusters if preset.cluster_mask else None), cfg.eta)
        P = signature_products(Y, A)
        trace = []
        for _ in range(cfg.max_iter):
            if preset.update_a:
                A, P = signature_step(Y, A, S, S @ S.T)
            if preset.multiplicative:
                V = gram_multiplicative(P, S)
            else:
                pull = None if graph is None else coupling_pull(graph, S)
                V = S + gram_step(P, S, cfg.mu, graph, lam, q, pull)
            S = project_simplex_columns(V)
            pull = None if graph is None else coupling_pull(graph, S)
            trace.append(gram_objective(image_energy(Y), P, S, S @ S.T, graph, lam, q, pull))
        assert result.iterations_run == 25
        assert result.A.data.tobytes() == A.tobytes()
        assert result.S.data.tobytes() == S.tobytes()
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
        assert result.cost_trace == [gram_objective(image_energy(Y), P, S1, S1 @ S1.T)]


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
        A_true, S_true = scene.A_true.data, scene.S_true.data
        worst = abs(gram_objective(image_energy(Y), signature_products(Y, A_true), S_true,
                                   S_true @ S_true.T)
                    - global_cost(Y, A_true, S_true))
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
            residual = gram_objective(image_energy(Y), signature_products(Y, A), S, S @ S.T)
            direct.append(J - residual + global_cost(Y, A, S))

        result = run_unmixing(scene.Y, cfg, A0, S0, on_iteration=watch)
        assert result.stop_reason is StopReason.CONVERGED
        steps = np.abs(np.diff(direct))
        assert np.all(steps[:-1] >= cfg.eps) and steps[-1] < cfg.eps

    def test_products_once_per_signature_update(self, monkeypatch):
        # A preset that updates A reads the image once per iteration, in
        # signature_step; fcls forms its products once per run. Every matrix
        # product the image enters outside those two kernels is counted, so
        # a second pass over the image fails here.
        rng = np.random.default_rng(10)
        image, _, _ = random_problem(rng, L=8, width=5, height=4)
        A0 = rng.random((8, 3)) + 0.3
        S0 = rng.dirichlet(np.ones(3), size=20).T
        log = {"paused": False, "products": 0}
        calls = {"signature_step": 0, "signature_products": 0}

        def counted(name):
            kernel = getattr(unmix, name)

            def run(*args):
                calls[name] += 1
                log["paused"] = True
                try:
                    return kernel(*args)
                finally:
                    log["paused"] = False
            return run

        for name in calls:
            monkeypatch.setattr(unmix, name, counted(name))
        object.__setattr__(image, "data", CountedImage.watch(image.data, log))
        A0.T @ image.data
        assert log["products"] == 1, "the probe must see a product outside the kernels"

        log["products"] = 0
        fcls_abundances(image, A0)
        assert calls == {"signature_step": 0, "signature_products": 1}
        assert log["products"] == 0
        for variant in AlgorithmVariant:
            calls.update(signature_step=0, signature_products=0)
            log["products"] = 0
            cfg = UnmixingConfig(variant=variant.value, max_iter=7, eps=1e-300)
            result = run_unmixing(image, cfg, A0, S0, split_clusters(5, 4, 8))
            assert result.iterations_run == 7
            if PRESETS[variant].update_a:
                assert calls == {"signature_step": 7, "signature_products": 0}
            else:
                assert calls == {"signature_step": 0, "signature_products": 1}
            assert log["products"] == 0


class TestGramFcls:
    """The exact FCLS kernel against the support enumeration of ``fcls_oracle``."""

    @staticmethod
    def _solve(Y, A):
        """The kernel's abundances and the oracle's, after checking that the kernel's are a minimiser."""
        P = signature_products(Y, A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S, solved = gram_fcls(P)
        assert solved
        assert validate_abundances(S, 1e-12)
        oracle_S, oracle_cost = fcls_oracle(P.AtY, P.AtA)
        cost = np.einsum("in,ij,jn->n", S, P.AtA, S) - 2.0 * np.einsum("in,in->n", S, P.AtY)
        np.testing.assert_array_less(np.abs(cost - oracle_cost), 1e-12 * np.einsum("ij,ij->j", Y, Y))
        return S, oracle_S

    @staticmethod
    def _pixels(rng, A, n):
        """Mixtures of the columns of A with noise large enough to put many off the simplex."""
        mixed = A @ rng.dirichlet(np.full(A.shape[1], 0.5), size=n).T
        return np.abs(mixed + 0.3 * A.mean() * rng.standard_normal(mixed.shape))

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
    def test_matches_the_support_oracle(self, c):
        rng = np.random.default_rng(50 + c)
        A = rng.random((8, c)) + 0.1
        S, oracle_S = self._solve(self._pixels(rng, A, 300), A)
        np.testing.assert_allclose(S, oracle_S, rtol=0, atol=1e-9)

    def test_a_duplicated_signature_still_gives_a_minimiser(self):
        rng = np.random.default_rng(56)
        A = rng.random((8, 3)) + 0.1
        A = A[:, [0, 1, 2, 0]]
        self._solve(self._pixels(rng, A, 300), A)

    def test_a_pixel_equal_to_a_signature_gets_its_vertex(self):
        rng = np.random.default_rng(57)
        A = rng.random((8, 4)) + 0.1
        S, _ = self._solve(np.hstack([A, self._pixels(rng, A, 20)]), A)
        assert np.array_equal(S[:, :4], np.eye(4))

    def test_a_single_pixel(self):
        rng = np.random.default_rng(58)
        A = rng.random((8, 5)) + 0.1
        S, oracle_S = self._solve(self._pixels(rng, A, 1), A)
        np.testing.assert_allclose(S, oracle_S, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("snr", [15.0, 25.0, 35.0])
    def test_every_column_of_the_readme_scene_meets_the_kkt_conditions(self, scenes, snr):
        scene, A0, S0 = scenes[snr]
        P = signature_products(scene.Y.data, A0.data)
        S = S0.data
        assert validate_abundances(S, 1e-12)
        # with nu = -s^T g, lambda = g + nu are the multipliers of s >= 0:
        # nonnegative everywhere and zero where s_j > 0
        g = P.AtA @ S - P.AtY
        lam = g - np.einsum("ij,ij->j", S, g)
        tol = 1e-13 * (np.abs(P.AtA).max() + np.abs(P.AtY).max(axis=0))
        assert np.all(lam >= -tol)
        assert np.all(np.where(S > 0, np.abs(lam), 0.0) <= tol)

    def test_fcls_without_a_start_runs_one_exact_solve(self):
        rng = np.random.default_rng(59)
        image, A, _ = random_problem(rng, L=8, width=6, height=5)
        calls = []
        result = run_unmixing(image, UnmixingConfig(variant="fcls"), A, None,
                              on_iteration=lambda *args: calls.append(args))
        P = signature_products(image.data, A)
        S, _ = gram_fcls(P)
        J = gram_objective(image_energy(image.data), P, S, S @ S.T)
        assert np.array_equal(result.A.data, A)
        assert np.array_equal(result.S.data, S)
        assert result.cost_trace == [J]
        assert result.stop_reason is StopReason.CONVERGED
        assert [(args[0], args[3]) for args in calls] == [(1, J)]

    def test_a_capped_solve_stops_feasible_at_max_iter(self, monkeypatch):
        # with no passes every pixel keeps its starting vertex
        monkeypatch.setattr(unmix, "_FCLS_PASSES_PER_ENDMEMBER", 0)
        rng = np.random.default_rng(60)
        image, A, _ = random_problem(rng, L=8, width=6, height=5)
        result = run_unmixing(image, UnmixingConfig(variant="fcls"), A, None)
        assert result.stop_reason is StopReason.MAX_ITER
        assert np.array_equal(np.sort(result.S.data, axis=0)[-1], np.ones(30))

    # both fcls paths, the exact solve and the loop from the FCLS start, run
    # one prologue: the same checks, in the same order, with the same errors
    @pytest.mark.parametrize("start", [True, False], ids=["fcls-start", "no-start"])
    @pytest.mark.parametrize("image_scale, signature_scale, what", [
        (1.0, 1e160, "A\\^T A"),  # the products overflow
        (1e155, 1.0, "objective"),  # |Y|^2 overflows, the products do not
    ])
    def test_an_overflowing_solve_raises_typed_error(self, image_scale, signature_scale, what, start):
        rng = np.random.default_rng(61)
        image, A, _ = random_problem(rng, L=8, width=6, height=5)
        S0 = fcls_abundances(image, A) if start else None
        image = HyperspectralImage(image_scale * image.data, 6, 5)
        # the typed error comes before any NumPy warning, an "invalid value" one included
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match=what):
                run_unmixing(image, UnmixingConfig(variant="fcls"), signature_scale * A, S0)

    @pytest.mark.parametrize("variant", [v.value for v in AlgorithmVariant if v is not AlgorithmVariant.FCLS])
    def test_only_fcls_runs_without_a_start(self, variant):
        rng = np.random.default_rng(62)
        image, A, _ = random_problem(rng, L=8, width=6, height=5)
        with pytest.raises(ValueError, match="start abundances"):
            run_unmixing(image, UnmixingConfig(variant=variant), A, None, split_clusters(6, 5, 8))

    @pytest.mark.parametrize("seed", [7, 11])
    def test_the_fixed_a_loop_reaches_the_exact_optimum(self, seed):
        # both fcls paths, the loop from a uniform start and the exact solve
        scene = generate_synthetic(bundled_library().data, 6, width=20, height=20, snr_db=25.0, seed=seed)
        A0 = vca(scene.Y, 6, seed=seed)
        exact = run_unmixing(scene.Y, UnmixingConfig(variant="fcls"), A0, None).cost_trace[0]
        cfg = UnmixingConfig(variant="fcls", mu=0.01, max_iter=3000, eps=1e-300)
        trace = np.array(run_unmixing(scene.Y, cfg, A0, np.full((6, 400), 1 / 6)).cost_trace)
        # the projected gradient step is a descent step; allow rounding of the Gram form
        assert np.all(np.diff(trace) <= 1e-14 * exact)
        assert -1e-14 <= (trace[-1] - exact) / exact < 1e-10

    @pytest.mark.parametrize("start", [True, False], ids=["fcls-start", "no-start"])
    def test_fcls_without_a_start_checks_the_band_count(self, start):
        rng = np.random.default_rng(63)
        image, A, _ = random_problem(rng, L=8, width=6, height=5)
        S0 = fcls_abundances(image, A) if start else None
        with pytest.raises(ValueError, match="incompatible shapes"):
            run_unmixing(image, UnmixingConfig(variant="fcls"), A[:-1], S0)


class CountedImage(np.ndarray):
    """Image data that counts the matrix products it, or a view of it, enters.

    The count goes to ``log["products"]``, a dict shared by every view, and
    stops while ``log["paused"]`` is true.
    """

    @classmethod
    def watch(cls, data, log):
        view = data.view(cls)
        view.log = log
        return view

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and not self.log["paused"]:
            self.log["products"] += 1
        inputs = tuple(np.asarray(x) if isinstance(x, CountedImage) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestSignatureStep:
    """The one-pass kernel against the two full products."""

    @staticmethod
    def _problem(L, N):
        rng = np.random.default_rng(16)
        Y = rng.random((L, N)) + 0.05
        A = rng.random((L, 4)) + 0.01
        S = np.ascontiguousarray(rng.dirichlet(np.ones(4), size=N).T)
        return Y, A, S

    @pytest.mark.parametrize("L, N, block_rows, blocks", [
        (50, 120, 17, 3),     # 17 + 17 + 16 rows: several blocks, the last one ragged
        (50, 120, 50, 1),     # exactly one block
        (50, 120, 15, 1),     # below 16 rows per block the image is one block
        (20, 9000, None, 1),  # large N: the default block holds 14 rows
        (1, 120, None, 1),    # one band
    ])
    def test_matches_the_two_full_products(self, monkeypatch, L, N, block_rows, blocks):
        Y, A, S = self._problem(L, N)
        if block_rows is not None:
            monkeypatch.setattr(unmix, "BLOCK_BYTES", block_rows * Y.itemsize * N)
        gram = S @ S.T
        log = {"paused": False, "products": 0}
        A_new, P = signature_step(CountedImage.watch(Y, log), A, S, gram)
        assert log["products"] == 2 * blocks
        want = A * (Y @ S.T) / (A @ gram + MULT_GUARD)
        for got, ref in ((A_new, want), (P.AtY, want.T @ Y), (P.AtA, want.T @ want)):
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13
        if blocks == 1:
            # one block is the two full products, bit for bit
            A_one = A * (S @ Y.T).T / (A @ gram + MULT_GUARD)
            assert np.array_equal(A_new, A_one)
            assert np.array_equal(P.AtY, A_one.T @ Y)
            assert np.array_equal(P.AtA, A_one.T @ A_one)

    @pytest.mark.parametrize("block_rows", [None, 32])
    def test_no_image_sized_temporary(self, monkeypatch, block_rows):
        # 224 x 10 000 is one block at the default size, seven at 32 rows
        Y, A, S = self._problem(224, 10_000)
        if block_rows is not None:
            monkeypatch.setattr(unmix, "BLOCK_BYTES", block_rows * Y.itemsize * Y.shape[1])
        gram = S @ S.T
        tracemalloc.start()
        try:
            signature_step(Y, A, S, gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * Y.nbytes, f"peak {peak / Y.nbytes:.3f} x the image"


def signature_update(Y, A, S):
    """The signatures of ``signature_step``, the kernel the solver runs."""
    return signature_step(Y, A, S, S @ S.T)[0]


def multiplicative_abundances(Y, A, S):
    """The abundances of ``gram_multiplicative``, the kernel the ``nmf`` loop runs."""
    return gram_multiplicative(signature_products(Y, A), S)


class TestUpdateSignatures:
    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(7)
        A = rng.random((5, 3)) + 0.2
        S = rng.dirichlet(np.ones(3), size=9).T
        out = signature_update(A @ S, A, S)
        assert np.max(np.abs(out - A)) < 1e-9

    def test_scalar_hand_value(self):
        out = signature_update(np.array([[4.0]]), np.array([[2.0]]), np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_cost_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        L, c, N = 8, 3, 15
        Y = rng.random((L, N)) + 0.05
        A = rng.random((L, c)) + 0.05
        S = rng.random((c, N)) + 0.05
        before = global_cost(Y, A, S)
        after = global_cost(Y, signature_update(Y, A, S), S)
        assert after <= before + 1e-10

    def test_preserves_nonnegativity(self):
        rng = np.random.default_rng(8)
        Y = rng.random((6, 10)) + 0.01
        A = rng.random((6, 2)) + 0.01
        S = rng.random((2, 10)) + 0.01
        assert np.all(signature_update(Y, A, S) >= 0.0)

    def test_transposed_product_matches_the_direct_form(self):
        # Y S^T is formed as (S Y^T)^T; the two round apart by a few ulps
        rng = np.random.default_rng(14)
        Y = rng.random((224, 1600))
        A = rng.random((224, 6)) + 0.01
        S = rng.dirichlet(np.ones(6), size=1600).T
        want = A * (Y @ S.T) / (A @ S @ S.T + MULT_GUARD)
        got = signature_update(Y, A, S)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def oracle_clusters(n, kind, rng):
    """No clusters, three random ones, or every pixel alone."""
    if kind == "none":
        return None
    labels = rng.integers(0, 3, size=n) if kind == "random" else np.arange(n)
    k = labels.max() + 1
    memberships = np.full((k, n), 0.1 / k)
    memberships[labels, np.arange(n)] += 0.9
    return ClusterAssignment(labels, memberships, np.ones((4, k)))


def build_bound(bands):
    """Relative bound on how far two builds of the weights, degrees and spreads may differ.

    Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3):
    with u = eps / 2, a product of k factors (1 + delta)^(+-1), |delta| <= u,
    lies in [(1 - u)^k, (1 - u)^-k], within gamma_k = k u / (1 - k u) of 1,
    and so does a square root or a nonnegative weighted mean of such
    products. Every quantity here is a nonnegative sum, product or quotient,
    so it lies within gamma_k of its exact value, k counting the roundings
    along it, in any summation order: a squared norm L, a norm L + 1, a dot
    product L, a similarity 3 L + 4 (the dot over two norms, two roundings),
    a normalizer over at most eight neighbors 3 L + 11, a weight 6 L + 16
    (the cluster gate multiplies by 1 or 0, exactly), a degree 6 L + 23 and
    a spread, a degree plus a column sum, 6 L + 24. Two builds within
    gamma_m of one exact value differ by at most 2 gamma_m / (1 - gamma_m)
    times either.
    """
    m, u = 6 * bands + 24, np.finfo(np.float64).eps / 2
    gamma = m * u / (1 - m * u)
    return 2 * gamma / (1 - gamma)


def within(got, want, bound):
    """Every entry of ``got`` within ``bound`` times the magnitude of ``want``'s; zeros exact."""
    return bool(np.all(np.abs(got - want) <= bound * np.abs(want)))


class TestCsrOracle:
    """The planes against a ``scipy.sparse`` build: pattern, zeros and pull exact, weights and sums bounded."""

    # (1, 7) has a forward shift of 0 (SW), (3, 1) one that reaches N (S) and one past
    # it (SE), (2, 9) two moves with the same shift (E, SW), (9, 2) two long rows
    GRIDS = [(1, 1), (1, 7), (7, 1), (2, 2), (5, 4), (2, 9), (9, 2), (3, 1), (40, 40)]

    def _network(self, width, height, kind, bands=4, seed=0):
        rng = np.random.default_rng(seed)
        image = HyperspectralImage(rng.random((bands, width * height)) + 0.05, width, height)
        clusters = oracle_clusters(width * height, kind, rng)
        return image, clusters, neighbor_weights(image, clusters), csr_weights(image, clusters)

    @pytest.mark.parametrize("bands", [4, 224])
    @pytest.mark.parametrize("kind", ["none", "random", "alone"])
    @pytest.mark.parametrize("width,height", GRIDS)
    def test_weights_and_sums_match_the_csr_build_and_the_pull_its_product(
        self, width, height, kind, bands
    ):
        image, clusters, W, oracle = self._network(width, height, kind, bands)
        stored = as_csr(W)
        assert np.array_equal(stored.indptr, oracle.indptr)
        assert np.array_equal(stored.indices, oracle.indices)
        # weight off the grid would be lost by as_csr; there is none
        assert not W[build_neighborhood(width, height) == 0].any()
        if clusters is not None:
            src = np.repeat(np.arange(image.n_pixels), np.diff(stored.indptr))
            assert not stored.data[clusters.labels[src] != clusters.labels[stored.indices]].any()
        bound = build_bound(bands)
        assert within(stored.data, oracle.data, bound)
        graph = coupling(W, 0.1)
        degree, spread = csr_sums(oracle)
        assert within(graph.degree, degree, bound)
        assert within(graph.spread, spread, bound)
        S = np.random.default_rng(1).dirichlet(np.ones(6), size=image.n_pixels).T
        assert coupling_pull(graph, S).tobytes() == np.ascontiguousarray(csr_pull(stored, S)).tobytes()

    @pytest.mark.parametrize("block_pixels", [1, 7, 333])
    def test_the_pull_in_blocks_has_the_same_bits(self, monkeypatch, block_pixels):
        _, _, W, _ = self._network(40, 40, "random", seed=2)
        graph = coupling(W, 0.1)
        S = np.random.default_rng(3).dirichlet(np.ones(5), size=1600).T
        monkeypatch.setattr(regularizers, "BLOCK_BYTES", 3 * S.itemsize * S.shape[0] * block_pixels)
        assert coupling_pull(graph, S).tobytes() == np.ascontiguousarray(csr_pull(as_csr(W), S)).tobytes()

    @pytest.mark.parametrize("width,height", [(1, 7), (7, 1), (5, 4), (2, 9), (9, 2)])
    def test_a_pull_after_another_has_the_bits_of_its_own_product(self, width, height):
        # the loop writes each pull over the last: a sum that kept a term of
        # the first S, or of the NaN the buffer starts with, would show here
        _, _, W, _ = self._network(width, height, "random", seed=4)
        graph, stored = coupling(W, 0.1), as_csr(W)
        rng = np.random.default_rng(5)
        first, second = (rng.dirichlet(np.ones(4), size=width * height).T for _ in range(2))
        out = np.full_like(first, np.nan)
        for S in (first, second):
            want = np.ascontiguousarray(csr_pull(stored, S)).tobytes()
            assert coupling_pull(graph, S).tobytes() == want
            assert coupling_pull(graph, S, out=out) is out and out.tobytes() == want

    @pytest.mark.parametrize("width,height", GRIDS + [(3, 9)])
    def test_the_shifts_are_the_offsets_of_the_moves(self, width, height):
        graph = coupling(build_neighborhood(width, height), 0.1)
        assert graph.shifts == tuple(dy * width + dx for dy, dx in regularizers.OFFSETS)

    def test_the_planes_of_the_grid_are_its_adjacency(self):
        assert np.array_equal(as_csr(build_neighborhood(6, 5)).toarray(), csr_grid(6, 5).toarray())


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
        labels = fcm(image, 2, seed=0).labels
        for clusters in (None, labels):
            with pytest.raises(ValueError, match="requires a ClusterAssignment"):
                run_unmixing(image, cfg, A0, S0, clusters)

    @staticmethod
    def _bad_starts(A0, S0):
        """(init_A, init_S, message) of starts the value types refuse, each from A0 and S0."""
        on_simplex = "abundance columns must be nonnegative and sum to 1"
        bad = []
        for value, message in ((np.nan, "signatures must be finite"), (-0.1, "signatures must be nonnegative")):
            A = A0.data.copy()
            A[2, 1] = value
            bad.append((A, S0, message))
        S_nan, S_negative = S0.data.copy(), S0.data.copy()
        S_nan[1, 3] = np.nan
        S_negative[:, 3] = [1.2, -0.1, -0.1]
        bad += [(A0, S, on_simplex) for S in (S_nan, S_negative, 3 * S0.data)]
        return bad

    # fcls runs both with a start (the loop) and without one (the exact solve)
    @pytest.mark.parametrize("variant, start", [(v.value, True) for v in AlgorithmVariant] + [("fcls", False)])
    def test_a_bad_start_is_refused_before_any_kernel_runs(self, monkeypatch, variant, start):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel ran")

        for kernel in ("signature_products", "signature_step", "gram_fcls", "neighbor_weights"):
            monkeypatch.setattr(unmix, kernel, no_kernel)
        image, A0, S0 = self._setup()
        clusters = split_clusters(5, 4, 8)
        cfg = UnmixingConfig(variant=variant, max_iter=5)
        cases = self._bad_starts(A0, S0)
        if not start:
            cases = [(A, None, message) for A, S, message in cases if S is S0]
        for A, S, message in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^" + message):
                    run_unmixing(image, cfg, A, S, clusters)

    @pytest.mark.parametrize("variant", [v.value for v in AlgorithmVariant])
    def test_every_iterate_feasible(self, variant):
        image, A0, S0 = self._setup(seed=3)
        cfg = UnmixingConfig(variant=variant, max_iter=25)
        clusters = fcm(image, 2, seed=0) if variant == "clustered_sparse_distributed" else None
        seen = []

        def check(iteration, A, S, J):
            assert validate_abundances(S, 1e-9)
            assert np.all(A >= 0.0)
            seen.append(iteration)

        result = run_unmixing(image, cfg, A0, S0, clusters, on_iteration=check)
        assert validate_abundances(result.S.data, 1e-9)
        assert len(seen) == result.iterations_run

    def test_the_solver_reads_every_config_field(self):
        # a field no preset reads would be a setting that changes nothing
        read = set()

        class RecordingConfig(UnmixingConfig):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        image, A0, S0 = self._setup(seed=7)
        clusters = fcm(image, 2, seed=0)
        seen = set()
        # at q = 0.5 a coupled sparse preset reads sparsity_weight
        for variant, q in [(v.value, 1.0) for v in AlgorithmVariant] + [("sparse_distributed", 0.5)]:
            cfg = RecordingConfig(variant=variant, q=q, max_iter=3)
            read.clear()
            run_unmixing(image, cfg, A0, S0, clusters)
            seen |= read
        assert seen == {field.name for field in dataclasses.fields(UnmixingConfig)}

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

    def test_initial_matrices_of_the_wrong_shape_are_rejected(self):
        image, A0, S0 = self._setup()
        cfg = UnmixingConfig(variant="nmf", max_iter=2)
        for A, S in ((A0.data[:-1], S0), (A0, S0.data[:, :-1]), (A0.data[:, :-1], S0)):
            with pytest.raises(ValueError, match="incompatible shapes"):
                run_unmixing(image, cfg, A, S)

    def test_fcls_returns_a_copy_of_the_callers_signatures(self):
        image, A0, S0 = self._setup(seed=2)
        A = A0.data.copy()
        result = run_unmixing(image, UnmixingConfig(variant="fcls", mu=0.01, max_iter=2), A, S0)
        A[0, 0] += 1.0
        assert np.array_equal(result.A.data, A0.data)

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
            variant="clustered_sparse_distributed", max_iter=35
        )
        cfg_plain = UnmixingConfig(variant="sparse_distributed", max_iter=35)
        masked = run_unmixing(image, cfg_masked, A0, S0, clusters)
        plain = run_unmixing(image, cfg_plain, A0, S0)
        assert masked.cost_trace == plain.cost_trace
        assert np.array_equal(masked.S.data, plain.S.data)
        assert np.array_equal(masked.A.data, plain.A.data)

    def test_q1_sparsity_step_changes_nothing(self):
        # on the simplex the l1 norm is constant, so at q = 1 the solver leaves
        # the penalty out and a sparse preset runs its unsparse counterpart
        scene = generate_synthetic(
            bundled_library().data, 3, width=8, height=8, patch=4,
            filter_size=3, snr_db=25.0, seed=14,
        )
        Y = scene.Y
        A0 = vca(Y, 3, seed=1)
        S0 = fcls_abundances(Y, A0)
        pairs = [
            (dict(variant="sparse_distributed"), dict(variant="distributed")),
            (dict(variant="lq_nmf"), dict(variant="distributed", eta=0.0)),
        ]
        for sparse_cfg, plain_cfg in pairs:
            sparse = run_unmixing(Y, UnmixingConfig(q=1.0, max_iter=40, **sparse_cfg), A0, S0)
            plain = run_unmixing(Y, UnmixingConfig(max_iter=40, **plain_cfg), A0, S0)
            assert sparse.iterations_run == plain.iterations_run == 40
            assert np.array_equal(sparse.A.data, plain.A.data)
            assert np.array_equal(sparse.S.data, plain.S.data)
            assert sparse.cost_trace == plain.cost_trace

    @staticmethod
    def _projections(monkeypatch, variant, q):
        """The (V, support, bound, result) of every projection a 40-iteration run makes."""
        scene = generate_synthetic(bundled_library(), 4, width=12, height=10, snr_db=20.0, seed=3)
        A0 = vca(scene.Y, 4)
        S0 = fcls_abundances(scene.Y, A0)
        clusters = fcm(scene.Y, 3, seed=0)
        calls = []

        def recorded(V, support=None, bound=None):
            got = project_simplex_columns(V, support=support, bound=bound)
            calls.append((V.copy(), None if support is None else support.copy(), bound, got))
            return got

        monkeypatch.setattr(unmix, "project_simplex_columns", recorded)
        cfg = UnmixingConfig(variant=variant, q=q, max_iter=40, eps=1e-300)
        result = run_unmixing(scene.Y, cfg, A0, S0, clusters)
        assert len(calls) == result.iterations_run == 40
        return S0.data, calls

    @pytest.mark.parametrize("variant", ["nmf", "sparse_distributed", "clustered_sparse_distributed"])
    def test_each_projection_starts_from_the_support_of_the_iterate(self, monkeypatch, variant):
        # q = 1 leaves the sparsity term out, so every preset passes the hint
        previous, calls = self._projections(monkeypatch, variant, 1.0)
        for V, support, bound, got in calls:
            assert np.array_equal(support != 0, previous > 0)
            assert bound == unmix.DIVERGENCE_BOUND
            assert np.array_equal(got, project_simplex_columns(V))
            previous = got

    @pytest.mark.parametrize("variant", ["lq_nmf", "sparse_distributed", "clustered_sparse_distributed"])
    def test_the_sparsity_term_projects_without_a_hint(self, monkeypatch, variant):
        # the q < 1 term moves the support, where the hint would cost passes
        _, calls = self._projections(monkeypatch, variant, 0.5)
        for V, support, bound, got in calls:
            assert support is None and bound == unmix.DIVERGENCE_BOUND
            assert np.array_equal(got, project_simplex_columns(V))

    @pytest.mark.parametrize("variant", ["distributed", "clustered_sparse_distributed"])
    def test_a_one_pixel_image_couples_to_nothing(self, monkeypatch, variant):
        # the network of a 1x1 image is empty, so at q = 1 a coupled preset runs lq_nmf
        rng = np.random.default_rng(16)
        image = HyperspectralImage(rng.random((8, 1)) + 0.1, 1, 1)
        A0 = rng.random((8, 3)) + 0.3
        S0 = rng.dirichlet(np.ones(3), size=1).T
        one_cluster = ClusterAssignment(np.zeros(1, dtype=int), np.ones((1, 1)), image.data)
        networks = []

        def recorded(*args):
            networks.append(neighbor_weights(*args))
            return networks[-1]

        monkeypatch.setattr(unmix, "neighbor_weights", recorded)
        coupled = run_unmixing(image, UnmixingConfig(variant=variant, max_iter=30), A0, S0, one_cluster)
        plain = run_unmixing(image, UnmixingConfig(variant="lq_nmf", max_iter=30), A0, S0)
        assert [(W.shape, W.any()) for W in networks] == [((8, 1, 1), False)]
        assert coupled.cost_trace == plain.cost_trace
        assert np.array_equal(coupled.A.data, plain.A.data)
        assert np.array_equal(coupled.S.data, plain.S.data)

    @pytest.mark.parametrize("variant", ["lq_nmf", "sparse_distributed", "clustered_sparse_distributed"])
    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_the_sparsity_kernels_run_only_below_q_1(self, monkeypatch, variant, q):
        Y, A0, S0 = self._setup(seed=10)
        counts = {}
        for name in ("estimate_sparsity_weight", "sparsity_gradient", "sparsity_norm"):
            def counted(*args, _name=name, _kernel=getattr(unmix, name), **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(unmix, name, counted)
        result = run_unmixing(Y, UnmixingConfig(variant=variant, q=q, max_iter=5), A0, S0, fcm(Y, 2, seed=0))
        n = result.iterations_run
        assert counts == ({} if q == 1 else {"estimate_sparsity_weight": 1, "sparsity_gradient": n, "sparsity_norm": n})

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

    # fcls takes this case in TestGramFcls.test_an_overflowing_solve_raises_typed_error
    @pytest.mark.parametrize("variant", [v.value for v in AlgorithmVariant if v is not AlgorithmVariant.FCLS])
    def test_an_image_whose_energy_overflows_fails_before_any_warning(self, variant):
        # finite entries whose squares overflow: every preset's objective holds |Y|^2
        image, A0, S0 = self._setup(seed=9)
        image = HyperspectralImage(1e155 * image.data, image.width, image.height)
        cfg = UnmixingConfig(variant=variant, q=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="\\|Y\\|\\^2"):
                run_unmixing(image, cfg, A0, S0, split_clusters(5, 4, 8))


class TestMultiplicativeAbundanceStep:
    @pytest.mark.parametrize("seed", range(10))
    def test_cost_never_increases(self, seed):
        rng = np.random.default_rng(40 + seed)
        L, c, N = 10, 3, 20
        Y = rng.random((L, N)) + 0.05
        A = rng.random((L, c)) + 0.05
        S = rng.random((c, N)) + 0.05
        before = global_cost(Y, A, S)
        after = global_cost(Y, A, multiplicative_abundances(Y, A, S))
        assert after <= before + 1e-10

    def test_preserves_nonnegativity(self):
        rng = np.random.default_rng(51)
        Y = rng.random((5, 8)) + 0.01
        A = rng.random((5, 2)) + 0.01
        S = rng.random((2, 8)) + 0.01
        assert np.all(multiplicative_abundances(Y, A, S) >= 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_the_image_level_entry_points_give_the_kernels_bits(seed):
    # update_signatures and update_abundance_multiplicative are checked
    # wrappers of the loop's kernels; global_cost is the residual form the
    # loop's Gram-form objective is checked against, and keeps its own bits
    rng = np.random.default_rng(70 + seed)
    Y = rng.random((224, 300)) + 0.05
    A = rng.random((224, 5)) + 0.05
    S = rng.dirichlet(np.ones(5), size=300).T
    assert np.array_equal(update_signatures(Y, A, S), signature_update(Y, A, S))
    assert np.array_equal(update_abundance_multiplicative(Y, A, S), multiplicative_abundances(Y, A, S))
    resid = Y - A @ S
    assert global_cost(Y, A, S) == float(np.sum(resid * resid))
