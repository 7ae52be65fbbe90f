"""Angle metrics, endmember matching, and evaluation reports."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from hsunmix.metrics import _min_cost_assignment, aad, evaluate_matrices, match_endmembers, sad
from hsunmix.synth import bundled_library


@pytest.fixture(scope="module")
def library_truth():
    """The bundled library's first six signatures and a random 6 x 50 abundance matrix."""
    A = bundled_library().data[:, :6]
    S = np.random.default_rng(8).dirichlet(np.ones(6), size=50).T
    return A, S


class TestSad:
    def test_identical_is_zero(self):
        v = np.array([0.2, 0.5, 0.3])
        assert sad(v, v) == 0.0

    def test_orthogonal_is_right_angle(self):
        got = sad(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(np.pi / 2, abs=1e-15)

    def test_45_degrees(self):
        got = sad(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(np.pi / 4, abs=1e-15)

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(6) + 0.1, rng.random(6) + 0.1
        assert sad(a, b) == pytest.approx(sad(3.0 * a, 0.5 * b), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            sad(np.zeros(3), np.ones(3))


class TestAad:
    def test_identical_is_zero(self):
        assert aad(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_disjoint_is_right_angle(self):
        assert aad(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            np.pi / 2, abs=1e-15
        )

    def test_45_degrees(self):
        got = aad(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert got == pytest.approx(np.pi / 4, abs=1e-15)


class TestMatchEndmembers:
    def test_identity_recovered(self):
        rng = np.random.default_rng(1)
        A = rng.random((7, 4)) + 0.1
        assert match_endmembers(A, A).tolist() == [0, 1, 2, 3]

    def test_swap_recovered(self):
        rng = np.random.default_rng(2)
        A = rng.random((6, 3)) + 0.1
        est = A[:, [2, 0, 1]]
        perm = match_endmembers(A, est)
        # est column j corresponds to true column perm[j]
        assert perm.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("c", [2, 3, 4, 5, 6])
    def test_equals_exhaustive_search(self, c):
        rng = np.random.default_rng(10 + c)
        A_true = rng.random((9, c)) + 0.05
        A_est = rng.random((9, c)) + 0.05
        got = match_endmembers(A_true, A_est)

        best, best_cost = None, np.inf
        for perm in itertools.permutations(range(c)):
            cost = sum(sad(A_true[:, perm[j]], A_est[:, j]) for j in range(c))
            if cost < best_cost:
                best_cost, best = cost, perm
        got_cost = sum(sad(A_true[:, got[j]], A_est[:, j]) for j in range(c))
        assert got_cost == pytest.approx(best_cost, rel=1e-12)


def scipy_assignment(cost):
    """SciPy's answer in ``_min_cost_assignment``'s form: the row assigned to each column."""
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(len(cols), dtype=np.int64)
    perm[cols] = rows
    return perm


class TestMinCostAssignment:
    """The package's Hungarian solver against SciPy's, which only the tests import."""

    @pytest.mark.parametrize("c", range(1, 17))
    def test_same_permutation_as_scipy(self, c):
        rng = np.random.default_rng(100 + c)
        for scale in (1e-3, 1.0, np.pi, 1e3):
            for _ in range(15):
                cost = scale * rng.random((c, c))
                got = _min_cost_assignment(cost)
                assert got.dtype == np.int64
                assert np.array_equal(got, scipy_assignment(cost))

    @pytest.mark.parametrize("name", ["constant", "duplicated columns", "few values", "negative"])
    def test_same_permutation_as_scipy_on_tied_inputs(self, name):
        # many optimal assignments: SciPy's scan order and tie rule pick one
        rng = np.random.default_rng(7)
        for c in range(1, 13):
            cost = {
                "constant": np.full((c, c), 2.0),
                "duplicated columns": rng.random((c, c))[:, rng.integers(0, c, size=c)],
                "few values": rng.integers(0, 2, size=(c, c)).astype(np.float64),
                "negative": -rng.integers(0, 3, size=(c, c)).astype(np.float64),
            }[name]
            got = _min_cost_assignment(cost)
            assert sorted(got.tolist()) == list(range(c))
            assert np.array_equal(got, scipy_assignment(cost)), cost

    def test_one_by_one(self):
        assert _min_cost_assignment(np.array([[0.25]])).tolist() == [0]
        a = np.array([[0.3], [0.5], [0.2]])
        assert match_endmembers(a, 2.0 * a).tolist() == [0]

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_cost_rejected_like_scipy(self, bad):
        cost = np.random.default_rng(3).random((4, 4))
        cost[2, 1] = bad
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)
        with pytest.raises(ValueError, match="finite"):
            _min_cost_assignment(cost)

    def test_infinite_cost_rejected(self):
        # SciPy reads +inf as a forbidden pair; no angle is infinite, so the
        # package rejects it like any other non-finite cost
        cost = np.ones((3, 3))
        cost[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            _min_cost_assignment(cost)


class TestEvaluateMatrices:
    def test_perfect_recovery_all_zero(self):
        rng = np.random.default_rng(3)
        A = rng.random((8, 3)) + 0.1
        S = rng.dirichlet(np.ones(3), size=10).T
        report = evaluate_matrices(A, S, A, S)
        assert report.rms_sad == 0.0
        assert report.rms_aad == 0.0
        assert list(report.per_endmember_sad) == [0.0, 0.0, 0.0]

    def test_permuted_recovery_all_zero(self):
        rng = np.random.default_rng(4)
        A = rng.random((8, 3)) + 0.1
        S = rng.dirichlet(np.ones(3), size=10).T
        order = [1, 2, 0]
        report = evaluate_matrices(A, S, A[:, order], S[order, :])
        assert report.rms_sad == pytest.approx(0.0, abs=1e-12)
        assert report.rms_aad == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [3, 5, 0, 4, 1, 2]])
    def test_truth_in_another_layout_scores_exactly_zero(self, library_truth, order):
        # A[:, order] is an F-ordered copy of the truth's C-ordered view: the
        # sums of a self-pair must still run in one order, or cosine misses 1
        A, S = library_truth
        report = evaluate_matrices(A, S, A[:, order], np.asfortranarray(S[order, :]))
        assert report.per_endmember_sad == [0.0] * 6
        assert report.rms_aad == 0.0
        assert report.matching == order

    def test_per_endmember_sad_is_sad_of_the_matched_pair(self, library_truth):
        A, S = library_truth
        rng = np.random.default_rng(9)
        A_est = (A + 0.05 * rng.random(A.shape))[:, [2, 0, 1, 5, 3, 4]]
        report = evaluate_matrices(A, S, A_est, S[[2, 0, 1, 5, 3, 4], :])
        for j, t in enumerate(report.matching):
            assert report.per_endmember_sad[t] == sad(A[:, t], A_est[:, j])

    def test_two_endmember_hand_value(self):
        A_true = np.array([[1.0, 0.0], [0.0, 1.0]])
        A_est = np.array([[1.0, 0.0], [1.0, 1.0]])  # angles pi/4 and 0
        S = np.array([[0.5, 1.0], [0.5, 0.0]])
        report = evaluate_matrices(A_true, S, A_est, S)
        want = np.sqrt(((np.pi / 4) ** 2 + 0.0) / 2)
        assert report.rms_sad == pytest.approx(want, abs=1e-15)

    def test_rms_aad_uses_matched_rows(self):
        rng = np.random.default_rng(5)
        A = rng.random((6, 2)) + 0.1
        S_true = np.array([[0.9, 0.1], [0.1, 0.9]])
        # swap the estimated order entirely; matching must undo it
        report = evaluate_matrices(A, S_true, A[:, [1, 0]], S_true[[1, 0], :])
        assert report.rms_aad == pytest.approx(0.0, abs=1e-12)

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(6)
        A_true = rng.random((7, 3)) + 0.1
        A_est = rng.random((7, 3)) + 0.1
        S_true = rng.dirichlet(np.ones(3), size=9).T
        S_est = rng.dirichlet(np.ones(3), size=9).T
        report = evaluate_matrices(A_true, S_true, A_est, S_est)
        want = np.sqrt(np.mean(np.asarray(report.per_endmember_sad) ** 2))
        assert report.rms_sad == pytest.approx(want, rel=1e-12)
        assert sorted(report.matching) == [0, 1, 2]

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        A = rng.random((5, 2)) + 0.1
        S = np.array([[0.5, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            evaluate_matrices(A, S, rng.random((5, 3)) + 0.1, S)
