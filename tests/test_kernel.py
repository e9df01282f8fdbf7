import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    fd_scalar_attr,
    fd_wrt,
    max_rel_err,
    rbf_ard,
    reference_median_heuristic_lengthscale,
    traced_peak,
)
from textuq.errors import DimensionMismatch
from textuq.kernel import (
    KernelParams,
    init_kernel_params,
    kernel_diag,
    kernel_matrix,
    median_heuristic_lengthscale,
    rbf_ard_input_grads,
    rbf_ard_param_grads,
)
from textuq.linalg import cholesky_with_jitter, default_jitter


def params(log_variance=0.0, lengthscales=(1.0,)):
    return KernelParams(log_variance, np.log(np.asarray(lengthscales, dtype=np.float64)))


class TestScalarKernel:
    def test_zero_distance_gives_signal_variance(self):
        p = params(log_variance=0.7, lengthscales=(2.0, 0.5))
        x = np.array([1.3, -0.2])
        assert rbf_ard(x, x, p) == pytest.approx(np.exp(0.7), rel=1e-15)

    def test_unit_case(self):
        p = params()
        value = rbf_ard(np.array([0.0]), np.array([1.0]), p)
        assert value == pytest.approx(0.6065306597126334, rel=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        p = params(log_variance=0.3, lengthscales=(1.0, 2.0, 0.7))
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert rbf_ard(x, y, p) == rbf_ard(y, x, p)

    def test_doubling_lengthscale_matches_halved_distance(self):
        wide = params(lengthscales=(2.0,))
        narrow = params(lengthscales=(1.0,))
        at_two = rbf_ard(np.array([0.0]), np.array([2.0]), wide)
        at_one = rbf_ard(np.array([0.0]), np.array([1.0]), narrow)
        assert at_two == at_one

    def test_value_in_range(self):
        rng = np.random.default_rng(1)
        p = params(log_variance=0.2, lengthscales=(0.9, 1.4))
        for _ in range(50):
            v = rbf_ard(rng.normal(size=2), rng.normal(size=2), p)
            assert 0.0 < v <= np.exp(0.2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rbf_ard(np.zeros(2), np.zeros(3), params(lengthscales=(1.0, 1.0)))
        with pytest.raises(DimensionMismatch):
            rbf_ard(np.zeros(3), np.zeros(3), params(lengthscales=(1.0, 1.0)))

    def test_log_variance_shift_scales_values(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=2), rng.normal(size=2)
        base = params(log_variance=0.0, lengthscales=(1.0, 1.5))
        shifted = params(log_variance=0.9, lengthscales=(1.0, 1.5))
        assert rbf_ard(x, y, shifted) == pytest.approx(
            np.exp(0.9) * rbf_ard(x, y, base), rel=1e-12
        )


class TestGramMatrix:
    def test_single_point(self):
        p = params(log_variance=np.log(2.0), lengthscales=(1.0,))
        k = kernel_matrix(np.array([[0.3]]), np.array([[0.3]]), p)
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(2.0, rel=1e-15)

    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(3)
        p = params(log_variance=0.4, lengthscales=(1.2, 0.8, 2.0))
        xs, ys = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        k = kernel_matrix(xs, ys, p)
        for i in range(4):
            for j in range(5):
                assert k[i, j] == pytest.approx(rbf_ard(xs[i], ys[j], p), rel=1e-12)

    def test_exact_symmetry_on_shared_inputs(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(8, 3))
        k = kernel_matrix(xs, xs, params(lengthscales=(1.0, 1.0, 1.0)))
        assert np.array_equal(k, k.T)

    def test_exact_diagonal_on_shared_inputs(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(6, 2))
        p = params(log_variance=0.25, lengthscales=(1.0, 1.0))
        assert np.all(np.diag(kernel_matrix(xs, xs, p)) == np.exp(0.25))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_matrix(np.zeros((2, 3)), np.zeros((2, 2)), params(lengthscales=(1.0, 1.0, 1.0)))

    @given(st.integers(min_value=0, max_value=500))
    def test_positive_semidefinite_within_one_ladder_step(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 9))
        xs = rng.normal(size=(n, d))
        p = params(lengthscales=np.full(d, float(rng.uniform(0.5, 2.0))))
        k = kernel_matrix(xs, xs, p)
        fac = cholesky_with_jitter(k)
        assert fac.jitter_used <= 10.0 * default_jitter(k)


class TestDiag:
    def test_unit_variance(self):
        xs = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(kernel_diag(xs, params(lengthscales=(1.0, 1.0))), np.ones(3))

    def test_variance_two(self):
        xs = np.zeros((4, 1))
        p = params(log_variance=np.log(2.0))
        assert np.allclose(kernel_diag(xs, p), 2.0)

    def test_agrees_with_full_matrix(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(5, 3))
        p = params(log_variance=0.1, lengthscales=(0.7, 1.1, 1.9))
        assert np.array_equal(kernel_diag(xs, p), np.diag(kernel_matrix(xs, xs, p)))


class TestGradients:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.xs = rng.normal(size=(4, 3))
        self.ys = rng.normal(size=(5, 3))
        self.kbar = rng.normal(size=(4, 5))
        self.p = params(log_variance=0.3, lengthscales=(0.8, 1.3, 2.1))

    def objective(self):
        return float(np.sum(self.kbar * kernel_matrix(self.xs, self.ys, self.p)))

    def test_hyperparameter_gradients_match_finite_differences(self):
        k = kernel_matrix(self.xs, self.ys, self.p)
        d_lv, d_ll = rbf_ard_param_grads(self.xs, self.ys, self.p, self.kbar, k)
        fd_lv = fd_scalar_attr(self.p, "log_variance", self.objective)
        fd_ll = fd_wrt(self.p.log_lengthscales, self.objective)
        assert max_rel_err(d_lv, fd_lv, floor=1e-8) <= 1e-4
        assert max_rel_err(d_ll, fd_ll, floor=1e-8) <= 1e-4

    def test_input_gradients_match_finite_differences(self):
        k = kernel_matrix(self.xs, self.ys, self.p)
        dxs = rbf_ard_input_grads(self.xs, self.ys, self.p, self.kbar, k)
        fd = fd_wrt(self.xs, self.objective)
        assert max_rel_err(dxs, fd, floor=1e-8) <= 1e-4


class TestInitialization:
    def test_median_heuristic_by_hand(self):
        feats = np.array([[0.0, 0.0], [3.0, 4.0]])
        rng = np.random.default_rng(0)
        assert median_heuristic_lengthscale(feats, rng) == pytest.approx(5.0 / np.sqrt(2.0))

    def test_duplicate_inputs_fall_back_to_one(self):
        feats = np.ones((10, 4))
        assert median_heuristic_lengthscale(feats, np.random.default_rng(0)) == 1.0

    def test_subsample_is_seeded(self):
        rng_data = np.random.default_rng(8)
        feats = rng_data.normal(size=(3000, 5))
        a = median_heuristic_lengthscale(feats, np.random.default_rng(9))
        b = median_heuristic_lengthscale(feats, np.random.default_rng(9))
        assert a == b
        # the median of the pairwise distances of 1000 rows drawn without replacement
        sub = feats[np.random.default_rng(9).choice(3000, size=1000, replace=False)]
        dist = np.sqrt(((sub[:, None] - sub[None]) ** 2).sum(axis=2))
        assert a == pytest.approx(np.median(dist[np.triu_indices(1000, k=1)]) / np.sqrt(5.0))

    def test_init_kernel_params_shape_and_values(self):
        rng_data = np.random.default_rng(10)
        feats = rng_data.normal(size=(50, 7))
        p = init_kernel_params(feats, np.random.default_rng(11))
        assert p.log_variance == 0.0
        assert p.log_lengthscales.shape == (7,)
        assert np.all(p.log_lengthscales == p.log_lengthscales[0])
        ell = median_heuristic_lengthscale(feats, np.random.default_rng(11))
        assert p.log_lengthscales[0] == pytest.approx(np.log(ell), rel=1e-12)


class TestMedianHeuristicMatchesReference:
    """The median heuristic returns the original implementation's float, bit
    for bit, in a fraction of its memory."""

    @staticmethod
    def both(feats, seed=4):
        return (median_heuristic_lengthscale(feats, np.random.default_rng(seed)),
                reference_median_heuristic_lengthscale(feats, np.random.default_rng(seed)))

    @pytest.mark.parametrize("n", [1, 2, 3, 999, 1000, 1001, 2500])
    def test_every_size_around_the_subsample(self, n):
        got, want = self.both(np.random.default_rng(n).normal(size=(n, 20)))
        assert got == want

    def test_duplicated_rows_fall_back_to_one(self):
        row = np.random.default_rng(5).normal(size=(1, 6))
        for feats in (np.ones((10, 4)), np.zeros((1500, 3)), np.repeat(row, 7, axis=0)):
            got, want = self.both(feats)
            assert got == want
        assert self.both(np.ones((10, 4)))[0] == 1.0

    @given(scale=st.floats(1e-150, 1e150), n=st.integers(1, 60), dim=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_any_scale(self, scale, n, dim, seed):
        feats = np.random.default_rng(seed).normal(size=(n, dim)) * scale
        got, want = self.both(feats, seed)
        assert got == want

    def test_peak_memory_stays_near_one_gram_matrix(self):
        # the (1000, 1000) Gram matrix is 8 MB and the distances above its
        # diagonal 4 MB; the original implementation peaked at 26.8 MB
        feats = np.random.default_rng(6).normal(size=(2000, 200))
        _, peak = traced_peak(median_heuristic_lengthscale, feats, np.random.default_rng(7))
        assert peak <= 18e6
