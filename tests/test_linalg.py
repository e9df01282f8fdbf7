import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from helpers import max_rel_err
from textuq.errors import DimensionMismatch, NonFiniteMatrix, NotPositiveDefinite, NotSymmetric
from textuq.linalg import (
    CholeskyFactor,
    cholesky_backward,
    cholesky_with_jitter,
    default_jitter,
    solve_lower_triangular,
    solve_triangular,
)


def random_spd(rng, n, shift=None):
    b = rng.normal(size=(n, n))
    return b @ b.T + (n if shift is None else shift) * np.eye(n)


class TestCholeskyWithJitter:
    def test_identity_input(self):
        fac = cholesky_with_jitter(np.eye(3), 1e-6)
        assert fac.jitter_used == 1e-6
        assert np.allclose(fac.lower, np.eye(3), atol=2e-6)
        assert np.all(np.triu(fac.lower, k=1) == 0.0)
        assert np.all(np.diag(fac.lower) > 0.0)

    def test_two_by_two_by_hand(self):
        fac = cholesky_with_jitter(np.array([[4.0, 2.0], [2.0, 3.0]]), 1e-6)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(fac.lower, expected, atol=1e-5)

    def test_rank_deficient_escalates(self):
        a = np.ones((2, 2))
        fac = cholesky_with_jitter(a, 1e-17)  # first rungs vanish below float eps
        assert fac.jitter_used > 1e-17
        delta = fac.lower @ fac.lower.T - a
        # the only discrepancy against the raw input is the jitter on the diagonal
        assert np.max(np.abs(delta - np.diag(np.diag(delta)))) <= 1e-14
        assert np.all(np.diag(delta) >= 0.0)
        assert np.max(np.diag(delta)) <= 10.0 * fac.jitter_used

    def test_reconstruction_contract(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 6)
        fac = cholesky_with_jitter(a)
        recon = fac.lower @ fac.lower.T
        target = a + fac.jitter_used * np.eye(6)
        rel = np.linalg.norm(recon - target) / np.linalg.norm(a)
        assert rel <= 1e-8

    @given(st.integers(min_value=0, max_value=10_000))
    def test_reconstruction_property_random_spd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 65))
        a = random_spd(rng, n)
        fac = cholesky_with_jitter(a)
        rel = np.linalg.norm(fac.lower @ fac.lower.T - (a + fac.jitter_used * np.eye(n)))
        assert rel / np.linalg.norm(a) <= 1e-8
        assert np.all(np.triu(fac.lower, k=1) == 0.0)

    def test_deterministic_for_fixed_input(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 5)
        f1 = cholesky_with_jitter(a, 1e-8)
        f2 = cholesky_with_jitter(a, 1e-8)
        assert f1.jitter_used == f2.jitter_used
        assert np.array_equal(f1.lower, f2.lower)

    def test_jitter_on_ladder(self):
        fac = cholesky_with_jitter(np.ones((2, 2)), 1e-17)
        ladder = [1e-17 * 10.0**k for k in range(7)]
        assert any(fac.jitter_used == pytest.approx(r, rel=1e-12) for r in ladder)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky_with_jitter(np.array([[1.0, 2.0], [0.0, 1.0]]), 1e-6)

    def test_rejects_indefinite_after_ladder(self):
        # eigenvalue -1 stays negative across the whole ladder from this base
        with pytest.raises(NotPositiveDefinite):
            cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            cholesky_with_jitter(np.ones((2, 3)), 1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cholesky_with_jitter(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1e-6)
        with pytest.raises(NonFiniteMatrix):
            cholesky_with_jitter(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1e-6)

    def test_rejects_nonpositive_base_jitter(self):
        with pytest.raises(ValueError):
            cholesky_with_jitter(np.eye(2), 0.0)

    def test_default_jitter_scales_with_diagonal(self):
        assert default_jitter(4.0 * np.eye(3)) == pytest.approx(4e-6)
        assert default_jitter(np.zeros((2, 2))) == pytest.approx(1e-6)


class TestSolveLowerTriangular:
    def test_identity_factor_returns_rhs(self):
        fac = CholeskyFactor(lower=np.eye(3), jitter_used=0.0)
        b = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(solve_lower_triangular(fac, b), b)

    def test_forward_substitution_by_hand(self):
        fac = CholeskyFactor(lower=np.array([[2.0, 0.0], [1.0, 1.0]]), jitter_used=0.0)
        x = solve_lower_triangular(fac, np.array([[2.0], [3.0]]))
        assert np.allclose(x, [[1.0], [2.0]], atol=1e-12)

    def test_round_trip_on_random_spd(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 5)
        fac = cholesky_with_jitter(a)
        b = rng.normal(size=(5, 3))
        x = solve_lower_triangular(fac, b)
        assert np.linalg.norm(fac.lower @ x - b) / np.linalg.norm(b) <= 1e-8

    def test_vector_rhs(self):
        fac = CholeskyFactor(lower=np.array([[2.0, 0.0], [1.0, 1.0]]), jitter_used=0.0)
        x = solve_lower_triangular(fac, np.array([2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_dimension_mismatch(self):
        fac = CholeskyFactor(lower=np.eye(3), jitter_used=0.0)
        with pytest.raises(DimensionMismatch):
            solve_lower_triangular(fac, np.ones(4))

    def test_transposed_solve(self):
        rng = np.random.default_rng(3)
        lower = np.linalg.cholesky(random_spd(rng, 4))
        b = rng.normal(size=(4, 2))
        x = solve_triangular(lower, b, trans="T")
        assert np.linalg.norm(lower.T @ x - b) / np.linalg.norm(b) <= 1e-10


def rbf_gram_factor(m, seed):
    """Cholesky factor of an RBF Gram matrix over m random points in 8-d,
    lengthscale at the median distance, jittered as the GP jitters Kzz."""
    z = np.random.default_rng(seed).normal(size=(m, 8))
    sq = np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=2)
    gram = np.exp(-0.5 * sq / max(float(np.median(sq)), 1e-12))
    return cholesky_with_jitter(gram).lower


class TestSolveTriangularMatchesScipy:
    """The blocked numpy substitution against scipy's LAPACK solve, which
    only the tests import."""

    @pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 64, 300])
    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("cols", [None, 1, 7, 500])
    def test_matches_scipy(self, m, trans, cols):
        lower = rbf_gram_factor(m, seed=m)
        rng = np.random.default_rng(m + 1)
        b = rng.normal(size=m if cols is None else (m, cols))
        before = b.copy()
        x = solve_triangular(lower, b, trans=trans)
        oracle = scipy.linalg.solve_triangular(lower, b, lower=True, trans=trans)
        assert x.shape == b.shape and x.dtype == np.float64
        assert np.max(np.abs(x - oracle)) <= 1e-10 * np.max(np.abs(oracle))
        assert np.array_equal(b, before)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_residual_no_larger_than_scipy(self, seed):
        rng = np.random.default_rng(seed)
        m, cols = int(rng.integers(1, 100)), int(rng.integers(1, 40))
        lower = np.linalg.cholesky(random_spd(rng, m, shift=1e-3))
        b = rng.normal(size=(m, cols))
        for trans, op in (("N", lower), ("T", lower.T)):
            x = solve_triangular(lower, b, trans=trans)
            oracle = scipy.linalg.solve_triangular(lower, b, lower=True, trans=trans)
            scale = np.max(np.abs(op)) * np.max(np.abs(oracle))
            residual = np.max(np.abs(op @ x - b))
            assert residual <= 4.0 * max(np.max(np.abs(op @ oracle - b)), 1e-15 * scale)

    def test_non_contiguous_and_integer_rhs(self):
        lower = rbf_gram_factor(40, seed=1)
        b = np.arange(80).reshape(2, 40).T  # an integer, Fortran-ordered view
        x = solve_triangular(lower, b, trans="T")
        assert x.dtype == np.float64
        assert np.max(np.abs(lower.T @ x - b)) <= 1e-8 * np.max(np.abs(b))

    def test_empty_system(self):
        assert solve_triangular(np.zeros((0, 0)), np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_non_finite_operands(self, trans):
        lower = np.array([[2.0, 0.0], [1.0, 1.0]])
        for bad_lower, bad_b in (
            (np.array([[2.0, 0.0], [np.nan, 1.0]]), np.ones(2)),
            (np.array([[2.0, np.inf], [1.0, 1.0]]), np.ones(2)),
            (lower, np.array([1.0, np.inf])),
            (lower, np.array([[np.nan], [1.0]])),
        ):
            with pytest.raises(NonFiniteMatrix):
                solve_triangular(bad_lower, bad_b, trans=trans)
        with pytest.raises(ValueError):  # the type scipy raised
            solve_triangular(lower, np.array([np.nan, 1.0]), trans=trans)

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_zero_diagonal(self, trans):
        lower = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError, match="diagonal entry at 1"):
            solve_triangular(lower, np.ones(3), trans=trans)

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_shape_mismatch(self, trans):
        with pytest.raises(DimensionMismatch):
            solve_triangular(np.eye(3), np.ones(4), trans=trans)
        with pytest.raises(DimensionMismatch):
            solve_triangular(np.eye(3), np.ones((2, 3)), trans=trans)
        with pytest.raises(DimensionMismatch):
            solve_triangular(np.ones((3, 2)), np.ones(3), trans=trans)
        with pytest.raises(DimensionMismatch):
            solve_triangular(np.eye(3), np.ones((3, 1, 1)), trans=trans)


class TestCholeskyBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 5)
        lower = np.linalg.cholesky(a)
        w = rng.normal(size=(5, 5))
        abar = cholesky_backward(lower, w)

        def f(mat):
            return float(np.sum(w * np.linalg.cholesky(mat)))

        h = 1e-6
        fd = np.zeros_like(a)
        for i in range(5):
            for j in range(i + 1):
                e = np.zeros_like(a)
                e[i, j] = e[j, i] = 1.0
                d = (f(a + h * e) - f(a - h * e)) / (2.0 * h)
                # symmetric-direction derivative: abar[i,j] + abar[j,i] off-diagonal
                fd[i, j] = fd[j, i] = d if i == j else d / 2.0
        assert max_rel_err(abar, fd, floor=1e-8) <= 1e-6

    def test_output_is_symmetric(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 4)
        lower = np.linalg.cholesky(a)
        abar = cholesky_backward(lower, rng.normal(size=(4, 4)))
        assert np.array_equal(abar, abar.T)
