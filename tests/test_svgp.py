import numpy as np
import pytest
import scipy.linalg
from scipy.special import logsumexp

from helpers import (
    fd_scalar_attr,
    fd_wrt,
    make_blobs,
    max_rel_err,
    reference_elbo_and_grads,
    reference_elbo_minibatch,
    reference_fit,
    reference_kl_divergence,
    reference_predict_proba,
    reference_predictive_latent,
)
from textuq import linalg, svgp
from textuq.errors import DimensionMismatch, InvalidConfig, NonFiniteLoss, TooFewPoints
from textuq.kernel import KernelParams, kernel_diag, kernel_matrix
from textuq.linalg import cholesky_with_jitter
from textuq.svgp import (
    SvgpModel,
    TrainConfig,
    _elbo_and_grads,
    _epoch_noise,
    elbo_minibatch,
    fit,
    init_model,
    kl_divergence,
    predict_proba,
    predictive_latent,
    softplus,
    softplus_inv,
)


def set_scale(model, c, target_lower):
    """Write raw entries so that model.scale_lowers()[c] equals target_lower."""
    raw = np.tril(target_lower, k=-1)
    raw[np.diag_indices_from(raw)] = softplus_inv(np.diag(target_lower))
    model.variational_scales_raw[c] = raw


def perturbed_model(seed, n=12, m=3, d=2, num_classes=3):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    model = init_model(feats, m=m, seed=seed, num_classes=num_classes)
    model.variational_means += 0.4 * rng.normal(size=model.variational_means.shape)
    for c in range(num_classes):
        target = np.tril(0.2 * rng.normal(size=(m, m)), k=-1)
        target[np.diag_indices(m)] = rng.uniform(0.6, 1.5, size=m)
        set_scale(model, c, target)
    model.kernel.log_variance += 0.2
    model.kernel.log_lengthscales += 0.1 * rng.normal(size=d)
    return model, feats, rng


def two_class_point_model(means, diag_scales, log_variance):
    """One inducing point in 1-D with the query pinned to it."""
    kern = KernelParams(log_variance=log_variance, log_lengthscales=np.zeros(1))
    model = SvgpModel(
        kernel=kern,
        inducing_inputs=np.array([[0.5]]),
        variational_means=np.array(means, dtype=np.float64).reshape(2, 1),
        variational_scales_raw=np.zeros((2, 1, 1)),
        num_classes=2,
    )
    for c in range(2):
        set_scale(model, c, np.array([[diag_scales[c]]]))
    return model, model.inducing_inputs.copy()


def gauss_hermite_2d(fn, mean, var, nodes=50):
    """E[fn(f0, f1)] for independent Gaussians, tensorized Gauss-Hermite."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    f0 = mean[0] + np.sqrt(2.0 * var[0]) * t
    f1 = mean[1] + np.sqrt(2.0 * var[1]) * t
    weights = np.outer(w, w) / np.pi
    return float(np.sum(weights * fn(f0[:, None], f1[None, :])))


class TestInit:
    def test_full_size_is_a_permutation_of_the_data(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(8, 3))
        model = init_model(feats, m=8, seed=1)
        got = sorted(map(tuple, model.inducing_inputs))
        want = sorted(map(tuple, feats))
        assert got == want

    def test_inducing_rows_come_from_the_data(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(50_000, 2))
        model = init_model(feats, m=300, seed=7)
        pool = {tuple(row) for row in feats}
        rows = [tuple(row) for row in model.inducing_inputs]
        assert len(set(rows)) == 300
        assert all(r in pool for r in rows)

    def test_seed_determinism_and_sensitivity(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(200, 4))
        a = init_model(feats, m=20, seed=3)
        b = init_model(feats, m=20, seed=3)
        c = init_model(feats, m=20, seed=4)
        assert np.array_equal(a.inducing_inputs, b.inducing_inputs)
        assert not np.array_equal(a.inducing_inputs, c.inducing_inputs)

    def test_variational_start_is_the_whitened_prior(self):
        rng = np.random.default_rng(3)
        model = init_model(rng.normal(size=(30, 2)), m=5, seed=0)
        assert np.all(model.variational_means == 0.0)
        for c in range(model.num_classes):
            assert np.allclose(model.scale_lowers()[c], np.eye(5), atol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            init_model(np.zeros((5, 2)), m=6)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            init_model(np.zeros((5, 2)), m=0)


class TestPredictiveLatent:
    def test_prior_initialization_recovers_the_prior_marginals(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(40, 3))
        model = init_model(feats, m=10, seed=0)
        xs = rng.normal(size=(7, 3))
        lat = predictive_latent(model, xs)
        assert np.all(lat.mean == 0.0)
        kdiag = kernel_diag(xs, model.kernel)
        assert np.allclose(lat.variance, kdiag[:, None], rtol=1e-12)

    def test_matches_dense_unwhitened_formulas(self):
        model, feats, rng = perturbed_model(5)
        z = model.inducing_inputs
        xs = np.vstack([z[:2], rng.normal(size=(4, 2))])
        lat = predictive_latent(model, xs)

        kzz = kernel_matrix(z, z, model.kernel)
        fac = cholesky_with_jitter(kzz, model.jitter)
        kzz_j = kzz + fac.jitter_used * np.eye(model.m)
        l = np.linalg.cholesky(kzz_j)
        kzx = kernel_matrix(z, xs, model.kernel)
        kinv_kzx = np.linalg.solve(kzz_j, kzx)
        kdiag = kernel_diag(xs, model.kernel)
        for c in range(model.num_classes):
            lc = model.scale_lowers()[c]
            mu_u = l @ model.variational_means[c]
            s_u = l @ lc @ lc.T @ l.T
            mean = kinv_kzx.T @ mu_u
            var = (
                kdiag
                - np.sum(kzx * kinv_kzx, axis=0)
                + np.sum(kinv_kzx * (s_u @ kinv_kzx), axis=0)
            )
            assert max_rel_err(lat.mean[:, c], mean, floor=1e-10) <= 1e-9
            assert max_rel_err(lat.variance[:, c], var, floor=1e-10) <= 1e-9

    def test_variance_respects_floor_and_shrinkage_bound(self):
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            feats = rng.normal(size=(20, 2))
            model = init_model(feats, m=4, seed=trial)
            for c in range(model.num_classes):
                # contraction below the prior keeps variance under kdiag
                set_scale(model, c, 0.5 * np.eye(4))
            xs = rng.normal(size=(6, 2))
            lat = predictive_latent(model, xs)
            kdiag = kernel_diag(xs, model.kernel)
            assert np.all(lat.variance >= 1e-12)
            assert np.all(lat.variance <= kdiag[:, None] + 1e-12)

    def test_rejects_wrong_input_width(self):
        model, _, _ = perturbed_model(6)
        with pytest.raises(DimensionMismatch):
            predictive_latent(model, np.zeros((3, 5)))


class TestKl:
    def test_zero_at_initialization(self):
        rng = np.random.default_rng(7)
        model = init_model(rng.normal(size=(30, 2)), m=6, seed=0)
        assert abs(kl_divergence(model)) <= 1e-10

    def test_single_unit_mean_gives_half(self):
        kern = KernelParams(log_variance=0.0, log_lengthscales=np.zeros(1))
        model = SvgpModel(
            kernel=kern,
            inducing_inputs=np.zeros((1, 1)),
            variational_means=np.array([[1.0]]),
            variational_scales_raw=np.array([[[softplus_inv(1.0)]]]),
            num_classes=1,
        )
        assert kl_divergence(model) == pytest.approx(0.5, rel=1e-9)

    def test_nonnegative_on_random_models(self):
        for seed in range(20):
            model, _, _ = perturbed_model(seed, m=4)
            assert kl_divergence(model) >= 0.0

    def test_matches_monte_carlo_estimate(self):
        m, c_n = 4, 3
        rng = np.random.default_rng(42)
        model, _, _ = perturbed_model(0, m=m)
        model.variational_means = 0.8 * rng.normal(size=(c_n, m))
        for c in range(c_n):
            target = np.tril(0.3 * rng.normal(size=(m, m)), k=-1)
            target[np.diag_indices(m)] = rng.uniform(0.7, 2.0, size=m)
            set_scale(model, c, target)

        closed = kl_divergence(model)
        draw_rng = np.random.default_rng(7)
        s = 100_000
        per_draw = np.zeros(s)
        for c in range(c_n):
            lc = model.scale_lowers()[c]
            mc = model.variational_means[c]
            eps = draw_rng.standard_normal(size=(s, m))
            v = mc[None, :] + eps @ lc.T
            per_draw += (
                -np.sum(np.log(np.diag(lc)))
                - 0.5 * np.sum(eps * eps, axis=1)
                + 0.5 * np.sum(v * v, axis=1)
            )
        est = per_draw.mean()
        se = per_draw.std(ddof=1) / np.sqrt(s)
        assert abs(closed - est) <= 4.0 * se


class TestElbo:
    def test_rejects_bad_noise_shape(self):
        model, feats, _ = perturbed_model(8)
        labels = np.zeros(4, dtype=int)
        with pytest.raises(DimensionMismatch):
            elbo_minibatch(model, feats[:4], labels, 12, np.zeros((4, 3)))
        with pytest.raises(DimensionMismatch):
            elbo_minibatch(model, feats[:4], labels, 12, np.zeros((3, 3, 2)))

    def test_symmetric_start_scores_uniform_guessing(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(6, 2))
        labels = np.array([0, 1, 2, 0, 1, 2])
        model = init_model(feats, m=4, seed=0)
        shared = rng.standard_normal(size=(6, 1, 5))
        noise = np.repeat(shared, 3, axis=1)  # same draw for every class
        value = elbo_minibatch(model, feats, labels, 6, noise)
        assert value == pytest.approx(6.0 * np.log(1.0 / 3.0), abs=1e-9)
        assert value <= 0.0

    def test_decomposes_into_likelihood_minus_kl(self):
        model, feats, rng = perturbed_model(10)
        labels = rng.integers(0, 3, size=5)
        noise = rng.standard_normal(size=(5, 3, 6))
        value = elbo_minibatch(model, feats[:5], labels, 20, noise)

        lat = predictive_latent(model, feats[:5])
        f = lat.mean[:, :, None] + np.sqrt(lat.variance)[:, :, None] * noise
        logp = f[np.arange(5), labels, :] - logsumexp(f, axis=1)
        expected = (20.0 / 5.0) * np.sum(logp.mean(axis=1)) - kl_divergence(model)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_batch_order_invariance(self):
        model, feats, rng = perturbed_model(11)
        labels = rng.integers(0, 3, size=7)
        noise = rng.standard_normal(size=(7, 3, 4))
        base = elbo_minibatch(model, feats[:7], labels, 7, noise)
        perm = rng.permutation(7)
        permuted = elbo_minibatch(model, feats[:7][perm], labels[perm], 7, noise[perm])
        assert permuted == pytest.approx(base, rel=1e-9)

    def test_monte_carlo_matches_quadrature_on_one_point(self):
        model, xs = two_class_point_model(
            means=[0.4, -0.3], diag_scales=[0.6, 0.8], log_variance=np.log(0.04)
        )
        labels = np.array([0])
        lat = predictive_latent(model, xs)
        expected_loglik = gauss_hermite_2d(
            lambda f0, f1: f0 - np.logaddexp(f0, f1), lat.mean[0], lat.variance[0]
        )
        truth = expected_loglik - kl_divergence(model)

        noise = np.random.default_rng(12).standard_normal(size=(1, 2, 1_000_000))
        estimate = elbo_minibatch(model, xs, labels, 1, noise)
        assert estimate == pytest.approx(truth, abs=1e-3)

    def test_bounded_by_log_marginal_on_one_point(self):
        # at the prior start the bound is Jensen's gap, which is strict here
        model, xs = two_class_point_model(
            means=[0.0, 0.0], diag_scales=[1.0, 1.0], log_variance=0.0
        )
        labels = np.array([0])
        lat = predictive_latent(model, xs)
        log_marginal = np.log(
            gauss_hermite_2d(
                lambda f0, f1: np.exp(f0 - np.logaddexp(f0, f1)),
                lat.mean[0],
                lat.variance[0],
            )
        )
        noise = np.random.default_rng(13).standard_normal(size=(1, 2, 200_000))
        estimate = elbo_minibatch(model, xs, labels, 1, noise)
        assert estimate <= log_marginal - 0.05


class TestGradients:
    def test_value_agrees_with_plain_elbo(self):
        model, feats, rng = perturbed_model(14)
        labels = rng.integers(0, 3, size=5)
        noise = rng.standard_normal(size=(5, 3, 4))
        value, _ = _elbo_and_grads(model, feats[:5], labels, 12, noise)
        assert value == pytest.approx(
            elbo_minibatch(model, feats[:5], labels, 12, noise), rel=1e-12
        )

    def test_gradient_blocks_match_finite_differences(self):
        model, feats, rng = perturbed_model(15)
        xs, labels = feats[:5], rng.integers(0, 3, size=5)
        noise = rng.standard_normal(size=(5, 3, 4))

        def objective():
            return elbo_minibatch(model, xs, labels, 12, noise)

        _, grads = _elbo_and_grads(model, xs, labels, 12, noise, optimize_inducing=True)
        checks = [
            (grads["variational_means"], fd_wrt(model.variational_means, objective)),
            (
                grads["variational_scales_raw"],
                fd_wrt(model.variational_scales_raw, objective),
            ),
            (grads["log_lengthscales"], fd_wrt(model.kernel.log_lengthscales, objective)),
            (grads["inducing_inputs"], fd_wrt(model.inducing_inputs, objective)),
            (
                grads["log_variance"],
                fd_scalar_attr(model.kernel, "log_variance", objective),
            ),
        ]
        for analytic, fd in checks:
            assert max_rel_err(np.asarray(analytic), np.asarray(fd)) <= 1e-4

    def test_inducing_gradient_only_on_request(self):
        model, feats, rng = perturbed_model(16)
        labels = rng.integers(0, 3, size=5)
        noise = rng.standard_normal(size=(5, 3, 4))
        _, grads = _elbo_and_grads(model, feats[:5], labels, 12, noise)
        assert "inducing_inputs" not in grads
        _, grads = _elbo_and_grads(model, feats[:5], labels, 12, noise, optimize_inducing=True)
        assert "inducing_inputs" in grads


class TestEpochNoise:
    def test_rows_do_not_depend_on_population_size(self):
        full = _epoch_noise(3, 1, 10, 3, 4)
        prefix = _epoch_noise(3, 1, 5, 3, 4)
        assert np.array_equal(full[:5], prefix)

    def test_epochs_draw_distinct_streams(self):
        a = _epoch_noise(3, 0, 4, 3, 2)
        b = _epoch_noise(3, 1, 4, 3, 2)
        assert not np.array_equal(a, b)


class TestFit:
    def config(self, **kw):
        base = dict(
            learning_rate=0.003, epochs=2, batch_size=4, mc_train_samples=3, seed=1
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_learning_rate_keeps_parameters_bitwise(self):
        model, feats, rng = perturbed_model(17, n=10)
        labels = rng.integers(0, 3, size=10)
        fitted, trace = fit(model, feats, labels, self.config(learning_rate=0.0))
        assert len(trace) == 2 * 3  # ceil(10 / 4) batches per epoch
        assert np.array_equal(fitted.variational_means, model.variational_means)
        assert np.array_equal(fitted.variational_scales_raw, model.variational_scales_raw)
        assert np.array_equal(fitted.inducing_inputs, model.inducing_inputs)
        assert fitted.kernel.log_variance == model.kernel.log_variance
        assert np.array_equal(fitted.kernel.log_lengthscales, model.kernel.log_lengthscales)

    def test_deterministic_and_leaves_input_untouched(self):
        model, feats, rng = perturbed_model(18, n=10)
        labels = rng.integers(0, 3, size=10)
        before = model.copy()
        fit_a, trace_a = fit(model, feats, labels, self.config())
        fit_b, trace_b = fit(model, feats, labels, self.config())
        assert np.array_equal(model.variational_means, before.variational_means)
        assert model.kernel.log_variance == before.kernel.log_variance
        assert trace_a == trace_b
        assert all(type(t) is float for t in trace_a)  # a row's step is its position
        assert np.array_equal(fit_a.variational_means, fit_b.variational_means)
        assert np.array_equal(
            fit_a.variational_scales_raw, fit_b.variational_scales_raw
        )
        assert fit_a.kernel.log_variance == fit_b.kernel.log_variance

    def test_non_finite_loss_reports_the_step(self):
        model, feats, rng = perturbed_model(19, n=10)
        labels = rng.integers(0, 3, size=10)
        # squared-mean KL term overflows, so the first objective is -inf
        model.variational_means[:] = 1e200
        with pytest.raises(NonFiniteLoss) as excinfo:
            fit(model, feats, labels, self.config())
        assert excinfo.value.step == 0

    @pytest.mark.filterwarnings("error")  # the divergence is reported once, without warnings
    def test_overflowing_kernel_reports_the_step(self):
        model, feats, rng = perturbed_model(19, n=10)
        labels = rng.integers(0, 3, size=10)
        model.kernel.log_variance = 800.0  # exp overflows, so Kzz is infinite
        with pytest.raises(NonFiniteLoss) as excinfo:
            fit(model, feats, labels, self.config())
        assert excinfo.value.step == 0

    @pytest.mark.filterwarnings("error")
    def test_diverging_steps_raise_non_finite_loss(self):
        model, feats, rng = perturbed_model(19, n=10)
        labels = rng.integers(0, 3, size=10)
        with pytest.raises(NonFiniteLoss) as excinfo:
            fit(model, feats, labels, self.config(learning_rate=1e300))
        assert excinfo.value.step >= 1

    def test_training_improves_the_objective_on_separable_blobs(self):
        rng = np.random.default_rng(20)
        feats, labels = make_blobs(rng)
        model = init_model(feats, m=32, seed=0)
        cfg = TrainConfig()  # stock two-epoch schedule
        fitted, trace = fit(model, feats, labels, cfg)
        assert len(trace) == 2 * 3  # 1500 points in batches of 500
        noise = _epoch_noise(123, 0, feats.shape[0], 3, 8)
        before = elbo_minibatch(model, feats, labels, feats.shape[0], noise)
        after = elbo_minibatch(fitted, feats, labels, feats.shape[0], noise)
        assert after > before

    def test_matches_scipy_solves_within_tolerance(self, monkeypatch):
        # the numpy substitution rounds differently from LAPACK; training and
        # prediction must agree to far below the printed precision
        rng = np.random.default_rng(21)
        feats, labels = make_blobs(rng, n_per=200)
        model = init_model(feats, m=48, seed=0)  # two solve blocks
        cfg = TrainConfig(batch_size=100, seed=2)
        ours, ours_trace = fit(model, feats, labels, cfg)
        ours_probs = predict_proba(ours, feats, s=16, seed=3)

        def scipy_solve(lower, b, trans="N"):
            return scipy.linalg.solve_triangular(lower, b, lower=True, trans=trans)

        monkeypatch.setattr(linalg, "solve_triangular", scipy_solve)
        monkeypatch.setattr(svgp, "solve_triangular", scipy_solve)
        ref, ref_trace = fit(model, feats, labels, cfg)
        ref_probs = predict_proba(ref, feats, s=16, seed=3)
        assert len(ours_trace) == len(ref_trace) == 2 * 6
        for a, b in zip(ours_trace, ref_trace):
            assert a == pytest.approx(b, rel=1e-8, abs=0.0)
        assert np.max(np.abs(ours_probs - ref_probs)) <= 1e-8
        assert max_rel_err(ours.variational_means, ref.variational_means, floor=1e-3) <= 1e-6

    def test_validate_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1).validate()
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1).validate()
        with pytest.raises(ValueError):
            TrainConfig(mc_train_samples=0).validate()
        with pytest.raises(InvalidConfig, match="seed must be an integer >= 0"):
            TrainConfig(seed=-1).validate()

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_validate_rejects_a_non_finite_learning_rate(self, lr):
        with pytest.raises(InvalidConfig, match="learning_rate must be finite"):
            TrainConfig(learning_rate=lr).validate()


class TestPredictProba:
    def test_prior_model_is_near_uniform(self):
        rng = np.random.default_rng(21)
        feats = rng.normal(size=(60, 2))
        model = init_model(feats, m=10, seed=0)
        probs = predict_proba(model, rng.normal(size=(5, 2)), s=10_000, seed=3)
        assert np.all(np.abs(probs - 1.0 / 3.0) <= 0.02)

    def test_rows_sum_to_one(self):
        model, feats, _ = perturbed_model(22)
        probs = predict_proba(model, feats[:6], s=32, seed=0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_seed_determinism(self):
        model, feats, _ = perturbed_model(23)
        a = predict_proba(model, feats[:4], s=16, seed=5)
        b = predict_proba(model, feats[:4], s=16, seed=5)
        c = predict_proba(model, feats[:4], s=16, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_confident_latent_mean_dominates(self):
        kern = KernelParams(log_variance=0.0, log_lengthscales=np.zeros(1))
        model = SvgpModel(
            kernel=kern,
            inducing_inputs=np.array([[0.0]]),
            variational_means=np.array([[10.0], [0.0], [0.0]]),
            variational_scales_raw=np.full((3, 1, 1), -40.0),
            jitter=1e-12,
            num_classes=3,
        )
        probs = predict_proba(model, np.array([[0.0]]), s=64, seed=0)
        assert probs[0, 0] > 0.999

    def test_rejects_nonpositive_sample_count(self):
        model, feats, _ = perturbed_model(24)
        with pytest.raises(ValueError):
            predict_proba(model, feats[:2], s=0)


class TestSoftplus:
    def test_round_trip(self):
        ys = np.array([1e-6, 0.5, 1.0, 3.0, 40.0])
        assert np.allclose(softplus(softplus_inv(ys)), ys, rtol=1e-9)

    def test_positive_everywhere(self):
        assert np.all(softplus(np.array([-50.0, -1.0, 0.0, 4.0])) > 0.0)


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_model(seed, m, num_classes, n=80, d=4):
    """A model away from its prior: random means, full lower-triangular scales
    and perturbed lengthscales, plus n training features."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(max(n, m), d))
    model = init_model(feats, m=m, seed=seed, num_classes=num_classes)
    model.variational_means = rng.normal(scale=0.5, size=(num_classes, m))
    raw = np.tril(rng.normal(scale=0.3, size=(num_classes, m, m)), k=-1)
    raw[:, np.arange(m), np.arange(m)] = rng.normal(scale=0.5, size=(num_classes, m))
    model.variational_scales_raw = raw
    model.kernel.log_lengthscales += rng.normal(scale=0.1, size=d)
    return model, feats


def assert_matches_reference(model, xs, labels, noise, optimize_inducing):
    lat = predictive_latent(model, xs)
    mean, variance = reference_predictive_latent(model, xs)
    assert_same_bytes(lat.mean, mean)
    assert_same_bytes(lat.variance, variance)
    assert_same_bytes(kl_divergence(model), reference_kl_divergence(model))
    assert_same_bytes(elbo_minibatch(model, xs, labels, 500, noise),
                      reference_elbo_minibatch(model, xs, labels, 500, noise))
    elbo, grads = _elbo_and_grads(model, xs, labels, 500, noise, optimize_inducing)
    ref_elbo, ref_grads = reference_elbo_and_grads(
        model, xs, labels, 500, noise, optimize_inducing)
    assert_same_bytes(elbo, ref_elbo)
    assert list(grads) == list(ref_grads)
    for name in grads:
        assert_same_bytes(grads[name], ref_grads[name])
    assert_same_bytes(predict_proba(model, xs, s=16, seed=9),
                      reference_predict_proba(model, xs, s=16, seed=9))


class TestMatchesReference:
    """The stacked forward pass gives the per-class code's bytes."""

    @pytest.mark.parametrize("m", [1, 31, 33, 64])
    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("optimize_inducing", [False, True])
    @pytest.mark.parametrize("batch", [1, 50])
    def test_every_output_and_gradient_block(self, m, num_classes, optimize_inducing, batch):
        model, feats = random_model(m + 10 * num_classes, m, num_classes)
        rng = np.random.default_rng(m)
        xs = feats[:batch]
        labels = rng.integers(num_classes, size=batch)
        noise = rng.normal(size=(batch, num_classes, 8))
        assert_matches_reference(model, xs, labels, noise, optimize_inducing)

    def test_clamped_variance(self):
        # inputs on the inducing points with near-zero jitter and scales leave
        # a latent variance at or below VARIANCE_FLOOR, so the clamp runs
        model, feats = random_model(3, 3, 3)
        model.jitter = 1e-14
        model.kernel.log_lengthscales[:] = np.log(0.05)
        model.variational_scales_raw[:] = -40.0
        xs = np.vstack([model.inducing_inputs, feats[:5]])
        _, variance = reference_predictive_latent(model, xs)
        assert (variance == svgp.VARIANCE_FLOOR).any()
        assert (variance > svgp.VARIANCE_FLOOR).any()
        rng = np.random.default_rng(4)
        noise = rng.normal(size=(xs.shape[0], 3, 8))
        assert_matches_reference(model, xs, rng.integers(3, size=xs.shape[0]), noise, True)

    @pytest.mark.parametrize("optimize_inducing", [False, True])
    def test_two_epoch_fit_with_a_remainder_batch(self, optimize_inducing):
        model, feats = random_model(7, 33, 3, n=130)
        labels = np.random.default_rng(8).integers(3, size=130)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=50, mc_train_samples=4,
                          seed=11, optimize_inducing=optimize_inducing)
        got, trace = fit(model, feats, labels, cfg)
        want, objectives = reference_fit(model, feats, labels, cfg)
        assert len(trace) == 6
        assert_same_bytes(trace, objectives)
        assert_same_bytes(got.kernel.log_variance, want.kernel.log_variance)
        for name in ("inducing_inputs", "variational_means", "variational_scales_raw"):
            assert_same_bytes(getattr(got, name), getattr(want, name))
        assert_same_bytes(got.kernel.log_lengthscales, want.kernel.log_lengthscales)
