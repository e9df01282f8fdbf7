"""Sparse variational GP multiclass classifier.

The variational distribution is whitened: with Kzz = L L^T, the inducing
outputs are u_c = L v_c and q(v_c) = N(m_c, L_c L_c^T) per class, so the KL
against the N(0, I) prior has a closed form that never touches the kernel.

Every GP path runs one forward pass, ``_forward``: it factors Kzz, solves
A = L^{-1} Kzx, and gives the latent marginals of all C classes at once from
the stacked (C, M, M) scales L_c and W = L_c^T A. Prediction floors the
variance and averages the softmax of seeded draws; training estimates the
expected log-likelihood of the same draws by Monte Carlo (``_mc_elbo``).
The backward pass in ``_elbo_and_grads`` reuses the forward's pieces and
computes every gradient analytically, including the Cholesky-backward path
into the kernel hyperparameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidConfig,
    NonFiniteLoss,
    NonFiniteMatrix,
    TooFewPoints,
    check_int,
)
from .kernel import (
    KernelParams,
    init_kernel_params,
    kernel_diag,
    kernel_matrix,
    rbf_ard_input_grads,
    rbf_ard_param_grads,
)
from .linalg import (
    cholesky_backward,
    cholesky_with_jitter,
    solve_lower_triangular,
    solve_triangular,
)

VARIANCE_FLOOR = 1e-12
RMSPROP_DECAY = 0.9
RMSPROP_EPSILON = 1e-8


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    # inverse of log(1 + e^x); y must be positive
    return y + np.log(-np.expm1(-y))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class TrainConfig:
    learning_rate: float = 0.003
    epochs: int = 2
    batch_size: int = 500
    mc_train_samples: int = 8
    seed: int = 0
    optimize_inducing: bool = False

    def validate(self) -> None:
        if not np.isfinite(self.learning_rate):
            raise InvalidConfig(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate < 0.0:
            raise InvalidConfig("learning_rate must be >= 0")
        if self.batch_size < 1 or self.mc_train_samples < 1:
            raise InvalidConfig("batch_size and sample counts must be >= 1")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")
        check_int(self.seed, "seed", 0)


@dataclass
class LatentGaussian:
    """Marginal Gaussian over the latent function values, (N, C) mean/variance."""

    mean: np.ndarray
    variance: np.ndarray


@dataclass
class SvgpModel:
    """Kernel hyperparameters, inducing inputs, and per-class whitened variationals.

    ``variational_scales_raw[c]`` stores L_c with an unconstrained diagonal:
    the strictly-lower triangle is used as-is and the diagonal is passed
    through softplus, keeping it strictly positive under gradient updates.
    """

    kernel: KernelParams
    inducing_inputs: np.ndarray  # (M, D)
    variational_means: np.ndarray  # (C, M)
    variational_scales_raw: np.ndarray  # (C, M, M)
    jitter: float = 1e-6
    num_classes: int = 3

    @property
    def m(self) -> int:
        return self.inducing_inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inducing_inputs.shape[1]

    def scale_lowers(self) -> np.ndarray:
        """Effective L_c of every class, (C, M, M): lower triangles with
        softplus-transformed diagonals."""
        raw = self.variational_scales_raw
        l = np.tril(raw, k=-1)
        diag = np.arange(self.m)
        l[:, diag, diag] = softplus(raw[:, diag, diag])
        return l

    def copy(self) -> "SvgpModel":
        return SvgpModel(
            kernel=self.kernel.copy(),
            inducing_inputs=self.inducing_inputs.copy(),
            variational_means=self.variational_means.copy(),
            variational_scales_raw=self.variational_scales_raw.copy(),
            jitter=self.jitter,
            num_classes=self.num_classes,
        )


def init_model(
    train_features: np.ndarray,
    m: int = 300,
    seed: int = 0,
    num_classes: int = 3,
    jitter: float = 1e-6,
) -> SvgpModel:
    """Inducing inputs sampled without replacement; q(v) starts at the prior.

    Kernel lengthscales come from the median-distance heuristic on a
    subsample of the training features; signal variance starts at 1.
    """
    features = np.asarray(train_features, dtype=np.float64)
    n = features.shape[0]
    if m < 1:
        raise InvalidConfig("m (inducing points) must be >= 1")
    if n < m:
        raise TooFewPoints(f"need at least {m} training points, got {n}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=m, replace=False)
    z = features[idx].copy()
    kern = init_kernel_params(features, rng)
    means = np.zeros((num_classes, m))
    scales = np.zeros((num_classes, m, m))
    scales[:, np.arange(m), np.arange(m)] = softplus_inv(1.0)
    return SvgpModel(
        kernel=kern,
        inducing_inputs=z,
        variational_means=means,
        variational_scales_raw=scales,
        jitter=jitter,
        num_classes=num_classes,
    )


def _forward(model: SvgpModel, xs: np.ndarray):
    """The latent marginals at the inputs, stacked over classes.

    Returns the mean (N, C) = A^T m_c, the unfloored variance (N, C) =
    kxx - |A|^2 + |L_c^T A|^2 with A = L^{-1} Kzx, and the pieces the
    backward pass reuses: (xs, Kzz, chol(Kzz), Kzx, A, the stacked L_c,
    W = L_c^T A).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.dim:
        raise DimensionMismatch(f"inputs {xs.shape} vs inducing dim {model.dim}")
    z = model.inducing_inputs
    kzz = kernel_matrix(z, z, model.kernel)
    fac = cholesky_with_jitter(kzz, model.jitter)
    kzx = kernel_matrix(z, xs, model.kernel)
    a = solve_lower_triangular(fac, kzx)
    scales = model.scale_lowers()
    w = np.matmul(scales.transpose(0, 2, 1), a)
    mean = a.T @ model.variational_means.T
    base = kernel_diag(xs, model.kernel) - np.sum(a * a, axis=0)
    variance = base[:, None] + np.sum(w * w, axis=1).T
    return mean, variance, (xs, kzz, fac, kzx, a, scales, w)


def predictive_latent(model: SvgpModel, xs: np.ndarray) -> LatentGaussian:
    """Marginal q(f) at the inputs: mean a^T m_c, variance kxx - a^T a + |L_c^T a|^2."""
    mean, variance, _ = _forward(model, xs)
    return LatentGaussian(mean=mean, variance=np.maximum(variance, VARIANCE_FLOOR))


def kl_divergence(model: SvgpModel) -> float:
    """KL(q(v) || N(0, I)) summed over classes, in closed form; always >= 0."""
    total = 0.0
    m = model.m
    # summed class by class: a stacked sum would change the rounding
    for l, mc in zip(model.scale_lowers(), model.variational_means):
        total += 0.5 * (
            np.sum(l * l) + np.dot(mc, mc) - m - 2.0 * np.sum(np.log(np.diag(l)))
        )
    # closed form is >= 0 analytically; guard cancellation at the optimum
    return max(float(total), 0.0)


def _softmax_draws(mean: np.ndarray, sigma: np.ndarray, noise: np.ndarray):
    """Latent draws f = mean + sigma * noise, (N, C, S), and their softmax
    over the classes; returns (f, log normaliser (N, S), probabilities)."""
    f = mean[:, :, None] + sigma[:, :, None] * noise
    mx = f.max(axis=1, keepdims=True)
    ex = np.exp(f - mx)
    denom = ex.sum(axis=1, keepdims=True)
    return f, (mx + np.log(denom))[:, 0, :], ex / denom


def _mc_elbo(model, mean, sigma, labels, n_total, noise):
    """Monte-Carlo minibatch ELBO: the expected log-likelihood of the true
    labels, scaled by n_total / batch, minus the exact KL. Returns the
    ELBO, the scale and the draws' softmax probabilities (B, C, S)."""
    f, lse, probs = _softmax_draws(mean, sigma, noise)
    logp = f[np.arange(f.shape[0]), labels, :] - lse
    scale = n_total / f.shape[0]
    return float(scale * np.sum(logp.mean(axis=1)) - kl_divergence(model)), scale, probs


def elbo_minibatch(
    model: SvgpModel,
    features: np.ndarray,
    labels: np.ndarray,
    n_total: int,
    noise: np.ndarray,
) -> float:
    """Monte-Carlo minibatch ELBO with externally supplied standard-normal draws.

    ``noise`` must have shape (batch, num_classes, samples); the likelihood
    term is scaled by n_total / batch and the exact KL is subtracted.
    """
    features = np.asarray(features, dtype=np.float64)
    b = features.shape[0]
    if b == 0:
        raise DimensionMismatch("empty batch")
    if noise.shape[:2] != (b, model.num_classes) or noise.ndim != 3:
        raise DimensionMismatch(
            f"noise shape {noise.shape}, expected ({b}, {model.num_classes}, S)"
        )
    lat = predictive_latent(model, features)
    return _mc_elbo(model, lat.mean, np.sqrt(lat.variance), np.asarray(labels),
                    n_total, noise)[0]


def _elbo_and_grads(
    model: SvgpModel,
    features: np.ndarray,
    labels: np.ndarray,
    n_total: int,
    noise: np.ndarray,
    optimize_inducing: bool = False,
):
    """ELBO value plus analytic gradients for every trainable parameter block."""
    labels = np.asarray(labels)
    mean, var_raw, (xs, kzz, fac, kzx, a, scales, w) = _forward(model, features)
    clamp = var_raw > VARIANCE_FLOOR
    sigma = np.sqrt(np.maximum(var_raw, VARIANCE_FLOOR))
    elbo, scale, probs = _mc_elbo(model, mean, sigma, labels, n_total, noise)

    # d(scaled log-lik)/df
    dlf = -probs
    dlf[np.arange(labels.shape[0]), labels, :] += 1.0
    dlf *= scale / noise.shape[2]
    g_mean = dlf.sum(axis=2)  # (B, C)
    g_sigma = (dlf * noise).sum(axis=2)  # (B, C)
    dvar = np.where(clamp, g_sigma / (2.0 * sigma), 0.0)

    # variational means: mean[n, c] = sum_j A[j, n] m[c, j]
    dmeans = (a @ g_mean).T - model.variational_means  # KL term: -m_c

    da = model.variational_means.T @ g_mean.T  # (M, B), mean path
    col_dvar = dvar.sum(axis=1)
    da -= 2.0 * a * col_dvar[None, :]

    # w is not used again, so dW = 2 W dvar is built in its buffer: at M=300 a
    # fresh (C, M, B) temporary costs more than the arithmetic
    dw = w
    dw *= 2.0
    dw *= dvar.T[:, None, :]
    dscales = np.matmul(a, dw.transpose(0, 2, 1))
    # added class by class: a stacked sum would change the rounding
    for l_c, dw_c in zip(scales, dw):
        da += l_c @ dw_c
    # KL term: d(-KL)/dL_c = -(L_c - diag(1/L_cii))
    dscales -= scales
    diag = np.arange(model.m)
    dscales[:, diag, diag] += 1.0 / scales[:, diag, diag]
    dscales = np.tril(dscales)
    dscales[:, diag, diag] *= _sigmoid(model.variational_scales_raw[:, diag, diag])

    # kernel paths: kdiag, Kzx (through the solve), Kzz (through the factor)
    l_kern = fac.lower
    kzx_bar = solve_triangular(l_kern, da, trans="T")
    l_bar = np.tril(-(kzx_bar @ a.T))
    kzz_bar = cholesky_backward(l_kern, l_bar)

    sig2 = np.exp(model.kernel.log_variance)
    d_log_var = float(np.sum(col_dvar) * sig2)
    dlv1, dll1 = rbf_ard_param_grads(model.inducing_inputs, xs, model.kernel, kzx_bar, kzx)
    dlv2, dll2 = rbf_ard_param_grads(
        model.inducing_inputs, model.inducing_inputs, model.kernel, kzz_bar, kzz
    )
    d_log_var += dlv1 + dlv2
    d_log_ls = dll1 + dll2

    grads = {
        "variational_means": dmeans,
        "variational_scales_raw": dscales,
        "log_variance": np.array(d_log_var),
        "log_lengthscales": d_log_ls,
    }
    if optimize_inducing:
        dz = rbf_ard_input_grads(model.inducing_inputs, xs, model.kernel, kzx_bar, kzx)
        dz += 2.0 * rbf_ard_input_grads(
            model.inducing_inputs, model.inducing_inputs, model.kernel, kzz_bar, kzz
        )
        grads["inducing_inputs"] = dz
    return elbo, grads


def _epoch_noise(seed: int, epoch: int, n: int, num_classes: int, samples: int) -> np.ndarray:
    """Counter-based normal draws: noise[i, c, s] depends only on
    (seed, epoch, example index, class, sample), never on batch order."""
    key = np.array([np.uint64(seed % 2**64), np.uint64(epoch)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal((n, num_classes, samples))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit(
    model: SvgpModel,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
) -> tuple[SvgpModel, list[float]]:
    """RMSProp ascent on the minibatch ELBO; returns a new model and the
    objective at every step.

    Deterministic for a fixed (data, config, seed): epoch shuffling comes from
    cfg.seed and per-example MC noise from a counter-based generator keyed by
    (seed, epoch). The input model is not modified. A step whose objective
    is not finite, or whose parameters make the kernel matrix non-finite,
    raises NonFiniteLoss; numpy's floating-point warnings are silenced, as
    that check reports the divergence.
    """
    cfg.validate()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = features.shape[0]
    if n == 0:
        raise DimensionMismatch("empty training set")

    out = model.copy()
    # every trainable array, updated in place; log_variance is a float
    params = {
        "variational_means": out.variational_means,
        "variational_scales_raw": out.variational_scales_raw,
        "log_lengthscales": out.kernel.log_lengthscales,
    }
    if cfg.optimize_inducing:
        params["inducing_inputs"] = out.inducing_inputs
    caches = {name: np.zeros_like(arr) for name, arr in params.items()}
    caches["log_variance"] = np.zeros(())

    shuffle_rng = np.random.default_rng(cfg.seed)
    trace = []
    decay, eps, lr = RMSPROP_DECAY, RMSPROP_EPSILON, cfg.learning_rate
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        noise = _epoch_noise(cfg.seed, epoch, n, out.num_classes, cfg.mc_train_samples)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            try:
                elbo, grads = _elbo_and_grads(
                    out, features[idx], labels[idx], n, noise[idx], cfg.optimize_inducing
                )
            except NonFiniteMatrix:
                # the last update overflowed the kernel: no objective exists here
                raise NonFiniteLoss(len(trace), float("nan")) from None
            if not np.isfinite(elbo):
                raise NonFiniteLoss(len(trace), elbo)
            for name, g in grads.items():
                caches[name] = decay * caches[name] + (1.0 - decay) * g * g
                update = lr * g / (np.sqrt(caches[name]) + eps)
                if name == "log_variance":
                    out.kernel.log_variance += float(update)
                else:
                    params[name] += update
            trace.append(elbo)
    return out, trace


def predict_proba(model: SvgpModel, xs: np.ndarray, s: int = 64, seed: int = 0) -> np.ndarray:
    """Class probabilities as the MC average of softmax over latent draws.

    Rows sum to 1 up to float round-off; deterministic for a fixed seed.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    lat = predictive_latent(model, xs)
    noise = _epoch_noise(seed, 0, *lat.mean.shape, s)
    return _softmax_draws(lat.mean, np.sqrt(lat.variance), noise)[2].mean(axis=2)
