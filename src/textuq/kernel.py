"""ARD radial-basis-function covariance.

Hyperparameters live in log space so optimizers can treat them as
unconstrained. Per-dimension lengthscales (automatic relevance determination)
let training stretch or ignore individual feature dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

MEDIAN_POINTS = 1000


@dataclass
class KernelParams:
    """log signal variance and per-dimension log lengthscales."""

    log_variance: float
    log_lengthscales: np.ndarray  # shape (D,)

    @property
    def dim(self) -> int:
        return self.log_lengthscales.shape[0]

    def lengthscales(self) -> np.ndarray:
        return np.exp(self.log_lengthscales)


def kernel_matrix(xs: np.ndarray, ys: np.ndarray, p: KernelParams) -> np.ndarray:
    """Gram matrix K[i, j] = sigma^2 * exp(-1/2 sum_d (xs[i, d] - ys[j, d])^2 / l_d^2).

    When ``xs is ys`` the result is made exactly symmetric and its diagonal is
    set to the signal variance exactly.
    """
    same = xs is ys
    xs = np.asarray(xs, dtype=np.float64)
    ys = xs if same else np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[1] != p.dim or ys.shape[1] != p.dim:
        raise DimensionMismatch(
            f"xs {xs.shape}, ys {ys.shape} incompatible with {p.dim} lengthscales"
        )
    a = xs / p.lengthscales()
    b = a if same else ys / p.lengthscales()
    ra = np.sum(a * a, axis=1)
    rb = ra if same else np.sum(b * b, axis=1)
    g = a @ b.T
    if same:
        g = 0.5 * (g + g.T)  # gemm output is not bit-symmetric on its own
    sq = np.maximum(ra[:, None] + rb[None, :] - 2.0 * g, 0.0)
    k = np.exp(p.log_variance - 0.5 * sq)
    if same:
        np.fill_diagonal(k, np.exp(p.log_variance))
    return k


def kernel_diag(xs: np.ndarray, p: KernelParams) -> np.ndarray:
    """Diagonal of K(xs, xs): the RBF prior variance, constant per point."""
    xs = np.asarray(xs, dtype=np.float64)
    return np.full(xs.shape[0], np.exp(p.log_variance))


def rbf_ard_param_grads(
    xs: np.ndarray, ys: np.ndarray, p: KernelParams, kbar: np.ndarray, k: np.ndarray
) -> tuple[float, np.ndarray]:
    """Contract an upstream gradient kbar = dF/dK into hyperparameter space.

    ``k`` must be the jitter-free Gram matrix for (xs, ys, p). Returns
    (dF/dlog_variance, dF/dlog_lengthscales).
    """
    w = kbar * k
    d_log_var = float(np.sum(w))
    ell2 = p.lengthscales() ** 2
    rowsum = w.sum(axis=1)
    colsum = w.sum(axis=0)
    t1 = (xs * xs).T @ rowsum
    t2 = (ys * ys).T @ colsum
    t3 = ((xs.T @ w) * ys.T).sum(axis=1)
    d_log_ls = (t1 + t2 - 2.0 * t3) / ell2
    return d_log_var, d_log_ls


def rbf_ard_input_grads(
    xs: np.ndarray, ys: np.ndarray, p: KernelParams, kbar: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Gradient of F wrt the rows of xs, given kbar = dF/dK and the Gram k."""
    w = kbar * k
    ell2 = p.lengthscales() ** 2
    return (w @ ys - xs * w.sum(axis=1)[:, None]) / ell2


def median_heuristic_lengthscale(features: np.ndarray, rng: np.random.Generator) -> float:
    """Median pairwise distance of a subsample of at most MEDIAN_POINTS
    rows, divided by sqrt(D).

    Falls back to 1.0 when the median distance is zero (duplicated inputs).

    Beyond the subsample it holds one (m, m) Gram matrix and the m(m-1)/2
    distances above its diagonal, filled row by row as
    (r_i + r_j) - 2 G_ij, with no further square temporaries.
    """
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    if n > MEDIAN_POINTS:
        idx = rng.choice(n, size=MEDIAN_POINTS, replace=False)
        features = features[idx]
    m = features.shape[0]
    r = np.sum(features * features, axis=1)
    g2 = features @ features.T  # numpy's symmetric product of a matrix and its transpose
    g2 *= 2.0
    dist = np.empty(m * (m - 1) // 2)
    pos = 0
    for i in range(m - 1):
        row = dist[pos:pos + m - 1 - i]
        np.add(r[i], r[i + 1:], out=row)
        row -= g2[i, i + 1:]
        pos += m - 1 - i
    del g2
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    med = float(np.median(dist, overwrite_input=True)) if dist.size else 0.0
    ell = med / np.sqrt(d)
    return ell if ell > 0.0 else 1.0


def init_kernel_params(features: np.ndarray, rng: np.random.Generator) -> KernelParams:
    """Unit signal variance, all lengthscales from the median heuristic."""
    d = features.shape[1]
    ell = median_heuristic_lengthscale(features, rng)
    return KernelParams(log_variance=0.0, log_lengthscales=np.full(d, np.log(ell)))
