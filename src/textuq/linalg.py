"""Dense linear-algebra helpers for the GP: stabilized Cholesky, triangular
solves, log-determinants.

Everything is float64 and purely functional. Factorization jitter follows a
deterministic escalation ladder so results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteMatrix, NotPositiveDefinite, NotSymmetric

# Symmetry check: max |A - A^T| <= SYMMETRY_RTOL * max |A|.
SYMMETRY_RTOL = 1e-10

# Ladder tries base * 10**k for k = 0..JITTER_LADDER_STEPS inclusive.
JITTER_LADDER_STEPS = 6


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with the diagonal jitter that produced it.

    Satisfies L @ L.T = A + jitter_used * I for the input matrix A.
    """

    lower: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def default_jitter(a: np.ndarray) -> float:
    """Base jitter scaled to the matrix: 1e-6 of the mean diagonal magnitude."""
    d = float(np.mean(np.abs(np.diag(a))))
    return 1e-6 * d if d > 0.0 else 1e-6


def cholesky_with_jitter(a: np.ndarray, base_jitter: float | None = None) -> CholeskyFactor:
    """Factor a symmetric matrix as L L^T = a + jitter * I.

    The jitter is added before the first attempt (never zero), so the result
    is a deterministic function of the input. On failure the jitter escalates
    by factors of 10 up to base * 10**6 before giving up.

    Raises NonFiniteMatrix if ``a`` has NaN or infinite entries, NotSymmetric
    if it is not symmetric within relative 1e-10, and NotPositiveDefinite if
    every rung of the ladder fails.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteMatrix("matrix has non-finite entries")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}")

    if base_jitter is None:
        base_jitter = default_jitter(a)
    if base_jitter <= 0.0:
        raise ValueError("base_jitter must be positive")

    eye = np.eye(a.shape[0])
    for k in range(JITTER_LADDER_STEPS + 1):
        jitter = base_jitter * 10.0**k
        try:
            lower = np.linalg.cholesky(a + jitter * eye)
        except np.linalg.LinAlgError:
            continue
        return CholeskyFactor(lower=lower, jitter_used=jitter)
    raise NotPositiveDefinite(
        f"factorization failed up to jitter {base_jitter * 10.0**JITTER_LADDER_STEPS:.3e}"
    )


def solve_triangular(lower: np.ndarray, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve lower @ x = b (trans "N") or lower.T @ x = b (trans "T") for a
    lower-triangular matrix; the package's one entry to scipy.

    scipy.linalg is imported on the first call, so the commands that never
    solve a triangular system do not pay for loading it.
    """
    from scipy.linalg import solve_triangular as scipy_solve_triangular

    return scipy_solve_triangular(lower, b, lower=True, trans=trans)


def solve_lower_triangular(l: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve l.lower @ x = b by forward substitution; b may be a vector or matrix."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != l.n:
        raise DimensionMismatch(f"factor is {l.n}x{l.n}, rhs has leading dim {b.shape[0]}")
    return solve_triangular(l.lower, b)


def log_det_from_cholesky(l: CholeskyFactor) -> float:
    """log det (L L^T) = 2 * sum(log diag L)."""
    return float(2.0 * np.sum(np.log(np.diag(l.lower))))


def cholesky_backward(lower: np.ndarray, lower_bar: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of a Cholesky factorization.

    Given dF/dL for L = chol(A), returns dF/dA (symmetrized). Uses the
    level-1 blocked identity: Abar = 1/2 L^-T (P + P^T) L^-1 with
    P = tril(L^T Lbar) and the diagonal of P halved.
    """
    p = np.tril(lower.T @ lower_bar)
    p[np.diag_indices_from(p)] *= 0.5
    m = p + p.T
    y = solve_triangular(lower, m, trans="T")
    abar = 0.5 * solve_triangular(lower, y.T, trans="T").T
    return 0.5 * (abar + abar.T)
