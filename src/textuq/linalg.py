"""Dense linear-algebra helpers for the GP: stabilized Cholesky, triangular
solves and the Cholesky backward pass, on numpy alone.

Everything is float64 and purely functional. Factorization jitter follows a
deterministic escalation ladder so results are reproducible across runs.
numpy has no triangular solve, so ``solve_triangular`` substitutes over
diagonal blocks: one matmul brings in the rows already solved, then the
block is solved row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteMatrix, NotPositiveDefinite, NotSymmetric

# Symmetry check: max |A - A^T| <= SYMMETRY_RTOL * max |A|.
SYMMETRY_RTOL = 1e-10

# Ladder tries base * 10**k for k = 0..JITTER_LADDER_STEPS inclusive.
JITTER_LADDER_STEPS = 6

# Rows per diagonal block of the triangular solve.
_SOLVE_BLOCK = 32


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with the diagonal jitter that produced it.

    Satisfies L @ L.T = A + jitter_used * I for the input matrix A.
    """

    lower: np.ndarray
    jitter_used: float


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
    lower-triangular matrix; b may be a vector or a matrix and is not modified.

    Raises DimensionMismatch if b's leading dimension is not lower's order,
    NonFiniteMatrix if either operand has NaN or infinite entries, and
    np.linalg.LinAlgError if lower has a zero on its diagonal.
    """
    lower = np.asarray(lower, dtype=np.float64)
    n = lower.shape[0] if lower.ndim == 2 else -1
    if lower.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got shape {lower.shape}")
    if trans not in ("N", "T"):
        raise ValueError(f"trans must be 'N' or 'T', got {trans!r}")
    x = np.array(b, dtype=np.float64, order="C")  # a copy: solved in place
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise DimensionMismatch(f"matrix is {n}x{n}, rhs has shape {x.shape}")
    if not (np.isfinite(lower).all() and np.isfinite(x).all()):
        raise NonFiniteMatrix("triangular solve operand has non-finite entries")
    diag = np.diagonal(lower)
    if not diag.all():
        i = int(np.flatnonzero(diag == 0.0)[0])
        raise np.linalg.LinAlgError(f"singular matrix: zero diagonal entry at {i}")
    rows = x if x.ndim == 2 else x[:, None]  # a view: solving rows solves x
    starts = range(0, n, _SOLVE_BLOCK)
    if trans == "N":
        for s in starts:
            e = min(s + _SOLVE_BLOCK, n)
            rows[s:e] -= lower[s:e, :s] @ rows[:s]
            for i in range(s, e):
                row = rows[i]
                row -= lower[i, s:i] @ rows[s:i]
                row /= diag[i]
    else:
        upper = lower.T
        for s in reversed(starts):
            e = min(s + _SOLVE_BLOCK, n)
            rows[s:e] -= upper[s:e, e:] @ rows[e:]
            for i in range(e - 1, s - 1, -1):
                row = rows[i]
                row -= upper[i, i + 1:e] @ rows[i + 1:e]
                row /= diag[i]
    return x


def solve_lower_triangular(l: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve l.lower @ x = b by forward substitution; b may be a vector or matrix."""
    return solve_triangular(l.lower, b)


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
