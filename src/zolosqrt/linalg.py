"""Minimal dense complex linear algebra on numpy/scipy kernels.

Matrices are plain complex128 ndarrays validated by dense(). Pivoted LU
and its solves call LAPACK zgetrf/zgetrs directly; singularity is a flag
on the factor object, never an exception or warning, so callers decide
how hard to fail. log|det A|, which cannot overflow, is computed from
the factor on access."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import zgetrf as _getrf, zgetrs as _getrs

_EPS = 2.0 ** -53
_POWER_SEED = 0x5EED5EED

__all__ = [
    "SingularMatrixError",
    "DenseMatrix",
    "LUFactors",
    "SpectralExtremes",
    "dense",
    "matmul",
    "lu_factor",
    "solve",
    "inverse",
    "norm",
    "extreme_eigen_moduli",
]

DenseMatrix = np.ndarray


class SingularMatrixError(ValueError):
    """A solve/inverse/determinant was requested on a singular factor."""


def dense(entries) -> DenseMatrix:
    """Validate and return a square complex128 matrix (row-major).

    Rejects non-square shapes and any NaN/Inf entry.
    """
    a = np.ascontiguousarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class LUFactors:
    """Combined LU storage with pivots.

    ``singular`` is set when some pivot magnitude falls below
    n*u*norm(A, inf); solve and inverse refuse flagged factors.
    ``det_log`` is log|det A| (-inf on a zero pivot), computed on access.
    """

    lu: np.ndarray
    piv: np.ndarray
    n: int
    singular: bool

    @property
    def det_log(self) -> float:
        absdiag = np.abs(np.diagonal(self.lu))
        return -math.inf if np.any(absdiag == 0.0) else float(np.sum(np.log(absdiag)))


class SpectralExtremes(NamedTuple):
    """Estimates of the extreme eigenvalue moduli with convergence flags."""

    lo: float
    hi: float
    lo_converged: bool
    hi_converged: bool


def matmul(A: DenseMatrix, B: DenseMatrix) -> DenseMatrix:
    """C = A B for equal-dimension square matrices."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B


def lu_factor(A: DenseMatrix) -> LUFactors:
    """Partial-pivoted LU. Never raises or warns for singular input; the
    returned factor carries a singularity flag instead."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    # LAPACK rejects (and prints about) n = 0; empty factors and solves are trivial
    lu, piv, info = _getrf(A) if n else (A.copy(), np.arange(0, dtype=np.int32), 0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf (lu_factor)")
    absdiag = np.abs(np.diagonal(lu))
    a_inf = float(np.max(np.sum(np.abs(A), axis=1))) if n else 0.0
    singular = bool(np.any(absdiag <= n * _EPS * a_inf) or np.any(absdiag == 0.0))
    return LUFactors(lu=lu, piv=piv, n=n, singular=singular)


def _lu_solve(F: LUFactors, B: np.ndarray, trans: int = 0) -> np.ndarray:
    return _getrs(F.lu, F.piv, B, trans=trans)[0] if F.n else np.empty_like(B)


def solve(F: LUFactors, B: DenseMatrix, side: str = "left") -> DenseMatrix:
    """A^{-1} B (side="left") or B A^{-1} (side="right") from the factor F.

    The right solve runs through A^T X^T = B^T (plain transpose), so A is
    never inverted explicitly.
    """
    if F.singular:
        raise SingularMatrixError("solve with a singular factor")
    B = np.asarray(B, dtype=complex)
    if side == "left":
        return _lu_solve(F, B)
    if side == "right":
        return np.ascontiguousarray(_lu_solve(F, B.T, trans=1).T)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def inverse(F: LUFactors) -> DenseMatrix:
    """A^{-1} by solving against the identity."""
    if F.singular:
        raise SingularMatrixError("inverse of a singular factor")
    return solve(F, np.eye(F.n, dtype=complex), side="left")


def norm(A: DenseMatrix, kind: str = "inf") -> float:
    """Matrix norm: inf (max row sum), fro, max."""
    A = np.asarray(A)
    if kind == "inf":
        return float(np.max(np.sum(np.abs(A), axis=1))) if A.size else 0.0
    if kind == "fro":
        return float(np.linalg.norm(A, "fro"))
    if kind == "max":
        return float(np.max(np.abs(A))) if A.size else 0.0
    raise ValueError(f"unknown norm kind {kind!r}")


def _seed_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _power_estimate(apply, v: np.ndarray) -> tuple[float, bool]:
    """(estimate, converged): power iteration of the map apply from the
    unit vector v, estimating its dominant eigenvalue modulus by
    norm(apply(v_k)). Relative tolerance 1e-3, at most 200 iterations."""
    est = 0.0
    for _ in range(200):
        w = apply(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        prev, est = est, nw
        if abs(est - prev) <= 1e-3 * est:
            return est, True
        v = w / nw
    return est, False


def extreme_eigen_moduli(A: DenseMatrix) -> SpectralExtremes:
    """(|lambda|_min, |lambda|_max) estimates: power iteration for the
    dominant modulus, inverse power iteration through an LU factor for
    the smallest. Results carry convergence flags. Raises for singular A."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    rng = np.random.default_rng(_POWER_SEED)
    hi, hi_converged = _power_estimate(lambda v: A @ v, _seed_vector(n, rng))
    F = lu_factor(A)
    if F.singular:
        raise SingularMatrixError("extreme_eigen_moduli requires nonsingular A")
    inv_est, lo_converged = _power_estimate(lambda v: _lu_solve(F, v),
                                            _seed_vector(n, rng))
    lo = 1.0 / inv_est if inv_est > 0.0 else math.inf
    return SpectralExtremes(lo=lo, hi=hi, lo_converged=lo_converged,
                            hi_converged=hi_converged)
