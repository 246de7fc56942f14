"""Minimal dense linear algebra on numpy/scipy kernels.

dense() validates input into plain complex128 ndarrays. Pivoted LU and
its solves call LAPACK directly, dispatching on dtype: dgetrf/dgetrs
when every operand is float64, zgetrf/zgetrs otherwise (a real factor
solving a complex right-hand side is promoted to complex). Singularity
is a flag on the factor object, never an exception or warning, so
callers decide how hard to fail; it is the one test of "singular".
log|det A|, which cannot overflow, is computed from the factor on
access. Spectra: a power-iteration estimate of |lambda|_max, and the
exact extreme moduli from LAPACK's eigenvalues."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs

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
    "spectral_radius_estimate",
    "extreme_eigen_moduli",
]

DenseMatrix = np.ndarray

_REAL, _COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)


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
    """The extreme eigenvalue moduli |lambda|_min and |lambda|_max."""

    lo: float
    hi: float


def matmul(A: DenseMatrix, B: DenseMatrix) -> DenseMatrix:
    """C = A B for square matrices A and B of one order."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or B.shape != A.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B


def _work(B: np.ndarray, other: np.dtype = _REAL) -> np.ndarray:
    """B in the work dtype: float64 when B and the other operand's dtype
    are float64, else complex128."""
    return B if B.dtype == other == _REAL else B.astype(_COMPLEX, copy=False)


def lu_factor(A: DenseMatrix) -> LUFactors:
    """Partial-pivoted LU, in float64 for float64 A, else complex128. Never
    raises or warns for singular input; the factor carries a flag instead."""
    A = _work(np.asarray(A))
    n = A.shape[0]
    if not n:  # LAPACK rejects (and prints about) n = 0; empty factors are trivial
        return LUFactors(lu=A.copy(), piv=np.arange(0, dtype=np.int32), n=0, singular=False)
    lu, piv, info = (dgetrf if A.dtype == _REAL else zgetrf)(A)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf (lu_factor)")
    # fmin skips NaN pivots, which the old per-pivot comparisons never flagged either
    pivot = np.fmin.reduce(np.abs(lu.diagonal()))
    singular = bool(pivot <= n * _EPS * np.abs(A).sum(axis=1).max() or pivot == 0.0)
    return LUFactors(lu=lu, piv=piv, n=n, singular=singular)


def solve(F: LUFactors, B: DenseMatrix) -> DenseMatrix:
    """A^{-1} B from the factor F, in the work dtype of F and B."""
    if F.singular:
        raise SingularMatrixError("solve with a singular factor")
    B = _work(np.asarray(B), F.lu.dtype)
    if not F.n:
        return np.empty_like(B)
    getrs = dgetrs if B.dtype == _REAL else zgetrs
    # scipy's getrs shifts the pivots it is given to 1-based and back in
    # place, so threads sharing one factor each pass their own copy
    return getrs(F.lu.astype(B.dtype, copy=False), F.piv.copy(), B)[0]


def inverse(F: LUFactors) -> DenseMatrix:
    """A^{-1} = solve(F, I), in the dtype of F."""
    return solve(F, np.eye(F.n, dtype=F.lu.dtype))


def norm(A: DenseMatrix, kind: str = "inf") -> float:
    """Matrix norm: inf (max row sum), fro, max."""
    A = np.asarray(A)
    if kind == "inf":
        return float(np.abs(A).sum(axis=1).max()) if A.size else 0.0
    if kind == "fro":
        return float(np.linalg.norm(A, "fro"))
    if kind == "max":
        return float(np.abs(A).max()) if A.size else 0.0
    raise ValueError(f"unknown norm kind {kind!r}")


@functools.cache
def _power_start(n: int) -> np.ndarray:
    """The power loop's seeded unit start vector of order n, built once
    and read-only, since every call shares it."""
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    v.flags.writeable = False
    return v


def spectral_radius_estimate(A: DenseMatrix) -> float:
    """|lambda|_max estimate: complex power iteration from a seeded unit
    vector v, estimating by norm(A v_k). Relative tolerance 1e-3, at most
    200 iterations; whatever it reached is returned."""
    A = np.asarray(A, dtype=complex)
    v = _power_start(A.shape[0])
    est = 0.0
    for _ in range(200):
        w = A @ v
        # np.linalg.norm's own formula for a complex vector, without its wrapper
        nw = math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag))
        if nw == 0.0:
            break
        prev, est = est, nw
        if abs(est - prev) <= 1e-3 * est:
            break
        v = w / nw
    return est


def extreme_eigen_moduli(A: DenseMatrix) -> SpectralExtremes:
    """Exact (|lambda|_min, |lambda|_max): eigvalsh when A is exactly
    Hermitian (it reads one triangle), else eigvals, on the real part of
    real A. Raises only on an exact zero modulus; a tiny |lambda|_min is
    reported as it is, for lu_factor's flag alone decides "singular"."""
    A = np.asarray(A)
    if not np.any(A.imag):
        A = A.real
    eig = np.linalg.eigvalsh if np.array_equal(A, A.conj().T) else np.linalg.eigvals
    moduli = np.abs(eig(A))
    lo, hi = float(np.min(moduli)), float(np.max(moduli))
    if lo == 0.0:
        raise SingularMatrixError("extreme_eigen_moduli requires nonsingular A")
    return SpectralExtremes(lo=lo, hi=hi)
