"""Test matrices, accuracy metrics, and the benchmark suite runner.

Generators cover a rank-one perturbation of the identity with a known
square root, the moler and chebvand matrices from their closed-form
definitions, and seeded SPD matrices with log-uniform spectrum on
[alpha^2, 1]. A hand-rolled cyclic Jacobi eigensolver provides the
Hermitian reference square root so no external eigensolver is needed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .linalg import dense, DenseMatrix, matmul, norm
from .sqrtm import ConvergenceReport, IterationOptions, sqrtm_drive

_EPS = 2.0 ** -53
_KAPPA_SQRT_MAX_N = 32
_JACOBI_MAX_SWEEPS = 60

__all__ = [
    "TestCase",
    "MetricSet",
    "SuiteRow",
    "gen_rank_one",
    "gen_moler",
    "gen_chebvand",
    "gen_spd_logspectrum",
    "is_hermitian",
    "reference_sqrt_hermitian",
    "compute_metrics",
    "run_suite",
    "emit_csv",
    "method_label",
    "select_methods",
    "bench_cases",
    "bench_methods",
]


@dataclass(frozen=True)
class TestCase:
    """A named matrix, its Hermitian-ness, and an optional reference root."""

    name: str
    matrix: DenseMatrix
    hermitian_flag: bool
    reference: DenseMatrix | None = None


@dataclass(frozen=True)
class MetricSet:
    """Accuracy and conditioning numbers for one computed square root."""

    alpha_inf: float
    kappa_sqrt: float | None
    kappa2_sqrt: float
    rel_error: float | None
    rel_residual: float
    iterations: int


@dataclass(frozen=True)
class SuiteRow:
    case: str
    method: str
    metrics: MetricSet | None
    error: str | None = None


def gen_rank_one(n: int) -> TestCase:
    """I + w v* with w = (1^2..n^2), v = (0^2..(n-1)^2); the square root is
    I + c w v* with c = (sqrt(1+s) - 1)/s, s = v* w."""
    if n < 2:
        raise ValueError("n must be >= 2")
    w = np.arange(1, n + 1, dtype=float) ** 2
    v = np.arange(0, n, dtype=float) ** 2
    outer = np.outer(w, v)
    A = np.eye(n) + outer
    s = float(v @ w)
    c = (math.sqrt(1.0 + s) - 1.0) / s
    ref = np.eye(n) + c * outer
    return TestCase("A1", dense(A), hermitian_flag=False, reference=dense(ref))


def gen_moler(n: int) -> TestCase:
    """Symmetric positive definite: A_ii = i, A_ij = min(i,j) - 2 off the
    diagonal (1-based); det(A) = 1 for every n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(1, n + 1, dtype=float)
    A = np.minimum.outer(idx, idx) - 2.0
    np.fill_diagonal(A, idx)
    A = dense(A)
    try:
        ref = reference_sqrt_hermitian(A)
    except ValueError:
        # the smallest eigenvalue decays like 4^-n; once it drops under
        # the round-off floor no eigensolver can certify positivity, so
        # the case ships without a reference (rel_error stays blank)
        ref = None
    return TestCase("moler", A, hermitian_flag=True, reference=ref)


def gen_chebvand(n: int) -> TestCase:
    """Chebyshev-Vandermonde matrix: C_ij = T_{i-1}(p_j) on the uniform
    points p_j = (j-1)/(n-1), built by the three-term recurrence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return TestCase("chebvand", dense(np.ones((1, 1))), hermitian_flag=False)
    pts = np.arange(n, dtype=float) / (n - 1)
    C = np.empty((n, n), dtype=float)
    C[0] = 1.0
    C[1] = pts
    for i in range(2, n):
        C[i] = 2.0 * pts * C[i - 1] - C[i - 2]
    return TestCase("chebvand", dense(C), hermitian_flag=False)


def gen_spd_logspectrum(n: int, alpha: float, seed: int) -> TestCase:
    """Seeded SPD matrix Q D Q^T whose eigenvalue logs are uniform in
    [2 log10(alpha), 0], with the endpoints alpha^2 and 1 always present."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    interior = 10.0 ** rng.uniform(2.0 * math.log10(alpha), 0.0, size=n - 2)
    d = np.sort(np.concatenate(([alpha ** 2], interior, [1.0])))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (q * d) @ q.T
    A = 0.5 * (A + A.T)
    ref = (q * np.sqrt(d)) @ q.T
    ref = 0.5 * (ref + ref.T)
    return TestCase(f"spdlog({alpha:g})", dense(A), hermitian_flag=True,
                    reference=dense(ref))


def _offdiag_fro(H: np.ndarray) -> float:
    # measured directly on a zero-diagonal copy: the difference of squared
    # norms cancels catastrophically once the off-diagonal mass is tiny
    off = H.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off, "fro"))


def is_hermitian(A: DenseMatrix) -> bool:
    """True when max|A - A^H| is at most 8u max|A| (False on NaN)."""
    return norm(A - A.conj().T, "max") <= 8.0 * _EPS * norm(A, "max")


def reference_sqrt_hermitian(A: DenseMatrix) -> DenseMatrix:
    """Square root of a Hermitian positive definite matrix via a cyclic
    Jacobi eigendecomposition (no library eigensolver).

    Sweeps run until the off-diagonal Frobenius mass is at or below
    n*u*norm(A, fro). Raises on visibly non-Hermitian input and on any
    nonpositive eigenvalue.
    """
    A = dense(A)
    n = A.shape[0]
    if not is_hermitian(A):
        raise ValueError("matrix is not Hermitian")
    H = 0.5 * (A + A.conj().T)
    V = np.eye(n, dtype=complex)
    fro = norm(H, "fro")
    tol = n * _EPS * fro
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _offdiag_fro(H) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = H[p, q]
                r = abs(beta)
                if r == 0.0:
                    continue
                phase = beta / r
                tau = (H[q, q].real - H[p, p].real) / (2.0 * r)
                t = math.copysign(1.0 / (abs(tau) + math.hypot(1.0, tau)), tau)
                cth = 1.0 / math.sqrt(1.0 + t * t)
                sth = t * cth
                e_m = np.conj(phase)
                # unitary plane transform: phase absorption then rotation
                hp = H[:, p].copy()
                hq = H[:, q].copy()
                H[:, p] = cth * hp - sth * e_m * hq
                H[:, q] = sth * hp + cth * e_m * hq
                hp = H[p, :].copy()
                hq = H[q, :].copy()
                H[p, :] = cth * hp - sth * phase * hq
                H[q, :] = sth * hp + cth * phase * hq
                H[p, q] = 0.0
                H[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = cth * vp - sth * e_m * vq
                V[:, q] = sth * vp + cth * e_m * vq
    else:
        raise RuntimeError("Jacobi sweep limit reached without convergence")
    eigs = H.diagonal().real
    if np.any(eigs <= 0.0):
        raise ValueError("matrix has a nonpositive eigenvalue; "
                         "not positive definite")
    X = (V * np.sqrt(eigs)) @ V.conj().T
    return 0.5 * (X + X.conj().T)


def compute_metrics(tc: TestCase, X: DenseMatrix,
                    report: ConvergenceReport) -> MetricSet:
    """Accuracy/conditioning metrics for a computed root X of tc.matrix.

    kappa2_sqrt is the exact 2-norm condition number of X, from its
    singular values. kappa_sqrt takes the smallest singular value of the
    Kronecker form of the Sylvester operator E -> XE + EX, an n^2 x n^2
    matrix, so it is only assembled for n <= 32 (None above).
    """
    A = tc.matrix
    n = A.shape[0]
    a_inf = norm(A, "inf")
    x_inf = norm(X, "inf")
    alpha_inf = x_inf ** 2 / a_inf

    kappa_sqrt = None
    if n <= _KAPPA_SQRT_MAX_N:
        K = np.kron(np.eye(n, dtype=complex), X) + np.kron(X.T, np.eye(n, dtype=complex))
        kappa_sqrt = norm(A, "fro") / (norm(X, "fro") * float(np.linalg.norm(K, -2)))

    kappa2_sqrt = float(np.linalg.cond(X))

    rel_error = None
    if tc.reference is not None:
        rel_error = norm(X - tc.reference, "inf") / norm(tc.reference, "inf")
    rel_residual = norm(matmul(X, X) - A, "inf") / a_inf
    return MetricSet(
        alpha_inf=alpha_inf,
        kappa_sqrt=kappa_sqrt,
        kappa2_sqrt=kappa2_sqrt,
        rel_error=rel_error,
        rel_residual=rel_residual,
        iterations=report.iterations,
    )


def method_label(opts: IterationOptions) -> str:
    if opts.method == "zolotarev":
        return f"Z-({opts.m},{opts.ell})"
    if opts.method == "pade":
        return f"P-({opts.m},{opts.ell})"
    return "DB"


def select_methods(methods, labels) -> list[IterationOptions]:
    """The methods named by labels, in label order; ValueError names any
    label that matches none of them."""
    by_label = {method_label(m): m for m in methods}
    unknown = [lab for lab in labels if lab not in by_label]
    if unknown:
        raise ValueError(
            f"unknown method label(s) {unknown}; choose from {sorted(by_label)}"
        )
    return [by_label[lab] for lab in labels]


def run_suite(cases, methods) -> list[SuiteRow]:
    """Run every method over every case; failures are recorded per cell
    and the sweep continues. Rows come out in (case, method) order."""
    cases = list(cases)
    methods = list(methods)
    if not cases or not methods:
        raise ValueError("cases and methods must be nonempty")
    rows: list[SuiteRow] = []
    for tc in cases:
        for opts in methods:
            label = method_label(opts)
            try:
                X, _, report = sqrtm_drive(tc.matrix, opts)
                metrics = compute_metrics(tc, X, report)
                rows.append(SuiteRow(tc.name, label, metrics))
            except Exception as exc:  # per-cell capture, suite continues
                rows.append(SuiteRow(tc.name, label, None, error=str(exc)))
    return rows


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.5e}"


def emit_csv(rows) -> str:
    """Benchmark table as CSV: 6-significant-digit scientific notation,
    empty cells where a metric is unavailable or the cell failed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", "method", "iterations", "rel_residual",
                     "rel_error", "alpha_inf", "kappa2"])
    for row in rows:
        m = row.metrics
        if m is None:
            writer.writerow([row.case, row.method, "", "", "", "", ""])
        else:
            writer.writerow([
                row.case, row.method, str(m.iterations),
                _fmt(m.rel_residual), _fmt(m.rel_error),
                _fmt(m.alpha_inf), _fmt(m.kappa2_sqrt),
            ])
    return buf.getvalue()


def bench_cases() -> list[TestCase]:
    """The built-in benchmark corpus."""
    return [
        gen_rank_one(16),
        gen_moler(16),
        gen_chebvand(16),
        gen_spd_logspectrum(16, 1e-2, seed=1),
        gen_spd_logspectrum(16, 1e-5, seed=2),
    ]


def bench_methods() -> list[IterationOptions]:
    """The benchmark method set: three minimax types, their
    fixed-coefficient counterparts, and Denman-Beavers."""
    pairs = [(1, 0), (4, 4), (8, 8)]
    methods = [IterationOptions(method="zolotarev", m=m, ell=ell)
               for m, ell in pairs]
    methods += [IterationOptions(method="pade", m=m, ell=ell)
                for m, ell in pairs]
    methods.append(IterationOptions(method="denman_beavers"))
    return methods
