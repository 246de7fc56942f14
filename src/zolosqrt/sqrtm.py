"""Coupled iterations for the principal matrix square root.

The driver scales A by a power-iteration estimate of its spectral
radius, factors the scaled A once (singularity check, and norm(A^{-1})
for Denman-Beavers), and runs one of three methods. The minimax
iteration and the Pade comparator share one partial-fraction update,
Y' = Y h(Z Y), Z' = h(Z Y) Z, with h's coefficients taken at alpha_k;
Pade is its alpha = 1 case, plus determinantal scaling in its early
steps. Denman-Beavers is the third method. Only the minimax method reads
alpha, from the exact extreme eigenvalue moduli; the comparators run and
report alpha = 1. States carry Y_k -> A^{1/2} and Z_k -> A^{-1/2} (for
Denman-Beavers the pair (X_k, Y_k) lives in the same two slots). On real
input every iterate is real, and all but Pade run in float64; Pade stays
in complex128 for its A1/P-(1,0) cell of acceptance 7b. Every method
returns complex128.

A solve holds the OpenBLAS builds of numpy and scipy at one thread.
From order _POOL_MIN_N up, on two or more usable cores, the independent
BLAS-3 calls of a solve run on one scheduler, whose workers are a
process-wide thread pool and the calling thread: the m shifted systems
of a step (or the two solves of a single one), the two factorizations of
determinantal scaling, the two inverses of a Denman-Beavers step, and
the halves of its A^{-1}, by columns, and of every product, by rows of
its left operand, since a solve treats each column and a product each
row on its own. Only the LU of A stays serial. The partial-fraction
reduction sums in shift order as results arrive, so the bits do not
depend on the number of workers.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy

from .linalg import (
    DenseMatrix,
    SingularMatrixError,
    dense,
    extreme_eigen_moduli,
    inverse,
    lu_factor,
    matmul,
    norm,
    spectral_radius_estimate,
)
from . import linalg as _la
from .zolofuncs import (ZoloParams, _check_type, _form_for, advance_alpha,
                        pade_partial_fraction)

_EPS = 2.0 ** -53

_METHODS = ("zolotarev", "pade", "denman_beavers")

__all__ = [
    "IterationAbortError",
    "IterationOptions",
    "IterationState",
    "ConvergenceReport",
    "prepare_problem",
    "zolo_step",
    "pade_step",
    "db_step",
    "termination_check",
    "normalized_iterates",
    "sqrtm_drive",
]


class IterationAbortError(RuntimeError):
    """A shifted system or iterate was singular; the iteration cannot proceed."""


@dataclass
class IterationOptions:
    """Method selection and iteration limits for sqrtm_drive.

    alpha_override replaces the minimax method's computed alpha; the
    comparators run at alpha = 1 and reject it. The rest is fixed policy:
    the termination tolerance is delta = u*sqrt(n); every norm is the
    inf-norm; the comparators apply determinantal scaling until the
    relative change falls below 1e-2; the minimax method never does,
    since its alpha schedule scales it.
    """

    method: str = "zolotarev"
    m: int = 8
    ell: int = 8
    alpha_override: float | None = None
    # one value left; the benchmark's workloads still pass form="full"
    form: str = "full"
    max_iter: int = 20

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        _check_type(self.m, self.ell)
        if self.form != "full":
            raise ValueError(f"form must be 'full', got {self.form!r}")
        if self.alpha_override is not None and self.method != "zolotarev":
            raise ValueError("alpha_override is for the minimax method only; "
                             f"{self.method!r} iterates at alpha = 1")
        # from the floor that computed alphas are clamped to, up to the Pade
        # limit 1; NaN fails the comparison
        if self.alpha_override is not None and not (
                _ALPHA_CLAMP[0] <= self.alpha_override <= 1.0):
            raise ValueError(f"alpha_override={self.alpha_override!r} outside "
                             f"[{_ALPHA_CLAMP[0]:g}, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class IterationState:
    """One iterate of a coupled method.

    ``prev_change`` is the relative change that produced this state,
    set by termination_check (inf before the first step); ``diag``
    carries step byproducts: "zy_gap" = norm of the tilde-normalized
    Z_k Y_k - I formed by a partial-fraction step, "z_inv_norm" = norm of
    the Y_k^{-1} that a Denman-Beavers step inverted, and "change" = the
    step change recorded by termination_check.
    """

    Y: DenseMatrix
    Z: DenseMatrix
    alpha_k: float
    k: int
    prev_change: float = math.inf
    diag: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome summary: histories are aligned with iterations 1..K."""

    iterations: int
    reason: str  # criterion_satisfied | stagnation | max_iter
    alpha_history: tuple[float, ...]
    change_history: tuple[float, ...]
    residual: float
    scale: float
    alpha: float


_ALPHA_CLAMP = (1e-12, 1.0 - 1e-8)


def prepare_problem(A: DenseMatrix, opts: IterationOptions):
    """Scale A to unit estimated spectral radius and pick alpha.

    Returns (A_scaled, s, alpha) with s the power-iteration estimate of
    |lambda|_max. The comparators get alpha = 1, the value they run at;
    the minimax method gets opts.alpha_override verbatim, else
    clamp(sqrt(|lambda|_min / |lambda|_max)) from the eigenvalues. A
    singular A raises here when s or |lambda|_min shows it, else in the
    driver, which checks its factor of A_scaled.
    """
    A = np.asarray(A, dtype=complex)
    s = spectral_radius_estimate(A)
    if s <= 0.0:
        raise SingularMatrixError("spectral radius estimate is zero")
    if opts.method != "zolotarev":
        alpha = 1.0
    elif opts.alpha_override is not None:
        alpha = float(opts.alpha_override)
    else:
        ext = extreme_eigen_moduli(A)
        alpha = min(max(math.sqrt(ext.lo / ext.hi), _ALPHA_CLAMP[0]), _ALPHA_CLAMP[1])
    return A / s, s, alpha


# Below this order the scheduler's hand-off costs about what running
# calls side by side saves. Median solves at one BLAS thread, 2-core VM,
# pooled against serial (README.md has the table): over the five methods
# of the benchmark sweep, +22% at n = 32 and -8% at 48, where Z-(1,0),
# all halves, still loses 23%; from 64 on every method is faster or
# within noise, and the five together 21% faster.
_POOL_MIN_N = 64


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


_WORKERS = _usable_cores()

# Process-wide state, rebuilt in a forked child: the pool as
# (workers, executor), and the one-BLAS-thread hold as its nesting depth
# and the thread counts found when the outermost hold began.
_lock = threading.Lock()
_pool: tuple[int, ThreadPoolExecutor] | None = None
_hold_depth = 0
_hold_saved: tuple[int, ...] = ()


def _reset_after_fork() -> None:
    # the parent's pool threads and lock holders do not exist in the child
    global _lock, _pool, _hold_depth
    _lock = threading.Lock()
    _pool = None
    _hold_depth = 0


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_reset_after_fork)


@functools.cache
def _blas_thread_controls():
    """(get, set) thread-count entry points of the OpenBLAS builds that
    numpy and scipy load, or None when either cannot be found."""
    controls = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                            f"{pkg.__name__}.libs", "*openblas*")
        for path in glob.glob(libs):
            try:
                lib = ctypes.CDLL(path)
                get = lib[f"scipy_openblas_get_num_threads{suffix}"]
                set_ = lib[f"scipy_openblas_set_num_threads{suffix}"]
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
        else:
            return None
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS at one thread. Holds nest and may overlap
    across threads; the last to end restores the counts the first found."""
    global _hold_depth, _hold_saved
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    with _lock:
        if _hold_depth == 0:
            _hold_saved = tuple(get() for get, _ in controls)
            for _, set_ in controls:
                set_(1)
        _hold_depth += 1
    try:
        yield
    finally:
        with _lock:
            _hold_depth -= 1
            if _hold_depth == 0:
                for (_, set_), count in zip(controls, _hold_saved):
                    set_(count)


def _pooled(n: int) -> bool:
    """Whether the work of a solve of order n runs on the pool."""
    return n >= _POOL_MIN_N and _WORKERS >= 2 and _blas_thread_controls() is not None


def _executor() -> ThreadPoolExecutor:
    # the calling thread is the last of the _WORKERS workers
    global _pool
    with _lock:
        if _pool is None or _pool[0] != _WORKERS:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (_WORKERS, ThreadPoolExecutor(max_workers=_WORKERS - 1,
                                                  thread_name_prefix="zolosqrt"))
        return _pool[1]


def _schedule(fn, count: int, n: int):
    """Yield fn(0), ..., fn(count - 1) in index order.

    When the order n is pooled, the calls run under one BLAS thread on
    _WORKERS threads: the pool's _WORKERS - 1, which take calls in index
    order, and the calling thread, which runs the first call no pool
    thread has started whenever the result it must hand on next is not
    ready. At most _WORKERS + 1 calls are submitted and not yet handed
    on, so few results wait in memory. Either way the lowest failing index
    raises, and no call is still running once this generator has
    finished.
    """
    if count < 2 or not _pooled(n):
        for j in range(count):
            yield fn(j)
        return
    with _one_blas_thread():
        pool = _executor()
        window = collections.deque()  # futures of calls first, first + 1, ...
        submitted = 0
        try:
            for first in range(count):
                while submitted < count and len(window) <= _WORKERS:
                    window.append(pool.submit(fn, submitted))
                    submitted += 1
                while not window[0].done() and _run_unstarted(window, fn, first):
                    pass
                yield window.popleft().result()
        finally:
            for future in window:
                future.cancel()
            wait(window)


def _run_unstarted(window, fn, first: int) -> bool:
    """Run on the calling thread the first call in window (call first + i
    at position i) that no pool thread has started, leaving its outcome
    in its place; False when every call has started."""
    for i, future in enumerate(window):
        if future.cancel():
            done = Future()
            try:
                done.set_result(fn(first + i))
            except Exception as exc:
                done.set_exception(exc)
            window[i] = done
            return True
    return False


def _in_halves(fill, n: int) -> None:
    """fill(slice(0, n // 2)) and fill(slice(n // 2, n)) on the scheduler."""
    cuts = (0, n // 2, n)
    for _ in _schedule(lambda i: fill(slice(cuts[i], cuts[i + 1])), 2, n):
        pass


def _inverse(F) -> DenseMatrix:
    """inverse(F); when pooled, two solves against the column halves of
    the identity. getrs solves each column on its own, so the halves give
    the whole call's bits, and the result keeps its column-major layout,
    which the row sums of norm read in a fixed order."""
    n = F.n
    if F.singular or not _pooled(n):
        return inverse(F)
    eye = np.eye(n, dtype=F.lu.dtype)
    W = np.empty((n, n), dtype=F.lu.dtype, order="F")

    def half(cols):
        W[:, cols] = _la.solve(F, eye[:, cols])

    _in_halves(half, n)
    return W


def _matmul(A: DenseMatrix, B: DenseMatrix) -> DenseMatrix:
    """matmul(A, B); when pooled, two products of the row halves of A.
    A row of the product depends on that row of A alone, and gemm sums
    each entry in the same order for any number of rows, so the halves
    give the whole product's bits (column halves of B did not, at some
    odd orders)."""
    n = A.shape[0]
    if not _pooled(n):
        return matmul(A, B)
    C = np.empty((n, B.shape[1]), dtype=np.result_type(A, B))

    def half(rows):
        C[rows] = matmul(A[rows], B)

    _in_halves(half, n)
    return C


def _reduce(residues, pairs):
    """(sum_j residues[j] * a_j, sum_j residues[j] * b_j) over the pairs
    (a_j, b_j), summed in shift order from 0 as the builtin sum does."""
    y = z = 0
    for (a, b), r in zip(pairs, residues, strict=True):
        y = y + r * a
        z = z + r * b
    return y, z


def _tilde_factor(alpha: float) -> float:
    return (1.0 + alpha) / (2.0 * alpha)


def _pf_update(Y, Z, pf, t: float, k: int, z_eye: float | None = None):
    """The partial-fraction update Y' = Y h(Z Y), Z' = h(Z Y) Z with
    h(z) = pf.scale * ([1 +] sum_j residues[j] / (z + shifts[j])).

    Factors Z Y + c_j I and records the gap norm(t^2 Z Y - I) with t the
    tilde factor. k indexes the state being advanced.

    z_eye, when given, says Z = z_eye * I exactly, as in the driver's start
    state: Z Y is then formed as z_eye * Y. A product by an exact scaled
    identity changes at most the sign of a zero, so the values are those
    of the product.

    The m shifted systems are independent and run on the scheduler, one
    task each; a single system splits into its two solves instead.
    """
    shifts, residues = pf.shifts, pf.residues
    m, n = len(shifts), Y.shape[0]
    eye = np.eye(n, dtype=np.result_type(Y, Z))
    P = _matmul(Z, Y) if z_eye is None else z_eye * Y
    diag = {"zy_gap": norm(t ** 2 * P - eye)}

    def factor(j: int):
        F = lu_factor(P + shifts[j] * eye)
        if F.singular:
            raise IterationAbortError(
                f"singular shifted system at iteration {k + 1}, "
                f"shift {j + 1} (c = {shifts[j]:.6g})"
            )
        return F

    def right(F):
        return _la.solve(F, Y, side="right")

    def other(F):
        return _la.solve(F, Z, side="left")

    def shifted_pair(j: int):
        F = factor(j)
        return right(F), other(F)

    if m == 1:
        F = factor(0)
        pairs = [tuple(_schedule(lambda i: (right, other)[i](F), 2, n))]
    else:
        pairs = _schedule(shifted_pair, m, n)
    y_new, z_new = _reduce(residues, pairs)
    if pf.has_constant_term:
        y_new = Y + y_new
        z_new = Z + z_new
    return pf.scale * y_new, pf.scale * z_new, diag


def _eye_start(st: IterationState) -> float | None:
    """1.0 when st is a start state (k = 0) whose Z is exactly I, else None."""
    if st.k == 0 and np.array_equal(st.Z, np.eye(st.Z.shape[0])):
        return 1.0
    return None


def zolo_step(st: IterationState, p: ZoloParams) -> IterationState:
    """One coupled minimax step of type (p.m, p.ell): the partial-fraction
    update with coefficients evaluated at the state's alpha_k.

    p fixes the type; once alpha_k has been clamped to 1 the Pade limit
    coefficients are substituted, so the step becomes pade_step without
    determinantal scaling. The tilde-normalized gap is its byproduct.
    """
    alpha = st.alpha_k
    Y, Z, diag = _pf_update(st.Y, st.Z, _form_for(p.m, p.ell, alpha),
                            _tilde_factor(alpha), st.k, _eye_start(st))
    return IterationState(Y=Y, Z=Z, alpha_k=advance_alpha(alpha, p.m, p.ell),
                          k=st.k + 1, diag=diag)


def _det_scale_factor(log_det_y: float, log_det_z: float, n: int) -> float:
    return math.exp(-(log_det_y + log_det_z) / (2.0 * n))


def pade_step(st: IterationState, m: int, ell: int,
              det_scaling: bool = False) -> IterationState:
    """One fixed-coefficient comparator step: the partial-fraction
    update at alpha = 1 (the Pade limit coefficients), optionally with
    determinantal scaling of Y and Z before the update."""
    Y, Z = st.Y, st.Z
    z_eye = _eye_start(st)
    if det_scaling:
        # the two factorizations are independent tasks
        FY, FZ = _schedule(lambda j: lu_factor((Y, Z)[j]), 2, Y.shape[0])
        if FY.singular or FZ.singular:
            raise IterationAbortError(
                f"singular iterate at iteration {st.k + 1} (determinant scaling)"
            )
        g = _det_scale_factor(FY.det_log, FZ.det_log, Y.shape[0])
        Y, Z = g * Y, g * Z
        if z_eye is not None:
            z_eye = g
    Y, Z, diag = _pf_update(Y, Z, pade_partial_fraction(m, ell), 1.0, st.k, z_eye)
    return IterationState(Y=Y, Z=Z, alpha_k=1.0, k=st.k + 1, diag=diag)


def db_step(st: IterationState, det_scaling: bool = False) -> IterationState:
    """One Denman-Beavers step: X' = (X + Y^{-1})/2, Y' = (Y + X^{-1})/2,
    with X in the Y slot and the companion iterate in the Z slot.
    Determinantal scaling rescales the pair before the averaging; the
    inverses are reused, so no extra factorization is needed."""
    X, Ydb = st.Y, st.Z
    n = X.shape[0]

    def factor_and_invert(j: int):
        F = lu_factor((X, Ydb)[j])
        return F, None if F.singular else inverse(F)

    (FX, x_inv), (FY, y_inv) = _schedule(factor_and_invert, 2, n)
    if FX.singular or FY.singular:
        raise IterationAbortError(f"singular iterate at iteration {st.k + 1}")
    diag = {"z_inv_norm": norm(y_inv)}
    g = _det_scale_factor(FX.det_log, FY.det_log, n) if det_scaling else 1.0
    ginv = 1.0 / g
    return IterationState(
        Y=0.5 * (g * X + ginv * y_inv),
        Z=0.5 * (g * Ydb + ginv * x_inv),
        alpha_k=1.0, k=st.k + 1, diag=diag,
    )


def normalized_iterates(st: IterationState):
    """Balanced (tilde) iterates: both fields scaled by (1+alpha_k)/(2 alpha_k)."""
    if not (0.0 < st.alpha_k <= 1.0):
        raise ValueError(f"alpha_k={st.alpha_k!r} outside (0, 1]")
    t = _tilde_factor(st.alpha_k)
    return t * st.Y, t * st.Z


def _uses_gap(opts: IterationOptions) -> bool:
    """Acceptance tests the stored Z Y - I gap (minimax, Pade), else the change."""
    return opts.method != "denman_beavers"


def termination_check(st: IterationState, prev: IterationState,
                      opts: IterationOptions, aux: dict) -> str:
    """Decide {continue, accept, stagnate} for the newly produced state.

    The step change norm(Yt_k - Yt_{k-1}) is computed here, once per
    iteration, and recorded on st: diag["change"] and, relative to
    norm(Yt_k), prev_change.

    Partial-fraction steps (minimax, pade) are accepted when the stored
    norm of Z_{k-1} Y_{k-1} - I (tilde-normalized) is at or below
    8 (delta/4)^(1/q); Denman-Beavers steps when norm(Yt_k - Yt_{k-1}) is
    at or below
    (delta norm(Yt_k) / (norm(A^{-1}) norm(Zt_{k-1}^{-1})))^(1/q),
    with delta = u sqrt(n). Stagnation fires when the relative change
    fails to halve while both the current and the previous relative
    change sit at or below 1e-2; requiring the previous change to be
    small as well keeps the window from opening on the very step that
    first crosses 1e-2, where mid phase contraction ratios routinely
    exceed 1/2 long before the iteration stalls. It needs prev.prev_change (the change at k-1, set
    by the check on prev) and is therefore inactive before k = 2.
    aux supplies norm(A^{-1}) as "a_inv_norm"; the raw norm(Z_{k-1}^{-1})
    is the "z_inv_norm" the step stored in st.diag.
    """
    delta = _EPS * math.sqrt(st.Y.shape[0])
    q = 2 if opts.method == "denman_beavers" else opts.m + opts.ell + 1

    yt = _tilde_factor(st.alpha_k) * st.Y
    change = norm(yt - _tilde_factor(prev.alpha_k) * prev.Y)
    size = norm(yt)
    st.diag["change"] = change
    st.prev_change = change / size if size > 0.0 else 0.0

    if _uses_gap(opts):
        gap = st.diag.get("zy_gap")
        if gap is not None and gap <= 8.0 * (delta / 4.0) ** (1.0 / q):
            return "accept"
    else:
        z_inv = st.diag.get("z_inv_norm")
        a_inv = aux.get("a_inv_norm")
        if z_inv is not None and a_inv is not None:
            zt_inv = z_inv / _tilde_factor(prev.alpha_k)
            bound = (delta * size / (a_inv * zt_inv)) ** (1.0 / q)
            if change <= bound:
                return "accept"

    rel, rel_prev = st.prev_change, prev.prev_change
    if size > 0.0 and rel_prev <= 1e-2 and 0.5 * rel_prev <= rel <= 1e-2:
        return "stagnate"
    return "continue"


@_one_blas_thread()
def sqrtm_drive(A: DenseMatrix, opts: IterationOptions | None = None):
    """Compute X ~ A^{1/2} and Xinv ~ A^{-1/2} by the selected iteration.

    Returns (X, Xinv, report). The returned pair is tilde-normalized and
    unscaled back to the original A; the relative residual is measured
    once at exit in the inf-norm. When the scaled A is real and the
    method is not Pade, all from the factor of the scaled A on (the
    singularity check, Denman-Beavers' norm(A^{-1}), iterates, exit
    residual) runs in float64. Pade stays complex; X and Xinv are
    complex128 either way.
    OpenBLAS runs on one thread for the whole call, and its previous
    thread counts are restored on return or raise.
    """
    if opts is None:
        opts = IterationOptions()
    A = dense(A)
    n = A.shape[0]
    A_scaled, s, alpha = prepare_problem(A, opts)
    sqrt_s = math.sqrt(s)
    # a quarter of the flops; Pade's A1/P-(1,0) cell of acceptance 7b
    # reads 1.95 of its bound in float64 and 0.35 in complex
    real = opts.method != "pade" and not np.any(A_scaled.imag)
    if real:
        A, A_scaled = A.real, A_scaled.real
    FA = lu_factor(A_scaled)
    if FA.singular:
        raise SingularMatrixError("sqrtm_drive requires nonsingular A")

    aux = {"a_inv_norm": None if _uses_gap(opts) else norm(_inverse(FA))}

    if opts.method == "zolotarev":
        p = ZoloParams(opts.m, opts.ell, min(alpha, 1.0 - 1e-15))
    scaling_active = opts.method != "zolotarev"

    state = IterationState(Y=A_scaled.copy(), Z=np.eye(n, dtype=A_scaled.dtype),
                           alpha_k=alpha, k=0)
    alpha_hist: list[float] = []
    change_hist: list[float] = []
    reason = "max_iter"

    for _ in range(opts.max_iter):
        prev = state
        if opts.method == "zolotarev":
            state = zolo_step(prev, p)
        elif opts.method == "pade":
            state = pade_step(prev, opts.m, opts.ell, det_scaling=scaling_active)
        else:
            state = db_step(prev, det_scaling=scaling_active)
        decision = termination_check(state, prev, opts, aux)
        alpha_hist.append(state.alpha_k)
        change_hist.append(state.diag["change"])
        if scaling_active and state.prev_change < 1e-2:
            scaling_active = False
            # The first unscaled step absorbs a one-time renormalization
            # jump, so its change is not comparable to det-scaled ones.
            state.prev_change = math.inf
        if decision == "accept":
            reason = "criterion_satisfied"
            break
        if decision == "stagnate":
            reason = "stagnation"
            break

    y_t, z_t = normalized_iterates(state)
    X = sqrt_s * y_t
    Xinv = z_t / sqrt_s
    residual = norm(_matmul(X, X) - A) / norm(A)
    if real:
        X, Xinv = X.astype(complex), Xinv.astype(complex)
    report = ConvergenceReport(
        iterations=state.k,
        reason=reason,
        alpha_history=tuple(alpha_hist),
        change_history=tuple(change_hist),
        residual=residual,
        scale=s,
        alpha=alpha,
    )
    return X, Xinv, report
