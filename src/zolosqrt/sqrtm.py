"""Coupled iterations for the principal matrix square root.

The driver scales A by a power-iteration estimate of its spectral
radius, factors the scaled A once to check it is nonsingular, and runs
one of three methods. zolo_step is the one partial-fraction step,
Y' = Y h(Z Y), Z' = h(Z Y) Z, with h's coefficients taken at alpha_k;
pade_step is determinantal scaling (in its early steps) followed by
zolo_step at alpha = 1. Denman-Beavers is the third method. Only the
minimax method reads alpha, from the exact extreme eigenvalue moduli;
the comparators run and report alpha = 1. States carry Y_k -> A^{1/2}
and Z_k -> A^{-1/2} (for Denman-Beavers the pair (X_k, Y_k) lives in
the same two slots). On real input every iterate is real, and every
method runs in float64; X and Xinv are returned as complex128.

A solve holds the OpenBLAS builds of numpy and scipy at one thread.
From order _POOL_MIN_N up, on two or more usable cores, the independent
BLAS-3 calls of a solve run on a process-wide pool of one thread per
core, while the calling thread waits: the m factor-and-invert tasks of a
step and then its two products Y h and h Z, the two factorizations of
determinantal scaling, and the two inverses of a Denman-Beavers step.
No call is split: OpenBLAS 0.3.31's float64 gemm gives a row other bits
in a block of rows of another height, at many orders that are not
multiples of 8. The partial-fraction reduction sums in shift order as
results arrive, so the bits do not depend on the number of workers.
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
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np
import scipy

from .linalg import (
    DenseMatrix,
    LUFactors,
    SingularMatrixError,
    dense,
    extreme_eigen_moduli,
    inverse,
    lu_factor,
    matmul,
    norm,
    spectral_radius_estimate,
)
from .zolofuncs import _check_type, _form_for, _is_int, advance_alpha
# bound only so that the benchmark's tracer can rebind it
from .zolofuncs import pade_partial_fraction  # noqa: F401

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
        if not _is_int(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter={self.max_iter!r} must be a positive integer")
        # numpy integers solve as the Python ints they equal
        self.m, self.ell, self.max_iter = int(self.m), int(self.ell), int(self.max_iter)


@dataclass(frozen=True)
class IterationState:
    """One iterate of a coupled method.

    ``zy_gap`` is the one step byproduct: the norm of the tilde-normalized
    Z_k Y_k - I that a partial-fraction step forms. A Denman-Beavers step
    leaves it at inf.
    """

    Y: DenseMatrix
    Z: DenseMatrix
    alpha_k: float
    k: int
    zy_gap: float = math.inf


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome summary: histories are aligned with iterations 1..K."""

    iterations: int
    reason: str  # criterion_satisfied (the one bound met) | max_iter
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
    clamp(sqrt(|lambda|_min / |lambda|_max)) from the eigenvalues of
    A_scaled, which has the same bits for A and 4^e A. Only an exact zero
    (s, or an eigenvalue modulus) raises here; whether A is singular is
    the flag of the driver's factor of A_scaled to decide.
    """
    A = np.asarray(A, dtype=complex)
    s = spectral_radius_estimate(A)
    if s <= 0.0:
        raise SingularMatrixError("spectral radius estimate is zero")
    A_scaled = A / s
    if opts.method != "zolotarev":
        alpha = 1.0
    elif opts.alpha_override is not None:
        alpha = float(opts.alpha_override)
    else:
        ext = extreme_eigen_moduli(A_scaled)
        alpha = min(max(math.sqrt(ext.lo / ext.hi), _ALPHA_CLAMP[0]), _ALPHA_CLAMP[1])
    return A_scaled, s, alpha


# Below this order handing calls to the pool costs more than running them
# side by side saves. Rounds of Z-(8,8), Z-(1,0), P-(8,8) and DB on one
# SPD and one nonnormal input, one BLAS thread, 2-core VM, 30 alternating
# rounds (README.md has the table): the pool took 1.49x serial's median
# time at n = 64, 1.07x at 96 and 0.99x at 128, a tie (16 of 30 rounds
# faster); from 160 on it was at most 0.89x, and faster in 25 of 30
# rounds or more.
_POOL_MIN_N = 160


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
    global _pool
    with _lock:
        if _pool is None or _pool[0] != _WORKERS:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (_WORKERS, ThreadPoolExecutor(max_workers=_WORKERS,
                                                  thread_name_prefix="zolosqrt"))
        return _pool[1]


def _schedule(fn, count: int, n: int):
    """Yield fn(0), ..., fn(count - 1) in index order.

    When the order n is pooled, the calls run under one BLAS thread on the
    pool's _WORKERS threads, submitted in index order with at most
    _WORKERS + 1 not yet handed on, so few results wait in memory. The
    calling thread only waits, so the pooled calls of concurrent solves
    share _WORKERS threads. Either way the lowest failing index raises,
    and no call is still running once this generator has finished.
    """
    if count < 2 or not _pooled(n):
        for j in range(count):
            yield fn(j)
        return
    with _one_blas_thread():
        pool = _executor()
        window = collections.deque()  # futures of the calls not yet handed on
        try:
            for j in range(count):
                window.append(pool.submit(fn, j))
                if len(window) > _WORKERS:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            for future in window:
                future.cancel()
            wait(window)


def _tilde_factor(alpha: float) -> float:
    return (1.0 + alpha) / (2.0 * alpha)


def _factor(M: DenseMatrix, what) -> LUFactors:
    """lu_factor(M), aborting the step on a singular factor; what() builds
    the abort message, so only a singular factor pays for it."""
    F = lu_factor(M)
    if F.singular:
        raise IterationAbortError(what())
    return F


def zolo_step(st: IterationState, m: int, ell: int) -> IterationState:
    """One coupled minimax step of type (m, ell): the partial-fraction
    update Y' = Y h(Z Y), Z' = h(Z Y) Z with
    h(z) = pf.scale * ([1 +] sum_j residues[j] / (z + shifts[j])) and pf
    taken at the state's alpha_k; at alpha_k = 1 that is the Pade limit.

    Forms P = Z Y and records the gap norm(t^2 P - I), with t the tilde
    factor. h(P) commutes with P, so it is built once, for every type:
    one pooled task per shift factors P + c_j I and inverts it, the
    residues are summed in shift order from 0, and Y h(P) and h(P) Z are
    two products, one task each (at a start state h(P) Z is c h(P)).
    """
    alpha, Y, Z = st.alpha_k, st.Y, st.Z
    pf = _form_for(m, ell, alpha)
    n = Y.shape[0]
    eye = np.eye(n, dtype=np.result_type(Y, Z))
    # k = 0 and Z exactly c*I, so Z Y = c*Y and h(P) Z = c*h(P): a product
    # by an exact scaled identity changes at most the sign of a zero
    c = Z[0, 0]
    start = st.k == 0 and c != 0 and np.count_nonzero(Z) == n and (Z.diagonal() == c).all()
    P = c * Y if start else matmul(Z, Y)
    zy_gap = norm(_tilde_factor(alpha) ** 2 * P - eye)

    def factor(j: int):
        return _factor(P + pf.shifts[j] * eye, lambda: f"singular shifted system at "
                       f"iteration {st.k + 1}, shift {j + 1} (c = {pf.shifts[j]:.6g})")

    H = 0
    for inv, r in zip(_schedule(lambda j: inverse(factor(j)), m, n), pf.residues,
                      strict=True):
        H = H + r * inv
    if pf.has_constant_term:
        H = eye + H
    H = pf.scale * H
    if start:
        y_new, z_new = matmul(Y, H), c * H
    else:
        y_new, z_new = _schedule(lambda i: matmul(*((Y, H), (H, Z))[i]), 2, n)
    return IterationState(Y=y_new, Z=z_new, alpha_k=advance_alpha(alpha, m, ell),
                          k=st.k + 1, zy_gap=zy_gap)


def _det_scale_factor(log_det_y: float, log_det_z: float, n: int) -> float:
    return math.exp(-(log_det_y + log_det_z) / (2.0 * n))


def pade_step(st: IterationState, m: int, ell: int,
              det_scaling: bool = False) -> IterationState:
    """One fixed-coefficient comparator step: optional determinantal
    scaling of Y and Z, then zolo_step at alpha = 1, whose coefficients
    are the Pade limit's and whose tilde factor is 1."""
    Y, Z = st.Y, st.Z
    if det_scaling:
        # the two factorizations are independent tasks
        FY, FZ = _schedule(lambda j: _factor((Y, Z)[j], lambda: f"singular iterate at "
                           f"iteration {st.k + 1} (determinant scaling)"), 2, Y.shape[0])
        g = _det_scale_factor(FY.det_log, FZ.det_log, Y.shape[0])
        Y, Z = g * Y, g * Z
    return zolo_step(replace(st, Y=Y, Z=Z, alpha_k=1.0), m, ell)


def db_step(st: IterationState, det_scaling: bool = False) -> IterationState:
    """One Denman-Beavers step: X' = (X + Y^{-1})/2, Y' = (Y + X^{-1})/2,
    with X in the Y slot and the companion iterate in the Z slot.
    Determinantal scaling rescales the pair before the averaging; the
    inverses are reused, so no extra factorization is needed. It records
    no byproduct: its stopping test reads the step changes alone."""
    X, Ydb = st.Y, st.Z
    n = X.shape[0]

    def factor_and_invert(j: int):
        F = _factor((X, Ydb)[j], lambda: f"singular iterate at iteration {st.k + 1}")
        return F, inverse(F)

    (FX, x_inv), (FY, y_inv) = _schedule(factor_and_invert, 2, n)
    g = _det_scale_factor(FX.det_log, FY.det_log, n) if det_scaling else 1.0
    ginv = 1.0 / g
    return IterationState(
        Y=0.5 * (g * X + ginv * y_inv),
        Z=0.5 * (g * Ydb + ginv * x_inv),
        alpha_k=1.0, k=st.k + 1,
    )


def normalized_iterates(st: IterationState):
    """Balanced (tilde) iterates: both fields scaled by (1+alpha_k)/(2 alpha_k)."""
    if not (0.0 < st.alpha_k <= 1.0):
        raise ValueError(f"alpha_k={st.alpha_k!r} outside (0, 1]")
    t = _tilde_factor(st.alpha_k)
    return t * st.Y, t * st.Z


def termination_check(st: IterationState, prev: IterationState,
                      opts: IterationOptions):
    """Decide {continue, accept} for the newly produced state.

    Returns (decision, change, rel): the step change
    norm(Yt_k - Yt_{k-1}), computed here once per iteration, and rel =
    change / norm(Yt_k), which the driver reads to switch determinantal
    scaling off. It reads st and prev and writes neither.

    A step of order q (q = m + ell + 1 for the partial-fraction methods,
    2 for Denman-Beavers) is accepted once its measure is at or below one
    bound, b = (delta/4)^(1/q) with delta = u sqrt(n). A partial-fraction
    step measures an eighth of the gap norm(Zt_{k-1} Yt_{k-1} - I) that
    st.zy_gap stores, so it accepts when gap <= 8b.
    Denman-Beavers measures the larger relative step change of its two
    iterates, and never accepts a zero one. A step's change is about the
    error of its input, which a Newton step squares and halves, so b
    leaves the output near delta/8, where 8b would allow 8 delta. X_k's
    change weighs the large eigenvalues and Y_k -> A^{-1/2} the small
    ones, which converge last: on moler(16), X_k's change alone accepts
    two steps early, with an Xinv 12.6 times less accurate.
    The bound is the only stop: a solve that never meets it runs
    opts.max_iter steps.
    """
    delta = _EPS * math.sqrt(st.Y.shape[0])
    db = opts.method == "denman_beavers"
    q = 2 if db else opts.m + opts.ell + 1

    yt = _tilde_factor(st.alpha_k) * st.Y
    change = norm(yt - _tilde_factor(prev.alpha_k) * prev.Y)
    size = norm(yt)
    rel = change / size if size > 0.0 else 0.0

    if db:
        # alpha_k = 1, so Z_k is its own tilde form; a zero iterate is never accepted
        z_size = norm(st.Z)
        measure = (max(rel, norm(st.Z - prev.Z) / z_size)
                   if size > 0.0 and z_size > 0.0 else math.inf)
    else:
        measure = st.zy_gap / 8.0
    if measure <= (delta / 4.0) ** (1.0 / q):
        return "accept", change, rel
    return "continue", change, rel


@_one_blas_thread()
def sqrtm_drive(A: DenseMatrix, opts: IterationOptions | None = None):
    """Compute X ~ A^{1/2} and Xinv ~ A^{-1/2} by the selected iteration.

    Returns (X, Xinv, report). The returned pair is tilde-normalized and
    unscaled back to the original A; the relative residual is measured
    once at exit in the inf-norm. When the scaled A is real, all from
    the factor of the scaled A on (the singularity check, iterates, exit
    residual) runs in float64; X and Xinv are complex128 either way.
    OpenBLAS runs on one thread for the whole call, and its previous
    thread counts are restored on return or raise.
    """
    if opts is None:
        opts = IterationOptions()
    A = dense(A)
    n = A.shape[0]
    A_scaled, s, alpha = prepare_problem(A, opts)
    sqrt_s = math.sqrt(s)
    # a quarter of the flops of complex arithmetic
    real = not np.any(A_scaled.imag)
    if real:
        A, A_scaled = A.real, A_scaled.real
    FA = lu_factor(A_scaled)
    if FA.singular:
        raise SingularMatrixError("sqrtm_drive requires nonsingular A")

    scaling_active = opts.method != "zolotarev"
    state = IterationState(Y=A_scaled.copy(), Z=np.eye(n, dtype=A_scaled.dtype),
                           alpha_k=alpha, k=0)
    alpha_hist, change_hist = [], []
    reason = "max_iter"

    for _ in range(opts.max_iter):
        prev = state
        if opts.method == "zolotarev":
            state = zolo_step(prev, opts.m, opts.ell)
        elif opts.method == "pade":
            state = pade_step(prev, opts.m, opts.ell, det_scaling=scaling_active)
        else:
            state = db_step(prev, det_scaling=scaling_active)
        decision, change, rel = termination_check(state, prev, opts)
        alpha_hist.append(state.alpha_k)
        change_hist.append(change)
        if scaling_active and rel < 1e-2:
            scaling_active = False
        if decision == "accept":
            reason = "criterion_satisfied"
            break

    y_t, z_t = normalized_iterates(state)
    X = sqrt_s * y_t
    Xinv = z_t / sqrt_s
    residual = norm(matmul(X, X) - A) / norm(A)
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
