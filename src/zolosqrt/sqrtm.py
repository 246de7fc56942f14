"""Coupled iterations for the principal matrix square root.

The driver scales the problem to unit spectral radius, picks the
interval parameter alpha from spectral-extreme estimates, and runs one
of three methods. The minimax iteration (full or alt form) and the Pade
comparator share one partial-fraction update, Y' = Y h(Z Y), Z' = h(Z Y) Z,
with h's coefficients taken at alpha_k; Pade is its alpha = 1 case, plus
optional determinantal scaling. Denman-Beavers is the third method.
States carry Y_k -> A^{1/2} and Z_k -> A^{-1/2} (for Denman-Beavers the
pair (X_k, Y_k) lives in the same two slots).

A solve holds the OpenBLAS builds of numpy and scipy at one thread.
From order _POOL_MIN_N up, on two or more usable cores, it runs the
independent factorizations of a step (the m shifted systems, or the two
Denman-Beavers inverses) on one process-wide thread pool instead. The
partial-fraction reduction sums in shift order as results arrive, so the
bits do not depend on the number of workers.
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
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
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
)
from . import linalg as _la
from .zolofuncs import ZoloParams, advance_alpha, pade_partial_fraction, _form_for

_EPS = 2.0 ** -53

_METHODS = ("zolotarev", "pade", "denman_beavers")
_FORMS = ("full", "alt")
_NORM_KINDS = ("one", "inf", "fro", "max")

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
    """Method selection and tolerances for sqrtm_drive.

    ``delta`` defaults to u*sqrt(n) when left as None. ``det_scaling``
    applies to the comparator methods only; None resolves to True for
    them and False for the minimax method, which scales through its
    alpha schedule instead.
    """

    method: str = "zolotarev"
    m: int = 8
    ell: int = 8
    alpha_override: float | None = None
    form: str = "alt"
    delta: float | None = None
    max_iter: int = 20
    det_scaling: bool | None = None
    norm_kind: str = "inf"

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.ell not in (self.m - 1, self.m) or self.m < 1:
            raise ValueError(f"(m, ell)=({self.m}, {self.ell}) invalid")
        if self.form not in _FORMS:
            raise ValueError(f"form must be 'full' or 'alt', got {self.form!r}")
        # from the floor that estimates are clamped to, up to the Pade
        # limit 1; NaN fails the comparison
        if self.alpha_override is not None and not (
                _ALPHA_CLAMP[0] <= self.alpha_override <= 1.0):
            raise ValueError(f"alpha_override={self.alpha_override!r} outside "
                             f"[{_ALPHA_CLAMP[0]:g}, 1]")
        if self.delta is not None and not (self.delta > 0.0):
            raise ValueError("delta must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.norm_kind not in _NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {_NORM_KINDS}")
        if self.det_scaling and self.method == "zolotarev":
            raise ValueError(
                "det_scaling applies to comparator methods only; the minimax "
                "iteration is scaled by its alpha schedule"
            )

    def resolved_det_scaling(self) -> bool:
        if self.det_scaling is None:
            return self.method in ("pade", "denman_beavers")
        return bool(self.det_scaling)


@dataclass
class IterationState:
    """One iterate of a coupled method.

    ``prev_change`` is the relative change that produced this state,
    set by termination_check (inf before the first step); ``diag``
    carries step byproducts: "zy_gap" = norm of the tilde-normalized
    Z_k Y_k - I formed by a full-form step, "z_inv_norm" = norm of the
    Z_k^{-1} (or Denman-Beavers Y_k^{-1}) that an alt-form step inverted,
    and "change" = the step change recorded by termination_check.
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


_ALPHA_FALLBACK = 1e-8
_ALPHA_CLAMP = (1e-12, 1.0 - 1e-8)


def prepare_problem(A: DenseMatrix, opts: IterationOptions):
    """Scale A to unit estimated spectral radius and pick alpha.

    Returns (A_scaled, s, alpha) with s the |lambda|_max estimate and
    alpha = clamp(sqrt(lo/hi)) unless opts.alpha_override is given, in
    which case the override is used verbatim. Estimation non-convergence
    is downgraded to a warning with the conservative fallback alpha.
    """
    A = np.asarray(A, dtype=complex)
    ext = extreme_eigen_moduli(A)
    s = ext.hi
    if s <= 0.0:
        raise SingularMatrixError("spectral radius estimate is zero")
    if opts.alpha_override is not None:
        alpha = float(opts.alpha_override)
    elif not (ext.lo_converged and ext.hi_converged):
        warnings.warn(
            "extreme-eigenvalue estimation did not converge; "
            f"falling back to alpha = {_ALPHA_FALLBACK:g}",
            RuntimeWarning,
            stacklevel=2,
        )
        alpha = _ALPHA_FALLBACK
    else:
        alpha = min(max(math.sqrt(ext.lo / ext.hi), _ALPHA_CLAMP[0]), _ALPHA_CLAMP[1])
    return A / s, s, alpha


# Below this order the pool's hand-off costs about what running the
# factorizations side by side saves. Median Z-(8,8) alt and full and DB
# solves at one BLAS thread, 2-core VM: the pool is 16-45% slower at
# n = 32, within noise either way at 64, and 15-25% faster from 96 on
# (ahead in every run from 112 on, also when serial solves come between).
_POOL_MIN_N = 96


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


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None or _pool[0] != _WORKERS:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (_WORKERS, ThreadPoolExecutor(max_workers=_WORKERS,
                                                  thread_name_prefix="zolosqrt"))
        return _pool[1]


def _map_shifts(fn, count: int, n: int):
    """Yield fn(0), ..., fn(count - 1) in index order.

    For order n >= _POOL_MIN_N, on two or more workers, the calls run
    under one BLAS thread: fn(0) on the calling thread, which would
    otherwise only wait, and the rest on the pool, each result handed on
    as it arrives. Either way the lowest failing index raises, and no
    call is still running once this generator has finished.
    """
    if count < 2 or n < _POOL_MIN_N or _WORKERS < 2 or _blas_thread_controls() is None:
        for j in range(count):
            yield fn(j)
        return
    with _one_blas_thread():
        pool = _executor()
        pending = collections.deque(pool.submit(fn, j) for j in range(1, count))
        try:
            yield fn(0)
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()
            wait(pending)


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


def _pf_update(Y, Z, pf, t: float, form: str, k: int, norm_kind: str):
    """The partial-fraction update Y' = Y h(Z Y), Z' = h(Z Y) Z with
    h(z) = pf.scale * ([1 +] sum_j residues[j] / (z + shifts[j])).

    The full form factors Z Y + c_j I and records the gap norm(t^2 Z Y - I)
    with t the tilde factor; the alt form factors Z once and Y + c_j Z^{-1},
    recording norm(Z^{-1}). k indexes the state being advanced.
    """
    shifts, residues = pf.shifts, pf.residues
    m, n = len(shifts), Y.shape[0]
    eye = np.eye(n, dtype=complex)
    diag: dict = {}

    def factor(M, j: int):
        F = lu_factor(M)
        if F.singular:
            raise IterationAbortError(
                f"singular shifted system at iteration {k + 1}, "
                f"shift {j + 1} (c = {shifts[j]:.6g})"
            )
        return F

    if form == "full":
        P = matmul(Z, Y)
        diag["zy_gap"] = norm(t ** 2 * P - eye, norm_kind)

        def shifted_pair(j: int):
            F = factor(P + shifts[j] * eye, j)
            return _la.solve(F, Y, side="right"), _la.solve(F, Z, side="left")

        y_new, z_new = _reduce(residues, _map_shifts(shifted_pair, m, n))
    else:
        FZ = lu_factor(Z)
        if FZ.singular:
            raise IterationAbortError(f"singular Z iterate at iteration {k + 1}")
        W = inverse(FZ)
        diag["z_inv_norm"] = norm(W, norm_kind)

        def shifted_pair(j: int):
            F = factor(Y + shifts[j] * W, j)
            return _la.solve(F, Y, side="right"), inverse(F)

        y_sum, z_new = _reduce(residues, _map_shifts(shifted_pair, m, n))
        y_new = matmul(y_sum, W)
    if pf.has_constant_term:
        y_new = Y + y_new
        z_new = Z + z_new
    return pf.scale * y_new, pf.scale * z_new, diag


def zolo_step(st: IterationState, p: ZoloParams, form: str = "alt", *,
              norm_kind: str = "inf") -> IterationState:
    """One coupled minimax step of type (p.m, p.ell): the partial-fraction
    update with coefficients evaluated at the state's alpha_k.

    p fixes the type; once alpha_k has been clamped to 1 the Pade limit
    coefficients are substituted, so the step becomes pade_step without
    determinantal scaling. The alt form stores norm(Z_k^{-1}) as a
    byproduct, the full form the tilde-normalized gap.
    """
    if form not in _FORMS:
        raise ValueError(f"form must be 'full' or 'alt', got {form!r}")
    alpha = st.alpha_k
    Y, Z, diag = _pf_update(st.Y, st.Z, _form_for(p.m, p.ell, alpha),
                            _tilde_factor(alpha), form, st.k, norm_kind)
    return IterationState(Y=Y, Z=Z, alpha_k=advance_alpha(alpha, p.m, p.ell),
                          k=st.k + 1, diag=diag)


def _det_scale_factor(log_det_y: float, log_det_z: float, n: int) -> float:
    return math.exp(-(log_det_y + log_det_z) / (2.0 * n))


def pade_step(st: IterationState, m: int, ell: int,
              det_scaling: bool = False, *, norm_kind: str = "inf") -> IterationState:
    """One fixed-coefficient comparator step: the full-form partial-fraction
    update at alpha = 1 (the Pade limit coefficients), optionally with
    determinantal scaling of Y and Z before the update."""
    Y, Z = st.Y, st.Z
    if det_scaling:
        FY = lu_factor(Y)
        FZ = lu_factor(Z)
        if FY.singular or FZ.singular:
            raise IterationAbortError(
                f"singular iterate at iteration {st.k + 1} (determinant scaling)"
            )
        g = _det_scale_factor(FY.det_log, FZ.det_log, Y.shape[0])
        Y, Z = g * Y, g * Z
    Y, Z, diag = _pf_update(Y, Z, pade_partial_fraction(m, ell), 1.0, "full",
                            st.k, norm_kind)
    return IterationState(Y=Y, Z=Z, alpha_k=1.0, k=st.k + 1, diag=diag)


def db_step(st: IterationState, det_scaling: bool = False, *,
            norm_kind: str = "inf") -> IterationState:
    """One Denman-Beavers step: X' = (X + Y^{-1})/2, Y' = (Y + X^{-1})/2,
    with X in the Y slot and the companion iterate in the Z slot.
    Determinantal scaling rescales the pair before the averaging; the
    inverses are reused, so no extra factorization is needed."""
    X, Ydb = st.Y, st.Z
    n = X.shape[0]

    def factor_and_invert(j: int):
        F = lu_factor((X, Ydb)[j])
        return F, None if F.singular else inverse(F)

    (FX, x_inv), (FY, y_inv) = _map_shifts(factor_and_invert, 2, n)
    if FX.singular or FY.singular:
        raise IterationAbortError(f"singular iterate at iteration {st.k + 1}")
    diag = {"z_inv_norm": norm(y_inv, norm_kind)}
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


def _resolved_delta(opts: IterationOptions, n: int) -> float:
    if opts.delta is not None:
        return opts.delta
    return _EPS * math.sqrt(n)


def _uses_gap(opts: IterationOptions) -> bool:
    """Acceptance tests the stored Z Y - I gap (full form, Pade), else the change."""
    return opts.method == "pade" or (opts.method == "zolotarev" and opts.form == "full")


def termination_check(st: IterationState, prev: IterationState,
                      opts: IterationOptions, aux: dict) -> str:
    """Decide {continue, accept, stagnate} for the newly produced state.

    The step change norm(Yt_k - Yt_{k-1}) is computed here, once per
    iteration, and recorded on st: diag["change"] and, relative to
    norm(Yt_k), prev_change.

    Gap-producing steps (full form, pade) are accepted when the stored
    norm of Z_{k-1} Y_{k-1} - I (tilde-normalized) is at or below
    8 (delta/4)^(1/q); difference-based steps (alt form, Denman-Beavers)
    when norm(Yt_k - Yt_{k-1}) is at or below
    (delta norm(Yt_k) / (norm(A^{-1}) norm(Zt_{k-1}^{-1})))^(1/q).
    Stagnation fires when the relative change fails to halve while both
    the current and the previous relative change sit at or below 1e-2;
    requiring the previous change to be small as well keeps the window
    from opening on the very step that first crosses 1e-2, where mid
    phase contraction ratios routinely exceed 1/2 long before the
    iteration stalls. It needs prev.prev_change (the change at k-1, set
    by the check on prev) and is therefore inactive before k = 2.
    aux supplies norm(A^{-1}) and, when an alt-form byproduct exists,
    the raw norm(Z_{k-1}^{-1}).
    """
    kind = opts.norm_kind
    delta = _resolved_delta(opts, st.Y.shape[0])
    q = 2 if opts.method == "denman_beavers" else opts.m + opts.ell + 1

    yt = _tilde_factor(st.alpha_k) * st.Y
    change = norm(yt - _tilde_factor(prev.alpha_k) * prev.Y, kind)
    size = norm(yt, kind)
    st.diag["change"] = change
    st.prev_change = change / size if size > 0.0 else 0.0

    if _uses_gap(opts):
        gap = st.diag.get("zy_gap")
        if gap is not None and gap <= 8.0 * (delta / 4.0) ** (1.0 / q):
            return "accept"
    else:
        z_inv = aux.get("z_inv_norm")
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
    once at exit in opts.norm_kind. OpenBLAS runs on one thread for the
    whole call, and its previous thread counts are restored on return or
    raise.
    """
    if opts is None:
        opts = IterationOptions()
    A = dense(A)
    n = A.shape[0]
    kind = opts.norm_kind
    A_scaled, s, alpha = prepare_problem(A, opts)
    sqrt_s = math.sqrt(s)

    a_inv_norm = None
    if not _uses_gap(opts):
        a_inv_norm = norm(inverse(lu_factor(A_scaled)), kind)

    if opts.method == "zolotarev":
        p = ZoloParams(opts.m, opts.ell, min(alpha, 1.0 - 1e-15))
    scaling_active = opts.resolved_det_scaling()

    state = IterationState(
        Y=A_scaled.copy(), Z=np.eye(n, dtype=complex),
        alpha_k=alpha if opts.method == "zolotarev" else 1.0,
        k=0,
    )
    alpha_hist: list[float] = []
    change_hist: list[float] = []
    reason = "max_iter"

    for _ in range(opts.max_iter):
        prev = state
        if opts.method == "zolotarev":
            state = zolo_step(prev, p, opts.form, norm_kind=kind)
        elif opts.method == "pade":
            state = pade_step(prev, opts.m, opts.ell,
                              det_scaling=scaling_active, norm_kind=kind)
        else:
            state = db_step(prev, det_scaling=scaling_active, norm_kind=kind)

        aux = {"a_inv_norm": a_inv_norm,
               "z_inv_norm": state.diag.get("z_inv_norm")}
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
    residual = norm(matmul(X, X) - A, kind) / norm(A, kind)
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
