"""Coupled-iteration tests: stepping, termination, and the full driver."""

import math
import multiprocessing
import queue as queue_module
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zolosqrt import sqrtm as sqrtm_module
from zolosqrt.linalg import SingularMatrixError, inverse, lu_factor, norm
from zolosqrt.sqrtm import (
    ConvergenceReport,
    IterationAbortError,
    IterationOptions,
    IterationState,
    db_step,
    normalized_iterates,
    pade_step,
    prepare_problem,
    sqrtm_drive,
    termination_check,
    zolo_step,
)
from zolosqrt.zolofuncs import ZoloParams, rho_of, scalar_iterate

U = 2.0 ** -53


def _state(Y, Z=None, alpha=1.0, k=0, prev_change=math.inf, diag=None):
    Y = np.asarray(Y, dtype=complex)
    if Z is None:
        Z = np.eye(Y.shape[0])
    st = IterationState(Y=Y, Z=np.asarray(Z, dtype=complex), alpha_k=alpha, k=k,
                        prev_change=prev_change)
    if diag:
        st.diag.update(diag)
    return st


def _spd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return M @ M.T + shift * np.eye(n)


# ---------------------------------------------------------------- options

def test_options_defaults():
    o = IterationOptions()
    assert o.method == "zolotarev" and (o.m, o.ell) == (8, 8)
    assert o.form == "alt" and o.max_iter == 20


def test_options_reject_bad_type():
    with pytest.raises(ValueError):
        IterationOptions(m=2, ell=0)
    with pytest.raises(ValueError):
        IterationOptions(m=0, ell=0)
    with pytest.raises(ValueError):
        IterationOptions(method="newton")
    with pytest.raises(ValueError):
        IterationOptions(form="sideways")


def test_options_reject_bad_tolerances():
    with pytest.raises(ValueError):
        IterationOptions(max_iter=0)


def test_options_alpha_override_range():
    # the estimate's clamp floor and the Pade limit are both accepted
    assert IterationOptions(alpha_override=1e-12).alpha_override == 1e-12
    assert IterationOptions(alpha_override=1.0).alpha_override == 1.0
    for bad in (0.0, 9e-13, 1.0 + 2.0 ** -52, math.inf, math.nan, -0.5):
        with pytest.raises(ValueError, match="alpha_override"):
            IterationOptions(alpha_override=bad)


# ------------------------------------------------------------- preparation

def test_prepare_scalar_multiple_of_identity():
    A_s, s, alpha = prepare_problem(4.0 * np.eye(3), IterationOptions())
    assert s == pytest.approx(4.0, rel=1e-6)
    assert alpha == 1.0 - 1e-8  # single eigenvalue modulus, clamped
    assert_allclose(A_s, np.eye(3), rtol=1e-6)


def test_prepare_alpha_from_spread():
    _, s, alpha = prepare_problem(np.diag([1e-8, 1.0]), IterationOptions())
    assert s == pytest.approx(1.0, rel=1e-3)
    assert alpha == pytest.approx(1e-4, rel=1e-3)


def test_prepare_override_verbatim():
    _, _, alpha = prepare_problem(
        np.diag([1e-8, 1.0]), IterationOptions(alpha_override=0.5))
    assert alpha == 0.5


def test_prepare_rejects_singular():
    with pytest.raises(SingularMatrixError):
        prepare_problem(np.zeros((2, 2)), IterationOptions())


def test_prepare_warns_on_estimation_failure():
    # dominant complex pair: the power-iteration norm estimates oscillate
    A = np.array([[1.0, 4.0], [-1.0, 1.0]])
    with pytest.warns(RuntimeWarning, match="falling back"):
        _, _, alpha = prepare_problem(A, IterationOptions())
    assert alpha == 1e-8


# ---------------------------------------------------------------- zolo_step

def test_zolo_step_fixed_point_identity():
    n = 3
    st = _state(np.eye(n), alpha=1.0 - 1e-8)
    st1 = zolo_step(st, ZoloParams(2, 2, 1.0 - 1e-8), "full")
    t = (1.0 + st1.alpha_k) / (2.0 * st1.alpha_k)
    assert norm(t * t * (st1.Z @ st1.Y) - np.eye(n), "inf") <= 10 * n * U
    assert norm(st1.Y - inverse(lu_factor(st1.Z)), "inf") <= 10 * n * U


def test_zolo_step_newton_equivalence():
    # type (1,0) is scaled Newton with mu = sqrt(alpha_k); the Newton
    # iterate from X = I corresponds to inverse(Z_k)
    A = _spd(8, 2, shift=8.0).astype(complex)
    A /= norm(A, "inf")
    alpha = 0.2
    st = _state(A, alpha=alpha)
    X = np.eye(8, dtype=complex)
    al = alpha
    for _ in range(3):
        mu = math.sqrt(al)
        X = 0.5 * (mu * X + np.linalg.solve(X, A) / mu)
        st = zolo_step(st, ZoloParams(1, 0, alpha), "alt")
        al = st.alpha_k
        Zinv = inverse(lu_factor(st.Z))
        assert norm(Zinv - X, "inf") / norm(X, "inf") <= 1e-13


def test_zolo_step_diagonal_follows_scalar():
    zs = np.array([0.09, 0.2, 0.55, 1.0])
    p = ZoloParams(2, 1, 0.3)
    st = _state(np.diag(zs), alpha=0.3)
    for k in (1, 2):
        st = zolo_step(st, p, "alt")
        for i, z in enumerate(zs):
            f = scalar_iterate(complex(z), p, k).values[k]
            assert complex(st.Y[i, i]) == pytest.approx(z / f, rel=1e-14)
            assert complex(st.Z[i, i]) == pytest.approx(1.0 / f, rel=1e-14)


def test_zolo_step_forms_agree():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    A += 6.0 * np.eye(10)
    p = ZoloParams(3, 2, 0.5)
    stf = _state(A.copy(), alpha=0.5)
    sta = _state(A.copy(), alpha=0.5)
    for _ in range(3):
        stf = zolo_step(stf, p, "full")
        sta = zolo_step(sta, p, "alt")
        assert norm(stf.Y - sta.Y, "inf") / norm(stf.Y, "inf") <= 1e-10
        assert norm(stf.Z - sta.Z, "inf") / norm(stf.Z, "inf") <= 1e-10


def test_zolo_step_rejects_bad_form():
    st = _state(np.eye(2), alpha=0.5)
    with pytest.raises(ValueError):
        zolo_step(st, ZoloParams(1, 0, 0.5), "diagonal")


@pytest.mark.parametrize("form", ["full", "alt"])
def test_zolo_step_aborts_on_singular_shift(form):
    # put -c in the spectrum so the single shifted system drops rank
    from zolosqrt.zolofuncs import build_partial_fraction

    c = build_partial_fraction(ZoloParams(1, 0, 0.3)).shifts[0]
    st = _state(np.diag([-c, 1.0]), alpha=0.3)
    with pytest.raises(IterationAbortError):
        zolo_step(st, ZoloParams(1, 0, 0.3), form)


def test_zolo_step_alt_aborts_on_singular_z():
    st = _state(np.eye(2), Z=np.zeros((2, 2)), alpha=0.5)
    with pytest.raises(IterationAbortError):
        zolo_step(st, ZoloParams(1, 0, 0.5), "alt")


# ---------------------------------------------------------------- pade_step

def test_pade_step_scalar_error_squares():
    # (1,0) is unscaled Newton: quadratic near the fixed point
    z = 1.21
    st = _state([[z]])
    errs = []
    for _ in range(4):
        errs.append(abs(complex(st.Y[0, 0]) / math.sqrt(z) - 1.0))
        st = pade_step(st, 1, 0)
    assert errs[2] <= errs[1] ** 2
    assert errs[3] <= errs[2] ** 2


def test_pade_step_det_scale_factor():
    # scaling A=diag(a^2,b^2) at k=0 multiplies the pair by 1/sqrt(ab)
    a, b = 2.0, 8.0
    A = np.diag([a * a, b * b])
    g = 1.0 / math.sqrt(a * b)
    got = pade_step(_state(A), 1, 0, det_scaling=True)
    want = pade_step(_state(g * A, Z=g * np.eye(2)), 1, 0, det_scaling=False)
    assert_allclose(got.Y, want.Y, rtol=1e-14)
    assert_allclose(got.Z, want.Z, rtol=1e-14)


def test_pade_step_zy_commutes_with_normal_input():
    A = _spd(8, 5, shift=8.0).astype(complex)
    A /= norm(A, "inf")
    st = _state(A)
    for _ in range(3):
        st = pade_step(st, 4, 4)
        P = st.Z @ st.Y
        comm = norm(P @ A - A @ P, "inf") / (norm(P, "inf") * norm(A, "inf"))
        assert comm <= 1e-10


def test_pade_step_aborts_on_singular_iterate():
    st = _state(np.zeros((2, 2)))
    with pytest.raises(IterationAbortError):
        pade_step(st, 1, 0, det_scaling=True)


@pytest.mark.parametrize("m, ell", [(1, 0), (2, 1), (4, 4), (8, 8)])
def test_pade_step_is_zolo_step_at_alpha_one(m, ell):
    # Pade is the alpha = 1 case of the minimax update, bit for bit
    rng = np.random.default_rng(m + ell)
    Y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    Z = np.eye(6) + 0.05 * rng.standard_normal((6, 6))
    st = _state(Y, Z=Z, alpha=1.0, k=2)
    got = pade_step(st, m, ell)
    want = zolo_step(st, ZoloParams(m, ell, 0.5), "full")
    assert np.array_equal(got.Y, want.Y) and np.array_equal(got.Z, want.Z)
    assert got.diag == want.diag
    assert got.alpha_k == want.alpha_k == 1.0


def test_pade_step_aborts_on_singular_shift():
    from zolosqrt.zolofuncs import pade_partial_fraction

    c = pade_partial_fraction(2, 1).shifts[1]
    st = _state(-c * np.eye(2), k=3)
    with pytest.raises(IterationAbortError, match="iteration 4, shift 2"):
        pade_step(st, 2, 1)


# ------------------------------------------------------------------ db_step

def test_db_step_identity_fixed_point():
    st1 = db_step(_state(np.eye(3)))
    assert np.array_equal(st1.Y, np.eye(3))
    assert np.array_equal(st1.Z, np.eye(3))


def test_db_step_scalar_newton_pair():
    st1 = db_step(_state([[4.0]]))
    assert complex(st1.Y[0, 0]) == 2.5
    assert complex(st1.Z[0, 0]) == 0.625


def test_db_step_product_gap_decreasing():
    st = _state(_spd(8, 5, shift=8.0))
    gaps = []
    for _ in range(6):
        st = db_step(st)
        gaps.append(norm(st.Y @ st.Z - np.eye(8), "inf"))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-8


def test_db_step_aborts_on_singular_iterate():
    with pytest.raises(IterationAbortError):
        db_step(_state(np.zeros((2, 2))))


# ---------------------------------------------------------------- decisions

def test_termination_accept_at_fixed_point():
    opts = IterationOptions(method="zolotarev", m=2, ell=1)
    prev = _state(np.eye(2), k=0)
    st = _state(np.eye(2), k=1, diag={"z_inv_norm": 1.0})
    aux = {"a_inv_norm": 1.0, "z_inv_norm": 1.0}
    assert termination_check(st, prev, opts, aux) == "accept"


def test_termination_accept_gap_route():
    opts = IterationOptions(method="pade", m=2, ell=1)
    prev = _state(np.eye(2), k=0)
    st = _state(np.eye(2), k=1, diag={"zy_gap": 0.0})
    assert termination_check(st, prev, opts, {}) == "accept"


def test_termination_continue_early():
    # large change, no usable history: the only decision is continue
    opts = IterationOptions(method="zolotarev", m=2, ell=1)
    prev = _state(np.eye(2), k=0)
    st = _state(2.0 * np.eye(2), k=1, diag={"z_inv_norm": 1.0})
    aux = {"a_inv_norm": 1.0, "z_inv_norm": 1.0}
    assert termination_check(st, prev, opts, aux) == "continue"


def test_termination_stagnates_on_stalled_changes():
    # relative changes (1e-3, 9e-4): both small, second fails to halve
    opts = IterationOptions(method="zolotarev", m=2, ell=1)
    prev = _state(np.eye(2), k=5, prev_change=1e-3)
    st = _state(np.eye(2) / (1.0 - 9e-4), k=6)
    assert termination_check(st, prev, opts, {}) == "stagnate"


def test_termination_no_stagnation_without_arming():
    # same ratio but the previous change was still large: window closed
    opts = IterationOptions(method="zolotarev", m=2, ell=1)
    prev = _state(np.eye(2), k=5, prev_change=0.1)
    st = _state(np.eye(2) / (1.0 - 9e-4), k=6)
    assert termination_check(st, prev, opts, {}) == "continue"


def test_termination_no_stagnation_before_history():
    opts = IterationOptions(method="zolotarev", m=2, ell=1)
    prev = _state(np.eye(2), k=0)  # prev_change = inf
    st = _state(np.eye(2) / (1.0 - 9e-4), k=1)
    assert termination_check(st, prev, opts, {}) == "continue"


# ------------------------------------------------------------ normalization

def test_normalized_iterates_identity_at_one():
    st = _state(np.diag([2.0, 3.0]), Z=np.diag([5.0, 7.0]), alpha=1.0)
    yt, zt = normalized_iterates(st)
    assert_allclose(yt, st.Y)
    assert_allclose(zt, st.Z)


def test_normalized_iterates_factor_two():
    st = _state(np.eye(2), alpha=1.0 / 3.0)
    yt, zt = normalized_iterates(st)
    assert_allclose(yt, 2.0 * np.eye(2), rtol=1e-15)
    assert_allclose(zt, 2.0 * np.eye(2), rtol=1e-15)


def test_normalized_iterates_product_scaling():
    rng = np.random.default_rng(8)
    st = _state(rng.standard_normal((3, 3)), Z=rng.standard_normal((3, 3)),
                alpha=0.4)
    yt, zt = normalized_iterates(st)
    t = (1.0 + 0.4) / (2.0 * 0.4)
    assert_allclose(zt @ yt, t * t * (st.Z @ st.Y), rtol=1e-14)


def test_normalized_iterates_validates_alpha():
    with pytest.raises(ValueError):
        normalized_iterates(_state(np.eye(2), alpha=0.0))
    with pytest.raises(ValueError):
        normalized_iterates(_state(np.eye(2), alpha=1.5))


# ------------------------------------------------------------------- driver

@pytest.mark.parametrize("opts", [
    IterationOptions(),
    IterationOptions(method="zolotarev", m=2, ell=1, form="full"),
    IterationOptions(method="pade", m=4, ell=4),
    IterationOptions(method="denman_beavers"),
])
def test_drive_identity(opts):
    X, Xinv, rep = sqrtm_drive(np.eye(4), opts)
    assert_allclose(X, np.eye(4), atol=1e-14)
    assert_allclose(Xinv, np.eye(4), atol=1e-14)
    assert rep.residual <= 1e-14
    assert rep.iterations <= 1


def test_drive_rotation():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    X, Xinv, rep = sqrtm_drive(A)
    want = math.sqrt(2.0) / 2.0 * np.array([[1.0, 1.0], [-1.0, 1.0]])
    assert norm(X - want, "inf") <= 1e-13
    assert norm(X @ Xinv - np.eye(2), "inf") <= 1e-13
    assert rep.reason == "criterion_satisfied"


def test_drive_jordan_block():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    X, _, _ = sqrtm_drive(A)
    assert norm(X - np.array([[1.0, 0.5], [0.0, 1.0]]), "inf") <= 1e-13


def test_drive_report_shape():
    _, _, rep = sqrtm_drive(_spd(6, 3, shift=6.0))
    assert isinstance(rep, ConvergenceReport)
    assert rep.reason in ("criterion_satisfied", "stagnation", "max_iter")
    assert len(rep.alpha_history) == rep.iterations
    assert len(rep.change_history) == rep.iterations
    assert rep.scale > 0.0 and 0.0 < rep.alpha <= 1.0 - 1e-8


def test_drive_inverse_pair():
    A = _spd(7, 11, shift=3.0)
    X, Xinv, _ = sqrtm_drive(A)
    assert norm(X @ Xinv - np.eye(7), "inf") <= 1e-12
    assert norm(X @ X - A, "inf") / norm(A, "inf") <= 1e-12


def test_drive_max_iter_reached():
    opts = IterationOptions(method="zolotarev", m=1, ell=0, max_iter=2)
    _, _, rep = sqrtm_drive(np.diag([1e-8, 1.0]), opts)
    assert rep.reason == "max_iter"
    assert rep.iterations == 2


def _record_det_scaling(monkeypatch):
    calls = []
    for name in ("pade_step", "db_step"):
        step = getattr(sqrtm_module, name)

        def recording(*args, _step=step, det_scaling=False, **kwargs):
            calls.append(det_scaling)
            return _step(*args, det_scaling=det_scaling, **kwargs)

        monkeypatch.setattr(sqrtm_module, name, recording)
    return calls


@pytest.mark.parametrize("opts", [IterationOptions(method="pade"),
                                  IterationOptions(method="denman_beavers")],
                         ids=["P-(8,8)", "DB"])
def test_drive_det_scales_comparators_until_change_is_small(monkeypatch, opts):
    # fixed policy: scaling is on from the first step and switches off
    # for good once the relative change falls below 1e-2
    from zolosqrt.corpus import gen_moler

    calls = _record_det_scaling(monkeypatch)
    _, _, rep = sqrtm_drive(gen_moler(16).matrix, opts)
    assert len(calls) == rep.iterations
    switch = calls.index(False)
    assert switch >= 1 and calls[:switch] == [True] * switch
    assert calls[switch:] == [False] * (len(calls) - switch)


def test_drive_minimax_never_det_scales(monkeypatch):
    calls = _record_det_scaling(monkeypatch)
    _, _, rep = sqrtm_drive(np.diag(np.logspace(-8, 0, 9)),
                            IterationOptions(method="zolotarev", m=8, ell=8))
    assert rep.reason == "criterion_satisfied" and calls == []


def test_drive_order_of_convergence():
    # normalized error against the exact inverse root contracts with
    # exponent m + ell + 1 (error measured on the Z-inverse iterate)
    rng = np.random.default_rng(42)
    n, alpha = 6, 0.25
    d = np.sort(np.concatenate(
        ([alpha ** 2], 10.0 ** rng.uniform(2 * math.log10(alpha), 0, n - 2),
         [1.0])))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (q * d) @ q.T
    A = 0.5 * (A + A.T)
    Ais = (q * d ** -0.5) @ q.T
    for m, ell, C in [(1, 0, 0.5), (2, 1, 1.0)]:
        p = ZoloParams(m, ell, alpha)
        st = _state(A, alpha=alpha)
        errs = []
        for _ in range(3):
            st = zolo_step(st, p, "alt")
            t = 2.0 * st.alpha_k / (1.0 + st.alpha_k)
            X = inverse(lu_factor(st.Z))
            errs.append(np.linalg.norm(t * (X @ Ais) - np.eye(n), 2))
        for e0, e1 in zip(errs, errs[1:]):
            if e1 <= 1e3 * n * U:
                break  # round-off floor
            assert e1 <= C * e0 ** (m + ell + 1)


def test_drive_hermitian_error_bound():
    # e_k tracks 4 rho^(-(m+ell+1)^k); the bound is attained to leading
    # order, so round-off needs explicit slack
    rng = np.random.default_rng(42)
    n, alpha = 6, 0.25
    d = np.sort(np.concatenate(
        ([alpha ** 2], 10.0 ** rng.uniform(2 * math.log10(alpha), 0, n - 2),
         [1.0])))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (q * d) @ q.T
    A = 0.5 * (A + A.T)
    Ais = (q * d ** -0.5) @ q.T
    rho = rho_of(alpha)
    st = _state(A, alpha=alpha)
    for k in (1, 2, 3):
        st = zolo_step(st, ZoloParams(1, 0, alpha), "alt")
        t = 2.0 * st.alpha_k / (1.0 + st.alpha_k)
        X = inverse(lu_factor(st.Z))
        e = np.linalg.norm(t * (X @ Ais) - np.eye(n), 2)
        bound = 4.0 * rho ** -(2.0 ** k)
        if bound <= 1e3 * n * U:
            break
        assert e <= bound * (1.0 + 1e-3) + 1e3 * n * U


def test_drive_commutation_with_normal_input():
    A = _spd(8, 19, shift=4.0)
    X, _, _ = sqrtm_drive(A)
    comm = norm(X @ A - A @ X, "inf") / (norm(X, "inf") * norm(A, "inf"))
    assert comm <= 100 * 8 * U


def test_drive_residual_bound_attainable_case():
    # the corpus-wide residual sweep (including the cases that floor
    # above this bound) lives in the acceptance suite
    from zolosqrt.corpus import gen_rank_one

    A = gen_rank_one(8).matrix
    X, _, rep = sqrtm_drive(A)
    alpha_inf = norm(X, "inf") ** 2 / norm(A, "inf")
    assert rep.residual <= 1e3 * 8 * U * alpha_inf


# -------------------------------------------- shift pool and BLAS threads

def _blas_threads():
    controls = sqrtm_module._blas_thread_controls()
    if controls is None:
        pytest.skip("no OpenBLAS thread-count entry points in this install")
    return controls


# the smallest order whose steps run on the pool
POOL_N = sqrtm_module._POOL_MIN_N


def test_drive_thread_count_reproducibility(monkeypatch):
    # the reduction sums in shift order at any worker count, so bitwise
    A = _spd(POOL_N, 23, shift=POOL_N)
    for opts in (IterationOptions(), IterationOptions(form="full"),
                 IterationOptions(method="denman_beavers")):
        runs = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(sqrtm_module, "_WORKERS", workers)
            runs.append(sqrtm_drive(A, opts))
        for X, Xinv, rep in runs[1:]:
            assert np.array_equal(X, runs[0][0])
            assert np.array_equal(Xinv, runs[0][1])
            assert rep == runs[0][2]


def test_drive_holds_blas_at_one_thread():
    controls = _blas_threads()
    before = [get() for get, _ in controls]
    A = _spd(POOL_N, 29, shift=4.0)
    try:
        for _, set_ in controls:
            set_(1)
        X1, Xinv1, _ = sqrtm_drive(A)
        for _, set_ in controls:
            set_(2)
        X2, Xinv2, _ = sqrtm_drive(A)
        assert [get() for get, _ in controls] == [2, 2]
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)
    assert np.array_equal(X1, X2) and np.array_equal(Xinv1, Xinv2)


def test_pade_step_aborts_on_singular_shift_on_the_pool(monkeypatch):
    from zolosqrt.zolofuncs import pade_partial_fraction

    monkeypatch.setattr(sqrtm_module, "_WORKERS", 2)
    c = pade_partial_fraction(2, 1).shifts[1]
    st = _state(-c * np.eye(POOL_N), k=3)
    with pytest.raises(IterationAbortError, match="iteration 4, shift 2"):
        pade_step(st, 2, 1)


def test_drive_restores_blas_threads_after_a_raise(monkeypatch):
    controls = _blas_threads()
    monkeypatch.setattr(sqrtm_module, "_WORKERS", 2)
    real_inverse = sqrtm_module.inverse

    def inverse_failing_off_the_calling_thread(F):
        if threading.current_thread() is not threading.main_thread():
            raise IterationAbortError("injected on a pool worker")
        return real_inverse(F)

    monkeypatch.setattr(sqrtm_module, "inverse", inverse_failing_off_the_calling_thread)
    before = [get() for get, _ in controls]
    with pytest.raises(IterationAbortError, match="injected"):
        sqrtm_drive(_spd(POOL_N, 31, shift=4.0))
    assert [get() for get, _ in controls] == before


def test_concurrent_drives_restore_blas_threads(monkeypatch):
    # overlapping holds from more threads than cores: the last to end
    # must restore what the first found, and each solve keeps its bits
    controls = _blas_threads()
    monkeypatch.setattr(sqrtm_module, "_WORKERS", 2)
    mats = [_spd(POOL_N, 40 + i, shift=4.0) for i in range(6)]
    expected = [sqrtm_drive(A)[0] for A in mats]
    before = [get() for get, _ in controls]
    results = [None] * len(mats)

    def solve(i):
        results[i] = sqrtm_drive(mats[i])[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _, set_ in controls:
            set_(2)
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(mats))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert [get() for get, _ in controls] == [2, 2]
    finally:
        sys.setswitchinterval(interval)
        for (_, set_), count in zip(controls, before):
            set_(count)
    assert all(np.array_equal(r, e) for r, e in zip(results, expected))


def _solve_and_report(A, queue):
    queue.put(sqrtm_drive(A)[2].reason)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_solves_after_the_parent_built_the_pool(monkeypatch):
    _blas_threads()
    monkeypatch.setattr(sqrtm_module, "_WORKERS", 2)
    A = _spd(2 * POOL_N, 37, shift=4.0)
    sqrtm_drive(A)
    assert sqrtm_module._pool is not None
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_solve_and_report, args=(A, queue))
    child.start()
    try:
        reason = queue.get(timeout=60)
    except queue_module.Empty:
        reason = None
    child.join(timeout=10)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive and reason == "criterion_satisfied"
