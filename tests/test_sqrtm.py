"""Coupled-iteration tests: stepping, termination, and the full driver."""

import math
import multiprocessing
import queue as queue_module
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zolosqrt import linalg as linalg_module
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
    assert o.form == "full" and o.max_iter == 20


def test_options_reject_bad_type():
    with pytest.raises(ValueError):
        IterationOptions(m=2, ell=0)
    with pytest.raises(ValueError):
        IterationOptions(m=0, ell=0)
    with pytest.raises(ValueError):
        IterationOptions(method="newton")
    with pytest.raises(ValueError):
        IterationOptions(form="sideways")
    with pytest.raises(ValueError, match="'full'"):
        IterationOptions(form="alt")


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


@pytest.mark.parametrize("method", ["pade", "denman_beavers"])
def test_options_reject_alpha_override_for_comparators(method):
    # only the minimax method reads alpha; the comparators iterate at 1
    with pytest.raises(ValueError, match="alpha_override"):
        IterationOptions(method=method, alpha_override=0.5)


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


def _complex_extremes_32():
    # S B S^-1 with B of 2x2 rotation-scaling blocks: every eigenvalue,
    # the extreme ones too, is one of a complex pair
    rng = np.random.default_rng(1)
    blocks = [r * np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
              for r, t in zip(np.geomspace(1e-4, 1.0, 16), rng.uniform(0.3, 1.2, 16))]
    B = np.zeros((32, 32))
    for i, b in enumerate(blocks):
        B[2 * i:2 * i + 2, 2 * i:2 * i + 2] = b
    S = rng.standard_normal((32, 32)) + 6.0 * np.eye(32)
    return S @ B @ np.linalg.inv(S)


@pytest.mark.parametrize("A", [np.array([[1.0, 4.0], [-1.0, 1.0]]), _complex_extremes_32()],
                         ids=["2x2-complex-pair", "nonnormal-32"])
def test_prepare_alpha_is_exact_for_complex_extreme_pairs(A):
    # a power iteration misses its tolerance on these; the eigenvalues
    # give alpha exactly, with no warning
    moduli = np.abs(np.linalg.eigvals(A))
    assert np.any(np.linalg.eigvals(A)[np.argmax(moduli)].imag)
    want = min(max(math.sqrt(moduli.min() / moduli.max()), 1e-12), 1.0 - 1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, alpha = prepare_problem(A, IterationOptions())
    assert alpha == want


@pytest.mark.parametrize("method", ["pade", "denman_beavers"])
def test_comparators_report_the_alpha_they_iterate_at(method):
    # eigenvalues 1 +- 2i, a complex extreme pair: a method that does not
    # read alpha warns about nothing, and both places say alpha = 1
    A = np.array([[1.0, 4.0], [-1.0, 1.0]])
    opts = IterationOptions(method=method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, alpha = prepare_problem(A, opts)
        _, _, rep = sqrtm_drive(A, opts)
    assert alpha == rep.alpha == 1.0
    assert set(rep.alpha_history) == {1.0}


# ---------------------------------------------------------------- zolo_step

def test_zolo_step_fixed_point_identity():
    n = 3
    st = _state(np.eye(n), alpha=1.0 - 1e-8)
    st1 = zolo_step(st, ZoloParams(2, 2, 1.0 - 1e-8))
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
        st = zolo_step(st, ZoloParams(1, 0, alpha))
        al = st.alpha_k
        Zinv = inverse(lu_factor(st.Z))
        assert norm(Zinv - X, "inf") / norm(X, "inf") <= 1e-13


def test_zolo_step_diagonal_follows_scalar():
    zs = np.array([0.09, 0.2, 0.55, 1.0])
    p = ZoloParams(2, 1, 0.3)
    st = _state(np.diag(zs), alpha=0.3)
    for k in (1, 2):
        st = zolo_step(st, p)
        for i, z in enumerate(zs):
            f = scalar_iterate(complex(z), p, k).values[k]
            assert complex(st.Y[i, i]) == pytest.approx(z / f, rel=1e-14)
            assert complex(st.Z[i, i]) == pytest.approx(1.0 / f, rel=1e-14)


def test_zolo_step_aborts_on_singular_shift():
    # put -c in the spectrum so the single shifted system drops rank
    from zolosqrt.zolofuncs import build_partial_fraction

    c = build_partial_fraction(ZoloParams(1, 0, 0.3)).shifts[0]
    st = _state(np.diag([-c, 1.0]), alpha=0.3)
    with pytest.raises(IterationAbortError):
        zolo_step(st, ZoloParams(1, 0, 0.3))


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
    want = zolo_step(st, ZoloParams(m, ell, 0.5))
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
    # the change route, which only Denman-Beavers takes
    opts = IterationOptions(method="denman_beavers")
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
    opts = IterationOptions(method="denman_beavers")
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
    IterationOptions(method="zolotarev", m=2, ell=1),
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


def test_drive_accepts_only_at_its_residual_bound(capsys):
    A = np.diag([1e-4, 1.0])
    X, _, rep = sqrtm_drive(A, IterationOptions(alpha_override=0.5))
    bound = 1e3 * 2 * U * norm(X, "inf") ** 2 / norm(A, "inf")
    error = abs(X[0, 0] - 1e-2) / 1e-2
    with capsys.disabled():
        print(f"diag(1e-4, 1) at alpha 0.5: {rep.reason} after {rep.iterations} iterations, "
              f"measured residual {rep.residual:.2e} against {bound:.2e}, "
              f"X[0, 0] off by {error:.1e} relative")
    assert rep.reason != "criterion_satisfied" or rep.residual <= bound


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drive_newton_type_accepts_graded_spd_input(seed):
    # Z-(1,0) on eigenvalues log-uniform in [1e-10, 1]: the gap test
    # accepts, where a change-based test stalled into stagnation
    from zolosqrt.corpus import gen_spd_logspectrum

    tc = gen_spd_logspectrum(32, 1e-5, seed)
    X, _, rep = sqrtm_drive(tc.matrix, IterationOptions(m=1, ell=0))
    assert rep.reason == "criterion_satisfied"
    assert norm(X - tc.reference, "inf") / norm(tc.reference, "inf") <= 1e-10


_CHECKED = [IterationOptions(), IterationOptions(method="pade"),
            IterationOptions(method="denman_beavers")]
_CHECKED_IDS = ["Z-full", "P-(8,8)", "DB"]


@pytest.mark.parametrize("A", [np.ones((2, 2)), np.zeros((2, 2))], ids=["rank-one", "zero"])
@pytest.mark.parametrize("opts", _CHECKED, ids=_CHECKED_IDS)
def test_drive_rejects_singular_input(opts, A):
    with pytest.raises(SingularMatrixError):
        sqrtm_drive(A, opts)


@pytest.mark.parametrize("opts", _CHECKED, ids=_CHECKED_IDS)
def test_drive_factors_scaled_input_once_before_the_first_step(monkeypatch, opts):
    # one factor serves the singularity check and norm(A^{-1})
    events = []

    def factor(M, _lu=sqrtm_module.lu_factor):
        events.append(M.copy())
        return _lu(M)

    monkeypatch.setattr(sqrtm_module, "lu_factor", factor)
    for name in ("zolo_step", "pade_step", "db_step"):
        def step(*args, _step=getattr(sqrtm_module, name), **kwargs):
            events.append("step")
            return _step(*args, **kwargs)

        monkeypatch.setattr(sqrtm_module, name, step)
    A = _spd(12, 75, shift=1.0)
    sqrtm_drive(A, opts)
    first = next(i for i, e in enumerate(events) if isinstance(e, str))
    assert first == 1
    assert np.array_equal(events[0], prepare_problem(A, opts)[0])


@pytest.mark.parametrize("opts", _CHECKED[1:] + [IterationOptions(alpha_override=0.5)],
                         ids=_CHECKED_IDS[1:] + ["Z-override"])
def test_drive_computes_eigenvalues_only_for_the_minimax_alpha(monkeypatch, opts):
    def refuse(A):
        raise AssertionError("extreme_eigen_moduli called")

    monkeypatch.setattr(sqrtm_module, "extreme_eigen_moduli", refuse)
    _, _, rep = sqrtm_drive(_complex_extremes_32(), opts)
    assert rep.reason == "criterion_satisfied"


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
            st = zolo_step(st, p)
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
        st = zolo_step(st, ZoloParams(1, 0, alpha))
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
    for opts in (IterationOptions(), IterationOptions(method="denman_beavers")):
        runs = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(sqrtm_module, "_WORKERS", workers)
            runs.append(sqrtm_drive(A, opts))
        for X, Xinv, rep in runs[1:]:
            assert np.array_equal(X, runs[0][0])
            assert np.array_equal(Xinv, runs[0][1])
            assert rep == runs[0][2]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_pooled_inverse_matches_inverse(monkeypatch, dtype):
    # the column halves solve against slices of a fresh identity, the
    # serial inverse against a shared read-only one: same bits
    _blas_threads()
    monkeypatch.setattr(sqrtm_module, "_WORKERS", 2)
    A = _spd(POOL_N, 31, shift=1.0)
    F = lu_factor(A if dtype is np.float64 else A * (1 + 0.5j))
    assert sqrtm_module._pooled(POOL_N)
    assert np.array_equal(sqrtm_module._inverse(F), inverse(F))


# an odd order above it, so that halves differ in size
ODD_N = 2 * POOL_N + 1


@pytest.mark.parametrize("n", [POOL_N, ODD_N])
def test_drive_split_paths_reproducible(monkeypatch, n):
    # Z-(1,0) runs the two solves of its one shifted system side by side,
    # P-(8,8) the two LUs of determinantal scaling, and every method splits
    # its other inverses by columns and products by rows: same bits at any
    # worker count, for symmetric and nonsymmetric input
    rng = np.random.default_rng(n)
    mats = (_spd(n, 47, shift=4.0), rng.standard_normal((n, n)) + n * np.eye(n))
    for A in mats:
        for opts in (IterationOptions(m=1, ell=0), IterationOptions(method="pade"),
                     IterationOptions()):
            runs = []
            for workers in (1, 2, 4):
                monkeypatch.setattr(sqrtm_module, "_WORKERS", workers)
                runs.append(sqrtm_drive(A, opts))
            for X, Xinv, rep in runs[1:]:
                assert np.array_equal(X, runs[0][0])
                assert np.array_equal(Xinv, runs[0][1])
                assert rep == runs[0][2]


def _record_factor_dtypes(monkeypatch):
    # (the spectrum estimate's, the solver's) factor dtypes, in call order
    estimate, solver = [], []
    for module, seen in ((linalg_module, estimate), (sqrtm_module, solver)):
        def recording(A, _factor=module.lu_factor, _seen=seen):
            F = _factor(A)
            _seen.append(F.lu.dtype)
            return F

        monkeypatch.setattr(module, "lu_factor", recording)
    return estimate, solver


_Z_OPTS = [IterationOptions(), IterationOptions(m=1, ell=0)]
_Z_IDS = ["Z-full", "Z-(1,0)"]
_DB = IterationOptions(method="denman_beavers")


@pytest.mark.parametrize("n", [12, POOL_N])
@pytest.mark.parametrize("opts", _Z_OPTS + [_DB], ids=_Z_IDS + ["DB"])
def test_drive_minimax_runs_in_float64_on_real_input(monkeypatch, opts, n):
    # and so does Denman-Beavers, whose iterates are real on real input
    monkeypatch.setattr(sqrtm_module, "_WORKERS", 2)
    estimate, solver = _record_factor_dtypes(monkeypatch)
    A = _spd(n, 71, shift=1.0)
    X, Xinv, rep = sqrtm_drive(A, opts)
    assert not estimate  # the eigenvalues need no LU
    assert solver and set(solver) == {np.dtype(np.float64)}
    assert X.dtype == Xinv.dtype == np.complex128
    assert not np.any(X.imag) and not np.any(Xinv.imag)
    assert rep.reason == "criterion_satisfied"
    assert norm(X @ Xinv - np.eye(n), "inf") <= 1e-10


_PADE = IterationOptions(method="pade")


@pytest.mark.parametrize("opts, imag", [(o, 0.01) for o in _Z_OPTS + [_PADE, _DB]]
                         + [(_PADE, 0.0)],
                         ids=[f"{i}-complex" for i in _Z_IDS + ["P-(8,8)", "DB"]]
                         + ["P-(8,8)-real"])
def test_drive_complex_arithmetic_where_minimax_on_real_input_is_not(
        monkeypatch, opts, imag):
    # Pade stays complex on real input, and so does every method on
    # input with a nonzero imaginary part
    _, solver = _record_factor_dtypes(monkeypatch)
    A = _spd(12, 73, shift=1.0) + 1j * imag * _spd(12, 74)
    X, Xinv, _ = sqrtm_drive(A, opts)
    assert solver and set(solver) == {np.dtype(np.complex128)}
    assert X.dtype == Xinv.dtype == np.complex128


@pytest.mark.parametrize("n", [POOL_N, ODD_N])
def test_drive_complex_input_reproducible(monkeypatch, n):
    # the minimax method runs in float64 on real input, so the tests above
    # check it there; the same holds for its complex path
    rng = np.random.default_rng(n + 1)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + n * np.eye(n)
    for opts in _Z_OPTS:
        runs = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(sqrtm_module, "_WORKERS", workers)
            runs.append(sqrtm_drive(A, opts))
        for X, Xinv, rep in runs[1:]:
            assert np.array_equal(X, runs[0][0])
            assert np.array_equal(Xinv, runs[0][1])
            assert rep == runs[0][2]


@pytest.mark.parametrize("workers", [2, 4])
def test_drive_computes_on_at_most_workers_threads(monkeypatch, workers):
    # the calling thread is one of the workers: the pool adds workers - 1
    _blas_threads()
    monkeypatch.setattr(sqrtm_module, "_WORKERS", workers)
    lock = threading.Lock()
    busy, peak, seen = 0, 0, set()

    def counted(fn):
        def call(*args, **kwargs):
            nonlocal busy, peak
            with lock:
                busy += 1
                peak = max(peak, busy)
                seen.add(threading.get_ident())
            try:
                return fn(*args, **kwargs)
            finally:
                with lock:
                    busy -= 1
        return call

    monkeypatch.setattr(sqrtm_module, "lu_factor", counted(sqrtm_module.lu_factor))
    monkeypatch.setattr(linalg_module, "solve", counted(linalg_module.solve))
    A = _spd(POOL_N, 53, shift=4.0)
    for _ in range(5):
        sqrtm_drive(A)
    assert len(seen) <= workers
    assert peak <= workers


@pytest.mark.parametrize("step", [
    lambda st: zolo_step(st, ZoloParams(8, 8, 0.01)),
    lambda st: pade_step(st, 8, 8, det_scaling=True),
], ids=["zolo-full", "pade-det"])
def test_start_state_skips_identity_work_with_same_values(monkeypatch, step):
    # a start state (k = 0, Z = I) skips the product by its identity Z;
    # a later state with the same Z does it
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn)
            return fn(*args)
        return call

    for name in ("lu_factor", "matmul", "inverse"):
        monkeypatch.setattr(sqrtm_module, name, counted(getattr(sqrtm_module, name)))
    A = _spd(12, 61, shift=1.0)
    A /= norm(A, "inf")
    start = step(_state(A, alpha=0.01, k=0))
    start_calls = len(calls)
    later = step(_state(A, alpha=0.01, k=1))
    assert start_calls < len(calls) - start_calls
    assert np.array_equal(start.Y, later.Y) and np.array_equal(start.Z, later.Z)
    assert start.diag == later.diag


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
    pool_call = threading.Event()

    def inverse_failing_off_the_calling_thread(F):
        if threading.current_thread() is not threading.main_thread():
            pool_call.set()
            raise IterationAbortError("injected on a pool worker")
        # the calling thread takes any call no pool thread has started, so
        # hold it until a pool thread has taken one of its own
        pool_call.wait(timeout=60)
        return real_inverse(F)

    monkeypatch.setattr(sqrtm_module, "inverse", inverse_failing_off_the_calling_thread)
    before = [get() for get, _ in controls]
    with pytest.raises(IterationAbortError, match="injected"):
        sqrtm_drive(_spd(POOL_N, 31, shift=4.0), _DB)
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


@pytest.mark.parametrize("workers", [2, 4])
def test_schedule_contract(monkeypatch, workers):
    # results in index order; the lowest failing index raises; and after
    # a raise or an early close no call is in flight and the BLAS thread
    # counts are back
    controls = _blas_threads()
    monkeypatch.setattr(sqrtm_module, "_WORKERS", workers)
    lock = threading.Lock()
    busy = 0

    def call(j, fail=()):
        nonlocal busy
        with lock:
            busy += 1
        try:
            # later indices sleep less, so calls finish out of index order
            time.sleep(0.002 * (8 - j))
            if j in fail:
                raise ValueError(f"call {j} failed")
            return j * j
        finally:
            with lock:
                busy -= 1

    before = [get() for get, _ in controls]
    assert list(sqrtm_module._schedule(call, 8, POOL_N)) == [j * j for j in range(8)]
    with pytest.raises(ValueError, match="call 2 failed"):
        list(sqrtm_module._schedule(lambda j: call(j, fail=(2, 5)), 8, POOL_N))
    assert busy == 0
    assert [get() for get, _ in controls] == before
    results = sqrtm_module._schedule(call, 8, POOL_N)
    assert next(results) == 0
    results.close()
    assert busy == 0
    assert [get() for get, _ in controls] == before
