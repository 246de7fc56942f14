"""Coupled-iteration tests: stepping, termination, and the full driver."""

import collections
import dataclasses
import math
import multiprocessing
import queue as queue_module
import sys
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies
from numpy.testing import assert_allclose

from zolosqrt import linalg as linalg_module
from zolosqrt import sqrtm as sqrtm_module
from zolosqrt.corpus import bench_cases, gen_moler, gen_spd_logspectrum, method_label
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
from zolosqrt.zolofuncs import ZoloParams, _form_for, advance_alpha, rho_of, scalar_iterate

U = 2.0 ** -53


def _state(Y, Z=None, alpha=1.0, k=0, zy_gap=math.inf):
    Y = np.asarray(Y, dtype=complex)
    if Z is None:
        Z = np.eye(Y.shape[0])
    return IterationState(Y=Y, Z=np.asarray(Z, dtype=complex), alpha_k=alpha, k=k,
                          zy_gap=zy_gap)


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
    with pytest.raises(ValueError, match="ell=8.0"):
        IterationOptions(ell=8.0)
    with pytest.raises(ValueError, match="m=True"):
        IterationOptions(m=True, ell=True)


def test_options_reject_bad_tolerances():
    with pytest.raises(ValueError):
        IterationOptions(max_iter=0)
    with pytest.raises(ValueError, match="max_iter=2.5"):
        IterationOptions(max_iter=2.5)


def test_options_accept_numpy_integers():
    # a numpy integer type solves as the Python int it equals
    A = _spd(8, 3, shift=8.0)
    opts = IterationOptions(m=np.int64(2), ell=1)
    assert method_label(opts) == "Z-(2,1)"
    X, Xinv, report = sqrtm_drive(A, opts)
    X2, Xinv2, report2 = sqrtm_drive(A, IterationOptions(m=2, ell=1))
    assert np.array_equal(X, X2) and np.array_equal(Xinv, Xinv2)
    assert report == report2


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


def _rotation_blocks(r, t):
    # 2x2 rotation-scaling blocks, one of modulus r_i and angle t_i each
    B = np.zeros((2 * len(r), 2 * len(r)))
    for i, (ri, ti) in enumerate(zip(r, t)):
        B[2 * i:2 * i + 2, 2 * i:2 * i + 2] = ri * np.array(
            [[math.cos(ti), math.sin(ti)], [-math.sin(ti), math.cos(ti)]])
    return B


def _complex_extremes_32():
    # S B S^-1 with B of 2x2 rotation-scaling blocks: every eigenvalue,
    # the extreme ones too, is one of a complex pair
    rng = np.random.default_rng(1)
    B = _rotation_blocks(np.geomspace(1e-4, 1.0, 16), rng.uniform(0.3, 1.2, 16))
    S = rng.standard_normal((32, 32)) + 6.0 * np.eye(32)
    return S @ B @ np.linalg.inv(S)


@pytest.mark.parametrize("A", [np.array([[1.0, 4.0], [-1.0, 1.0]]), _complex_extremes_32()],
                         ids=["2x2-complex-pair", "nonnormal-32"])
def test_prepare_alpha_is_exact_for_complex_extreme_pairs(A):
    # a power iteration misses its tolerance on these; the eigenvalues
    # give alpha exactly, with no warning
    lam = np.linalg.eigvals(A)
    assert np.any(lam[np.argmax(np.abs(lam))].imag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A_s, _, alpha = prepare_problem(A, IterationOptions())
    assert not np.any(A_s.imag)
    moduli = np.abs(np.linalg.eigvals(A_s.real))
    assert alpha == min(max(math.sqrt(moduli.min() / moduli.max()), 1e-12), 1.0 - 1e-8)


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
    st1 = zolo_step(st, 2, 2)
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
        st = zolo_step(st, 1, 0)
        al = st.alpha_k
        Zinv = inverse(lu_factor(st.Z))
        assert norm(Zinv - X, "inf") / norm(X, "inf") <= 1e-13


def test_zolo_step_diagonal_follows_scalar():
    zs = np.array([0.09, 0.2, 0.55, 1.0])
    p = ZoloParams(2, 1, 0.3)
    st = _state(np.diag(zs), alpha=0.3)
    for k in (1, 2):
        st = zolo_step(st, 2, 1)
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
        zolo_step(st, 1, 0)


@pytest.mark.parametrize("m, ell", [(3, 0), (0, 0), (2, 5)])
def test_zolo_step_rejects_bad_type(m, ell):
    with pytest.raises(ValueError, match="m="):
        zolo_step(_state(np.eye(2), alpha=0.3), m, ell)


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
    want = zolo_step(st, m, ell)
    assert np.array_equal(got.Y, want.Y) and np.array_equal(got.Z, want.Z)
    assert got.zy_gap == want.zy_gap
    assert got.alpha_k == want.alpha_k == 1.0


@pytest.mark.parametrize("m, ell", [(1, 0), (8, 8)])
def test_pade_step_ignores_the_states_alpha(m, ell):
    # the comparator steps at alpha = 1 whatever alpha_k the state carries
    rng = np.random.default_rng(3 * m + ell)
    Y = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    Z = np.eye(6) + 0.05 * rng.standard_normal((6, 6))
    got = pade_step(_state(Y, Z=Z, alpha=0.3, k=2), m, ell)
    want = pade_step(_state(Y, Z=Z, alpha=1.0, k=2), m, ell)
    assert np.array_equal(got.Y, want.Y) and np.array_equal(got.Z, want.Z)
    assert got.zy_gap == want.zy_gap
    assert got.alpha_k == 1.0


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
    # the change route, which only Denman-Beavers takes; it reads no zy_gap
    opts = IterationOptions(method="denman_beavers")
    prev = _state(np.eye(2), k=0)
    st = _state(np.eye(2), k=1)
    assert termination_check(st, prev, opts)[0] == "accept"


@pytest.mark.parametrize("times, want", [(0.5, "accept"), (2.0, "continue")])
@pytest.mark.parametrize("field", ["Y", "Z"])
def test_termination_denman_beavers_bound_is_b(field, times, want):
    # b = (delta/4)^(1/2) bounds the relative change of either iterate
    opts = IterationOptions(method="denman_beavers")
    b = (U * math.sqrt(2) / 4.0) ** 0.5
    prev = _state(np.eye(2), k=0)
    st = dataclasses.replace(_state(np.eye(2), k=1),
                             **{field: (1.0 + times * b) * np.eye(2)})
    decision, _, rel = termination_check(st, prev, opts)
    assert decision == want
    assert rel == (0.0 if field == "Z" else pytest.approx(times * b, rel=1e-7))


def test_termination_denman_beavers_never_accepts_a_zero_iterate():
    opts = IterationOptions(method="denman_beavers")
    for Y, Z in [(np.zeros((2, 2)), np.eye(2)), (np.eye(2), np.zeros((2, 2)))]:
        st = _state(Y, Z, k=1)
        assert termination_check(st, st, opts)[0] == "continue"


def test_termination_accept_gap_route():
    opts = IterationOptions(method="pade", m=2, ell=1)
    prev = _state(np.eye(2), k=0)
    st = _state(np.eye(2), k=1, zy_gap=0.0)
    assert termination_check(st, prev, opts)[0] == "accept"


def test_termination_continue_early():
    # large change, no usable history: the only decision is continue
    opts = IterationOptions(method="denman_beavers")
    prev = _state(np.eye(2), k=0)
    st = _state(2.0 * np.eye(2), k=1)
    assert termination_check(st, prev, opts)[0] == "continue"


@pytest.mark.parametrize("opts", [IterationOptions(method="denman_beavers"),
                                  IterationOptions(m=2, ell=1)], ids=["DB", "Z"])
def test_termination_check_writes_nothing(opts):
    A = _spd(6, 9, shift=6.0)
    A /= norm(A, "inf")
    st1 = _state(A, alpha=0.3)
    for _ in range(2):
        prev, st1 = st1, (db_step(st1) if opts.method == "denman_beavers"
                          else zolo_step(st1, opts.m, opts.ell))
    before = [(st.zy_gap, st.Y.copy(), st.Z.copy()) for st in (prev, st1)]
    first = termination_check(st1, prev, opts)
    assert termination_check(st1, prev, opts) == first
    for st, (gap, Y, Z) in zip((prev, st1), before):
        assert st.zy_gap == gap and np.array_equal(st.Y, Y) and np.array_equal(st.Z, Z)


def test_iteration_state_is_frozen():
    st = _state(np.eye(2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.k = 1


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
    assert rep.reason in ("criterion_satisfied", "max_iter")
    assert len(rep.alpha_history) == rep.iterations + rep.polish_steps
    assert len(rep.change_history) == rep.iterations + rep.polish_steps
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


def test_drive_alpha_schedule_ends_at_exactly_one():
    tc = gen_spd_logspectrum(16, 1e-5, seed=2)
    _, _, rep = sqrtm_drive(tc.matrix, IterationOptions(m=4, ell=4))
    assert rep.alpha_history[-1] == 1.0


def test_drive_leaves_singular_to_the_flag_of_its_factor():
    # eigvalsh reports |lambda|_min = 1e-17 as it is; the LU of A/s refuses A
    with pytest.raises(SingularMatrixError, match="sqrtm_drive requires nonsingular A"):
        sqrtm_drive(np.diag([1.0, 1e-17]))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, alpha", [(16, 3e-8), (64, 1e-7), (256, 1e-7)])
def test_drive_solves_nonsingular_input_with_tiny_eigenvalues(n, alpha, seed):
    # spectra [alpha^2, 1] down to 9e-16, which the LU of A/s passes: no
    # second singularity test refuses them
    tc = gen_spd_logspectrum(n, alpha, seed)
    X, _, rep = sqrtm_drive(tc.matrix)
    assert rep.reason == "criterion_satisfied"
    assert norm(X - tc.reference) / norm(tc.reference) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lo", [1e-14, 5e-15])
def test_drive_solves_nonnormal_input_with_tiny_eigenvalues(lo, seed):
    # S B S^-1 with S of condition number 2: |lambda|_min is 0.5-1.3
    # n u norm(A, inf), and the least pivot of the LU of A/s is 3.6-16
    # times its flag threshold. A block's root halves its angle.
    rng = np.random.default_rng(seed)
    r, t = np.geomspace(lo, 1.0, 16), rng.uniform(0.3, 1.2, 16)
    q1, q2 = (np.linalg.qr(rng.standard_normal((32, 32)))[0] for _ in range(2))
    S = (q1 * np.geomspace(1.0, 2.0, 32)) @ q2.T
    A, root = (S @ _rotation_blocks(*rt) @ np.linalg.inv(S)
               for rt in ((r, t), (np.sqrt(r), t / 2)))
    X, _, rep = sqrtm_drive(A)
    assert rep.reason == "criterion_satisfied"
    assert norm(X - root) / norm(root) <= 1e-8


@pytest.mark.parametrize("opts", _CHECKED, ids=_CHECKED_IDS)
def test_drive_factors_scaled_input_once_before_the_first_step(monkeypatch, opts):
    # one factor serves the singularity check
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


def test_drive_denman_beavers_inverts_only_in_its_steps(monkeypatch):
    # every inverse is one of the two each step forms
    calls = []

    def counting(F, _inverse=sqrtm_module.inverse):
        calls.append(F.n)
        return _inverse(F)

    monkeypatch.setattr(sqrtm_module, "inverse", counting)
    _, _, rep = sqrtm_drive(_spd(12, 75, shift=1.0),
                            IterationOptions(method="denman_beavers"))
    assert rep.reason == "criterion_satisfied"
    assert len(calls) == 2 * rep.iterations


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [16, 32, 64])
def test_drive_denman_beavers_accepts_graded_input_at_its_floor(n, seed):
    # graded spectra: the stopping bound must sit above DB's attainable floor
    tc = gen_spd_logspectrum(n, 1e-5, seed)
    X, _, rep = sqrtm_drive(tc.matrix, IterationOptions(method="denman_beavers"))
    assert rep.reason == "criterion_satisfied"
    assert norm(X - tc.reference) / norm(tc.reference) <= 1e-10


def test_drive_denman_beavers_accepts_moler_with_both_roots_converged():
    # X_k's change settles two steps before Y_k's on moler(16); accepting
    # on X_k's alone leaves norm(Xinv X - I) at 3.9e-7
    A = gen_moler(16).matrix
    X, Xinv, rep = sqrtm_drive(A, IterationOptions(method="denman_beavers"))
    assert rep.reason == "criterion_satisfied"
    assert norm(Xinv @ X - np.eye(16)) <= 1e-10


_NO_ROOT = {"[[-4]]": np.array([[-4.0]]), "diag(-1, 4)": np.diag([-1.0, 4.0]),
            "diag(-1, -4)": np.diag([-1.0, -4.0])}
_ALL_TYPES = _CHECKED + [IterationOptions(m=1, ell=0),
                        IterationOptions(method="pade", m=1, ell=0)]
_ALL_TYPE_IDS = _CHECKED_IDS + ["Z-(1,0)", "P-(1,0)"]


@pytest.mark.parametrize("A", list(_NO_ROOT.values()), ids=list(_NO_ROOT))
@pytest.mark.parametrize("opts", _ALL_TYPES, ids=_ALL_TYPE_IDS)
def test_drive_never_accepts_input_without_a_principal_root(opts, A):
    try:
        _, _, rep = sqrtm_drive(A, opts)
    except (SingularMatrixError, IterationAbortError):
        return
    assert rep.reason != "criterion_satisfied"


@pytest.mark.parametrize("opts", _ALL_TYPES, ids=_ALL_TYPE_IDS)
def test_drive_accepts_near_cut_input_only_at_a_small_residual(opts):
    # eigenvalues -1 +- 1e-6 i lie just off the cut, so a principal root
    # exists; a solve may fail on it but must not accept a wrong root
    A = np.array([[-1.0, 1e-6], [-1e-6, -1.0]])
    try:
        _, _, rep = sqrtm_drive(A, opts)
    except (SingularMatrixError, IterationAbortError):
        return
    if rep.reason == "criterion_satisfied":
        assert rep.residual <= 1e-8


@pytest.mark.parametrize("opts", [IterationOptions(m=2, ell=2), IterationOptions(m=4, ell=4),
                                  IterationOptions(),
                                  IterationOptions(method="pade", m=4, ell=4),
                                  IterationOptions(method="pade")],
                         ids=["Z-(2,2)", "Z-(4,4)", "Z-(8,8)", "P-(4,4)", "P-(8,8)"])
def test_drive_solves_near_cut_input(opts):
    # eigenvalues -1 +- 1e-6 i: Y's change starts near 1e-6 and grows for
    # several steps before the solve converges, so a small change that
    # fails to halve is no sign of a stall
    A = np.array([[-1.0, 1e-6], [-1e-6, -1.0]])
    _, _, rep = sqrtm_drive(A, opts)
    assert rep.reason == "criterion_satisfied"
    assert rep.residual <= 1e-14


@pytest.mark.parametrize("m, ell", [(4, 4), (4, 3)])
def test_drive_pade_accepts_moler_with_a_good_inverse_root(m, ell):
    # Y's change holds near 3e-6 for two steps while Xinv still
    # converges; the step after them meets the bound
    A = gen_moler(16).matrix
    X, Xinv, rep = sqrtm_drive(A, IterationOptions(method="pade", m=m, ell=ell))
    assert rep.reason == "criterion_satisfied"
    assert norm(Xinv @ X - np.eye(16)) <= 1e-10


def _predicted_steps(alpha, m, ell, n):
    # K: the first k whose balanced error (1 - alpha_k)/(1 + alpha_k) on
    # [alpha^2, 1] is at most u sqrt(n), from the alpha schedule alone
    k = 0
    while (1.0 - alpha) / (1.0 + alpha) > U * math.sqrt(n):
        alpha, k = advance_alpha(alpha, m, ell), k + 1
    return k


@settings(max_examples=60, deadline=None)
@given(n=strategies.integers(2, 32), a=strategies.floats(3e-7, 0.5),
       seed=strategies.integers(0, 2 ** 16), m=strategies.integers(1, 8),
       full=strategies.booleans())
def test_drive_step_count_is_predicted_by_alpha(n, a, seed, m, full):
    # the paper's predictability: on SPD spectra [a^2, 1] a solve takes at
    # most one step more than the alpha schedule needs
    ell = m if full else m - 1
    tc = gen_spd_logspectrum(n, a, seed)
    _, _, rep = sqrtm_drive(tc.matrix, IterationOptions(m=m, ell=ell))
    assert rep.reason == "criterion_satisfied"
    assert rep.iterations <= _predicted_steps(rep.alpha, m, ell, n) + 1


@settings(max_examples=60, deadline=None)
@given(n=strategies.integers(2, 32), a=strategies.floats(3e-7, 0.5),
       seed=strategies.integers(0, 2 ** 16), m=strategies.integers(2, 8),
       full=strategies.booleans())
def test_drive_polished_solve_is_accepted_within_max_iter(n, a, seed, m, full):
    # with the Newton-Schulz finish, rational and polish steps together stay
    # within max_iter and the root keeps its accuracy
    opts = IterationOptions(m=m, ell=m if full else m - 1)
    tc = gen_spd_logspectrum(n, a, seed)
    X, _, rep = sqrtm_drive(tc.matrix, opts)
    assert rep.reason == "criterion_satisfied"
    assert rep.iterations + rep.polish_steps <= opts.max_iter
    assert norm(X - tc.reference) / norm(tc.reference) <= 1e-8


def _nonnormal_64(seed):
    # bench/inputs' nonnormal kind: S B S^-1 with S of condition number 4 and
    # B of 2x2 blocks, moduli log-spaced on [1e-4, 1], angles within 0.45 pi
    rng = np.random.default_rng(seed)
    r, t = np.geomspace(1e-4, 1.0, 32), rng.uniform(-0.45 * math.pi, 0.45 * math.pi, 32)
    q1, q2 = (np.linalg.qr(rng.standard_normal((64, 64)))[0] for _ in range(2))
    S = (q1 * np.geomspace(1.0, 4.0, 64)) @ q2.T
    A, root = (S @ _rotation_blocks(*rt) @ np.linalg.inv(S)
               for rt in ((r, t), (np.sqrt(r), t / 2)))
    return A, root


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["spd", "nonnormal"])
def test_drive_default_solve_finishes_with_a_polish(kind, seed):
    if kind == "spd":
        tc = gen_spd_logspectrum(64, 1e-4, seed)
        A, root = tc.matrix, tc.reference
    else:
        A, root = _nonnormal_64(seed)
    X, Xinv, rep = sqrtm_drive(A)
    assert rep.reason == "criterion_satisfied"
    assert rep.polish_steps >= 1
    assert rep.alpha_history[-rep.polish_steps:] == (1.0,) * rep.polish_steps
    assert norm(X - root) / norm(root) <= 1e-10
    assert norm(Xinv @ X - np.eye(64), "inf") <= 1e-10


def test_drive_max_iter_caps_rational_and_polish_steps_together():
    A = gen_spd_logspectrum(64, 1e-4, seed=0).matrix
    _, _, rep = sqrtm_drive(A, IterationOptions(max_iter=2))
    assert rep.reason == "max_iter"
    assert (rep.iterations, rep.polish_steps) == (1, 1)
    assert len(rep.alpha_history) == len(rep.change_history) == 2


@pytest.mark.parametrize("opts", [IterationOptions(method="pade"),
                                  IterationOptions(method="pade", m=1, ell=0),
                                  IterationOptions(method="denman_beavers"),
                                  IterationOptions(m=1, ell=0), IterationOptions(m=1, ell=1),
                                  IterationOptions(max_iter=1)],
                         ids=["P-(8,8)", "P-(1,0)", "DB", "Z-(1,0)", "Z-(1,1)", "Z-max_iter-1"])
def test_drive_polishes_only_minimax_solves_with_two_or_more_shifts(opts):
    for tc in bench_cases():
        _, _, rep = sqrtm_drive(tc.matrix, opts)
        assert rep.polish_steps == 0


@pytest.mark.parametrize("times, want", [(0.99, "accept"), (1.01, "continue")])
def test_termination_polish_bound_is_gap_squared_at_most_delta(times, want):
    # order 2 and half the gap: b = (delta/4)^(1/2) accepts gap^2 <= delta
    opts = IterationOptions()
    gap = times * math.sqrt(U * math.sqrt(2))
    prev = _state(np.eye(2), k=1)
    st = dataclasses.replace(_state(np.eye(2), k=2, zy_gap=gap), polish=True)
    assert termination_check(st, prev, opts)[0] == want


def _scale_case(name):
    from zolosqrt.corpus import gen_moler, gen_rank_one, gen_spd_logspectrum

    return {"spdlog": lambda: gen_spd_logspectrum(32, 1e-3, seed=4),
            "moler": lambda: gen_moler(12), "A1": lambda: gen_rank_one(16)}[name]().matrix


# A1 at 4^249 overflows in the power loop.
@pytest.mark.parametrize("name, e", [(name, e) for name in ("spdlog", "moler", "A1")
                                     for e in (100, -100, 249, -249)
                                     if not (name == "A1" and abs(e) == 249)])
@pytest.mark.parametrize("opts", [IterationOptions(), IterationOptions(m=1, ell=0),
                                  IterationOptions(method="pade"),
                                  IterationOptions(method="pade", m=1, ell=0),
                                  IterationOptions(method="denman_beavers")],
                         ids=["Z-(8,8)", "Z-(1,0)", "P-(8,8)", "P-(1,0)", "DB"])
def test_drive_comparators_are_exact_under_scaling_by_powers_of_four(opts, name, e):
    A = _scale_case(name)
    X, Xinv, rep = sqrtm_drive(A, opts)
    Xs, Xinvs, reps = sqrtm_drive(4.0 ** e * A, opts)
    assert np.array_equal(Xs, 2.0 ** e * X)
    assert np.array_equal(Xinvs, 2.0 ** -e * Xinv)
    assert reps.iterations == rep.iterations


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
        st = _state(A, alpha=alpha)
        errs = []
        for _ in range(3):
            st = zolo_step(st, m, ell)
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
        st = zolo_step(st, 1, 0)
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


# the order of the pooled-path tests: they pool from it, below the order
# _POOL_MIN_N where pooling starts to pay, so that they stay quick
POOL_N = 64


@pytest.fixture
def pooled_from_pool_n(monkeypatch):
    monkeypatch.setattr(sqrtm_module, "_POOL_MIN_N", POOL_N)


@pytest.mark.usefixtures("pooled_from_pool_n")
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


# an odd order above it, not a multiple of 8
ODD_N = 2 * POOL_N + 1


# at 98, float64 row halves of a product had other bits than the whole
@pytest.mark.parametrize("n", [POOL_N, 98, ODD_N])
@pytest.mark.usefixtures("pooled_from_pool_n")
def test_drive_split_paths_reproducible(monkeypatch, n):
    # P-(8,8) runs the two LUs of determinantal scaling side by side, and
    # Z-(1,0), Z-(8,8) and P-(8,8) the two products of a step: same bits
    # at any worker count, for symmetric and nonsymmetric input
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
_PADE = IterationOptions(method="pade")


@pytest.mark.parametrize("n", [12, POOL_N])
@pytest.mark.parametrize("opts", _Z_OPTS + [_DB, _PADE,
                                              IterationOptions(method="pade", m=4, ell=4),
                                              IterationOptions(method="pade", m=1, ell=0)],
                         ids=_Z_IDS + ["DB", "P-(8,8)", "P-(4,4)", "P-(1,0)"])
@pytest.mark.usefixtures("pooled_from_pool_n")
def test_drive_minimax_runs_in_float64_on_real_input(monkeypatch, opts, n):
    # and so do Denman-Beavers and Pade, whose iterates are real on real
    # input
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


@pytest.mark.parametrize("opts", _Z_OPTS + [_PADE, _DB],
                         ids=[f"{i}-complex" for i in _Z_IDS + ["P-(8,8)", "DB"]])
def test_drive_complex_arithmetic_where_minimax_on_real_input_is_not(monkeypatch, opts):
    # every method stays complex on input with a nonzero imaginary part
    _, solver = _record_factor_dtypes(monkeypatch)
    A = _spd(12, 73, shift=1.0) + 0.01j * _spd(12, 74)
    X, Xinv, _ = sqrtm_drive(A, opts)
    assert solver and set(solver) == {np.dtype(np.complex128)}
    assert X.dtype == Xinv.dtype == np.complex128


@pytest.mark.parametrize("n", [POOL_N, ODD_N])
@pytest.mark.usefixtures("pooled_from_pool_n")
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


def _record_pooled_calls(monkeypatch):
    # (threads, peak): the threads that ran a call passed to _schedule, and
    # the most such calls running at once
    lock = threading.Lock()
    threads, busy, peak = set(), 0, [0]
    schedule = sqrtm_module._schedule

    def recording(fn, count, n):
        def call(j):
            nonlocal busy
            with lock:
                busy += 1
                peak[0] = max(peak[0], busy)
                threads.add(threading.current_thread())
            try:
                return fn(j)
            finally:
                with lock:
                    busy -= 1
        return schedule(call, count, n)

    monkeypatch.setattr(sqrtm_module, "_schedule", recording)
    return threads, peak


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.usefixtures("pooled_from_pool_n")
def test_drive_computes_on_at_most_workers_threads(monkeypatch, workers):
    # every pooled call runs on a pool thread; the calling thread only waits
    _blas_threads()
    monkeypatch.setattr(sqrtm_module, "_WORKERS", workers)
    threads, peak = _record_pooled_calls(monkeypatch)
    A = _spd(POOL_N, 53, shift=4.0)
    for _ in range(5):
        sqrtm_drive(A)
    assert threads and all(t.name.startswith("zolosqrt") for t in threads)
    assert len(threads) <= workers
    assert peak[0] <= workers


@pytest.mark.usefixtures("pooled_from_pool_n")
def test_concurrent_drives_compute_on_at_most_workers_threads(monkeypatch):
    # three solves at once share the pool's threads, and their callers
    # compute none of the pooled calls
    _blas_threads()
    monkeypatch.setattr(sqrtm_module, "_WORKERS", 2)
    threads, peak = _record_pooled_calls(monkeypatch)
    mats = [_spd(POOL_N, 54 + i, shift=4.0) for i in range(3)]
    solvers = [threading.Thread(target=sqrtm_drive, args=(A,)) for A in mats]
    for t in solvers:
        t.start()
    for t in solvers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in solvers)
    assert threads and all(t.name.startswith("zolosqrt") for t in threads)
    assert len(threads) <= 2
    assert peak[0] <= 2


@pytest.mark.parametrize("step", [
    lambda st: zolo_step(st, 8, 8),
    lambda st: pade_step(st, 8, 8, det_scaling=True),
    lambda st: zolo_step(dataclasses.replace(st, Z=0.5 * st.Z), 8, 8),
], ids=["zolo-full", "pade-det", "zolo-scaled-identity"])
def test_start_state_skips_identity_work_with_same_values(monkeypatch, step):
    # a start state (k = 0, Z = c*I) skips the product by its scaled
    # identity Z; a later state with the same Z does it
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
    assert start.zy_gap == later.zy_gap


def test_start_state_with_zero_diagonal_z_forms_the_product():
    # a permutation Z has n nonzeros and a constant (zero) diagonal, but it
    # is no scaled identity, so a start state forms Z Y as a later one does
    A = _spd(6, 62, shift=6.0)
    Z = np.roll(np.eye(6), 1, axis=1)
    start = zolo_step(_state(A, Z=Z, alpha=0.5, k=0), 2, 1)
    later = zolo_step(_state(A, Z=Z, alpha=0.5, k=1), 2, 1)
    assert np.array_equal(start.Y, later.Y) and np.array_equal(start.Z, later.Z)


def _step_by_shifted_solves(st, m, ell):
    # the update as m right and m left solves, one pair per shifted system;
    # the right solve Y F^-1 is the transposed solve F^T X^T = Y^T
    pf = _form_for(m, ell, st.alpha_k)
    P = st.Z @ st.Y
    eye = np.eye(P.shape[0])
    y_sum = z_sum = 0
    for c, r in zip(pf.shifts, pf.residues, strict=True):
        F = lu_factor(P + c * eye)
        y_sum = y_sum + r * scipy.linalg.lu_solve((F.lu, F.piv), st.Y.T, trans=1).T
        z_sum = z_sum + r * linalg_module.solve(F, st.Z)
    if pf.has_constant_term:
        y_sum, z_sum = st.Y + y_sum, st.Z + z_sum
    return pf.scale * y_sum, pf.scale * z_sum


@pytest.mark.parametrize("n", [12, ODD_N])
@pytest.mark.parametrize("m, ell", [(1, 0), (1, 1), (2, 1), (2, 2), (8, 8)])
@pytest.mark.usefixtures("pooled_from_pool_n")
def test_zolo_step_forms_h_once_as_the_shifted_solves_would(monkeypatch, m, ell, n):
    # Y h(P) and h(P) Z from the inverses match the 2m shifted solves, with
    # (ell = m) and without a constant term, real and complex, on the pool
    monkeypatch.setattr(sqrtm_module, "_WORKERS", 2)
    rng = np.random.default_rng(n + m + ell)
    mats = (_spd(n, 63, shift=1.0),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + n * np.eye(n))
    for A in mats:
        A_s, _, alpha = prepare_problem(A, IterationOptions(m=m, ell=ell))
        if not np.any(A_s.imag):
            A_s = A_s.real
        start = IterationState(Y=A_s, Z=np.eye(n, dtype=A_s.dtype), alpha_k=alpha, k=0)
        for st in (start, zolo_step(start, m, ell)):
            want_y, want_z = _step_by_shifted_solves(st, m, ell)
            got = zolo_step(st, m, ell)
            assert norm(got.Y - want_y) <= 1e-13 * norm(want_y)
            assert norm(got.Z - want_z) <= 1e-13 * norm(want_z)


@pytest.mark.parametrize("m, ell", [(1, 0), (1, 1), (2, 1), (8, 8)])
def test_zolo_step_linear_algebra_calls(monkeypatch, m, ell):
    # every type: m factorizations and inverses, then Y h(P) and h(P) Z. A
    # start state forms neither Z Y nor h(P) Z as a product
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("lu_factor", "inverse", "matmul"):
        monkeypatch.setattr(sqrtm_module, name, counted(name, getattr(sqrtm_module, name)))
    A = _spd(12, 64, shift=1.0)
    A /= norm(A)
    products = {}
    for k in (0, 1):
        calls.clear()
        zolo_step(_state(A, alpha=0.1, k=k), m, ell)
        products[k] = calls.pop("matmul", 0)
        assert calls == {"lu_factor": m, "inverse": m}
    assert products == {0: 1, 1: 3}


@pytest.mark.usefixtures("pooled_from_pool_n")
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


@pytest.mark.usefixtures("pooled_from_pool_n")
def test_pade_step_aborts_on_singular_shift_on_the_pool(monkeypatch):
    from zolosqrt.zolofuncs import pade_partial_fraction

    monkeypatch.setattr(sqrtm_module, "_WORKERS", 2)
    c = pade_partial_fraction(2, 1).shifts[1]
    st = _state(-c * np.eye(POOL_N), k=3)
    with pytest.raises(IterationAbortError, match="iteration 4, shift 2"):
        pade_step(st, 2, 1)


@pytest.mark.usefixtures("pooled_from_pool_n")
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
        sqrtm_drive(_spd(POOL_N, 31, shift=4.0), _DB)
    assert [get() for get, _ in controls] == before


@pytest.mark.usefixtures("pooled_from_pool_n")
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
@pytest.mark.usefixtures("pooled_from_pool_n")
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
@pytest.mark.usefixtures("pooled_from_pool_n")
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
