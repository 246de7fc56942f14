"""Dense kernel tests: factorization, solves, norms, spectral estimates."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zolosqrt.linalg import (
    SingularMatrixError,
    dense,
    extreme_eigen_moduli,
    inverse,
    lu_factor,
    matmul,
    norm,
    solve,
)

U = 2.0 ** -53


def _random_complex(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _pivoted(A, piv):
    # apply the factor's row swaps to A in recorded order
    Ap = np.array(A, dtype=complex)
    for i, p in enumerate(piv):
        if p != i:
            Ap[[i, p]] = Ap[[p, i]]
    return Ap


def _unpack(F):
    L = np.tril(F.lu, -1) + np.eye(F.n)
    Uf = np.triu(F.lu)
    return L, Uf


def test_dense_accepts_square():
    a = dense([[1, 2], [3, 4]])
    assert a.dtype == complex
    assert a.shape == (2, 2)


def test_dense_rejects_nonsquare():
    with pytest.raises(ValueError):
        dense(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        dense([1.0, 2.0])


def test_dense_rejects_nonfinite():
    with pytest.raises(ValueError):
        dense([[1.0, math.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        dense([[math.inf, 0.0], [0.0, 1.0]])


def test_matmul_identity():
    A = dense([[1, 2 + 1j], [3, 4]])
    assert_allclose(matmul(A, np.eye(2)), A)
    assert_allclose(matmul(np.eye(2), A), A)


def test_matmul_diagonal():
    A = dense(np.diag([2.0, 3.0]))
    B = dense(np.diag([5.0, 7.0]))
    assert_allclose(matmul(A, B), np.diag([10.0, 21.0]))


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(np.eye(2), np.eye(3))


def test_lu_identity():
    F = lu_factor(np.eye(4))
    assert not F.singular
    assert F.det_log == 0.0
    assert np.array_equal(F.piv, np.arange(4))


def test_lu_diagonal_det():
    F = lu_factor(np.diag([2.0, 3.0]))
    assert F.det_log == pytest.approx(math.log(6.0), rel=1e-14)


def test_lu_singular_flag_no_exception():
    F = lu_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert F.singular


def test_lu_zero_matrix():
    F = lu_factor(np.zeros((3, 3)))
    assert F.singular
    assert F.det_log == -math.inf


def test_lu_reconstruction_random_50():
    rng = np.random.default_rng(7)
    A = _random_complex(50, rng)
    F = lu_factor(A)
    L, Uf = _unpack(F)
    tol = 50 * 50 * U * norm(A, "max")
    assert norm(_pivoted(A, F.piv) - L @ Uf, "max") <= tol


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), seed=st.integers(0, 2 ** 31))
def test_lu_reconstruction_small(n, seed):
    A = _random_complex(n, np.random.default_rng(seed))
    F = lu_factor(A)
    L, Uf = _unpack(F)
    tol = 50 * n * U * max(norm(A, "max"), 1.0)
    assert norm(_pivoted(A, F.piv) - L @ Uf, "max") <= tol


def test_solve_identity_factor():
    B = _random_complex(4, np.random.default_rng(3))
    F = lu_factor(np.eye(4))
    assert_allclose(solve(F, B), B)


def test_solve_left_and_right():
    rng = np.random.default_rng(5)
    A = _random_complex(6, rng) + 6 * np.eye(6)
    B = _random_complex(6, rng)
    F = lu_factor(A)
    X = solve(F, B, side="left")
    assert norm(A @ X - B, "inf") <= 1e-12 * norm(B, "inf")
    Y = solve(F, B, side="right")
    assert norm(Y @ A - B, "inf") <= 1e-12 * norm(B, "inf")


def test_solve_residual_bound():
    rng = np.random.default_rng(11)
    n = 40
    A = _random_complex(n, rng)
    B = _random_complex(n, rng)
    F = lu_factor(A)
    X = solve(F, B)
    kappa = np.linalg.cond(A)
    bound = 100 * n * U * kappa * norm(B, "inf")
    assert norm(A @ X - B, "inf") <= bound


def test_solve_rejects_singular():
    F = lu_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        solve(F, np.eye(2))


def test_solve_rejects_bad_side():
    F = lu_factor(np.eye(2))
    with pytest.raises(ValueError):
        solve(F, np.eye(2), side="up")


def test_inverse_identity():
    assert_allclose(inverse(lu_factor(np.eye(3))), np.eye(3))


def test_inverse_diagonal():
    Ainv = inverse(lu_factor(np.diag([2.0, 4.0])))
    assert_allclose(Ainv, np.diag([0.5, 0.25]), rtol=1e-15)


def test_inverse_roundtrip():
    A = _random_complex(8, np.random.default_rng(9)) + 4 * np.eye(8)
    Ainv = inverse(lu_factor(A))
    assert norm(A @ Ainv - np.eye(8), "inf") <= 1e-13


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        inverse(lu_factor(np.zeros((2, 2))))


def test_norm_values():
    assert norm(np.eye(3), "inf") == 1.0
    A = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert norm(A, "inf") == 7.0
    assert norm(A, "max") == 4.0
    assert norm(A, "fro") == pytest.approx(math.sqrt(30.0), rel=1e-15)


def test_norm_rejects_unknown_kind():
    with pytest.raises(ValueError):
        norm(np.eye(2), "two")


def test_extremes_diagonal():
    ex = extreme_eigen_moduli(np.diag([1e-4, 1.0]))
    assert ex.lo == pytest.approx(1e-4, rel=1e-3)
    assert ex.hi == pytest.approx(1.0, rel=1e-3)
    assert ex.lo_converged and ex.hi_converged


def test_extremes_identity():
    ex = extreme_eigen_moduli(np.eye(5))
    assert ex.lo == pytest.approx(1.0, rel=1e-3)
    assert ex.hi == pytest.approx(1.0, rel=1e-3)


def test_extremes_diag_4_9():
    ex = extreme_eigen_moduli(np.diag([4.0, 9.0]))
    assert ex.lo == pytest.approx(4.0, rel=1e-3)
    assert ex.hi == pytest.approx(9.0, rel=1e-3)


def test_extremes_reject_singular():
    with pytest.raises(SingularMatrixError):
        extreme_eigen_moduli(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_det_log_identity():
    assert lu_factor(np.eye(7)).det_log == 0.0


def test_det_log_homogeneity():
    rng = np.random.default_rng(17)
    n, s = 5, 3.7
    A = _random_complex(n, rng)
    base = lu_factor(A).det_log
    scaled = lu_factor(s * A).det_log
    assert scaled == pytest.approx(base + n * math.log(s), rel=1e-12)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_lapack_layer_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(1000 + n)
    A = _random_complex(n, rng)
    B = _random_complex(n, rng)
    F = lu_factor(A)
    lu, piv = scipy.linalg.lu_factor(A)
    assert np.array_equal(F.lu, lu)
    assert np.array_equal(F.piv, piv)
    assert np.array_equal(solve(F, B, "left"), scipy.linalg.lu_solve((lu, piv), B))
    assert np.array_equal(
        solve(F, B, "right"), scipy.linalg.lu_solve((lu, piv), B.T, trans=1).T)
    assert np.array_equal(
        inverse(F), scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=complex)))


def test_lu_exactly_singular_is_a_flag_not_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F = lu_factor(np.zeros((2, 2)))
    assert F.singular


def test_lu_empty_matrix_stays_off_lapack(capfd):
    F = lu_factor(np.zeros((0, 0)))
    assert not F.singular
    assert F.det_log == 0.0
    assert solve(F, np.zeros((0, 0))).shape == (0, 0)
    assert capfd.readouterr().err == ""
