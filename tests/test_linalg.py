"""Dense kernel tests: factorization, solves, norms, spectral estimates."""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zolosqrt.linalg import (
    _POWER_SEED,
    SingularMatrixError,
    dense,
    extreme_eigen_moduli,
    inverse,
    lu_factor,
    matmul,
    norm,
    solve,
    spectral_radius_estimate,
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
    X = solve(F, B)
    assert norm(A @ X - B, "inf") <= 1e-12 * norm(B, "inf")


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


@pytest.mark.parametrize("tiny", [1e-17, 1e-300])
def test_extremes_report_a_tiny_modulus(tiny):
    # only an exact zero raises; lu_factor's flag decides "singular"
    assert extreme_eigen_moduli(np.diag([tiny, 1.0])) == (tiny, 1.0)


def _eigen_cases():
    # (A, the LAPACK driver it takes, the dtype that driver sees)
    rng = np.random.default_rng(41)
    M = rng.standard_normal((12, 12))
    C = _random_complex(12, rng)
    sym = M @ M.T + np.eye(12)
    near = sym.copy()
    near[0, 1] = np.nextafter(near[0, 1], np.inf)  # Hermitian only to rounding
    real, cplx = np.dtype(float), np.dtype(complex)
    return {
        "real-symmetric": (sym, "eigvalsh", real),
        "complex-hermitian": (C @ C.conj().T + np.eye(12), "eigvalsh", cplx),
        "real-hermitian-to-rounding": (near, "eigvals", real),
        "real-nonnormal": (M + 4.0 * np.eye(12), "eigvals", real),
        "real-stored-as-complex": ((M + 4.0 * np.eye(12)).astype(complex), "eigvals", real),
        "complex-nonnormal": (C + 4.0 * np.eye(12), "eigvals", cplx),
    }


@pytest.mark.parametrize("case", list(_eigen_cases()))
def test_extremes_choose_the_lapack_solver(monkeypatch, case):
    # eigvalsh reads one triangle, so only exactly Hermitian input takes it
    A, solver, dtype = _eigen_cases()[case]
    called = []
    for name in ("eigvalsh", "eigvals"):
        def recording(M, _eig=getattr(np.linalg, name), _name=name):
            called.append((_name, M.dtype))
            return _eig(M)

        monkeypatch.setattr(np.linalg, name, recording)
    ex = extreme_eigen_moduli(A)
    monkeypatch.undo()
    assert called == [(solver, dtype)]
    moduli = np.abs(np.linalg.eigvals(A))
    assert ex.lo == pytest.approx(moduli.min(), rel=1e-12)
    assert ex.hi == pytest.approx(moduli.max(), rel=1e-12)


def test_spectral_radius_estimate():
    assert spectral_radius_estimate(np.diag([4.0, 9.0])) == pytest.approx(9.0, rel=1e-3)
    assert spectral_radius_estimate(np.zeros((3, 3))) == 0.0


def _power_loop_with_np_norm(A):
    # the power loop with np.linalg.norm for |A v|: (estimate, steps taken)
    A = np.asarray(A, dtype=complex)
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    v = v / np.linalg.norm(v)
    est = 0.0
    for step in range(1, 201):
        w = A @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        prev, est = est, nw
        if abs(est - prev) <= 1e-3 * est:
            break
        v = w / nw
    return est, step


def _rotation_pair(n):
    # a nonnormal matrix whose dominant eigenvalues are the pair 0.9 e^(+-i):
    # |A v| oscillates as v turns, so the loop never settles
    B = np.diag(np.linspace(0.1, 0.5, n))
    B[:2, :2] = 0.9 * np.array([[math.cos(1.0), math.sin(1.0)],
                                [-math.sin(1.0), math.cos(1.0)]])
    S = np.eye(n) + np.triu(np.full((n, n), 3.0), 1)
    return S @ B @ np.linalg.inv(S)


@pytest.mark.parametrize("case", ["real", "complex", "zero", "complex-pair"])
def test_spectral_radius_estimate_keeps_np_norm_bits(case):
    # a last-bit change in one |A v| moves the estimate on some matrices
    # only, so the random cases take several of each order
    rng = np.random.default_rng(29)
    mats = {"real": [rng.standard_normal((n, n)) for n in (7, 16, 32) * 4],
            "complex": [_random_complex(n, rng) for n in (7, 16, 32) * 4],
            "zero": [np.zeros((5, 5))],
            "complex-pair": [_rotation_pair(8)]}[case]
    for A in mats:
        est, steps = _power_loop_with_np_norm(A)
        got = spectral_radius_estimate(A)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(est).tobytes()
    if case == "complex-pair":
        assert steps == 200


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
    assert np.array_equal(solve(F, B), scipy.linalg.lu_solve((lu, piv), B))
    assert np.array_equal(
        inverse(F), scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=complex)))


@pytest.mark.parametrize("n", [1, 5, 64])
def test_lapack_layer_matches_scipy_bit_for_bit_in_float64(n):
    # float64 operands stay on dgetrf/dgetrs, as scipy's wrappers do
    rng = np.random.default_rng(2000 + n)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    F = lu_factor(A)
    lu, piv = scipy.linalg.lu_factor(A)
    assert F.lu.dtype == np.float64
    assert np.array_equal(F.lu, lu)
    assert np.array_equal(F.piv, piv)
    left, inv = solve(F, B), inverse(F)
    assert left.dtype == inv.dtype == np.float64
    assert np.array_equal(left, scipy.linalg.lu_solve((lu, piv), B))
    assert np.array_equal(inv, scipy.linalg.lu_solve((lu, piv), np.eye(n)))
    # validated input stays complex whatever the kernels run in
    assert dense(A).dtype == np.complex128


def test_real_factor_solves_complex_rhs_in_complex():
    rng = np.random.default_rng(33)
    A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    B = _random_complex(6, rng)
    F = lu_factor(A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = solve(F, B)
    assert X.dtype == np.complex128
    assert norm(A @ X - B) <= 100 * 6 * U * norm(A) * norm(X)


def test_threads_sharing_one_factor_solve_as_one_thread_does():
    # getrs shifts the pivot array it is given in place for the call, so
    # two threads passing the factor's own pivots corrupted each other's
    # solves (and the heap)
    rng = np.random.default_rng(256)
    A, B = _random_complex(256, rng), _random_complex(256, rng)
    F = lu_factor(A)
    piv = F.piv.copy()
    want_inv, want_solve = inverse(F), solve(F, B)
    calls = [lambda: inverse(F), lambda: solve(F, B)] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(20):
                got = list(pool.map(lambda call: call(), calls, timeout=60))
                assert all(np.array_equal(g, want_inv) for g in got[::2])
                assert all(np.array_equal(g, want_solve) for g in got[1::2])
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(F.piv, piv)


def test_lu_exactly_singular_is_a_flag_not_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F = lu_factor(np.zeros((2, 2)))
    assert F.singular


def test_lu_flag_contract():
    # the flag is set at or below n*u*norm(A, inf) (here 2u * 1), and on
    # an exact zero pivot even when a NaN row makes that threshold NaN
    at = 2.0 * U
    assert lu_factor(np.diag([1.0, at])).singular
    assert not lu_factor(np.diag([1.0, np.nextafter(at, 1.0)])).singular
    assert lu_factor(np.diag([1.0, 0.0])).singular
    assert lu_factor(np.diag([1.0, 0.0, np.nan])).singular
    assert not lu_factor(np.zeros((0, 0))).singular
    F = lu_factor(np.array([[2, 1], [1, 3]]))
    assert F.lu.dtype == np.complex128 and not F.singular


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_inverse_results_do_not_share_storage(dtype):
    F = lu_factor(np.diag([2.0, 4.0, 8.0]).astype(dtype))
    first = inverse(F)
    assert first.dtype == dtype and first.flags.writeable
    first[:] = 7.0
    assert np.array_equal(inverse(F), np.diag([0.5, 0.25, 0.125]))
    assert inverse(lu_factor(np.zeros((0, 0)))).shape == (0, 0)


def test_lu_empty_matrix_stays_off_lapack(capfd):
    F = lu_factor(np.zeros((0, 0)))
    assert not F.singular
    assert F.det_log == 0.0
    assert solve(F, np.zeros((0, 0))).shape == (0, 0)
    assert capfd.readouterr().err == ""
