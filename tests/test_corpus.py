"""Generator, metric, reference-oracle, and suite-runner tests."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zolosqrt.corpus import (
    TestCase as MatrixCase,
    bench_cases,
    bench_methods,
    compute_metrics,
    emit_csv,
    gen_chebvand,
    gen_moler,
    gen_rank_one,
    gen_spd_logspectrum,
    is_hermitian,
    method_label,
    reference_sqrt_hermitian,
    run_suite,
)
from zolosqrt.linalg import lu_factor, norm
from zolosqrt.sqrtm import ConvergenceReport, IterationOptions, sqrtm_drive

U = 2.0 ** -53


def _report(iterations=0):
    return ConvergenceReport(
        iterations=iterations, reason="criterion_satisfied",
        alpha_history=(1.0,) * iterations, change_history=(0.0,) * iterations,
        residual=0.0, scale=1.0, alpha=1.0)


def _reference_ok(tc):
    n = tc.matrix.shape[0]
    res = norm(tc.reference @ tc.reference - tc.matrix, "inf") / norm(tc.matrix, "inf")
    return res <= 100 * n * U


# --------------------------------------------------------------- generators

def test_rank_one_small_case():
    tc = gen_rank_one(2)
    # w = (1,4), v = (0,1): I + w v^T puts the 4 in the (2,2) entry
    assert_allclose(tc.matrix, np.array([[1.0, 1.0], [0.0, 5.0]]))
    eigs = np.sort(np.linalg.eigvals(tc.matrix).real)
    assert_allclose(eigs, [1.0, 5.0], rtol=1e-14)


def test_rank_one_spectrum():
    n = 7
    tc = gen_rank_one(n)
    w = np.arange(1, n + 1, dtype=float) ** 2
    v = np.arange(0, n, dtype=float) ** 2
    eigs = np.sort(np.linalg.eigvals(tc.matrix).real)
    assert_allclose(eigs[:-1], np.ones(n - 1), rtol=1e-10)
    assert eigs[-1] == pytest.approx(1.0 + v @ w, rel=1e-12)


def test_rank_one_reference():
    tc = gen_rank_one(16)
    assert _reference_ok(tc)


def test_rank_one_rejects_tiny():
    with pytest.raises(ValueError):
        gen_rank_one(1)


def test_moler_small_case():
    assert_allclose(gen_moler(2).matrix, np.array([[1.0, -1.0], [-1.0, 2.0]]))


def test_moler_spd_pivots():
    for n in (5, 16, 32):
        F = lu_factor(gen_moler(n).matrix)
        assert np.all(np.diagonal(F.lu).real > 0.0)


def test_moler_reference_present_at_32():
    # lambda_min(moler) ~ 4^-n sinks under round-off near n = 24, but the
    # Cholesky factor of the integer matrix is exact, so the reference
    # still certifies the root
    tc = gen_moler(32)
    assert tc.reference is not None
    assert _reference_ok(tc)


def test_moler_unit_determinant():
    for n in (5, 16):
        assert lu_factor(gen_moler(n).matrix).det_log == pytest.approx(0.0, abs=1e-10)


def test_moler_reference():
    tc = gen_moler(16)
    assert _reference_ok(tc)


def test_chebvand_rows():
    tc = gen_chebvand(6)
    pts = np.arange(6) / 5.0
    assert_allclose(tc.matrix[0].real, np.ones(6))
    assert_allclose(tc.matrix[1].real, pts)


def test_chebvand_small_case():
    want = np.array([[1.0, 1.0, 1.0], [0.0, 0.5, 1.0], [-1.0, -0.5, 1.0]])
    assert np.array_equal(gen_chebvand(3).matrix.real, want)


def test_chebvand_degenerate():
    assert np.array_equal(gen_chebvand(1).matrix, np.ones((1, 1)))


def test_spdlog_eigenvalue_extremes():
    alpha = 1e-3
    tc = gen_spd_logspectrum(12, alpha, seed=4)
    eigs = np.linalg.eigvalsh(tc.matrix)
    assert eigs[0] == pytest.approx(alpha ** 2, rel=1e-10)
    assert eigs[-1] == pytest.approx(1.0, rel=1e-10)
    assert _reference_ok(tc)


def test_spdlog_deterministic():
    a = gen_spd_logspectrum(8, 1e-2, seed=9)
    b = gen_spd_logspectrum(8, 1e-2, seed=9)
    assert np.array_equal(a.matrix, b.matrix)


def test_spdlog_validation():
    with pytest.raises(ValueError):
        gen_spd_logspectrum(8, 1.5, seed=0)
    with pytest.raises(ValueError):
        gen_spd_logspectrum(1, 0.5, seed=0)


# ----------------------------------------------------------------- oracle

def test_reference_diagonal():
    X = reference_sqrt_hermitian(np.diag([4.0, 9.0]))
    assert_allclose(X, np.diag([2.0, 3.0]), atol=1e-14)


def test_reference_two_by_two():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    X = reference_sqrt_hermitian(A)
    s3 = math.sqrt(3.0)
    want = 0.5 * np.array([[s3 + 1.0, s3 - 1.0], [s3 - 1.0, s3 + 1.0]])
    assert_allclose(X, want, atol=1e-14)
    assert norm(X @ X - A, "inf") / norm(A, "inf") <= 1e-14


def test_reference_random_hermitian():
    rng = np.random.default_rng(31)
    M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    A = M @ M.conj().T + 8.0 * np.eye(8)
    X = reference_sqrt_hermitian(A)
    assert norm(X - X.conj().T, "max") <= 1e-12 * norm(X, "max")
    assert norm(X @ X - A, "inf") / norm(A, "inf") <= 100 * 8 * U


def test_reference_edge_orders():
    # no 0/0 warning from the empty SVD's scale, and the scalar root exact
    assert reference_sqrt_hermitian(np.zeros((0, 0))).shape == (0, 0)
    for a in (2.0, 1e-300, 3.0 + 0.0j):
        X = reference_sqrt_hermitian(np.array([[a]]))
        assert X.shape == (1, 1) and X[0, 0] == math.sqrt(a.real)


def test_reference_rejects_non_hermitian():
    with pytest.raises(ValueError):
        reference_sqrt_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_reference_rejects_indefinite():
    with pytest.raises(ValueError):
        reference_sqrt_hermitian(np.diag([1.0, -1.0]))


# ----------------------------------------------------------------- metrics

def test_metrics_identity():
    tc = MatrixCase("I", np.eye(2, dtype=complex), reference=np.eye(2, dtype=complex))
    m = compute_metrics(tc, np.eye(2, dtype=complex), _report(0))
    assert m.alpha_inf == 1.0
    assert m.kappa2_sqrt == pytest.approx(1.0, rel=1e-6)
    assert m.rel_residual == 0.0
    assert m.rel_error == 0.0
    # the Sylvester operator E -> XE + EX doubles on X = I, so the
    # sensitivity (its inverse norm) is one half
    assert m.kappa_sqrt == pytest.approx(0.5, rel=1e-6)
    assert m.iterations == 0


def test_metrics_scalar_case():
    tc = MatrixCase("d4", np.array([[4.0 + 0.0j]]))
    m = compute_metrics(tc, np.array([[2.0 + 0.0j]]), _report(1))
    assert m.alpha_inf == 1.0
    assert m.rel_residual == 0.0
    assert m.rel_error is None
    assert m.iterations == 1


def test_metrics_kappa_sqrt_skipped_for_large_n():
    n = 34
    tc = MatrixCase("big", np.eye(n, dtype=complex))
    m = compute_metrics(tc, np.eye(n, dtype=complex), _report(0))
    assert m.kappa_sqrt is None
    assert m.kappa2_sqrt == pytest.approx(1.0, rel=1e-6)


def test_metrics_kappa2_is_exact():
    # the 2-norm condition number of the computed root, from LAPACK's
    # singular values rather than a 1e-6 power estimate
    tc = gen_rank_one(16)
    X, _, rep = sqrtm_drive(tc.matrix)
    m = compute_metrics(tc, X, rep)
    assert m.kappa2_sqrt == pytest.approx(np.linalg.cond(X), rel=1e-12)


def test_metrics_error_tracks_conditioning():
    # computed roots of the seeded SPD family stay within the
    # u * kappa_sqrt envelope of the Jacobi reference
    for alpha, seed in [(1e-2, 1), (1e-5, 2)]:
        tc = gen_spd_logspectrum(16, alpha, seed=seed)
        X, _, rep = sqrtm_drive(tc.matrix,
                                IterationOptions(method="zolotarev", m=8, ell=8))
        m = compute_metrics(tc, X, rep)
        assert m.rel_error <= 100 * U * m.kappa_sqrt


# ------------------------------------------------------------ suite runner

def test_method_labels():
    assert method_label(IterationOptions(method="zolotarev", m=8, ell=8)) == "Z-(8,8)"
    assert method_label(IterationOptions(method="pade", m=4, ell=4)) == "P-(4,4)"
    assert method_label(IterationOptions(method="denman_beavers")) == "DB"


def test_run_suite_single_cell():
    tc = MatrixCase("I", np.eye(3, dtype=complex))
    rows = run_suite([tc], [IterationOptions()])
    assert len(rows) == 1
    assert rows[0].case == "I" and rows[0].method == "Z-(8,8)"
    assert rows[0].error is None
    assert rows[0].metrics.rel_residual <= 1e-14


def test_run_suite_identity_converges_immediately():
    tc = MatrixCase("I", np.eye(4, dtype=complex))
    for row in run_suite([tc], bench_methods()):
        assert row.metrics.iterations <= 1


def test_run_suite_row_count_and_order():
    cases = [MatrixCase("a", np.eye(2, dtype=complex)),
             MatrixCase("b", 4.0 * np.eye(2, dtype=complex))]
    methods = [IterationOptions(method="pade", m=1, ell=0),
               IterationOptions(method="denman_beavers")]
    rows = run_suite(cases, methods)
    assert [(r.case, r.method) for r in rows] == [
        ("a", "P-(1,0)"), ("a", "DB"), ("b", "P-(1,0)"), ("b", "DB")]


def test_run_suite_records_cell_failure():
    bad = MatrixCase("sing", np.zeros((2, 2), dtype=complex))
    good = MatrixCase("I", np.eye(2, dtype=complex))
    rows = run_suite([bad, good], [IterationOptions()])
    assert rows[0].metrics is None and rows[0].error
    assert rows[1].metrics is not None and rows[1].error is None


def test_run_suite_rejects_empty():
    with pytest.raises(ValueError):
        run_suite([], [IterationOptions()])
    with pytest.raises(ValueError):
        run_suite([MatrixCase("I", np.eye(2, dtype=complex))], [])


# ------------------------------------------------------------------ output

def test_emit_csv_header_and_formats():
    import csv
    import io

    tc = MatrixCase("I", np.eye(2, dtype=complex))
    rows = run_suite([tc], [IterationOptions()])
    text = emit_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["case", "method", "iterations", "rel_residual",
                         "rel_error", "alpha_inf", "kappa2"]
    cells = parsed[1]
    assert cells[0] == "I" and cells[1] == "Z-(8,8)"
    # six significant digits, scientific notation
    assert re.fullmatch(r"\d\.\d{5}e[+-]\d+", cells[3])
    assert cells[4] == ""  # no reference, so no rel_error


def test_emit_csv_failure_row_is_empty():
    import csv
    import io

    bad = MatrixCase("sing", np.zeros((2, 2), dtype=complex))
    text = emit_csv(run_suite([bad], [IterationOptions()]))
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[1][:2] == ["sing", "Z-(8,8)"]
    assert parsed[1][2:] == ["", "", "", "", ""]


# --------------------------------------------------------------- benchmark

def test_bench_cases_roster():
    cases = bench_cases()
    assert [tc.name for tc in cases] == [
        "A1", "moler", "chebvand", "spdlog(0.01)", "spdlog(1e-05)"]
    assert all(tc.matrix.shape == (16, 16) for tc in cases)


def test_bench_methods_roster():
    labels = [method_label(o) for o in bench_methods()]
    assert labels == ["Z-(1,0)", "Z-(4,4)", "Z-(8,8)",
                      "P-(1,0)", "P-(4,4)", "P-(8,8)", "DB"]


def test_bench_hermitian_references_attached():
    for tc in bench_cases():
        if is_hermitian(tc.matrix):
            assert tc.reference is not None
            assert _reference_ok(tc)
