"""Each check accepts the independent reference and rejects a perturbed output."""

import math

import numpy as np
import pytest

import checks
import inputs
from zolosqrt import cli, sqrtm


@pytest.fixture(params=["spd", "nonnormal"])
def problem(request):
    rng = np.random.default_rng(7)
    if request.param == "spd":
        return inputs.spd(rng, 24, 1e-6)
    return inputs.nonnormal(rng, 24, 1e-4)


def test_closed_form_roots_are_roots(problem):
    n = problem.A.shape[0]
    assert np.allclose(problem.X @ problem.X, problem.A, rtol=0, atol=1e-12)
    assert np.allclose(problem.X @ problem.Xinv, np.eye(n), rtol=0, atol=1e-9)


def test_root_check_accepts_reference(problem):
    assert checks.check_root(problem, problem.X, problem.Xinv).ok


def test_root_check_accepts_program_output(problem):
    X, Xinv, report = sqrtm.sqrtm_drive(problem.A)
    assert report.reason == "criterion_satisfied"
    assert checks.check_root(problem, X, Xinv).ok


def test_root_check_rejects_scaled_root(problem):
    assert not checks.check_root(problem, problem.X * (1 + 1e-6), problem.Xinv).ok


def test_root_check_rejects_scaled_inverse_root(problem):
    assert not checks.check_root(problem, problem.X, problem.Xinv * (1 + 1e-6)).ok


def test_scaled_problem_keeps_its_tolerance(problem):
    big = problem.scaled(332)
    assert checks.check_root(big, big.X, big.Xinv).ok
    assert checks.root_tolerance(big) == pytest.approx(checks.root_tolerance(problem))
    assert not checks.check_root(big, big.X * (1 + 1e-6), big.Xinv).ok


def _write_pair(problem, tmp_path):
    x_path, xinv_path = tmp_path / "X.mtx", tmp_path / "X.inv.mtx"
    cli.write_matrix(problem.X, str(x_path))
    cli.write_matrix(problem.Xinv, str(xinv_path))
    return x_path, xinv_path


def test_file_check_accepts_reference(problem, tmp_path):
    assert checks.check_root_files(problem, *_write_pair(problem, tmp_path)).ok


@pytest.mark.parametrize("which", [0, 1])
def test_file_check_rejects_one_altered_entry(problem, tmp_path, which):
    paths = _write_pair(problem, tmp_path)
    lines = paths[which].read_text().splitlines()
    re, im = lines[7].split()
    lines[7] = f"{float(re) * 1.001 + 1e-3!r} {im}"
    paths[which].write_text("\n".join(lines) + "\n")
    assert not checks.check_root_files(problem, *paths).ok


ALPHA, ORDER, N_R, N_THETA = 1e-5, 17, 24, 30


def _reference_csv() -> str:
    log_r, theta = checks.kappa_grid(ALPHA, N_R, N_THETA)
    kappa, _ = checks.kappa_reference(ALPHA, ORDER, log_r, theta)
    rows = [f"{float(a)!r},{float(b)!r},{float(k)!r}" for a, b, k in zip(log_r, theta, kappa)]
    return "\n".join([checks.KAPPA_HEADER] + rows) + "\n"


ALL_NODES = np.arange(N_R * N_THETA)


def test_kappa_check_accepts_reference():
    assert checks.check_kappa_csv(_reference_csv(), ALPHA, ORDER, N_R, N_THETA, ALL_NODES).ok


def test_kappa_check_accepts_program_output(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert cli.main(["contour", "--m", "8", "--ell", "8", "--alpha", repr(ALPHA),
                     "--grid", f"{N_R}x{N_THETA}", "-o", str(out)]) == 0
    verdict = checks.check_kappa_csv(out.read_text(), ALPHA, ORDER, N_R, N_THETA, ALL_NODES)
    assert verdict.ok, verdict.detail
    assert 0 < verdict.error < 1e-12


def test_kappa_check_rejects_two_swapped_rows():
    lines = _reference_csv().splitlines()
    lines[5], lines[6] = lines[6], lines[5]
    text = "\n".join(lines) + "\n"
    assert not checks.check_kappa_csv(text, ALPHA, ORDER, N_R, N_THETA, ALL_NODES).ok


def test_kappa_check_rejects_missing_row():
    text = "\n".join(_reference_csv().splitlines()[:-1]) + "\n"
    assert not checks.check_kappa_csv(text, ALPHA, ORDER, N_R, N_THETA, ALL_NODES).ok


def test_kappa_check_rejects_perturbed_kappa():
    lines = _reference_csv().splitlines()
    a, b, k = lines[100].split(",")
    lines[100] = f"{a},{b},{float(k) * (1 + 1e-6)!r}"
    text = "\n".join(lines) + "\n"
    assert not checks.check_kappa_csv(text, ALPHA, ORDER, N_R, N_THETA, ALL_NODES).ok


def test_kappa_reference_is_symmetric_in_arg_z():
    log_r, theta = checks.kappa_grid(ALPHA, N_R, N_THETA)
    kappa, tol = checks.kappa_reference(ALPHA, ORDER, log_r, theta)
    grid, tol = kappa.reshape(N_R, N_THETA), tol.reshape(N_R, N_THETA)
    assert np.all(np.abs(grid - grid[:, ::-1]) <= tol + tol[:, ::-1])
    assert math.isfinite(float(grid.max()))
