"""Checks of the program's outputs against references made apart from it.

Every tolerance follows from the unit roundoff u, the dimension n and the
conditioning of the problem, never from what the program printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.special

from inputs import Problem

U = 2.0 ** -53
KAPPA_HEADER = "log10_abs_z,arg_z,kappa"
KAPPA_DELTA = 1e-16  # the contour subcommand's target accuracy


@dataclass(frozen=True)
class Verdict:
    """``error`` is the relative error of the principal output (A^{1/2},
    or the kappa column), in the Frobenius or 2-norm."""

    ok: bool
    error: float
    detail: str = ""


def _norm(x: np.ndarray) -> float:
    """Frobenius norm that neither overflows nor underflows: the entries
    are scaled by a power of two before numpy squares them."""
    big = float(np.max(np.abs(x))) if x.size else 0.0
    if big == 0.0 or not math.isfinite(big):
        return big
    scale = 2.0 ** -math.frexp(big)[1]
    return float(np.linalg.norm(x * scale)) / scale


def _rel(x: np.ndarray, ref: np.ndarray) -> float:
    return _norm(x - ref) / _norm(ref)


def root_tolerance(p: Problem) -> float:
    """First-order bound on the relative error of a computed A^{1/2}.

    Rounding A = S B S^{-1} to floating point, and a backward-stable
    solve, each perturb A by about n u cond_s lam_max. The Frechet
    derivative of the root has norm at most cond_s^2 / sep, and
    ||A^{1/2}|| >= sqrt(lam_max). The cond_s term covers the rounding of
    the closed-form root itself.
    """
    n = p.A.shape[0]
    return n * U * (p.cond_s ** 3 * p.lam_max / p.sep + p.cond_s) / math.sqrt(p.lam_max)


def inverse_root_tolerance(p: Problem) -> float:
    """A^{-1/2} = (A^{1/2})^{-1}, so its relative error is at most the
    root's times cond(A^{1/2}) <= cond_s^2 sqrt(lam_max / lam_min)."""
    return root_tolerance(p) * p.cond_s ** 2 * math.sqrt(p.lam_max / p.lam_min)


def check_root(p: Problem, X: np.ndarray, Xinv: np.ndarray) -> Verdict:
    """X ~ A^{1/2} and Xinv ~ A^{-1/2} against the closed-form roots, plus
    the residual ||X^2 - A|| that the error bound implies."""
    if X.shape != p.X.shape or Xinv.shape != p.X.shape:
        return Verdict(False, math.inf, f"shape {X.shape} / {Xinv.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Xinv))):
        return Verdict(False, math.inf, "non-finite entries")
    tol = root_tolerance(p)
    err = _rel(X, p.X)
    if not err <= tol:
        return Verdict(False, err, f"root error {err:.3e} > {tol:.3e}")
    tol_inv = inverse_root_tolerance(p)
    err_inv = _rel(Xinv, p.Xinv)
    if not err_inv <= tol_inv:
        return Verdict(False, err, f"inverse root error {err_inv:.3e} > {tol_inv:.3e}")
    # (X + E)^2 - A = XE + EX + E^2 with ||E|| <= tol ||X||, plus the
    # rounding of the product itself.
    n = p.A.shape[0]
    x2 = _norm(p.X) ** 2
    a = _norm(p.A)
    res = _norm(X @ X - p.A) / a
    tol_res = (2.0 * tol + tol * tol + n * U) * x2 / a
    if not res <= tol_res:
        return Verdict(False, err, f"residual {res:.3e} > {tol_res:.3e}")
    return Verdict(True, err)


def check_inverse_pair(p: Problem, X: np.ndarray, Xinv: np.ndarray) -> Verdict:
    """X Xinv ~ I, to the accuracy the two error bounds allow."""
    n = p.A.shape[0]
    gap = _norm(X @ Xinv - np.eye(n))
    tol = (root_tolerance(p) + inverse_root_tolerance(p) + n * U) * _norm(p.X) * _norm(p.Xinv)
    if not gap <= tol:
        return Verdict(False, math.inf, f"||X Xinv - I|| = {gap:.3e} > {tol:.3e}")
    return Verdict(True, 0.0)


def check_root_files(p: Problem, x_path, xinv_path) -> Verdict:
    """Matrix Market files of A^{1/2} and A^{-1/2}, read back with scipy."""
    X = np.asarray(scipy.io.mmread(x_path))
    Xinv = np.asarray(scipy.io.mmread(xinv_path))
    root = check_root(p, X, Xinv)
    if not root.ok:
        return root
    pair = check_inverse_pair(p, X, Xinv)
    return root if pair.ok else pair


def kappa_grid(alpha: float, n_r: int, n_theta: int):
    """The (log10|z|, arg z) grid of `zolosqrt contour`, row-major in |z|:
    log10|z| evenly from 2 log10(alpha) to 0, arg z at cell centres of
    (-pi, pi), so arg z of column j is minus that of column n_theta-1-j."""
    log_r = np.linspace(2.0 * math.log10(alpha), 0.0, n_r)
    theta = -math.pi + (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    return np.repeat(log_r, n_theta), np.tile(theta, n_r)


def kappa_reference(alpha: float, order: int, log_r: np.ndarray, theta: np.ndarray):
    """kappa and its tolerance at the given nodes, from scipy's R_F and K.

    kappa = (loglog(4/delta) - log log|phi|) / log(order) with
    log|phi| = pi Re(u) / K(alpha') and u = inv_sn(sqrt(z)/alpha; alpha)
    = w R_F(1 - w^2, 1 - alpha^2 w^2, 1). Nodes with |phi| <= 1 give +inf.
    A relative error of a few u in u becomes |u| / |Re u| times larger in
    log|phi|; the tolerance allows 100 u for the duplication steps.
    """
    z = 10.0 ** log_r * np.exp(1j * theta)
    root_z = np.sqrt(z)
    w = root_z / alpha
    u = w * scipy.special.elliprf((1.0 - w) * (1.0 + w),
                                  (1.0 - root_z) * (1.0 + root_z), 1.0)
    log_phi = math.pi * u.real / scipy.special.ellipkm1(alpha * alpha)
    target = math.log(math.log(4.0 / KAPPA_DELTA))
    with np.errstate(divide="ignore", invalid="ignore"):
        loglog = np.log(log_phi)
        kappa = np.where(log_phi > 0.0, (target - loglog) / math.log(order), np.inf)
        rel_log_phi = 100.0 * U * (np.abs(u) / np.abs(u.real) + 1.0)
    tol = (rel_log_phi + 4.0 * U * (abs(target) + np.abs(loglog))) / math.log(order)
    return kappa, tol


def parse_kappa_csv(text: str) -> np.ndarray:
    """Rows of (log10|z|, arg z, kappa); raises ValueError on a malformed file."""
    lines = text.splitlines()
    if not lines or lines[0] != KAPPA_HEADER:
        raise ValueError(f"header {lines[:1]!r} is not {KAPPA_HEADER!r}")
    data = np.array(",".join(lines[1:]).split(","), dtype=float) if len(lines) > 1 else np.empty(0)
    if data.size != 3 * (len(lines) - 1):
        raise ValueError("rows must have three fields")
    return data.reshape(-1, 3)


def check_kappa_csv(text: str, alpha: float, order: int, n_r: int, n_theta: int,
                    nodes: np.ndarray) -> Verdict:
    """A `zolosqrt contour` CSV: header, row count and grid order checked
    everywhere; kappa checked against scipy at ``nodes`` (flat row indices)
    and at their mirror images, where it must also agree with itself."""
    try:
        rows = parse_kappa_csv(text)
    except ValueError as exc:
        return Verdict(False, math.inf, str(exc))
    if rows.shape[0] != n_r * n_theta:
        return Verdict(False, math.inf, f"{rows.shape[0]} rows, expected {n_r * n_theta}")
    log_r, theta = kappa_grid(alpha, n_r, n_theta)
    for col, ref, label in ((0, log_r, "log10|z|"), (1, theta, "arg z")):
        if not np.all(np.abs(rows[:, col] - ref) <= 4.0 * U * np.maximum(1.0, np.abs(ref))):
            return Verdict(False, math.inf, f"{label} column is not the expected grid")
    i, j = np.divmod(nodes, n_theta)
    mirror = i * n_theta + (n_theta - 1 - j)
    both = np.concatenate([nodes, mirror])
    ref, tol = kappa_reference(alpha, order, log_r[both], theta[both])
    got = rows[both, 2]
    finite = np.isfinite(ref)
    if not np.array_equal(finite, np.isfinite(got)):
        return Verdict(False, math.inf, "kappa is infinite at different nodes than the reference")
    if not np.all(np.abs(got[finite] - ref[finite]) <= tol[finite]):
        return Verdict(False, _rel(got[finite], ref[finite]), "kappa differs from the reference")
    k = nodes.size
    sym = np.abs(got[:k] - got[k:])
    if not np.all((sym <= tol[:k] + tol[k:]) | ~finite[:k]):
        return Verdict(False, math.inf, "kappa is not symmetric under z -> conj(z)")
    return Verdict(True, _rel(got[finite], ref[finite]) if finite.any() else 0.0)
