"""Seeded real test matrices whose square roots are known in closed form.

Every matrix is assembled from its eigen-decomposition, so its principal
square root and inverse square root follow without calling the program:

* SPD family: A = Q diag(lam) Q^T with Q orthogonal, so
  A^{1/2} = Q diag(sqrt(lam)) Q^T.
* Nonnormal family: A = S B S^{-1}, with B block diagonal in 2x2 blocks
  [[a, b], [-b, a]] that carry the eigenvalue pair a +- ib, and
  S = U diag(sigma) V^T of prescribed condition number. A 2x2 block of
  that shape behaves like the complex number a + ib, so its principal
  root is the block of sqrt(a + ib).

Eigenvalue moduli are log-uniform on [spread, 1] with both endpoints
pinned, so every matrix of a family has the same extreme moduli and the
same alpha = sqrt(spread) whatever the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Arguments of the nonnormal eigenvalue pairs stay within +-THETA_MAX of
# the positive real axis, which keeps Re sqrt(lambda) >= cos(THETA_MAX/2)
# * sqrt(|lambda|) away from zero.
THETA_MAX = 0.45 * math.pi
# 2-norm condition number of the nonnormal eigenvector basis S.
COND_S = 4.0


@dataclass(frozen=True)
class Problem:
    """A real input with its closed-form roots and conditioning data.

    ``cond_s`` is the 2-norm condition number of the eigenvector basis
    (1 for SPD); ``sep`` is a lower bound on |sqrt(l_i) + sqrt(l_j)| over
    all eigenvalue pairs; ``lam_min`` and ``lam_max`` are the extreme
    eigenvalue moduli.
    """

    kind: str
    A: np.ndarray
    X: np.ndarray
    Xinv: np.ndarray
    cond_s: float
    sep: float
    lam_min: float
    lam_max: float

    def scaled(self, e: int) -> "Problem":
        """The problem for 4^e A, whose roots are 2^e X and 2^-e Xinv exactly."""
        s = math.ldexp(1.0, e)
        return Problem(self.kind, math.ldexp(1.0, 2 * e) * self.A, s * self.X,
                       self.Xinv / s, self.cond_s, s * self.sep,
                       math.ldexp(self.lam_min, 2 * e), math.ldexp(self.lam_max, 2 * e))


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """k values log-uniform on [lo, hi], with the first and last pinned to lo and hi."""
    v = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), k)
    v[0], v[-1] = lo, hi
    return v


def spd(rng: np.random.Generator, n: int, spread: float) -> Problem:
    """Symmetric positive definite, eigenvalues log-uniform on [spread, 1]."""
    q = _orthogonal(rng, n)
    lam = _log_uniform(rng, spread, 1.0, n)
    root = np.sqrt(lam)
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    return Problem("spd", a, (q * root) @ q.T, (q / root) @ q.T,
                   cond_s=1.0, sep=2.0 * float(root.min()), lam_min=spread, lam_max=1.0)


def _pair_blocks(z: np.ndarray) -> np.ndarray:
    """Block-diagonal real matrix with the block [[Re z, Im z], [-Im z, Re z]] per entry."""
    n = 2 * z.size
    out = np.zeros((n, n))
    i = np.arange(0, n, 2)
    out[i, i] = out[i + 1, i + 1] = z.real
    out[i, i + 1] = z.imag
    out[i + 1, i] = -z.imag
    return out


def nonnormal(rng: np.random.Generator, n: int, spread: float,
              real_extremes: bool = False) -> Problem:
    """Real nonnormal matrix with n/2 complex eigenvalue pairs whose
    moduli are log-uniform on [spread, 1].

    ``real_extremes`` puts the two pairs of extreme modulus on the
    positive real axis, as double eigenvalues spread and 1. With complex
    extreme pairs the program's spectrum estimate misses its tolerance on
    some matrices and falls back to a fixed alpha, at the cost of an
    extra iteration for whichever matrices that happens to.
    """
    if n % 2:
        raise ValueError("nonnormal inputs need an even dimension")
    r = _log_uniform(rng, spread, 1.0, n // 2)
    theta = rng.uniform(-THETA_MAX, THETA_MAX, n // 2)
    if real_extremes:
        theta[0] = theta[-1] = 0.0
    lam = r * np.exp(1j * theta)
    root = np.sqrt(lam)
    u, v = _orthogonal(rng, n), _orthogonal(rng, n)
    sigma = _log_uniform(rng, 1.0, COND_S, n)
    s = (u * sigma) @ v.T
    s_inv = (v / sigma) @ u.T

    def similar(block_diag: np.ndarray) -> np.ndarray:
        return s @ block_diag @ s_inv

    return Problem("nonnormal", similar(_pair_blocks(lam)),
                   similar(_pair_blocks(root)), similar(_pair_blocks(1.0 / root)),
                   cond_s=COND_S, sep=2.0 * float(root.real.min()),
                   lam_min=spread, lam_max=1.0)
