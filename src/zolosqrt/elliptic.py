"""Elliptic kernel: complete integrals, Jacobi functions, Carlson R_F.

Everything here is real/complex double precision, built from scratch on
three classical tools:

* the arithmetic-geometric mean for complete elliptic integrals,
* descending Landen transformations for sn/cn/dn of real argument,
* Carlson's duplication algorithm for the symmetric integral R_F,
  which gives the complex inverse sn.

A modulus is always carried as a (k, k') pair so that quantities like
1 - k**2 never have to be reconstructed from a modulus that is itself
a rounded square root. All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 2.0 ** -53  # unit roundoff of binary64
_AGM_MAX_ITER = 64
_LANDEN_MAX_DEPTH = 24
_LANDEN_TINY = 1e-8  # modulus small enough for the circular bottom
_RF_RTOL = 1e-14
_RF_MAX_ITER = 64
# arguments are brought below this so that neither the sums nor the
# stopping radius of carlson_rf overflow
_RF_MAX_EXP = 1000

__all__ = [
    "EllipticDivergenceError",
    "ModulusPair",
    "agm_K",
    "jacobi_scd",
    "carlson_rf",
    "inv_sn",
]


class EllipticDivergenceError(ValueError):
    """Raised when a requested quantity is infinite (modulus 1)."""


@dataclass(frozen=True)
class ModulusPair:
    """An elliptic modulus k together with its complement k' = sqrt(1-k^2).

    Construct via :meth:`from_modulus` or :meth:`from_complement`, which
    store the given member exactly and derive the other one without
    cancellation. Direct construction is validated against
    k^2 + k'^2 = 1 at a few units of roundoff.
    """

    k: float
    k_prime: float

    def __post_init__(self) -> None:
        k, kp = self.k, self.k_prime
        if not (0.0 <= k <= 1.0) or not math.isfinite(k):
            raise ValueError(f"modulus k={k!r} outside [0, 1]")
        if not (0.0 <= kp <= 1.0) or not math.isfinite(kp):
            raise ValueError(f"complement k_prime={kp!r} outside [0, 1]")
        defect = abs(k * k + kp * kp - 1.0)
        if defect > 4.0 * _EPS:
            raise ValueError(
                f"inconsistent modulus pair: |k^2 + k_prime^2 - 1| = {defect:.3e}"
            )

    @classmethod
    def from_modulus(cls, k: float) -> "ModulusPair":
        k = float(k)
        if not (0.0 <= k <= 1.0):
            raise ValueError(f"modulus k={k!r} outside [0, 1]")
        return cls(k, math.sqrt((1.0 - k) * (1.0 + k)))

    @classmethod
    def from_complement(cls, k_prime: float) -> "ModulusPair":
        k_prime = float(k_prime)
        if not (0.0 <= k_prime <= 1.0):
            raise ValueError(f"complement k_prime={k_prime!r} outside [0, 1]")
        return cls(math.sqrt((1.0 - k_prime) * (1.0 + k_prime)), k_prime)

    @property
    def swapped(self) -> "ModulusPair":
        """The pair with the roles of k and k' exchanged."""
        return ModulusPair(self.k_prime, self.k)


def agm_K(mp: ModulusPair, which: str = "modulus") -> float:
    """Complete elliptic integral K of the selected modulus.

    ``which="modulus"`` gives K(k), ``which="complement"`` gives K(k').
    The AGM runs on the *other* member of the pair, so K(k') for k' very
    close to 1 is computed from the accurately stored small k and never
    touches 1 - k'^2.
    """
    if which == "modulus":
        leg = mp.k_prime
    elif which == "complement":
        leg = mp.k
    else:
        raise ValueError(f"which={which!r} not in {{'modulus', 'complement'}}")
    if leg == 0.0:
        raise EllipticDivergenceError(
            "complete elliptic integral diverges at modulus 1"
        )
    a, b = 1.0, float(leg)
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= 4.0 * _EPS * a:
            return math.pi / (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise EllipticDivergenceError("AGM failed to converge")  # pragma: no cover


def _landen_ladder(mp: ModulusPair) -> tuple[list[tuple[float, float]], float]:
    """Descend k_0 -> k_1 -> ... until k_N is tiny.

    Returns the list of child pairs (k_i, k'_i), i = 1..N, and the
    argument scale prod(1 + k_i). Each step uses the cancellation-free
    forms k_next = (k/(1+k'))^2 and 1 - k_next = 2k'/(1+k'), so the
    ladder stays accurate for k arbitrarily close to 1 as long as the
    stored complement is positive.
    """
    levels: list[tuple[float, float]] = []
    k, kp = mp.k, mp.k_prime
    scale = 1.0
    for _ in range(_LANDEN_MAX_DEPTH):
        if k <= _LANDEN_TINY:
            return levels, scale
        k_next = (k / (1.0 + kp)) ** 2
        one_minus = 2.0 * kp / (1.0 + kp)
        kp_next = math.sqrt(one_minus * (1.0 + k_next))
        levels.append((k_next, kp_next))
        scale *= 1.0 + k_next
        k, kp = k_next, kp_next
    if k <= _LANDEN_TINY:
        return levels, scale
    raise EllipticDivergenceError(
        "Landen ladder failed to converge (modulus 1?)"
    )  # pragma: no cover


def jacobi_scd(u, mp: ModulusPair):
    """Jacobi sn, cn, dn of real argument u at modulus mp.k.

    Vectorized over u. Uses descending Landen transformations down to a
    tiny modulus, circular functions at the bottom, and the Gauss
    ascending recurrences back up; dn is reconstructed per level from
    dn^2 = k'^2 + k^2 cn^2, which is a sum of nonnegative terms. The
    final (sn, cn) pair is jointly renormalized so sn^2 + cn^2 = 1 holds
    to a few units of roundoff without disturbing the sn/cn ratio.

    The only special case is k' = 0 exactly, where sn = tanh u and
    cn = dn = sech u are the limit functions themselves; for every
    positive k' the ladder is both convergent and uniformly accurate,
    including k' as small as 1e-300.
    """
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    if mp.k_prime == 0.0:
        s = np.tanh(u_arr)
        c = 1.0 / np.cosh(u_arr)
        d = c
        if scalar:
            return float(s), float(c), float(c)
        return s, c, d.copy()

    levels, scale = _landen_ladder(mp)
    u_bot = u_arr / scale
    s = np.sin(u_bot)
    c = np.cos(u_bot)
    # ascend: child (s, c) at (k_i, k'_i) -> parent values
    for k_i, kp_i in reversed(levels):
        d = np.sqrt(kp_i * kp_i + (k_i * c) ** 2)
        denom = 1.0 + k_i * s * s
        s = (1.0 + k_i) * s / denom
        c = c * d / denom
    r = np.sqrt(s * s + c * c)
    s = s / r
    c = c / r
    d = np.sqrt(mp.k_prime ** 2 + (mp.k * c) ** 2)
    if scalar:
        return float(s), float(c), float(d)
    return s, c, d


def _ldexp(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """v * 2^e for complex v, exact part by part; unlike a complex
    product it keeps the sign of a zero part."""
    out = np.empty_like(v)
    out.real = np.ldexp(v.real, e)
    out.imag = np.ldexp(v.imag, e)
    return out


def carlson_rf(x, y, z):
    """Carlson's symmetric integral R_F(x, y, z), principal branch.

    Vectorized; scalars in, scalar out. Duplication iterations shrink
    the spread of the arguments by 4 per step until a fifth-order
    series in the residuals meets a 1e-14 tolerance. At most one
    argument may be zero (two or more make the integral diverge).
    Arguments past 2^1000 in modulus are first scaled down by a power
    of 4, exactly, through the homogeneity
    R_F(4^-p x, 4^-p y, 4^-p z) = 2^p R_F(x, y, z).
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    z = np.asarray(z, dtype=complex)
    x, y, z = np.broadcast_arrays(x, y, z)
    scalar = x.ndim == 0
    x, y, z = x.copy(), y.copy(), z.copy()

    nzeros = (x == 0).astype(int) + (y == 0).astype(int) + (z == 0).astype(int)
    if np.any(nzeros >= 2):
        raise ValueError("carlson_rf diverges: two or more zero arguments")

    big = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z)))
    p = np.maximum(np.frexp(big)[1] - (_RF_MAX_EXP - 1), 0) // 2
    scaled = bool(np.any(p))
    if scaled:
        x, y, z = (_ldexp(v, -2 * p) for v in (x, y, z))

    a0 = (x + y + z) / 3.0
    q = (3.0 * _RF_RTOL) ** (-1.0 / 6.0) * np.maximum(
        np.abs(a0 - x), np.maximum(np.abs(a0 - y), np.abs(a0 - z))
    )
    a = a0.copy()
    fac = 1.0
    for _ in range(_RF_MAX_ITER):
        if not np.any(fac * q > np.abs(a)):
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        a = 0.25 * (a + lam)
        fac *= 0.25

    # X = (A0 - x0)/(4^m A_m); in the recurrence (A0 - x0)/4^m equals
    # A_m - x_m exactly, so the current values suffice.
    big_x = (a - x) / a
    big_y = (a - y) / a
    big_z = -big_x - big_y
    e2 = big_x * big_y - big_z * big_z
    e3 = big_x * big_y * big_z
    series = (
        1.0
        - e2 / 10.0
        + e3 / 14.0
        + e2 * e2 / 24.0
        - 3.0 * e2 * e3 / 44.0
    )
    out = series / np.sqrt(a)
    if scaled:
        out = _ldexp(out, -p)
    if scalar:
        return complex(out)
    return out


def inv_sn(w, mp: ModulusPair):
    """Inverse of sn on the principal branch: u with sn(u; k) = w.

    Implemented as w * R_F(1 - w^2, 1 - k^2 w^2, 1). The second argument
    is formed per element from whichever algebraically equal expression
    avoids cancellation: (1 - w)(1 + w) + (k' w)^2 is exact-grade for
    |w| near 1 (k' small), while (1 - kw)(1 + kw) is needed for kw near
    1 (w near 1/k, the far end of the map domain). Complex; vectorized.
    """
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0
    x = (1.0 - w) * (1.0 + w)
    t = (mp.k_prime * w) ** 2
    y_sum = x + t
    kw = mp.k * w
    y_prod = (1.0 - kw) * (1.0 + kw)
    cancel = np.abs(y_sum) < 0.25 * np.maximum(np.abs(x), np.abs(t))
    y = np.where(cancel, y_prod, y_sum)
    out = w * carlson_rf(x, y, np.ones_like(w))
    if scalar:
        return complex(out)
    return out
