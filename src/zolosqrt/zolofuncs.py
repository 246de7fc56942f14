"""Rational minimax approximants of sqrt(z) on [alpha^2, 1].

Provides the partial-fraction coefficient machinery for the best
rational approximants of type (m, ell), ell in {m-1, m}, their
evaluation (h, rhat, shat), the alpha recursion that drives the
iterations built on them, the error quantities epsilon and rho, the
conformal annulus map phi, the iteration-count estimator kappa, the
Pade (alpha -> 1) limits, the equioscillation nodes, and a scalar
iteration tracer.

Coefficients are cached per (m, ell, alpha) with alpha keyed at full
precision; all functions are pure and the cache is safe for concurrent
use.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import ModulusPair, agm_K, inv_sn, jacobi_scd

_EPS = 2.0 ** -53
# 2^-511, the least alpha with alpha^2 normal; below it the Jacobi nodes
# (alpha sn/cn)^2 and the contour grid's inner radius alpha^2 underflow
_ALPHA_MIN = math.sqrt(sys.float_info.min)

__all__ = [
    "PoleHitError",
    "BranchCutError",
    "ZoloParams",
    "PartialFractionForm",
    "ScalarTrace",
    "build_partial_fraction",
    "pade_partial_fraction",
    "eval_h",
    "eval_rhat",
    "eval_shat",
    "alpha_step",
    "advance_alpha",
    "epsilon_of",
    "rho_of",
    "phi_of",
    "kappa_of",
    "equioscillation_nodes",
    "scalar_iterate",
]


class PoleHitError(ZeroDivisionError):
    """Evaluation requested exactly at a pole."""


class BranchCutError(ValueError):
    """Argument on the branch cut (-inf, 0] of the principal square root."""


@dataclass(frozen=True)
class ZoloParams:
    """Approximant selector: numerator degree m, denominator degree ell
    (ell = m-1 or m), and the interval parameter alpha in [2^-511, 1)."""

    m: int
    ell: int
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m={self.m!r} must be a positive integer")
        if self.ell not in (self.m - 1, self.m):
            raise ValueError(f"ell={self.ell!r} not in {{m-1, m}} for m={self.m}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha={self.alpha!r} outside (0, 1)")
        if self.alpha < _ALPHA_MIN:
            raise ValueError(f"alpha={self.alpha!r} is too small: alpha^2 must be a "
                             f"normal double (alpha >= {_ALPHA_MIN:.3g})")

    @property
    def order(self) -> int:
        """Convergence order m + ell + 1 of the induced iteration."""
        return self.m + self.ell + 1


@dataclass(frozen=True)
class PartialFractionForm:
    """Evaluatable form of h(z) = scale * ([1 +] sum_j residues[j]/(z + shifts[j])).

    ``all_c`` keeps the full node list c_1 < c_2 < ... < c_{m+ell}; the
    shifts are the odd-indexed entries, the even-indexed ones are the
    negated poles of 1/h.
    """

    scale: float
    has_constant_term: bool
    residues: tuple[float, ...]
    shifts: tuple[float, ...]
    all_c: tuple[float, ...]


@dataclass(frozen=True)
class ScalarTrace:
    """History of the scalar iteration f_{k+1} = f_k * rhat(z/f_k^2) at one probe.

    ``normalized_errors[k]`` is |2 a_k f_k / ((1 + a_k) sqrt(z)) - 1|,
    the relative error of the balanced square-root estimate at step k.
    ``truncated`` is set when the recursion hit a pole or overflowed.
    """

    alphas: tuple[float, ...]
    values: tuple[complex, ...]
    normalized_errors: tuple[float, ...]
    truncated: bool = False


def _residues_from_nodes(all_c: np.ndarray, m: int, ell: int) -> np.ndarray:
    """Residues a_j over the shift nodes by the classical product formula.

    a_j = prod_p (c_{2p} - c_{2j-1}) / prod_{p != j} (c_{2p-1} - c_{2j-1}),
    computed in log-magnitude plus sign so that large m and small alpha
    cannot underflow the partial products. All a_j come out positive:
    numerator and denominator acquire the same number of sign flips.
    """
    odd = all_c[0::2]  # c_1, c_3, ...: the shifts, length m
    even = all_c[1::2]  # c_2, c_4, ...: length ell
    out = np.empty(m)
    for j in range(m):
        num = even - odd[j]
        den = np.delete(odd, j) - odd[j]
        logmag = np.sum(np.log(np.abs(num))) - np.sum(np.log(np.abs(den)))
        sign = (-1.0) ** (np.count_nonzero(num < 0) + np.count_nonzero(den < 0))
        out[j] = sign * math.exp(logmag)
    return out


def _form_from_nodes(all_c: np.ndarray, m: int, ell: int,
                     zeta_min: float) -> PartialFractionForm:
    """The form of h on the nodes c_1 < ... < c_{m+ell}: residues by the
    product formula, the odd nodes as shifts, and the scale that makes
    h(1) = 1 for ell = m, or h(zeta) sqrt(zeta) = 1 at the first minimum
    zeta = zeta_min for ell = m-1 (zeta_min -> 1 in the Pade limit)."""
    residues = _residues_from_nodes(all_c, m, ell)
    shifts = all_c[0::2]
    zeta = 1.0 if ell == m else zeta_min
    s = float(np.sum(residues / (zeta + shifts)))
    scale = 1.0 / (math.sqrt(zeta) * (1.0 + s if ell == m else s))
    return PartialFractionForm(
        scale=scale,
        has_constant_term=(ell == m),
        residues=tuple(residues),
        shifts=tuple(shifts),
        all_c=tuple(all_c),
    )


@lru_cache(maxsize=512)
def _cached_form(m: int, ell: int, alpha: float) -> PartialFractionForm:
    pair = ModulusPair.from_modulus(alpha)
    kp_total = agm_K(pair, "complement")  # K(alpha')
    j = np.arange(1, m + ell + 1, dtype=float)
    sn, cn, dn = jacobi_scd(j * kp_total / (m + ell + 1), pair.swapped)
    return _form_from_nodes((alpha * sn / cn) ** 2, m, ell, (alpha / dn[0]) ** 2)


def build_partial_fraction(p: ZoloParams) -> PartialFractionForm:
    """Coefficients of h for the type-(m, ell) approximant at p.alpha.

    The nodes are c_j = (alpha * sn/cn)^2 at arguments j K(alpha')/(m+ell+1)
    with modulus alpha'; residues come from the product formula; the
    scale makes rhat touch sqrt(z) from above on [alpha^2, 1] (minimum
    normalization for ell = m-1, value 1 at z = 1 for ell = m).
    """
    return _cached_form(p.m, p.ell, p.alpha)


@lru_cache(maxsize=128)
def pade_partial_fraction(m: int, ell: int) -> PartialFractionForm:
    """The alpha -> 1 limit of build_partial_fraction.

    Nodes become tan^2(j pi / (2(m+ell+1))) and the first minimum moves
    to z = 1, so the approximant takes the value 1 at z = 1.
    """
    if ell not in (m - 1, m) or m < 1:
        raise ValueError(f"(m, ell)=({m}, {ell}) invalid: need ell in {{m-1, m}}")
    j = np.arange(1, m + ell + 1, dtype=float)
    return _form_from_nodes(np.tan(j * math.pi / (2 * (m + ell + 1))) ** 2, m, ell, 1.0)


def eval_h(pf: PartialFractionForm, z):
    """Evaluate h at complex z (vectorized). Raises PoleHitError at a shift."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    shifts = np.array(pf.shifts)
    residues = np.array(pf.residues)
    denom = z[..., np.newaxis] + shifts
    if np.any(denom == 0):
        raise PoleHitError("eval_h at a pole shift of h")
    s = np.sum(residues / denom, axis=-1)
    if pf.has_constant_term:
        s = s + 1.0
    out = pf.scale * s
    if scalar:
        return complex(out)
    return out


def _eval_h_real(pf: PartialFractionForm, z: float) -> float:
    s = 0.0
    for a, c in zip(pf.residues, pf.shifts):
        s += a / (z + c)
    if pf.has_constant_term:
        s += 1.0
    return pf.scale * s


def _form_for(m: int, ell: int, alpha: float) -> PartialFractionForm:
    # alpha == 1.0 switches to the Pade limit coefficients
    if alpha >= 1.0:
        return pade_partial_fraction(m, ell)
    return _cached_form(m, ell, alpha)


def eval_rhat(p: ZoloParams, z):
    """The approximant rhat = 1/h at complex z (vectorized).

    Raises PoleHitError where h has a zero (a pole of rhat) or where z
    hits a shift of h.
    """
    h = eval_h(build_partial_fraction(p), z)
    h_arr = np.asarray(h)
    if np.any(h_arr == 0):
        raise PoleHitError("eval_rhat at a pole (zero of h)")
    out = 1.0 / h_arr
    if np.ndim(z) == 0:
        return complex(out)
    return out


def eval_shat(p: ZoloParams, x):
    """Odd companion shat(x) = x / rhat(x^2) (vectorized)."""
    x = np.asarray(x, dtype=complex)
    out = x / eval_rhat(p, x * x)
    if x.ndim == 0:
        return complex(out)
    return out


def alpha_step(p: ZoloParams) -> float:
    """One step of the interval-parameter recursion: alpha * h(alpha^2).

    The result lies in (alpha, 1]; a rounded product above 1 is clamped
    to 1.0. Iterating it drives alpha to 1.
    """
    pf = build_partial_fraction(p)
    return min(p.alpha * _eval_h_real(pf, p.alpha * p.alpha), 1.0)


def advance_alpha(alpha: float, m: int, ell: int) -> float:
    """alpha_step with the end-game clamp: once 1 - alpha' < u the value
    is rounded to exactly 1.0, after which it stays 1.0."""
    if alpha >= 1.0:
        return 1.0
    a1 = alpha_step(ZoloParams(m, ell, alpha))
    return 1.0 if 1.0 - a1 < _EPS else a1


def epsilon_of(p: ZoloParams) -> float:
    """Minimax relative error of the balanced approximant on [alpha^2, 1],
    computed exactly from the advanced alpha: (1 - alpha_1)/(1 + alpha_1)."""
    a1 = alpha_step(p)
    return (1.0 - a1) / (1.0 + a1)


def rho_of(alpha: float) -> float:
    """Annulus radius exp(pi K(alpha)/K(alpha')); increasing in alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha={alpha!r} outside (0, 1)")
    pair = ModulusPair.from_modulus(alpha)
    return math.exp(
        math.pi * agm_K(pair, "modulus") / agm_K(pair, "complement")
    )


def _check_off_cut(z: np.ndarray) -> None:
    on_cut = (z.imag == 0) & (z.real <= 0)
    if np.any(on_cut):
        raise BranchCutError("z on the branch cut (-inf, 0]")


def phi_of(z, alpha: float):
    """Conformal map phi(z, alpha) of the slit plane onto 1 < |w| < rho.

    phi = exp(pi * invsn(sqrt(z)/alpha; alpha) / K(alpha')) for alpha in
    (0, 1); the alpha = 1 limit is (1 + sqrt(z))/(1 - sqrt(z)), which is
    exp(2 artanh sqrt(z)). Principal sqrt(z) throughout; vectorized.
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    _check_off_cut(z_arr)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha={alpha!r} outside (0, 1]")
    w = np.sqrt(z_arr)
    if alpha == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (1.0 + w) / (1.0 - w)
        out = np.where(w == 1.0, complex(np.inf, 0.0), out)
    else:
        pair = ModulusPair.from_modulus(alpha)
        u = inv_sn(w / alpha, pair)
        out = np.exp(math.pi * np.asarray(u) / agm_K(pair, "complement"))
    if scalar:
        return complex(out)
    return out


def _kappa_values(abs_phi: np.ndarray, order: int, delta: float) -> np.ndarray:
    """kappa from |phi|; |phi| <= 1 maps to +inf (probe does not converge)."""
    ll_target = math.log(math.log(4.0 / delta))
    with np.errstate(divide="ignore", invalid="ignore"):
        logphi = np.log(abs_phi)
        out = (ll_target - np.log(logphi)) / math.log(order)
    out = np.where(abs_phi <= 1.0, np.inf, out)
    return out


def _kappa_guard(abs_phi, alpha: float, order: int) -> np.ndarray:
    """max(2|phi|^(-2q), 4 rho(alpha)^(-2q)) for q = order: kappa is backed
    by its asymptotic regime only where this is below 1. In the Pade limit
    alpha = 1, rho is infinite and its term drops out."""
    floor = 4.0 * rho_of(alpha) ** (-2 * order) if alpha < 1.0 else 0.0
    with np.errstate(divide="ignore", over="ignore"):
        return np.maximum(2.0 * np.asarray(abs_phi) ** (-2.0 * order), floor)


def kappa_of(z, alpha: float, p: ZoloParams, delta: float = 1e-16) -> float:
    """Estimated iteration count for probe z: the smallest k with
    4 |phi(z, alpha)|^(-order^k) below delta, i.e.
    (loglog(4/delta) - loglog|phi|) / log(order).

    Raises for probes with |phi| <= 1 (no convergence predicted).  When
    the asymptotic regime backing the estimate is not yet reached
    (_kappa_guard not below 1), the value is still returned but a
    RuntimeWarning reports the violation.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta={delta!r} outside (0, 1)")
    phi = phi_of(z, alpha)
    abs_phi = abs(phi)
    if abs_phi <= 1.0:
        raise ValueError(
            f"non-convergent probe: |phi(z, alpha)| = {abs_phi} <= 1"
        )
    guard = float(_kappa_guard(abs_phi, alpha, p.order))
    if not guard < 1.0:
        warnings.warn(
            "kappa estimate outside its validity region "
            f"(guard value {guard:.3g} >= 1); returning the formula value",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(_kappa_values(np.asarray(abs_phi), p.order, delta))


def equioscillation_nodes(p: ZoloParams) -> np.ndarray:
    """The m+ell+2 points alpha = z_0 < ... < z_{m+ell+1} = 1 where
    rhat(z^2)/z attains its extremes alternately: z_j = alpha/dn(j K(alpha')
    /(m+ell+1); alpha'). Endpoints are returned exactly."""
    pair = ModulusPair.from_modulus(p.alpha)
    kp_total = agm_K(pair, "complement")
    n1 = p.order
    j = np.arange(0, n1 + 1, dtype=float)
    _, _, dn = jacobi_scd(j * kp_total / n1, pair.swapped)
    nodes = p.alpha / dn
    nodes[0] = p.alpha
    nodes[-1] = 1.0
    return nodes


def scalar_iterate(z, p: ZoloParams, k_max: int) -> ScalarTrace:
    """Run f_{k+1} = f_k * rhat_{m,ell}(z/f_k^2, alpha_k) from f_0 = 1,
    advancing alpha_k each step, for k_max steps.

    Records alpha_k, f_k, and the normalized error of the balanced
    estimate against the principal sqrt(z). A pole hit or overflow
    truncates the trace and sets the flag.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise BranchCutError("z on the branch cut (-inf, 0]")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    sqrt_z = cmath.sqrt(z)
    alpha = p.alpha
    f = 1.0 + 0.0j
    alphas = [alpha]
    values = [f]
    errors = [abs(2.0 * alpha * f / ((1.0 + alpha) * sqrt_z) - 1.0)]
    truncated = False
    for _ in range(k_max):
        pf = _form_for(p.m, p.ell, alpha)
        try:
            # non-finite intermediates are caught below, not by numpy
            with np.errstate(all="ignore"):
                h = eval_h(pf, z / (f * f))
        except (PoleHitError, ZeroDivisionError, OverflowError):
            truncated = True
            break
        if h == 0 or not (cmath.isfinite(h) and cmath.isfinite(f / h)):
            truncated = True
            break
        f = f / h
        alpha = advance_alpha(alpha, p.m, p.ell)
        alphas.append(alpha)
        values.append(f)
        errors.append(abs(2.0 * alpha * f / ((1.0 + alpha) * sqrt_z) - 1.0))
    return ScalarTrace(
        alphas=tuple(alphas),
        values=tuple(values),
        normalized_errors=tuple(errors),
        truncated=truncated,
    )
