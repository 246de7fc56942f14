"""Tests for the minimax approximant machinery: partial fractions, the
alpha recursion, error and rate quantities, the conformal map, and the
scalar iteration."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zolosqrt.zolofuncs import (
    _residues_from_nodes,
    BranchCutError,
    PoleHitError,
    ZoloParams,
    alpha_step,
    advance_alpha,
    build_partial_fraction,
    epsilon_of,
    equioscillation_nodes,
    eval_h,
    eval_rhat,
    eval_shat,
    kappa_of,
    pade_partial_fraction,
    phi_of,
    rho_of,
    scalar_iterate,
)

U = 2.0 ** -53

# frozen oracle values (AGM / quadrature cross-checks, 50-digit arithmetic)
RHO_HALF = 11.655591214722818
EPS_10_HALF = 0.029437251522859656
KAPPA_10_HALF = 3.9603599839312857


def test_params_validation():
    with pytest.raises(ValueError):
        ZoloParams(0, 0, 0.5)
    with pytest.raises(ValueError):
        ZoloParams(3, 1, 0.5)  # ell must be m-1 or m
    with pytest.raises(ValueError):
        ZoloParams(2, 1, 0.0)
    with pytest.raises(ValueError):
        ZoloParams(2, 1, 1.0)
    assert ZoloParams(4, 3, 0.1).order == 8


def test_build_newton_closed_form():
    # h(z) = 2 sqrt(a) / (z + a) for type (1,0)
    a = 0.37
    pf = build_partial_fraction(ZoloParams(1, 0, a))
    assert not pf.has_constant_term
    assert len(pf.shifts) == 1 and len(pf.residues) == 1
    assert pf.shifts[0] == pytest.approx(a, rel=1e-13)
    assert pf.scale * pf.residues[0] == pytest.approx(2.0 * math.sqrt(a), rel=1e-13)


@pytest.mark.parametrize("m,ell,alpha", [
    (1, 0, 0.5), (2, 1, 1e-2), (4, 3, 1e-2), (8, 7, 1e-8),
    (1, 1, 0.9), (2, 2, 1e-2), (4, 4, 0.3), (8, 8, 1e-5),
])
def test_build_coefficient_structure(m, ell, alpha):
    pf = build_partial_fraction(ZoloParams(m, ell, alpha))
    assert pf.has_constant_term == (ell == m)
    assert len(pf.shifts) == m
    assert len(pf.residues) == m
    assert len(pf.all_c) == m + ell
    assert all(c > 0 for c in pf.all_c)
    assert all(b > a for a, b in zip(pf.all_c, pf.all_c[1:]))
    assert all(r > 0 for r in pf.residues)
    # shifts are the odd-indexed nodes
    assert pf.shifts == pf.all_c[::2]


def test_build_pade_limit_shifts():
    pf = build_partial_fraction(ZoloParams(1, 1, 1.0 - 1e-6))
    assert pf.shifts[0] == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert pf.all_c[1] == pytest.approx(3.0, rel=1e-2)


def test_eval_h_newton_at_alpha():
    a = 0.29
    pf = build_partial_fraction(ZoloParams(1, 0, a))
    assert complex(eval_h(pf, a)) == pytest.approx(a ** -0.5, rel=1e-13)


def test_eval_h_normalized_maximum_is_one():
    # max over [alpha^2, 1] of h(z) sqrt(z) is exactly the normalization
    for m, ell in [(2, 1), (4, 3), (3, 3)]:
        a = 0.05
        pf = build_partial_fraction(ZoloParams(m, ell, a))
        z = np.linspace(a * a, 1.0, 20001)
        vals = eval_h(pf, z).real * np.sqrt(z)
        # the grid straddles the interior maxima, so it undershoots slightly
        assert np.max(vals) <= 1.0 + 1e-12
        assert np.max(vals) >= 1.0 - 1e-8


def test_eval_h_conjugate_symmetry():
    pf = build_partial_fraction(ZoloParams(3, 2, 0.2))
    z = 0.3 + 0.7j
    assert complex(eval_h(pf, np.conj(z))) == pytest.approx(
        np.conj(complex(eval_h(pf, z))), rel=1e-14)


def test_eval_h_pole_hit():
    pf = build_partial_fraction(ZoloParams(2, 1, 0.3))
    with pytest.raises(PoleHitError):
        eval_h(pf, -pf.shifts[0])


def test_eval_rhat_newton_closed_form():
    a = 0.41
    p = ZoloParams(1, 0, a)
    expect = (math.sqrt(a) + a ** 1.5) / 2.0
    assert complex(eval_rhat(p, a * a)) == pytest.approx(expect, rel=1e-13)


def test_eval_rhat_dominates_sqrt_on_interval():
    p = ZoloParams(4, 3, 1e-2)
    z = np.linspace(1e-4, 1.0, 10000)
    ratio = eval_rhat(p, z).real / np.sqrt(z)
    assert np.min(ratio) >= 1.0 - 1e-12
    eps = epsilon_of(p)
    assert np.max(ratio) <= (1.0 + eps) / (1.0 - eps) + 1e-12


def test_eval_rhat_tends_to_one_at_unit_argument():
    assert complex(eval_rhat(ZoloParams(3, 3, 1.0 - 1e-6), 1.0)) == pytest.approx(
        1.0, abs=1e-6)


def test_eval_shat_balanced_value_at_alpha():
    p = ZoloParams(2, 2, 0.1)
    eps = epsilon_of(p)
    assert complex(eval_shat(p, p.alpha)) == pytest.approx(
        (1.0 - eps) / (1.0 + eps), rel=1e-12)


def test_eval_shat_odd():
    p = ZoloParams(2, 1, 0.2)
    x = 0.4 + 0.1j
    assert complex(eval_shat(p, -x)) == pytest.approx(
        -complex(eval_shat(p, x)), rel=1e-14)


def test_eval_shat_sup_on_interval_is_one():
    p = ZoloParams(3, 2, 0.05)
    x = np.linspace(0.05, 1.0, 10000)
    vals = np.abs(eval_shat(p, x))
    assert np.max(vals) >= 1.0 - 1e-8  # grid undershoots the true sup
    assert np.all(vals <= 1.0 + 1e-10)


def test_alpha_step_newton_value():
    assert alpha_step(ZoloParams(1, 0, 0.25)) == pytest.approx(0.8, rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_alpha_step_newton_formula(a):
    expect = 2.0 / (math.sqrt(a) + 1.0 / math.sqrt(a))
    assert alpha_step(ZoloParams(1, 0, a)) == pytest.approx(expect, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    dl=st.integers(min_value=0, max_value=1),
    a=st.floats(min_value=1e-8, max_value=1.0 - 1e-8),
)
def test_alpha_step_moves_toward_one(m, dl, a):
    ell = m - 1 + dl
    if ell < 0:
        ell = 0
    out = alpha_step(ZoloParams(m, ell, a))
    # the raw step can overshoot 1 by an ulp; advance_alpha does the clamping
    assert out > a
    assert out <= 1.0 + 4e-16


def test_advance_alpha_clamps_at_one():
    assert advance_alpha(1.0, 2, 2) == 1.0
    # once within one ulp of 1 the schedule parks at exactly 1
    # (1 - 1e-17 rounds to 1 itself, so the largest double below 1 is used)
    assert advance_alpha(math.nextafter(1.0, 0.0), 2, 1) == 1.0


@pytest.mark.parametrize("m, ell, ulps", [(1, 0, 1), (1, 1, 1), (4, 4, 1), (6, 5, 2), (7, 7, 2)])
def test_advance_alpha_clamps_where_rounding_stalls(m, ell, ulps):
    # alpha_step maps 1 - ulps*2^-53 to itself for these types; the clamp
    # takes 1 - alpha' == u and an alpha' that does not rise, so the
    # schedule does not stall there
    a = 1.0 - ulps * 2.0 ** -53
    assert alpha_step(ZoloParams(m, ell, a)) == a
    assert advance_alpha(a, m, ell) == 1.0


@pytest.mark.parametrize("m", range(1, 13))
@pytest.mark.parametrize("dl", [0, 1])
def test_advance_alpha_reaches_one(m, dl):
    for a in np.geomspace(1e-12, 1.0 - 1e-8, 50):
        alpha = float(a)
        for _ in range(10):
            alpha = advance_alpha(alpha, m, m - dl)
        assert alpha == 1.0


def test_epsilon_frozen_value():
    assert epsilon_of(ZoloParams(1, 0, 0.5)) == pytest.approx(
        EPS_10_HALF, rel=1e-13)


def test_epsilon_minimax_bound():
    for m, ell in [(1, 0), (2, 1), (2, 2), (4, 3)]:
        for a in (0.1, 0.3, 0.5):
            p = ZoloParams(m, ell, a)
            eps = epsilon_of(p)
            bound = 4.0 * rho_of(a) ** -(m + ell + 1)
            # asymptotic equality: the ratio approaches 1 from below but
            # round-off can push it a few 1e-9 past it at higher orders
            assert eps <= bound * (1.0 + 1e-6)
            assert eps >= 0.5 * bound


def test_epsilon_vanishes_toward_alpha_one():
    vals = [epsilon_of(ZoloParams(2, 1, a)) for a in (0.9, 0.99, 0.999)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-9


def test_rho_frozen_values():
    assert rho_of(2.0 ** -0.5) == pytest.approx(math.exp(math.pi), rel=1e-13)
    assert rho_of(0.5) == pytest.approx(RHO_HALF, rel=1e-13)


def test_rho_increasing():
    # the interval [alpha^2, 1] shrinks as alpha grows, so the annulus widens
    a = np.linspace(0.01, 0.99, 50)
    vals = [rho_of(x) for x in a]
    assert all(b > a_ for a_, b in zip(vals, vals[1:]))


def test_phi_at_interval_endpoint_equals_rho():
    for a in (0.1, 0.5, 0.9):
        assert abs(complex(phi_of(a * a, a))) == pytest.approx(
            rho_of(a), rel=1e-12)


def test_phi_modulus_rho_on_whole_interval():
    a = 0.3
    z = np.linspace(a * a, 1.0, 201)
    assert_allclose(np.abs(phi_of(z, a)), rho_of(a), rtol=1e-11)


def test_phi_tends_to_one_at_branch_cut():
    for z in (-1.0 + 1e-8j, -1.0 - 1e-8j):
        mag = abs(complex(phi_of(z, 0.5)))
        assert 1.0 < mag < 1.0 + 1e-6


def test_phi_conjugate_symmetry():
    z = 0.2 + 1.4j
    assert abs(complex(phi_of(np.conj(z), 0.5))) == pytest.approx(
        abs(complex(phi_of(z, 0.5))), rel=1e-13)


def test_phi_branch_cut_rejected():
    with pytest.raises(BranchCutError):
        phi_of(-1.0, 0.5)
    with pytest.raises(BranchCutError):
        phi_of(-0.25 + 0.0j, 0.5)


def test_phi_pade_limit_closed_form():
    z = 0.3 + 0.4j
    w = cmath.sqrt(z)
    expect = cmath.exp(2.0 * cmath.atanh(w))
    assert complex(phi_of(z, 1.0)) == pytest.approx(expect, rel=1e-12)


def test_kappa_frozen_interval_value():
    # on [alpha^2, 1] the map modulus is rho, so kappa is z-independent
    val = kappa_of(0.7, 0.5, ZoloParams(1, 0, 0.5), delta=1e-16)
    assert val == pytest.approx(KAPPA_10_HALF, rel=1e-12)
    assert math.ceil(val) == 4


def test_kappa_decreasing_in_map_modulus():
    p = ZoloParams(2, 2, 0.5)
    inside = kappa_of(0.7, 0.5, p)         # |phi| = rho
    outside = kappa_of(100.0, 0.5, p)      # far probe, smaller |phi|
    assert abs(complex(phi_of(100.0, 0.5))) < rho_of(0.5)
    assert outside > inside


def test_kappa_half_annulus_boundary_probe():
    val = kappa_of(1e-5j, 1e-5, ZoloParams(8, 8, 1e-5))
    assert math.ceil(val) <= 2


def test_kappa_validates_delta():
    with pytest.raises(ValueError):
        kappa_of(0.5, 0.5, ZoloParams(1, 0, 0.5), delta=2.0)


def test_kappa_warns_outside_validity_region():
    with pytest.warns(RuntimeWarning):
        kappa_of(-1.0 + 1e-8j, 0.5, ZoloParams(1, 0, 0.5))


def test_pade_newton_form():
    pf = pade_partial_fraction(1, 0)
    assert not pf.has_constant_term
    assert len(pf.shifts) == 1
    assert pf.shifts[0] == pytest.approx(1.0, rel=1e-15)
    assert pf.scale * pf.residues[0] == pytest.approx(2.0, rel=1e-14)


def test_pade_1_1_nodes():
    pf = pade_partial_fraction(1, 1)
    assert pf.shifts[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert pf.all_c[1] == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("m,ell", [(1, 0), (2, 1), (2, 2), (4, 4), (8, 7)])
def test_pade_normalized_at_one(m, ell):
    pf = pade_partial_fraction(m, ell)
    assert complex(eval_h(pf, 1.0)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("m,ell", [(2, 1), (3, 3)])
def test_pade_is_coefficientwise_alpha_limit(m, ell):
    pf_lim = pade_partial_fraction(m, ell)
    pf = build_partial_fraction(ZoloParams(m, ell, 1.0 - 1e-6))
    for got, want in zip(pf.shifts, pf_lim.shifts):
        assert got == pytest.approx(want, rel=1e-2)


@pytest.mark.parametrize("m,ell", [(1, 1), (2, 2)])
def test_pade_limit_monotone_in_alpha(m, ell):
    pf_lim = pade_partial_fraction(m, ell)
    discrepancies = []
    for a in (0.9, 0.99, 0.999, 1.0 - 1e-6):
        pf = build_partial_fraction(ZoloParams(m, ell, a))
        discrepancies.append(max(
            abs(got - want) for got, want in zip(pf.shifts, pf_lim.shifts)))
    assert all(b < a for a, b in zip(discrepancies, discrepancies[1:]))
    assert discrepancies[-1] <= 1e-3


def _residues_per_shift(all_c, m, ell):
    # the product formula one shift at a time, the bits the broadcast must keep
    odd, even = all_c[0::2], all_c[1::2]
    out = np.empty(m)
    for j in range(m):
        num = even - odd[j]
        den = np.delete(odd, j) - odd[j]
        logmag = np.sum(np.log(np.abs(num))) - np.sum(np.log(np.abs(den)))
        sign = (-1.0) ** (np.count_nonzero(num < 0) + np.count_nonzero(den < 0))
        out[j] = sign * math.exp(logmag)
    return out


@pytest.mark.parametrize("m,ell", [(1, 0), (1, 1), (2, 1), (2, 2), (4, 4), (8, 7),
                                   (8, 8), (16, 16)])
def test_residues_match_the_per_shift_formula_bit_for_bit(m, ell):
    nodes = [np.array(build_partial_fraction(ZoloParams(m, ell, float(a))).all_c)
             for a in np.geomspace(1e-12, 0.999, 40)]
    nodes.append(np.array(pade_partial_fraction(m, ell).all_c))
    for all_c in nodes:
        got = _residues_from_nodes(all_c, m, ell)
        assert got.dtype == np.float64
        assert np.array_equal(got, _residues_per_shift(all_c, m, ell))


def test_equioscillation_node_frame():
    p = ZoloParams(4, 3, 1e-2)
    nodes = equioscillation_nodes(p)
    assert len(nodes) == p.order + 1
    assert nodes[0] == p.alpha
    assert nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)


def test_equioscillation_alternation():
    p = ZoloParams(4, 3, 1e-2)
    eps = epsilon_of(p)
    nodes = equioscillation_nodes(p)
    vals = eval_rhat(p, nodes ** 2).real / nodes
    lo, hi = 1.0, (1.0 + eps) / (1.0 - eps)
    # the deviation is +eps at the left endpoint, then alternates
    for j, v in enumerate(vals):
        want = hi if j % 2 == 0 else lo
        assert v == pytest.approx(want, abs=1e-10)


def test_scalar_iterate_fixed_point():
    tr = scalar_iterate(1.0, ZoloParams(2, 2, 1.0 - 1e-15), 1)
    assert abs(tr.values[1] - 1.0) <= 1e-12
    assert not tr.truncated


def test_scalar_iterate_alphas_increase():
    tr = scalar_iterate(0.3, ZoloParams(2, 1, 0.01), 5)
    # strictly increasing until the schedule parks at exactly 1
    for a0, a1 in zip(tr.alphas, tr.alphas[1:]):
        assert a1 > a0 or a0 == a1 == 1.0
    assert tr.alphas[-1] == 1.0
    assert len(tr.alphas) == len(tr.values) == len(tr.normalized_errors) == 6


def test_scalar_iterate_rejects_cut():
    with pytest.raises(BranchCutError):
        scalar_iterate(-1.0, ZoloParams(1, 0, 0.5), 2)
    with pytest.raises(BranchCutError):
        scalar_iterate(0.0, ZoloParams(1, 0, 0.5), 2)


def test_scalar_iterate_truncates_on_overflow():
    tr = scalar_iterate(complex(1e308, 1e308), ZoloParams(1, 0, 1e-8), 6)
    assert tr.truncated
    assert len(tr.values) < 7


@pytest.mark.parametrize("m,ell,q_ell_off", [(2, 1, 1), (2, 2, 0), (3, 2, 1)])
@pytest.mark.parametrize("alpha", [1e-2, 1e-4])
def test_two_step_composition(m, ell, q_ell_off, alpha):
    """Two scalar steps of type (m, ell) equal the directly built
    approximant of the composed type."""
    p = ZoloParams(m, ell, alpha)
    o = p.order
    q = (o * o - 1) // 2 if ell == m else (o * o) // 2
    big = ZoloParams(q, q - q_ell_off, alpha)
    pts = np.linspace(alpha * alpha, 1.0, 200)
    direct = eval_rhat(big, pts)
    worst = 0.0
    for z, want in zip(pts, direct):
        f2 = scalar_iterate(complex(z), p, 2).values[2]
        got = z / f2  # the f-recursion carries z / rhat_composed
        worst = max(worst, abs(got - z / want) / abs(z / want))
    assert worst <= 1e-11


def test_alpha_sequence_is_balanced_s_value():
    a = 1e-2
    tr = scalar_iterate(0.3, ZoloParams(2, 1, a), 2)
    assert tr.alphas[1] == pytest.approx(
        complex(eval_shat(ZoloParams(2, 1, a), a)).real, rel=1e-13)
    assert tr.alphas[2] == pytest.approx(
        complex(eval_shat(ZoloParams(8, 7, a), a)).real, rel=1e-12)


def test_alpha_epsilon_identity_two_steps():
    # alpha after 2 steps equals (1-eps)/(1+eps) of the composed type,
    # with eps measured by dense-grid maximization
    a = 1e-2
    a2 = advance_alpha(advance_alpha(a, 2, 1), 2, 1)
    big = ZoloParams(8, 7, a)
    z = np.linspace(a * a, 1.0, 200001)
    err = np.max(np.abs(eval_rhat(big, z).real / np.sqrt(z) - 1.0))
    # rhat deviates one-sidedly by up to 2 eps / (1 - eps)
    eps = err / (2.0 + err)
    assert a2 == pytest.approx((1.0 - eps) / (1.0 + eps), abs=1e-9)


def test_kappa_level_sets_predict_iteration_counts():
    p = ZoloParams(4, 4, 1e-3)
    a = 1e-3
    # delta above the round-off floor so the prediction is testable
    delta = 1e-12
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        logr = rng.uniform(2.0 * math.log10(a), 0.0)
        theta = rng.uniform(-math.pi, math.pi)
        z = 10.0 ** logr * cmath.exp(1j * theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                c = math.ceil(kappa_of(z, a, p, delta))
            except (RuntimeWarning, ValueError, BranchCutError):
                continue  # probe outside the estimate's validity region
        tr = scalar_iterate(z, p, c)
        assert not tr.truncated
        assert tr.normalized_errors[c] <= 4.0 * delta
        checked += 1
