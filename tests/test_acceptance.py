"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one `criterion NN PASS` line (run pytest with -s to see
them); together they cover the closed-form bounds, the profile maxima, the
distance identities, the integral identities, the Hardy quotients, the
sharpness family, the product and non-isotropic scans, and the frame
algebra.
"""

import time

import numpy as np
import pytest

from carnot_hardy import (Point, ZFieldSpec, bound_generic, bound_row, cc,
                          g_cc, heisenberg, heisenberg_product, koranyi, koranyi_b,
                          koranyi_profile_max, nonisotropic, sup_z_norm,
                          z_profile_koranyi)
from carnot_hardy.norms import cc_polar_arrays, symplectic_norm_sq_arrays
from carnot_hardy.zfield import (CC_SCAN_NODES, bracket_zoom_max, cc_profile_max,
                                  z_field_components)
from carnot_hardy.verify import (BumpProfile, QuadratureSpec, check_ibp_identity,
                                 check_w_identity, counterexample_scan, fit_log_excess,
                                 hardy_quotient, product_check, radial_bump,
                                 random_bump, sharpness_sequence)
from oracles import (commutator_vertical, euler_adjoint_defect, hgrad_batch,
                     koranyi_bound, product_bound)

H1 = heisenberg(1)


def _report(num, text):
    print(f"criterion {num:02d} PASS: {text}")


def test_criterion_01_koranyi_heisenberg_bound():
    t0 = time.time()
    row = bound_row(ZFieldSpec(H1, koranyi(H1), 2.0, 1.0))
    assert row.bound == (4.0 - 2.0) ** 4 / (4.0 * 4.0**2) == 0.25
    assert row.branch == "first"
    # numerically maximized profile: bracket zoom on the compactified
    # variable plus endpoint check
    alpha, beta = 4.0, 2.0 * (2.0 - 8.0) / 4.0
    _, zoomed = bracket_zoom_max(lambda s: np.sqrt(1 - s) * (alpha + beta * s),
                                 0.0, 1.0 - 1e-12)
    sup_sq = max(float(zoomed), float(z_profile_koranyi(4.0, 2.0, 1.0, 0.0)))
    assert abs(sup_sq - 4.0) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"bound 0.25 exact, profile sup {sup_sq:.12f} ({elapsed:.2f}s)")


def test_criterion_02_cc_scan_maximum():
    t0 = time.time()
    g_max, nu_max = cc_profile_max(4.0, 2.0, 1.0)
    assert CC_SCAN_NODES == 10**4                         # the dense scan's nodes
    assert 4.0 >= 4.0 * 2.0 / (12.0 - np.pi**2)          # closed-branch condition
    assert abs(g_max - 4.0) <= 1e-7
    assert abs(nu_max) <= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 1.0
    # on the closed window the reported sup is the closed value, with no scan
    sup = sup_z_norm(ZFieldSpec(H1, cc(H1), 2.0, 1.0))
    assert (sup.sup_value, sup.method) == (2.0, "closed_form")
    _report(2, f"max g = {g_max:.10f} at nu = {nu_max:.2e} ({elapsed:.2f}s)")


def test_criterion_03_second_branch_cross_check():
    closed = koranyi_bound(4.0, 2.0, 6.0)
    row = bound_row(ZFieldSpec(H1, koranyi(H1), 2.0, 6.0))
    assert row.branch == "second"
    sup_sq, lam_star, kind = koranyi_profile_max(4.0, 2.0, 6.0)
    assert kind == "interior"
    assert abs(sup_sq - 192.0 / 27.0) <= 1e-12
    generic = bound_generic(np.sqrt(sup_sq), 4.0, 2.0, 6.0)
    assert row.bound == generic
    assert abs(closed - 2.25) <= 1e-9
    assert abs(generic - 2.25) <= 1e-9
    assert abs(closed - generic) <= 1e-9
    _report(3, f"closed {closed:.12f} == generic {generic:.12f} == 2.25")


def test_criterion_04_cc_distance_identities():
    t0 = time.time()
    model = cc(H1)
    rng = np.random.default_rng(104)
    checked = 0
    while checked < 100:
        z = rng.normal(size=(1, 2))
        t = 2.0 * rng.normal(size=(1, 1))
        nu, r, _, _ = cc_polar_arrays(z, t[..., 0])
        if abs(nu[0]) > 2 * np.pi - 0.1:
            continue
        checked += 1
        grad = model.hgrad(z, t)[0]
        fd = hgrad_batch(H1, model.value, z, t, 1e-6)[0]
        assert abs(np.linalg.norm(fd) - 1.0) <= 1e-6
        assert np.max(np.abs(grad - fd)) <= 1e-6
        dt_fd = float((model.value(z, t + 1e-6) - model.value(z, t - 1e-6))[0] / 2e-6)
        assert abs(dt_fd - nu[0] / (4.0 * r[0])) <= 1e-6
    center = float(model.value(np.zeros((1, 2)), np.ones((1, 1)))[0])
    assert abs(center - np.sqrt(np.pi)) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(4, f"100 points: |grad|=1, dt=nu/4r to 1e-6; d(0,0,1)=sqrt(pi) ({elapsed:.2f}s)")


# the values below come from the smooth step's panel table and its closed
# derivative; a change that keeps the integrands may move only their
# rounding.  A defect is a difference of integrals over one of them, so 1e-16
# of rounding in the integrals moves a 5e-8 defect by 1e-8 of itself: the
# defects are pinned to 1e-12 absolute, the quotients to 1e-12 relative.
PINNED_05_DEFECTS = [
    5.008240963187927e-08, 6.136245674752092e-07, 1.8951896402409023e-06,
    8.571127498347116e-08, 3.896205078898985e-06, 5.382819110339965e-06,
    7.066594271638135e-07, 3.0797899424459792e-06, 1.1055734770386592e-05,
    1.1088377724580207e-06, 2.0598763570307987e-05, 3.0985089139476795e-05,
    4.032470807556502e-07, 4.161703974276332e-06, 1.0963633711068526e-05,
    6.452798239170273e-07, 2.2474115830145546e-05, 2.6211436320483897e-05,
    1.1727326122361167e-06, 1.6691106774076652e-06, 2.4254856524602447e-07,
    1.847549035391243e-06, 2.8517613139668264e-06, 5.599172679814357e-06,
    1.996791268708448e-06, 1.0424115184604202e-05, 2.9392786164460967e-05,
    3.158046815918156e-06, 5.5544983047555985e-05, 8.542773993035828e-05,
]
# (worst projected, worst full) quotient per gauge
PINNED_06_WORST = {"koranyi": (12.695894974248413, 5.66796484334833),
                   "cc": (13.556560939048168, 7.174464540275794)}
PINNED_07_QUOTIENTS = [7.384860882865937, 5.126354387138383, 4.047772242949455]
PINNED_07_DENOMINATORS = [36.61324873581394, 56.667686892727964, 76.72212504964182]


def test_criterion_05_integration_by_parts_suite():
    t0 = time.time()
    rng = np.random.default_rng(105)
    bumps = []
    for k in range(5):
        r2 = rng.uniform(0.2, 0.4)
        r1 = r2 + rng.uniform(0.2, 0.4)
        R1 = r1 + rng.uniform(0.4, 0.9)
        R2 = R1 + rng.uniform(0.3, 0.8)
        bumps.append(radial_bump(H1, BumpProfile(r2, r1, R1, R2),
                                 modulation=rng.uniform(-0.4, 0.4),
                                 modulation2=rng.uniform(-0.3, 0.3)))
    worst_rel, worst_abs = 0.0, 0.0
    defects = []
    for u in bumps:
        for p in (2.0, 3.0):
            for theta in (0.0, 1.0, 2.0):
                spec = ZFieldSpec(H1, koranyi(H1), p, theta)
                rep = check_ibp_identity(spec, u)
                assert rep.passed, (p, theta, rep.values)
                defects.append(rep.values["defect"])
                if abs(p * theta - 4.0) > 1e-12:
                    worst_rel = max(worst_rel, rep.values["defect"])
                else:
                    worst_abs = max(worst_abs, rep.values["defect"])
    assert worst_rel <= 2e-3 and worst_abs <= 1e-4
    assert np.max(np.abs(np.array(defects) - PINNED_05_DEFECTS)) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(5, f"30 cases: worst rel {worst_rel:.2e}, worst degenerate {worst_abs:.2e} "
               f"({elapsed:.1f}s)")


def test_criterion_06_hardy_dominance():
    t0 = time.time()
    rng = np.random.default_rng(106)
    bumps = [random_bump(H1, rng) for _ in range(20)]
    results = {}
    for kind, model in (("koranyi", koranyi(H1)), ("cc", cc(H1))):
        spec = ZFieldSpec(H1, model, 2.0, 1.0)
        proj = [hardy_quotient(spec, u, projected=True) for u in bumps]
        full = [hardy_quotient(spec, u, projected=False) for u in bumps]
        assert min(proj) >= 1.0 - 1e-3, kind
        assert min(full) >= 0.25 - 1e-3, kind
        results[kind] = (min(proj), min(full))
        assert results[kind] == pytest.approx(PINNED_06_WORST[kind], rel=1e-12, abs=0.0)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(6, f"20 bumps: worst projected {min(r[0] for r in results.values()):.6f}, "
               f"worst full {min(r[1] for r in results.values()):.6f} ({elapsed:.1f}s)")


def test_criterion_07_sharpness():
    t0 = time.time()
    spec = ZFieldSpec(H1, koranyi(H1), 2.0, 1.0)
    eps_list = [1e-2, 1e-3, 1e-4]
    pts = sharpness_sequence(spec, eps_list)
    quotients = [sp.quotient for sp in pts]
    assert quotients == pytest.approx(PINNED_07_QUOTIENTS, rel=1e-12, abs=0.0)
    assert [sp.denominator for sp in pts] == pytest.approx(PINNED_07_DENOMINATORS,
                                                           rel=1e-12, abs=0.0)
    assert all(b <= a + 1e-3 for a, b in zip(quotients, quotients[1:]))
    assert all(q >= 1.0 - 1e-9 for q in quotients)
    c_fit, resid = fit_log_excess(pts, 1.0)
    assert c_fit > 0 and resid <= 0.20
    # the mass integral grows at least logarithmically in 1/eps (lam0 = 1)
    logs = [np.log(1.0 / (2.0 * sp.eps)) for sp in pts]
    dens = [sp.denominator for sp in pts]
    overall = (dens[-1] - dens[0]) / (logs[-1] - logs[0])
    assert overall > 0
    for k in range(len(pts) - 1):
        slope = (dens[k + 1] - dens[k]) / (logs[k + 1] - logs[k])
        assert slope >= 0.5 * overall
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(7, f"quotients {quotients}, fit C={c_fit:.2f} resid={resid:.1%}, "
               f"den slope {overall:.2f} ({elapsed:.1f}s)")


def test_criterion_08_w_identity():
    rng = np.random.default_rng(108)
    rep2 = check_w_identity(2.0, rng.normal(size=100), rng.normal(size=100))
    assert rep2.passed and rep2.values["rel_defect"] <= 1e-14
    worst = 0.0
    for p in (2.5, 3.0, 4.0):
        rep = check_w_identity(p, rng.normal(size=100), rng.normal(size=100))
        assert rep.passed and rep.values["rel_defect"] <= 1e-10, p
        worst = max(worst, rep.values["rel_defect"])
    _report(8, f"p=2 defect {rep2.values['rel_defect']:.1e}; worst p>2 {worst:.1e}")


def test_criterion_09_generalized_koranyi():
    g = nonisotropic([1.0, 2.0])
    spec = ZFieldSpec(g, koranyi_b(g), 2.0, 1.0)
    row = bound_row(spec)
    assert row.branch == "first"
    assert abs(row.bound - 4.0 / 9.0) <= 1e-12
    assert abs(koranyi_bound(6.0, 2.0, 1.0, lam_min=1.0) - 4.0 / 9.0) <= 1e-12
    # profile identity |Z_{rho_B}|_B^2 = closed profile at 100 random points
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        z = rng.normal(size=(1, 4))
        lam = 3.0 * rng.normal()
        t = np.array([[lam * float(symplectic_norm_sq_arrays(g, z)[0])]])
        got = float(symplectic_norm_sq_arrays(g, z_field_components(spec, z, t))[0])
        ref = float(z_profile_koranyi(6.0, 2.0, 1.0, lam))
        worst = max(worst, abs(got - ref))
        assert abs(got - ref) <= 1e-7
    _report(9, f"bound 4/9 to 1e-12; profile identity worst defect {worst:.1e}")


def test_criterion_10_products():
    t0 = time.time()
    rep = product_check(1, 2, 2.0, 1.0, samples_log2=17, mc_samples=10**7)
    assert rep.passed, rep.values
    assert rep.values["sampled_sup"] <= 2.0 + 1e-9
    assert rep.values["argmax_t_norm"] <= 1e-4
    assert rep.values["identity_rel_defect"] <= 5e-3
    # the Monte Carlo branch carries no chart tables: its sums are pinned bit
    # for bit
    assert (rep.values["identity_lhs"], rep.values["identity_rhs"]) == (
        -789.7889953753311, -789.5084455830199)
    # its sums of squares are NumPy pairwise sums too, whatever the BLAS
    # thread count
    assert rep.diagnostics["mc_stderr"] == 1.3725977033889478
    h1xh1 = heisenberg_product(1, 2)
    row = bound_row(ZFieldSpec(h1xh1, koranyi(h1xh1), 2.0, 1.0))
    assert row.branch == "product" and row.bound == pytest.approx(2.25)
    assert product_bound(1, 2, 2.0, 1.0) == pytest.approx(2.25)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(10, f"sup {rep.values['sampled_sup']:.9f} with |t| {rep.values['argmax_t_norm']:.1e}, "
                f"bound 2.25, identity defect {rep.values['identity_rel_defect']:.2e} "
                f"({elapsed:.1f}s)")


def test_criterion_11_counterexample():
    t0 = time.time()
    rep = counterexample_scan(samples_log2=17)
    assert rep.passed
    assert rep.values["max_excess"] > 1e-6
    control = counterexample_scan(samples_log2=17, isotropic_control=True)
    assert control.passed
    assert control.values["max_excess"] <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(11, f"nonisotropic max excess {rep.values['max_excess']:.4f} > 0, "
                f"isotropic control {control.values['max_excess']:.2e} <= 1e-6 "
                f"({elapsed:.1f}s)")


def test_criterion_12_commutator_and_adjoint():
    t0 = time.time()

    def uval(z, t):
        z = np.asarray(z)
        return np.sin(z[..., 0]) * z[..., 1] ** 2 + np.cos(np.asarray(t)[..., 0]) * z[..., 0]

    def dt_u(z, t):
        return -np.sin(np.asarray(t)[..., 0]) * np.asarray(z)[..., 0]

    rng = np.random.default_rng(112)
    for _ in range(100):
        x = Point(rng.normal(size=2), rng.normal(size=1))
        expected = 4.0 * float(dt_u(x.z[None], x.t[None])[0])
        got = commutator_vertical(H1, uval, x, 0, step=1e-3)
        assert abs(got - expected) <= 5e-5 * max(1.0, abs(expected))
    # second-order convergence at a fixed point
    x = Point([0.4, -0.7], 0.3)
    ref = 4.0 * float(dt_u(x.z[None], x.t[None])[0])
    e1 = abs(commutator_vertical(H1, uval, x, 0, step=2e-3) - ref)
    e2 = abs(commutator_vertical(H1, uval, x, 0, step=1e-3) - ref)
    assert e2 <= e1 / 2.5

    rng = np.random.default_rng(212)
    worst = 0.0
    for _ in range(3):
        u = random_bump(H1, rng)
        v = random_bump(H1, rng)
        lo = min(u.support[0], v.support[0])
        hi = max(u.support[1], v.support[1])
        defect = euler_adjoint_defect(H1, u, v, QuadratureSpec(sigma_range=(lo, hi)))
        worst = max(worst, defect)
        assert defect <= 2e-3
    elapsed = time.time() - t0
    _report(12, f"commutators O(step^2) at 100 points; adjoint defect {worst:.1e} "
                f"({elapsed:.1f}s)")
