import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from carnot_hardy import (Point, StepTwoGroup, ZFieldSpec, cc, heisenberg,
                          heisenberg_product, koranyi, nonisotropic)
from carnot_hardy.groups import BLOCK_ROWS
from carnot_hardy.verify import (BumpProfile, Nodes, QuadratureSpec,
                                 check_ibp_identity,
                                 check_w_identity, counterexample_scan,
                                 fit_log_excess, g_cutoff_jet,
                                 hardy_quotient, integrate_many,
                                 product_check, radial_bump, random_bump,
                                 sharpness_sequence, smoothstep_jet)
from carnot_hardy.verify.quadrature import (has_chart, koranyi_ball_draws,
                                            koranyi_ball_volume)
from oracles import (ball_draw_count, ball_monte_carlo, box_gauss_integrals, bz,
                     euler_adjoint_defect, euler_apply, extremal_power, extremal_residual,
                     hgrad_batch, weak_divergence_defect)

H1 = heisenberg(1)
# the smallest Heisenberg group without the phi chart: it integrates by Monte Carlo
H2 = heisenberg(2)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_smoothstep_shape():
    x = np.linspace(-0.5, 1.5, 401)
    s = smoothstep_jet(x)[0]
    assert np.all(s[x <= 0] == 0.0) and np.all(s[x >= 1] == 1.0)
    assert np.all(np.diff(s) >= -1e-12)
    assert smoothstep_jet(np.array(0.5))[0] == pytest.approx(0.5, abs=1e-12)
    # derivative consistent with central differences
    xs = np.linspace(0.05, 0.95, 19)
    fd = (smoothstep_jet(xs + 1e-6)[0] - smoothstep_jet(xs - 1e-6)[0]) / 2e-6
    assert np.max(np.abs(fd - smoothstep_jet(xs)[1])) < 1e-8


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _smoothstep_reference(x):
    """S and S' at the sorted points x in (0, 1) from their definition, by
    30-digit mpmath: the integral of exp(-1/(s(1-s))) accumulated over the
    gaps between neighbouring points, over its integral on [0, 1]."""
    import mpmath

    with mpmath.workdps(30):
        def f(s):
            return mpmath.exp(-1 / (s * (1 - s)))

        xm = [mpmath.mpf(float(v)) for v in x]
        z = mpmath.quad(f, [0, 0.5, 1])
        total, s_ref = mpmath.mpf(0), []
        for a, b in zip([mpmath.mpf(0)] + xm[:-1], xm):
            total += mpmath.quad(f, [a, b])
            s_ref.append(float(total / z))
        return np.array(s_ref), np.array([float(f(v) / z) for v in xm])


def test_smoothstep_matches_mpmath_definition():
    # the panel table and the closed derivative against the definition, near
    # both ends of the step, at the panel edges and on either side of them;
    # each bound is at most twice the worst error measured on these points
    from carnot_hardy.verify import testfuncs as tf

    edges = np.arange(1, tf.STEP_PANELS) / tf.STEP_PANELS
    near = np.geomspace(1e-4, 0.1, 30)
    rng = np.random.default_rng(70)
    x = np.unique(np.concatenate([near, 1.0 - near, edges, np.nextafter(edges, 0.0),
                                  np.nextafter(edges, 1.0), np.linspace(0.0, 1.0, 101)[1:-1],
                                  rng.uniform(0.0, 1.0, 40)]))
    assert x.size >= 200
    s_ref, d_ref = _smoothstep_reference(x)
    s, d = smoothstep_jet(x)
    assert np.max(np.abs(s - s_ref)) <= 8e-15                       # measured 4.2e-15
    assert np.max(np.abs(d - d_ref)) <= 2.2e-14                     # measured 1.1e-14
    # S' = exp(-1/(x(1-x)))/Z loses about (1/(x(1-x))) ulps to the rounding
    # of its exponent; the points below the normal range are compared above
    normal = d_ref >= np.finfo(float).tiny
    assert np.max(np.abs(d - d_ref)[normal] / d_ref[normal]) <= 7.8e-14  # measured 3.9e-14
    # symmetry S(x) + S(1 - x) = 1, and no jump across a panel edge
    assert np.max(np.abs(s + smoothstep_jet(1.0 - x)[0] - 1.0)) <= 1.1e-14  # measured 5.9e-15
    left, right = smoothstep_jet(np.nextafter(edges, 0.0))[0], smoothstep_jet(edges)[0]
    assert np.max(np.abs(left - right)) <= 3.5e-15                  # measured 1.8e-15

    # the constant parts, NaN and +-inf are filled in, and shapes are kept
    x = np.concatenate([[0.0, -0.0, 1.0, 1e-300, -1e-300, 1.0 - 1e-16, -0.3, 1.7,
                         np.inf, -np.inf, np.nan],
                        np.linspace(-0.5, 1.5, 1001), rng.uniform(-1.0, 2.0, 5000)])
    s, d = smoothstep_jet(x)
    assert np.all(s[x <= 0.0] == 0.0) and np.all(s[x >= 1.0] == 1.0)
    assert np.all(d[(x <= 0.0) | (x >= 1.0) | np.isnan(x)] == 0.0)
    inside = (x > 0.0) & (x < 1.0)
    assert np.all(np.isfinite(s[inside])) and np.all(d[inside] >= 0.0)
    assert np.array_equal(np.isnan(s), np.isnan(x))
    s_nan, d_nan = smoothstep_jet(np.nan)
    assert np.isnan(s_nan) and d_nan == 0.0
    assert smoothstep_jet(-np.inf)[0] == 0.0 and smoothstep_jet(np.inf)[0] == 1.0
    s0, d0 = smoothstep_jet(0.25)
    assert s0.shape == d0.shape == ()
    assert _same_bits(s0, smoothstep_jet(np.array([0.25]))[0][0])
    x2 = x[~np.isnan(x)][:6000].reshape(-1, 3)
    for got, flat in zip(smoothstep_jet(x2), smoothstep_jet(x2.ravel())):
        assert _same_bits(got, flat.reshape(x2.shape))


def test_smoothstep_stays_in_the_unit_interval():
    # the table's rounding read -1.6e-19 next to 0 and 1 + 2.7e-15 next to 1
    # on this grid before the clamp; at the panel edges, the two ends of the
    # step included, and at their float neighbours too
    from carnot_hardy.verify.testfuncs import STEP_PANELS
    edges = np.arange(STEP_PANELS + 1) / STEP_PANELS
    for x in (np.linspace(0.0, 1.0, 200001), edges, np.nextafter(edges, 0.0),
              np.nextafter(edges, 1.0)):
        s = smoothstep_jet(x)[0]
        assert np.all((s >= 0.0) & (s <= 1.0))


def _jet_points(rng, n=4000, group=H1):
    z = rng.normal(scale=1.2, size=(n, 2 * group.n))
    t = rng.normal(scale=1.5, size=(n, group.h))
    z[:3] = 0.0                  # the center and the origin
    t[:2] = 0.0
    return z, t


def _frame_slots(z, P, R):
    """(z_1 P + z_2 R, z_2 P - z_1 R) on the one block of H^1."""
    return np.stack([z[:, 0] * P + z[:, 1] * R, z[:, 1] * P - z[:, 0] * R], axis=-1)


def test_bump_jet_matches_separate_formulas():
    # the bump value, gradient and Euler field from the step, the Koranyi
    # gauge rho and the invariants zc = |z|^2/rho^2 and s = t/rho^2: with
    # k = L/4, grad u = frame(z, P, R), where
    # P = (eta'/rho) mod zc - (eta/rho^2) 2 mod' s zc and
    # R = (eta'/rho) mod k s + (eta/rho^2) 2 mod' k zc^2; the jet must
    # reproduce them to the bit, with the origin and the support mask, and
    # its gradient must be the separate composition
    # eta' mod grad rho + eta mod' grad s to rounding
    rho = koranyi(H1)
    k = H1.couplings[0, 0] / 4.0
    rng = np.random.default_rng(71)
    z, t = _jet_points(rng)
    prof = BumpProfile(0.3, 0.6, 1.3, 1.8)
    a_up, a_dn = prof.r1 - prof.r2, prof.R2 - prof.R1
    for a, b in ((0.0, 0.0), (0.3, 0.0), (-0.4, 0.25)):
        u = radial_bump(H1, prof, modulation=a, modulation2=b)
        with np.errstate(invalid="ignore", divide="ignore"):
            d = rho.value(z, t)
            up, d_up = smoothstep_jet((d - prof.r2) / a_up)
            dn, d_dn = smoothstep_jet((prof.R2 - d) / a_dn)
            eta = up * dn
            deta = d_up / a_up * dn - up * d_dn / a_dn
            zc = np.sum(z * z, axis=-1) / d**2
            s = t[:, 0] / d**2
            mod, dmod = 1.0 + a * s + b * s * s, 2.0 * (a + 2.0 * b * s)
            P = deta / d * (mod * zc)
            R = deta / d * (mod * (s * k))
            if a or b:
                P = P - eta / d**2 * (dmod * s * zc)
                R = R + eta / d**2 * (dmod * zc**2 * k)
            gr = rho.hgrad(z, t)
            gs = (0.5 * bz(H1, z)[:, 0, :] / (d**2)[:, None]
                  - 2.0 * (t[:, 0] / d**3)[:, None] * gr)
            composed = (deta * mod)[:, None] * gr + (0.5 * eta * dmod)[:, None] * gs
        inside = (d > prof.r2) & (d < prof.R2)
        assert not np.all(np.isfinite(P)) and not np.all(inside)
        ref = (np.where(inside, eta * mod, 0.0),
               _frame_slots(z, np.where(inside, P, 0.0), np.where(inside, R, 0.0)),
               np.where(inside, deta * d * mod, 0.0))
        jet = u.jet(Nodes(z, t))
        for got, want in zip(jet, ref):
            assert _same_bits(got, want)
        for got, field in zip(jet, (u.value, u.hgrad, u.euler)):
            assert _same_bits(got, field(z, t))
        assert _same_bits(u.jet(Nodes(z, t), derivs=False)[0], jet[0])
        eta_in, deta_in = prof.jet(d[inside])
        assert _same_bits(eta_in, eta[inside])
        assert _same_bits(deta_in, deta[inside])
        composed = composed[inside]
        assert np.max(np.abs(jet[1][inside] - composed)) <= 1e-12 * np.max(np.abs(composed))


def test_sharpness_jet_matches_separate_formulas():
    # with lam = t/|z|^2, grad lam = frame(z, -2 lam/(rho^2 zc), 2 k/(rho^2 zc)),
    # so grad u = w eta' grad rho + w' eta grad lam = frame(z, P, R) with
    # P = (eta'/rho) w zc - (eta/rho^2) 2 lam w'/zc and
    # R = (eta'/rho) w k s + (eta/rho^2) 2 w' k/zc
    from carnot_hardy.verify import sharpness_function
    rho = koranyi(H1)
    k = H1.couplings[0, 0] / 4.0
    rng = np.random.default_rng(72)
    z, t = _jet_points(rng)
    z[:3] = 1.0                  # the cut-off family is evaluated off the center
    t = np.abs(t) + 1e-3
    prof = BumpProfile()
    eps, p = 1e-2, 2.0
    u = sharpness_function(H1, p, eps, prof)
    kappa = (H1.Q - 2.0) / (2.0 * p)
    zn2 = np.sum(z * z, axis=-1)
    lam = t[:, 0] / zn2
    inside = (lam > eps) & (lam < 1.0 / eps)
    lam_s = np.where(inside, lam, 1.0)
    g, gd = g_cutoff_jet(lam_s, eps)
    w = np.where(inside, lam_s**kappa * g, 0.0)
    wd = np.where(inside, kappa * lam_s ** (kappa - 1.0) * g + lam_s**kappa * gd, 0.0)
    d = rho.value(z, t)
    eta, deta = prof.jet(d)
    zc, s = zn2 / d**2, t[:, 0] / d**2
    P = deta / d * (w * zc) - eta / d**2 * (2.0 * lam * wd / zc)
    R = deta / d * (w * s * k) + eta / d**2 * (2.0 * wd / zc * k)
    ref = (w * eta, _frame_slots(z, P, R), w * deta * d)
    jet = u.jet(Nodes(z, t))
    assert np.count_nonzero(jet[0]) > 100
    for got, want, field in zip(jet, ref, (u.value, u.hgrad, u.euler)):
        assert _same_bits(got, want)
        assert _same_bits(field(z, t), want)
    # the factored gradient is the one the separate compositions give
    glam = (-2.0 * (t[:, 0] / zn2**2)[:, None] * z
            + 0.5 * bz(H1, z)[:, 0, :] / zn2[:, None])
    composed = (wd * eta)[:, None] * glam + (w * deta)[:, None] * rho.hgrad(z, t)
    assert np.max(np.abs(jet[1] - composed)) <= 1e-12 * np.max(np.abs(composed))


@pytest.mark.parametrize("group", [H1, heisenberg_product(1, 2)], ids=["H1", "H1xH1"])
def test_koranyi_jets_read_the_carried_gauge_to_the_bit(group):
    # a record carrying its Koranyi gauge, as a Monte Carlo chunk carries it
    # (from the gauge's own evaluator), against the plain record; the batch
    # holds the origin, the center, and points well inside and well outside
    # the default bump's support (0.25, 2)
    model = koranyi(group)
    z, t = _jet_points(np.random.default_rng(73), 3000, group)
    rho = model.value(z, t)
    rho.flags.writeable = False
    plain, carried = Nodes(z, t), Nodes(z, t, rho=rho)
    assert np.any(rho == 0.0) and np.any(rho > 2.0) and np.any((rho > 0.25) & (rho < 2.0))
    # the gauge's gradient is 0/0 at the origin either way
    with np.errstate(invalid="ignore", divide="ignore"):
        for got, want in zip(model.jet(carried), model.jet(plain)):
            assert _same_bits(got, want)
    assert model.jet(carried, derivs=False)[0] is rho
    assert _same_bits(model.jet(plain, derivs=False)[0], rho)

    bumps = [radial_bump(group)]
    if group.h == 1:
        bumps += [radial_bump(group, modulation=0.3), radial_bump(group, modulation=-0.4,
                                                                  modulation2=0.25)]
    for u in bumps:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for derivs in (True, False):
                got, want = u.jet(carried, derivs), u.jet(plain, derivs)
                for a, b in zip(got, want):
                    assert (a is None and b is None) or _same_bits(a, b)
                assert np.count_nonzero(got[0]) > 100


@pytest.mark.parametrize("n", [1, 2, 4])
def test_sharpness_jet_reads_the_carried_gauge_to_the_bit(n):
    # the plain jet of the cut-off family divides by |z|^2, so the rows are
    # off the center; a record carrying its Koranyi gauge gives the same bits
    from carnot_hardy.verify import sharpness_function
    group = heisenberg(n)
    z, t = _jet_points(np.random.default_rng(75), 3000, group)
    z[:3] = 1.0
    t = np.abs(t) + 1e-3
    rho = koranyi(group).value(z, t)
    u = sharpness_function(group, 2.0, 1e-2)
    plain, carried = Nodes(z, t), Nodes(z, t, rho=rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for derivs in (True, False):
            got, want = u.jet(carried, derivs), u.jet(plain, derivs)
            for a, b in zip(got, want):
                assert (a is None and b is None) or _same_bits(a, b)
            assert np.count_nonzero(got[0]) > 100
    # the gauge is read from the record, not formed a second time
    assert not np.array_equal(u.jet(Nodes(z, t, rho=0.5 * rho))[0], want[0])


def test_other_gauge_jets_ignore_a_carried_gauge():
    # a record carrying a gauge that is not theirs: cc, koranyi_b and
    # Balogh-Tyson read (z, t) alone, so the bits do not move
    from carnot_hardy import balogh_tyson, koranyi_b
    rng = np.random.default_rng(74)
    for model in (cc(H1), koranyi_b(nonisotropic([1.0, 2.0])),
                  balogh_tyson(nonisotropic([0.5, 1.0]))):
        g = model.group
        z = rng.normal(size=(500, 2 * g.n))
        t = rng.normal(size=(500, g.h))
        plain, carried = Nodes(z, t), Nodes(z, t, rho=np.full(500, np.nan))
        for derivs in (True, False):
            for got, want in zip(model.jet(carried, derivs), model.jet(plain, derivs)):
                assert (got is None and want is None) or _same_bits(got, want)
                assert got is None or np.all(np.isfinite(got))


def test_stacked_integrand_matches_separate_callables():
    # a (k, m) stack counts as k consecutive integrals with the same sums, on
    # the chart of H^1 and by Monte Carlo on H^2
    quads = {H1: QuadratureSpec(sigma_range=(0.25, 2.0), n_angle=4, psi_nodes=6,
                                chunk=7001),
             H2: QuadratureSpec(samples=50_001, chunk=7001, seed=3)}
    for group, quad in quads.items():
        u = radial_bump(group, modulation=0.3, modulation2=0.1)
        rho = koranyi(group)
        fs = [lambda n: u.value(n.z, n.t) ** 2,
              lambda n: u.euler(n.z, n.t) * u.value(n.z, n.t),
              lambda n: u.value(n.z, n.t) / rho.value(n.z, n.t)]

        def stacked(nodes):
            return np.stack([f(nodes) for f in fs])

        separate = integrate_many(group, fs, quad)
        assert integrate_many(group, [stacked], quad) == separate
        mixed = integrate_many(group, [fs[0], stacked, fs[2]], quad)
        assert mixed == [separate[0], *separate, separate[2]]


def test_g_cutoff_plateau_and_derivative_bounds():
    eps = 1e-3
    lam = np.array([eps / 2, eps, 2 * eps, 0.1, 1.0, 1 / (2 * eps), 1 / eps, 2 / eps])
    g, _ = g_cutoff_jet(lam, eps, derivs=False)
    assert g[0] == 0.0 and g[1] == 0.0 and g[-2] == pytest.approx(0.0, abs=1e-15)
    assert g[-1] == 0.0
    assert np.all(g[2:6] == pytest.approx(1.0, abs=1e-12))
    assert np.all((g >= 0) & (g <= 1))
    # |g'| <= c/eps on [eps, 2 eps] and <= c eps on [1/(2 eps), 1/eps]
    lam_in = np.linspace(eps, 2 * eps, 200)
    lam_out = np.linspace(1 / (2 * eps), 1 / eps, 200)
    c_in = np.max(np.abs(g_cutoff_jet(lam_in, eps)[1])) * eps
    c_out = np.max(np.abs(g_cutoff_jet(lam_out, eps)[1])) / eps
    assert 0 < c_in < 10 and 0 < c_out < 10
    # the same constant works for a different eps (c independent of eps)
    eps2 = 1e-5
    c_in2 = np.max(np.abs(g_cutoff_jet(np.linspace(eps2, 2 * eps2, 200), eps2)[1])) * eps2
    assert c_in2 == pytest.approx(c_in, rel=1e-6)


def test_bump_profile_support():
    prof = BumpProfile(0.25, 0.5, 1.5, 2.0)
    s = np.array([0.2, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5])
    v, _ = prof.jet(s)
    assert v[0] == 0 and v[1] == 0 and v[5] == 0 and v[6] == 0
    assert v[2] == pytest.approx(1.0) and v[3] == 1.0 and v[4] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        BumpProfile(0.5, 0.25, 1.5, 2.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_zero_and_mass_oracle():
    quad = QuadratureSpec(sigma_range=(0.25, 2.0))
    (zero,) = integrate_many(H1, [lambda n: np.zeros(n.z.shape[:-1])], quad)
    assert zero.value == 0.0

    # radial mass integral against its separable 1-D reduction:
    # int eta(rho)^2 / rho^2 = 2 pi * pi * int sigma^{3-2} eta(sigma)^2 dsigma...
    # in the chart: int sigma^{3-ptheta} eta^2 dsigma * (angle 2pi) * (int dpsi = pi)
    prof = BumpProfile()
    u = radial_bump(H1, prof)

    def f(nodes):
        d = koranyi(H1).value(nodes.z, nodes.t)
        return u.value(nodes.z, nodes.t) ** 2 / d**2

    (got,) = integrate_many(H1, [f], quad)
    oracle, est_err = scipy_quad(lambda s: s * prof.jet(np.array(s))[0] ** 2, 0.25, 2.0,
                                 epsabs=1e-13, epsrel=1e-13)
    oracle *= 2 * np.pi * np.pi
    # the mollifier is smooth but not analytic; 80 Gauss nodes reach ~1e-7
    assert got.value == pytest.approx(oracle, rel=1e-6)
    assert got.error < 1e-3 * abs(oracle)


def test_chart_equivalence_ambient_vs_phi_polar():
    # ten integrands sharing the same support: bumps times gauge powers and
    # vertical modulations, stacked so that each bump and the gauge are
    # evaluated once per chunk
    rho = koranyi(H1)
    bumps = [radial_bump(H1, BumpProfile(), modulation=a, modulation2=b)
             for a, b in ((0.0, 0.0), (0.3, 0.0), (-0.4, 0.25))]

    def integrands(n):
        d = rho.value(n.z, n.t)
        vals = [u.value(n.z, n.t) for u in bumps]
        rows = [v**2 / d**power for v in vals for power in (0.0, 1.0, 2.0)]
        return np.stack(rows + [vals[0] * np.asarray(n.t)[..., 0] ** 2])

    chart = integrate_many(H1, [integrands], QuadratureSpec(sigma_range=(0.25, 2.0)))
    # 140 Gauss nodes per axis of the box that holds the gauge ball of radius 2
    box = box_gauss_integrals(H1, [integrands], (2.0, 4.0), 140)
    assert len(chart) == len(box) == 10
    for rc, rb in zip(chart, box):
        assert abs(rc.value - rb) / abs(rc.value) < 1e-3


def test_dilation_scaling_of_integral():
    # int u(delta_gamma x) dx = gamma^{-Q} int u
    gam = 1.7
    prof = BumpProfile()
    u = radial_bump(H1, prof)

    def f(nodes):
        return u.value(nodes.z, nodes.t)

    def f_dil(nodes):
        return u.value(gam * np.asarray(nodes.z), gam**2 * np.asarray(nodes.t))

    (base,) = integrate_many(H1, [f], QuadratureSpec(sigma_range=(0.25, 2.0)))
    (scaled,) = integrate_many(H1, [f_dil],
                               QuadratureSpec(sigma_range=(0.25 / gam, 2.0 / gam)))
    assert scaled.value == pytest.approx(base.value / gam**4, rel=1e-3)


@pytest.mark.parametrize("prof", [BumpProfile(), BumpProfile(0.5, 0.75, 1.25, 1.5)],
                         ids=["bump (0.25, 2)", "bump (0.5, 1.5)"])
def test_monte_carlo_deterministic_and_consistent(prof):
    # the Monte Carlo box is the one that holds the window's outer ball
    u = radial_bump(H2, prof)

    def f(nodes):
        return u.value(nodes.z, nodes.t)

    quad = QuadratureSpec(samples=200_000, seed=7, sigma_range=u.support)
    (a,) = integrate_many(H2, [f], quad)
    (b,) = integrate_many(H2, [f], quad)
    assert a.value == b.value          # bit-identical for a fixed seed
    # 20 Gauss nodes per axis of that box reach 4e-4 relative on both bumps
    hi = u.support[1]
    (box,) = box_gauss_integrals(H2, [f], (hi, hi**2), 20)
    assert abs(a.value - box) < 5 * a.error + 1e-3 * abs(box)


def test_integrate_flags_nonfinite():
    quad = QuadratureSpec(sigma_range=(0.25, 2.0))
    with pytest.raises(ValueError):
        integrate_many(H1, [lambda n: np.full(n.z.shape[0], np.nan)], quad)


def test_monte_carlo_needs_a_bounded_window():
    # the box is derived from the window's outer radius
    quad = QuadratureSpec(samples=10, sigma_range=(0.0, np.inf))
    with pytest.raises(ValueError, match="bounded"):
        integrate_many(H2, [lambda n: np.zeros(n.z.shape[:-1])], quad)


# the group picks the integrator: the ids name the one each group takes
@pytest.mark.parametrize("group", [H1, H2], ids=["tensor_grid", "monte_carlo"])
@pytest.mark.parametrize("window", [(2.0, 0.5), (-1.0, 1.0), (1.0, 1.0), (np.nan, 1.0)],
                         ids=["reversed", "negative", "empty", "nan"])
def test_integrate_rejects_a_window_it_cannot_integrate(group, window):
    # on H^1 the constant 1 read -78.6 on the grid and 0.0 by Monte Carlo
    # over the reversed window, and 0.0 and 4.94 over (-1, 1), with the
    # default spec
    quad = QuadratureSpec(samples=1000, sigma_range=window)
    with pytest.raises(ValueError, match="0 <= lo < hi"):
        integrate_many(group, [lambda n: np.ones(n.z.shape[0])], quad)


@pytest.mark.parametrize("group", [H1, H2], ids=["tensor_grid", "monte_carlo"])
@pytest.mark.parametrize("chunk", [0, -5])
def test_integrate_rejects_a_nonpositive_chunk(group, chunk):
    # Monte Carlo stopped in range() at 0 and divided None at -5; the chart
    # took either for one sigma slab per chunk
    quad = QuadratureSpec(samples=1000, chunk=chunk)
    with pytest.raises(ValueError, match="chunk"):
        integrate_many(group, [lambda n: np.ones(n.z.shape[:-1])], quad)


@pytest.mark.parametrize("group, method", [
    (H1, "tensor_grid"), (nonisotropic([2.0]), "tensor_grid"),
    (H2, "monte_carlo"), (heisenberg_product(1, 2), "monte_carlo"),
    (nonisotropic([0.5, 1.0]), "monte_carlo"),
], ids=["H1", "noniso(2)", "H2", "H1xH1", "noniso(0.5,1)"])
def test_integrator_follows_the_group(group, method):
    # the phi chart wherever the group has one plane and one vertical
    # direction, Monte Carlo everywhere else; the result names the one that ran
    assert has_chart(group) == (method == "tensor_grid")
    u = radial_bump(group)
    quad = QuadratureSpec(samples=20_000, sigma_range=u.support, n_angle=4, psi_nodes=6)
    (res,) = integrate_many(group, [lambda n: u.value(n.z, n.t)], quad)
    assert res.method == method and res.value > 0.0
    # the lambda window is the chart's: Monte Carlo has none to honour
    windowed = replace(quad, lambda_range=(1e-2, 1e2))
    if method == "monte_carlo":
        with pytest.raises(ValueError, match="lambda_range"):
            integrate_many(group, [lambda n: u.value(n.z, n.t)], windowed)
    else:
        assert integrate_many(group, [lambda n: u.value(n.z, n.t)], windowed)[0].value > 0


def _bump_integrands(group, profile=BumpProfile()):
    """A plain and a stacked integrand of one bump, both vanishing outside its
    support; the bump's own support test is the window's."""
    u = radial_bump(group, profile)
    rho = koranyi(group)

    def plain(nodes):
        return u.value(nodes.z, nodes.t)

    def stacked(nodes):
        v, gu, eu = u.jet(nodes)
        d = rho.value(nodes.z, nodes.t)
        return np.stack([v * eu / d**2, np.sum(gu * gu, axis=-1), v * v / d])

    return u, plain, stacked


@pytest.mark.parametrize("group", [H2, heisenberg_product(1, 2)], ids=["H2", "H1xH1"])
def test_monte_carlo_evaluates_only_inside_the_window(group):
    u, plain, _ = _bump_integrands(group)
    seen = []

    def recorded(nodes):
        seen.append(koranyi(group).value(nodes.z, nodes.t))
        # the chunk carries the gauge its window was selected by, bit for bit
        assert _same_bits(nodes.rho, seen[-1])
        return plain(nodes)

    lo, hi = 0.5, 1.5
    quad = QuadratureSpec(samples=20_000, chunk=7001, seed=5, sigma_range=(lo, hi))
    integrate_many(group, [recorded], quad)
    rho = np.concatenate(seen)
    # one chunk per quad.chunk draws of the ball
    assert len(seen) == -(-ball_draw_count(group, quad) // quad.chunk)
    assert 0 < rho.size < quad.samples
    assert np.all((rho > lo) & (rho < hi))


# a narrow support, (1.7, 1.9): a share (1.7/1.9)^Q of the ball's draws lies
# inside its inner ball, 0.51 on H^2 and 0.41 on (H^1)^2
NARROW = BumpProfile(1.7, 1.75, 1.85, 1.9)


# chunks of draws around the evaluation block: one block short of it, one
# block, one row over, and two blocks and a partial third
BLOCK_CHUNKS = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3)


@pytest.mark.parametrize("group, block_samples", [(H2, 200_000),
                                                  (heisenberg_product(1, 2), 330_000)],
                         ids=["H2", "H1xH1"])
def test_monte_carlo_window_keeps_the_full_box_bits(group, block_samples):
    # the draws outside the window drop out of the sums: every draw of the
    # ball evaluated, then those outside the window dropped, gives the same
    # sums bit for bit (on H^2 in two chunks, the last one partial); with
    # the narrow support 41% or more of the draws are dropped, and summing
    # them as zeros would move the bits
    for profile in (BumpProfile(), NARROW):
        u, plain, stacked = _bump_integrands(group, profile)
        fs = [plain, stacked]
        quad = QuadratureSpec(samples=50_001, chunk=7001, seed=3, sigma_range=u.support)
        got = integrate_many(group, fs, quad)
        assert got == ball_monte_carlo(group, fs, quad)
        assert all(r.value != 0.0 for r in got)
        drawn = ball_draw_count(group, quad)
        assert 0 < got[0].n_evals <= drawn
    # the narrow support's inner ball holds a share 0.41 or more of the draws
    assert got[0].n_evals < 0.7 * drawn
    # a chunk is evaluated in blocks of BLOCK_ROWS draws and summed whole:
    # the oracle evaluates each chunk at once, and no bit moves whichever
    # way the chunks fall on the blocks; the last chunk of each is partial
    for profile in (BumpProfile(), NARROW):
        u, plain, stacked = _bump_integrands(group, profile)
        fs = [plain, stacked]
        quad = QuadratureSpec(samples=block_samples, seed=9, sigma_range=u.support)
        drawn = ball_draw_count(group, quad)
        assert drawn > 2 * max(BLOCK_CHUNKS) and all(drawn % c for c in BLOCK_CHUNKS)
        for chunk in BLOCK_CHUNKS:
            quad = replace(quad, chunk=chunk)
            assert integrate_many(group, fs, quad) == ball_monte_carlo(group, fs, quad)


@pytest.mark.parametrize("group, samples", [(H2, 1_000_000),
                                             (heisenberg_product(1, 2), 1_500_000)],
                         ids=["H2", "H1xH1"])
def test_monte_carlo_integrands_see_at_most_a_block(group, samples):
    # a chunk of 2^17 draws reaches the integrands BLOCK_ROWS draws at a time
    u, plain, _ = _bump_integrands(group)
    rows = []

    def recorded(nodes):
        rows.append(nodes.z.shape[0])
        return plain(nodes)

    quad = QuadratureSpec(samples=samples, seed=13, sigma_range=u.support)
    (res,) = integrate_many(group, [recorded], quad)
    drawn = ball_draw_count(group, quad)
    assert quad.chunk < drawn < 2 * quad.chunk
    # one call per block of each chunk's draws
    assert len(rows) == -(-quad.chunk // BLOCK_ROWS) + -(-(drawn - quad.chunk) // BLOCK_ROWS)
    assert max(rows) <= BLOCK_ROWS and sum(rows) == res.n_evals


def test_monte_carlo_peak_memory_is_a_few_blocks():
    # criterion 10's integrands on (H^1)^2 over one chunk of 121603 draws,
    # all of them in the window: the draws (7.4 MB) and one buffer of the
    # chunk's three rows (2.8 MB) are the largest arrays, 11.1 MB at the
    # peak; evaluating the chunk at once peaked at 41.8 MB
    import tracemalloc
    from carnot_hardy.verify.checks import _ibp_integrands
    group = heisenberg_product(1, 2)
    u = radial_bump(group)
    spec = ZFieldSpec(group, koranyi(group), 2.0, 1.0)
    quad = QuadratureSpec(samples=10**6, sigma_range=u.support)
    assert ball_draw_count(group, quad) == 121_603 <= quad.chunk
    tracemalloc.start()
    try:
        (res, _, _) = integrate_many(group, [_ibp_integrands(spec, u)], quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_evals == 121_603
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("group, samples, chunk, seed, hit", [
    (H2, 1, 1 << 17, 1, False),        # the one box draw misses the ball
    (H2, 1, 1 << 17, 4, False),        # it lands in the ball's inner part
    (H2, 12, 2, 5, True),              # 4 ball draws: the first chunk misses the window
    (heisenberg_product(1, 2), 40, 2, 20, True),
], ids=["H2-no ball draw", "H2-one inner draw", "H2-first chunk misses",
        "H1xH1-first chunk misses"])
def test_monte_carlo_chunks_outside_the_window(group, samples, chunk, seed, hit):
    u, plain, stacked = _bump_integrands(group, NARROW)
    sizes = []

    def recorded(nodes):
        sizes.append(nodes.z.shape[0])
        return stacked(nodes)

    quad = QuadratureSpec(samples=samples, chunk=chunk, seed=seed, sigma_range=u.support)
    for fs in ([plain], [recorded], [plain, recorded]):
        want = ball_monte_carlo(group, fs, quad)
        sizes.clear()
        assert integrate_many(group, fs, quad) == want
    # the chunks the integrands saw: an empty one first, then some draws
    # when any fell inside the window
    assert sizes[0] == 0
    assert (sum(sizes) > 0) == hit
    assert want[0].n_evals == sum(sizes)


# the gauge balls of the sampler tests: n horizontal planes, h vertical directions
BALL_GROUPS = {"H1": H1, "H2": heisenberg(2), "H1xH1": heisenberg_product(1, 2),
               "noniso(0.5,1)": nonisotropic([0.5, 1.0]),
               "general h=2": StepTwoGroup([[2.0, 1.0], [1.0, 3.0]])}
ball_groups = pytest.mark.parametrize("group", list(BALL_GROUPS.values()),
                                      ids=list(BALL_GROUPS))


@ball_groups
def test_koranyi_ball_volume_matches_quadrature(group):
    import mpmath
    n, h = group.n, group.h
    mpmath.mp.dps = 30
    sphere = 2 * mpmath.pi**n / mpmath.gamma(n)             # |S^{2n-1}|
    ball_h = mpmath.pi ** (mpmath.mpf(h) / 2) / mpmath.gamma(mpmath.mpf(h) / 2 + 1)
    radial = mpmath.quad(lambda r: r ** (2 * n - 1) * (1 - r**4) ** (mpmath.mpf(h) / 2),
                         [0, 1])
    assert koranyi_ball_volume(group) == pytest.approx(float(sphere * ball_h * radial),
                                                       rel=1e-13)
    closed = {H1: np.pi**2 / 2, BALL_GROUPS["H1xH1"]: np.pi**3 / 4}
    if group in closed:
        assert koranyi_ball_volume(group) == pytest.approx(closed[group], rel=1e-14)


@ball_groups
def test_box_draws_hit_the_ball_at_its_volume_share(group):
    # uniform draws from the box |z_i| < r, |t_j| < r^2 that holds B(r)
    r, m = 1.3, 200_000
    rng = np.random.default_rng(81)
    z = rng.uniform(-r, r, size=(m, 2 * group.n))
    t = rng.uniform(-r**2, r**2, size=(m, group.h))
    hit = np.mean(koranyi(group).value(z, t) < r)
    share = koranyi_ball_volume(group) / 2.0 ** (2 * group.n + group.h)
    assert abs(hit - share) < 5.0 * np.sqrt(share * (1.0 - share) / m)


@ball_groups
def test_ball_draws_are_uniform_in_the_ball(group):
    from scipy.stats import kstest, ks_2samp
    r = 1.3
    z, t = koranyi_ball_draws(group, r, 20_000, np.random.default_rng(82))
    rho = koranyi(group).value(z, t)
    # B(s) fills the share (s/r)^Q of B(r)
    assert kstest((rho / r) ** group.Q, "uniform").pvalue > 1e-3
    # the split between z and t, against the box draws that hit the ball
    rng = np.random.default_rng(83)
    zb = rng.uniform(-r, r, size=(400_000, 2 * group.n))
    tb = rng.uniform(-r**2, r**2, size=(400_000, group.h))
    hit = koranyi(group).value(zb, tb) < r
    for got, ref in ((z, zb[hit]), (t, tb[hit])):
        assert ks_2samp(np.linalg.norm(got, axis=1), np.linalg.norm(ref, axis=1)).pvalue > 1e-3


def test_every_ball_draw_lies_inside_the_ball():
    for group in BALL_GROUPS.values():
        for r in (0.25, 1.0, 2.0):
            z, t = koranyi_ball_draws(group, r, 100_000, np.random.default_rng(84))
            assert np.all(koranyi(group).value(z, t) < r)


# ---------------------------------------------------------------------------
# the weight identity
# ---------------------------------------------------------------------------

def test_w_identity_p2_exact():
    rng = np.random.default_rng(50)
    f, g = rng.normal(size=100), rng.normal(size=100)
    rep = check_w_identity(2.0, f, g)
    assert rep.passed and rep.values["rel_defect"] <= 1e-14


def test_w_identity_f_equals_g():
    rng = np.random.default_rng(51)
    f = rng.normal(size=60)
    for p in (2.0, 3.0):
        rep = check_w_identity(p, f, f)
        assert rep.passed
        assert abs(rep.values["lhs"]) < 1e-12


def test_w_identity_p3_random_vectors():
    rng = np.random.default_rng(52)
    rep = check_w_identity(3.0, rng.normal(size=100), rng.normal(size=100))
    assert rep.passed and rep.values["rel_defect"] <= 1e-10


def test_w_weight_against_mpmath():
    # independent high-precision route: quadrature of the weight's definition,
    # against the closed antiderivative and, for |g - f| <= 1e-2 max(|f|, |g|),
    # the binomial series
    import mpmath
    from carnot_hardy.verify.checks import _w_sq
    mpmath.mp.dps = 30
    closed = [(2.5, 1.3, -0.7), (3.0, -0.2, 0.9), (4.0, 2.0, 2.5),
              (4.5, 0.6, -1.1), (6.0, -0.9, 0.4),      # sign crossings
              (3.3, 0.0, 0.7), (5.2, -1.4, 0.0),       # f = 0, g = 0
              (3.7, 1.0, 1.0102), (6.0, -0.8, -0.85)]
    series = [(3.7, 1.0, 1.005), (5.5, -0.8, -0.8004), (2.5, 1.2, 1.2),
              (6.0, 1.1, 1.1 - 1e-9), (2.2, -0.3, -0.303), (4.0, 0.7, 0.7 * (1 + 1e-5))]
    for p, f, g in closed + series:
        pieces = [0, 1]
        if f != g and 0 < f / (f - g) < 1:
            pieces = [0, f / (f - g), 1]   # split at the |.|^{p-2} kink
        ref = mpmath.quad(lambda s: s * abs(s * g + (1 - s) * f) ** (p - 2), pieces)
        ref *= p * (p - 1)
        got = _w_sq(p, np.array([f]), np.array([g]))[0]
        assert got == pytest.approx(float(ref), rel=1e-10), (p, f, g)


def test_w_identity_rejects_bad_input():
    with pytest.raises(ValueError):
        check_w_identity(1.5, np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        check_w_identity(2.0, np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# integration by parts and Hardy quotients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,theta", [(2.0, 0.0), (2.0, 1.0), (3.0, 1.0)])
def test_ibp_identity_koranyi(p, theta):
    spec = ZFieldSpec(H1, koranyi(H1), p, theta)
    u = radial_bump(H1, modulation=0.3)
    rep = check_ibp_identity(spec, u)
    assert rep.passed, rep.values
    assert rep.values["defect"] <= 2e-3


def test_ibp_identity_degenerate_ptheta():
    spec = ZFieldSpec(H1, koranyi(H1), 2.0, 2.0)     # p theta = Q = 4
    rep = check_ibp_identity(spec, radial_bump(H1, modulation=0.2))
    assert rep.passed
    # +0.0, not -0.0: the sign bit is clear
    assert rep.values["I3"] == 0.0 and not np.signbit(rep.values["I3"])
    assert rep.values["defect"] <= 1e-4


def test_ibp_identity_cc():
    spec = ZFieldSpec(H1, cc(H1), 2.0, 1.0)
    rep = check_ibp_identity(spec, radial_bump(H1, modulation=0.25))
    assert rep.passed, rep.values


def test_hardy_quotients_dominate():
    rng = np.random.default_rng(53)
    for model, full_bound in ((koranyi(H1), 0.25), (cc(H1), 0.25)):
        spec = ZFieldSpec(H1, model, 2.0, 1.0)
        for _ in range(3):
            u = random_bump(H1, rng)
            proj = hardy_quotient(spec, u, projected=True)
            assert proj >= 1.0 - 1e-3
            full = hardy_quotient(spec, u, projected=False)
            assert full >= full_bound - 1e-3


def test_hardy_quotient_dilation_invariant():
    # replacing u by u o delta_gamma leaves the quotient unchanged
    spec = ZFieldSpec(H1, koranyi(H1), 2.0, 1.0)
    gam = 2.0
    u1 = radial_bump(H1, BumpProfile(0.25, 0.5, 1.5, 2.0), modulation=0.2)
    u2 = radial_bump(H1, BumpProfile(0.25 / gam, 0.5 / gam, 1.5 / gam, 2.0 / gam),
                     modulation=0.2)
    q1 = hardy_quotient(spec, u1)
    q2 = hardy_quotient(spec, u2)
    assert q1 == pytest.approx(q2, rel=1e-9)


def test_sharpness_sequence_quick():
    spec = ZFieldSpec(H1, koranyi(H1), 2.0, 1.0)
    pts = sharpness_sequence(spec, [1e-2, 1e-3])
    assert pts[1].quotient <= pts[0].quotient + 1e-3
    assert all(sp.quotient >= 1.0 - 1e-9 for sp in pts)
    assert pts[1].denominator > pts[0].denominator
    with pytest.raises(ValueError):
        sharpness_sequence(spec, [1e-3, 1e-2])


# ---------------------------------------------------------------------------
# extremal residual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [H1, heisenberg(2), nonisotropic([1.0, 2.0])],
                         ids=["H^1", "H^2", "lam (1, 2)"])
def test_extremal_power_jet_matches_central_differences(g):
    u = extremal_power(g, 3.0)
    rng = np.random.default_rng(56)
    z = rng.normal(size=(40, 2 * g.n))
    t = rng.choice([-1.0, 1.0], size=(40, 1)) * rng.uniform(0.2, 2.0, size=(40, 1))
    v, gu, eu = u.jet(Nodes(z, t))
    assert np.array_equal(v, u.value(z, t))
    fd = hgrad_batch(g, u.value, z, t, 1e-6)
    assert np.max(np.abs(gu - fd) / np.maximum(1.0, np.abs(gu))) < 1e-7
    assert np.array_equal(eu, np.zeros(40))
    for k in range(5):
        x = Point(z[k], t[k])
        assert abs(euler_apply(g, u.value, x)) < 1e-8 * max(1.0, float(v[k]))


# the residual reads the extremal profile's closed jet, so it vanishes to
# round-off (about 1e-15 on these points)

def test_extremal_residual_koranyi():
    spec = ZFieldSpec(H1, koranyi(H1), 2.0, 1.0)
    assert extremal_residual(spec, Point([1.0, 0.0], 1.0)) < 1e-14
    rng = np.random.default_rng(54)
    for _ in range(10):
        x = Point(rng.normal(size=2), rng.uniform(0.2, 2.0, size=1))
        assert extremal_residual(spec, x) < 1e-14


def test_extremal_residual_cc():
    spec = ZFieldSpec(H1, cc(H1), 2.0, 1.0)
    assert extremal_residual(spec, Point([1.0, 0.0], 1.0)) < 1e-14


def test_extremal_residual_degenerate():
    # p theta = Q: the reduction factor vanishes, the pairing itself vanishes
    spec = ZFieldSpec(H1, koranyi(H1), 2.0, 2.0)
    assert extremal_residual(spec, Point([1.0, 0.0], 1.0)) < 1e-14


def test_extremal_residual_guards():
    from carnot_hardy import CenterError
    spec = ZFieldSpec(H1, koranyi(H1), 2.0, 1.0)
    with pytest.raises(CenterError):
        extremal_residual(spec, Point([1.0, 0.0], 0.0))
    with pytest.raises(CenterError):
        extremal_residual(spec, Point([0.0, 0.0], 1.0))


# ---------------------------------------------------------------------------
# weak divergence identities and the adjoint of the dilation generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["i", "ii"])
def test_weak_divergence_identities(which):
    # the quadratic vertical modulation keeps both sides away from the
    # parity cancellations that make radial bumps integrate to zero here
    phi = radial_bump(H1, modulation=0.2, modulation2=0.3)
    defect, lhs, rhs = weak_divergence_defect(koranyi(H1), 2.0, phi, which)
    assert abs(lhs) > 1e-3
    assert defect <= 2e-3, (which, lhs, rhs)


def test_euler_adjoint():
    rng = np.random.default_rng(55)
    for _ in range(3):
        u = random_bump(H1, rng)
        v = random_bump(H1, rng)
        lo = min(u.support[0], v.support[0])
        hi = max(u.support[1], v.support[1])
        quad = QuadratureSpec(sigma_range=(lo, hi))
        assert euler_adjoint_defect(H1, u, v, quad) <= 2e-3


# ---------------------------------------------------------------------------
# scans (reduced sizes here; acceptance runs the full configuration)
# ---------------------------------------------------------------------------

def test_vertical_excess_is_zero_on_horizontal_plane():
    from carnot_hardy import balogh_tyson
    from carnot_hardy.verify.checks import _vertical_excess
    g = nonisotropic([0.5, 1.0])
    spec = ZFieldSpec(g, balogh_tyson(g), 2.0, 1.0)
    rng = np.random.default_rng(60)
    z = rng.normal(size=(30, 4))
    assert np.max(np.abs(_vertical_excess(spec, z, np.zeros((30, 1))))) == 0.0


def test_counterexample_scan_finds_positive_excess():
    rep = counterexample_scan(samples_log2=13)
    assert rep.passed
    assert rep.values["max_excess"] > 1e-6
    # frozen from an independent parameter sweep: the excess near
    # z = (0.99, 0, 0.54, 0), t = 0.50 is about 0.486
    from carnot_hardy import balogh_tyson
    g = nonisotropic([0.5, 1.0])
    spec = ZFieldSpec(g, balogh_tyson(g), 2.0, 1.0)
    from carnot_hardy.verify.checks import _vertical_excess
    val = _vertical_excess(spec, np.array([[0.99, 0.0, 0.54, 0.0]]),
                           np.array([[0.50]]))[0]
    assert val > 0.45
    assert rep.values["max_excess"] >= val - 1e-6


def test_counterexample_isotropic_control():
    rep = counterexample_scan(samples_log2=13, isotropic_control=True)
    assert rep.passed
    assert rep.values["max_excess"] <= 1e-6


def test_counterexample_control_sits_at_round_off():
    # closed Koranyi gradient: the profile argument makes B <= 0 exactly, so
    # only rounding remains on top of the t = 0 maximizer
    rep = counterexample_scan(samples_log2=13, isotropic_control=True)
    assert rep.diagnostics["norm"] == "koranyi"
    assert rep.values["max_excess"] <= 1e-12


# counterexample_scan(samples_log2=10) frozen when the scan's polish became
# safeguarded Newton steps: (max_excess, arg_z, arg_t, samples)
PINNED_SCANS = {
    False: (0.4857569468304379,
            [0.8014788775044307, 0.5030707906706547, -0.4932114427456078,
             0.15325744051625964],
            [-0.45621906363399733], 1023),
    True: (4.440892098500626e-16,
           [0.5231960264420188, 0.4805306922714397, -0.4098812196719497,
            -0.572148195366068],
           [5.487864654394644e-10], 1023),
}
# the excesses that the golden-section refinement and the coordinate sweeps
# zooming to 1e-10 in every sweep found; the scan may not find less than either
GOLDEN_SCAN_EXCESS = 0.4857554757509148
ZOOM_SCAN_EXCESS = 0.4857554757852234


@pytest.mark.parametrize("control", [False, True], ids=["scan", "control"])
def test_counterexample_scan_is_pinned(control):
    rep = counterexample_scan(samples_log2=10, isotropic_control=control)
    excess, arg_z, arg_t, samples = PINNED_SCANS[control]
    assert rep.values["max_excess"] == excess
    assert rep.values["arg_z"] == arg_z
    assert rep.values["arg_t"] == arg_t
    assert rep.diagnostics["samples"] == samples
    if not control:
        assert rep.values["max_excess"] >= GOLDEN_SCAN_EXCESS
        assert rep.values["max_excess"] >= ZOOM_SCAN_EXCESS


@pytest.mark.parametrize("m", [10, 12, 13, 15])
def test_counterexample_polish_reaches_the_local_max(m, polish_runs):
    # SciPy's BFGS, started where the polish starts, is the oracle for the
    # local maximum, which sits on a ridge that couples the coordinates
    from scipy.optimize import minimize
    from carnot_hardy.zfield import POLISH_CALLS
    rep = counterexample_scan(samples_log2=m)
    control = counterexample_scan(samples_log2=m, isotropic_control=True)
    f, x0, _ = polish_runs[0]
    res = minimize(lambda x: -f(x[None])[0], x0, method="BFGS", options={"gtol": 1e-11})
    assert abs(rep.values["max_excess"] + res.fun) <= 1e-12
    assert rep.values["max_excess"] >= ZOOM_SCAN_EXCESS
    # B <= 0 on the isotropic control: only rounding above the plane t = 0
    assert control.values["max_excess"] <= 1e-12
    assert all(len(calls) <= POLISH_CALLS for _, _, calls in polish_runs)


def test_scan_argmax_lies_on_the_unit_sphere(monkeypatch):
    from carnot_hardy import balogh_tyson
    from carnot_hardy.verify import checks
    from carnot_hardy.zfield import multistart_sup, scan_unit_sphere

    def on_sphere(norm, z, t):
        d = norm.value(np.asarray(z, float)[None], np.asarray(t, float)[None])[0]
        return abs(d - 1.0) <= 1e-12

    bt = balogh_tyson(nonisotropic([0.5, 1.0]))
    for control, norm in ((False, bt), (True, koranyi(heisenberg(2)))):
        rep = counterexample_scan(samples_log2=10, isotropic_control=control)
        assert on_sphere(norm, rep.values["arg_z"], rep.values["arg_t"])

    # product_check reports |arg_t| only; record the argmax it was given
    seen = []

    def recording(objective, norm, m, **kwargs):
        out = scan_unit_sphere(objective, norm, m, **kwargs)
        seen.append((norm, out[1]))
        return out

    monkeypatch.setattr(checks, "scan_unit_sphere", recording)
    rep = checks.product_check(1, 3, 2.0, 1.0, samples_log2=10)
    (norm, (arg_z, arg_t)), = seen
    assert rep.values["argmax_t_norm"] == float(np.linalg.norm(arg_t))
    assert on_sphere(norm, arg_z, arg_t)

    res = multistart_sup(ZFieldSpec(bt.group, bt, 2.0, 1.0), m=10)
    assert on_sphere(bt, *res.arg)


def test_vertical_excess_stack_matches_separate_fields():
    from carnot_hardy import balogh_tyson
    from carnot_hardy.verify.checks import _vertical_excess
    from carnot_hardy.zfield import z_field_components
    g = nonisotropic([0.5, 1.0])
    spec = ZFieldSpec(g, balogh_tyson(g), 2.0, 1.0)
    rng = np.random.default_rng(61)
    z = rng.normal(size=(50, 4))
    t = rng.normal(size=(50, 1))
    zc = z_field_components(spec, z, t)
    z0 = z_field_components(spec, z, np.zeros_like(t))
    separate = np.sum(zc * zc, axis=-1) - np.sum(z0 * z0, axis=-1)
    assert np.array_equal(_vertical_excess(spec, z, t), separate)


def test_product_check_small():
    rep = product_check(1, 2, 2.0, 1.0, samples_log2=13, mc_samples=2_000_000)
    assert rep.passed, rep.values
    assert rep.values["sampled_sup"] <= 2.0 + 1e-9
    assert rep.values["argmax_t_norm"] <= 1e-4
    assert rep.values["identity_rel_defect"] <= 5e-3
    assert "identity_not_checked" not in rep.diagnostics
    # on the slice {t = 0} the field reduces to (n+1)/n z/rho exactly
    from carnot_hardy import heisenberg_product, koranyi
    from carnot_hardy.zfield import z_field_components
    gp = heisenberg_product(1, 2)
    spec = ZFieldSpec(gp, koranyi(gp), 2.0, 1.0)
    rng = np.random.default_rng(61)
    z = rng.normal(size=(20, 4))
    vals = np.linalg.norm(z_field_components(spec, z, np.zeros((20, 2))), axis=-1)
    assert np.allclose(vals, 2.0, rtol=1e-14)


@pytest.mark.parametrize("n, N", [(1, 2), (1, 3), (2, 2)])
@pytest.mark.parametrize("p, theta", [(2.0, 1.0), (3.0, 1.0), (2.0, 0.5)])
def test_product_scan_finds_the_plateau(n, N, p, theta, polish_runs):
    # under the hypothesis |Z_rho| peaks at (n+1)/n on the plateau {t = 0},
    # flat in every z direction: the polish reaches it, never rises above it
    # but by rounding, and stays on it
    from carnot_hardy.zfield import POLISH_CALLS
    rep = product_check(n, N, p, theta, samples_log2=10, mc_samples=10**4)
    v = rep.values
    target = (n + 1) / n
    assert v["hypothesis_holds"]
    assert abs(v["sampled_sup"] - target) <= 1e-9
    assert v["argmax_t_norm"] <= 1e-4
    assert len(polish_runs) == 1 and len(polish_runs[0][2]) <= POLISH_CALLS


def test_product_check_hypothesis_violated():
    # n = 1, p theta = 12: the vertical term can push |Z| above (n+1)/n
    rep = product_check(1, 2, 2.0, 6.0, samples_log2=13)
    assert rep.values["hypothesis_holds"] is False
    assert rep.values["sampled_sup"] > 2.0 + 1e-9
    assert rep.passed


@pytest.mark.parametrize("n, N, theta, reason", [(1, 2, 3.0, "p theta = 6 > 4"),
                                                 (1, 3, 1.0, "(H^1)^2 only")])
def test_product_check_says_why_the_identity_is_not_checked(n, N, theta, reason):
    rep = product_check(n, N, 2.0, theta, samples_log2=8)
    assert reason in rep.diagnostics["identity_not_checked"]
    assert "identity_rel_defect" not in rep.values and "mc_stderr" not in rep.diagnostics


def test_report_serialization():
    rep = counterexample_scan(samples_log2=10)
    d = rep.to_dict()
    assert set(d) == {"name", "passed", "tol", "values", "diagnostics"}
    import json
    json.dumps(d)
