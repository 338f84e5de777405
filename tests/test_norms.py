import mpmath
import numpy as np
import pytest

from carnot_hardy import (CenterError, Point, balogh_tyson, cc, heisenberg,
                          heisenberg_product, koranyi, koranyi_b, nonisotropic)
from carnot_hardy.norms import cc_polar_arrays, solve_mu_inverse, symplectic_norm_sq_arrays
from carnot_hardy.verify.quadrature import Nodes, QuadratureSpec, _chunks, has_chart
from oracles import (at_point, cc_from_polar, equivalence_ratio_range, hgrad_batch,
                     reconstruction_defect_arrays, rotation_defect_arrays)

H1 = heisenberg(1)
H2 = heisenberg(2)


def rand_points(rng, g, n, scale=2.0):
    z = scale * rng.normal(size=(n, 2 * g.n))
    t = scale * rng.normal(size=(n, g.h))
    return z, t


# ---------------------------------------------------------------------------
# Koranyi
# ---------------------------------------------------------------------------

def test_koranyi_values():
    rho = koranyi(H1)
    assert at_point(rho.value, Point([1.0, 0.0], 0.0)) == 1.0
    assert at_point(rho.value, Point([0.0, 0.0], 1.0)) == 1.0
    assert at_point(rho.value, Point([1.0, 0.0], 1.0)) == pytest.approx(2**0.25, rel=1e-15)


def test_koranyi_hgrad_identities():
    g1 = at_point(koranyi(H1).hgrad, Point([1.0, 0.0], 0.0))
    assert np.allclose(g1, [1.0, 0.0], atol=1e-14)
    # |grad rho|^2 = |z|^2 / rho^2 at random points
    rng = np.random.default_rng(10)
    for g in (H1, H2):
        rho = koranyi(g)
        z, t = rand_points(rng, g, 100)
        grad = rho.hgrad(z, t)
        lhs = np.sum(grad * grad, axis=-1)
        rhs = np.sum(z * z, axis=-1) / rho.value(z, t) ** 2
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_koranyi_perp_pairing():
    # <z, perp grad rho> = |z|^2 t / rho^3, frozen at (1, 0, 1): 2^{-3/4}
    x = Point([1.0, 0.0], 1.0)
    grad = at_point(koranyi(H1).hgrad, x)
    perp = np.array([-grad[1], grad[0]])
    assert float(x.z @ perp) == pytest.approx(2.0**-0.75, rel=1e-13)
    assert float(x.z @ perp) == pytest.approx(0.594604, abs=1e-6)


def test_koranyi_hgrad_vs_fd():
    rng = np.random.default_rng(11)
    rho = koranyi(H1)
    z, t = rand_points(rng, H1, 100)
    ana = rho.hgrad(z, t)
    fd = hgrad_batch(H1, rho.value, z, t, 1e-6)
    assert np.max(np.abs(ana - fd)) < 1e-8


def test_koranyi_on_products():
    gp = heisenberg_product(2, 3)
    rho = koranyi(gp)
    rng = np.random.default_rng(12)
    z, t = rand_points(rng, gp, 60)
    ana = rho.hgrad(z, t)
    fd = hgrad_batch(gp, rho.value, z, t, 1e-6)
    assert np.max(np.abs(ana - fd)) < 1e-8
    dt_fd = (rho.value(z, t + 1e-6 * np.eye(gp.h)[0]) -
             rho.value(z, t - 1e-6 * np.eye(gp.h)[0])) / 2e-6
    assert np.max(np.abs(rho.dt(z, t)[:, 0] - dt_fd)) < 1e-8


# ---------------------------------------------------------------------------
# generalized Koranyi
# ---------------------------------------------------------------------------

def test_koranyi_b_reduces_to_koranyi_isotropic():
    rng = np.random.default_rng(13)
    rb = koranyi_b(H2)
    rho = koranyi(H2)
    z, t = rand_points(rng, H2, 50)
    assert np.allclose(rb.value(z, t), rho.value(z, t), rtol=1e-14)
    assert np.allclose(rb.hgrad(z, t), rho.hgrad(z, t), rtol=1e-12, atol=1e-14)


def test_koranyi_b_value_example():
    g = nonisotropic([1.0, 2.0])
    x = Point([2.0, 0.0, 0.0, 0.0], 0.0)
    # |z|_B^2 = (1/4) * 1 * 4 = 1
    assert at_point(koranyi_b(g).value, x) == pytest.approx(1.0, rel=1e-15)


def test_koranyi_b_gradients_vs_fd():
    g = nonisotropic([1.0, 2.0])
    rb = koranyi_b(g)
    rng = np.random.default_rng(14)
    z, t = rand_points(rng, g, 80)
    ana = rb.hgrad(z, t)
    fd = hgrad_batch(g, rb.value, z, t, 1e-6)
    assert np.max(np.abs(ana - fd)) < 1e-8


# ---------------------------------------------------------------------------
# cc distance
# ---------------------------------------------------------------------------

def test_mu_inverse_monotone_and_exact():
    # below 1e-4 the reference subtraction nu - sin(nu) is itself noisy, so
    # the direct comparison starts there; backward error covers the rest
    nus = np.linspace(1e-4, 2 * np.pi - 1e-6, 30001)
    omc = 2 * np.sin(nus / 2) ** 2
    mus = (nus - np.sin(nus)) / omc
    assert np.all(np.diff(mus) > 0)
    got = solve_mu_inverse(mus)
    assert np.max(np.abs(got - nus)) < 1e-11
    # backward error across fourteen decades, odd branch included
    m = np.concatenate([np.geomspace(1e-8, 1e6, 2000), [0.0], -np.geomspace(1e-8, 1e6, 7)])
    nu = solve_mu_inverse(m)
    omc = 2 * np.sin(nu / 2) ** 2
    back = np.where(np.abs(nu) < 1e-3,
                    nu / 3 + nu**3 / 90 + nu**5 / 2520,
                    (nu - np.sin(nu)) / np.where(omc == 0, 1.0, omc))
    assert np.max(np.abs(back - m) / np.maximum(1.0, np.abs(m))) < 1e-12
    with pytest.raises(ValueError):
        solve_mu_inverse(np.array([np.inf]))


def test_balogh_tyson_lives_on_exactly_the_half_one_group():
    assert balogh_tyson(nonisotropic([0.5, 1.0])).kind == "balogh_tyson"
    with pytest.raises(ValueError):
        balogh_tyson(nonisotropic([0.500004, 1.0]))


def test_mu_inverse_near_the_pole():
    # m = t/|z|^2 beyond ~1e11 puts nu within ~1e-5 of 2 pi, where Newton in
    # nu cannot certify its residual; the pole expansion
    # m = 4 pi/delta^2 + pi/3 + O(delta), delta = 2 pi - nu, must hold there
    m = np.geomspace(1e11, 1e16, 200)
    nu = solve_mu_inverse(np.concatenate([m, -m]))
    assert np.all(nu[200:] == -nu[:200])
    delta = 2 * np.pi - nu[:200]
    assert np.all(delta > 0)
    assert np.max(np.abs(4 * np.pi / delta**2 + np.pi / 3 - m) / m) < 1e-6


def test_cc_value_near_the_pole():
    # t/|z|^2 = 1e14: the distance is continuous there, near sqrt(pi |t|)
    d = cc(H1).value(np.array([[1e-7, 0.0]]), np.array([[1.0]]))[0]
    assert abs(d - np.sqrt(np.pi)) <= 1e-6
    assert at_point(cc(H1).value, Point([0.0, 1e-7], -1.0)) == pytest.approx(d, rel=1e-12)


def test_cc_beyond_float_resolution_of_the_pole():
    # t/|z|^2 from 1e14 to 1e60: float64 nu rounds to 2 pi from ~1e32 on, so
    # the chart must come from 2 pi - nu itself.  (0, t)^{-1} o (z, t) = (z, 0)
    # gives |d(z, t) - sqrt(pi |t|)| <= |z|
    eps = np.geomspace(1e-30, 1e-7, 60)
    z = np.stack([eps, np.zeros_like(eps)], axis=-1)
    t = np.ones((eps.size, 1))
    model = cc(H1)
    d = model.value(np.concatenate([z, z]), np.concatenate([t, -t]))
    assert np.all(np.abs(d - np.sqrt(np.pi)) <= np.concatenate([eps, eps]) + 1e-15)
    assert np.allclose(np.linalg.norm(model.hgrad(z, t), axis=-1), 1.0, atol=1e-12)
    nu, r, a, b = cc_polar_arrays(z, t[:, 0])
    assert np.all(np.isfinite(nu)) and np.allclose(a**2 + b**2, 1.0, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_mu_inverse_at_the_largest_slopes():
    # 2 m overflows from m ~ 9e307: the residual check must still see that
    # Newton in nu has not converged there, and hand over to the pole branch
    m = np.array([9e307, 1e308, np.finfo(float).max])
    delta = np.empty(m.shape)
    nu = solve_mu_inverse(m, delta=delta)
    assert np.all(np.isfinite(delta)) and np.all(nu > 0)
    assert m * delta**2 == pytest.approx(4 * np.pi, rel=1e-12)
    # so |d(z, t) - sqrt(pi |t|)| <= |z| at |z| = 1
    d = cc(H1).value(np.tile([1.0, 0.0], (m.size, 1)), m[:, None])
    assert d == pytest.approx(np.sqrt(np.pi) * np.sqrt(m), rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_cc_center_value_over_the_float_range():
    model = cc(H1)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    # where pi |t| is a normal float the distance is sqrt(pi |t|) to the bit
    t = np.concatenate([np.geomspace(tiny / 3.0, huge / 3.5, 2001), [0.25, 1.0]])
    t = np.concatenate([t, -t])
    d = model.value(np.zeros((t.size, 2)), t[:, None])
    assert np.array_equal(d, np.sqrt(np.pi * np.abs(t)))
    # elsewhere pi |t| overflows or is subnormal, and the distance stays
    # within 2 ulps of the exact sqrt(pi |t|)
    t = np.array([5e-324, 1e-320, 3e-310, tiny / 4.0, huge / 3.0, 1e308, huge])
    t = np.concatenate([t, -t])
    d = model.value(np.zeros((t.size, 2)), t[:, None])
    with mpmath.workdps(50):
        for tv, dv in zip(t, d):
            exact = mpmath.sqrt(mpmath.pi * abs(mpmath.mpf(float(tv))))
            assert float(abs(mpmath.mpf(float(dv)) - exact)) <= 2.0 * np.spacing(dv)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1.0, 1e10, -1e10])
def test_cc_near_the_center_where_the_slope_overflows(t):
    # |z| from 1e-10 to 1e-300: the slope t/|z|^2 is finite, overflows (from
    # |z| ~ 1e-154 at t = 1, ~ 1e-149 at t = 1e10), and |z|^2 is subnormal or
    # 0.  The triangle inequality through (0, t), whose distance to (z, t) is
    # |z|, gives |d - sqrt(pi |t|)| <= |z|, here up to the rounding of both
    model = cc(H1)
    size = 10.0 ** -np.linspace(10.0, 300.0, 581)
    z = np.concatenate([np.stack([size, np.zeros_like(size)], axis=1),
                        np.stack([-size, size], axis=1) / np.sqrt(2.0)])
    tt = np.full((len(z), 1), t)
    centre = np.sqrt(np.pi * abs(t))
    d = model.value(z, tt)
    assert np.all(np.abs(d - centre) <= np.linalg.norm(z, axis=1) + 4 * np.spacing(centre))
    # where |z|^2 is a normal float the polar data stay finite, nu = +-2pi
    # once the slope overflows (at t = 1e10 only), and the gradient keeps unit
    # length
    zn2 = np.sum(z * z, axis=1)
    normal = zn2 >= np.finfo(float).tiny
    with np.errstate(over="ignore"):
        steep = np.isinf(t / zn2[normal])
    assert steep.any() == (abs(t) > 1.0)
    nu, r, a, b = cc_polar_arrays(z[normal], tt[normal, 0])
    assert np.all(np.isfinite(r)) and np.allclose(a**2 + b**2, 1.0, atol=1e-12)
    assert np.all(nu[steep] == np.copysign(2 * np.pi, t))
    assert np.allclose(np.linalg.norm(model.hgrad(z[normal], tt[normal]), axis=1), 1.0,
                       atol=1e-12)
    assert np.all(np.isfinite(model.dt(z[normal], tt[normal])))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e300, 1e-310, -1e-322])
@pytest.mark.parametrize("g, z", [(H2, [1e-160, 0.0, 0.0, 3e-161]), (H1, [3e-161, -1e-161])],
                         ids=["H2", "H1"])
def test_cc_hgrad_has_unit_length_where_z_squared_is_subnormal(g, z, t):
    # |z|^2 ~ 1e-320 is subnormal, and its square root has lost digits that z
    # keeps; t = 1e300 takes the branch where t/|z|^2 overflows, the others
    # the inversion of the slope
    z, tt = np.array([z]), np.array([[t]])
    grad = cc(g).hgrad(z, tt)
    assert abs(np.linalg.norm(grad) - 1.0) <= 4 * np.spacing(1.0)
    _, _, a, b = cc_polar_arrays(z, tt[:, 0])
    assert abs(np.sum(a**2 + b**2) - 1.0) <= 4 * np.spacing(1.0)


def test_cc_from_polar_examples():
    x = cc_from_polar([1.0], [0.0], 0.0, 2.0)
    assert np.allclose(x.z, [2.0, 0.0]) and np.allclose(x.t, 0.0)

    x = cc_from_polar([1.0], [0.0], np.pi, np.pi / 2)
    assert float(x.z @ x.z) == pytest.approx(1.0, rel=1e-14)
    assert float(x.t[0]) == pytest.approx(np.pi / 2, rel=1e-14)

    # nu -> 2pi at fixed r: |z| -> 0 and t -> r^2/pi
    r = 1.3
    x = cc_from_polar([1.0], [0.0], 2 * np.pi - 1e-8, r)
    assert np.linalg.norm(x.z) < 1e-7
    assert float(x.t[0]) == pytest.approx(r**2 / np.pi, rel=1e-7)


def test_cc_invert_examples():
    nu, r, _, _ = cc_polar_arrays(np.array([[1.0, 0.0]]), np.array([0.0]))
    assert nu[0] == pytest.approx(0.0, abs=1e-14)
    assert r[0] == pytest.approx(1.0, rel=1e-14)

    nu, r, _, _ = cc_polar_arrays(np.array([[1.0, 0.0]]), np.array([np.pi / 2]))
    assert nu[0] == pytest.approx(np.pi, rel=1e-12)
    assert r[0] == pytest.approx(np.pi / 2, rel=1e-12)

    # the chart degenerates on the center, where the distance is sqrt(pi |t|)
    d = at_point(cc(H1).value, Point([0.0, 0.0], 1.0))
    assert d == pytest.approx(np.sqrt(np.pi), rel=1e-14)
    for t in (1.0, 0.0):
        with pytest.raises(CenterError):
            cc_polar_arrays(np.array([[0.0, 0.0]]), np.array([t]))


def test_cc_round_trip():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        w = rng.normal(size=2 * n)
        w /= np.linalg.norm(w)
        a, b = w[:n], w[n:]
        nu = rng.uniform(-2 * np.pi + 0.05, 2 * np.pi - 0.05)
        r = rng.uniform(0.1, 10.0)
        x = cc_from_polar(a, b, nu, r)
        nu_x, r_x, a_x, b_x = (v[0] for v in cc_polar_arrays(x.z[None], x.t))
        y = cc_from_polar(a_x, b_x, nu_x, r_x)
        worst = max(worst, abs(nu_x - nu), abs(r_x - r),
                    float(np.max(np.abs(y.z - x.z))), abs(float(y.t[0] - x.t[0])))
    assert worst < 1e-9


def test_cc_values():
    dcc = cc(H1)
    assert at_point(dcc.value, Point([1.0, 0.0], 0.0)) == pytest.approx(1.0, rel=1e-14)
    assert at_point(dcc.value, Point([0.0, 0.0], 1.0)) == pytest.approx(np.sqrt(np.pi),
                                                                        abs=1e-10)
    assert at_point(dcc.value, Point([0.0, 0.0], 0.0)) == 0.0
    # homogeneity at random points
    rng = np.random.default_rng(16)
    for _ in range(50):
        x = Point(rng.normal(size=2), rng.normal(size=1))
        five = at_point(dcc.value, Point(5.0 * x.z, 25.0 * x.t))
        assert five == pytest.approx(5.0 * at_point(dcc.value, x), rel=1e-11)


def test_cc_gradient_identities():
    rng = np.random.default_rng(17)
    model = cc(H1)
    count = 0
    while count < 100:
        z = rng.normal(size=(1, 2))
        t = rng.normal(size=(1, 1)) * 2.0
        nu, r, a, b = cc_polar_arrays(z, t[..., 0])
        if abs(nu[0]) > 2 * np.pi - 0.1:
            continue
        count += 1
        grad = model.hgrad(z, t)[0]
        assert abs(np.linalg.norm(grad) - 1.0) < 1e-9
        fd = hgrad_batch(H1, model.value, z, t, 1e-6)[0]
        assert np.max(np.abs(grad - fd)) < 1e-6
        # d(dcc)/dt = nu/(4r), against finite differences
        dt_fd = (model.value(z, t + 1e-6) - model.value(z, t - 1e-6)) / 2e-6
        assert abs(model.dt(z, t)[0, 0] - dt_fd[0]) < 1e-6
        # <z, perp grad dcc> = (1 - cos nu) r / nu
        perp = np.array([-grad[1], grad[0]])
        if abs(nu[0]) > 1e-3:
            expect = (1 - np.cos(nu[0])) * r[0] / nu[0]
            assert float(z[0] @ perp) == pytest.approx(expect, rel=1e-9, abs=1e-12)


def test_cc_dt_example():
    dcc = cc(H1)
    assert at_point(dcc.dt, Point([1.0, 0.0], np.pi / 2))[0] == pytest.approx(0.5, rel=1e-12)
    assert at_point(dcc.dt, Point([1.0, 0.0], 0.0))[0] == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(CenterError):
        at_point(dcc.hgrad, Point([0.0, 0.0], 1.0))


def test_cc_hgrad_at_nu_zero():
    # at (1,0,0): nu = 0, (a, b) = ((1), (0)), so the gradient is (1, 0)
    g = at_point(cc(H1).hgrad, Point([1.0, 0.0], 0.0))
    assert np.allclose(g, [1.0, 0.0], atol=1e-12)


def test_cc_on_h2():
    model = cc(H2)
    rng = np.random.default_rng(18)
    z, t = rand_points(rng, H2, 40, scale=1.0)
    grad = model.hgrad(z, t)
    assert np.max(np.abs(np.linalg.norm(grad, axis=-1) - 1.0)) < 1e-9
    fd = hgrad_batch(H2, model.value, z, t, 1e-6)
    assert np.max(np.abs(grad - fd)) < 1e-6


# ---------------------------------------------------------------------------
# Balogh-Tyson gauge
# ---------------------------------------------------------------------------

def test_balogh_tyson_value():
    x = Point([0.0, 0.0, 1.0, 0.0], 0.0)
    rho = balogh_tyson(nonisotropic([0.5, 1.0]))
    assert at_point(rho.value, x) == pytest.approx(2.0**-0.125, rel=1e-14)
    assert at_point(rho.value, x) == pytest.approx(0.917004, abs=1e-6)


def test_balogh_tyson_positive_on_grid():
    g = nonisotropic([0.5, 1.0])
    model = balogh_tyson(g)
    rng = np.random.default_rng(19)
    z, t = rand_points(rng, g, 500)
    assert np.all(model.value(z, t) > 0)
    # degree-1 homogeneity at the dilation factors 1/2, 2, 7
    d0 = model.value(z, t)
    for gam in (0.5, 2.0, 7.0):
        assert np.allclose(model.value(gam * z, gam**2 * t), gam * d0, rtol=1e-13)


# ---------------------------------------------------------------------------
# the frame gradients, written out slot by slot
# ---------------------------------------------------------------------------

def _slots(z, first, second):
    g = np.empty(z.shape)
    g[..., 0::2] = first
    g[..., 1::2] = second
    return g


def _koranyi_slots(model, z, t, rho=None):
    L = model.group.couplings
    zn2 = np.sum(z * z, axis=-1)[..., None]
    rho3 = ((model.value(z, t) if rho is None else rho) ** 3)[..., None]
    lt4 = (t @ L) / 4.0
    return _slots(z, (zn2 * z[..., 0::2] + z[..., 1::2] * lt4) / rho3,
                  (zn2 * z[..., 1::2] - z[..., 0::2] * lt4) / rho3)


def _koranyi_b_slots(model, z, t):
    g = model.group
    t1 = t[..., 0][..., None]
    zb2 = symplectic_norm_sq_arrays(g, z)[..., None]
    coef = g.lambdas / (4.0 * (model.value(z, t) ** 3)[..., None])
    return _slots(z, coef * (zb2 * z[..., 0::2] + z[..., 1::2] * t1),
                  coef * (zb2 * z[..., 1::2] - z[..., 0::2] * t1))


def _balogh_tyson_slots(model, z, t):
    t1 = t[..., 0]
    half = (z[..., 0]**2 + z[..., 1]**2) / 2.0
    w = half + z[..., 2]**2 + z[..., 3]**2
    s = np.hypot(w, t1)
    rho = model.value(z, t)
    a = 0.375 / (half + s)
    b = 0.125 / (w + s)
    ls = 0.25 / s + a - b
    lw = ls * w / s - b
    lq = np.stack([a + lw, 2.0 * lw], axis=-1) * rho[..., None]
    ct = (model.group.lambdas / 2.0) * (rho * (ls * t1 / s))[..., None]
    return _slots(z, lq * z[..., 0::2] + ct * z[..., 1::2],
                  lq * z[..., 1::2] - ct * z[..., 0::2])


_SLOT_CASES = [
    (koranyi, _koranyi_slots, H1), (koranyi, _koranyi_slots, H2),
    (koranyi, _koranyi_slots, nonisotropic([1.0, 2.0])),
    (koranyi, _koranyi_slots, nonisotropic([0.5, 1.0])),
    (koranyi, _koranyi_slots, heisenberg_product(1, 2)),
    (koranyi, _koranyi_slots, nonisotropic([2.0])),
    (koranyi_b, _koranyi_b_slots, H1), (koranyi_b, _koranyi_b_slots, H2),
    (koranyi_b, _koranyi_b_slots, nonisotropic([1.0, 2.0])),
    (koranyi_b, _koranyi_b_slots, nonisotropic([0.5, 1.0])),
    (balogh_tyson, _balogh_tyson_slots, nonisotropic([0.5, 1.0])),
]


@pytest.mark.parametrize("factory, slots, g", _SLOT_CASES,
                         ids=[f"{f.__name__} {g.couplings.tolist()}" for f, _, g in _SLOT_CASES])
def test_hgrad_is_bit_identical_to_the_slot_formulas(factory, slots, g):
    model = factory(g)
    z, t = rand_points(np.random.default_rng(23), g, 400)
    assert np.array_equal(model.hgrad(z, t), slots(model, z, t))
    _, grad = model.jet(Nodes(z, t))
    assert np.array_equal(grad, slots(model, z, t))
    if has_chart(g):
        # a chunk of the phi chart: the Koranyi gradient takes the chunk's
        # radius column as its gauge, the other gauges read (z, t) alone
        nodes = next(_chunks(g, QuadratureSpec(sigma_range=(0.25, 2.0), n_sigma=8), False))[0]
        gauge = {"rho": nodes.gauge()} if factory is koranyi else {}
        assert np.array_equal(model.jet(nodes)[1], slots(model, nodes.z, nodes.t, **gauge))


def test_koranyi_chart_jet_is_bit_identical_to_the_slot_formula():
    # on a chart chunk the Koranyi gradient reads the chunk's radius column
    # as rho and is otherwise the point slot formula, bit for bit
    quad = QuadratureSpec(sigma_range=(0.25, 2.0), n_sigma=8)
    nodes = next(_chunks(H1, quad, False))[0]
    assert np.array_equal(koranyi(H1).jet(nodes)[1],
                          _koranyi_slots(koranyi(H1), nodes.z, nodes.t, rho=nodes.gauge()))


# ---------------------------------------------------------------------------
# shared structural properties
# ---------------------------------------------------------------------------

def _models():
    return [koranyi(H1), cc(H1), koranyi_b(nonisotropic([1.0, 2.0])),
            balogh_tyson(nonisotropic([0.5, 1.0]))]


def test_homogeneity_all_norms():
    rng = np.random.default_rng(20)
    for model in _models():
        g = model.group
        z, t = rand_points(rng, g, 1000, scale=1.5)
        gam = rng.uniform(0.2, 5.0, size=1000)
        d0 = model.value(z, t)
        d1 = model.value(gam[:, None] * z, gam[:, None] ** 2 * t)
        assert np.max(np.abs(d1 - gam * d0)) <= 1e-12 * np.max(gam * d0)


def test_norm_equivalence_ranges():
    # every pair of gauges on a common group is squeezed between positive
    # constants on the unit Koranyi sphere; record the empirical ranges
    lo, hi = equivalence_ratio_range(cc(H1), koranyi(H1), seed=21)
    assert 0.9 < lo <= hi < 2.2
    g = nonisotropic([0.5, 1.0])
    pairs = [(balogh_tyson(g), koranyi(g)), (balogh_tyson(g), koranyi_b(g)),
             (koranyi_b(g), koranyi(g))]
    for a, b in pairs:
        lo2, hi2 = equivalence_ratio_range(a, b, seed=22)
        assert 0 < lo2 <= hi2 < 10, (a.kind, b.kind, lo2, hi2)


def test_rotation_invariance_hypothesis():
    # <z, B^{-1} grad_z d> = 0 for every shipped gauge
    rng = np.random.default_rng(23)
    for model in _models():
        g = model.group
        z, t = rand_points(rng, g, 60, scale=1.0)
        defect = rotation_defect_arrays(model, z, t)
        assert np.max(np.abs(defect)) < 1e-8, model.kind


def test_reconstruction_identity():
    # 4 (t/|z|^2) <B^{-1} grad d, z> + <z, grad d> = d off the center
    rng = np.random.default_rng(24)
    for model in (koranyi(H1), cc(H1), koranyi(H2)):
        g = model.group
        count = 0
        while count < 50:
            z = rng.normal(size=(1, 2 * g.n))
            t = rng.normal(size=(1, g.h))
            if model.kind == "cc":
                nu, _, _, _ = cc_polar_arrays(z, t[..., 0])
                if abs(nu[0]) > 2 * np.pi - 0.1:
                    continue
            count += 1
            defect = reconstruction_defect_arrays(model, z, t)
            d = model.value(z, t)
            assert abs(defect[0]) < 1e-6 * d[0], model.kind


def test_d3_vanishing_toward_center():
    # <z/|z|, B^{-1} grad d> -> 0 as |z| -> 0 at fixed t != 0
    for model in (koranyi(H1), cc(H1)):
        lam = model.group.lambdas
        prev = np.inf
        for scale in (1e-1, 1e-2, 1e-3, 1e-4):
            z = np.array([[scale, 0.5 * scale]])
            t = np.array([[0.7]])
            g = model.hgrad(z, t)
            binv_dot = float((z[0, 1] * g[0, 0] - z[0, 0] * g[0, 1]) / lam[0])
            val = abs(binv_dot) / np.linalg.norm(z)
            assert val < prev + 1e-12
            prev = val
        assert prev < 1e-3


def test_origin_and_center_guards():
    # the cc distance is not differentiable on the center, the origin included
    for t in (0.5, 0.0):
        with pytest.raises(CenterError):
            at_point(cc(H1).hgrad, Point([0.0, 0.0], t))
        with pytest.raises(CenterError):
            at_point(cc(H1).dt, Point([0.0, 0.0], t))
    # koranyi is smooth through the center away from the origin
    g = at_point(koranyi(H1).hgrad, Point([0.0, 0.0], 0.5))
    assert np.allclose(g, 0.0)
