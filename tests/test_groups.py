import numpy as np
import pytest

from carnot_hardy import (Point, dilate, group_inverse, group_law, heisenberg,
                          heisenberg_product, koranyi, nonisotropic)
from carnot_hardy.groups import StepTwoGroup, pairing
from oracles import (commutator_vertical, default_step, euler_apply, hgrad_batch,
                     horizontal_divergence, horizontal_gradient)


def test_group_invariants():
    g = heisenberg(2)
    assert g.n == 2 and g.h == 1 and g.Q == 6
    assert np.allclose(g.lambdas, 4.0)
    gp = heisenberg_product(1, 2)
    assert gp.Q == 8 and gp.h == 2 and gp.n == 2
    with pytest.raises(ValueError):
        nonisotropic([1.0, 0.0])
    with pytest.raises(ValueError):
        StepTwoGroup(np.array([[4.0, 0.0], [4.0, 0.0]]))


def test_group_law_identity_and_inverse():
    g = heisenberg(1)
    e = Point([0.0, 0.0], 0.0)
    y = Point([1.0, 2.0], 3.0)
    xy = group_law(g, e, y)
    assert np.allclose(xy.z, [1, 2]) and np.allclose(xy.t, 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Point(rng.normal(size=2), rng.normal(size=1))
        prod = group_law(g, x, group_inverse(g, x))
        assert np.allclose(prod.z, 0) and np.allclose(prod.t, 0, atol=1e-15)


def test_center_and_origin_are_exact_zeros():
    # |z|^2 underflows here, but z is not 0
    tiny = Point([1e-200, 0.0], 0.0)
    assert not tiny.on_center() and not tiny.is_origin()
    assert Point([0.0, 0.0], 1e-200).on_center()
    assert not Point([0.0, 0.0], 1e-200).is_origin()
    assert Point([0.0, -0.0], 0.0).is_origin()


def test_group_law_block_formula():
    # lam = 4 block: <Bz, eta> = 4 (z2 eta1 - z1 eta2), so the cross term of
    # (1,0,0) o (0,1,0) is -2
    g = heisenberg(1)
    out = group_law(g, Point([1.0, 0.0], 0.0), Point([0.0, 1.0], 0.0))
    assert np.allclose(out.z, [1, 1])
    assert np.allclose(out.t, [-2.0])


def test_group_law_dimension_mismatch():
    g = heisenberg(1)
    with pytest.raises(ValueError):
        group_law(g, Point([1.0, 0.0, 0.0, 0.0], 0.0), Point([0.0, 1.0], 0.0))


def test_dilate():
    g = heisenberg(1)
    x = Point([1.0, 0.0], 1.0)
    assert np.allclose(dilate(g, 1.0, x).z, x.z)
    y = dilate(g, 2.0, x)
    assert np.allclose(y.z, [2, 0]) and np.allclose(y.t, 4)
    z = dilate(g, 3.0, dilate(g, 0.5, x))
    w = dilate(g, 1.5, x)
    assert np.allclose(z.z, w.z) and np.allclose(z.t, w.t)
    with pytest.raises(ValueError):
        dilate(g, 0.0, x)
    with pytest.raises(ValueError):
        dilate(g, -1.0, x)


def _coordinate_fields(g):
    def z1(z, t):
        return np.asarray(z)[..., 0]

    def tval(z, t):
        return np.asarray(t)[..., 0]

    return z1, tval


def test_horizontal_gradient_coordinate_fields():
    g = heisenberg(1)
    fz1, ft = _coordinate_fields(g)
    x = Point([0.7, -0.3], 0.4)
    gv = horizontal_gradient(g, fz1, x)
    assert np.allclose(gv, [1.0, 0.0], atol=1e-9)
    # u = t: X_i t = (Bz)_i / 2 = (2 z2, -2 z1)
    gt = horizontal_gradient(g, ft, x)
    assert np.allclose(gt, [2 * x.z[1], -2 * x.z[0]], atol=1e-8)


def test_horizontal_gradient_analytic_vs_fd():
    g = heisenberg(1)
    rho = koranyi(g)
    x = Point([1.0, 0.0], 0.0)
    ana = rho.hgrad_at(x)
    assert np.allclose(ana, [1.0, 0.0], atol=1e-12)
    fd = horizontal_gradient(g, rho.value, x, step=1e-5)
    assert np.allclose(fd, ana, atol=1e-9)


def test_frame_orthonormality_against_fd():
    # |grad rho| from analytic components vs finite-difference horizontal norm
    g = heisenberg(1)
    rho = koranyi(g)
    rng = np.random.default_rng(1)
    z = rng.normal(size=(50, 2))
    t = rng.normal(size=(50, 1))
    ana = np.linalg.norm(rho.hgrad(z, t), axis=-1)
    fd = np.linalg.norm(hgrad_batch(g, rho.value, z, t, 1e-6), axis=-1)
    assert np.max(np.abs(ana - fd) / ana) < 1e-6


def test_euler_apply():
    g = heisenberg(1)
    rho = koranyi(g)
    rng = np.random.default_rng(2)
    # homogeneous of degree 1: E d = d
    for _ in range(10):
        x = Point(rng.normal(size=2), rng.normal(size=1))
        ed = euler_apply(g, rho.value, x)
        assert abs(ed - rho.value_at(x)) < 1e-8 * max(1, rho.value_at(x))
    x = Point([0.3, 0.1], 0.7)

    def ft(z, t):
        return np.asarray(t)[..., 0]

    def fz2(z, t):
        return np.sum(np.asarray(z)**2, axis=-1)

    assert abs(euler_apply(g, ft, x) - 2 * 0.7) < 1e-9
    assert abs(euler_apply(g, fz2, x) - 2 * (0.3**2 + 0.1**2)) < 1e-8


def test_horizontal_divergence():
    g = heisenberg(2)
    x = Point([0.4, -0.2, 0.3, 0.9], 0.5)

    def identity_field(z, t):
        return np.asarray(z, float)

    assert abs(horizontal_divergence(g, identity_field, x) - 4.0) < 1e-8

    def const_field(z, t):
        return np.broadcast_to([1.0, -2.0, 0.5, 0.0], np.shape(z))

    assert abs(horizontal_divergence(g, const_field, x)) < 1e-10

    # V = perp-gradient of a smooth function on block i: div V = lam_i d_t phi
    def phi(z, t):
        return np.sin(np.asarray(z)[..., 0] + np.asarray(z)[..., 2]) * np.asarray(t)[..., 0]

    def perp_block0(z, t):
        grad = hgrad_batch(g, phi, z, t, 1e-4)
        out = np.zeros(grad.shape)
        out[..., 0], out[..., 1] = -grad[..., 1], grad[..., 0]
        return out

    dphi_dt = np.sin(x.z[0] + x.z[2])
    got = horizontal_divergence(g, perp_block0, x, step=1e-4)
    assert abs(got - 4.0 * dphi_dt) < 1e-5


@pytest.mark.parametrize("g", [heisenberg_product(1, 2), nonisotropic([1.0, 2.0])],
                         ids=["(H^1)^2", "lam (1, 2)"])
def test_divergence_of_perp_gradients_on_every_block(g):
    # V = perp-gradient of phi on block i: div V = [X_{2i}, X_{2i-1}] phi
    #   = sum_j lam^(j)_i d_{t_j} phi
    def phi(z, t):
        z, t = np.asarray(z), np.asarray(t)
        return np.sin(z[..., 0] + z[..., 2]) * t[..., 0] + np.cos(z[..., 1]) * t[..., -1] ** 2

    def dt_phi(z, t):
        dt = np.zeros(t.shape)
        dt[0] = np.sin(z[0] + z[2])
        dt[-1] += 2.0 * np.cos(z[1]) * t[-1]
        return dt

    rng = np.random.default_rng(6)
    for _ in range(5):
        x = Point(rng.normal(size=2 * g.n), rng.normal(size=g.h))
        for i in range(g.n):
            def perp(z, t, i=i):
                grad = hgrad_batch(g, phi, z, t, 1e-4)
                out = np.zeros(grad.shape)
                out[..., 2 * i], out[..., 2 * i + 1] = -grad[..., 2 * i + 1], grad[..., 2 * i]
                return out

            expected = float(g.couplings[:, i] @ dt_phi(x.z, x.t))
            got = horizontal_divergence(g, perp, x, step=1e-4)
            assert abs(got - expected) < 1e-5 * max(1.0, abs(expected))


@pytest.mark.parametrize("g", [heisenberg_product(1, 2), nonisotropic([1.0, 2.0])],
                         ids=["(H^1)^2", "lam (1, 2)"])
def test_euler_apply_returns_the_degree_of_homogeneous_polynomials(g):
    # z has degree 1 and t degree 2: both terms below are homogeneous of degree 3
    def u(z, t):
        z, t = np.asarray(z), np.asarray(t)
        return z[..., 0] ** 2 * z[..., 3] - 0.5 * z[..., 1] * t[..., -1]

    rng = np.random.default_rng(7)
    for _ in range(10):
        x = Point(rng.normal(size=2 * g.n), rng.normal(size=g.h))
        val = float(u(x.z, x.t))
        assert abs(euler_apply(g, u, x) - 3.0 * val) < 1e-8 * max(1.0, abs(val))


def test_lambda_min():
    assert heisenberg(2).lambdas.min() == 4.0
    assert nonisotropic([1.0, 2.0]).lambdas.min() == 1.0
    assert nonisotropic([0.5, 1.0]).lambdas.min() == 0.5
    with pytest.raises(ValueError):
        heisenberg_product(1, 2).lambdas


def test_isotropic_heisenberg_means_couplings_of_exactly_four():
    assert heisenberg(2).is_isotropic_heisenberg()
    assert nonisotropic([4.0, 4.0]).is_isotropic_heisenberg()
    assert not nonisotropic([4.00003, 4.0]).is_isotropic_heisenberg()
    assert not heisenberg_product(1, 2).is_isotropic_heisenberg()


def test_commutators_at_random_points():
    rng = np.random.default_rng(3)

    def u(z, t):
        z = np.asarray(z)
        t = np.asarray(t)
        return np.sin(z[..., 0]) * z[..., -1] ** 2 + np.cos(t[..., 0]) * z[..., 0]

    def dt_u(z, t):
        return -np.sin(np.asarray(t)[..., 0]) * np.asarray(z)[..., 0]

    for g in (heisenberg(1), nonisotropic([1.0, 2.0]), heisenberg_product(1, 2)):
        for _ in range(25):
            x = Point(rng.normal(size=2 * g.n), rng.normal(size=g.h))
            for i in range(g.n):
                lams = g.couplings[:, i]
                # only the first vertical direction appears in u above
                expected = float(lams[0] * dt_u(x.z[None], x.t[None])[0])
                got = commutator_vertical(g, u, x, i, step=1e-3)
                assert abs(got - expected) < 5e-5 * max(1.0, abs(expected))


def test_dilation_scaling_of_gradient():
    # degree-0 homogeneity of |grad d| times d: grad(d o delta_gamma) scales by gamma^0
    g = heisenberg(1)
    rho = koranyi(g)
    rng = np.random.default_rng(4)
    z = rng.normal(size=(20, 2))
    t = rng.normal(size=(20, 1))
    g1 = rho.hgrad(z, t)
    g2 = rho.hgrad(3.0 * z, 9.0 * t)
    assert np.allclose(np.linalg.norm(g1, axis=-1), np.linalg.norm(g2, axis=-1),
                       rtol=1e-12)


def test_default_step_scales():
    assert default_step(Point([1.0, 0.0], 0.0)) == pytest.approx(1e-5)
    assert default_step(Point([100.0, 0.0], 0.0)) == pytest.approx(1e-3)


@pytest.mark.parametrize("slots", [2, 4, 6])
def test_pairing_is_the_frame_sum_bit_for_bit(slots):
    # H^1 and H^2 frames, (H^1)^2 and (H^1)^3 products: numpy sums fewer than
    # 8 terms from the left, as the slot products do
    rng = np.random.default_rng(62)
    a = rng.normal(size=(4096, slots)) * 10.0 ** rng.uniform(-8, 8, size=(4096, slots))
    b = rng.normal(size=(4096, slots))
    assert np.array_equal(pairing(a, b), np.sum(a * b, axis=-1))
    assert np.array_equal(pairing(a, a), np.sum(a * a, axis=-1))


@pytest.mark.parametrize("slots", range(1, 8))
def test_square_pairing_is_the_slot_sum_bit_for_bit(slots):
    # |z|^2 and |t|^2 of the Koranyi gauge: every width below 8, with signed
    # zeros, tiny and huge entries; a sum of squares has no negative zero, so
    # the bits agree with no exception, sign included
    rng = np.random.default_rng(63)
    x = rng.normal(size=(4096, slots)) * 10.0 ** rng.uniform(-170, 150, size=(4096, slots))
    x[:64] = 0.0
    x[:32] *= -1.0
    x[64:96, 0] = -0.0
    got, want = pairing(x, x), np.sum(x * x, axis=-1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(pairing(x, x), np.sum(x**2, axis=-1))
