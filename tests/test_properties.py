"""Structural invariants, property-tested, and the closed Balogh-Tyson
derivatives against a symbolic derivation."""

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carnot_hardy import (Point, ZFieldSpec, balogh_tyson, cc, dilate, group_inverse,
                          group_law, heisenberg, heisenberg_product, koranyi, koranyi_b,
                          nonisotropic)
from carnot_hardy.bounds import PROFILE_ROW_BRANCH, bound_generic, bound_row
from carnot_hardy.norms import cc_polar_arrays
from carnot_hardy.zfield import koranyi_profile_max, z_field_components
from oracles import at_point, cc_from_polar, fd_partials, hgrad_batch, koranyi_bound

H1 = heisenberg(1)
BT_GROUP = nonisotropic([0.5, 1.0])
GAUGES = [koranyi(H1), koranyi(heisenberg(2)), cc(H1),
          koranyi_b(nonisotropic([1.0, 2.0])), balogh_tyson(BT_GROUP)]
FEW = settings(max_examples=25, deadline=None)

coord = st.floats(-2.0, 2.0, allow_nan=False)
scale = st.floats(0.05, 20.0)


def _point(g, draw_coords):
    return Point(np.array(draw_coords[:2 * g.n]), np.array(draw_coords[2 * g.n:]))


def _off_center(g):
    return st.lists(coord, min_size=g.dim, max_size=g.dim).map(
        lambda c: _point(g, c)).filter(lambda x: np.linalg.norm(x.z) > 1e-2)


# ---------------------------------------------------------------------------
# the closed Balogh-Tyson derivatives
# ---------------------------------------------------------------------------

def _symbolic_balogh_tyson():
    """Frame gradient and t-derivative of rho, differentiated by sympy."""
    z = sp.symbols("z1:5", real=True)
    t = sp.Symbol("t", real=True)
    half = (z[0]**2 + z[1]**2) / 2
    w = half + z[2]**2 + z[3]**2
    s = sp.sqrt(w**2 + t**2)
    rho = s**sp.Rational(1, 4) * (half + s)**sp.Rational(3, 8) / (w + s)**sp.Rational(1, 8)
    lam = [sp.Rational(1, 2), sp.Integer(1)]
    drho_t = sp.diff(rho, t)
    frame = []
    for i in range(2):
        a, b = z[2 * i], z[2 * i + 1]
        frame.append(sp.diff(rho, a) + lam[i] / 2 * b * drho_t)
        frame.append(sp.diff(rho, b) - lam[i] / 2 * a * drho_t)
    return sp.lambdify((*z, t), [*frame, drho_t], modules="mpmath")


def test_balogh_tyson_derivatives_match_sympy():
    reference = _symbolic_balogh_tyson()
    model = balogh_tyson(BT_GROUP)
    rng = np.random.default_rng(70)
    z = rng.normal(size=(40, 4))
    t = rng.normal(size=(40, 1))
    z[:5, 2:] = 0.0          # second block at rest
    z[5:10, :2] = 0.0        # first block at rest
    t[10:15] = 0.0           # on {t = 0}
    z[15:20] *= 1e-3         # close to the center
    grad = model.hgrad(z, t)
    dt = model.dt(z, t)[:, 0]
    with mpmath.workdps(40):
        for k in range(z.shape[0]):
            ref = np.array([float(v) for v in reference(*z[k], t[k, 0])])
            assert np.max(np.abs(grad[k] - ref[:4])) <= 1e-12 * np.linalg.norm(ref[:4])
            assert abs(dt[k] - ref[4]) <= 1e-12 * abs(ref[4]) + 1e-300


def test_balogh_tyson_derivatives_match_central_differences():
    model = balogh_tyson(BT_GROUP)
    rng = np.random.default_rng(71)
    z = rng.normal(size=(200, 4))
    t = rng.normal(size=(200, 1))
    grad = model.hgrad(z, t)
    fd = hgrad_batch(BT_GROUP, model.value, z, t, 1e-6)
    _, dt_fd = fd_partials(model.value, z, t, 1e-6)
    assert np.max(np.abs(grad - fd)) <= 1e-8 * np.max(np.abs(grad))
    assert np.max(np.abs(model.dt(z, t) - dt_fd)) <= 1e-8 * np.max(np.abs(dt_fd))


# ---------------------------------------------------------------------------
# homogeneity under dilations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", GAUGES, ids=lambda m: f"{m.kind}-n{m.group.n}")
def test_gauge_derivatives_are_homogeneous(model):
    g = model.group

    @FEW
    @given(_off_center(g), scale)
    def check(x, gamma):
        y = dilate(g, gamma, x)
        d_x, d_y = at_point(model.value, x), at_point(model.value, y)
        assert d_y == pytest.approx(gamma * d_x, rel=1e-12)
        grad_x = at_point(model.hgrad, x)
        grad_y = at_point(model.hgrad, y)
        assert np.max(np.abs(grad_y - grad_x)) <= 1e-11 * max(1.0, np.linalg.norm(grad_x))
        dt_x, dt_y = at_point(model.dt, x), at_point(model.dt, y)
        assert np.max(np.abs(gamma * dt_y - dt_x)) <= 1e-11 * max(1.0, np.max(np.abs(dt_x)))

    check()


@pytest.mark.parametrize("model", GAUGES, ids=lambda m: f"{m.kind}-n{m.group.n}")
def test_z_field_norm_is_degree_zero(model):
    g = model.group
    spec = ZFieldSpec(g, model, 2.0, 1.5)

    @FEW
    @given(_off_center(g), scale)
    def check(x, gamma):
        y = dilate(g, gamma, x)
        zx = np.linalg.norm(z_field_components(spec, x.z[None], x.t[None])[0])
        zy = np.linalg.norm(z_field_components(spec, y.z[None], y.t[None])[0])
        assert zy == pytest.approx(zx, rel=1e-11, abs=1e-11)

    check()


# ---------------------------------------------------------------------------
# the cc distance
# ---------------------------------------------------------------------------

@FEW
@given(_off_center(H1), scale)
def test_cc_is_homogeneous_with_unit_gradient(x, gamma):
    model = cc(H1)
    y = dilate(H1, gamma, x)
    d_x, d_y = at_point(model.value, x), at_point(model.value, y)
    assert d_y == pytest.approx(gamma * d_x, rel=1e-12)
    assert np.linalg.norm(at_point(model.hgrad, x)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(at_point(model.hgrad, y)) == pytest.approx(1.0, abs=1e-12)


@FEW
@given(st.floats(0.0, 2 * np.pi), st.floats(-2 * np.pi + 1e-2, 2 * np.pi - 1e-2),
       st.floats(0.05, 20.0))
def test_cc_invert_inverts_cc_from_polar(angle, nu, r):
    assume(abs(nu) > 1e-6)
    x = cc_from_polar([np.cos(angle)], [np.sin(angle)], nu, r)
    back_nu, back_r, back_a, back_b = (v[0] for v in cc_polar_arrays(x.z[None], x.t))
    assert abs(back_nu - nu) <= 1e-9 * abs(nu)
    assert back_r == pytest.approx(r, rel=1e-12)
    assert np.allclose(back_a, [np.cos(angle)], atol=1e-9)
    assert np.allclose(back_b, [np.sin(angle)], atol=1e-9)


# ---------------------------------------------------------------------------
# the Koranyi-type bounds rows at the window edges
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 19), st.sampled_from(["koranyi", "koranyi_b"]), st.floats(2.0, 8.0),
       st.sampled_from([0, 1]), st.floats(-1e-9, 1e-9))
def test_bound_rows_divide_by_their_sup_at_the_window_edges(n, kind, p, edge, offset):
    # the window p theta in [(1 -+ sqrt(3/2)) Q] is where the profile peaks at
    # lam = 0; at its edges both branches equal (lam_min/4)^{p/2} 1.5^{p/2} ((Q-2)/p)^p
    if kind == "koranyi":
        g, lam_min = heisenberg(n), 4.0
        norm = koranyi(g)
    else:
        g, lam_min = nonisotropic([1.0] + [2.0] * (n - 1)), 1.0
        norm = koranyi_b(g)
    Q = float(g.Q)
    ptheta = (1.0 + (-1.0, 1.0)[edge] * np.sqrt(1.5)) * Q
    at_edge = (lam_min / 4.0) ** (p / 2.0) * 1.5 ** (p / 2.0) * ((Q - 2.0) / p) ** p
    rows = [bound_row(ZFieldSpec(g, norm, p, ptheta * (1.0 + o) / p))
            for o in (-abs(offset), abs(offset))]
    for row in rows:
        assert row.bound == bound_generic(row.sup_value, Q, p, row.theta)
        profile = PROFILE_ROW_BRANCH[koranyi_profile_max(Q, p, row.theta)[2]]
        assert row.branch == profile
        assert row.condition_checks == {"ptheta_in_window": profile == "first"}
        assert row.bound == pytest.approx(at_edge, rel=1e-7)
        ref = koranyi_bound(Q, p, row.theta, lam_min)
        assert abs(row.bound - ref) <= 1e-14 * ref
    if abs(offset) > 1e-12:     # at the edge itself rounding picks the branch
        assert [row.branch for row in rows] == ["first", "second"]


# ---------------------------------------------------------------------------
# the group law
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [H1, heisenberg(2), BT_GROUP, heisenberg_product(1, 2)],
                         ids=["H1", "H2", "half_one", "H1xH1"])
def test_group_law_is_associative_with_inverses(g):
    point = st.lists(coord, min_size=g.dim, max_size=g.dim).map(lambda c: _point(g, c))

    @FEW
    @given(point, point, point)
    def check(x, y, w):
        left = group_law(g, group_law(g, x, y), w)
        right = group_law(g, x, group_law(g, y, w))
        assert np.allclose(left.z, right.z, rtol=0.0, atol=1e-12)
        assert np.allclose(left.t, right.t, rtol=0.0, atol=1e-12)
        for e in (group_law(g, x, group_inverse(g, x)), group_law(g, group_inverse(g, x), x)):
            assert np.all(e.z == 0.0)
            assert np.allclose(e.t, 0.0, rtol=0.0, atol=1e-14)

    check()
