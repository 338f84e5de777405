"""Structural and weak-form oracles that only the tests evaluate.

The package computes every derivative in closed form; the central-difference
operators here (horizontal gradient, divergence, generator of dilations and
the commutator of two frame fields, on one kernel, fd_partials) are the
references the suite checks those closed derivatives against, and the
forward polar map of the cc distance is the reference for its inversion.
Each other oracle restates an identity of the paper through the package's
batched evaluators: the rotation and reconstruction defects of a gauge, the
empirical equivalence constants of two gauges, the two distributional
divergence identities of the vertical construction, the adjointness of the
generator of dilations, and the extremal profile with its pointwise
residual.  A plain tensor Gauss rule on a coordinate box cross-checks the
phi chart of the quadrature, the Monte Carlo estimate with every integrand
evaluated on every draw of the gauge ball pins the bits of the package's
windowed sums, and the cc profile's dense scan, written out
with np.linspace and the series on every call, pins the bits of the
package's table-driven scan.  Z_d written out per kind of group, one
vertical direction or a Heisenberg product, each in its own order of
operations, is the reference for the package's one formula.  The paper's
printed Koranyi, generalized Koranyi and product bounds are the references
for the bounds rows, which divide the target by the sup they report.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from carnot_hardy.groups import (Array, CenterError, Nodes, Point, StepTwoGroup,
                                 _check_dims)
from carnot_hardy.norms import NormModel, koranyi
from carnot_hardy.verify.quadrature import (IntegralResult, QuadratureSpec, integrate_many,
                                           koranyi_ball_draws, koranyi_ball_volume)
from carnot_hardy.verify.testfuncs import TestFunction, _from_jet
from carnot_hardy.zfield import ZFieldSpec, _block_perp, z_field_components


# ---------------------------------------------------------------------------
# central differences of batched value(z, t) evaluators
# ---------------------------------------------------------------------------

def default_step(x: Point) -> float:
    """Central-difference step 1e-5 * max(1, |x|), balancing truncation and roundoff."""
    scale = np.sqrt(np.sum(x.z**2) + np.sum(x.t**2))
    return 1e-5 * max(1.0, float(scale))


def _step_at(x: Point, step: Optional[float]) -> float:
    h = default_step(x) if step is None else float(step)
    if not h > 0:
        raise ValueError("step must be positive")
    return h


def fd_partials(value, z: Array, t: Array, step: float):
    """Central-difference ambient partials of a batched scalar evaluator.

    Returns (dz, dt) of shapes (..., 2n) and (..., h).  Every
    central-difference oracle below is built on this one kernel.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    dz = [(value(z + step * e, t) - value(z - step * e, t)) / (2.0 * step)
          for e in np.eye(z.shape[-1])]
    dt = [(value(z, t + step * e) - value(z, t - step * e)) / (2.0 * step)
          for e in np.eye(t.shape[-1])]
    return np.stack(dz, axis=-1), np.stack(dt, axis=-1)


def hgrad_batch(g: StepTwoGroup, value, z: Array, t: Array, step: float) -> Array:
    """Central-difference horizontal gradient of a batched evaluator:
    X_i u = d_{z_i} u + (Bz)_i . d_t u / 2."""
    dz, dt = fd_partials(value, z, t, step)
    return dz + 0.5 * np.einsum("...jk,...j->...k", g.bz(z), dt)


def horizontal_gradient(g: StepTwoGroup, value, x: Point,
                        step: Optional[float] = None) -> Array:
    """Horizontal gradient (X_1 u, ..., X_{2n} u), shape (2n,), of a batched
    ``value(z, t)`` at a point, by central differences."""
    _check_dims(g, x)
    return hgrad_batch(g, value, x.z[None], x.t[None], _step_at(x, step))[0]


def euler_apply(g: StepTwoGroup, value, x: Point, step: Optional[float] = None) -> float:
    """Generator of dilations: E u = <z, grad_z u> + 2 <t, d_t u>, by central
    differences of a batched ``value(z, t)``."""
    _check_dims(g, x)
    dz, dt = fd_partials(value, x.z[None], x.t[None], _step_at(x, step))
    return float(x.z @ dz[0] + 2.0 * (x.t @ dt[0]))


def horizontal_divergence(g: StepTwoGroup, V, x: Point,
                          step: Optional[float] = None) -> float:
    """sum_i X_i(V_i) of a batched field ``V(z, t) -> (..., 2n)`` at a point,
    by central differences on each component."""
    _check_dims(g, x)
    h = _step_at(x, step)
    z, t = x.z[None], x.t[None]
    return float(sum(hgrad_batch(g, lambda z, t, i=i: V(z, t)[..., i], z, t, h)[0, i]
                     for i in range(2 * g.n)))


def commutator_vertical(g: StepTwoGroup, value, x: Point, i: int,
                        step: Optional[float] = None) -> float:
    """(X_{2i} X_{2i-1} - X_{2i-1} X_{2i}) u of a batched ``value(z, t)`` by
    nested central differences.

    Should equal sum_j lam^(j)_i d_{t_j} u up to O(step^2).
    """
    _check_dims(g, x)
    if not 0 <= i < g.n:
        raise ValueError("block index out of range")
    h = _step_at(x, step)
    z, t = x.z[None], x.t[None]

    def xx(outer, inner):
        """X_outer (X_inner u) at x."""
        def x_inner(z, t):
            return hgrad_batch(g, value, z, t, h)[..., inner]
        return hgrad_batch(g, x_inner, z, t, h)[0, outer]

    a, b = 2 * i, 2 * i + 1
    return float(xx(b, a) - xx(a, b))


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

def rotation_defect_arrays(norm: NormModel, z: Array, t: Array) -> Array:
    """<z, B^{-1} grad_z d> with the Euclidean z-gradient, from frame data.

    Vanishes identically for gauges invariant under blockwise rotations.
    """
    g = norm.hgrad(z, t)
    dt = norm.dt(z, t)
    # ambient z-partials: d_{z_i} = X_i - (Bz)_i . d_t / 2
    bz = norm.group.bz(z)
    dz = g - 0.5 * np.einsum("...jk,...j->...k", bz, dt)
    lam = norm.group.lambdas
    zper = np.asarray(z, float)
    num = (zper[..., 1::2] * dz[..., 0::2] - zper[..., 0::2] * dz[..., 1::2]) / lam
    return np.sum(num, axis=-1)


def reconstruction_defect_arrays(norm: NormModel, z: Array, t: Array) -> Array:
    """4 (t/|z|^2) <B^{-1} grad d, z> + <z, grad d> - d, zero off the center
    for blockwise rotation-invariant gauges (single vertical direction)."""
    z = np.asarray(z, float)
    t1 = np.asarray(t, float)[..., 0]
    g = norm.hgrad(z, t)
    lam = norm.group.lambdas
    binv_dot_z = np.sum((z[..., 1::2] * g[..., 0::2] - z[..., 0::2] * g[..., 1::2]) / lam,
                        axis=-1)
    zn2 = np.sum(z * z, axis=-1)
    zdotg = np.sum(z * g, axis=-1)
    return 4.0 * (t1 / zn2) * binv_dot_z + zdotg - norm.value(z, t)


def at_point(fn, x: Point) -> Array:
    """A batched evaluator fn(z, t) at the one point x."""
    return fn(x.z[None], x.t[None])[0]


def cc_from_polar(a, b, nu: float, r: float) -> Point:
    """The forward polar map of H^n at unit a + ib, nu in [-2pi, 2pi] and
    r > 0: the point whose cc distance is r, which the inversion
    (norms.cc_polar_arrays) recovers its polar data from."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    z = np.empty(2 * a.shape[0])
    if abs(nu) < 1e-14:
        z[0::2] = a * r
        z[1::2] = b * r
        return Point(z, np.zeros(1))
    omc = 2.0 * np.sin(nu / 2.0) ** 2
    s = np.sin(nu)
    z[0::2] = (b * omc + a * s) / nu * r
    z[1::2] = (-a * omc + b * s) / nu * r
    if abs(nu) < 1e-2:    # (nu - sin nu)/nu^2 by series: the difference cancels
        g = nu / 6.0 - nu**3 / 120.0 + nu**5 / 5040.0
    else:
        g = (nu - s) / nu**2
    return Point(z, np.array([2.0 * g * r**2]))


def equivalence_ratio_range(norm_a: NormModel, norm_b: NormModel,
                            n_samples: int = 4096, seed: int = 0):
    """Empirical (min, max) of norm_a / norm_b over the unit Koranyi sphere."""
    if norm_a.group is not norm_b.group and norm_a.group.dim != norm_b.group.dim:
        raise ValueError("norms live on incompatible groups")
    rng = np.random.default_rng(seed)
    g = norm_a.group
    z = rng.normal(size=(n_samples, 2 * g.n))
    t = rng.normal(size=(n_samples, g.h))
    rho = koranyi(g).value(z, t)
    z /= rho[:, None]
    t /= rho[:, None] ** 2
    ratio = norm_a.value(z, t) / norm_b.value(z, t)
    return float(ratio.min()), float(ratio.max())


# ---------------------------------------------------------------------------
# the extremal profile and its residual
# ---------------------------------------------------------------------------

def slope_grad(group: StepTwoGroup, z: Array, t1: Array, zn2: Array) -> Array:
    """grad(t/|z|^2) = -2 t z / |z|^4 + Bz / (2 |z|^2), for h = 1, from the
    coordinates."""
    return (-2.0 * (t1 / zn2**2)[..., None] * z
            + 0.5 * group.bz(z)[..., 0, :] / zn2[..., None])


def extremal_power(group: StepTwoGroup, p: float) -> TestFunction:
    """u = (|t|/|z|^2)^{(Q-2)/(2p)}, the profile attaining equality.

    With lam = t/|z|^2, grad u = kappa |lam|^{kappa-1} sgn(lam) grad lam, and
    E u = 0 since lam is homogeneous of degree zero.  The jet reads the
    coordinates only, chart tables or not.
    """
    kappa = (group.Q - 2.0) / (2.0 * p)

    def jet(nodes, derivs=True):
        z = np.asarray(nodes.z, float)
        t1 = np.asarray(nodes.t, float)[..., 0]
        zn2 = np.sum(z * z, axis=-1)
        val = (np.abs(t1) / zn2) ** kappa
        if not derivs:
            return val, None, None
        lam = t1 / zn2
        coef = kappa * np.abs(lam) ** (kappa - 1.0) * np.sign(lam)
        return val, coef[..., None] * slope_grad(group, z, t1, zn2), np.zeros(val.shape)

    return _from_jet("extremal", {"exponent": kappa}, jet, support=(0.0, np.inf))


def extremal_residual(spec: ZFieldSpec, x: Point) -> float:
    """|<grad u, Z_d>/d^{theta-1} + ((Q - p theta)/p) u / d^theta| for the
    extremal u = (|t|/|z|^2)^{(Q-2)/(2p)}, from its closed jet.

    Vanishes since every gauge is blockwise rotation-invariant; at
    p theta = Q the second term drops and the pairing itself must vanish.
    """
    if x.on_center() or abs(float(x.t[0])) == 0.0:
        raise CenterError("evaluate the residual off the center and off {t = 0}")
    z, t = x.z[None], x.t[None]
    uval, gu, _ = extremal_power(spec.group, spec.p).jet(Nodes(z, t))
    zc = z_field_components(spec, z, t)[0]
    d = spec.norm.value(z, t)[0]
    pair = float(gu[0] @ zc)
    return abs(pair / d ** (spec.theta - 1.0)
               + (spec.group.Q - spec.ptheta) / spec.p * uval[0] / d**spec.theta)


# ---------------------------------------------------------------------------
# the Z field, written out per kind of group
# ---------------------------------------------------------------------------

def z_field_single_vertical(spec: ZFieldSpec, z: Array, t: Array) -> Array:
    """Z_d on a group with one vertical direction, in its own order of
    operations: (n+1)/n z/d - (2 p theta/n) (t/d^2) sum_i (1/lam_i) P_i grad d."""
    n = spec.group.n
    d, g = spec.norm.jet(Nodes(z, t))
    pg = _block_perp(g)
    pg /= np.repeat(spec.group.lambdas, 2)
    pg *= (2.0 * spec.ptheta / n) * (t[..., 0] / d**2)[..., None]
    return (n + 1) / n * z / d[..., None] - pg


def z_field_heisenberg_product(spec: ZFieldSpec, z: Array, t: Array) -> Array:
    """Z_d on (H^n)^N, in its own order of operations: the slots of factor j
    take (n+1)/n z/d - (p theta/(2n)) (t_j/d^2) P grad d."""
    n = spec.factor_blocks()
    d, g = spec.norm.jet(Nodes(z, t))
    t_slot = np.repeat(t, 2 * n, axis=-1) * ((spec.ptheta / (2.0 * n)) * (1.0 / d**2))[..., None]
    return (n + 1) / n * z / d[..., None] - t_slot * _block_perp(g)


# ---------------------------------------------------------------------------
# weak-form and adjoint identities
# ---------------------------------------------------------------------------

def weak_divergence_defect(norm: NormModel, p_theta: float, phi: TestFunction,
                           which: str, quad: Optional[QuadratureSpec] = None):
    """Relative defect in int <V, grad phi> = -int RHS phi for the two
    distributional divergence identities of the vertical construction:

    (i)  V = (t/d^{pt+1}) B^{-1} grad d,
         RHS = -<z, grad d>/(2 d^{pt+1}) + n (t/d^{pt+1}) d_t d;
    (ii) V = z/d^{pt},     RHS = 2n/d^{pt} - pt <z, grad d>/d^{pt+1}.
    """
    group = norm.group
    if group.h != 1:
        raise ValueError("the divergence identities are stated for h = 1")
    if which not in ("i", "ii"):
        raise ValueError("which must be 'i' or 'ii'")
    quad = quad or QuadratureSpec(sigma_range=phi.support)
    nblocks = group.n
    lam2 = np.repeat(group.lambdas, 2)

    def sides(nodes):
        z, t = np.asarray(nodes.z, float), nodes.t
        v, gphi, _ = phi.jet(nodes)
        d, g = norm.jet(nodes)
        zdotg = np.sum(z * g, axis=-1)
        if which == "i":
            t1 = np.asarray(t, float)[..., 0]
            V = (t1 / d ** (p_theta + 1.0))[..., None] * (_block_perp(g) / lam2)
            dt = norm.dt(z, t)[..., 0]
            rhs = (-0.5 * zdotg / d ** (p_theta + 1.0)
                   + nblocks * t1 / d ** (p_theta + 1.0) * dt)
        else:
            V = z / (d**p_theta)[..., None]
            rhs = 2.0 * nblocks / d**p_theta - p_theta * zdotg / d ** (p_theta + 1.0)
        return np.stack([np.sum(V * gphi, axis=-1), rhs * v])

    rl, rr = integrate_many(group, [sides], quad)
    scale = max(abs(rl.value), abs(rr.value), 1e-300)
    return abs(rl.value + rr.value) / scale, rl.value, -rr.value


def euler_adjoint_defect(group: StepTwoGroup, u: TestFunction, v: TestFunction,
                         quad: Optional[QuadratureSpec] = None):
    """Relative defect in int (Eu) v + int u (Ev) + Q int u v = 0."""
    quad = quad or QuadratureSpec(
        sigma_range=(min(u.support[0], v.support[0]), max(u.support[1], v.support[1])))

    def products(nodes):
        uv, _, ue = u.jet(nodes)
        vv, _, ve = v.jet(nodes)
        return np.stack([ue * vv, uv * ve, uv * vv])

    r1, r2, r3 = integrate_many(group, [products], quad)
    total = r1.value + r2.value + group.Q * r3.value
    scale = max(abs(r1.value), abs(r2.value), abs(group.Q * r3.value), 1e-300)
    return abs(total) / scale


# ---------------------------------------------------------------------------
# a coordinate-box rule
# ---------------------------------------------------------------------------

def box_gauss_integrals(group: StepTwoGroup, fs: Sequence, box: tuple, n: int) -> list:
    """Integrals over the box |z_i| < z_half, |t_j| < t_half by the tensor
    product of n-point Gauss rules, one per coordinate axis.

    A cross-check of the phi chart that shares none of its nodes.  n must be
    even, so that no node sits at the origin.  Each integrand f(nodes)
    returns m samples or a (k, m) stack of k integrals, as for
    ``integrate_many``; the grid is evaluated in chunks of whole slabs of
    the first axis, of about 2^17 nodes each.
    """
    if n % 2:
        raise ValueError("an odd Gauss count would place a node at the origin")
    x, w = leggauss(n)
    z_half, t_half = box
    halves = [z_half] * (2 * group.n) + [t_half] * group.h
    # the other axes once: (n^(dim-1), dim-1) points and their weights
    rest = np.stack(np.meshgrid(*(h * x for h in halves[1:]), indexing="ij"),
                    axis=-1).reshape(-1, len(halves) - 1)
    w_rest = reduce(np.multiply.outer, [h * w for h in halves[1:]]).ravel()
    per = max((1 << 17) // len(rest), 1)
    totals = None
    for i in range(0, n, per):
        x0, w0 = halves[0] * x[i:i + per], halves[0] * w[i:i + per]
        pts = np.concatenate([np.repeat(x0, len(rest))[:, None],
                              np.tile(rest, (len(x0), 1))], axis=1)
        wts = np.outer(w0, w_rest).ravel()
        nodes = Nodes(pts[:, :2 * group.n], pts[:, 2 * group.n:])
        rows = [row for f in fs for row in np.asarray(f(nodes)).reshape(-1, len(wts))]
        if totals is None:
            totals = np.zeros(len(rows))
        for k, row in enumerate(rows):
            totals[k] += float(np.sum(wts * row))
    return totals.tolist()


# ---------------------------------------------------------------------------
# Monte Carlo on the gauge ball, every draw evaluated
# ---------------------------------------------------------------------------

def _ball_count(group: StepTwoGroup, quad: QuadratureSpec):
    """(generator, count): quad's seeded generator after its first draw, the
    number of quad.samples uniform draws from the box |z_i| < hi,
    |t_j| < hi^2 that land in the Koranyi ball B(hi),
    Binomial(samples, |B_1| / 2^(2n + h))."""
    rng = np.random.default_rng(quad.seed)
    box_share = koranyi_ball_volume(group) / 2.0 ** (2 * group.n + group.h)
    return rng, int(rng.binomial(quad.samples, box_share))


def ball_draw_count(group: StepTwoGroup, quad: QuadratureSpec) -> int:
    """How many of quad.samples box draws land in the Koranyi ball."""
    return _ball_count(group, quad)[1]


def ball_monte_carlo(group: StepTwoGroup, fs: Sequence, quad: QuadratureSpec) -> list:
    """The Monte Carlo estimate of ``integrate_many`` with every integrand
    evaluated on every draw of the ball B(hi), hi = quad.sigma_range[1].

    The same seeded ball count and draws, chunk by chunk; each chunk is
    evaluated whole, as plain (z, t) nodes, and its samples whose Koranyi
    gauge lies outside the window are dropped afterwards.  The estimate is
    |B(hi)| times the sum over the count of ball draws (at least 1), its
    error |B(hi)| sqrt(var / count).
    """
    lo, hi = quad.sigma_range
    vol = koranyi_ball_volume(group) * hi**group.Q
    rng, inside = _ball_count(group, quad)
    sums = sq = None
    evals = start = 0
    while True:
        m = min(quad.chunk, inside - start)
        z, t = koranyi_ball_draws(group, hi, m, rng)
        rho = koranyi(group).value(z, t)
        keep = (rho > lo) & (rho < hi)
        rows = [row[keep] for f in fs
                for row in np.atleast_2d(np.asarray(f(Nodes(z, t))))]
        if sums is None:
            sums, sq = np.zeros(len(rows)), np.zeros(len(rows))
        for k, row in enumerate(rows):
            sums[k] += float(row.sum())
            sq[k] += float(np.sum(row * row))
        evals += int(np.count_nonzero(keep))
        start += m
        if start >= inside:
            break
    draws = max(inside, 1)
    mean = sums / draws
    err = vol * np.sqrt(np.maximum(sq / draws - mean**2, 0.0) / draws)
    return [IntegralResult(float(vol * mu), float(e), evals, "monte_carlo")
            for mu, e in zip(mean, err)]


# ---------------------------------------------------------------------------
# the cc profile's dense scan, every node and basis formed on each call
# ---------------------------------------------------------------------------

def g_cc_reference(Q: float, p: float, theta: float, nu) -> Array:
    """|Z_cc|^2 at nu, the series and the direct branch both evaluated
    everywhere and picked by np.where."""
    pt = p * theta
    c_f, c_g, c_x = (2.0 * (Q / (Q - 2.0))**2, (2.0 * pt / (Q - 2.0))**2,
                     4.0 * pt * Q / (Q - 2.0)**2)
    nu = np.asarray(nu, dtype=float)
    small = np.abs(nu) < 1e-4
    nus = np.where(small, 1.0, nu)
    f_dir = 2.0 * np.sin(nus / 2.0) ** 2 / nus**2
    g_dir = (nus - np.sin(nus)) / nus**2
    f_ser = 0.5 - nu**2 / 24.0 + nu**4 / 720.0
    g_ser = nu / 6.0 - nu**3 / 120.0 + nu**5 / 5040.0
    f = np.where(small, f_ser, f_dir)
    gg = np.where(small, g_ser, g_dir)
    return c_f * f + c_g * gg**2 - c_x * gg * (nu * f)


def bracket_zoom_reference(f, lo: float, hi: float, tol: float, points: int = 33):
    """The bracket zoom with each grid from np.linspace."""
    a, b = float(lo), float(hi)
    best_s, best_v = a, -np.inf
    while True:
        s = np.linspace(a, b, points)
        v = f(s)
        i = int(np.argmax(v))
        if v[i] > best_v:
            best_s, best_v = float(s[i]), float(v[i])
        a_next, b_next = s[max(i - 1, 0)], s[min(i + 1, points - 1)]
        if (b - a) / (points - 1) <= tol or b_next - a_next >= b - a:
            return best_s, best_v
        a, b = a_next, b_next


def cc_profile_max_reference(Q: float, p: float, theta: float, nodes: int = 10**4):
    """(max g, argmax nu): g on np.linspace(-2 pi, 2 pi, nodes), then the
    bracket zoom around the best node."""
    nus = np.linspace(-2.0 * np.pi, 2.0 * np.pi, nodes)
    vals = g_cc_reference(Q, p, theta, nus)
    i = int(np.argmax(vals))
    lo, hi = nus[max(i - 1, 0)], nus[min(i + 1, nodes - 1)]
    nu_hat, g_hat = bracket_zoom_reference(lambda v: g_cc_reference(Q, p, theta, v),
                                           lo, hi, tol=1e-9)
    if vals[i] > g_hat:
        nu_hat, g_hat = float(nus[i]), float(vals[i])
    return float(g_hat), float(nu_hat)


# ---------------------------------------------------------------------------
# the paper's printed bounds, each with its sup|Z| written out
# ---------------------------------------------------------------------------

def koranyi_bound(Q: float, p: float, theta: float, lam_min: float = 4.0) -> float:
    """(lam_min/4)^{p/2} times the two-branch Koranyi bound: with pt = p theta,
    |(Q-pt)/p|^p |(Q-2)/Q|^p for pt in [(1-sqrt(3/2))Q, (1+sqrt(3/2))Q], else
    (3/2)^{p/2} (3 pt (pt - 2Q))^{p/4} / |pt - Q|^{p/2} |(Q-2)/p|^p."""
    pt = p * theta
    if (1.0 - np.sqrt(1.5)) * Q <= pt <= (1.0 + np.sqrt(1.5)) * Q:
        value = abs((Q - pt) / p) ** p * abs((Q - 2.0) / Q) ** p
    else:
        value = (1.5 ** (p / 2.0) * (3.0 * pt * (pt - 2.0 * Q)) ** (p / 4.0)
                 / abs(pt - Q) ** (p / 2.0) * abs((Q - 2.0) / p) ** p)
    return (lam_min / 4.0) ** (p / 2.0) * value


def product_bound(n: int, N: int, p: float, theta: float) -> float:
    """(n/(n+1))^p |(Q - p theta)/p|^p on (H^n)^N, Q = 2N(n+1), where theta >= 0
    and n >= (p theta - 4)/4."""
    Q = 2.0 * N * (n + 1)
    return (n / (n + 1.0)) ** p * abs((Q - p * theta) / p) ** p
