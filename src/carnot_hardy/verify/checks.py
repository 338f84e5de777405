"""Numerical verification of the integral identities, the Hardy
inequalities, the sharpness family, and the non-isotropic scan.

Every operation returns a ``Report`` whose ``passed`` flag is exactly the
stated tolerance test; values and quadrature diagnostics are kept so that
reports can be serialized and regression-compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ..groups import (Array, CenterError, Nodes, Point, StepTwoGroup, heisenberg,
                      heisenberg_product, nonisotropic)
from ..norms import NormModel, balogh_tyson, koranyi
from ..zfield import ZFieldSpec, _block_perp, scan_unit_sphere, z_field_components
from .quadrature import QuadratureSpec, integrate_many
from .testfuncs import (BumpProfile, TestFunction, extremal_power, radial_bump,
                        sharpness_function)


@dataclass
class Report:
    """Machine-readable outcome of one verification check."""

    name: str
    passed: bool
    tol: float
    values: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "tol": self.tol,
                "values": self.values, "diagnostics": self.diagnostics}


# ---------------------------------------------------------------------------
# the p-weight identity
# ---------------------------------------------------------------------------

def _w_sq(p: float, f: float, g: float) -> float:
    """p (p-1) int_0^1 s |s g + (1-s) f|^{p-2} ds by adaptive quadrature.

    The integrand has a |.|^{p-2} kink where s g + (1-s) f crosses zero;
    handing that point to the subdivision keeps the estimate at ~1e-13.
    """
    from scipy.integrate import quad  # here, to keep scipy off the import path

    kink = None
    if f != g:
        s0 = f / (f - g)
        if 0.0 < s0 < 1.0:
            kink = [s0]
    val, _ = quad(lambda s: s * abs(s * g + (1.0 - s) * f) ** (p - 2.0),
                  0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200, points=kink)
    return p * (p - 1.0) * val


def check_w_identity(p: float, f_samples, g_samples, tol: Optional[float] = None) -> Report:
    """||w (f-g)||^2 = ||f||_p^p + (p-1) ||g||_p^p - p (|g|^{p-2} g, f) on a
    discrete measure; exact collapse to the parallelogram expansion at p = 2."""
    if p < 2:
        raise ValueError("the weight identity needs p >= 2")
    f = np.asarray(f_samples, dtype=float)
    g = np.asarray(g_samples, dtype=float)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError("f and g must be equal-length sample vectors")
    if tol is None:
        tol = 1e-14 if p == 2 else 1e-10
    if p == 2:
        w_sq = np.ones_like(f)
    else:
        w_sq = np.array([_w_sq(p, fi, gi) for fi, gi in zip(f, g)])
    lhs = float(np.sum(w_sq * (f - g) ** 2))
    rhs = float(np.sum(np.abs(f) ** p) + (p - 1.0) * np.sum(np.abs(g) ** p)
                - p * np.sum(np.abs(g) ** (p - 2.0) * g * f))
    scale = float(np.sum(np.abs(f) ** p) + (p - 1.0) * np.sum(np.abs(g) ** p)) or 1.0
    defect = abs(lhs - rhs) / scale
    return Report("w_identity", defect <= tol, tol,
                  values={"p": p, "lhs": lhs, "rhs": rhs, "rel_defect": defect},
                  diagnostics={"n_samples": int(f.size)})


# ---------------------------------------------------------------------------
# the three-way integration-by-parts identity
# ---------------------------------------------------------------------------

def _sgn_pow(x: Array, p: float) -> Array:
    """|x|^{p-2} x."""
    return np.abs(x) ** (p - 2.0) * x


def _pairing(a: Array, b: Array) -> Array:
    """sum_i a_i b_i over the frame axis, as slot products added from the left.

    Below 8 slots this is np.sum(a * b, axis=-1) bit for bit, up to the sign
    of a zero sum (NumPy adds so few terms in order, starting from +0.0),
    without the cost of a reduction over a short axis.
    """
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _quad_for(u: TestFunction, quad: Optional[QuadratureSpec]) -> QuadratureSpec:
    if quad is not None:
        return quad
    return QuadratureSpec(sigma_range=u.support)


def _circle_rule(spec: ZFieldSpec, u: TestFunction, quad: QuadratureSpec) -> QuadratureSpec:
    """quad, with one circle node when the integrand is rotation-invariant.

    The gauge, u and hence Z_d, <grad u, Z_d>, |grad u| and Eu are then
    invariant under rotations of z, so every integrand of the checks is a
    function of (sigma, lam) on the phi chart, and one node at angle 0 with
    the weight 2 pi integrates it exactly on the fine and the coarse grid.
    """
    if spec.norm.rotation_invariant and u.rotation_invariant:
        return replace(quad, n_angle=1)
    return quad


def check_ibp_identity(spec: ZFieldSpec, u: TestFunction,
                       quad: Optional[QuadratureSpec] = None) -> Report:
    """I1 = int |u|^{p-2} u <grad u, Z_d> / d^{pt-1},
    I2 = int |u|^{p-2} u (Eu) / d^{pt},
    I3 = -((Q - pt)/p) int |u|^p / d^{pt};  all three must agree.

    Pass criterion: pairwise relative differences within quad.rel_tol, or
    absolute smallness (1e-4, normalized by the mass integral) when pt = Q
    makes I3 vanish identically.
    """
    quad = _quad_for(u, quad)
    p, theta = spec.p, spec.theta
    pt = spec.ptheta
    Q = float(spec.group.Q)
    r1, r2, r3 = integrate_many(spec.group, [_ibp_integrands(spec, u)],
                                _circle_rule(spec, u, quad))
    I1, I2 = r1.value, r2.value
    mass = r3.value
    I3 = -(Q - pt) / p * mass
    if abs(Q - pt) > 1e-12:
        scale = abs(I3)
        defect = max(abs(I1 - I3), abs(I2 - I3), abs(I1 - I2)) / scale
        passed = defect <= quad.rel_tol
        tol = quad.rel_tol
    else:
        defect = max(abs(I1), abs(I2)) / max(1.0, mass)
        tol = 1e-4
        passed = defect <= tol
    return Report("ibp_identity", passed, tol,
                  values={"I1": I1, "I2": I2, "I3": I3, "p": p, "theta": theta,
                          "defect": defect},
                  diagnostics={"norm": spec.norm.kind, "mass": mass,
                               "grid_error": max(r1.error, r2.error, r3.error),
                               "n_evals": r1.n_evals})


def _ibp_integrands(spec: ZFieldSpec, u: TestFunction):
    """The integrands of I1, I2 and of the mass int |u|^p / d^{pt}, stacked."""
    p, pt = spec.p, spec.ptheta
    norm = spec.norm

    def integrands(nodes):
        v, gu, eu = u.jet(nodes)
        d, g = norm.jet(nodes)        # the spec's gauge, not the bump's own rho
        sv = _sgn_pow(v, p)
        pair = _pairing(gu, z_field_components(spec, nodes.z, nodes.t, d, g))
        d_pt = d**pt
        return np.stack([sv * pair / d ** (pt - 1.0), sv * eu / d_pt,
                         np.abs(v) ** p / d_pt])

    return integrands


# ---------------------------------------------------------------------------
# Hardy quotients and the sharpness family
# ---------------------------------------------------------------------------

def hardy_quotient(spec: ZFieldSpec, u: TestFunction,
                   quad: Optional[QuadratureSpec] = None,
                   projected: bool = True) -> float:
    """(int |<grad u, Z_d>|^p / d^{p(theta-1)}) / (int |u|^p / d^{p theta}),
    or with the full |grad u| in the numerator when projected is False."""
    quad = _quad_for(u, quad)
    rnum, rden = integrate_many(spec.group, [_quotient_integrands(spec, u, projected)],
                                _circle_rule(spec, u, quad))
    if rden.value <= 0.0:
        raise ValueError("vanishing denominator: test function is zero on the grid")
    return rnum.value / rden.value


def _quotient_integrands(spec: ZFieldSpec, u: TestFunction, projected: bool):
    """Numerator and denominator of the Hardy quotient as one stacked integrand."""
    p, theta = spec.p, spec.theta
    norm = spec.norm

    def integrands(nodes):
        v, gu, _ = u.jet(nodes)
        d, g = norm.jet(nodes, derivs=projected)
        if projected:
            zc = z_field_components(spec, nodes.z, nodes.t, d, g)
            top = np.abs(_pairing(gu, zc)) ** p
        else:
            top = _pairing(gu, gu) ** (p / 2.0)
        return np.stack([top / d ** (p * (theta - 1.0)), np.abs(v) ** p / d ** (p * theta)])

    return integrands


@dataclass(frozen=True)
class SharpnessPoint:
    eps: float
    quotient: float
    denominator: float


def sharpness_sequence(spec: ZFieldSpec, eps_list: Sequence[float],
                       quad: Optional[QuadratureSpec] = None,
                       profile: BumpProfile = BumpProfile()) -> list:
    """Projected quotients along the cut-off family u_eps.

    The quotients must approach |(Q - p theta)/p|^p from above as eps
    decreases, with excess O(1)/log(1/eps), and the denominator integral
    grows at least logarithmically.
    """
    eps_arr = list(map(float, eps_list))
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])) or not eps_arr:
        raise ValueError("eps_list must be strictly decreasing")
    if not spec.norm.rotation_invariant:
        raise ValueError("the sharpness family needs a blockwise rotation-invariant gauge")
    if spec.norm.kind not in ("koranyi", "cc"):
        raise ValueError("sharpness is computed for the Koranyi or cc gauges")
    out = []
    for eps in eps_arr:
        u = sharpness_function(spec.group, spec.p, eps, profile)
        q = QuadratureSpec(sigma_range=(profile.r2, profile.R2),
                           lambda_range=(eps, 1.0 / eps),
                           n_sigma=(quad.n_sigma if quad else 80),
                           log_nodes=(quad.log_nodes if quad else 16))
        rnum, rden = integrate_many(spec.group, [_quotient_integrands(spec, u, True)],
                                    _circle_rule(spec, u, q))
        out.append(SharpnessPoint(eps, rnum.value / rden.value, rden.value))
    return out


def fit_log_excess(points: Sequence[SharpnessPoint], target: float):
    """Least-squares C in excess ~= C / log(1/eps); returns (C, rel_residual)."""
    x = np.array([1.0 / np.log(1.0 / sp.eps) for sp in points])
    y = np.array([sp.quotient - target for sp in points])
    c = float(x @ y / (x @ x))
    resid = float(np.linalg.norm(y - c * x) / np.linalg.norm(y))
    return c, resid


# ---------------------------------------------------------------------------
# the extremal residual
# ---------------------------------------------------------------------------

def extremal_residual(spec: ZFieldSpec, x: Point) -> float:
    """|<grad u, Z_d>/d^{theta-1} + ((Q - p theta)/p) u / d^theta| for the
    extremal u = (|t|/|z|^2)^{(Q-2)/(2p)}, from its closed jet.

    Vanishes when the gauge is blockwise rotation-invariant; at p theta = Q
    the second term drops and the pairing itself must vanish.
    """
    if not spec.norm.rotation_invariant:
        raise ValueError("the extremal profile needs <z, B^-1 grad_z d> = 0")
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
# the non-isotropic scan and the product checks
# ---------------------------------------------------------------------------

def _vertical_excess(spec: ZFieldSpec, z: Array, t: Array) -> Array:
    """B(z, t) = |Z(z, t)|^2 - |Z(z, 0)|^2, both fields from one stacked batch."""
    zc = z_field_components(spec, np.stack([z, z]), np.stack([t, np.zeros_like(t)]))
    sq = np.sum(zc * zc, axis=-1)
    return sq[0] - sq[1]


def counterexample_scan(p_theta: float = 2.0, samples_log2: int = 17,
                        isotropic_control: bool = False, tol: float = 1e-6) -> Report:
    """Search for points where |Z_rho| exceeds its value on {t = 0}.

    On the (1/2, 1) group with the Balogh-Tyson gauge (closed frame
    gradient) the scan looks for B(z, t) > tol over quasi-random points on
    the unit gauge sphere, polished by coordinate bracket-zoom sweeps; it
    passes when such a point is found.  With isotropic_control=True the same
    scan runs on H^2 with the Koranyi gauge, where the profile argument
    forces B <= 0, and passes when no positive value is found.
    """
    if isotropic_control:
        group = heisenberg(2)
        norm = koranyi(group)
        name = "counterexample_control"
    else:
        group = nonisotropic([0.5, 1.0])
        norm = balogh_tyson(group)
        name = "counterexample_scan"
    # p, theta only enter through the product p*theta
    spec = ZFieldSpec(group, norm, 2.0, p_theta / 2.0)
    best, (arg_z, arg_t), vals = scan_unit_sphere(
        lambda z, t: _vertical_excess(spec, z, t), norm, samples_log2, width=0.2, sweeps=5)
    found = best > tol
    passed = (not found) if isotropic_control else found
    return Report(name, passed, tol,
                  values={"max_excess": best, "p_theta": p_theta,
                          "arg_z": arg_z.tolist(), "arg_t": arg_t.tolist()},
                  diagnostics={"samples": int(vals.size),
                               "found_positive": bool(found),
                               "norm": norm.kind})


def product_check(n: int, N: int, p: float, theta: float,
                  samples_log2: int = 17, seed: int = 2024,
                  mc_samples: int = 10**7, identity_rel_tol: float = 5e-3) -> Report:
    """Scan |Z_rho| on (H^n)^N and, on (H^1)^2, verify the product identity.

    When theta >= 0 and n + 1 >= p theta / 4 the vertical contribution to
    |Z_rho|^2 is nonpositive, the sampled sup must stay below (n+1)/n (plus
    tolerance) and the maximizer must sit on {t = 0}.  When the hypothesis
    fails the scan instead reports points exceeding (n+1)/n.  The identity

        int |u|^{p-2} u (Eu) / rho^{p theta} =
        int |u|^{p-2} u <grad u, Z_rho> / rho^{p theta - 1}

    is checked by Monte Carlo, seeded by ``seed``, for one radial bump on
    (H^1)^2.
    """
    if theta < 0:
        raise ValueError("the product scan needs theta >= 0")
    group = heisenberg_product(n, N)
    norm = koranyi(group)
    spec = ZFieldSpec(group, norm, p, theta, variant="product")
    hypothesis = (n + 1) >= p * theta / 4.0
    target = (n + 1) / n

    best, (_, arg_t), zvals = scan_unit_sphere(
        lambda z, t: np.linalg.norm(z_field_components(spec, z, t), axis=-1), norm,
        samples_log2, width=0.2, sweeps=6)
    values = {"sampled_sup": best, "target": target,
              "argmax_t_norm": float(np.linalg.norm(arg_t)),
              "hypothesis_holds": bool(hypothesis)}
    if hypothesis:
        passed = best <= target + 1e-9 and values["argmax_t_norm"] <= 1e-4
    else:
        passed = best > target + 1e-9
        values["exceeding_samples"] = int(np.sum(zvals > target + 1e-9))

    diagnostics = {"samples": int(zvals.size)}
    # the identity holds for every theta, but box Monte Carlo only resolves
    # moderate gauge powers; large p theta concentrates 1/rho^{pt} too hard
    if (n, N) == (1, 2) and p * theta <= 4.0:
        u = radial_bump(group)
        pt = p * theta

        def sides(nodes):
            v, gu, eu = u.jet(nodes)
            d, g = norm.jet(nodes)
            sv = _sgn_pow(v, p)
            pair = _pairing(gu, z_field_components(spec, nodes.z, nodes.t, d, g))
            return np.stack([sv * eu / d**pt, sv * pair / d ** (pt - 1.0)])

        R2 = u.support[1]
        quad = QuadratureSpec(method="monte_carlo", samples=mc_samples, seed=seed,
                              sigma_range=u.support, box=(R2, R2**2))
        rl, rr = integrate_many(group, [sides], quad)
        rel = abs(rl.value - rr.value) / max(abs(rl.value), 1e-300)
        values.update(identity_lhs=rl.value, identity_rhs=rr.value,
                      identity_rel_defect=rel)
        diagnostics.update(mc_samples=mc_samples,
                           mc_stderr=max(rl.error, rr.error))
        passed = passed and rel <= identity_rel_tol
    return Report("product_check", passed, identity_rel_tol, values, diagnostics)


# ---------------------------------------------------------------------------
# auxiliary weak-form and adjoint checks used by the test-suite
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
    quad = _quad_for(phi, quad)
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
