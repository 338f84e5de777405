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

from ..groups import (Array, heisenberg, heisenberg_product, nonisotropic, pairing,
                      square_sum)
from ..norms import balogh_tyson, koranyi
from ..zfield import (ZFieldSpec, product_hypothesis, scan_unit_sphere,
                      z_field_components, z_field_norm)
from .quadrature import IntegralResult, QuadratureSpec, integrate_many
from .testfuncs import BumpProfile, TestFunction, radial_bump, sharpness_function


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

# below this |g - f| / max(|f|, |g|) the weight is summed as a series: the
# closed form loses about eps (f/c)^2 to cancellation, about 1e-12 here, while
# the series' first omitted term is of order (c/f)^8 / 10
_W_SERIES_GAP = 1e-2
_W_SERIES_TERMS = 8


def _w_sq(p: float, f: Array, g: Array) -> Array:
    """w^2 = p (p-1) int_0^1 s |s g + (1-s) f|^{p-2} ds, elementwise.

    With c = g - f the substitution x = f + s c gives the antiderivative

        w^2 = p (p-1)/c^2 [(|g|^p - |f|^p)/p - f (|g|^{p-2} g - |f|^{p-2} f)/(p-1)],

    which cancels as c -> 0.  There, with r = c/f (|r| <= ~1e-2),
    |f + s c|^{p-2} = |f|^{p-2} (1 + s r)^{p-2} is expanded binomially:

        w^2 = p (p-1) |f|^{p-2} sum_k binom(p-2, k) r^k / (k+2).
    """
    c = g - f
    near = np.abs(c) <= _W_SERIES_GAP * np.maximum(np.abs(f), np.abs(g))
    out = np.empty(c.shape)
    fa, ga, ca = f[~near], g[~near], c[~near]
    out[~near] = p * (p - 1.0) / ca**2 * (
        (np.abs(ga) ** p - np.abs(fa) ** p) / p
        - fa * (_sgn_pow(ga, p) - _sgn_pow(fa, p)) / (p - 1.0))
    fn, cn = f[near], c[near]
    r = np.divide(cn, fn, out=np.zeros_like(cn), where=fn != 0.0)
    binom = [1.0]
    for k in range(1, _W_SERIES_TERMS):
        binom.append(binom[-1] * (p - 1.0 - k) / k)
    series = np.zeros_like(r)
    for k in reversed(range(_W_SERIES_TERMS)):
        series = series * r + binom[k] / (k + 2.0)
    out[near] = p * (p - 1.0) * np.abs(fn) ** (p - 2.0) * series
    return out


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
    w_sq = np.ones_like(f) if p == 2 else _w_sq(p, f, g)
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


def _quad_for(u: TestFunction, quad: Optional[QuadratureSpec]) -> QuadratureSpec:
    if quad is not None:
        return quad
    return QuadratureSpec(sigma_range=u.support)


def _circle_rule(u: TestFunction, quad: QuadratureSpec) -> QuadratureSpec:
    """quad, with one circle node when u is declared rotation-invariant.

    Every gauge is invariant under rotations of z, so with u so are Z_d,
    <grad u, Z_d>, |grad u| and Eu: every integrand of the checks is then a
    function of (sigma, lam) on the phi chart, and one node at angle 0 with
    the weight 2 pi integrates it exactly on the fine and the coarse grid.
    """
    if u.rotation_invariant:
        return replace(quad, n_angle=1)
    return quad


class TooFewSamplesError(ValueError):
    """A Monte Carlo integral saw fewer than two samples inside its support
    window, so there is nothing to compare it with."""


def _window_shortfall(result: IntegralResult, quad: QuadratureSpec) -> Optional[str]:
    """Why a Monte Carlo integral cannot be compared, or None.  With fewer
    than two samples inside the support window it has no sample variance,
    and with none it evaluated no integrand."""
    if quad.method == "monte_carlo" and result.n_evals < 2:
        return (f"{result.n_evals} of {quad.samples} Monte Carlo samples in the support "
                "window: at least 2 are needed")
    return None


# pairwise relative tolerance of the three-way identity
IBP_REL_TOL = 2e-3


def check_ibp_identity(spec: ZFieldSpec, u: TestFunction,
                       quad: Optional[QuadratureSpec] = None) -> Report:
    """I1 = int |u|^{p-2} u <grad u, Z_d> / d^{pt-1},
    I2 = int |u|^{p-2} u (Eu) / d^{pt},
    I3 = -((Q - pt)/p) int |u|^p / d^{pt};  all three must agree.

    Pass criterion: pairwise relative differences within IBP_REL_TOL, or
    absolute smallness (1e-4, normalized by the mass integral) when pt = Q
    makes I3 vanish identically.  A Monte Carlo run with fewer than two
    samples inside the support window does not pass, and its diagnostics
    say why the identity was not checked.
    """
    quad = _quad_for(u, quad)
    p, theta = spec.p, spec.theta
    pt = spec.ptheta
    Q = float(spec.group.Q)
    r1, r2, r3 = integrate_many(spec.group, [_ibp_integrands(spec, u)],
                                _circle_rule(u, quad))
    I1, I2 = r1.value, r2.value
    mass = r3.value
    I3 = -(Q - pt) / p * mass
    values = {"I1": I1, "I2": I2, "I3": I3, "p": p, "theta": theta}
    diagnostics = {"norm": spec.norm.kind, "mass": mass,
                   "grid_error": max(r1.error, r2.error, r3.error), "n_evals": r1.n_evals}
    vanishing = abs(Q - pt) <= 1e-12
    tol = 1e-4 if vanishing else IBP_REL_TOL
    short = _window_shortfall(r1, quad)
    if short:
        diagnostics["identity_not_checked"] = short
        return Report("ibp_identity", False, tol, values, diagnostics)
    if vanishing:
        defect = max(abs(I1), abs(I2)) / max(1.0, mass)
    else:
        defect = max(abs(I1 - I3), abs(I2 - I3), abs(I1 - I2)) / abs(I3)
    values["defect"] = defect
    return Report("ibp_identity", defect <= tol, tol, values, diagnostics)


def _ibp_integrands(spec: ZFieldSpec, u: TestFunction):
    """The integrands of I1, I2 and of the mass int |u|^p / d^{pt}, stacked."""
    p, pt = spec.p, spec.ptheta
    norm = spec.norm

    def integrands(nodes):
        v, gu, eu = u.jet(nodes)
        d, g = norm.jet(nodes)        # the spec's gauge, not the bump's own rho
        sv = _sgn_pow(v, p)
        pair = pairing(gu, z_field_components(spec, nodes.z, nodes.t, d, g))
        d_pt = d**pt
        return np.stack(np.broadcast_arrays(sv * pair / d ** (pt - 1.0), sv * eu / d_pt,
                                            np.abs(v) ** p / d_pt))

    return integrands


# ---------------------------------------------------------------------------
# Hardy quotients and the sharpness family
# ---------------------------------------------------------------------------

def hardy_quotient(spec: ZFieldSpec, u: TestFunction,
                   quad: Optional[QuadratureSpec] = None,
                   projected: bool = True) -> float:
    """(int |<grad u, Z_d>|^p / d^{p(theta-1)}) / (int |u|^p / d^{p theta}),
    or with the full |grad u| in the numerator when projected is False."""
    num, den = _quotient_parts(spec, u, _quad_for(u, quad), projected)
    return num / den


def _quotient_parts(spec: ZFieldSpec, u: TestFunction, quad: QuadratureSpec,
                    projected: bool = True):
    """(numerator, denominator) of the Hardy quotient; ValueError if the latter
    vanishes, TooFewSamplesError if Monte Carlo left it fewer than two samples."""
    rnum, rden = integrate_many(spec.group, [_quotient_integrands(spec, u, projected)],
                                _circle_rule(u, quad))
    short = _window_shortfall(rden, quad)
    if short:
        raise TooFewSamplesError(short)
    if rden.value <= 0.0:
        raise ValueError("vanishing denominator: test function is zero on the grid")
    return rnum.value, rden.value


def _quotient_integrands(spec: ZFieldSpec, u: TestFunction, projected: bool):
    """Numerator and denominator of the Hardy quotient as one stacked integrand."""
    p, theta = spec.p, spec.theta
    norm = spec.norm

    def integrands(nodes):
        v, gu, _ = u.jet(nodes)
        d, g = norm.jet(nodes, derivs=projected)
        if projected:
            zc = z_field_components(spec, nodes.z, nodes.t, d, g)
            top = np.abs(pairing(gu, zc)) ** p
        else:
            top = pairing(gu, gu) ** (p / 2.0)
        return np.stack(np.broadcast_arrays(top / d ** (p * (theta - 1.0)),
                                            np.abs(v) ** p / d ** (p * theta)))

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
    if spec.norm.kind not in ("koranyi", "cc"):
        raise ValueError("sharpness is computed for the Koranyi or cc gauges")
    out = []
    for eps in eps_arr:
        u = sharpness_function(spec.group, spec.p, eps, profile)
        q = replace(quad or QuadratureSpec(), sigma_range=(profile.r2, profile.R2),
                    lambda_range=(eps, 1.0 / eps))
        num, den = _quotient_parts(spec, u, q)
        out.append(SharpnessPoint(eps, num / den, den))
    return out


def fit_log_excess(points: Sequence[SharpnessPoint], target: float):
    """Least-squares C in excess ~= C / log(1/eps); returns (C, rel_residual)."""
    x = np.array([1.0 / np.log(1.0 / sp.eps) for sp in points])
    y = np.array([sp.quotient - target for sp in points])
    c = float(x @ y / (x @ x))
    resid = float(np.linalg.norm(y - c * x) / np.linalg.norm(y))
    return c, resid


# ---------------------------------------------------------------------------
# the non-isotropic scan and the product checks
# ---------------------------------------------------------------------------

def _vertical_excess(spec: ZFieldSpec, z: Array, t: Array) -> Array:
    """B(z, t) = |Z(z, t)|^2 - |Z(z, 0)|^2, both fields from one stacked batch."""
    zc = z_field_components(spec, np.stack([z, z]), np.stack([t, np.zeros_like(t)]))
    sq = square_sum(zc)
    return sq[0] - sq[1]


# the excess B(z, t) that counts as a point off {t = 0} beating the plane
COUNTEREXAMPLE_TOL = 1e-6
# the p theta of the scanned fields; p and theta enter only through it
COUNTEREXAMPLE_P_THETA = 2.0


def counterexample_scan(samples_log2: int = 17, isotropic_control: bool = False) -> Report:
    """Search for points where |Z_rho| exceeds its value on {t = 0}.

    On the (1/2, 1) group with the Balogh-Tyson gauge (closed frame
    gradient), at p theta = COUNTEREXAMPLE_P_THETA, the scan looks for
    B(z, t) > COUNTEREXAMPLE_TOL over quasi-random points on the unit gauge
    sphere, the best of them polished by safeguarded Newton steps; it passes
    when such a point is found.  With isotropic_control=True the same scan
    runs on H^2 with the Koranyi gauge, where the profile argument forces
    B <= 0, and passes when no positive value is found.
    """
    if isotropic_control:
        group = heisenberg(2)
        norm = koranyi(group)
        name = "counterexample_control"
    else:
        group = nonisotropic([0.5, 1.0])
        norm = balogh_tyson(group)
        name = "counterexample_scan"
    spec = ZFieldSpec(group, norm, 2.0, COUNTEREXAMPLE_P_THETA / 2.0)
    best, (arg_z, arg_t), vals = scan_unit_sphere(
        lambda z, t: _vertical_excess(spec, z, t), norm, samples_log2, width=0.2)
    found = best > COUNTEREXAMPLE_TOL
    passed = (not found) if isotropic_control else found
    return Report(name, passed, COUNTEREXAMPLE_TOL,
                  values={"max_excess": best, "p_theta": COUNTEREXAMPLE_P_THETA,
                          "arg_z": arg_z.tolist(), "arg_t": arg_t.tolist()},
                  diagnostics={"samples": int(vals.size),
                               "found_positive": bool(found),
                               "norm": norm.kind})


# relative tolerance of the Monte Carlo product identity
PRODUCT_IDENTITY_TOL = 5e-3


def product_check(n: int, N: int, p: float, theta: float,
                  samples_log2: int = 17, seed: int = 2024,
                  mc_samples: int = 10**7) -> Report:
    """Scan |Z_rho| on (H^n)^N and, on (H^1)^2, verify the product identity.

    The scan is the Sobol scan of ``scan_unit_sphere``, its best point
    polished by safeguarded Newton steps, which move freely along the plateau
    {t = 0} where |Z_rho| = (n+1)/n.

    Under ``product_hypothesis`` (theta >= 0 and n >= (p theta - 4)/4) the
    vertical contribution to |Z_rho|^2 is nonpositive, the sampled sup must
    stay below (n+1)/n (plus tolerance) and the maximizer must sit on
    {t = 0}.  When the hypothesis fails the scan instead reports points
    exceeding (n+1)/n.  The identity

        int |u|^{p-2} u (Eu) / rho^{p theta} =
        int |u|^{p-2} u <grad u, Z_rho> / rho^{p theta - 1}

    is checked by Monte Carlo, seeded by ``seed``, for one radial bump on
    (H^1)^2 when p theta <= 4; ``mc_samples`` counts box-equivalent draws,
    and ``mc_window_samples`` those that fell inside the bump's support.
    Otherwise, or when fewer than two samples fell inside the support (the
    report then fails), the diagnostics say why the identity was not checked.
    """
    if theta < 0:
        raise ValueError("the product scan needs theta >= 0")
    group = heisenberg_product(n, N)
    norm = koranyi(group)
    spec = ZFieldSpec(group, norm, p, theta)
    hypothesis = all(product_hypothesis(n, p, theta).values())
    target = (n + 1) / n

    best, (_, arg_t), zvals = scan_unit_sphere(
        lambda z, t: z_field_norm(spec, z, t), norm, samples_log2, width=0.2)
    values = {"sampled_sup": best, "target": target,
              "argmax_t_norm": float(np.linalg.norm(arg_t)),
              "hypothesis_holds": bool(hypothesis)}
    if hypothesis:
        passed = best <= target + 1e-9 and values["argmax_t_norm"] <= 1e-4
    else:
        passed = best > target + 1e-9
        values["exceeding_samples"] = int(np.sum(zvals > target + 1e-9))

    diagnostics = {"samples": int(zvals.size)}
    # the identity holds for every theta, but uniform Monte Carlo on the gauge
    # ball only resolves moderate gauge powers; large p theta concentrates
    # 1/rho^{pt} too hard
    if (n, N) != (1, 2):
        diagnostics["identity_not_checked"] = "the Monte Carlo identity runs on (H^1)^2 only"
    elif p * theta > 4.0:
        diagnostics["identity_not_checked"] = (f"p theta = {p * theta:g} > 4: beyond uniform "
                                               "Monte Carlo")
    else:
        u = radial_bump(group)
        quad = QuadratureSpec(method="monte_carlo", samples=mc_samples, seed=seed,
                              sigma_range=u.support)
        # the <grad u, Z> row and the Eu row of the three-way identity
        rr, rl, _ = integrate_many(group, [_ibp_integrands(spec, u)], quad)
        diagnostics.update(mc_samples=mc_samples, mc_window_samples=rl.n_evals)
        short = _window_shortfall(rl, quad)
        if short:
            diagnostics["identity_not_checked"] = short
            passed = False
        else:
            rel = abs(rl.value - rr.value) / max(abs(rl.value), 1e-300)
            values.update(identity_lhs=rl.value, identity_rhs=rr.value,
                          identity_rel_defect=rel)
            diagnostics["mc_stderr"] = max(rl.error, rr.error)
            passed = passed and rel <= PRODUCT_IDENTITY_TOL
    return Report("product_check", passed, PRODUCT_IDENTITY_TOL, values, diagnostics)

