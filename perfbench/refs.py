"""Closed references computed apart from the program.

Nothing here imports carnot_hardy.  The smooth step is rebuilt from its
definition (the normalized antiderivative of exp(-1/(x(1-x)))) by adaptive
quadrature, not from the program's Chebyshev fit, and every integral over a
group is reduced to one-dimensional integrals in the gauge radius and the
vertical angle before scipy's adaptive ``quad`` evaluates it.

On H^1 with the Koranyi gauge the chart sigma = rho, psi = arctan(t/|z|^2)
carries Lebesgue measure to sigma^3 dsigma dphi dpsi, with |z|^2 =
sigma^2 cos(psi), t/rho^2 = sin(psi), |grad_H rho|^2 = cos(psi) and
<grad_H rho, Z_rho> = 2 cos(psi)^2.  On (H^1)^2 the unit Koranyi ball has
volume pi^3/4, so the sphere measure is Q |B| = 2 pi^3.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

_EPS = dict(epsabs=0.0, epsrel=1e-12, limit=200)


def _mollifier(s: float) -> float:
    if s <= 0.0 or s >= 1.0:
        return 0.0
    return math.exp(-1.0 / (s * (1.0 - s)))


_MOLLIFIER_MASS = quad(_mollifier, 0.0, 1.0, **_EPS)[0]


def step(x: float) -> float:
    """The C-infinity step S: 0 below 0, 1 above 1."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x <= 0.5:
        return quad(_mollifier, 0.0, x, **_EPS)[0] / _MOLLIFIER_MASS
    return 1.0 - quad(_mollifier, x, 1.0, **_EPS)[0] / _MOLLIFIER_MASS


def step_d(x: float) -> float:
    return _mollifier(x) / _MOLLIFIER_MASS


def eta(s: float, radii) -> float:
    """Plateau profile: 1 on [r1, R1], supported on [r2, R2]."""
    r2, r1, R1, R2 = radii
    return step((s - r2) / (r1 - r2)) * step((R2 - s) / (R2 - R1))


def eta_d(s: float, radii) -> float:
    r2, r1, R1, R2 = radii
    up, dn = (s - r2) / (r1 - r2), (R2 - s) / (R2 - R1)
    return step_d(up) / (r1 - r2) * step(dn) - step(up) * step_d(dn) / (R2 - R1)


def _radial(f, radii) -> float:
    """int f over the support [r2, R2], split at the plateau edges."""
    r2, r1, R1, R2 = radii
    return sum(quad(f, a, b, **_EPS)[0] for a, b in ((r2, r1), (r1, R1), (R1, R2)))


def _angular(f) -> float:
    return quad(f, -math.pi / 2, math.pi / 2, **_EPS)[0]


def h1_mass(radii, a: float, b: float, p: float, theta: float) -> float:
    """int |u|^p / rho^{p theta} over H^1 for u = eta(rho)(1 + a s + b s^2)."""
    rad = _radial(lambda s: s ** (3.0 - p * theta) * eta(s, radii) ** p, radii)
    ang = _angular(lambda psi: abs(1.0 + a * math.sin(psi) + b * math.sin(psi) ** 2) ** p)
    return 2.0 * math.pi * rad * ang


def _gradient_radial(radii, p: float, theta: float) -> float:
    return _radial(lambda s: s ** (3.0 - p * (theta - 1.0)) * abs(eta_d(s, radii)) ** p,
                   radii)


def h1_full_numerator(radii, p: float, theta: float) -> float:
    """int |grad_H u|^p / rho^{p(theta-1)} over H^1 for u = eta(rho)."""
    ang = _angular(lambda psi: math.cos(psi) ** (p / 2.0))
    return 2.0 * math.pi * ang * _gradient_radial(radii, p, theta)


def h1_projected_numerator(radii, p: float, theta: float) -> float:
    """int |<grad_H u, Z_rho>|^p / rho^{p(theta-1)} over H^1 for u = eta(rho)."""
    ang = _angular(lambda psi: (2.0 * math.cos(psi) ** 2) ** p)
    return 2.0 * math.pi * ang * _gradient_radial(radii, p, theta)


def product_identity_lhs(radii, p: float, theta: float) -> float:
    """int |u|^{p-2} u (Eu) / rho^{p theta} over (H^1)^2 for u = eta(rho)."""
    rad = _radial(lambda s: s ** (8.0 - p * theta) * eta(s, radii) ** (p - 1.0)
                  * eta_d(s, radii), radii)
    return 2.0 * math.pi ** 3 * rad


# ---------------------------------------------------------------------------
# hand formulas for the bound tables
# ---------------------------------------------------------------------------

def hardy_target(Q: float, p: float, theta: float) -> float:
    return abs((Q - p * theta) / p) ** p


def koranyi_sup(Q: float, p: float, theta: float) -> float:
    """sup |Z_rho| on H^n: the endpoint s = 0 or the interior critical point."""
    pt = p * theta
    alpha = (Q / (Q - 2.0)) ** 2
    beta = pt * (pt - 2.0 * Q) / (Q - 2.0) ** 2
    if beta > 0.0 and 2.0 * beta > alpha:
        s = (2.0 * beta - alpha) / (3.0 * beta)
        return math.sqrt(math.sqrt(1.0 - s) * (alpha + beta * s))
    return Q / (Q - 2.0)


def koranyi_bound(Q: float, p: float, theta: float) -> float:
    """|(Q - p theta)/p|^p / sup|Z_rho|^p."""
    return hardy_target(Q, p, theta) / koranyi_sup(Q, p, theta) ** p


def cc_profile(Q: float, p: float, theta: float, nu: np.ndarray) -> np.ndarray:
    """|Z_cc|^2 along the polar angle nu, from its definition."""
    nu = np.asarray(nu, dtype=float)
    pt = p * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (1.0 - np.cos(nu)) / nu ** 2
        g = (nu - np.sin(nu)) / nu ** 2
    f = np.where(np.abs(nu) < 1e-3, 0.5 - nu ** 2 / 24.0, f)
    g = np.where(np.abs(nu) < 1e-3, nu / 6.0 - nu ** 3 / 120.0, g)
    A = Q / (Q - 2.0)
    return (2.0 * A ** 2 * f + (2.0 * pt / (Q - 2.0)) ** 2 * g ** 2
            - 4.0 * pt * Q / (Q - 2.0) ** 2 * g * nu * f)


def cc_sup(Q: float, p: float, theta: float) -> float:
    """sup |Z_cc| by a dense scan of the profile and a bounded polish."""
    nus = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 40001)
    vals = cc_profile(Q, p, theta, nus)
    i = int(np.argmax(vals))
    lo, hi = nus[max(i - 1, 0)], nus[min(i + 1, nus.size - 1)]
    res = minimize_scalar(lambda v: -float(cc_profile(Q, p, theta, np.array(v))),
                          bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return math.sqrt(max(-res.fun, float(vals[i])))


def cc_bound(Q: float, p: float, theta: float) -> float:
    return hardy_target(Q, p, theta) / cc_sup(Q, p, theta) ** p


def product_bound(n: int, N: int, p: float, theta: float) -> float:
    """(n/(n+1))^p |(Q - p theta)/p|^p on (H^n)^N, where sup|Z_rho| = (n+1)/n."""
    Q = 2.0 * N * (n + 1)
    return hardy_target(Q, p, theta) / ((n + 1.0) / n) ** p


def koranyi_b_bound(lambdas, p: float, theta: float) -> float:
    """(lam_min/4)^{p/2} times the Koranyi bound at Q = 2n + 2."""
    Q = 2.0 * len(lambdas) + 2.0
    return (min(lambdas) / 4.0) ** (p / 2.0) * koranyi_bound(Q, p, theta)
