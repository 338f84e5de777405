"""Admissible test functions: smooth bumps and the logarithmic cut-off
family.

Everything is built from one C-infinity step S: [0, 1] -> [0, 1], the
normalized antiderivative of exp(-1/(x(1-x))).  Its derivative is that closed
form over the normalizer Z.  The step itself is tabulated once at import: on
each of STEP_PANELS (32) equal panels of [0, 1], its values at the panel's
Chebyshev-Lobatto points (by a 96-point Gauss rule, like Z) become the
coefficients of the interpolant of degree STEP_DEGREE (14) through one cosine
matrix.  ``smoothstep_jet`` evaluates S by one Clenshaw recurrence over the
column of each point's panel, within 1e-14 of the definition and continuous
across the panel edges to rounding.  Both run only on points strictly inside
(0, 1); the constant parts of the step are filled in directly, so a quadrature
grid pays for the transition layers of a bump and not for its plateau or its
outside.

Bumps and the cut-off family are evaluated through one jet,
``jet(nodes) -> (value, hgrad, euler)`` on a quadrature node record, which
computes the gauge, its gradient and the radial profile once per batch of
points; their ``value``, ``hgrad`` and ``euler`` are views of that jet.
Each jet is one formula in the Koranyi gauge rho and the dilation-invariant
quantities |z|^2/rho^2, t/rho^2 and t/|z|^2 that the record supplies
(``Nodes.invariants``, the last only to the cut-off family, which asks for
it): the horizontal gradient is frame(z, P, R), whose coefficients P and R
are functions of those alone.
On a phi-chart chunk the gauge is the radius column and the invariants are
tables over the slope axis, so the profile runs on the chunk's distinct
radii, the vertical factor on its slope table, and the value, the Euler
term and P, R come out as (sigma, lam) tables, the gradient on the nodes.
Elsewhere the same formula runs per point, on the gauge a Monte Carlo chunk
carries or the one the record forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from ..groups import Array, Nodes, StepTwoGroup, frame

LOG2 = float(np.log(2.0))


# the step is tabulated on STEP_PANELS equal panels of [0, 1], each by the
# Chebyshev interpolant of degree STEP_DEGREE through its Chebyshev-Lobatto
# points (the panel's ends included, so neighbouring panels agree there); a
# power of two, so that x * STEP_PANELS is exact and below STEP_PANELS for x < 1
STEP_PANELS = 32
STEP_DEGREE = 14


def _mollifier_integral(x: Array) -> Array:
    """int_0^x exp(-1/(s(1-s))) ds at the points x in [0, 1], by the 96-point
    Gauss rule on [0, x]."""
    gx, gw = leggauss(96)
    s = x[:, None] * (0.5 * (gx + 1.0))
    inside = s > 0.0
    f = np.zeros(s.shape)
    f[inside] = np.exp(-1.0 / (s[inside] * (1.0 - s[inside])))
    return x * np.sum(f * (0.5 * gw), axis=1)


def _step_table():
    """The normalizer Z = int_0^1 exp(-1/(s(1-s))) ds, and the Chebyshev
    coefficients of S on each panel as the columns of a (degree + 1, panels)
    table: the values of S at the panel's Lobatto points, times one cosine
    matrix."""
    d = STEP_DEGREE
    k = np.arange(d + 1)
    theta = np.pi * k / d
    cosines = (2.0 / d) * np.cos(np.outer(k, theta))
    cosines[:, [0, d]] *= 0.5
    cosines[[0, d]] *= 0.5
    x = (np.arange(STEP_PANELS)[:, None] + 0.5 * (1.0 + np.cos(theta))) / STEP_PANELS
    integrals = _mollifier_integral(np.append(x, 1.0))
    z = float(integrals[-1])
    values = integrals[:-1].reshape(x.shape) / z
    return z, np.ascontiguousarray(cosines @ values.T)


_STEP_Z, _STEP_TABLE = _step_table()


def _clenshaw(s: Array, coeffs: Array) -> Array:
    """Chebyshev sums at the points s in [-1, 1], with the coefficients of
    each point in its column of coeffs (shape (degree + 1, points))."""
    s2 = 2.0 * s
    b1, b2 = coeffs[-1], np.zeros(s.shape)
    for c in coeffs[-2:0:-1]:
        b1, b2 = c + s2 * b1 - b2, b1
    return coeffs[0] + s * b1 - b2


def smoothstep_jet(x):
    """(S(x), S'(x)) for the C-infinity step S: 0 for x <= 0, 1 for x >= 1,
    strictly increasing between.  A NaN gives S = NaN and S' = 0."""
    x = np.asarray(x, dtype=float)
    val = np.where(x >= 1.0, 1.0, np.where(np.isnan(x), np.nan, 0.0))
    der = np.zeros(x.shape)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    y = xi * STEP_PANELS
    panel = y.astype(np.intp)
    # the table's rounding would step out of [0, 1] next to its ends
    val[inside] = np.clip(_clenshaw(2.0 * (y - panel) - 1.0, _STEP_TABLE[:, panel]), 0.0, 1.0)
    # 1/(x(1-x)) overflows to inf at subnormal x, where S' is 0
    with np.errstate(over="ignore"):
        der[inside] = np.exp(-1.0 / (xi * (1.0 - xi))) / _STEP_Z
    return val, der


def g_cutoff_jet(lam, eps: float, derivs: bool = True):
    """Radial cut-off g in lam = t/|z|^2 and its derivative (None when
    derivs is False): support [eps, 1/eps], plateau [2 eps, 1/(2 eps)],
    built log-radially so that |g'| <= c/eps on the inner transition and
    <= c * eps on the outer one."""
    lam = np.asarray(lam, dtype=float)
    pos = lam > 0.0
    lv = np.log(np.where(pos, lam, 1.0))
    le = np.log(eps)
    (s1, s2), (d1, d2) = smoothstep_jet(np.stack([(lv - le) / LOG2, (-le - lv) / LOG2]))
    g = np.zeros(lam.shape)
    g[pos] = (s1 * s2)[pos]
    if not derivs:
        return g, None
    gd = np.zeros(lam.shape)
    gd[pos] = (d1 * s2 - s1 * d2)[pos] / (lam[pos] * LOG2)
    return g, gd


@dataclass(frozen=True)
class BumpProfile:
    """Radial plateau profile: 1 on [r1, R1], supported on [r2, R2]."""

    r2: float = 0.25
    r1: float = 0.5
    R1: float = 1.5
    R2: float = 2.0

    def __post_init__(self):
        if not (0 < self.r2 < self.r1 < self.R1 < self.R2):
            raise ValueError("bump radii must satisfy 0 < r2 < r1 < R1 < R2")

    def jet(self, s):
        """(eta(s), eta'(s)); the rising and the falling step go through one
        call of the step's jet."""
        s = np.asarray(s, float)
        w_up = self.r1 - self.r2
        w_dn = self.R2 - self.R1
        x = np.stack([(s - self.r2) / w_up, (self.R2 - s) / w_dn])
        (up, dn), (d_up, d_dn) = smoothstep_jet(x)
        return up * dn, d_up / w_up * dn - up * d_dn / w_dn


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A test function with closed evaluators.

    ``value`` and ``hgrad`` follow the batched conventions of the rest of
    the package; ``euler`` evaluates the generator of dilations applied to
    the function.  ``jet(nodes)`` returns ``(value, hgrad, euler)`` on a
    node record from one evaluation of the shared pieces, and
    ``jet(nodes, derivs=False)`` returns ``(value, None, None)``.

    ``rotation_invariant`` declares that the function is invariant under
    the rotations of z in each horizontal 2-plane, i.e. depends on z only
    through the blockwise |z^(i)|; the checks then integrate it on one
    circle node of the phi chart.  It is not verified, so it defaults to
    False.
    """

    kind: str
    params: dict
    value: Callable[[Array, Array], Array]
    hgrad: Callable[[Array, Array], Array]
    euler: Callable[[Array, Array], Array]
    jet: Callable
    support: tuple = (0.25, 2.0)
    rotation_invariant: bool = False


def _from_jet(kind: str, params: dict, jet: Callable, support: tuple) -> TestFunction:
    """A test function whose evaluators are views of one jet.

    Every function built here depends on z through |z|^2 alone (the Koranyi
    gauge and t/|z|^2), so each is declared rotation-invariant.
    """
    return TestFunction(kind, params,
                        value=lambda z, t: jet(Nodes(z, t), derivs=False)[0],
                        hgrad=lambda z, t: jet(Nodes(z, t))[1],
                        euler=lambda z, t: jet(Nodes(z, t))[2],
                        support=support, jet=jet, rotation_invariant=True)


def _support_masked(inside: Array, *arrays) -> tuple:
    """The arrays with exact zeros on the points outside a bump's support,
    ``inside`` being False there and broadcast along their trailing axes.
    Every factor of a bump vanishes there, but the origin and gauges that
    underflow or overflow divide 0 by 0 or inf by inf."""
    return tuple(np.where(inside.reshape(inside.shape + (1,) * (v.ndim - inside.ndim)), v, 0.0)
                 for v in arrays)


def radial_bump(group: StepTwoGroup, profile: BumpProfile = BumpProfile(),
                modulation: float = 0.0, modulation2: float = 0.0) -> TestFunction:
    """eta(rho) (1 + a s + b s^2) with s = t/rho^2: smooth, supported in a
    gauge annulus.

    The modulation (only for a single vertical direction) makes the bump
    genuinely non-radial while keeping every derivative closed-form; s stays
    in [-1, 1], so moderate a, b keep the factor harmless.  The quadratic
    term breaks the t -> -t symmetry cancellations that make some paired
    integrals vanish identically for purely radial bumps.
    """
    a = float(modulation)
    b = float(modulation2)
    modulated = a != 0.0 or b != 0.0
    if modulated and group.h != 1:
        raise ValueError("modulated bumps are implemented for h = 1")
    k = group.couplings / 4.0

    # with zc = |z|^2/rho^2, s = t/rho^2 and k = L/4, grad rho =
    # frame(z, zc/rho, k s/rho) and, for h = 1, grad s =
    # frame(z, -2 s zc/rho^2, 2 k zc^2/rho^2), so grad u = eta' mod grad rho +
    # eta mod' grad s is frame(z, P, R) with
    # P = (eta'/rho) mod zc - (eta/rho^2) 2 mod' s zc and
    # R = (eta'/rho) mod k s + (eta/rho^2) 2 mod' k zc^2, each term a factor
    # in rho times one in the invariants; E rho = rho and E s = 0 by homogeneity
    def jet(nodes, derivs=True):
        with np.errstate(invalid="ignore", divide="ignore"):
            d, zc, s = nodes.invariants()
            inside = (d > profile.r2) & (d < profile.R2)
            eta, deta = profile.jet(d)
            s1 = s[..., 0]
            mod = 1.0 + a * s1 + b * s1 * s1 if modulated else 1.0
            if not derivs:
                return _support_masked(inside, eta * mod)[0], None, None
            rd = (deta / d)[..., None]
            P = rd * (mod * zc)[..., None]
            R = rd * (np.expand_dims(mod, -1) * (s @ k))
            if modulated:
                dmod, ed = 2.0 * (a + 2.0 * b * s1), (eta / d**2)[..., None]
                P = P - ed * (dmod * s1 * zc)[..., None]
                R = R + ed * ((dmod * zc**2)[..., None] * k[0])
            val, P, R, eul = _support_masked(inside, eta * mod, P, R, deta * d * mod)
        return val, frame(nodes.z, P, R), eul

    return _from_jet("bump", {"radii": (profile.r2, profile.r1, profile.R1, profile.R2),
                              "modulation": (a, b)},
                     jet, support=(profile.r2, profile.R2))


def random_bump(group: StepTwoGroup, rng: np.random.Generator) -> TestFunction:
    """A seeded random bump: random annulus radii and vertical modulation."""
    r2 = rng.uniform(0.2, 0.5)
    r1 = r2 + rng.uniform(0.2, 0.5)
    R1 = r1 + rng.uniform(0.3, 1.0)
    R2 = R1 + rng.uniform(0.3, 1.0)
    a = rng.uniform(-0.5, 0.5) if group.h == 1 else 0.0
    return radial_bump(group, BumpProfile(r2, r1, R1, R2), modulation=a)


def sharpness_function(group: StepTwoGroup, p: float, eps: float,
                       profile: BumpProfile = BumpProfile()) -> TestFunction:
    """u_eps = (t/|z|^2)^{(Q-2)/(2p)} g_eps(t/|z|^2) eta(d), supported where
    t/|z|^2 is in [eps, 1/eps] (so only t > 0 contributes).

    Built for a single vertical direction with the Koranyi gauge inside eta.
    """
    if group.h != 1:
        raise ValueError("the cut-off family is implemented for h = 1")
    kappa = (group.Q - 2.0) / (2.0 * p)
    k = group.couplings[0] / 4.0

    def cutoff(lam, derivs):
        """w(lam) = lam^kappa g_eps(lam) and w'(lam) (None when derivs is False)."""
        inside = (lam > eps) & (lam < 1.0 / eps)
        lam_s = np.where(inside, lam, 1.0)
        g, gd = g_cutoff_jet(lam_s, eps, derivs)
        w = np.where(inside, lam_s**kappa * g, 0.0)
        if not derivs:
            return w, None
        return w, np.where(inside, kappa * lam_s ** (kappa - 1.0) * g + lam_s**kappa * gd, 0.0)

    # lam = t/|z|^2 is homogeneous of degree zero, so E u = w(lam) eta'(rho) rho,
    # and with zc = |z|^2/rho^2, grad lam = frame(z, -2 lam/(rho^2 zc),
    # 2 k/(rho^2 zc)); grad rho is as for the bumps, so grad u =
    # w eta' grad rho + w' eta grad lam is frame(z, P, R), each term a factor
    # in rho times one in the invariants
    def jet(nodes, derivs=True):
        d, zc, s, lam = nodes.invariants(slope=True)
        s, lam = s[..., 0], lam[..., 0]
        w, wd = cutoff(lam, derivs)
        eta, deta = profile.jet(d)
        if not derivs:
            return w * eta, None, None
        rd, ed = (deta / d)[..., None], (eta / d**2)[..., None]
        P = rd * (w * zc)[..., None] - ed * (2.0 * lam * wd / zc)[..., None]
        R = rd * ((w * s)[..., None] * k) + ed * ((2.0 * wd / zc)[..., None] * k)
        return w * eta, frame(nodes.z, P, R), w * deta * d

    return _from_jet("extremal_cutoff",
                     {"eps": eps, "exponent": kappa,
                      "radii": (profile.r2, profile.r1, profile.R1, profile.R2)},
                     jet, support=(profile.r2, profile.R2))
