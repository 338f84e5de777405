"""Admissible test functions: smooth bumps, the extremal profile, and the
logarithmic cut-off family.

Everything is built from one C-infinity step S: [0, 1] -> [0, 1], the
normalized antiderivative of exp(-1/(x(1-x))).  The step is represented by a
degree-160 Chebyshev fit (computed once at import, accurate to ~1e-13).  The
Chebyshev sums of the step and of its derivative run together, in one
recurrence over a two-column table (``smoothstep_jet``), and only on points
strictly inside (0, 1); the constant parts of the step are filled in
directly, so a quadrature grid pays for the transition layers of a bump and
not for its plateau or its outside.

Bumps and the cut-off family are evaluated through one jet,
``jet(nodes) -> (value, hgrad, euler)`` on a quadrature node record, which
computes the gauge, its gradient and the radial profile once per batch of
points; their ``value``, ``hgrad`` and ``euler`` are views of that jet.  On
a phi-chart chunk the jet evaluates the radial profile on the chunk's
distinct radii and the vertical factor on its slope table, and spreads them
onto the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial.legendre import leggauss

from ..groups import Array, Nodes, StepTwoGroup
from ..norms import koranyi

LOG2 = float(np.log(2.0))


def _mollifier(x: Array) -> Array:
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (xi * (1.0 - xi)))
    return out


def _fit_step(degree: int = 160):
    # antiderivative of the mollifier at the Chebyshev points, by Gauss quadrature
    gx, gw = leggauss(96)
    u = 0.5 * (gx + 1.0)
    w = 0.5 * gw
    pts = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
    x = 0.5 * (pts + 1.0)
    vals = x * np.sum(w * _mollifier(x[:, None] * u), axis=1)
    coeffs = _cheb.chebfit(pts, vals, degree)
    c0 = _cheb.chebval(-1.0, coeffs)
    c1 = _cheb.chebval(1.0, coeffs)
    return coeffs, float(c0), float(c1)


_STEP_COEFFS, _STEP_LO, _STEP_HI = _fit_step()
_STEP_SCALE = _STEP_HI - _STEP_LO
_STEP_DERIV = _cheb.chebder(_STEP_COEFFS) * 2.0 / _STEP_SCALE
# the step and its derivative as the two columns of one table, each row shaped
# (2, 1) so that the points lie along the last axis, where NumPy's inner loop
# runs; the zero that pads the derivative's leading (degree-160) coefficient
# leaves the recurrence state after the first step at chebval's starting state
_STEP_TABLE = np.stack([_STEP_COEFFS, np.append(_STEP_DERIV, 0.0)], axis=-1)[..., None]


def _clenshaw(x: Array, coeffs: Array) -> Array:
    """Chebyshev sums at the points x in [-1, 1], one row of the result per
    column of coeffs (shape (degree + 1, k, 1)): numpy's chebval recurrence,
    operation for operation (so the same bits), with its temporaries updated
    in place."""
    x2 = 2.0 * x
    shape = (coeffs.shape[1], x.shape[0])
    c0 = np.full(shape, coeffs[-2])
    c1 = np.full(shape, coeffs[-1])
    tmp = np.empty(shape)
    for c in coeffs[-3::-1]:
        tmp, c0 = c0, tmp
        np.subtract(c, c1, out=c0)
        np.multiply(c1, x2, out=c1)
        np.add(tmp, c1, out=c1)
    return c0 + c1 * x


def smoothstep_jet(x):
    """(S(x), S'(x)) for the C-infinity step S: 0 for x <= 0, 1 for x >= 1,
    strictly increasing between.  A NaN gives S = NaN and S' = 0."""
    x = np.asarray(x, dtype=float)
    val = np.where(x >= 1.0, 1.0, np.where(np.isnan(x), np.nan, 0.0))
    der = np.zeros(x.shape)
    inside = (x > 0.0) & (x < 1.0)
    both = _clenshaw(2.0 * x[inside] - 1.0, _STEP_TABLE)
    val[inside] = (both[0] - _STEP_LO) / _STEP_SCALE
    der[inside] = both[1]
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
    rho = koranyi(group)
    a = float(modulation)
    b = float(modulation2)
    modulated = a != 0.0 or b != 0.0
    if modulated and group.h != 1:
        raise ValueError("modulated bumps are implemented for h = 1")

    # on a phi-chart chunk, with c = (1 + lam^2)^{-1/2} and k = L/4: rho = sigma,
    # s = lam c, grad rho = (c/sigma) (z_1 + k lam z_2, z_2 - k lam z_1) and
    # grad s = (2 c^2/sigma^2) ((k z_2, -k z_1) - lam z); every coefficient is
    # a table in (sigma, lam)
    def chart_jet(nodes, derivs):
        sig, lam = nodes.radii, nodes.lam
        eta, deta = (v[:, None] for v in profile.jet(nodes.sigma))
        c = 1.0 / np.sqrt(1.0 + lam**2)
        s = lam * c
        mod, dmod = 1.0 + a * s + b * s * s, a + 2.0 * b * s
        val = nodes.spread(eta * mod)
        if not derivs:
            return val, None, None
        k = group.couplings[0, 0] / 4.0
        # grad u = eta' mod grad rho + eta mod' grad s
        grad = nodes.frame(deta / sig * (mod * c) - eta / sig**2 * (2.0 * dmod * lam * c**2),
                           k * (deta / sig * (mod * lam * c) + eta / sig**2 * (2.0 * dmod * c**2)))
        return val, grad, nodes.spread(deta * sig * mod)

    # evaluations are masked to the support so that points at or near the
    # origin (where rho-quotients degenerate) yield exact zeros, not NaNs;
    # E rho = rho and E(t/rho^2) = 0 by homogeneity
    def jet(nodes, derivs=True):
        if nodes.sigma is not None:
            return chart_jet(nodes, derivs)
        z, t = np.asarray(nodes.z, float), nodes.t
        d = rho.value(z, t)
        inside = (d > profile.r2) & (d < profile.R2)
        with np.errstate(invalid="ignore", divide="ignore"):
            eta, deta = profile.jet(d)
            val = eta
            if modulated:
                t1 = np.asarray(t, float)[..., 0]
                s = t1 / d**2
                mod = 1.0 + a * s + b * s * s
                val = val * mod
            val = np.where(inside, val, 0.0)
            if not derivs:
                return val, None, None
            gr = rho.hgrad(z, t)
            grad = deta[..., None] * gr
            eul = deta * d
            if modulated:
                grad = grad * mod[..., None]
                # grad(t/rho^2) = (Bz/2)/rho^2 - 2 t grad(rho) / rho^3
                gt = 0.5 * group.bz(z)[..., 0, :]
                gmod = gt / (d**2)[..., None] - 2.0 * (t1 / d**3)[..., None] * gr
                grad = grad + (eta * (a + 2.0 * b * s))[..., None] * gmod
                eul = eul * mod
        return val, np.where(inside[..., None], grad, 0.0), np.where(inside, eul, 0.0)

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


def _slope_grad(group: StepTwoGroup, z: Array, t1: Array, zn2: Array) -> Array:
    """grad(t/|z|^2) = -2 t z / |z|^4 + Bz / (2 |z|^2), for h = 1."""
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
        return val, coef[..., None] * _slope_grad(group, z, t1, zn2), np.zeros(val.shape)

    return _from_jet("extremal", {"exponent": kappa}, jet, support=(0.0, np.inf))


def sharpness_function(group: StepTwoGroup, p: float, eps: float,
                       profile: BumpProfile = BumpProfile()) -> TestFunction:
    """u_eps = (t/|z|^2)^{(Q-2)/(2p)} g_eps(t/|z|^2) eta(d), supported where
    t/|z|^2 is in [eps, 1/eps] (so only t > 0 contributes).

    Built for a single vertical direction with the Koranyi gauge inside eta.
    """
    if group.h != 1:
        raise ValueError("the cut-off family is implemented for h = 1")
    rho = koranyi(group)
    kappa = (group.Q - 2.0) / (2.0 * p)

    def cutoff(lam, derivs):
        """w(lam) = lam^kappa g_eps(lam) and w'(lam) (None when derivs is False)."""
        inside = (lam > eps) & (lam < 1.0 / eps)
        lam_s = np.where(inside, lam, 1.0)
        g, gd = g_cutoff_jet(lam_s, eps, derivs)
        w = np.where(inside, lam_s**kappa * g, 0.0)
        if not derivs:
            return w, None
        return w, np.where(inside, kappa * lam_s ** (kappa - 1.0) * g + lam_s**kappa * gd, 0.0)

    # on a phi-chart chunk lam is the slope table, rho = sigma and, with
    # c = (1 + lam^2)^{-1/2} and k = L/4, grad lam = (2/(sigma^2 c))
    # ((k z_2, -k z_1) - lam z); grad rho is as for the bumps
    def chart_jet(nodes, derivs):
        sig, lam = nodes.radii, nodes.lam
        eta, deta = (v[:, None] for v in profile.jet(nodes.sigma))
        w, wd = cutoff(lam, derivs)
        if not derivs:
            return nodes.spread(eta * w), None, None
        c = 1.0 / np.sqrt(1.0 + lam**2)
        k = group.couplings[0, 0] / 4.0
        # grad u = w' eta grad lam + w eta' grad rho
        grad = nodes.frame(deta / sig * (w * c) - eta / sig**2 * (2.0 * lam * wd / c),
                           k * (deta / sig * (w * lam * c) + eta / sig**2 * (2.0 * wd / c)))
        return nodes.spread(eta * w), grad, nodes.spread(deta * sig * w)

    # lam = t/|z|^2 is homogeneous of degree zero, so E u = w(lam) eta'(d) d
    def jet(nodes, derivs=True):
        if nodes.sigma is not None:
            return chart_jet(nodes, derivs)
        z = np.asarray(nodes.z, float)
        t1 = np.asarray(nodes.t, float)[..., 0]
        zn2 = np.sum(z * z, axis=-1)
        w, wd = cutoff(t1 / zn2, derivs)
        d = rho.value(z, nodes.t)
        eta, deta = profile.jet(d)
        if not derivs:
            return w * eta, None, None
        glam = _slope_grad(group, z, t1, zn2)
        gr = rho.hgrad(z, nodes.t)
        return (w * eta, (wd * eta)[..., None] * glam + (w * deta)[..., None] * gr,
                w * deta * d)

    return _from_jet("extremal_cutoff",
                     {"eps": eps, "exponent": kappa,
                      "radii": (profile.r2, profile.r1, profile.R1, profile.R2)},
                     jet, support=(profile.r2, profile.R2))
