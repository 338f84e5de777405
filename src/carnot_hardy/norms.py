"""Homogeneous gauges: Koranyi, its anisotropic generalization, the
Carnot-Caratheodory distance from the origin, and the Balogh-Tyson gauge.

All evaluators are batched: z has shape (..., 2n), t has shape (..., h).
Horizontal gradients are returned as components in the orthonormal X-frame.

The Carnot-Caratheodory distance on the Heisenberg group H^n (block
eigenvalues 4) is computed through polar coordinates (a + ib, nu, r) with
|a + ib| = 1, nu in [-2pi, 2pi], r > 0:

    z_{2i-1} = (b_i (1 - cos nu) + a_i sin nu) r / nu,
    z_{2i}   = (-a_i (1 - cos nu) + b_i sin nu) r / nu,
    t        = 2 (nu - sin nu) / nu^2 * r^2,

(limit (a r, b r, 0) at nu = 0), where the distance of the image point is
exactly r.  Inversion solves mu(nu) := (nu - sin nu)/(1 - cos nu) = t/|z|^2,
which is odd and strictly increasing on (-2pi, 2pi), then recovers r and
(a, b) by undoing the planar rotation on each block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .groups import Array, CenterError, StepTwoGroup, frame, pairing

TWO_PI = 2.0 * np.pi


class ConvergenceError(RuntimeError):
    """The monotone root finder failed to reach its tolerance."""


# ---------------------------------------------------------------------------
# mu(nu) = (nu - sin nu)/(1 - cos nu) and its monotone inversion
# ---------------------------------------------------------------------------

def _mu(nu: Array) -> Array:
    """mu(nu), with a series for small nu and 1 - cos nu = 2 sin^2(nu/2)."""
    nu = np.asarray(nu, dtype=float)
    small = np.abs(nu) < 1e-3
    nus = np.where(small, 1.0, nu)
    omc = 2.0 * np.sin(nus / 2.0) ** 2
    series = nu / 3.0 + nu**3 / 90.0 + nu**5 / 2520.0
    return np.where(small, series, (nus - np.sin(nus)) / omc)


# seed table for the Newton iteration, graded toward the pole at 2pi
_NU_TABLE = np.concatenate([
    np.linspace(0.0, TWO_PI - 1e-3, 12000),
    TWO_PI - np.geomspace(1e-3, 1e-10, 4000)[1:],
])
_MU_TABLE = _mu(_NU_TABLE)
# the largest float64 below 2pi: Newton iterates stay strictly inside the chart
_NU_MAX = float(np.nextafter(TWO_PI, 0.0))


def _solve_near_pole(m: Array, tol: float) -> Array:
    """delta = 2pi - nu for large m > 0.

    Within ~1e-5 of the pole float64 cannot resolve the residual of the
    equation in nu.  In delta it reads (2pi - delta + sin delta) -
    2 m sin^2(delta/2) = 0 and stays well conditioned; the seed comes from
    the pole asymptotics m = 4pi/delta^2 + pi/3 + O(delta).
    """
    delta = np.sqrt(4.0 * np.pi / (m - np.pi / 3.0))
    for _ in range(2):
        omc = 2.0 * np.sin(delta / 2.0) ** 2
        g = (TWO_PI - delta + np.sin(delta)) - m * omc
        delta = delta + g / (omc + m * np.sin(delta))
    omc = 2.0 * np.sin(delta / 2.0) ** 2
    resid = np.abs((TWO_PI - delta + np.sin(delta)) - m * omc)
    if not np.all(resid <= tol * np.maximum(1.0, m * omc)):
        raise ConvergenceError("mu(nu) = m iteration did not reach tolerance")
    return delta


def solve_mu_inverse(m: Array, tol: float = 1e-10,
                     delta: Optional[Array] = None) -> Array:
    """Solve mu(nu) = m for nu in (-2pi, 2pi), vectorized.

    Small |m| uses the inverted series nu = 3m - 0.9 m^3 + (729/1400) m^5;
    otherwise a table seed plus Newton steps on the cancellation-free form
    (nu - sin nu) - m (1 - cos nu) = 0.  Entries whose residual that
    iteration cannot certify, because nu lies too close to the pole 2pi
    (|m| beyond ~1e11), are solved for 2pi - |nu| instead.  A float64 nu
    there no longer carries 2pi - |nu| to full relative precision, so an
    array passed as ``delta`` receives 2pi - |nu| on those entries and NaN
    on every other one.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("mu inversion needs finite t/|z|^2 (center points excluded)")
    sgn = np.sign(m)
    ma = np.abs(m)
    out = np.empty(ma.shape)
    if delta is not None:
        delta[...] = np.nan

    tiny = ma < 1e-3
    mt = ma[tiny]
    out[tiny] = 3.0 * mt - 0.9 * mt**3 + (729.0 / 1400.0) * mt**5

    rest = ~tiny
    mr = ma[rest]
    nu = np.interp(mr, _MU_TABLE, _NU_TABLE)
    big = mr > _MU_TABLE[-1]
    if np.any(big):
        nu[big] = TWO_PI - np.sqrt(4.0 * np.pi / mr[big])
    for _ in range(4):
        s = np.sin(nu)
        omc = 2.0 * np.sin(nu / 2.0) ** 2
        f = (nu - s) - mr * omc
        df = omc - mr * s
        nu = np.clip(nu - f / df, 1e-3, _NU_MAX)
    # m (1 - cos nu) with 1 - cos nu formed first: 2 m overflows from m ~ 9e307
    omc = 2.0 * np.sin(nu / 2.0) ** 2
    resid = np.abs((nu - np.sin(nu)) - mr * omc)
    scale = np.maximum(1.0, mr * omc)
    stalled = ~(resid <= tol * scale)
    if np.any(stalled):
        pole = _solve_near_pole(mr[stalled], tol)
        nu[stalled] = TWO_PI - pole
        if delta is not None:
            at_pole = np.zeros(ma.shape, dtype=bool)
            at_pole[rest] = stalled
            delta[at_pole] = pole
    out[rest] = nu
    return sgn * out


def _half_angle_ratios(nu: Array):
    """(nu/2)/sin(nu/2) and (nu/2)/tan(nu/2), stable through nu = 0."""
    x = 0.5 * np.asarray(nu, dtype=float)
    small = np.abs(x) < 1e-8
    xs = np.where(small, 1.0, x)
    inv_sinc = np.where(small, 1.0 + x * x / 6.0, xs / np.sin(xs))
    cot = np.where(small, 1.0 - x * x / 3.0, xs / np.tan(xs))
    return inv_sinc, cot


def _cc_slope(m: Array):
    """(nu, (nu/2)/sin(nu/2), (nu/2)/tan(nu/2)) at the slope m = t/|z|^2,
    on which the cc polar angle alone depends."""
    delta = np.empty(np.shape(m))
    nu = solve_mu_inverse(m, delta=delta)
    inv_sinc, cot = _half_angle_ratios(nu)
    pole = ~np.isnan(delta)
    if np.any(pole):
        # at the pole take sin(nu/2) = sin(delta/2) and cos(nu/2) = -cos(delta/2)
        # from delta = 2pi - |nu|, which a float64 nu cannot carry there
        x_abs = 0.5 * np.abs(nu[pole])
        inv_sinc[pole] = x_abs / np.sin(0.5 * delta[pole])
        cot[pole] = -x_abs / np.tan(0.5 * delta[pole])
    return nu, inv_sinc, cot


@lru_cache(maxsize=32)
def _cc_slope_table(lam: bytes):
    """``_cc_slope`` on the slope table whose float64 bytes are ``lam``,
    read-only: the phi chart's integrands read the same table on every call,
    and the key is its contents, so a table built anew still hits."""
    out = _cc_slope(np.frombuffer(lam))
    for arr in out:
        arr.flags.writeable = False
    return out


def _cc_frame_grad(nu: Array, a: Array, b: Array) -> Array:
    """Frame components of grad delta_cc from the polar data."""
    s = np.sin(nu)[..., None]
    c = np.cos(nu)[..., None]
    g = np.empty(a.shape[:-1] + (2 * a.shape[-1],))
    g[..., 0::2] = b * s + a * c
    g[..., 1::2] = b * c - a * s
    return g


def cc_polar_arrays(z: Array, t: Array):
    """Vectorized polar data (nu, r, a, b) for off-center points of H^n.

    t is the single vertical coordinate with shape matching z[..., 0].
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    zn2 = np.sum(z * z, axis=-1)
    if np.any(zn2 == 0.0):
        raise CenterError("polar inversion is undefined on the center {z = 0}")
    try:
        with np.errstate(over="raise"):
            m = t / zn2
    except FloatingPointError:
        return _cc_polar_steep(z, t, zn2)
    nu, inv_sinc, cot = _cc_slope(m)
    r = _z_norm(z, zn2) * inv_sinc
    x = 0.5 * nu
    a = (cot[..., None] * z[..., 0::2] - x[..., None] * z[..., 1::2]) / r[..., None]
    b = (x[..., None] * z[..., 0::2] + cot[..., None] * z[..., 1::2]) / r[..., None]
    return nu, r, a, b


def _z_norm(z: Array, zn2: Array) -> Array:
    """|z| from |z|^2 = zn2; where zn2 is subnormal its square root has lost
    digits that z keeps, and those rows take |z| from z scaled by its
    largest component."""
    zn = np.sqrt(zn2)
    low = zn2 < np.finfo(float).tiny
    if np.any(low):
        zn = np.array(zn)
        zl = z[low]
        top = np.max(np.abs(zl), axis=-1)
        zl = zl / top[:, None]
        zn[low] = top * np.sqrt(np.sum(zl * zl, axis=-1))
    return zn


def _cc_polar_steep(z: Array, t: Array, zn2: Array):
    """``cc_polar_arrays`` where the slope t/|z|^2 overflows on some entries.

    There |z|^2 < |t|/DBL_MAX, and the pole asymptotics
    t/|z|^2 = 4pi/delta^2 + pi/3 + O(delta) put delta = 2pi - |nu| =
    2 sqrt(pi) |z|/sqrt(|t|) below 3e-154.  To double precision nu is then
    +-2pi, r = |z| (nu/2)/sin(nu/2) is sqrt(pi |t|), the center's value, and
    cos(nu/2) = -1 in a = cos(nu/2) z_odd/|z| - (nu/2) z_even/r and
    b = (nu/2) z_odd/r + cos(nu/2) z_even/|z|.
    """
    zn2 = np.asarray(zn2)
    t = np.broadcast_to(t, zn2.shape)
    with np.errstate(over="ignore"):
        steep = np.isinf(t / zn2)
    nu, r = np.empty(zn2.shape), np.empty(zn2.shape)
    a, b = np.empty(z[..., 0::2].shape), np.empty(z[..., 0::2].shape)
    rest = ~steep
    if np.any(rest):
        nu[rest], r[rest], a[rest], b[rest] = cc_polar_arrays(z[rest], t[rest])
    ts, zs = t[steep], z[steep]
    x = np.copysign(np.pi, ts)
    rs = _center_value(ts)
    nu[steep], r[steep] = 2.0 * x, rs
    inv_z, x_r = 1.0 / _z_norm(zs, zn2[steep])[:, None], (x / rs)[:, None]
    a[steep] = -zs[:, 0::2] * inv_z - x_r * zs[:, 1::2]
    b[steep] = x_r * zs[:, 0::2] - zs[:, 1::2] * inv_z
    return nu, r, a, b


def _center_value(t: Array) -> Array:
    """sqrt(pi |t|), the cc distance of (0, t).  Where pi |t| is not a normal
    float it is sqrt(pi) sqrt(|t|), which neither overflows nor rounds a
    subnormal product."""
    ta = np.abs(t)
    with np.errstate(over="ignore"):
        pt = np.pi * ta
    normal = np.isfinite(pt) & (pt >= np.finfo(float).tiny)
    return np.where(normal, np.sqrt(pt), np.sqrt(np.pi) * np.sqrt(ta))


def cc_value_arrays(z: Array, t: Array) -> Array:
    """Carnot-Caratheodory distance, extended by sqrt(pi |t|) on the center."""
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    zn2 = np.sum(z * z, axis=-1)
    out = np.empty(np.broadcast(zn2, t).shape)
    center = zn2 == 0.0
    if np.any(center):
        out[center] = _center_value(np.broadcast_to(t, out.shape)[center])
    off = ~center
    if np.any(off):
        _, r, _, _ = cc_polar_arrays(z[off], np.broadcast_to(t, out.shape)[off])
        out[off] = r
    return out


def cc_dt_arrays(z: Array, t: Array) -> Array:
    """d delta_cc / dt = nu / (4 r) off the center."""
    nu, r, _, _ = cc_polar_arrays(z, t)
    return nu / (4.0 * r)


# ---------------------------------------------------------------------------
# norm models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormModel:
    """A homogeneous gauge with batched value / gradient evaluators.

    ``value(z, t) -> (...)``; ``hgrad(z, t) -> (..., 2n)`` in the X-frame;
    ``dt(z, t) -> (..., h)``.  Every gauge here carries closed derivatives.
    ``jet(nodes, derivs=True) -> (value, hgrad)`` evaluates both from one
    pass over a node record (``z``, ``t`` and, on phi-chart chunks of H^1,
    the radius table ``sigma`` and the slope table ``lam``; see
    ``groups.Nodes``); ``hgrad`` is None when derivs is False.  On a chart
    chunk the value is a (sigma, lam) table that broadcasts against the
    chunk: the Koranyi gauge is the radius column.  The Koranyi jet takes
    the gauge from ``rho`` when the record carries it; the other gauges
    ignore it.

    Every gauge here is invariant under the rotations of z in each
    horizontal 2-plane, so <z, B^{-1} grad_z d> = 0, the hypothesis under
    which the sharp constant is attained.
    """

    kind: str
    group: StepTwoGroup
    value: Callable[[Array, Array], Array]
    hgrad: Callable[[Array, Array], Array]
    dt: Callable[[Array, Array], Array]
    jet: Callable


def _plain_jet(value: Callable, value_hgrad: Callable) -> Callable:
    """A gauge jet that reads the coordinates only: the value alone, or the
    value and the frame gradient from one pass, ``value_hgrad(z, t)``."""
    def jet(nodes, derivs=True):
        if not derivs:
            return value(nodes.z, nodes.t), None
        return value_hgrad(nodes.z, nodes.t)
    return jet


def _koranyi_dt(value: Callable) -> Callable:
    """d rho / dt = t / (2 rho^3), from rho^4 = |z|^4 + |t|^2 in either
    Koranyi-type gauge, whose ``value`` gives rho."""
    return lambda z, t: np.asarray(t, float) / (2.0 * value(z, t)[..., None] ** 3)


def koranyi(group: StepTwoGroup) -> NormModel:
    """rho = (|z|^4 + |t|^2)^{1/4} with closed frame gradient.

    Valid on any group here; the gradient accounts for the couplings, so the
    same model serves H^n and products of Heisenberg groups.
    """
    L = group.couplings  # (h, n)

    def gauge(zn2, t):
        return (zn2**2 + pairing(t, t)) ** 0.25

    def value(z, t):
        z = np.asarray(z, float)
        return gauge(pairing(z, z), np.asarray(t, float))

    def value_hgrad(z, t, rho=None):
        """rho and its frame gradient; a known rho (the gauge of these very
        points, as ``value`` gives it) is taken as it is."""
        z = np.asarray(z, float)
        t = np.asarray(t, float)
        zn2 = pairing(z, z)
        if rho is None:
            rho = gauge(zn2, t)
        lt4 = (t @ L) / 4.0                      # (..., n): sum_j lam^(j)_i t_j / 4
        g = frame(z, zn2[..., None], lt4)
        g /= (rho ** 3)[..., None]
        return rho, g

    # on the phi chart (H^1) rho = sigma, |z|^2 = sigma^2 c and t = lam sigma^2 c
    # with c = (1 + lam^2)^{-1/2}, so with k = L/4 the frame gradient is
    # (c/sigma) (z_1 + k lam z_2, z_2 - k lam z_1)
    def jet(nodes, derivs=True):
        if nodes.sigma is None:
            if derivs:
                return value_hgrad(nodes.z, nodes.t, nodes.rho)
            return (value(nodes.z, nodes.t) if nodes.rho is None else nodes.rho), None
        if not derivs:
            return nodes.radii, None
        c_sig = 1.0 / np.sqrt(1.0 + nodes.lam**2) / nodes.radii
        return nodes.radii, nodes.frame(c_sig, c_sig * (nodes.lam * L[0, 0] / 4.0))

    return NormModel("koranyi", group, value, lambda z, t: value_hgrad(z, t)[1],
                     _koranyi_dt(value), jet)


def symplectic_norm_sq_arrays(group: StepTwoGroup, z: Array) -> Array:
    """|z|_B^2 = sum_i (lam_i / 4)(z_{2i-1}^2 + z_{2i}^2), single vertical direction."""
    lam = group.lambdas
    z = np.asarray(z, dtype=float)
    return np.sum((z[..., 0::2]**2 + z[..., 1::2]**2) * lam / 4.0, axis=-1)


def koranyi_b(group: StepTwoGroup) -> NormModel:
    """Generalized gauge rho_B = (|z|_B^4 + t^2)^{1/4} with the symplectic norm."""
    if group.h != 1:
        raise ValueError("the generalized Koranyi gauge needs a single vertical direction")
    lam2 = np.repeat(group.lambdas, 2)

    def gauge(zb2, t1):
        return (zb2**2 + t1**2) ** 0.25

    def value(z, t):
        return gauge(symplectic_norm_sq_arrays(group, z), np.asarray(t, float)[..., 0])

    def value_hgrad(z, t):
        z = np.asarray(z, float)
        t1 = np.asarray(t, float)[..., 0]
        zb2 = symplectic_norm_sq_arrays(group, z)
        rho = gauge(zb2, t1)
        return rho, frame(z, zb2[..., None], t1[..., None]) * (lam2 / (4.0 * rho[..., None] ** 3))

    return NormModel("koranyi_b", group, value, lambda z, t: value_hgrad(z, t)[1],
                     _koranyi_dt(value), _plain_jet(value, value_hgrad))


def cc(group: StepTwoGroup) -> NormModel:
    """Carnot-Caratheodory distance from the origin on H^n (lam_i = 4)."""
    if not group.is_isotropic_heisenberg():
        raise ValueError("the cc distance model is implemented for H^n with lam = 4")

    def value(z, t):
        return cc_value_arrays(z, np.asarray(t, float)[..., 0])

    def value_hgrad(z, t):
        nu, r, a, b = cc_polar_arrays(z, np.asarray(t, float)[..., 0])
        return r, _cc_frame_grad(nu, a, b)

    def dt(z, t):
        return cc_dt_arrays(z, np.asarray(t, float)[..., 0])[..., None]

    plain = _plain_jet(value, value_hgrad)

    # the polar angle depends on the slope lam = t/|z|^2 alone, and on the
    # phi chart |z| = sigma (1 + lam^2)^{-1/4}: the inversion runs once on
    # each lam table, r = sigma q(lam), and with x = nu/2 and
    # z^perp = (z_2, -z_1) the gradient is
    # (z (x sin nu + cot cos nu) + z^perp (cot sin nu - x cos nu)) / r
    def jet(nodes, derivs=True):
        if nodes.sigma is None:
            return plain(nodes, derivs)
        nu, inv_sinc, cot = _cc_slope_table(nodes.lam.tobytes())
        q = (1.0 + nodes.lam**2) ** -0.25 * inv_sinc
        r = nodes.radii * q
        if not derivs:
            return r, None
        x, s, c = 0.5 * nu, np.sin(nu), np.cos(nu)
        qs = q * nodes.radii
        return r, nodes.frame((x * s + cot * c) / qs, (cot * s - x * c) / qs)

    return NormModel("cc", group, value, lambda z, t: value_hgrad(z, t)[1], dt, jet)


def balogh_tyson(group: StepTwoGroup) -> NormModel:
    """The explicit fundamental-solution gauge on the (1/2, 1) group.

    With h = (z1^2 + z2^2)/2, w = h + z3^2 + z4^2 and s = hypot(w, t):

        rho = s^{1/4} (h + s)^{3/8} / (w + s)^{1/8},

    so log rho = (1/4) log s + (3/8) log(h + s) - (1/8) log(w + s).  The
    closed derivatives follow from ds = (w dw + t dt)/s, with
    dh = z1 dz1 + z2 dz2 and dw = dh + 2 z3 dz3 + 2 z4 dz4.
    """
    if group.h != 1 or group.n != 2 or not np.array_equal(group.lambdas, [0.5, 1.0]):
        raise ValueError("the Balogh-Tyson gauge lives on the (1/2, 1) group")
    lam = group.lambdas

    def parts(z, t):
        z = np.asarray(z, float)
        t1 = np.asarray(t, float)[..., 0]
        half = (z[..., 0]**2 + z[..., 1]**2) / 2.0
        w = half + z[..., 2]**2 + z[..., 3]**2
        s = np.hypot(w, t1)
        return z, t1, half, w, s, s**0.25 * (half + s)**0.375 / (w + s)**0.125

    def value(z, t):
        return parts(z, t)[-1]

    def log_partials(z, t):
        """(z, rho, d log rho / d(|z^(i)|^2 / 2) per block, d log rho / dt)."""
        z, t1, half, w, s, rho = parts(z, t)
        a = 0.375 / (half + s)
        b = 0.125 / (w + s)
        ls = 0.25 / s + a - b         # d/ds
        lw = ls * w / s - b           # d/dw, s moving with w
        lq = np.empty(rho.shape + (2,))
        np.add(a, lw, out=lq[..., 0])
        np.multiply(2.0, lw, out=lq[..., 1])
        return z, rho, lq, ls * t1 / s

    def value_hgrad(z, t):
        z, rho, lq, lt = log_partials(z, t)
        lq *= rho[..., None]
        return rho, frame(z, lq, (lam / 2.0) * (rho * lt)[..., None])

    def dt(z, t):
        _, rho, _, lt = log_partials(z, t)
        return (rho * lt)[..., None]

    return NormModel("balogh_tyson", group, value, lambda z, t: value_hgrad(z, t)[1], dt,
                     _plain_jet(value, value_hgrad))


def make_norm(kind: str, group: StepTwoGroup) -> NormModel:
    factory = {"koranyi": koranyi, "koranyi_b": koranyi_b,
               "cc": cc, "balogh_tyson": balogh_tyson}
    if kind not in factory:
        raise ValueError(f"unknown norm kind {kind!r}")
    return factory[kind](group)
