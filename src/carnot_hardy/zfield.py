"""The horizontal substitute for the Euler field and its sup-norm.

For a homogeneous gauge d on a single-vertical group the field is

    Z_d = (n+1)/n * z/d - (2 p theta / n) * (t/d^2) * sum_i (1/lam_i) P_i grad d,

where P_i is the quarter-turn on the i-th horizontal 2-plane sending
(X_{2i-1} d, X_{2i} d) to (-X_{2i} d, X_{2i-1} d).  Products of Heisenberg
groups and general multi-vertical groups use their own combinations (see
``z_field_components``).  |Z_d| is homogeneous of degree zero, so its
supremum is a profile maximum in one scalar parameter wherever the gauge has
enough symmetry, and a sampled lower bound otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import Array, HVector, Nodes, Point, StepTwoGroup
from .norms import NormModel, symplectic_norm_sq_arrays

_VARIANTS = ("single", "product", "general")


@dataclass(frozen=True, eq=False)
class ZFieldSpec:
    """The tuple (group, norm, p, theta) plus the construction variant."""

    group: StepTwoGroup
    norm: NormModel
    p: float
    theta: float
    variant: str = "single"

    def __post_init__(self):
        if not (np.isfinite(self.p) and np.isfinite(self.theta)):
            raise ValueError("p and theta must be finite")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        if self.variant == "single" and self.group.h != 1:
            raise ValueError("single variant needs one vertical direction")
        if self.variant == "product":
            if self.group.n % self.group.h != 0:
                raise ValueError("product variant needs h | n")
        if self.variant == "general" and self.group.selected is None:
            raise ValueError("general variant needs selected blocks")

    @property
    def ptheta(self) -> float:
        return self.p * self.theta

    def factor_blocks(self) -> int:
        """Blocks per Heisenberg factor for the product variant."""
        return self.group.n // self.group.h


@dataclass(frozen=True)
class SupResult:
    """sup |Z_d| (or a sampled lower bound of it) with provenance.

    ``arg`` is the profile parameter (lambda or nu) for closed-form and
    scanned suprema, or the best sample point (z, t) for multistart runs.
    """

    sup_value: float
    arg: object
    method: str
    samples: int = 0

    @property
    def sup_sq(self) -> float:
        return self.sup_value ** 2


def _block_perp(v: Array) -> Array:
    """(v_1, v_2, ...) -> (-v_2, v_1, ...) per horizontal 2-plane."""
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def z_field_components(spec: ZFieldSpec, z: Array, t: Array,
                       d: Optional[Array] = None, g: Optional[Array] = None) -> Array:
    """Batched frame components of Z_d; z (..., 2n), t (..., h).

    The gauge d and its frame gradient g at (z, t) come from one pass of the
    gauge's jet unless the caller hands in both.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    if d is None or g is None:
        # at the origin the gradient divides 0 by 0; the d > 0 test rejects it
        with np.errstate(divide="ignore", invalid="ignore"):
            d, g = spec.norm.jet(Nodes(z, t))
    if np.any(d <= 0.0):
        raise ValueError("Z_d needs d > 0 (point away from the origin)")
    pg = _block_perp(g)
    n = spec.group.n

    if spec.variant == "single":
        lam2 = np.repeat(spec.group.lambdas, 2)
        radial = (n + 1) / n * z / d[..., None]
        t1 = t[..., 0]
        return radial - (2.0 * spec.ptheta / n) * (t1 / d**2)[..., None] * (pg / lam2)

    if spec.variant == "product":
        fn = spec.factor_blocks()
        radial = (fn + 1) / fn * z / d[..., None]
        # slot -> owning factor: t_j multiplies the perp gradient of factor j
        t_slot = np.repeat(t, 2 * fn, axis=-1)
        return radial - (spec.ptheta / (2.0 * fn)) * (1.0 / d**2)[..., None] * t_slot * pg

    # general: z/d + sum_k z^(i_k)/d - 2 p theta sum_{j,k} (A^-1)_{jk} t_j/d^2 P grad d on block i_k
    a_inv = np.linalg.inv(spec.group.a_matrix())
    out = z / d[..., None]
    coef = t @ a_inv.T                               # (..., h): c_k = sum_j (A^-1)_{jk} t_j
    for k, blk in enumerate(spec.group.selected):
        sl = slice(2 * blk, 2 * blk + 2)
        out[..., sl] += z[..., sl] / d[..., None]
        out[..., sl] -= 2.0 * spec.ptheta * (coef[..., k] / d**2)[..., None] * pg[..., sl]
    return out


def z_field_at(spec: ZFieldSpec, x: Point) -> HVector:
    """Z_d at a point, as components in the horizontal frame."""
    if spec.norm.kind == "cc" and x.on_center():
        from .groups import CenterError
        raise CenterError("Z_d for the cc distance is undefined on the center")
    return HVector(z_field_components(spec, x.z[None], x.t[None])[0])


# ---------------------------------------------------------------------------
# closed profiles
# ---------------------------------------------------------------------------

def _koranyi_profile_coeffs(Q: float, p: float, theta: float):
    """(alpha, beta) = ((Q/(Q-2))^2, p theta (p theta - 2Q)/(Q-2)^2)."""
    if Q <= 2:
        raise ValueError("the profile needs Q > 2")
    pt = p * theta
    return (Q / (Q - 2.0)) ** 2, pt * (pt - 2.0 * Q) / (Q - 2.0) ** 2


def z_profile_koranyi(Q: float, p: float, theta: float, lam) -> Array:
    """|Z_rho|^2 on the slice t = lam |z|^2:

    (1 + lam^2)^{-1/2} [ (Q/(Q-2))^2 + p theta (p theta - 2Q)/(Q-2)^2 * lam^2/(1+lam^2) ].
    """
    alpha, beta = _koranyi_profile_coeffs(Q, p, theta)
    lam = np.asarray(lam, dtype=float)
    s = lam**2 / (1.0 + lam**2)
    return (alpha + beta * s) / np.sqrt(1.0 + lam**2)


TWO_PI_TOL = 2.0 * np.pi + 1e-12


def g_cc(Q: float, p: float, theta: float, nu) -> Array:
    """|Z_cc|^2 as a function of the polar angle nu in [-2pi, 2pi]:

    2 (Q/(Q-2))^2 f + (2 p theta/(Q-2))^2 g^2 - 4 p theta Q/(Q-2)^2 * g * nu f,

    with f = (1 - cos nu)/nu^2 and g = (nu - sin nu)/nu^2, evaluated by series
    below |nu| = 1e-4 to dodge cancellation; the nu = 0 value is (Q/(Q-2))^2.
    """
    if Q <= 2:
        raise ValueError("g needs Q > 2")
    nu = np.asarray(nu, dtype=float)
    if np.any(np.abs(nu) > TWO_PI_TOL):
        raise ValueError("nu must lie in [-2pi, 2pi]")
    small = np.abs(nu) < 1e-4
    nus = np.where(small, 1.0, nu)
    f_dir = 2.0 * np.sin(nus / 2.0) ** 2 / nus**2   # (1 - cos nu)/nu^2, no cancellation
    g_dir = (nus - np.sin(nus)) / nus**2
    f_ser = 0.5 - nu**2 / 24.0 + nu**4 / 720.0
    g_ser = nu / 6.0 - nu**3 / 120.0 + nu**5 / 5040.0
    f = np.where(small, f_ser, f_dir)
    gg = np.where(small, g_ser, g_dir)
    pt = p * theta
    A = Q / (Q - 2.0)
    return (2.0 * A**2 * f + (2.0 * pt / (Q - 2.0))**2 * gg**2
            - 4.0 * pt * Q / (Q - 2.0)**2 * gg * (nu * f))


def koranyi_profile_max(Q: float, p: float, theta: float):
    """Closed maximum of the Koranyi profile over lam in R.

    In s = lam^2/(1+lam^2) the profile is sqrt(1-s)(alpha + beta s); its
    interior critical point s* = (2 beta - alpha)/(3 beta) is admissible only
    when 2 beta > alpha, otherwise the maximum sits at the endpoint s = 0.
    Returns (sup of |Z|^2, argmax lam, branch) with branch "endpoint" or
    "interior".
    """
    alpha, beta = _koranyi_profile_coeffs(Q, p, theta)
    if beta > 0 and 2.0 * beta > alpha:
        s_star = (2.0 * beta - alpha) / (3.0 * beta)
        sup_sq = np.sqrt(1.0 - s_star) * (alpha + beta * s_star)
        lam_star = float(np.sqrt(s_star / (1.0 - s_star)))
        return float(sup_sq), lam_star, "interior"
    return float(alpha), 0.0, "endpoint"


def cc_profile_max(Q: float, p: float, theta: float, scan_nodes: int = 10**4):
    """Maximum of g over [-2pi, 2pi]: dense scan plus a bracket zoom.

    Returns (max g, argmax nu).  Under theta >= 0 and Q >= 4 p theta/(12-pi^2)
    the maximum sits at nu = 0 with value (Q/(Q-2))^2; outside that regime no
    closed form is asserted and the scanned value stands on its own.
    """
    nus = np.linspace(-2.0 * np.pi, 2.0 * np.pi, scan_nodes)
    vals = g_cc(Q, p, theta, nus)
    i = int(np.argmax(vals))
    lo = nus[max(i - 1, 0)]
    hi = nus[min(i + 1, scan_nodes - 1)]
    nu_hat, g_hat = bracket_zoom_max(lambda v: g_cc(Q, p, theta, v), lo, hi, tol=1e-9)
    if vals[i] > g_hat:
        nu_hat, g_hat = float(nus[i]), float(vals[i])
    return float(g_hat), float(nu_hat)


ZOOM_POINTS = 33


def bracket_zoom_max(f, lo: float, hi: float, tol: float = 1e-12):
    """Maximize a batched scalar function on [lo, hi] by zooming in on a bracket.

    ``f`` maps an array of abscissae to their values.  Each step evaluates it
    at ZOOM_POINTS equally spaced points of the bracket in one call; the next
    bracket is the two cells on either side of the best point.  The zoom stops
    once a cell is at most ``tol`` wide, or once the bracket is so few ulps
    wide that it no longer shrinks.  Returns (s, f(s)) for the best point
    seen, which is the maximum for a unimodal f.
    """
    a, b = float(lo), float(hi)
    best_s, best_v = a, -np.inf
    while True:
        s = np.linspace(a, b, ZOOM_POINTS)
        v = f(s)
        i = int(np.argmax(v))
        if v[i] > best_v:
            best_s, best_v = float(s[i]), float(v[i])
        a_next, b_next = s[max(i - 1, 0)], s[min(i + 1, ZOOM_POINTS - 1)]
        if (b - a) / (ZOOM_POINTS - 1) <= tol or b_next - a_next >= b - a:
            return best_s, best_v
        a, b = a_next, b_next


def symplectic_norm(g: StepTwoGroup, z) -> float:
    """|z|_B = sqrt(sum_i lam_i (z_{2i-1}^2 + z_{2i}^2) / 4)."""
    return float(np.sqrt(symplectic_norm_sq_arrays(g, np.asarray(z, float)[None])[0]))


def _coordinate_refine(f, x0: Array, value0: float, width: float, sweeps: int):
    """Bracket-zoom sweeps along coordinate axes around a candidate max.

    ``f`` is batched over rows; each zoom step moves one coordinate of x
    through its bracket in one call.
    """
    x = np.array(x0, dtype=float)
    best = value0
    w = width
    for _ in range(sweeps):
        for i in range(x.size):
            def slice_f(s, i=i):
                y = np.repeat(x[None], s.size, axis=0)
                y[:, i] = s
                return f(y)
            s, v = bracket_zoom_max(slice_f, x[i] - w, x[i] + w, tol=1e-10)
            if v > best:
                best, x[i] = v, s
        w *= 0.35
    return x, best


def scan_unit_sphere(objective, norm: NormModel, m: int, width: float = 0.3,
                     sweeps: int = 6):
    """Quasi-random maximization of a dilation-invariant objective on {d = 1}.

    ``objective(z, t)`` is batched over rows.  The 2^m unscrambled Sobol
    points of [-1.5, 1.5]^dim, less those with |z|^2 <= 1e-6, are dilated onto
    the unit gauge sphere of ``norm``; the best one is polished by sweeps of
    bracket zooms along coordinates.  Returns (best value, (arg_z,
    arg_t) on the sphere, objective at every sample).  The best value is a
    sampled lower bound of the supremum, never a certificate.
    """
    # scipy.stats costs about a second to import; only the scans need it
    from scipy.stats import qmc

    nz = 2 * norm.group.n

    def to_sphere(z, t):
        d = norm.value(z, t)
        return z / d[:, None], t / d[:, None] ** 2

    pts = 1.5 * (2.0 * qmc.Sobol(d=norm.group.dim, scramble=False).random_base2(m) - 1.0)
    z, t = pts[:, :nz], pts[:, nz:]
    keep = np.sum(z * z, axis=1) > 1e-6
    z, t = to_sphere(z[keep], t[keep])
    vals = objective(z, t)
    i = int(np.argmax(vals))

    def f(x):
        zz, tt = x[:, :nz], x[:, nz:]
        out = np.full(len(x), -np.inf)
        ok = np.sum(zz * zz, axis=1) >= 1e-10
        out[ok] = objective(zz[ok], tt[ok])
        return out

    x, best = _coordinate_refine(f, np.concatenate([z[i], t[i]]), float(vals[i]),
                                 width, sweeps)
    arg_z, arg_t = to_sphere(x[None, :nz], x[None, nz:])
    return best, (arg_z[0], arg_t[0]), vals


def multistart_sup(spec: ZFieldSpec, m: int = 17) -> SupResult:
    """Quasi-random lower bound for sup |Z_d| over the unit gauge sphere."""
    best, arg, vals = scan_unit_sphere(
        lambda z, t: np.linalg.norm(z_field_components(spec, z, t), axis=-1), spec.norm, m)
    return SupResult(best, arg, "multistart", samples=int(vals.size))


def sup_z_norm(spec: ZFieldSpec, scan_nodes: int = 10**4) -> SupResult:
    """sup |Z_d|, by closed profile, dense scan, or multistart sampling.

    * Koranyi on isotropic H^n (and its products under the nonpositivity
      condition): closed one-parameter profile.
    * generalized Koranyi (single vertical direction): the closed profile in
      the symplectic norm times the frame-equivalence factor 2/sqrt(lam_min),
      which is the constant entering the Hardy bound and dominates the
      Euclidean sup.
    * cc distance: dense scan of g(nu) on [-2pi, 2pi] plus a bracket zoom.
    * anything else: quasi-random multistart (a sampled lower bound).
    """
    kind = spec.norm.kind
    Q = float(spec.group.Q)
    p, theta = spec.p, spec.theta

    if kind == "koranyi" and spec.variant == "single" and spec.group.is_isotropic_heisenberg():
        sup_sq, lam_star, _ = koranyi_profile_max(Q, p, theta)
        return SupResult(float(np.sqrt(sup_sq)), lam_star, "closed_form")

    if kind == "koranyi_b" and spec.variant == "single":
        sup_sq, lam_star, _ = koranyi_profile_max(Q, p, theta)
        factor = 2.0 / np.sqrt(float(spec.group.lambdas.min()))
        return SupResult(float(factor * np.sqrt(sup_sq)), lam_star, "closed_form")

    if kind == "cc":
        g_hat, nu_hat = cc_profile_max(Q, p, theta, scan_nodes)
        return SupResult(float(np.sqrt(g_hat)), nu_hat, "scan_golden", samples=scan_nodes)

    if kind == "koranyi" and spec.variant == "product":
        fn = spec.factor_blocks()
        if theta >= 0 and fn + 1 >= spec.ptheta / 4.0:
            return SupResult((fn + 1) / fn, 0.0, "closed_form")

    return multistart_sup(spec)
