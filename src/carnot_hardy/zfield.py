"""The horizontal substitute for the Euler field and its sup-norm.

For a homogeneous gauge d the field is

    Z_d = (n+1)/n * z/d - (2 p theta / n) * sum_i (t_j(i)/d^2) (1/lam_i) P_i grad d,

where P_i is the quarter-turn on the i-th horizontal 2-plane sending
(X_{2i-1} d, X_{2i} d) to (-X_{2i} d, X_{2i-1} d), lam_i is the coupling of
that block, j(i) is the vertical direction it couples to, and n is the
number of blocks per vertical direction.  One formula serves every group
here: a group with one vertical direction, where n is its number of blocks,
and a product of Heisenberg groups (H^n)^N, where lam_i = 4 and each factor
is one vertical direction; no other multi-vertical group has a field here.
|Z_d| is homogeneous of degree zero, so its supremum is a profile maximum in
one scalar parameter wherever the gauge has enough symmetry, and a sampled
lower bound otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .groups import Array, Nodes, StepTwoGroup, heisenberg_product, square_sum
from .norms import NormModel


@dataclass(frozen=True, eq=False)
class ZFieldSpec:
    """The tuple (group, norm, p, theta).  A group with several vertical
    directions must be a product of Heisenberg groups (H^n)^N, whose blocks
    each couple to one vertical direction."""

    group: StepTwoGroup
    norm: NormModel
    p: float
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and np.isfinite(self.theta)):
            raise ValueError("p and theta must be finite")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        g = self.group      # each block couples to one direction, n blocks in a row
        if g.h > 1 and (g.n % g.h or not np.array_equal(
                g.couplings, heisenberg_product(g.n // g.h, g.h).couplings)):
            raise ValueError("a group with several vertical directions needs to be "
                             "a product of Heisenberg groups")

    @property
    def ptheta(self) -> float:
        return self.p * self.theta

    def factor_blocks(self) -> int:
        """Blocks per vertical direction: the n of the field's formula, and
        of (H^n)^N."""
        return self.group.n // self.group.h


@dataclass(frozen=True)
class SupResult:
    """sup |Z_d| (or a sampled lower bound of it) with provenance.

    ``arg`` is the profile parameter (lambda or nu) for closed-form and
    scanned suprema, or the best sample point (z, t) for multistart runs.
    ``branch`` is the branch of ``koranyi_profile_max`` that decided a closed
    Koranyi-type sup, "endpoint" or "interior", and None for every other sup.
    """

    sup_value: float
    arg: object
    method: str
    samples: int = 0
    branch: Optional[str] = None

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

    The formula of the module docstring on every group: the slots of each
    block take the coupling lam_i of that block and the t_j of the vertical
    direction it couples to.  The gauge d and its frame gradient g at (z, t)
    come from one pass of the gauge's jet unless the caller hands in both.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    if d is None or g is None:
        # at the origin the gradient divides 0 by 0; the d > 0 test rejects it
        with np.errstate(divide="ignore", invalid="ignore"):
            d, g = spec.norm.jet(Nodes(z, t))
    if np.any(d <= 0.0):
        raise ValueError("Z_d needs d > 0 (point away from the origin)")
    n = spec.factor_blocks()
    # built in place, in the order of operations of
    # radial - (pg / lam) * ((2 p theta / n) * (t_j / d^2))
    radial = (n + 1) / n * z
    radial /= d[..., None]
    pg = _block_perp(g)
    pg /= np.repeat(spec.group.couplings.max(axis=0), 2)
    # t_j / d^2 once per vertical direction and scaled, then spread onto the
    # 2n consecutive slots of its blocks
    tj = t / (d**2)[..., None]
    tj *= 2.0 * spec.ptheta / n
    pg *= np.repeat(tj, 2 * n, axis=-1)
    radial -= pg
    return radial


def z_field_norm(spec: ZFieldSpec, z: Array, t: Array) -> Array:
    """|Z_d| at each row (z, t): np.linalg.norm's own arithmetic on real rows,
    without its dispatch."""
    v = z_field_components(spec, z, t)
    return np.sqrt(square_sum(v))


def product_hypothesis(n: int, p: float, theta: float) -> dict:
    """The product hypothesis, by condition; where both hold, |Z_rho| on
    (H^n)^N peaks on {t = 0}, at (n+1)/n."""
    return {"theta_nonnegative": theta >= 0,
            "n_ge_(ptheta-4)/4": n >= (p * theta - 4.0) / 4.0}


# ---------------------------------------------------------------------------
# closed profiles
# ---------------------------------------------------------------------------

def _finite_coeffs(*coeffs):
    """The coefficients of a closed profile, or OverflowError before the
    profile is evaluated on non-finite values."""
    if not np.all(np.isfinite(coeffs)):
        raise OverflowError("the profile's coefficients are not finite in double precision")
    return coeffs


def _koranyi_profile_coeffs(Q: float, p: float, theta: float):
    """(alpha, beta) = ((Q/(Q-2))^2, p theta (p theta - 2Q)/(Q-2)^2)."""
    if Q <= 2:
        raise ValueError("the profile needs Q > 2")
    pt = p * theta
    return _finite_coeffs((Q / (Q - 2.0)) ** 2, pt * (pt - 2.0 * Q) / (Q - 2.0) ** 2)


def z_profile_koranyi(Q: float, p: float, theta: float, lam) -> Array:
    """|Z_rho|^2 on the slice t = lam |z|^2:

    (1 + lam^2)^{-1/2} [ (Q/(Q-2))^2 + p theta (p theta - 2Q)/(Q-2)^2 * lam^2/(1+lam^2) ].
    """
    alpha, beta = _koranyi_profile_coeffs(Q, p, theta)
    lam = np.asarray(lam, dtype=float)
    s = lam**2 / (1.0 + lam**2)
    return (alpha + beta * s) / np.sqrt(1.0 + lam**2)


TWO_PI_TOL = 2.0 * np.pi + 1e-12


def _cc_coeffs(Q: float, p: float, theta: float):
    """(c_f, c_g, c_x) = (2 (Q/(Q-2))^2, (2 p theta/(Q-2))^2, 4 p theta Q/(Q-2)^2)."""
    if Q <= 2:
        raise ValueError("g needs Q > 2")
    pt = p * theta
    return _finite_coeffs(2.0 * (Q / (Q - 2.0))**2, (2.0 * pt / (Q - 2.0))**2,
                          4.0 * pt * Q / (Q - 2.0)**2)


def _cc_basis(nu: Array):
    """(f, g, nu f) at nu, with f = (1 - cos nu)/nu^2 and g = (nu - sin nu)/nu^2,
    by series below |nu| = 1e-4; the series run only where some |nu| is that
    small."""
    small = np.abs(nu) < 1e-4
    any_small = bool(small.any())
    nus = np.where(small, 1.0, nu) if any_small else nu
    f = 2.0 * np.sin(nus / 2.0) ** 2 / nus**2   # (1 - cos nu)/nu^2, no cancellation
    gg = (nus - np.sin(nus)) / nus**2
    if any_small:
        f = np.where(small, 0.5 - nu**2 / 24.0 + nu**4 / 720.0, f)
        gg = np.where(small, nu / 6.0 - nu**3 / 120.0 + nu**5 / 5040.0, gg)
    return f, gg, nu * f


def _cc_combine(coeffs, f: Array, gg: Array, nu_f: Array) -> Array:
    """g from its coefficients and its basis at the same nodes."""
    c_f, c_g, c_x = coeffs
    # np.square is gg**2 on arrays, and a plain multiply on NumPy scalars too
    return c_f * f + c_g * np.square(gg) - c_x * gg * nu_f


def g_cc(Q: float, p: float, theta: float, nu) -> Array:
    """|Z_cc|^2 as a function of the polar angle nu in [-2pi, 2pi]:

    2 (Q/(Q-2))^2 f + (2 p theta/(Q-2))^2 g^2 - 4 p theta Q/(Q-2)^2 * g * nu f,

    with f = (1 - cos nu)/nu^2 and g = (nu - sin nu)/nu^2, evaluated by series
    below |nu| = 1e-4 to dodge cancellation; the nu = 0 value is (Q/(Q-2))^2.
    """
    coeffs = _cc_coeffs(Q, p, theta)
    nu = np.asarray(nu, dtype=float)
    if np.any(np.abs(nu) > TWO_PI_TOL):
        raise ValueError("nu must lie in [-2pi, 2pi]")
    return _cc_combine(coeffs, *_cc_basis(nu))


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


# nodes of the dense scan of g on [-2pi, 2pi] before the bracket zoom
CC_SCAN_NODES = 10**4


@lru_cache(maxsize=None)
def _cc_scan_table():
    """The dense scan's nodes and the basis of g on them, built on first use
    and read-only; no node lies within 1e-4 of 0."""
    nus = np.linspace(-2.0 * np.pi, 2.0 * np.pi, CC_SCAN_NODES)
    table = (nus, *_cc_basis(nus))
    for arr in table:
        arr.flags.writeable = False
    return table


def cc_profile_max(Q: float, p: float, theta: float):
    """Maximum of g over [-2pi, 2pi]: dense scan plus a bracket zoom.

    Returns (max g, argmax nu).  Under theta >= 0 and Q >= 4 p theta/(12-pi^2)
    the maximum sits at nu = 0 with value (Q/(Q-2))^2; outside that regime no
    closed form is asserted and the scanned value stands on its own.
    """
    coeffs = _cc_coeffs(Q, p, theta)
    nus, *basis = _cc_scan_table()
    vals = _cc_combine(coeffs, *basis)
    i = int(np.argmax(vals))
    lo = nus[max(i - 1, 0)]
    hi = nus[min(i + 1, CC_SCAN_NODES - 1)]
    nu_hat, g_hat = bracket_zoom_max(lambda v: _cc_combine(coeffs, *_cc_basis(v)),
                                     lo, hi, tol=1e-9)
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


# the smallest stencil of the polish: central differences at this size keep
# gradients of O(1) objectives to about 1e-10, truncation and rounding alike
POLISH_FLOOR = 1e-5
# objective calls one polish may make, two per iteration
POLISH_CALLS = 30
# the multiples of the step that one call of the polish tries: 2^(k/2) for
# k = 2, 1, ..., -29, so the full step is one of them
_LINE_STEPS = 2.0 ** (np.arange(2, -30, -1) / 2.0)
_LINE_STEPS.flags.writeable = False
# the rounding of an objective value relative to the largest one on its
# stencil: a generous bound for the few dozen operations that form one
_POLISH_NOISE = 64.0 * np.finfo(float).eps


@lru_cache(maxsize=None)
def _stencil(d: int):
    """The unit offsets of the central-difference stencil in d coordinates and
    the pairs (i, j), i < j, that it crosses; read-only.

    The 1 + 2d + 2d(d-1) rows are the center, +e_i, -e_i, and for each pair
    in turn e_i + e_j, e_i - e_j, e_j - e_i and -e_i - e_j.
    """
    eye = np.eye(d)
    i, j = np.triu_indices(d, 1)
    pairs = np.stack([eye[i] + eye[j], eye[i] - eye[j], eye[j] - eye[i],
                      -eye[i] - eye[j]], axis=1).reshape(-1, d)
    table = (np.concatenate([np.zeros((1, d)), eye, -eye, pairs]), i, j)
    for arr in table:
        arr.flags.writeable = False
    return table


def _stencil_model(v: Array, h: float, i: Array, j: Array):
    """(gradient, Hessian) by central differences from the values ``v`` of f
    on the stencil of size h."""
    d = (len(v) - 1 - 4 * len(i)) // 2
    fp, fm = v[1:d + 1], v[d + 1:2 * d + 1]
    hess = np.empty((d, d))
    hess[np.arange(d), np.arange(d)] = (fp + fm - 2.0 * v[0]) / h**2
    q = v[2 * d + 1:].reshape(-1, 4)
    hess[i, j] = hess[j, i] = (q[:, 0] - q[:, 1] - q[:, 2] + q[:, 3]) / (4.0 * h**2)
    return (fp - fm) / (2.0 * h), hess


def _polish_step(grad: Array, hess: Array, h: float, width: float) -> Array:
    """The safeguarded ascent step of a local model whose stencil values are
    at most 1 in size.

    In the eigenbasis of the Hessian it is the Newton step along directions of
    curvature below -_POLISH_NOISE/h^2, the rounding of a second difference.
    The other directions are flat: the dilation orbit, the rotations of each
    block, a plateau such as {t = 0} of the product field, or uphill
    curvature.  Along them the step moves by h along the gradient, and not at
    all where the gradient is below _POLISH_NOISE/h, the rounding of a first
    difference.  No step is longer than ``width``.
    """
    lam, vecs = np.linalg.eigh(hess)
    gk = grad @ vecs
    curved = lam < -_POLISH_NOISE / h**2
    step = np.where(curved, gk / np.where(curved, -lam, 1.0), 0.0)
    flat = np.where(curved, 0.0, gk)
    flat_norm = np.sqrt(flat @ flat)
    if flat_norm > _POLISH_NOISE / h:
        step += (h / flat_norm) * flat
    s = vecs @ step
    length = np.sqrt(s @ s)
    return s * (width / length) if length > width else s


def _best_row(rows: Array, v: Array, best: float):
    """(row, value) of the first largest value above ``best``, NaNs ignored,
    or None."""
    k = int(np.argmax(np.where(np.isnan(v), -np.inf, v)))
    return (rows[k], float(v[k])) if v[k] > best else None


def _polish_max(f, x0: Array, value0: float, width: float):
    """Polish a candidate max of a batched objective by safeguarded Newton
    steps from central differences.

    ``f`` maps rows to values.  Each iteration makes two calls: one on the
    stencil of size h around x (``_stencil``), which gives the value, the
    gradient and the Hessian, and one on the points x + c s for the
    multiples c of ``_LINE_STEPS`` of the step s of ``_polish_step``.  The
    best point of both calls that beats the best value so far is taken, and
    h then shrinks to at most a quarter of itself and the move's length.
    Where no point beats it, h shrinks sixteen-fold.  h starts at ``width``
    and never falls below POLISH_FLOOR.  The polish stops after a move
    shorter than 1e-10, when nothing improves on the floor, or after
    POLISH_CALLS calls.  A stencil with a non-finite value, or with nothing
    but zeros, offers only its own points.  Returns (x, f(x)); a start that
    nothing beats, or a NaN start, comes back as it was given.
    """
    x = np.array(x0, dtype=float)
    best = value0
    if np.isnan(best):
        return x, best
    offsets, i, j = _stencil(x.size)
    h = width
    for _ in range(POLISH_CALLS // 2):
        rows = x + h * offsets
        v = f(rows)
        found = None
        scale = float(np.max(np.abs(v)))
        if 0.0 < scale < np.inf:
            # the model of f / scale takes f's step, and none of its
            # differences overflows
            grad, hess = _stencil_model(v / scale, h, i, j)
            step = _polish_step(grad, hess, h, width)
            line = x + _LINE_STEPS[:, None] * step
            found = _best_row(line, f(line), best)
        found = _best_row(rows, v, best if found is None else found[1]) or found
        if found is None:
            if h <= POLISH_FLOOR:
                break
            h = max(POLISH_FLOOR, h / 16.0)
            continue
        move = float(np.linalg.norm(found[0] - x))
        x, best = found
        if move < 1e-10:
            break
        h = max(POLISH_FLOOR, min(h / 4.0, move))
    return x, best


# ---------------------------------------------------------------------------
# the Sobol draw
# ---------------------------------------------------------------------------

SOBOL_BITS = 30

# (primitive polynomial, initial direction numbers m_1..m_s) of dimensions 2
# to 64, from Joe and Kuo, "Constructing Sobol sequences with better
# two-dimensional projections", SIAM J. Sci. Comput. 30 (2008), file
# new-joe-kuo-6.21201.  The polynomial's coefficients are its bits, leading
# and constant term included.  Dimension 1 has every m_k = 1 (van der Corput).
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)), (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)), (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)), (229, (1, 3, 1, 3, 5, 53, 69)),
    (239, (1, 1, 5, 5, 23, 33, 13)), (241, (1, 1, 7, 7, 1, 61, 123)),
    (247, (1, 1, 7, 9, 13, 61, 49)), (253, (1, 3, 3, 5, 3, 55, 33)),
    (285, (1, 3, 1, 15, 31, 13, 49, 245)), (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)), (333, (1, 3, 1, 11, 27, 43, 71, 9)),
    (351, (1, 1, 7, 15, 21, 11, 81, 45)), (355, (1, 3, 7, 3, 25, 31, 65, 79)),
    (357, (1, 3, 1, 1, 19, 11, 3, 205)), (361, (1, 1, 5, 9, 19, 21, 29, 157)),
    (369, (1, 3, 7, 11, 1, 33, 89, 185)), (391, (1, 3, 3, 3, 15, 9, 79, 71)),
    (397, (1, 3, 7, 11, 15, 39, 119, 27)), (425, (1, 1, 3, 1, 11, 31, 97, 225)),
    (451, (1, 1, 1, 3, 23, 43, 57, 177)), (463, (1, 3, 7, 7, 17, 17, 37, 71)),
    (487, (1, 3, 1, 5, 27, 63, 123, 213)), (501, (1, 1, 3, 5, 11, 43, 53, 133)),
    (529, (1, 3, 5, 5, 29, 17, 47, 173, 479)), (539, (1, 3, 3, 11, 3, 1, 109, 9, 69)),
    (545, (1, 1, 1, 5, 17, 39, 23, 5, 343)), (557, (1, 3, 1, 5, 25, 15, 31, 103, 499)),
    (563, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (601, (1, 1, 5, 11, 9, 29, 97, 231, 363)),
    (607, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (617, (1, 3, 7, 7, 31, 19, 83, 137, 221)),
    (623, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (631, (1, 1, 5, 13, 31, 15, 55, 25, 161)),
    (637, (1, 1, 3, 13, 25, 47, 39, 87, 257)),
)
SOBOL_MAX_DIM = len(_JOE_KUO) + 1


class ScanRangeError(ValueError):
    """A Sobol draw beyond the committed dimensions or the 2^30 points."""


@lru_cache(maxsize=None)
def _sobol_directions(dim: int) -> Array:
    """(SOBOL_BITS, dim) uint32 direction numbers: row b is XORed in at bit b."""
    if not 1 <= dim <= SOBOL_MAX_DIM:
        raise ScanRangeError(f"the Sobol scan draws at most {SOBOL_MAX_DIM} dimensions, "
                             f"not {dim}")
    v = np.ones((SOBOL_BITS, dim), dtype=np.uint32)
    for j, (poly, init) in enumerate(_JOE_KUO[:dim - 1], start=1):
        s = len(init)
        m = list(init)
        for b in range(s, SOBOL_BITS):
            new = m[b - s]
            for k in range(1, s + 1):
                if (poly >> (s - k)) & 1:
                    new ^= m[b - k] << k
            m.append(new)
        v[:, j] = m
    v <<= np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)[:, None]
    v.flags.writeable = False
    return v


def sobol_points(dim: int, lo: int, hi: int) -> Array:
    """Points lo, ..., hi - 1 of the unscrambled Sobol sequence in [0, 1)^dim.

    Point k is the XOR of the direction numbers at the set bits of its Gray
    code k ^ (k >> 1); point k + 1 differs from it by the direction at the
    lowest set bit of k + 1.  ``sobol_points(dim, 0, 2**m)`` is scipy's
    ``qmc.Sobol(dim, scramble=False).random_base2(m)``, bit for bit.
    """
    v = _sobol_directions(dim)
    if not 0 <= lo < hi <= 2**SOBOL_BITS:
        raise ScanRangeError(f"the Sobol scan draws nonempty ranges of points 0 to "
                             f"2^{SOBOL_BITS} - 1, not [{lo}, {hi})")
    x = np.empty((hi - lo, dim), dtype=np.uint32)
    gray = lo ^ (lo >> 1)
    x[0] = np.bitwise_xor.reduce(v[[b for b in range(SOBOL_BITS) if gray >> b & 1]])
    k = np.arange(lo + 1, hi, dtype=np.int64)
    x[1:] = v[np.frexp(k & -k)[1] - 1]            # lowest set bit of k, exactly
    np.bitwise_xor.accumulate(x, axis=0, out=x)
    return x * 2.0**-SOBOL_BITS


# ---------------------------------------------------------------------------
# the unit-sphere scan
# ---------------------------------------------------------------------------

# rows drawn, dilated and evaluated at once; bounds the scan's temporaries
_SCAN_BLOCK = 2**13


def scan_unit_sphere(objective, norm: NormModel, m: int, width: float = 0.3):
    """Quasi-random maximization of a dilation-invariant objective on {d = 1}.

    ``objective(z, t)`` is batched over rows.  The 2^m unscrambled Sobol
    points of [-1.5, 1.5]^dim, less those with |z|^2 <= 1e-6, are dilated onto
    the unit gauge sphere of ``norm`` and evaluated in blocks of _SCAN_BLOCK
    points; the first best one, as np.argmax picks it from all values, is
    polished by safeguarded Newton steps (``_polish_max``) from a stencil
    ``width`` wide.  Returns (best value, (arg_z, arg_t) on the sphere,
    objective at every sample).  The best value is a sampled lower bound of
    the supremum, never a certificate.
    """
    nz = 2 * norm.group.n
    dim = norm.group.dim
    if not 0 <= m <= SOBOL_BITS:
        raise ScanRangeError(f"the Sobol scan draws at most 2^{SOBOL_BITS} points, "
                             f"not 2^{m}")

    def to_sphere(z, t):
        d = norm.value(z, t)
        return z / d[:, None], t / d[:, None] ** 2

    vals, x0, v0 = [], None, None
    for lo in range(0, 2**m, _SCAN_BLOCK):
        # 1.5 (2 x - 1), in place
        pts = sobol_points(dim, lo, min(lo + _SCAN_BLOCK, 2**m))
        pts *= 2.0
        pts -= 1.0
        pts *= 1.5
        z, t = pts[:, :nz], pts[:, nz:]
        keep = square_sum(z) > 1e-6
        z, t = to_sphere(z[keep], t[keep])
        v = objective(z, t)
        vals.append(v)
        # the first block keeps point 0, (-1.5, ..., -1.5); the winner is the
        # row np.argmax picks from all values: the first NaN, else the first max
        i = int(np.argmax(v))
        if x0 is None or (not np.isnan(v0) and (np.isnan(v[i]) or v[i] > v0)):
            x0, v0 = np.concatenate([z[i], t[i]]), float(v[i])
    vals = np.concatenate(vals)

    def f(x):
        zz, tt = x[:, :nz], x[:, nz:]
        ok = square_sum(zz) >= 1e-10
        if ok.all():
            return objective(zz, tt)
        out = np.full(len(x), -np.inf)
        out[ok] = objective(zz[ok], tt[ok])
        return out

    x, best = _polish_max(f, x0, v0, width)
    arg_z, arg_t = to_sphere(x[None, :nz], x[None, nz:])
    return best, (arg_z[0], arg_t[0]), vals


def multistart_sup(spec: ZFieldSpec, m: int = 17) -> SupResult:
    """Quasi-random lower bound for sup |Z_d| over the unit gauge sphere."""
    best, arg, vals = scan_unit_sphere(lambda z, t: z_field_norm(spec, z, t), spec.norm, m)
    return SupResult(best, arg, "multistart", samples=int(vals.size))


def sup_z_norm(spec: ZFieldSpec) -> SupResult:
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

    if kind == "koranyi_b" or (kind == "koranyi" and spec.group.is_isotropic_heisenberg()):
        sup_sq, lam_star, branch = koranyi_profile_max(Q, p, theta)
        factor = 2.0 / np.sqrt(float(spec.group.lambdas.min()))     # exactly 1 on H^n
        return SupResult(float(factor * np.sqrt(sup_sq)), lam_star, "closed_form",
                         branch=branch)

    if kind == "cc":
        g_hat, nu_hat = cc_profile_max(Q, p, theta)
        return SupResult(float(np.sqrt(g_hat)), nu_hat, "scan_zoom", samples=CC_SCAN_NODES)

    if kind == "koranyi" and spec.group.h > 1:
        fn = spec.factor_blocks()
        if all(product_hypothesis(fn, p, theta).values()):
            return SupResult((fn + 1) / fn, 0.0, "closed_form")

    return multistart_sup(spec)
