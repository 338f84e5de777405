"""Quadrature over step-two groups.

The tensor grid lives on the phi chart, which every group of one
horizontal plane and one vertical direction has (``has_chart``: H^1 and the
one-block groups of any coupling): the change of variables
(omega, lam) -> (z, t) with z = omega (1 + lam^2)^{-1/4},
t = lam |omega|^2 (1 + lam^2)^{-1/2}, under which Lebesgue measure becomes
|omega|^2 (1 + lam^2)^{-1} domega dlam and |omega| equals the Koranyi
gauge of the image point, whatever the coupling.  It uses Gauss-Legendre
in sigma = |omega|, a uniform circle rule in the angle (one node at angle 0
when n_angle is 1: exact for integrands invariant under rotations of z),
and either graded Gauss panels in psi = arctan(lam) (whole line) or
log-spaced panels in log(lam) when a positive lambda window is requested
(the cut-off family of the sharpness test lives on such windows).  Its
nodes are laid out (sigma, angle, lam), one array axis per chart
coordinate, and are built, with the 1-D tables, once per resolution.
Integrands receive each chunk of whole sigma slabs as a node record (see
``Nodes``) that carries the Koranyi gauge of its nodes as the radius
column (k, 1, 1) and their dilation-invariant quantities |z|^2/rho^2,
t/rho^2 and t/|z|^2 as tables over the slope rule, so that a function of
the gauge and the invariants is evaluated on those tables and broadcast
against the chunk.  Each chunk also carries its unit slice
(``Nodes.unit``): the same angle and slope nodes at Koranyi radius 1,
(1, n_angle, n_lam), built once per angle and slope rule, on which a
function homogeneous of degree zero (a gauge's frame gradient, Z_d) is
evaluated once and broadcast over sigma.

Monte Carlo integration covers every group where ``has_chart`` is false,
with a fixed seed and chunked, order-deterministic
accumulation.  ``samples`` counts box-equivalent draws: uniform draws from
the box |z_i| < hi, |t_j| < hi^2, the smallest box that holds the Koranyi
ball B(hi) of radius hi, the outer end of the support window
``sigma_range``.  Only the draws that land in the ball are generated: their
number M ~ Binomial(samples, |B|/|box|) is drawn first, then M points
uniform in B(hi) directly (``koranyi_ball_draws``).  Integrands are
evaluated only on the draws whose Koranyi gauge lies inside the window, and
the estimate is |B(hi)| times their sum over M, with the standard error
|B(hi)| sqrt(var / M): the ball's volume is known in closed form
(``koranyi_ball_volume``), so the box draws that miss it are neither made
nor summed as zeros, and the estimate does not carry the variance of their
count.  The chunk handed to the integrands carries the gauge the window was
selected by (``Nodes.rho``), so that the jets do not form it again; it is
the value the Koranyi evaluator gives, so no bit moves.  Its invariants are
formed per point.  Draws are made per chunk of ``chunk`` ball points, so the
random stream does not depend on how a chunk is split; they are evaluated per
block of BLOCK_ROWS rows (the scaling onto the ball, the gauge, the window
test and the integrands), so every temporary is a cache-sized array and no
integrand sees more than a block; and they are summed per chunk, over one
buffer that holds the chunk's in-window samples in draw order, so the sums
do not depend on the block size either.

Both take a window 0 <= lo < hi and reject any other; a ``lambda_range``
is the chart's alone, and Monte Carlo rejects one.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from ..groups import BLOCK_ROWS, Array, Nodes, StepTwoGroup, pairing
from ..norms import koranyi

LOG2 = float(np.log(2.0))
# dyadic grading depth of the psi panels toward psi = +-pi/2
PSI_LEVELS = 10


class NonFiniteIntegrandError(ValueError):
    """An integrand sample is not finite: the support window meets a
    singularity of the integrand, or its powers leave double precision."""


@dataclass
class QuadratureSpec:
    """Resolution and support window; the group picks the integrator."""

    n_sigma: int = 80                    # Gauss nodes in sigma
    n_angle: int = 16                    # circle nodes (1: one node at angle 0)
    psi_nodes: int = 12                  # Gauss nodes per psi panel
    log_nodes: int = 16                  # Gauss nodes per log-lambda panel
    samples: int = 1 << 20               # Monte Carlo box-equivalent draws
    seed: int = 2024
    # gauge support of the integrand: the open Koranyi annulus outside which
    # every integrand must vanish.  The phi chart integrates only over it;
    # Monte Carlo draws from its outer ball, and evaluates integrands, and
    # checks their samples for finiteness, on the draws inside it alone
    sigma_range: tuple = (0.25, 2.0)
    lambda_range: Optional[tuple] = None  # positive (lo, hi): one-sided log grid
    chunk: int = 1 << 17


@dataclass
class IntegralResult:
    value: float
    error: float          # grid-refinement difference or MC standard error
    n_evals: int          # nodes, or Monte Carlo draws inside the window
    method: str           # the integrator that ran: tensor_grid | monte_carlo


@lru_cache(maxsize=None)
def _legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per count."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_on(a: float, b: float, n: int):
    x, w = _legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _gauss_panels(edges, nodes: int):
    """Gauss rules of ``nodes`` points on each panel between consecutive edges."""
    xs, ws = zip(*(_gauss_on(a, b, nodes) for a, b in zip(edges[:-1], edges[1:])))
    return np.concatenate(xs), np.concatenate(ws)


def _graded_psi(levels: int, nodes: int):
    """Symmetric Gauss panels on (-pi/2, pi/2), dyadically graded at the ends."""
    edges = [0.0] + [np.pi / 2 * (1.0 - 2.0 ** (-j)) for j in range(1, levels + 1)]
    edges.append(np.pi / 2)
    x, w = _gauss_panels(edges, nodes)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _log_lambda(lo: float, hi: float, nodes: int):
    """Gauss panels in v = log(lam) over [log lo, log hi].

    Panel width is capped at 2 and the first/last panels match the width
    log(2) of the cut-off transition regions.
    """
    if not (0 < lo < hi):
        raise ValueError("lambda_range must be positive and increasing")
    va, vb = np.log(lo), np.log(hi)
    edges = [va]
    if vb - va > 2 * LOG2:
        edges.append(va + LOG2)
        body_end = vb - LOG2
        v = edges[-1]
        while v < body_end - 1e-12:
            v = min(v + 2.0, body_end)
            edges.append(v)
    edges.append(vb)
    return _gauss_panels(edges, nodes)


class ChartTables(NamedTuple):
    """The 1-D rules of the phi chart: gauge radius, circle angle and slope
    lam = t/|z|^2, each with its weight (the slope weight carries the chart's
    (1 + lam^2)^{-1} factor)."""

    sigma: Array
    w_sigma: Array
    cos: Array
    sin: Array
    w_angle: Array
    lam: Array
    w_lam: Array


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _angle_rule(n_angle: int):
    """(cos, sin, weight) of the circle's midpoint rule; a single node sits at
    angle 0, where z = (|z|, 0)."""
    ang = (np.arange(n_angle) + (0.5 if n_angle > 1 else 0.0)) * 2.0 * np.pi / n_angle
    return _frozen(np.cos(ang), np.sin(ang), np.full(n_angle, 2.0 * np.pi / n_angle))


@lru_cache(maxsize=64)
def _slope_rule(lam_rule: tuple):
    """(lam, weight) of the slope rule; the weight carries (1 + lam^2)^{-1}."""
    if lam_rule[0] == "psi":
        psi, wpsi = _graded_psi(*lam_rule[1:])
        # measure (1+lam^2)^{-1} dlam = dpsi for n = 1
        return _frozen(np.tan(psi), wpsi)
    v, wv = _log_lambda(*lam_rule[1:])
    lam = np.exp(v)
    return _frozen(lam, lam / (1.0 + lam**2) * wv)


@lru_cache(maxsize=64)
def _chart_tables(sigma_range: tuple, n_sigma: int, n_angle: int, lam_rule: tuple):
    sig, wsig = _frozen(*_gauss_on(*sigma_range, n_sigma))
    return ChartTables(sig, wsig, *_angle_rule(n_angle), *_slope_rule(lam_rule))


def _chart_key(quad: QuadratureSpec, coarse: bool) -> tuple:
    """The resolution of quad's chart (or of its coarse companion grid, with
    half the nodes), as the arguments of ``_chart_tables``.

    One circle node integrates a rotation-invariant integrand exactly, so it
    serves the coarse grid too; a full circle keeps at least 4 coarse nodes.
    """
    shrink = 2 if coarse else 1
    if quad.lambda_range is None:
        lam_rule = ("psi", PSI_LEVELS, max(quad.psi_nodes // shrink, 4))
    else:
        lam_rule = ("log", *map(float, quad.lambda_range),
                    max(quad.log_nodes // shrink, 4))
    return (tuple(map(float, quad.sigma_range)), max(quad.n_sigma // shrink, 8),
            1 if quad.n_angle == 1 else max(quad.n_angle // shrink, 4), lam_rule)


def chart_tables(quad: QuadratureSpec, coarse: bool = False) -> ChartTables:
    """The phi chart's 1-D tables at the resolution of quad (or of its coarse
    companion grid); built once per resolution."""
    return _chart_tables(*_chart_key(quad, coarse))


# the node arrays of the most recently used chart resolutions, kept up to
# NODE_CACHE_BYTES in all (a pass of the benchmark's Hardy workload reads
# 1.5 MB of them); a grid larger than that is built on every call
NODE_CACHE_BYTES = 2 << 20
_NODE_CACHE: OrderedDict = OrderedDict()


def _chart_points(sigma: Array, cos: Array, sin: Array, lam: Array):
    """(z, t) of the chart's nodes over the 1-D tables, read-only; t is
    constant along the circle, a broadcast view of one (sigma, lam) table."""
    sig = sigma[:, None, None]
    lam = lam[None, None, :]
    clam = 1.0 / np.sqrt(1.0 + lam**2)
    rz = np.sqrt(clam)
    shape = (sigma.size, cos.size, lam.size)
    z = np.empty(shape + (2,))
    np.multiply(sig * cos[None, :, None], rz, out=z[..., 0])
    np.multiply(sig * sin[None, :, None], rz, out=z[..., 1])
    z.flags.writeable = False
    return z, np.broadcast_to((lam * sig**2 * clam)[..., None], shape + (1,))


def _chart_nodes(key: tuple):
    """(z, t, w) of the chart at the resolution ``key``, read-only."""
    tab = _chart_tables(*key)
    z, t = _chart_points(tab.sigma, tab.cos, tab.sin, tab.lam)
    sig = tab.sigma[:, None, None]
    w = (sig**3 * tab.w_sigma[:, None, None]) * tab.w_angle[None, :, None] * tab.w_lam
    w.flags.writeable = False
    return z, t, w


@lru_cache(maxsize=64)
def _unit_slice(n_angle: int, lam_rule: tuple) -> Nodes:
    """The chart's angle and slope nodes at Koranyi radius 1, a one-slab
    chart record with rho = 1: z = (cos, sin) (1 + lam^2)^{-1/4} and
    t = lam (1 + lam^2)^{-1/2}.  Its invariant tables, |z|^2/rho^2 =
    (1 + lam^2)^{-1/2}, t/rho^2 = lam (1 + lam^2)^{-1/2} and t/|z|^2 = lam,
    are every chunk's.  It does not depend on the sigma window, so every
    grid of the same angle and slope rules shares it."""
    cos, sin, _ = _angle_rule(n_angle)
    lam, _ = _slope_rule(lam_rule)
    c = 1.0 / np.sqrt(1.0 + lam**2)
    one, *tables = _frozen(np.ones((1, 1, 1)), c, (lam * c)[:, None], lam[:, None])
    return Nodes(*_chart_points(one[0, 0], cos, sin, lam), one, tuple(tables))


def has_chart(group: StepTwoGroup) -> bool:
    """Whether group has the phi chart: one horizontal plane, one vertical
    direction.  ``integrate_many`` takes the chart there, Monte Carlo elsewhere."""
    return group.h == 1 and group.n == 1


def phi_polar_nodes(group: StepTwoGroup, quad: QuadratureSpec, coarse: bool = False):
    """Tensor nodes (z, t, w) of the phi chart, for any group that has it
    (``has_chart``), one axis per chart coordinate: z (k, n_angle, n_lam, 2),
    t (k, n_angle, n_lam, 1) (a broadcast view of its (sigma, lam) table) and
    w (k, n_angle, n_lam).

    They are read-only, and built once per resolution while the most
    recently used ones fit in NODE_CACHE_BYTES.
    """
    if not has_chart(group):
        raise ValueError("the phi_polar tensor grid needs one horizontal plane "
                         "and one vertical direction")
    key = _chart_key(quad, coarse)
    if key in _NODE_CACHE:
        _NODE_CACHE.move_to_end(key)
        return _NODE_CACHE[key]
    nodes = _NODE_CACHE[key] = _chart_nodes(key)
    # the oldest go first, and a grid over the budget goes too; the broadcast
    # t holds one (sigma, lam) table
    while sum(z.nbytes + w.nbytes for z, _, w in _NODE_CACHE.values()) > NODE_CACHE_BYTES:
        _NODE_CACHE.popitem(last=False)
    return nodes


def _chunks(group: StepTwoGroup, quad: QuadratureSpec, coarse: bool):
    """(nodes, weights) of the phi chart's tensor grid, chunk by chunk.

    Each chunk holds whole sigma slabs along the first axis, as many as fit
    in quad.chunk nodes and at least one, and carries its radius column, the
    invariant tables of its slope rule and the grid's unit slice.
    """
    z, t, w = phi_polar_nodes(group, quad, coarse)
    key = _chart_key(quad, coarse)
    radii = _chart_tables(*key).sigma[:, None, None]
    unit = _unit_slice(*key[2:])
    per = max(quad.chunk // w[0].size, 1)
    for i in range(0, radii.shape[0], per):
        s = slice(i, i + per)
        yield Nodes(z[s], t[s], radii[s], unit.tables, unit), w[s]


def _rows(fs, nodes: Nodes, where: str) -> list:
    """Samples of every integrand on one chunk, one flat row per integral.

    An integrand returns one row, or a stack of rows along a new first axis
    (integrals that share their intermediate work), each broadcastable to
    the chunk's shape ``nodes.z.shape[:-1]``.  Each row is spread onto the
    chunk and flattened in C order, the order of the flat weights; a chunk
    of no nodes gives empty rows.
    """
    shape = nodes.z.shape[:-1]
    rows = []
    for f in fs:
        vals = np.asarray(f(nodes))
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegrandError(f"non-finite integrand sample {where}")
        stack = vals if vals.ndim > len(shape) else vals[None]
        rows.extend(np.broadcast_to(row, shape).reshape(-1) for row in stack)
    return rows


def _accumulate(fs, group: StepTwoGroup, quad: QuadratureSpec, coarse: bool):
    totals = None
    n = 0
    for nodes, w in _chunks(group, quad, coarse):
        rows = _rows(fs, nodes, "on the grid: check the support window against "
                                "the integrand's singularities")
        if totals is None:
            totals = np.zeros(len(rows))
        w = w.reshape(-1)
        # numpy's pairwise sum, not BLAS: the same bits whatever its thread count
        for k, row in enumerate(rows):
            totals[k] += float(np.sum(w * row))
        n += w.size
    return totals, n


def koranyi_ball_volume(group: StepTwoGroup) -> float:
    """|B_1|, the volume of the unit Koranyi ball {|z|^4 + |t|^2 < 1}.

    Over each |z| = r < 1 the ball is the h-ball of radius sqrt(1 - r^4), so
    with u = r^4

        |B_1| = |S^{2n-1}| V_h int_0^1 r^{2n-1} (1 - r^4)^{h/2} dr
              = |S^{2n-1}| V_h B(n/2, h/2 + 1) / 4,

    pi^2/2 on H^1 and pi^3/4 on (H^1)^2; the ball of radius r has volume
    |B_1| r^Q.  Formed from log-gammas, so that no factor overflows.
    """
    n, h = group.n, group.h
    log_sphere = math.log(2.0) + n * math.log(math.pi) - math.lgamma(n)
    log_ball_h = h / 2.0 * math.log(math.pi) - math.lgamma(h / 2.0 + 1.0)
    log_beta = (math.lgamma(n / 2.0) + math.lgamma(h / 2.0 + 1.0)
                - math.lgamma(n / 2.0 + h / 2.0 + 1.0))
    return math.exp(log_sphere + log_ball_h + log_beta) / 4.0


def koranyi_ball_draws(group: StepTwoGroup, radius: float, m: int, rng):
    """m points (z, t) uniform in the Koranyi ball of the given radius.

    By the volume formula u = |z|^4 / radius^4 has the density
    u^{n/2-1} (1 - u)^{h/2} / B(n/2, h/2 + 1), so u ~ Beta(n/2, h/2 + 1); z
    points along a normalized Gaussian, and t is uniform in the h-ball of
    radius radius^2 sqrt(1 - u): a normalized Gaussian direction with the
    radius fraction U^{1/h}.

    The four draws are made for all m points at once, so the random stream
    does not depend on how the points are later split; they are scaled in
    place BLOCK_ROWS rows at a time, an element-wise step that keeps its bits.
    """
    u = rng.beta(group.n / 2.0, group.h / 2.0 + 1.0, size=m)
    z = rng.standard_normal((m, 2 * group.n))
    t = rng.standard_normal((m, group.h))
    frac = rng.random(m)
    for b in range(0, m, BLOCK_ROWS):
        s = slice(b, b + BLOCK_ROWS)
        zb, tb, ub = z[s], t[s], u[s]
        zb *= (radius * ub**0.25 / np.sqrt(pairing(zb, zb)))[:, None]
        tb *= (radius**2 * np.sqrt(1.0 - ub) * frac[s] ** (1.0 / group.h)
               / np.sqrt(pairing(tb, tb)))[:, None]
    return z, t


def integrate_many(group: StepTwoGroup, fs: Sequence[Callable], quad: QuadratureSpec):
    """Integrate several integrands on shared nodes; returns IntegralResults,
    each naming the integrator that ``has_chart(group)`` picked.

    Each integrand f(nodes) receives one chunk as a ``Nodes`` record, whose
    nodes have the shape nodes.z.shape[:-1]: (k, n_angle, n_lam) on the phi
    chart, (m,) for Monte Carlo.  It returns one row (one integral) or a
    stack of rows along a new first axis (consecutive integrals), each row
    broadcastable to that shape, so that integrals sharing a gauge or
    test-function evaluation compute it once per chunk and a function of
    the chart's tables is computed on them alone.
    """
    lo, hi = quad.sigma_range
    if not 0 <= lo < hi:
        raise ValueError(f"the support window sigma_range must satisfy 0 <= lo < hi, "
                         f"not {quad.sigma_range!r}")
    if quad.chunk < 1:
        raise ValueError(f"chunk must be a positive number of nodes, not {quad.chunk!r}")
    if has_chart(group):
        totals, n = _accumulate(fs, group, quad, coarse=False)
        coarse, _ = _accumulate(fs, group, quad, coarse=True)
        return [IntegralResult(float(v), float(abs(v - c)), n, "tensor_grid")
                for v, c in zip(totals, coarse)]

    if quad.lambda_range is not None:
        raise ValueError("lambda_range is a window of the phi chart, not of monte_carlo")
    if quad.samples < 1:
        raise ValueError("monte_carlo integration needs at least one sample")
    if not np.isfinite(hi):
        raise ValueError("monte_carlo integration needs a bounded support window")
    unit = koranyi_ball_volume(group)
    vol = unit * hi**group.Q
    gauge = koranyi(group).value
    rng = np.random.default_rng(quad.seed)
    # how many of the box-equivalent draws land in the ball: the box
    # |z_i| < hi, |t_j| < hi^2 has the volume 2^(2n + h) hi^Q
    inside = int(rng.binomial(quad.samples, unit / 2.0 ** (2 * group.n + group.h)))
    sums = sq = None
    evals = 0
    # one chunk at least, even an empty one, tells the number of rows
    for start in range(0, max(inside, 1), quad.chunk):
        m = min(quad.chunk, inside - start)
        z, t = koranyi_ball_draws(group, hi, m, rng)
        # the chunk's in-window samples, one row per integral, filled block by
        # block in draw order
        buf, count = None, 0
        for b in range(0, max(m, 1), BLOCK_ROWS):
            zb, tb = z[b:b + BLOCK_ROWS], t[b:b + BLOCK_ROWS]
            rho = gauge(zb, tb)
            idx = np.flatnonzero((rho > lo) & (rho < hi))
            # read-only: the jets hand it on, and one integrand must not alter
            # what the next one reads
            rho_in = rho[idx]
            rho_in.flags.writeable = False
            rows = _rows(fs, Nodes(zb[idx], tb[idx], rho=rho_in), "in the Monte Carlo ball")
            if buf is None:
                buf = np.empty((len(rows), m))
            for k, row in enumerate(rows):
                buf[k, count:count + idx.size] = row
            count += idx.size
        if sums is None:
            sums, sq = np.zeros(len(buf)), np.zeros(len(buf))
        for k, row in enumerate(buf[:, :count]):
            # the draws outside the window add nothing; numpy's pairwise sums
            # over the whole chunk, not per block and not a BLAS dot, as on
            # the grid
            sums[k] += float(row.sum())
            sq[k] += float(np.sum(row * row))
        evals += count
    draws = max(inside, 1)
    mean = sums / draws
    var = np.maximum(sq / draws - mean**2, 0.0)
    err = vol * np.sqrt(var / draws)
    return [IntegralResult(float(vol * mu), float(e), evals, "monte_carlo")
            for mu, e in zip(mean, err)]
