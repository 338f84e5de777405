"""Quadrature over step-two groups.

The tensor grid lives on the phi chart of H^1: the change of variables
(omega, lam) -> (z, t) with z = omega (1 + lam^2)^{-1/4},
t = lam |omega|^2 (1 + lam^2)^{-1/2}, under which Lebesgue measure becomes
|omega|^2 (1 + lam^2)^{-(n+1)/2} domega dlam and |omega| equals the Koranyi
gauge of the image point.  It uses Gauss-Legendre in sigma = |omega|, a
uniform circle rule in the angle (one node at angle 0 when n_angle is 1:
exact for integrands invariant under rotations of z), and either graded
Gauss panels in psi = arctan(lam) (whole line) or log-spaced panels in
log(lam) when a positive lambda window is requested (the cut-off family of
the sharpness test lives on such windows).  Its 1-D tables are built once
per resolution, and integrands receive them with each chunk of whole sigma
slabs (see ``Nodes``), so that a function of the radius or of
lam = t/|z|^2 alone is evaluated on its table.

Monte Carlo integration covers the product and five-dimensional
non-isotropic cases, with a fixed seed and chunked, order-deterministic
accumulation.  It draws uniform samples from the box |z_i| < hi,
|t_j| < hi^2, the smallest box that holds the Koranyi ball of radius hi,
the outer end of the support window ``sigma_range``.  Integrands are
evaluated only on the samples whose Koranyi gauge lies inside the window;
the others enter the sums as exact zeros, so each sum sees the vector that a
full-box evaluation of an integrand vanishing outside the window gives, bit
for bit.  The chunk handed to the integrands carries the gauge the window
was selected by (``Nodes.rho``), so that the Koranyi jets do not form it
again; it is the value their own evaluator gives, so no bit moves.

Both methods take a window 0 <= lo < hi and reject any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from ..groups import Array, Nodes, StepTwoGroup
from ..norms import koranyi

LOG2 = float(np.log(2.0))
# dyadic grading depth of the psi panels toward psi = +-pi/2
PSI_LEVELS = 10


class NonFiniteIntegrandError(ValueError):
    """An integrand sample is not finite: the support window meets a
    singularity of the integrand, or its powers leave double precision."""


@dataclass
class QuadratureSpec:
    """Integration method, resolution and support window."""

    method: str = "tensor_grid"          # tensor_grid | monte_carlo
    n_sigma: int = 80                    # Gauss nodes in sigma
    n_angle: int = 16                    # circle nodes (1: one node at angle 0)
    psi_nodes: int = 12                  # Gauss nodes per psi panel
    log_nodes: int = 16                  # Gauss nodes per log-lambda panel
    samples: int = 1 << 20               # Monte Carlo sample count
    seed: int = 2024
    # gauge support of the integrand: the open Koranyi annulus outside which
    # every integrand must vanish.  The phi chart integrates only over it;
    # Monte Carlo draws from the box that holds its outer ball, and evaluates
    # integrands, and checks their samples for finiteness, on the samples
    # inside it alone
    sigma_range: tuple = (0.25, 2.0)
    lambda_range: Optional[tuple] = None  # positive (lo, hi): one-sided log grid
    chunk: int = 1 << 17


@dataclass
class IntegralResult:
    value: float
    error: float          # grid-refinement difference or MC standard error
    n_evals: int
    method: str


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


def _graded_psi(levels: int, nodes: int):
    """Symmetric Gauss panels on (-pi/2, pi/2), dyadically graded at the ends."""
    edges = [0.0] + [np.pi / 2 * (1.0 - 2.0 ** (-j)) for j in range(1, levels + 1)]
    edges.append(np.pi / 2)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = _gauss_on(a, b, nodes)
        xs.append(x)
        ws.append(w)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
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
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = _gauss_on(a, b, nodes)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


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


@lru_cache(maxsize=64)
def _chart_tables(sigma_range: tuple, n_sigma: int, n_angle: int, lam_rule: tuple):
    sig, wsig = _gauss_on(*sigma_range, n_sigma)
    # midpoints on the circle; a single node sits at angle 0, where z = (|z|, 0)
    ang = (np.arange(n_angle) + (0.5 if n_angle > 1 else 0.0)) * 2.0 * np.pi / n_angle
    wang = np.full(n_angle, 2.0 * np.pi / n_angle)
    if lam_rule[0] == "psi":
        psi, wpsi = _graded_psi(*lam_rule[1:])
        lam = np.tan(psi)
        # measure (1+lam^2)^{-1} dlam = dpsi for n = 1
        wlam = wpsi
    else:
        v, wv = _log_lambda(*lam_rule[1:])
        lam = np.exp(v)
        wlam = lam / (1.0 + lam**2) * wv
    tables = ChartTables(sig, wsig, np.cos(ang), np.sin(ang), wang, lam, wlam)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def chart_tables(quad: QuadratureSpec, coarse: bool = False) -> ChartTables:
    """The phi chart's 1-D tables at the resolution of quad (or of its coarse
    companion grid, with half the nodes); built once per resolution.

    One circle node integrates a rotation-invariant integrand exactly, so it
    serves the coarse grid too; a full circle keeps at least 4 coarse nodes.
    """
    shrink = 2 if coarse else 1
    if quad.lambda_range is None:
        lam_rule = ("psi", PSI_LEVELS, max(quad.psi_nodes // shrink, 4))
    else:
        lam_rule = ("log", *map(float, quad.lambda_range),
                    max(quad.log_nodes // shrink, 4))
    return _chart_tables(tuple(map(float, quad.sigma_range)),
                         max(quad.n_sigma // shrink, 8),
                         1 if quad.n_angle == 1 else max(quad.n_angle // shrink, 4),
                         lam_rule)


def phi_polar_nodes(group: StepTwoGroup, quad: QuadratureSpec, coarse: bool = False):
    """Tensor nodes (z, t, w) of the phi chart for H^1, laid out
    (sigma, angle, lam) in C order."""
    if group.h != 1 or group.n != 1:
        raise ValueError("the phi_polar tensor grid is implemented for H^1")
    tab = chart_tables(quad, coarse)
    sig = tab.sigma[:, None, None]
    lam = tab.lam[None, None, :]
    clam = 1.0 / np.sqrt(1.0 + lam**2)
    rz = np.sqrt(clam)
    shape = (tab.sigma.size, tab.cos.size, tab.lam.size)
    z = np.empty(shape + (2,))
    np.multiply(sig * tab.cos[None, :, None], rz, out=z[..., 0])
    np.multiply(sig * tab.sin[None, :, None], rz, out=z[..., 1])
    t = np.broadcast_to(lam * sig**2 * clam, shape)[..., None]
    w = (sig**3 * tab.w_sigma[:, None, None]) * tab.w_angle[None, :, None] * tab.w_lam
    return z.reshape(-1, 2), t.reshape(-1, 1), np.broadcast_to(w, shape).reshape(-1)


def _chunks(group: StepTwoGroup, quad: QuadratureSpec, coarse: bool):
    """(nodes, weights) of the phi chart's tensor grid, chunk by chunk.

    Each chunk holds whole sigma slabs, as many as fit in quad.chunk nodes
    and at least one, and carries its chart tables.
    """
    z, t, w = phi_polar_nodes(group, quad, coarse)
    tab = chart_tables(quad, coarse)
    slab = z.shape[0] // tab.sigma.size
    per = max(quad.chunk // slab, 1)
    for i in range(0, tab.sigma.size, per):
        lo, hi = i * slab, min(i + per, tab.sigma.size) * slab
        yield Nodes(z[lo:hi], t[lo:hi], tab.sigma[i:i + per], tab.lam), w[lo:hi]


def _rows(fs, nodes: Nodes, where: str) -> list:
    """Samples of every integrand on one chunk, one row per integral.

    An integrand returns either m samples or a (k, m) stack of k integrals
    that share their intermediate work; a chunk of m = 0 nodes gives k empty
    rows.
    """
    rows = []
    for f in fs:
        vals = np.asarray(f(nodes))
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegrandError(f"non-finite integrand sample {where}")
        rows.extend(vals.reshape(len(vals) if vals.ndim == 2 else 1, nodes.z.shape[0]))
    return rows


def _accumulate(fs, group: StepTwoGroup, quad: QuadratureSpec, coarse: bool):
    totals = None
    n = 0
    for nodes, w in _chunks(group, quad, coarse):
        rows = _rows(fs, nodes, "on the grid: check the support window against "
                                "the integrand's singularities")
        if totals is None:
            totals = np.zeros(len(rows))
        # numpy's pairwise sum, not BLAS: the same bits whatever its thread count
        for k, row in enumerate(rows):
            totals[k] += float(np.sum(w * row))
        n += w.size
    return totals, n


def integrate_many(group: StepTwoGroup, fs: Sequence[Callable], quad: QuadratureSpec):
    """Integrate several integrands on shared nodes; returns IntegralResults.

    Each integrand f(nodes) receives one chunk as a ``Nodes`` record and
    returns m samples (one integral) or a (k, m) stack (k consecutive
    integrals), so that integrals sharing a gauge or test-function evaluation
    compute it once per chunk.
    """
    lo, hi = quad.sigma_range
    if not 0 <= lo < hi:
        raise ValueError(f"the support window sigma_range must satisfy 0 <= lo < hi, "
                         f"not {quad.sigma_range!r}")
    if quad.method == "tensor_grid":
        totals, n = _accumulate(fs, group, quad, coarse=False)
        coarse, _ = _accumulate(fs, group, quad, coarse=True)
        return [IntegralResult(float(v), float(abs(v - c)), n, "tensor_grid")
                for v, c in zip(totals, coarse)]

    if quad.method != "monte_carlo":
        raise ValueError(f"unknown quadrature method {quad.method!r}")
    if quad.samples < 1:
        raise ValueError("monte_carlo integration needs at least one sample")
    if not np.isfinite(hi):
        raise ValueError("monte_carlo integration needs a bounded support window")
    # the smallest box that holds the Koranyi ball of radius hi
    z_half, t_half = hi, hi**2
    dim_z, dim_t = 2 * group.n, group.h
    vol = (2.0 * z_half) ** dim_z * (2.0 * t_half) ** dim_t
    gauge = koranyi(group).value
    rng = np.random.default_rng(quad.seed)
    sums = sq = None
    done = 0
    while done < quad.samples:
        m = min(quad.chunk, quad.samples - done)
        z = rng.uniform(-z_half, z_half, size=(m, dim_z))
        t = rng.uniform(-t_half, t_half, size=(m, dim_t))
        rho = gauge(z, t)
        idx = np.flatnonzero((rho > lo) & (rho < hi))
        # read-only: the jets hand it on, and one integrand must not alter
        # what the next one reads
        rho_in = rho[idx]
        rho_in.flags.writeable = False
        rows = _rows(fs, Nodes(z[idx], t[idx], rho=rho_in), "in the Monte Carlo box")
        if sums is None:
            sums, sq = np.zeros(len(rows)), np.zeros(len(rows))
        full = np.zeros(m)
        for k, row in enumerate(rows):
            # the samples outside the window are the zeros of the full chunk
            full[idx] = row
            sums[k] += float(full.sum())
            sq[k] += float(full @ full)
        done += m
    mean = sums / quad.samples
    var = np.maximum(sq / quad.samples - mean**2, 0.0)
    err = vol * np.sqrt(var / quad.samples)
    return [IntegralResult(float(vol * mu), float(e), quad.samples, "monte_carlo")
            for mu, e in zip(mean, err)]

