"""Step-two Carnot groups in block-diagonal coordinates.

The underlying manifold is R^{2n} x R^h.  Each vertical direction j carries
a skew-symmetric matrix B^(j) made of 2x2 blocks [[0, lam], [-lam, 0]], so a
group is fully described by the nonnegative coupling matrix lam^(j)_i of
shape (h, n).  The group law is

    (z, t) o (eta, tau) = (z + eta, t + tau + <Bz, eta>/2),

with <Bz, eta> understood per vertical direction, and the dilations are
delta_gamma(z, t) = (gamma z, gamma^2 t).  An orthonormal horizontal frame is

    X_{2i-1} = d/dz_{2i-1} + sum_j (lam^(j)_i / 2) z_{2i}   d/dt_j,
    X_{2i}   = d/dz_{2i}   - sum_j (lam^(j)_i / 2) z_{2i-1} d/dt_j,

whose only nonzero brackets are [X_{2i}, X_{2i-1}] = sum_j lam^(j)_i d/dt_j.
The homogeneous dimension is Q = 2n + 2h.

Batched evaluators use arrays z of shape (..., 2n) and t of shape (..., h);
scalar evaluators ``value(z, t)`` return shape (...).  Gauge and test-function
jets read a batch of points as a ``Nodes`` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

Array = np.ndarray


class CenterError(ValueError):
    """An operation required smoothness that fails on the center {z = 0}."""


def _readonly(a: Array) -> Array:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StepTwoGroup:
    """A step-two group given by its block couplings.

    couplings[j, i] is the eigenvalue lam^(j)_i of the j-th vertical matrix
    on the i-th horizontal 2-plane.  For a single vertical direction this is
    the row of block eigenvalues lam_1..lam_n, all strictly positive.  For
    h > 1 individual entries may vanish but every 2-plane must couple to at
    least one vertical direction (trivial kernel).

    ``selected`` lists one block index per vertical direction; the square
    matrix A[k, j] = couplings[j, selected[k]] must be invertible.  It is
    only needed by the general multi-vertical vector-field construction.
    """

    couplings: Array
    selected: Optional[tuple] = None

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.couplings, dtype=float))
        if c.ndim != 2 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("couplings must be a finite (h, n) matrix")
        if np.any(c < 0):
            raise ValueError("block eigenvalues must be nonnegative")
        if c.shape[0] == 1:
            if np.any(c <= 0):
                raise ValueError("single-vertical groups need all lam_i > 0")
        elif np.any(c.max(axis=0) <= 0):
            raise ValueError("every horizontal 2-plane must couple to some vertical direction")
        object.__setattr__(self, "couplings", _readonly(c))
        if self.selected is not None:
            sel = tuple(int(i) for i in self.selected)
            if len(sel) != c.shape[0] or any(i < 0 or i >= c.shape[1] for i in sel):
                raise ValueError("selected must pick one block per vertical direction")
            object.__setattr__(self, "selected", sel)
            if abs(np.linalg.det(self.a_matrix())) < 1e-12:
                raise ValueError("selected blocks give a singular coupling matrix A")

    @property
    def n(self) -> int:
        return self.couplings.shape[1]

    @property
    def h(self) -> int:
        return self.couplings.shape[0]

    @property
    def dim(self) -> int:
        return 2 * self.n + self.h

    @property
    def Q(self) -> int:
        """Homogeneous dimension 2n + 2h."""
        return 2 * self.n + 2 * self.h

    @property
    def lambdas(self) -> Array:
        if self.h != 1:
            raise ValueError("lambdas is only defined for a single vertical direction")
        return self.couplings[0]

    def a_matrix(self) -> Array:
        if self.selected is None:
            raise ValueError("group has no selected blocks")
        return self.couplings[:, list(self.selected)].T

    def is_isotropic_heisenberg(self) -> bool:
        return self.h == 1 and np.allclose(self.couplings[0], 4.0)

    def bz(self, z: Array) -> Array:
        """B^(j) z for every vertical direction, shape (..., h, 2n)."""
        z = np.asarray(z, dtype=float)
        lam = np.repeat(self.couplings, 2, axis=1)          # (h, 2n)
        out = np.empty(z.shape[:-1] + (self.h, 2 * self.n))
        out[..., :, 0::2] = z[..., None, 1::2]
        out[..., :, 1::2] = -z[..., None, 0::2]
        return out * lam

    def describe(self) -> dict:
        d = {"n": self.n, "h": self.h, "Q": self.Q,
             "couplings": self.couplings.tolist()}
        if self.selected is not None:
            d["selected"] = list(self.selected)
        return d


def heisenberg(n: int = 1) -> StepTwoGroup:
    """The Heisenberg group H^n with the convention lam_i = 4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return StepTwoGroup(np.full((1, n), 4.0))


def nonisotropic(lambdas: Sequence[float]) -> StepTwoGroup:
    """Single vertical direction with prescribed block eigenvalues."""
    return StepTwoGroup(np.asarray(lambdas, dtype=float)[None, :])


def heisenberg_product(n: int, N: int) -> StepTwoGroup:
    """The N-fold product of H^n: h = N vertical directions, nN blocks."""
    if n < 1 or N < 1:
        raise ValueError("n and N must be >= 1")
    c = np.kron(np.eye(N), np.full((1, n), 4.0))
    return StepTwoGroup(c, selected=tuple(j * n for j in range(N)))


def general_group(couplings, selected) -> StepTwoGroup:
    """Step-two group with several vertical directions and selected blocks."""
    return StepTwoGroup(np.asarray(couplings, dtype=float), selected=tuple(selected))


@dataclass(frozen=True, eq=False)
class Point:
    """Ambient coordinates (z, t).  t is stored with shape (h,)."""

    z: Array
    t: Array

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        if z.ndim != 1 or t.ndim != 1:
            raise ValueError("Point components must be one-dimensional")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(t))):
            raise ValueError("Point components must be finite")
        object.__setattr__(self, "z", _readonly(z))
        object.__setattr__(self, "t", _readonly(t))

    # exact zeros: a norm would square the coordinates, and a tiny point
    # whose square underflows is not on the center
    def on_center(self) -> bool:
        return not np.any(self.z)

    def is_origin(self) -> bool:
        return self.on_center() and not np.any(self.t)


def _check_dims(g: StepTwoGroup, x: Point):
    if x.z.shape[0] != 2 * g.n or x.t.shape[0] != g.h:
        raise ValueError(f"point of shape ({x.z.shape[0]}, {x.t.shape[0]}) "
                         f"does not fit a group with (2n, h) = ({2*g.n}, {g.h})")


def group_law(g: StepTwoGroup, x: Point, y: Point) -> Point:
    """x o y = (z + eta, t + tau + <Bz, eta>/2), one entry per vertical direction."""
    _check_dims(g, x)
    _check_dims(g, y)
    cross = 0.5 * (g.bz(x.z) @ y.z)
    return Point(x.z + y.z, x.t + y.t + cross)


def group_inverse(g: StepTwoGroup, x: Point) -> Point:
    _check_dims(g, x)
    return Point(-x.z, -x.t)


def dilate(g: StepTwoGroup, gamma: float, x: Point) -> Point:
    """delta_gamma(z, t) = (gamma z, gamma^2 t)."""
    _check_dims(g, x)
    if not (gamma > 0):
        raise ValueError("dilation parameter must be positive")
    return Point(gamma * x.z, gamma * gamma * x.t)


def default_step(x: Point) -> float:
    """Central-difference step 1e-5 * max(1, |x|), balancing truncation and roundoff."""
    scale = np.sqrt(np.sum(x.z**2) + np.sum(x.t**2))
    return 1e-5 * max(1.0, float(scale))


def _step_at(x: Point, step: Optional[float]) -> float:
    h = default_step(x) if step is None else float(step)
    if not h > 0:
        raise ValueError("step must be positive")
    return h


def frame(z: Array, P: Array, R: Array) -> Array:
    """Frame components (z_{2i-1} P + z_{2i} R, z_{2i} P - z_{2i-1} R) on each
    block, with P and R broadcast against (..., n): the form that the
    horizontal gradient of every function of the block radii and t takes."""
    z = np.asarray(z, float)
    z1, z2 = z[..., 0::2], z[..., 1::2]
    g = np.empty(z.shape)
    g[..., 0::2] = z1 * P + z2 * R
    g[..., 1::2] = z2 * P - z1 * R
    return g


class Nodes(NamedTuple):
    """A batch of points as gauge and test-function jets read it: one chunk
    of quadrature nodes, or any (z, t) batch.

    ``z`` (m, 2n) and ``t`` (m, h) are the nodes' coordinates.  A chunk of the
    phi chart on H^1 also carries the distinct gauge radii ``sigma`` (k,) of
    its nodes and the slope table ``lam`` (n_lam,): its nodes are laid out
    (k, n_angle, n_lam) in C order, the Koranyi gauge of a node is its sigma
    and t/|z|^2 its lam.  A function of (sigma, lam) is then evaluated on the
    (k, n_lam) tables and spread onto the nodes.  Monte Carlo chunks and
    plain (z, t) batches carry no tables (``sigma`` and ``lam`` are None).
    """

    z: Array
    t: Array
    sigma: Optional[Array] = None
    lam: Optional[Array] = None

    @property
    def radii(self) -> Array:
        """sigma as a (k, 1) column, to combine with functions of lam."""
        return self.sigma[:, None]

    def spread(self, table) -> Array:
        """A table broadcastable to (k, n_lam), in (sigma, lam), on every node:
        a radius column (k, 1), a slope row (n_lam,) or a full table."""
        k, n_lam = self.sigma.size, self.lam.size
        table = np.broadcast_to(table, (k, n_lam))[:, None, :]
        return np.broadcast_to(table, (k, self.z.shape[0] // (k * n_lam), n_lam)).reshape(-1)

    def frame(self, p, r) -> Array:
        """``frame`` (z_1 P + z_2 R, z_2 P - z_1 R) with tables P, R in
        (sigma, lam) spread onto the nodes: the horizontal gradient of every
        function of (|z|, t) on H^1."""
        return frame(self.z, self.spread(p)[:, None], self.spread(r)[:, None])


def fd_partials(value, z: Array, t: Array, step: float):
    """Central-difference ambient partials of a batched scalar evaluator.

    Returns (dz, dt) of shapes (..., 2n) and (..., h).  Every derivative
    oracle of this module is built on this one kernel.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    dz = [(value(z + step * e, t) - value(z - step * e, t)) / (2.0 * step)
          for e in np.eye(z.shape[-1])]
    dt = [(value(z, t + step * e) - value(z, t - step * e)) / (2.0 * step)
          for e in np.eye(t.shape[-1])]
    return np.stack(dz, axis=-1), np.stack(dt, axis=-1)


def hgrad_batch(g: StepTwoGroup, value, z: Array, t: Array, step: float) -> Array:
    """Central-difference horizontal gradient of a batched evaluator:
    X_i u = d_{z_i} u + (Bz)_i . d_t u / 2."""
    dz, dt = fd_partials(value, z, t, step)
    return dz + 0.5 * np.einsum("...jk,...j->...k", g.bz(z), dt)


def horizontal_gradient(g: StepTwoGroup, value, x: Point,
                        step: Optional[float] = None) -> Array:
    """Horizontal gradient (X_1 u, ..., X_{2n} u), shape (2n,), of a batched
    ``value(z, t)`` at a point, by central differences."""
    _check_dims(g, x)
    return hgrad_batch(g, value, x.z[None], x.t[None], _step_at(x, step))[0]


def euler_apply(g: StepTwoGroup, value, x: Point, step: Optional[float] = None) -> float:
    """Generator of dilations: E u = <z, grad_z u> + 2 <t, d_t u>, by central
    differences of a batched ``value(z, t)``."""
    _check_dims(g, x)
    dz, dt = fd_partials(value, x.z[None], x.t[None], _step_at(x, step))
    return float(x.z @ dz[0] + 2.0 * (x.t @ dt[0]))


def horizontal_divergence(g: StepTwoGroup, V, x: Point,
                          step: Optional[float] = None) -> float:
    """sum_i X_i(V_i) of a batched field ``V(z, t) -> (..., 2n)`` at a point,
    by central differences on each component."""
    _check_dims(g, x)
    h = _step_at(x, step)
    z, t = x.z[None], x.t[None]
    return float(sum(hgrad_batch(g, lambda z, t, i=i: V(z, t)[..., i], z, t, h)[0, i]
                     for i in range(2 * g.n)))


def commutator_vertical(g: StepTwoGroup, value, x: Point, i: int,
                        step: Optional[float] = None) -> float:
    """(X_{2i} X_{2i-1} - X_{2i-1} X_{2i}) u of a batched ``value(z, t)`` by
    nested central differences.

    Should equal sum_j lam^(j)_i d_{t_j} u up to O(step^2).
    """
    _check_dims(g, x)
    if not 0 <= i < g.n:
        raise ValueError("block index out of range")
    h = _step_at(x, step)
    z, t = x.z[None], x.t[None]

    def xx(outer, inner):
        """X_outer (X_inner u) at x."""
        def x_inner(z, t):
            return hgrad_batch(g, value, z, t, h)[..., inner]
        return hgrad_batch(g, x_inner, z, t, h)[0, outer]

    a, b = 2 * i, 2 * i + 1
    return float(xx(b, a) - xx(a, b))
