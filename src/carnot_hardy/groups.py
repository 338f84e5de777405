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
    """

    couplings: Array

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

    # exact: the closed Koranyi and cc formulas hold on H^n alone, and
    # heisenberg(n) builds its couplings as exact 4.0s
    def is_isotropic_heisenberg(self) -> bool:
        return self.h == 1 and bool(np.all(self.couplings[0] == 4.0))

    def bz(self, z: Array) -> Array:
        """B^(j) z for every vertical direction, shape (..., h, 2n)."""
        z = np.asarray(z, dtype=float)
        lam = np.repeat(self.couplings, 2, axis=1)          # (h, 2n)
        out = np.empty(z.shape[:-1] + (self.h, 2 * self.n))
        out[..., :, 0::2] = z[..., None, 1::2]
        out[..., :, 1::2] = -z[..., None, 0::2]
        return out * lam

    def describe(self) -> dict:
        return {"n": self.n, "h": self.h, "Q": self.Q,
                "couplings": self.couplings.tolist()}


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
    return StepTwoGroup(np.kron(np.eye(N), np.full((1, n), 4.0)))


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


def pairing(a: Array, b: Array) -> Array:
    """sum_i a_i b_i over the last axis, as slot products added from the left.

    Below 8 slots this is np.sum(a * b, axis=-1) bit for bit, up to the sign
    of a zero sum (NumPy adds so few terms in order, starting from +0.0),
    without the cost of a reduction over a short axis; a square sum
    pairing(a, a) has no negative zero, so it matches without exception.
    """
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def square_sum(a: Array) -> Array:
    """sum_i a_i^2 over the last axis, np.sum(a * a, axis=-1) bit for bit:
    ``pairing(a, a)`` below 8 slots, and NumPy's reduction from 8 on, where it
    adds in another order."""
    if a.shape[-1] < 8:
        return pairing(a, a)
    return np.add.reduce(a * a, axis=-1)


class Nodes(NamedTuple):
    """A batch of points as gauge and test-function jets read it: one chunk
    of quadrature nodes, or any (z, t) batch.

    ``z`` (..., 2n) and ``t`` (..., h) are the nodes' coordinates; the
    leading shape is the chunk's.  A chunk of the phi chart on H^1 is laid
    out (k, n_angle, n_lam), one axis per chart coordinate, and carries the
    distinct gauge radii ``sigma`` (k,) of its nodes and the slope table
    ``lam`` (n_lam,): the Koranyi gauge of a node is its sigma and t/|z|^2
    its lam.  A function of (sigma, lam) is then evaluated on the tables
    ``radii`` (k, 1, 1) and ``lam``, whose product broadcasts as
    (k, 1, n_lam) against the chunk.  Monte Carlo chunks and plain (z, t)
    batches carry no tables (``sigma`` and ``lam`` are None) and are flat,
    (m, 2n) and (m, h).

    ``rho`` (m,) is the Koranyi gauge of each node, when the caller already
    has it: a Monte Carlo chunk carries the gauge its support window was
    selected by, and the Koranyi jets read it instead of forming it again.
    Chart chunks and plain batches leave it None.

    ``unit`` is a chart chunk's unit slice: its angle and slope nodes at
    Koranyi radius 1, itself a one-slab chart record (1, n_angle, n_lam)
    with sigma = (1.0,), shared read-only by every chunk of the same angle
    and slope rules.  A node (sigma, angle, lam) of the chunk is the
    dilation by sigma of the node (angle, lam) of the slice, so a function
    homogeneous of degree zero (the frame gradient of a gauge, Z_d) is
    evaluated on the slice and broadcast over sigma.  Other records leave it
    None.
    """

    z: Array
    t: Array
    sigma: Optional[Array] = None
    lam: Optional[Array] = None
    rho: Optional[Array] = None
    unit: Optional["Nodes"] = None

    @property
    def radii(self) -> Array:
        """sigma as a (k, 1, 1) table, to combine with functions of lam."""
        return self.sigma[:, None, None]

    def frame(self, p, r) -> Array:
        """``frame`` (z_1 P + z_2 R, z_2 P - z_1 R) with tables P, R in
        (sigma, lam) broadcast against the chunk: the horizontal gradient of
        every function of (|z|, t) on H^1."""
        return frame(self.z, np.asarray(p)[..., None], np.asarray(r)[..., None])
