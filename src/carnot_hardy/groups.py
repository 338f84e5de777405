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

# rows of a batch evaluated at once wherever a batch is split (the scan's Sobol
# points, a Monte Carlo chunk's draws); bounds the temporaries of the gauges,
# jets and integrands to cache-sized arrays
BLOCK_ROWS = 2**13


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


def frame(z: Array, P: Array, R: Array) -> Array:
    """Frame components (z_{2i-1} P + z_{2i} R, z_{2i} P - z_{2i-1} R) on each
    block, with P and R broadcast against (..., n): the form that the
    horizontal gradient of every function of the block radii and t takes.
    The gauge and test-function jets write their gradients in it."""
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


def koranyi_gauge(zn2: Array, t: Array) -> Array:
    """The Koranyi gauge (|z|^4 + |t|^2)^{1/4} from zn2 = |z|^2 and t (..., h)."""
    return (zn2**2 + pairing(t, t)) ** 0.25


class Nodes(NamedTuple):
    """A batch of points as gauge and test-function jets read it: one chunk
    of quadrature nodes, or any (z, t) batch.

    ``z`` (..., 2n) and ``t`` (..., h) are the nodes' coordinates; the
    leading shape is the chunk's: (k, n_angle, n_lam) on a chunk of the phi
    chart, one axis per chart coordinate, and (m,) elsewhere.  Jets read the
    points through what the record supplies, each on the smallest table that
    holds it:

    - ``gauge()``, the Koranyi gauge rho of each node.  A chart chunk
      carries it as ``rho``, the radius column (k, 1, 1); a Monte Carlo
      chunk carries, as ``rho`` (m,), the gauge its support window was
      selected by; a plain batch leaves ``rho`` None, and the record forms
      the gauge from (z, t).
    - ``invariants(slope)``, that gauge followed by the dilation-invariant
      quantities |z|^2/rho^2 and t/rho^2 and, when slope is True, t/|z|^2,
      of shapes (...), (..., h) and (..., h).  A chart chunk carries them as
      ``tables`` over its slope axis, of shapes (n_lam,), (n_lam, 1) and
      (n_lam, 1), which broadcast against the chunk; elsewhere ``tables`` is
      None and they are formed per point, from one |z|^2.

    ``unit`` is a chart chunk's unit slice: its angle and slope nodes at
    Koranyi radius 1, itself a chart record (1, n_angle, n_lam) with the
    radius column 1 and the same tables, shared read-only by every chunk of
    the same angle and slope rules.  A node of gauge rho of the chunk is the
    dilation by rho of a node of the slice, so a function homogeneous of
    degree zero (the frame gradient of a gauge, Z_d) is evaluated on the
    slice and broadcast over the radii.  Other records leave it None.
    """

    z: Array
    t: Array
    rho: Optional[Array] = None
    tables: Optional[tuple] = None
    unit: Optional["Nodes"] = None

    def gauge(self) -> Array:
        """The Koranyi gauge of each node, as carried or formed from (z, t)."""
        if self.rho is not None:
            return self.rho
        z = np.asarray(self.z, float)
        return koranyi_gauge(pairing(z, z), np.asarray(self.t, float))

    def invariants(self, slope: bool = False) -> tuple:
        """(rho, |z|^2/rho^2, t/rho^2) of each node, rho its Koranyi gauge,
        and t/|z|^2 after them when slope is True.

        Off the chart they divide by rho and |z|, so the origin and the
        center give non-finite entries, which the caller masks.
        """
        if self.tables is not None:
            zc, s, lam = self.tables
            return (self.rho, zc, s, lam) if slope else (self.rho, zc, s)
        z = np.asarray(self.z, float)
        t = np.asarray(self.t, float)
        zn2 = pairing(z, z)
        rho = koranyi_gauge(zn2, t) if self.rho is None else self.rho
        rho2 = rho**2
        out = (rho, zn2 / rho2, t / rho2[..., None])
        return out + (t / zn2[..., None],) if slope else out
