"""Closed-form lower bounds for the Hardy constant c(d, p, theta).

Every bound has the generic shape |(Q - p theta)/p|^p / sup|Z_d|^p; the
functions below also evaluate the explicit two-branch formulas obtained by
maximizing the profile of |Z_d| for the Koranyi gauge, the cc distance, the
generalized Koranyi gauge and products of Heisenberg groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .groups import StepTwoGroup

# first-branch window for the Koranyi bound: p theta in [(1-sqrt(3/2))Q, (1+sqrt(3/2))Q]
WINDOW_LO = 1.0 - np.sqrt(1.5)
WINDOW_HI = 1.0 + np.sqrt(1.5)
# closed cc branch requires theta >= 0 and Q >= 4 p theta / (12 - pi^2)
CC_COEFF = 4.0 / (12.0 - np.pi**2)


# the branches whose bound divides by a sampled sup: the generic bound from
# the multistart scan and the cc fallback on the scanned max g.  A sampled sup
# is a lower bound of the true one, so these bounds may overstate c.
HEURISTIC_BRANCHES = ("generic", "numeric")


@dataclass
class BoundReport:
    """One row of a bound table, serializable for the CLI; ``to_dict`` marks
    the rows of HEURISTIC_BRANCHES ``"heuristic": true``."""

    group: dict
    norm_kind: str
    p: float
    theta: float
    Q: float
    bound: Optional[float]     # None where the bound's hypothesis fails
    branch: str
    sup_value: Optional[float] = None
    sup_method: Optional[str] = None
    condition_checks: dict = field(default_factory=dict)
    upper_remark: Optional[float] = None   # (Q-2)^2/4 when p = 2, theta = 1

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "norm": self.norm_kind,
            "p": self.p,
            "theta": self.theta,
            "Q": self.Q,
            "bound": self.bound,
            "branch": self.branch,
            "heuristic": self.branch in HEURISTIC_BRANCHES,
            "sup_value": self.sup_value,
            "sup_method": self.sup_method,
            "condition_checks": self.condition_checks,
            "upper_remark": self.upper_remark,
        }


def hardy_target(Q: float, p: float, theta: float) -> float:
    """|(Q - p theta)/p|^p: the numerator of every bound here, and the value
    that the Hardy quotients dominate and the sharpness quotients approach."""
    return abs((Q - p * theta) / p) ** p


def bound_generic(sup_z: float, Q: float, p: float, theta: float) -> float:
    """|(Q - p theta)/p|^p / sup_z^p from any upper bound sup_z for |Z_d|."""
    if not sup_z > 0:
        raise ValueError("sup_z must be positive")
    if p < 2:
        raise ValueError("p must be >= 2")
    return hardy_target(Q, p, theta) / sup_z**p


def koranyi_window(Q: float):
    return (WINDOW_LO * Q, WINDOW_HI * Q)


def bound_koranyi(Q: float, p: float, theta: float):
    """Two-branch Koranyi bound; returns (value, branch).

    First branch |(Q-pt)/p|^p |(Q-2)/Q|^p when pt lies in the closed window
    [(1-sqrt(3/2))Q, (1+sqrt(3/2))Q] (profile maximum at lam = 0), otherwise

        (3/2)^{p/2} (3 pt (pt - 2Q))^{p/4} / |pt - Q|^{p/2} * |(Q-2)/p|^p.
    """
    if Q <= 2:
        raise ValueError("bound needs Q > 2")
    if p < 2:
        raise ValueError("p must be >= 2")
    pt = p * theta
    lo, hi = koranyi_window(Q)
    if lo <= pt <= hi:
        return hardy_target(Q, p, theta) * abs((Q - 2.0) / Q) ** p, "first"
    disc = pt * (pt - 2.0 * Q)      # at least Q^2/2 outside the window
    return ((1.5) ** (p / 2.0) * (3.0 * disc) ** (p / 4.0) / abs(pt - Q) ** (p / 2.0)
            * abs((Q - 2.0) / p) ** p), "second"


def bound_cc(Q: float, p: float, theta: float, g_sup: Optional[float] = None):
    """cc-distance bound; returns (value, branch).

    ((Q-2)/Q)^p |(Q-pt)/p|^p when theta >= 0 and Q >= 4 pt/(12 - pi^2)
    (the maximum of g sits at nu = 0); otherwise |(Q-pt)/p|^p / g_sup^{p/2}
    with g_sup = max g supplied by the Z-field module.
    """
    if Q <= 2:
        raise ValueError("bound needs Q > 2")
    pt = p * theta
    if theta >= 0 and Q >= CC_COEFF * pt:
        return ((Q - 2.0) / Q) ** p * hardy_target(Q, p, theta), "closed"
    if g_sup is None or not g_sup > 0:
        raise ValueError("the fallback branch needs a positive g_sup")
    return hardy_target(Q, p, theta) / g_sup ** (p / 2.0), "numeric"


def bound_koranyi_B(g: StepTwoGroup, p: float, theta: float):
    """Generalized-Koranyi bound: (lam_min/4)^{p/2} times the Koranyi formula."""
    if g.h != 1:
        raise ValueError("the generalized Koranyi bound needs one vertical direction")
    Q = float(g.Q)
    prefactor = (float(g.lambdas.min()) / 4.0) ** (p / 2.0)
    value, branch = bound_koranyi(Q, p, theta)
    return prefactor * value, branch


def bound_product(n: int, N: int, p: float, theta: float) -> float:
    """(n/(n+1))^p |(Q - pt)/p|^p on the N-fold product of H^n, Q = 2N(n+1).

    Requires theta >= 0 and n >= (p theta - 4)/4, the regime where |Z_rho|
    peaks on {t = 0}; the condition is void whenever 0 <= p theta <= 4.
    """
    if theta < 0:
        raise ValueError("the product bound needs theta >= 0")
    if n < 1 or N < 1:
        raise ValueError("n and N must be >= 1")
    if n < (p * theta - 4.0) / 4.0:
        raise ValueError("hypothesis n >= (p theta - 4)/4 violated; no bound emitted")
    Q = 2.0 * N * (n + 1)
    return (n / (n + 1.0)) ** p * hardy_target(Q, p, theta)


def product_conditions(n: int, N: int, p: float, theta: float) -> dict:
    return {
        "theta_nonnegative": theta >= 0,
        "n_ge_(ptheta-4)/4": n >= (p * theta - 4.0) / 4.0,
    }
