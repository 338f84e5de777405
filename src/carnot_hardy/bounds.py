"""Lower bounds for the Hardy constant c(d, p, theta) and the rows that
report them.

Every bound is the target |(Q - p theta)/p|^p over sup|Z_d|^p, with the sup
that ``zfield.sup_z_norm`` reports, closed or sampled; the paper's explicit
Koranyi and product bounds are this quotient with a closed sup.  Only the cc
distance's closed branch rests on the paper's window Q >= 4 p theta/(12 - pi^2)
instead.  ``bound_row`` is the one place that builds a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .zfield import ZFieldSpec, product_hypothesis, sup_z_norm

# closed cc branch requires theta >= 0 and Q >= 4 p theta / (12 - pi^2)
CC_COEFF = 4.0 / (12.0 - np.pi**2)


# the row label of each branch of koranyi_profile_max; the endpoint lam = 0 is
# the paper's first branch, p theta in [(1 - sqrt(3/2)) Q, (1 + sqrt(3/2)) Q]
PROFILE_ROW_BRANCH = {"endpoint": "first", "interior": "second"}

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
    """|(Q - p theta)/p|^p / sup_z^p from any upper bound sup_z for |Z_d|;
    where the target or sup_z^p overflows, the p-th power of their ratio."""
    if not sup_z > 0:
        raise ValueError("sup_z must be positive")
    if p < 2:
        raise ValueError("p must be >= 2")
    try:
        return hardy_target(Q, p, theta) / sup_z**p
    except OverflowError:
        return (abs((Q - p * theta) / p) / sup_z) ** p


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


def bound_row(spec: ZFieldSpec) -> BoundReport:
    """The bounds row of a Z-field: ``bound_cc`` (which picks closed or
    numeric itself) for the cc distance, no bound for a product whose
    hypothesis fails, and else the target over the sup the row reports,
    labelled by that sup: its profile branch, "product" or "generic".  Each
    condition check is the boolean that chose the branch.  OverflowError
    when the sup or the bound leaves double precision."""
    group, kind, p, theta = spec.group, spec.norm.kind, spec.p, spec.theta
    Q = float(group.Q)
    # a sup that overflows ends in the OverflowError below, without a warning
    with np.errstate(over="ignore"):
        sup = sup_z_norm(spec)
    if not np.isfinite(sup.sup_value):
        raise OverflowError("sup|Z| is not finite in double precision")
    closed = sup.method == "closed_form"
    if kind == "cc":
        value, branch = bound_cc(Q, p, theta, g_sup=sup.sup_sq)
        checks = {"closed_branch": branch == "closed"}
    elif group.h > 1:
        checks = product_hypothesis(spec.factor_blocks(), p, theta)
        value, branch = ((bound_generic(sup.sup_value, Q, p, theta), "product")
                         if closed else (None, "condition_failed"))
    else:
        value = bound_generic(sup.sup_value, Q, p, theta)
        branch = PROFILE_ROW_BRANCH[sup.branch] if closed else "generic"
        checks = {"ptheta_in_window": branch == "first"} if closed else {}
    if value is not None and not np.isfinite(value):
        raise OverflowError("the bound is not finite in double precision")
    return BoundReport(group.describe(), kind, p, theta, Q,
                       None if value is None else float(value), branch,
                       sup_value=sup.sup_value, sup_method=sup.method,
                       condition_checks=checks,
                       upper_remark=(Q - 2.0)**2 / 4.0 if (p, theta) == (2.0, 1.0) else None)
