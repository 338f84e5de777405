"""Lower bounds for the Hardy constant c(d, p, theta) and the rows that
report them.

Every bound is the target |(Q - p theta)/p|^p over sup|Z_d|^p, with the sup
that ``zfield.sup_z_norm`` reports, closed or sampled; the paper's explicit
Koranyi, cc and product bounds are this quotient with a closed sup.
``bound_row`` is the one place that builds a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .zfield import ZFieldSpec, sup_z_norm

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


def bound_row(spec: ZFieldSpec) -> BoundReport:
    """The bounds row of a Z-field: the target over the sup that
    ``sup_z_norm`` reports, labelled with the branch and the condition checks
    that chose that sup; a "condition_failed" row has no bound.
    OverflowError when the sup or the bound leaves double precision."""
    group, p, theta = spec.group, spec.p, spec.theta
    Q = float(group.Q)
    # a sup that overflows ends in the OverflowError below, without a warning
    with np.errstate(over="ignore"):
        sup = sup_z_norm(spec)
    if not np.isfinite(sup.sup_value):
        raise OverflowError("sup|Z| is not finite in double precision")
    value = None
    if sup.branch != "condition_failed":
        value = float(bound_generic(sup.sup_value, Q, p, theta))
        if not np.isfinite(value):
            raise OverflowError("the bound is not finite in double precision")
    return BoundReport(group.describe(), spec.norm.kind, p, theta, Q, value, sup.branch,
                       sup_value=sup.sup_value, sup_method=sup.method,
                       condition_checks=dict(sup.checks),
                       upper_remark=(Q - 2.0)**2 / 4.0 if (p, theta) == (2.0, 1.0) else None)
