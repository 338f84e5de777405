"""Numerical verification: quadrature, test functions, and identity checks."""

from .quadrature import IntegralResult, Nodes, QuadratureSpec, integrate_many
from .testfuncs import (BumpProfile, TestFunction, g_cutoff_jet, radial_bump,
                        random_bump, sharpness_function, smoothstep_jet)
from .checks import (Report, SharpnessPoint, check_ibp_identity, check_w_identity,
                     counterexample_scan, fit_log_excess, hardy_quotient, product_check,
                     sharpness_sequence)

__all__ = [
    "IntegralResult", "Nodes", "QuadratureSpec", "integrate_many",
    "BumpProfile", "TestFunction", "g_cutoff_jet", "radial_bump",
    "random_bump", "sharpness_function", "smoothstep_jet",
    "Report", "SharpnessPoint", "check_ibp_identity", "check_w_identity",
    "counterexample_scan", "fit_log_excess", "hardy_quotient", "product_check",
    "sharpness_sequence",
]
