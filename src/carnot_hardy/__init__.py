"""Horizontal vector fields, homogeneous gauges and explicit Hardy-constant
lower bounds on step-two Carnot groups."""

from .groups import (CenterError, Point, StepTwoGroup, dilate, group_inverse,
                     group_law, heisenberg, heisenberg_product, nonisotropic)
from .norms import (ConvergenceError, NormModel, balogh_tyson, cc, koranyi, koranyi_b,
                    make_norm)
from .zfield import (SupResult, ZFieldSpec, bracket_zoom_max, g_cc,
                     koranyi_profile_max, sup_z_norm, z_profile_koranyi)
from .bounds import BoundReport, bound_cc, bound_generic, bound_row

__version__ = "0.1.0"
