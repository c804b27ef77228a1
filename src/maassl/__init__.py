"""Numerical L-values of weakly holomorphic and harmonic Maass cusp forms.

Two independent pipelines evaluate the same quantities: a coefficient-series
side (ltest) and a complex-contour side (contour).  The verify module runs
batch comparisons of the two and the cli module exposes everything on the
command line.
"""

from .modforms import (FourierExpansion, build_J, build_J_squared,
                       synth_harmonic, xi_image)
from .ltest import (CompactAnalytic, FrickePhiSW, InversePowerSeed, LValue,
                    LorentzianSeed, PhiSW, fricke_transform_testfn,
                    l_star, l_tilde, l_value, l_value_by_vertical_integral,
                    l_value_limit)
from .contour import (compact_support_value, r_remainder, ray_integral_bend,
                      rhs_integer_value, rhs_main_theorem, rhs_star)

__all__ = [
    "FourierExpansion", "build_J", "build_J_squared", "synth_harmonic",
    "xi_image", "CompactAnalytic", "FrickePhiSW", "InversePowerSeed",
    "LValue", "LorentzianSeed", "PhiSW", "fricke_transform_testfn",
    "l_star", "l_tilde", "l_value", "l_value_by_vertical_integral",
    "l_value_limit", "compact_support_value", "r_remainder",
    "ray_integral_bend", "rhs_integer_value", "rhs_main_theorem",
    "rhs_star",
]

__version__ = "0.1.0"
