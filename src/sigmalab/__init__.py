"""sigmalab: numerical analysis of structurally damped sigma-evolution
equations u_tt + (-Delta)^sigma u + mu (-Delta)^delta u_t = f(u, u_t).

Sub-modules
-----------
params         exact-rational model parameters and derived constants
dispersion     Fourier multiplier kernels and the frequency cutoff
admissibility  exact-arithmetic exponent intervals
kernels        physical-space kernel norms and power-law fits
spectral       periodic pseudo-spectral linear/semilinear solver
toolkit        Duhamel integral bound and Faa di Bruno combinatorics
cli            reproducible experiment command line (``sigmalab``)
"""

from .params import (
    ModelParams, ValidationReport, as_fraction, parabolic_band_holds, validate,
)
from .dispersion import (
    coalescence_radius, cutoff_chi, kernel_dt_values, kernel_values,
)
from .admissibility import (
    AdmissibleInterval, Constraint, Endpoint, TheoremId, admissible_interval,
    gn_window,
)
from .kernels import (
    DecayFit, RadialProfile, bessel_tilde, fit_power_law, kernel_lr_norm,
    kernel_profile, theoretical_exponent,
)
from .spectral import (
    BlowUpError, Field, Snapshot, TorusGrid, gaussian_field, gevrey_energy,
    linear_evolve, lq_norm, make_grid, semilinear_solve, zero_field,
)
from .toolkit import (
    Partition, composite_derivative, duhamel_bound, duhamel_integral,
    faa_di_bruno_partitions,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # params
    "ModelParams", "ValidationReport", "as_fraction", "validate",
    "parabolic_band_holds",
    # dispersion
    "kernel_values", "kernel_dt_values", "coalescence_radius", "cutoff_chi",
    # admissibility
    "TheoremId", "Endpoint", "Constraint", "AdmissibleInterval",
    "admissible_interval", "gn_window",
    # kernels
    "DecayFit", "RadialProfile", "bessel_tilde", "kernel_profile",
    "kernel_lr_norm", "fit_power_law", "theoretical_exponent",
    # spectral
    "TorusGrid", "Field", "Snapshot", "BlowUpError",
    "make_grid", "zero_field", "gaussian_field", "linear_evolve",
    "semilinear_solve", "lq_norm", "gevrey_energy",
    # toolkit
    "Partition", "duhamel_integral", "duhamel_bound",
    "faa_di_bruno_partitions", "composite_derivative",
]
