"""Density profiles and orbital-mode stability for trapped atomic clouds.

The package solves a generalized Lane-Emden equation for the nondimensional
density theta(zeta) of a cloud held in a trap, checks the numerics against
the closed-form special cases, and evaluates the stability certificates for
the system's equilibria: an LMI for the linearization, a descent function
with an explicit basin estimate for even n, and an instability certificate
plus divergence runs for odd n.
"""

from .closedform import (gamma2_profile, gaussian_profile, halo_boundary,
                         lane_emden_radius, powerlaw_profile, shc,
                         waterbag_profile)
from .integrate import (IntegrationError, IntegratorOptions, Trajectory,
                        first_zero, integrate, series_start)
from .model import (Equilibrium, ModelParams, ValidationError, equilibria,
                    make_params, rhs, theta_from_z)
from .stability import (StabilityReport, basin_alpha, classify,
                        instability_zeta0, lyapunov_V)

__version__ = "0.1.0"

__all__ = [
    "Equilibrium", "IntegrationError", "IntegratorOptions",
    "ModelParams", "StabilityReport", "Trajectory", "ValidationError",
    "basin_alpha", "classify", "equilibria", "first_zero", "gamma2_profile",
    "gaussian_profile", "halo_boundary", "instability_zeta0", "integrate",
    "lane_emden_radius", "lyapunov_V", "make_params", "powerlaw_profile",
    "rhs", "series_start", "shc", "theta_from_z", "waterbag_profile",
]
