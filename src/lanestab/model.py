"""Core model for steady density profiles of a trapped atomic cloud.

The dimensionless density theta(zeta) of a cloud with polytropic index
gamma = 1 + 1/n (n a positive integer) obeys a generalized Lane-Emden
equation.  Substituting theta = z**n brings it to the self-adjoint form

    (zeta**2 * z')' = zeta**2 * (omega * z**n - 1) / (n + 1),

or, as a first-order system in y = (z, z'),

    z'  = dz
    dz' = (omega * z**n - 1) / (n + 1) - 2 * dz / zeta.

Here omega is the ratio of multiple-scattering to trapping forces; the
physically trapped regime is 0 < omega < 1.  For omega > 0 the system has
constant solutions with |z| = omega**(-1/n), whose number and character
depend on the parity of n.  This module holds the parameter container, the
theta/z transform, the right-hand side, and the equilibrium catalogue used
by the integrator and the stability certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

STABLE_LEFT = "stable_left"
UNSTABLE_RIGHT = "unstable_right"
UNSTABLE_ODD = "unstable_odd"


class ValidationError(ValueError):
    """Invalid parameter value.  Carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class ModelParams:
    """Immutable problem parameters.

    n is the polytropic index in gamma = 1 + 1/n, omega the scattering to
    trapping ratio, theta0 the central density theta(zeta_start), and
    zeta_start the small radius where integration begins (the equation is
    singular at zeta = 0).
    """

    n: int
    omega: float
    theta0: float
    zeta_start: float

    @property
    def gamma(self) -> float:
        return 1.0 + 1.0 / self.n

    @property
    def stable_regime(self) -> bool:
        """Whether omega lies in the trapped regime 0 < omega < 1."""
        return 0.0 < self.omega < 1.0


@dataclass(frozen=True)
class State:
    """Point (zeta, z, dz) on a solution curve.  zeta = 0 is singular and
    is never a valid evaluation point."""

    zeta: float
    z: float
    dz: float

    def __post_init__(self):
        if not self.zeta > 0.0:
            raise ValidationError("zeta", f"must be > 0, got {self.zeta!r}")


@dataclass(frozen=True)
class Equilibrium:
    """A constant solution z(zeta) = z_eq with its stability kind."""

    z_eq: float
    kind: str


def make_params(n: int, omega: float, theta0: float = 1.0,
                zeta_start: float = 1e-3) -> ModelParams:
    """Validate and build a ModelParams.

    Raises ValidationError naming the offending field.
    """
    if isinstance(n, bool) or int(n) != n or n < 1:
        raise ValidationError("n", f"must be a positive integer, got {n!r}")
    omega = float(omega)
    if not math.isfinite(omega) or omega < 0.0:
        raise ValidationError("omega", f"must be finite and >= 0, got {omega!r}")
    theta0 = float(theta0)
    if not math.isfinite(theta0) or theta0 <= 0.0:
        raise ValidationError("theta0", f"must be finite and > 0, got {theta0!r}")
    zeta_start = float(zeta_start)
    if not math.isfinite(zeta_start) or zeta_start <= 0.0:
        raise ValidationError("zeta_start",
                              f"must be finite and > 0, got {zeta_start!r}")
    return ModelParams(n=int(n), omega=omega, theta0=theta0,
                       zeta_start=zeta_start)


def theta_from_z(z: float, n: int) -> float:
    """Density theta = z**n."""
    return float(z) ** n


def z_from_theta(theta: float, n: int) -> float:
    """Principal root z = theta**(1/n); requires theta >= 0.

    The negative branch for odd n is deliberately not exposed, a density
    is never negative.
    """
    theta = float(theta)
    if theta < 0.0:
        raise ValidationError("theta", f"must be >= 0, got {theta!r}")
    return theta ** (1.0 / n)


def rhs(zeta: float, z: float, dz: float, params: ModelParams) -> tuple[float, float]:
    """Right-hand side of the first-order system at radius zeta > 0.

    Returns (dz, (omega*z**n - 1)/(n+1) - 2*dz/zeta).  The integrator
    steps this function; it multiplies by 1/(n+1) rather than dividing,
    and emitted trajectories depend on that rounding.
    """
    if zeta <= 0.0:
        raise ValidationError("zeta", f"must be > 0, got {zeta!r}")
    accel = (params.omega * z ** params.n - 1.0) * (1.0 / (params.n + 1.0)) \
        - 2.0 * dz / zeta
    return (dz, accel)


def equilibria(params: ModelParams) -> tuple[Equilibrium, ...]:
    """Constant solutions of the system, ordered by z_eq ascending.

    Even n has two, z = -omega**(-1/n) (attracting) and z = +omega**(-1/n)
    (repelling).  Odd n has only z = +omega**(-1/n), repelling, because the
    negative root no longer balances the forcing.  omega = 0 admits no
    constant solution at all.
    """
    if params.omega <= 0.0:
        raise ValidationError("omega", "no equilibrium exists for omega = 0")
    z_eq = params.omega ** (-1.0 / params.n)
    if params.n % 2 == 0:
        return (Equilibrium(-z_eq, STABLE_LEFT),
                Equilibrium(z_eq, UNSTABLE_RIGHT))
    return (Equilibrium(z_eq, UNSTABLE_ODD),)


def shift_to_origin(state: State, eq: Equilibrium) -> tuple[float, float]:
    """Coordinates x = (z - z_eq, dz) of the system shifted so eq sits at 0."""
    return (state.z - eq.z_eq, state.dz)
