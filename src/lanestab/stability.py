"""Stability certificates for the equilibria of the profile system.

For even n the shifted system about the left equilibrium
z = -omega**(-1/n) carries two independent certificates:

* a linear matrix inequality A'P + PA + P' <= g(zeta) P for the
  linearization A = [[0, 1], [-omega**(1/n)/(1+1/n), -2/zeta]], with
  P = diag(1/zeta, (1+1/n)/(omega**(1/n) zeta)) and g = -1/zeta.  Its
  residual is identically diag(0, -4(1+1/n)/(omega**(1/n) zeta^2)), negative
  semidefinite for every zeta > 0, so classify() reports the LMI from this
  identity rather than sampling it;
* a scalar descent function V(x) with V' = -4 x2^2 / zeta along solutions,
  which yields a bounded positively invariant sublevel set (the basin
  estimate) below the level alpha_max = 4n / (omega**(1/n) (n+1)^2).

For the repelling equilibrium z = +omega**(-1/n) (the only one when n is
odd) there is an instability certificate: a function whose rate of change
along solutions is nonnegative once zeta exceeds a computable onset
radius, so perturbations cannot decay.  The certificate's positivity
argument needs x1 >= -omega**(-1/n)/2 in addition to the ball bound.
Nothing here integrates: both rates along solutions, the basin membership
and a displaced start's escape are evaluated in tests/certificate_oracle.py.

All functions are pure; classify() assembles them into a report.
Functions that take params raise ValidationError naming omega for omega = 0
and where omega**(-1/n) passes the float range.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .model import (ModelParams, ValidationError, _Record,
                    _product_below_one, _radius, equilibria)


class StabilityReport(_Record, namedtuple("StabilityReport", "params "
                      "equilibria alpha_max instability_zeta0 summary")):
    """classify() output; serializes to the CLI's JSON schema.  The LMI
    holds by its identity exactly when alpha_max is set (even n), and then
    the JSON also says whether the start lies in the basin estimate."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        d: dict = {
            "params": self.params._asdict(),
            "equilibria": [{"z": e.z_eq, "kind": e.kind}
                           for e in self.equilibria],
        }
        if self.alpha_max is not None:
            d["alpha_max"] = self.alpha_max
            d["lmi"] = {"verified": True, "worst_eig": 0.0}
        d["instability_zeta0"] = self.instability_zeta0
        d["stable_regime"] = self.params.stable_regime
        if self.alpha_max is not None:  # even n: x1 < 2u, theta0*omega < 1
            d["start_in_basin"] = _product_below_one(self.params.theta0,
                                                     self.params.omega)
        return d


def _require_even_n(params: ModelParams, what: str) -> None:
    if params.n % 2 != 0:
        raise ValidationError(
            "n", f"{what} exists only for even n (left equilibrium), got {params.n}")


def lyapunov_V(x1: float, x2: float, params: ModelParams) -> float:
    """Descent function about the left equilibrium (even n only).

    V = -2*omega/(n+1)**2 * ((x1 - u)**(n+1) + u**(n+1)) + 2*x1/(n+1) + x2**2
    with u = omega**(-1/n).  V(0, 0) = 0 and V >= 0 on the ball of radius
    2u about the origin.
    """
    u = _radius(params)
    _require_even_n(params, "the descent function")
    n = params.n
    try:
        tail = u ** (n + 1)
    except OverflowError:
        raise ValidationError("omega", f"omega**(-(n+1)/n) passes the float "
                              f"range at n = {n}, got {params.omega!r}") from None
    # writing both bracket terms through u makes V(0,0) cancel to exactly 0
    bracket = (x1 - u) ** (n + 1) + tail
    return -2.0 * params.omega / (n + 1) ** 2 * bracket \
        + 2.0 * x1 / (n + 1) + x2 * x2


def basin_alpha(params: ModelParams) -> float:
    """Critical level alpha_max = 4n/(omega**(1/n)(n+1)**2) = V(2u, 0)."""
    _radius(params)  # names omega where no equilibrium exists
    _require_even_n(params, "the basin estimate")
    n = params.n
    return 4.0 * n / (params.omega ** (1.0 / n) * (n + 1) ** 2)


def instability_zeta0(params: ModelParams) -> float | None:
    """Onset radius zeta0 = sqrt(1 + 5*(1+1/n)*2**(n-1)*omega**(-1/n)), or
    None past the float range (n above about 2046, or n = 1 with omega
    below about 5.6e-308).  The exact 2**((n-1)//2) comes out of the root,
    so nothing overflows on the way, and wherever the direct formula is
    finite the result equals it bit for bit."""
    u = _radius(params)
    n = params.n
    h = (n - 1) // 2
    root = math.sqrt(2.0 ** (-2 * h)
                     + 5.0 * (1.0 + 1.0 / n) * 2.0 ** (n - 1 - 2 * h) * u)
    try:
        return math.ldexp(root, h) if root < math.inf else None
    except OverflowError:
        return None


def classify(params: ModelParams) -> StabilityReport:
    """Assemble equilibria, certificates, and a verdict for the params.

    For even n the LMI holds by its closed-form residual
    diag(0, -4(1+1/n)/(omega**(1/n) zeta^2)), negative semidefinite at
    every zeta > 0; odd n has no LMI and no alpha_max.
    """
    eqs = equilibria(params)
    even = params.n % 2 == 0
    alpha = basin_alpha(params) if even else None
    zeta0 = instability_zeta0(params)
    onset = "certificate onset zeta0 " + (
        f"= {zeta0:.6g}." if zeta0 is not None else "beyond the float range.")
    if even:
        summary = (f"even n = {params.n}: left equilibrium z = {eqs[0].z_eq:.6g} "
                   f"is asymptotically stable (LMI residual verified: True); "
                   f"right equilibrium z = {eqs[1].z_eq:.6g} is unstable, {onset}")
    else:
        summary = (f"odd n = {params.n}: the sole equilibrium z = "
                   f"{eqs[0].z_eq:.6g} is unstable, {onset}")
    if not params.stable_regime:
        summary += (f" omega = {params.omega:g} lies outside the trapped "
                    f"regime 0 < omega < 1.")
    # the start lies in the basin exactly when x1 < 2u, theta0*omega < 1
    if even and not _product_below_one(params.theta0, params.omega):
        summary += (f" The start theta0 = {params.theta0:g} has "
                    f"theta0*omega = {params.theta0 * params.omega:g} >= 1, "
                    f"so it is not inside the basin estimate.")
    return StabilityReport(params=params, equilibria=eqs, alpha_max=alpha,
                           instability_zeta0=zeta0, summary=summary)
