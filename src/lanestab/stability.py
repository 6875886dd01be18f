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
argument needs x1 >= -omega**(-1/n)/2 in addition to the ball bound; see
instability_Vdot.

All functions are pure; classify() assembles them into a report.
Functions that take params raise ValidationError naming omega for omega = 0
and where omega**(-1/n) passes the float range.
"""

from __future__ import annotations

import math

from .model import (ModelParams, ValidationError, _Record, _params_json,
                    _radius, _require_float, _require_positive, equilibria)
from .integrate import IntegratorOptions, _crossing, integrate


class StabilityReport(_Record):
    """classify() output; serializes to the CLI's JSON schema.  The LMI
    holds by its identity exactly when alpha_max is set (even n)."""

    __slots__ = ("params", "equilibria", "alpha_max", "instability_zeta0",
                 "summary")

    def to_json_dict(self) -> dict:
        d: dict = {
            "params": _params_json(self.params),
            "equilibria": [{"z": e.z_eq, "kind": e.kind}
                           for e in self.equilibria],
        }
        if self.alpha_max is not None:
            d["alpha_max"] = self.alpha_max
            d["lmi"] = {"verified": True, "worst_eig": 0.0}
        d["instability_zeta0"] = self.instability_zeta0
        d["stable_regime"] = self.params.stable_regime
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


def lyapunov_Vdot(x2: float, zeta: float) -> float:
    """Rate of the descent function along any solution: -4*x2**2/zeta.

    Independent of x1 and of the parameters; never positive.
    """
    zeta = _require_positive("zeta", zeta)
    return -4.0 * x2 * x2 / zeta


def basin_alpha(params: ModelParams) -> float:
    """Critical level alpha_max = 4n/(omega**(1/n)(n+1)**2) = V(2u, 0)."""
    _radius(params)  # names omega where no equilibrium exists
    _require_even_n(params, "the basin estimate")
    n = params.n
    return 4.0 * n / (params.omega ** (1.0 / n) * (n + 1) ** 2)


def basin_contains(x1: float, x2: float, delta: float,
                   params: ModelParams) -> bool:
    """Whether x lies in the invariant basin estimate B_delta.

    B_delta is the intersection of the closed ball ||x|| <= 2u with the
    sublevel set V <= alpha_max - delta; the ball intersection picks the
    bounded component of the sublevel set.  delta must lie in
    (0, alpha_max).
    """
    alpha = basin_alpha(params)
    delta = _require_float("delta", delta, f"must lie in (0, alpha_max = "
                           f"{alpha!r})", lambda v: 0.0 < v < alpha)
    u = _radius(params)
    if math.hypot(x1, x2) > 2.0 * u:
        return False
    return lyapunov_V(x1, x2, params) <= alpha - delta


def instability_Vdot(x1: float, x2: float, zeta: float,
                     params: ModelParams) -> float:
    """Rate along solutions of the instability certificate about the
    repelling equilibrium +u, V = (omega*(x1 + u)**n - 1)*x2 + (n+1)*x2**2/zeta
    (V(0, zeta) = 0 and V > 0 for x1 = 0, x2 != 0):

    (omega*(x1+u)**n - 1)**2/(n+1) + x2**2*(n*omega*(x1+u)**(n-1) - 5(n+1)/zeta**2).

    Nonnegative whenever zeta >= instability_zeta0(params) AND
    x1 >= -u/2: the onset radius is calibrated so that
    n*omega*(x1+u)**(n-1) >= n*omega**(1/n)/2**(n-1) >= 5(n+1)/zeta**2 holds
    on exactly that half of the ball ||x|| < 2u.  For odd n >= 3 the rate
    does go negative at large |x2| when x1 < -u/2, so callers must not
    assume positivity on the full ball.
    """
    zeta = _require_positive("zeta", zeta)
    u = _radius(params)
    n = params.n
    drive = params.omega * (x1 + u) ** n - 1.0
    return drive * drive / (n + 1) \
        + x2 * x2 * (n * params.omega * (x1 + u) ** (n - 1)
                     - 5.0 * (n + 1) / (zeta * zeta))


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


def escape_zeta(params: ModelParams, perturbation: float = 1e-3,
                threshold: float = 10.0, zeta_end: float = 50.0) -> float | None:
    """First zeta where a start displaced from the repelling equilibrium by
    `perturbation` leaves the tube |z - z_eq| <= threshold, or None.

    This operationalizes "unstable": the certificate forbids decay, and
    this run exhibits the escape concretely.  The start replaces theta0
    with (z_eq + perturbation)**n; all other params fields are kept.
    """
    u = _radius(params)
    try:
        theta0 = (u + perturbation) ** params.n
    except OverflowError:
        raise ValidationError("omega", f"the displaced start (omega**(-1/n) + "
                              f"perturbation)**n passes the float range at "
                              f"n = {params.n}, got {params.omega!r}") from None
    start = ModelParams(n=params.n, omega=params.omega, theta0=theta0,
                        zeta_start=params.zeta_start)
    traj = integrate(start, IntegratorOptions(zeta_end=zeta_end))
    k = next((k for k, z in enumerate(traj.zs) if abs(z - u) > threshold),
             None)
    if k is None:
        return None
    if k == 0:
        return traj.zetas[0]
    return _crossing(traj.zetas, traj.zs, traj.slopes, k - 1,
                     lambda z: abs(z - u) - threshold)


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
                    f"regime 0 < omega < 1, so the unit-density start is "
                    f"not inside the basin estimate.")
    return StabilityReport(params=params, equilibria=eqs, alpha_max=alpha,
                           instability_zeta0=zeta0, summary=summary)
