"""Stability certificates for the equilibria of the profile system.

For even n the shifted system about the left equilibrium
z = -omega**(-1/n) carries two independent certificates:

* a linear matrix inequality A'P + PA + P' <= g(zeta) P for the
  linearization, with P = diag(1/zeta, (1+1/n)/(omega**(1/n) zeta)) and
  g = -1/zeta, whose residual is exactly diagonal;
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
"""

from __future__ import annotations

import math

from .model import ModelParams, ValidationError, _Record, equilibria
from .integrate import IntegratorOptions, _bisect, integrate

# 50 log-spaced points on [0.1, 100]: 10**y on numpy.linspace(-1, 2, 50)
LMI_GRID = tuple(10.0 ** (i * (3.0 / 49) - 1.0) for i in range(49)) + (100.0,)
LMI_VERIFY_TOL = 1e-12


class SymMat2(_Record):
    """Symmetric 2x2 matrix [[a11, a12], [a12, a22]] of floats."""

    __slots__ = ("a11", "a12", "a22")

    def eigenvalues(self) -> tuple[float, float]:
        """Both eigenvalues, ascending.

        Closed form (tr +/- sqrt(tr^2 - 4 det))/2, evaluated as
        mean +/- hypot(half gap, a12) to avoid the cancellation in the
        discriminant.
        """
        m = 0.5 * (self.a11 + self.a22)
        r = math.hypot(0.5 * (self.a11 - self.a22), self.a12)
        return (m - r, m + r)


class StabilityReport(_Record):
    """classify() output; serializes to the CLI's JSON schema."""

    __slots__ = ("params", "equilibria", "alpha_max", "lmi_verified",
                 "lmi_worst_eig", "instability_zeta0", "stable_regime",
                 "summary")

    def to_json_dict(self) -> dict:
        d: dict = {
            "params": {"n": self.params.n, "omega": self.params.omega,
                       "theta0": self.params.theta0,
                       "zeta0": self.params.zeta_start},
            "equilibria": [{"z": e.z_eq, "kind": e.kind}
                           for e in self.equilibria],
        }
        if self.alpha_max is not None:
            d["alpha_max"] = self.alpha_max
        if self.lmi_verified is not None:
            d["lmi"] = {"verified": self.lmi_verified,
                        "worst_eig": self.lmi_worst_eig}
        d["instability_zeta0"] = self.instability_zeta0
        d["stable_regime"] = self.stable_regime
        return d


def _require_positive_zeta(zeta: float) -> float:
    zeta = float(zeta)
    if zeta <= 0.0:
        raise ValidationError("zeta", f"must be > 0, got {zeta!r}")
    return zeta


def _require_positive_omega(params: ModelParams) -> None:
    if params.omega <= 0.0:
        raise ValidationError("omega",
                              "equilibrium analysis needs omega > 0")


def _require_even_n(params: ModelParams, what: str) -> None:
    if params.n % 2 != 0:
        raise ValidationError(
            "n", f"{what} exists only for even n (left equilibrium), got {params.n}")


def jacobian(zeta: float, x1: float, params: ModelParams,
             branch: str = "left") -> tuple[tuple[float, float], ...]:
    """Jacobian of the shifted system at (x1, any x2), general 2x2.

    [[0, 1], [omega*(x1 -/+ omega**(-1/n))**(n-1) / (1 + 1/n), -2/zeta]],
    minus for the left branch, plus for the right.  At the origin on the
    left branch this is [[0, 1], [-omega**(1/n)/(1+1/n), -2/zeta]].
    """
    zeta = _require_positive_zeta(zeta)
    _require_positive_omega(params)
    if branch not in ("left", "right"):
        raise ValidationError("branch",
                              f"must be 'left' or 'right', got {branch!r}")
    u = params.omega ** (-1.0 / params.n)
    base = x1 - u if branch == "left" else x1 + u
    a21 = params.omega * base ** (params.n - 1) / (1.0 + 1.0 / params.n)
    return ((0.0, 1.0), (a21, -2.0 / zeta))


def certificate_P(zeta: float, params: ModelParams) -> SymMat2:
    """The LMI's quadratic form P(zeta) = diag(1/zeta, (1+1/n)/(omega**(1/n) zeta)).

    Positive definite for every zeta > 0 and decrescent (both entries decay
    like 1/zeta).
    """
    zeta = _require_positive_zeta(zeta)
    _require_positive_omega(params)
    a = 1.0 / zeta
    c = a * (1.0 + 1.0 / params.n) / params.omega ** (1.0 / params.n)
    return SymMat2(a, 0.0, c)


def lmi_residual(zeta: float, params: ModelParams) -> SymMat2:
    """Residual M = A'P + PA + P' - g(zeta) P of the linearized certificate.

    A is the origin Jacobian on the left branch, g = -1/zeta.  Analytically
    M = diag(0, -4(1+1/n)/(omega**(1/n) zeta^2)): the top-left and
    off-diagonal entries cancel exactly, so M is negative semidefinite for
    every zeta > 0.  The arithmetic below mirrors those cancellations so
    they survive floating point to the last ulp.
    """
    zeta = _require_positive_zeta(zeta)
    _require_positive_omega(params)
    _require_even_n(params, "the linearized certificate")
    a = 1.0 / zeta
    w = params.omega ** (1.0 / params.n) / (1.0 + 1.0 / params.n)
    c = a / w
    g = -a
    # A = [[0, 1], [-w, -2a]], P = diag(a, c), P' = -P/zeta: the entries of
    # A'P + PA + P' - gP summed in that order, less the products with 0
    return SymMat2(-a * a - g * a, -w * c + a,
                   (-2.0 * a * c + c * (-2.0 * a) + -c * a) - g * c)


def lyapunov_V(x1: float, x2: float, params: ModelParams) -> float:
    """Descent function about the left equilibrium (even n only).

    V = -2*omega/(n+1)**2 * ((x1 - u)**(n+1) + u**(n+1)) + 2*x1/(n+1) + x2**2
    with u = omega**(-1/n).  V(0, 0) = 0 and V >= 0 on the ball of radius
    2u about the origin.
    """
    _require_positive_omega(params)
    _require_even_n(params, "the descent function")
    n = params.n
    u = params.omega ** (-1.0 / n)
    # writing both bracket terms through u makes V(0,0) cancel to exactly 0
    bracket = (x1 - u) ** (n + 1) + u ** (n + 1)
    return -2.0 * params.omega / (n + 1) ** 2 * bracket \
        + 2.0 * x1 / (n + 1) + x2 * x2


def lyapunov_Vdot(x2: float, zeta: float) -> float:
    """Rate of the descent function along any solution: -4*x2**2/zeta.

    Independent of x1 and of the parameters; never positive.
    """
    zeta = _require_positive_zeta(zeta)
    return -4.0 * x2 * x2 / zeta


def basin_alpha(params: ModelParams) -> float:
    """Critical level alpha_max = 4n/(omega**(1/n)(n+1)**2) = V(2u, 0)."""
    _require_positive_omega(params)
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
    delta = float(delta)
    if not (0.0 < delta < alpha):
        raise ValidationError("delta",
                              f"must lie in (0, alpha_max = {alpha!r}), got {delta!r}")
    u = params.omega ** (-1.0 / params.n)
    if math.hypot(x1, x2) > 2.0 * u:
        return False
    return lyapunov_V(x1, x2, params) <= alpha - delta


def instability_V(x1: float, x2: float, zeta: float,
                  params: ModelParams) -> float:
    """Instability certificate about the repelling equilibrium +u.

    V = (omega*(x1 + u)**n - 1)*x2 + (n+1)*x2**2/zeta.  V(0, zeta) = 0 and
    V > 0 for x1 = 0, x2 != 0.
    """
    zeta = _require_positive_zeta(zeta)
    _require_positive_omega(params)
    n = params.n
    u = params.omega ** (-1.0 / n)
    return (params.omega * (x1 + u) ** n - 1.0) * x2 \
        + (n + 1) * x2 * x2 / zeta


def instability_Vdot(x1: float, x2: float, zeta: float,
                     params: ModelParams) -> float:
    """Rate of instability_V along solutions.

    (omega*(x1+u)**n - 1)**2/(n+1) + x2**2*(n*omega*(x1+u)**(n-1) - 5(n+1)/zeta**2).

    Nonnegative whenever zeta >= instability_zeta0(params) AND
    x1 >= -u/2: the onset radius is calibrated so that
    n*omega*(x1+u)**(n-1) >= n*omega**(1/n)/2**(n-1) >= 5(n+1)/zeta**2 holds
    on exactly that half of the ball ||x|| < 2u.  For odd n >= 3 the rate
    does go negative at large |x2| when x1 < -u/2, so callers must not
    assume positivity on the full ball.
    """
    zeta = _require_positive_zeta(zeta)
    _require_positive_omega(params)
    n = params.n
    u = params.omega ** (-1.0 / n)
    drive = params.omega * (x1 + u) ** n - 1.0
    return drive * drive / (n + 1) \
        + x2 * x2 * (n * params.omega * (x1 + u) ** (n - 1)
                     - 5.0 * (n + 1) / (zeta * zeta))


def instability_zeta0(params: ModelParams) -> float | None:
    """Onset radius zeta0 = sqrt(1 + 5*(1+1/n)*2**(n-1)*omega**(-1/n)), or
    None past the float range (n above about 2046).  The exact 2**((n-1)//2)
    comes out of the root, so nothing overflows on the way, and wherever the
    direct formula is finite the result equals it bit for bit."""
    _require_positive_omega(params)
    n = params.n
    u = params.omega ** (-1.0 / n)
    h = (n - 1) // 2
    root = math.sqrt(2.0 ** (-2 * h)
                     + 5.0 * (1.0 + 1.0 / n) * 2.0 ** (n - 1 - 2 * h) * u)
    try:
        return math.ldexp(root, h)
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
    _require_positive_omega(params)
    u = params.omega ** (-1.0 / params.n)
    start = ModelParams(n=params.n, omega=params.omega,
                        theta0=(u + perturbation) ** params.n,
                        zeta_start=params.zeta_start)
    traj = integrate(start, IntegratorOptions(zeta_end=zeta_end))
    k = next((k for k, z in enumerate(traj.zs) if abs(z - u) > threshold),
             None)
    if k is None:
        return None
    if k == 0:
        return traj.zetas[0]
    return _bisect(lambda t: abs(traj.evaluate(t)[0] - u) - threshold,
                   traj.zetas[k - 1], traj.zetas[k])


def classify(params: ModelParams) -> StabilityReport:
    """Assemble equilibria, certificates, and a verdict for the params.

    The LMI residual is checked on a fixed 50-point log grid of zeta in
    [0.1, 100]; because the residual is exactly diagonal with a zero and a
    strictly negative entry, grid sampling plus the off-diagonal identity
    is a complete check, not a heuristic.
    """
    eqs = equilibria(params)
    even = params.n % 2 == 0
    alpha = basin_alpha(params) if even else None
    worst: float | None = None
    verified: bool | None = None
    if even:
        worst = max(lmi_residual(zeta, params).eigenvalues()[1]
                    for zeta in LMI_GRID)
        verified = worst <= LMI_VERIFY_TOL
    zeta0 = instability_zeta0(params)
    onset = "certificate onset zeta0 " + (
        f"= {zeta0:.6g}." if zeta0 is not None else "beyond the float range.")
    if even:
        summary = (f"even n = {params.n}: left equilibrium z = {eqs[0].z_eq:.6g} "
                   f"is asymptotically stable (LMI residual verified: {verified}); "
                   f"right equilibrium z = {eqs[1].z_eq:.6g} is unstable, {onset}")
    else:
        summary = (f"odd n = {params.n}: the sole equilibrium z = "
                   f"{eqs[0].z_eq:.6g} is unstable, {onset}")
    if not params.stable_regime:
        summary += (f" omega = {params.omega:g} lies outside the trapped "
                    f"regime 0 < omega < 1, so the unit-density start is "
                    f"not inside the basin estimate.")
    return StabilityReport(params=params, equilibria=eqs, alpha_max=alpha,
                           lmi_verified=verified, lmi_worst_eig=worst,
                           instability_zeta0=zeta0,
                           stable_regime=params.stable_regime,
                           summary=summary)
