"""Independent oracles for the stability certificates.

The package reports the even-n LMI from its closed form: the residual
M = A'P + PA + P' - g(zeta) P is exactly diag(0, -4(1+1/n)/(omega**(1/n)
zeta^2)).  This module evaluates that residual entry by entry, with the
Jacobian, the certificate matrix P and the odd-n instability function, so
the tests check the identity and the certificates numerically instead of
trusting it.  It also holds the certificates that no command calls:
basin membership, the rates along solutions of the descent function (the
reference of the CSV's Vdot column) and of the instability function, and
escape_zeta, a run from a start displaced off the repelling equilibrium.
Each raises the package's ValidationError, naming its field.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from lanestab import (IntegratorOptions, ModelParams, ValidationError,
                      basin_alpha, integrate, lyapunov_V, make_params)
from lanestab.model import _radius, _require_float, _require_positive
from lanestab.stability import _require_even_n

# 50 log-spaced points on [0.1, 100]: 10**y on numpy.linspace(-1, 2, 50)
LMI_GRID = tuple(10.0 ** (i * (3.0 / 49) - 1.0) for i in range(49)) + (100.0,)


class SymMat2(NamedTuple):
    """Symmetric 2x2 matrix [[a11, a12], [a12, a22]] of floats."""

    a11: float
    a12: float
    a22: float

    def eigenvalues(self) -> tuple[float, float]:
        """Both eigenvalues, ascending: mean +/- hypot(half gap, a12),
        which avoids the cancellation in the discriminant."""
        m = 0.5 * (self.a11 + self.a22)
        r = math.hypot(0.5 * (self.a11 - self.a22), self.a12)
        return (m - r, m + r)


def _require_positive_omega(params) -> None:
    if params.omega <= 0.0:
        raise ValidationError("omega", "equilibrium analysis needs omega > 0")


def jacobian(zeta, x1, params, branch="left"):
    """Jacobian of the shifted system at (x1, any x2):
    [[0, 1], [omega*(x1 -/+ u)**(n-1) / (1 + 1/n), -2/zeta]], u = omega**(-1/n),
    minus for the left branch, plus for the right."""
    zeta = _require_positive("zeta", zeta)
    _require_positive_omega(params)
    if branch not in ("left", "right"):
        raise ValidationError("branch",
                              f"must be 'left' or 'right', got {branch!r}")
    u = params.omega ** (-1.0 / params.n)
    base = x1 - u if branch == "left" else x1 + u
    a21 = params.omega * base ** (params.n - 1) / (1.0 + 1.0 / params.n)
    return ((0.0, 1.0), (a21, -2.0 / zeta))


def certificate_P(zeta, params) -> SymMat2:
    """The LMI's form P(zeta) = diag(1/zeta, (1+1/n)/(omega**(1/n) zeta))."""
    zeta = _require_positive("zeta", zeta)
    _require_positive_omega(params)
    a = 1.0 / zeta
    c = a * (1.0 + 1.0 / params.n) / params.omega ** (1.0 / params.n)
    return SymMat2(a, 0.0, c)


def lmi_residual(zeta, params) -> SymMat2:
    """M = A'P + PA + P' - g(zeta) P with A the left-branch origin Jacobian
    [[0, 1], [-w, -2a]], w = omega**(1/n)/(1+1/n), a = 1/zeta, P = diag(a, a/w),
    P' = -P/zeta and g = -a; the entries are summed in that order, less the
    products with 0, so the cancellations survive to the last ulp."""
    zeta = _require_positive("zeta", zeta)
    _require_positive_omega(params)
    _require_even_n(params, "the linearized certificate")
    a = 1.0 / zeta
    w = params.omega ** (1.0 / params.n) / (1.0 + 1.0 / params.n)
    c = a / w
    g = -a
    return SymMat2(-a * a - g * a, -w * c + a,
                   (-2.0 * a * c + c * (-2.0 * a) + -c * a) - g * c)


def instability_V(x1, x2, zeta, params) -> float:
    """Instability function about the repelling equilibrium +u:
    V = (omega*(x1 + u)**n - 1)*x2 + (n+1)*x2**2/zeta, whose rate along
    solutions is instability_Vdot."""
    zeta = _require_positive("zeta", zeta)
    _require_positive_omega(params)
    n = params.n
    u = params.omega ** (-1.0 / n)
    return (params.omega * (x1 + u) ** n - 1.0) * x2 \
        + (n + 1) * x2 * x2 / zeta


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


def lyapunov_Vdot(x2: float, zeta: float) -> float:
    """Rate of the descent function along any solution: -4*x2**2/zeta.

    Independent of x1 and of the parameters; never positive.
    """
    zeta = _require_positive("zeta", zeta)
    return -4.0 * x2 * x2 / zeta


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


def escape_zeta(params: ModelParams, perturbation: float = 1e-3,
                threshold: float = 10.0, zeta_end: float = 50.0) -> float | None:
    """First zeta where a start displaced from the repelling equilibrium by
    `perturbation` leaves the tube |z - z_eq| <= threshold, or None.

    This operationalizes "unstable": the certificate forbids decay, and
    this run exhibits the escape concretely.  The start replaces theta0
    with (z_eq + perturbation)**n, for a finite perturbation > -z_eq that
    keeps the start on z_eq's side of 0 and that power above 0; all other
    params fields are kept.  threshold must be finite and > 0.
    """
    u = _radius(params)
    perturbation = _require_float("perturbation", perturbation, "must be "
                                  f"finite and > -omega**(-1/n) = {-u!r}",
                                  lambda v: -u < v < math.inf)
    threshold = _require_positive("threshold", threshold)
    try:
        theta0 = (u + perturbation) ** params.n
    except OverflowError:
        raise ValidationError("omega", f"the displaced start (omega**(-1/n) + "
                              f"perturbation)**n passes the float range at "
                              f"n = {params.n}, got {params.omega!r}") from None
    if theta0 == 0.0:
        raise ValidationError("perturbation", f"the displaced start "
                              f"(omega**(-1/n) + perturbation)**n underflows "
                              f"to 0 at n = {params.n}, got {perturbation!r}")
    traj = integrate(make_params(params.n, params.omega, theta0),
                     IntegratorOptions(zeta_end=zeta_end))
    k = next((k for k, z in enumerate(traj.zs) if abs(z - u) > threshold),
             None)
    if k is None:
        return None
    if k == 0:
        return traj.zetas[0]
    return traj._crossing(k - 1, lambda z: abs(z - u) - threshold)
