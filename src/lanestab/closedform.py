"""Closed-form density profiles for the special parameter cases.

Four regimes of the generalized Lane-Emden equation admit analytic
solutions, and they double as independent oracles for the numerical
integrator:

* gamma = 2 (n = 1): theta expressed through the cardinal hyperbolic sine,
  exact for every theta0 > 0 and omega >= 0, with a finite halo boundary
  zeta_M when 0 < omega and theta0*omega < 1, decided on the exact product.
* omega -> 0: a pure power-law profile for any gamma != 1.
* gamma -> 1: the Gaussian limit of the power law.
* gamma = 0 (isobaric): a water-bag step profile with a closed-form radius.

Everything here is scalar math; each function checks its own inputs and
names the offending one.  No arrays, no state.
"""

from __future__ import annotations

import math

from .model import (ValidationError, _bisect, _one_minus_product,
                    _product_below_one, _require_float, _require_nonnegative,
                    _require_positive)

SHC_SERIES_CUTOFF = 1e-4


def shc(x: float) -> float:
    """Cardinal hyperbolic sine sinh(x)/x, with shc(0) = 1.

    Even in x.  Near zero the direct quotient loses accuracy, so |x| below
    SHC_SERIES_CUTOFF uses the Taylor series 1 + x^2/6 + x^4/120 + x^6/5040,
    whose truncation error is below 1e-16 relative at the cutoff.
    """
    x = abs(float(x))  # evenness made exact, not left to libm symmetry
    if x < SHC_SERIES_CUTOFF:
        x2 = x * x
        return 1.0 + x2 * (1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 / 5040.0))
    return math.sinh(x) / x


def _shc_excess(x: float) -> float:
    """(shc(x) - 1)/x^2 for x >= 0, which is 1/6 at 0.  Below 0.5 it is the
    series sum of x^(2k-2)/(2k+1)! for k = 1..6, accurate to about 1e-15
    relative; inf once sinh overflows."""
    if x < 0.5:
        x2 = x * x
        return 1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (1.0 / 5040.0 + x2 * (
            1.0 / 362880.0 + x2 * (1.0 / 39916800.0 + x2 / 6227020800.0))))
    try:
        return (math.sinh(x) / x - 1.0) / (x * x)
    except OverflowError:
        return math.inf


def gamma2_profile(zeta: float, theta0: float, omega: float) -> float:
    """gamma = 2 density theta(zeta) = (1/omega)[1 + (theta0*omega - 1) shc(sqrt(omega/2) zeta)].

    Exact for every theta0 > 0 and omega >= 0, and total in zeta; beyond
    the halo boundary the formula simply goes negative, which is what
    oracle comparisons against the continued z-solution need.  Written as
    theta0*shc(x) - zeta^2*_shc_excess(x)/2, it keeps full relative
    accuracy as omega -> 0 and is theta0 - zeta^2/12 at omega = 0.
    """
    theta0 = _require_positive("theta0", theta0)
    x = math.sqrt(_require_nonnegative("omega", omega) / 2.0) * zeta
    return theta0 * shc(x) - zeta * zeta * _shc_excess(abs(x)) / 2.0


def halo_boundary(theta0: float, omega: float) -> float:
    """Radius zeta_M > 0 where the gamma = 2 profile reaches zero, which
    it does for 0 < omega with theta0*omega < 1, exactly.

    shc(x) - 1 = a/(1 - a) at x = sqrt(omega/2)*zeta_M, a = theta0*omega.
    With zeta = sqrt(theta0)*y and x = sqrt(a/2)*y, divided by a/2:
    F(y) = _shc_excess(x)*y^2 = 2/(1 - a), finite for every 0 < a < 1, and
    accurate as omega -> 0, where zeta_M -> sqrt(12 theta0)(1 + 0.35 a).
    The target is 2/(1 - a) on the exact 1 - a of _one_minus_product,
    rounded once.  F(0) = 0 and F >= y^2/6, so the root is the
    last float of [0, sqrt(6*target)] with F < target.  An exact product
    of two floats below 1 lies at least 2**-107 below it, so y < 115 and
    zeta_M < 2e156 stays in the float range.
    """
    theta0 = _require_positive("theta0", theta0)
    omega = _require_float("omega", omega, "must satisfy 0 < omega and "
                           "theta0*omega < 1 for a real halo boundary",
                           lambda v: 0.0 < v and _product_below_one(theta0, v))
    gap, den = _one_minus_product(theta0, omega)
    c, target = math.sqrt(0.5 * theta0 * omega), 2 * den / gap
    y = _bisect(lambda y: _shc_excess(c * y) * y * y < target, 0.0,
                math.sqrt(6.0 * target))
    return y * math.sqrt(theta0)


def _powerlaw_head(gamma: float, theta0: float) -> tuple[float, float]:
    """(gamma, theta0^(gamma-1)) of a power law, both checked.  For gamma < 0
    a head of 0 leaves the centre density 0^(1/(gamma-1)) undefined."""
    gamma = _require_float("gamma", gamma, "must be finite", math.isfinite)
    if gamma == 1.0:
        raise ValidationError("gamma", "the gamma = 1 limit is gaussian_profile")
    if gamma == 0.0:
        raise ValidationError("gamma", "the gamma = 0 case is waterbag_profile")
    theta0 = _require_positive("theta0", theta0)
    try:
        head = theta0 ** (gamma - 1.0)
    except OverflowError:
        head = math.inf
    if math.isinf(head) or (head == 0.0 and gamma < 0.0):
        raise ValidationError("theta0", f"theta0**(gamma - 1) passes the float "
                              f"range at gamma = {gamma!r}, got {theta0!r}")
    return gamma, head


def powerlaw_boundary(gamma: float, theta0: float) -> float:
    """Radius zeta_star = sqrt(6 gamma theta0^(gamma-1) / (gamma-1)) where
    the power-law density vanishes (gamma > 1) or diverges (gamma < 0)."""
    gamma, head = _powerlaw_head(gamma, theta0)
    if math.isinf(6.0 * gamma):  # |gamma| above about 3e307
        return math.sqrt(6.0 * (gamma / (gamma - 1.0))) * math.sqrt(head)
    if math.isinf(6.0 * gamma * head):  # where head itself is finite
        return math.sqrt(6.0 * gamma / (gamma - 1.0)) * math.sqrt(head)
    return math.sqrt(6.0 * gamma * head / (gamma - 1.0))


def powerlaw_profile(zeta: float, gamma: float, theta0: float) -> float:
    """omega -> 0 density [theta0^(gamma-1) - (gamma-1) zeta^2 / (6 gamma)]^(1/(gamma-1)).

    For gamma > 1 and gamma < 0 the bracket hits zero at powerlaw_boundary
    and evaluation beyond that is a domain error.  gamma = 1 belongs to
    gaussian_profile and gamma = 0 to waterbag_profile.
    """
    gamma, head = _powerlaw_head(gamma, theta0)
    if math.isinf(6.0 * gamma):  # |gamma| above about 3e307
        bracket = head - zeta * ((gamma - 1.0) / gamma / 6.0) * zeta
    else:
        spread = (gamma - 1.0) * zeta * zeta
        # spread, and zeta * zeta, can overflow where the bracket is finite
        bracket = head - (spread / (6.0 * gamma) if math.isfinite(spread)
                          else zeta * ((gamma - 1.0) / (6.0 * gamma)) * zeta)
    exponent = 1.0 / (gamma - 1.0)
    if bracket < 0.0 or (bracket == 0.0 and exponent < 0.0):
        raise ValidationError(
            "zeta",
            f"outside the profile domain, which ends at "
            f"zeta_star = {powerlaw_boundary(gamma, theta0)!r}")
    return bracket ** exponent


def gaussian_profile(zeta: float, theta0: float) -> float:
    """gamma -> 1 density theta0 * exp(-zeta^2/6)."""
    theta0 = _require_positive("theta0", theta0)
    return theta0 * math.exp(-zeta * zeta / 6.0)


def lane_emden_radius(omega: float) -> float:
    """Step radius xi0 = 3 * (4 pi omega)^(-1/3) of the gamma = 0 profile."""
    omega = _require_positive("omega", omega)
    return 3.0 * (4.0 * math.pi * omega) ** (-1.0 / 3.0)


def waterbag_profile(xi: float, omega: float) -> float:
    """gamma = 0 step profile (1/omega) * H(xi - xi0), H right-continuous.

    As written the step places the constant density 1/omega outside the
    radius xi0 and nothing inside, which looks inverted for a confined
    cloud; the formula is implemented verbatim rather than silently
    flipped.  See the README note on orientation.
    """
    xi0 = lane_emden_radius(omega)
    if xi < xi0:
        return 0.0
    return 1.0 / omega
