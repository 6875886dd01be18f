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
from collections import namedtuple

STABLE_LEFT = "stable_left"
UNSTABLE_RIGHT = "unstable_right"
UNSTABLE_ODD = "unstable_odd"


class ValidationError(ValueError):
    """Invalid parameter value.  Carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class _Record:
    """Mixin that each value record, a namedtuple subclass, lists first: it
    equals only a record of its own type, never a plain tuple, hashes as
    its fields, and _make (so _replace) builds through the class's checks."""

    __slots__ = ()

    # False, not NotImplemented, which would let tuple.__eq__ compare fields
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ModelParams(_Record, namedtuple("ModelParams", "n omega theta0")):
    """Immutable problem parameters, checked however the record is built.

    n is the polytropic index in gamma = 1 + 1/n, omega the scattering to
    trapping ratio and theta0 the central density.  Where a run starts
    is an IntegratorOptions field.
    """

    __slots__ = ()

    def __new__(cls, n: int, omega: float, theta0: float):
        return super().__new__(cls, _require_positive_int("n", n),
                               _require_nonnegative("omega", omega),
                               _require_positive("theta0", theta0))

    @property
    def gamma(self) -> float:
        return 1.0 + 1.0 / self.n

    @property
    def stable_regime(self) -> bool:
        """Whether omega lies in the trapped regime 0 < omega < 1."""
        return 0.0 < self.omega < 1.0


class Equilibrium(_Record, namedtuple("Equilibrium", "z_eq kind")):
    """A constant solution z(zeta) = z_eq with its stability kind."""

    __slots__ = ()


def _require_float(field: str, value, rule: str, ok) -> float:
    """float(value) where ok holds of it; else a ValidationError naming
    field with its rule, also where value is not a number."""
    try:
        if ok(value := float(value)):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(field, f"{rule}, got {value!r}")


def _require_positive(field: str, value) -> float:
    return _require_float(field, value, "must be finite and > 0",
                          lambda v: 0.0 < v < math.inf)


def _require_nonnegative(field: str, value) -> float:
    return _require_float(field, value, "must be finite and >= 0",
                          lambda v: 0.0 <= v < math.inf)


def _require_positive_int(field: str, value) -> int:
    """int(value); a ValidationError naming field where value is a bool or
    not a positive integer (nan and inf included)."""
    try:
        if not isinstance(value, bool) and int(value) == value >= 1:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(field, f"must be a positive integer, got {value!r}")


def _bisect(inside, lo: float, hi: float) -> float:
    """The last float of [lo, hi] where inside holds, given that it holds
    at lo and not at hi: halves down to adjacent floats."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def _one_minus_product(x: float, y: float) -> tuple[int, int]:
    """1 - x*y exactly, as (qs - pr, qs) on the finite floats' integer
    ratios x = p/q and y = r/s, with no rounding at all."""
    (p, q), (r, s) = x.as_integer_ratio(), y.as_integer_ratio()
    return q * s - p * r, q * s


def _product_below_one(x: float, y: float) -> bool:
    """Whether x*y < 1 exactly, for finite floats x and y."""
    return _one_minus_product(x, y)[0] > 0


def make_params(n: int, omega: float, theta0: float = 1.0) -> ModelParams:
    """ModelParams(n, omega, theta0), with a unit central density by
    default.  Raises ValidationError naming the offending field."""
    return ModelParams(n, omega, theta0)


def theta_from_z(z: float, n: int) -> float:
    """Density theta = z**n."""
    return float(z) ** n


def rhs(zeta: float, z: float, dz: float, params: ModelParams) -> tuple[float, float]:
    """Right-hand side of the first-order system at radius zeta > 0.

    Returns (dz, (omega*z**n - 1)/(n+1) - 2*dz/zeta).  The integrator's
    stages use this exact expression; it multiplies by 1/(n+1) rather than
    dividing, and emitted trajectories depend on that rounding.
    """
    if not zeta > 0.0:
        raise ValidationError("zeta", f"must be > 0, got {zeta!r}")
    accel = (params.omega * z ** params.n - 1.0) * (1.0 / (params.n + 1.0)) \
        - 2.0 * dz / zeta
    return (dz, accel)


def _radius(params: ModelParams) -> float:
    """u = omega**(-1/n), the |z| of every equilibrium.  Raises
    ValidationError naming omega for omega = 0, and where u passes the
    float range (n = 1 with omega below 1/max float, about 5.6e-309)."""
    if params.omega <= 0.0:
        raise ValidationError("omega", "no equilibrium exists for omega = 0")
    try:
        return params.omega ** (-1.0 / params.n)
    except OverflowError:
        raise ValidationError("omega", f"omega**(-1/n) passes the float range "
                              f"at n = {params.n}, got {params.omega!r}") from None


def equilibria(params: ModelParams) -> tuple[Equilibrium, ...]:
    """Constant solutions of the system, ordered by z_eq ascending.

    Even n has two, z = -omega**(-1/n) (attracting) and z = +omega**(-1/n)
    (repelling).  Odd n has only z = +omega**(-1/n), repelling, because the
    negative root no longer balances the forcing.  omega = 0 admits no
    constant solution at all.
    """
    z_eq = _radius(params)
    if params.n % 2 == 0:
        return (Equilibrium(-z_eq, STABLE_LEFT),
                Equilibrium(z_eq, UNSTABLE_RIGHT))
    return (Equilibrium(z_eq, UNSTABLE_ODD),)

