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
    """Immutable value record over the fields a subclass names in __slots__,
    as a frozen dataclass without that module's import cost: fields are set
    once, by position or keyword, assigning or deleting one raises
    AttributeError, and equality, hash and repr go by the field values."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or \
                sorted((*names[:len(args)], *kwargs)) != sorted(names):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(names)}; got {len(args)} by position "
                            f"and {', '.join(kwargs) or 'none'} by keyword")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() \
            if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class ModelParams(_Record):
    """Immutable problem parameters.

    n is the polytropic index in gamma = 1 + 1/n, omega the scattering to
    trapping ratio, theta0 the central density theta(zeta_start), and
    zeta_start the small radius where integration begins (the equation is
    singular at zeta = 0).
    """

    __slots__ = ("n", "omega", "theta0", "zeta_start")

    @property
    def gamma(self) -> float:
        return 1.0 + 1.0 / self.n

    @property
    def stable_regime(self) -> bool:
        """Whether omega lies in the trapped regime 0 < omega < 1."""
        return 0.0 < self.omega < 1.0


class Equilibrium(_Record):
    """A constant solution z(zeta) = z_eq with its stability kind."""

    __slots__ = ("z_eq", "kind")


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


def _params_json(params: ModelParams) -> dict:
    """The params block of the solve sidecar, a sweep row and the
    stability report."""
    return {"n": params.n, "omega": params.omega, "theta0": params.theta0,
            "zeta0": params.zeta_start}


def make_params(n: int, omega: float, theta0: float = 1.0,
                zeta_start: float = 1e-3) -> ModelParams:
    """Validate and build a ModelParams.

    Raises ValidationError naming the offending field.
    """
    n = _require_positive_int("n", n)
    omega = _require_float("omega", omega, "must be finite and >= 0",
                           lambda v: 0.0 <= v < math.inf)
    return ModelParams(n=n, omega=omega,
                       theta0=_require_positive("theta0", theta0),
                       zeta_start=_require_positive("zeta_start", zeta_start))


def theta_from_z(z: float, n: int) -> float:
    """Density theta = z**n."""
    return float(z) ** n


def rhs(zeta: float, z: float, dz: float, params: ModelParams) -> tuple[float, float]:
    """Right-hand side of the first-order system at radius zeta > 0.

    Returns (dz, (omega*z**n - 1)/(n+1) - 2*dz/zeta).  The integrator
    steps this function; it multiplies by 1/(n+1) rather than dividing,
    and emitted trajectories depend on that rounding.
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

