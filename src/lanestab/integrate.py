"""Adaptive integration of the cloud profile from near the singular point.

The first-order system of model.rhs is smooth and nonstiff for
zeta >= zeta_start > 0, so an embedded Runge-Kutta 5(4) pair with a free
quartic interpolant does the work; the stepper is driven step by step so
that every accepted step's interpolant is kept, zero crossings of z are
located as they happen, and runaway solutions are converted into a
structured "diverged" outcome instead of an overflow.  Divergence is
expected and meaningful for odd n, where the sole equilibrium repels; it
is data, not failure.

Two start modes exist.  Offset starts exactly at (z, dz) =
(theta0**(1/n), 0) at zeta_start.  Series replaces that with a quadratic
expansion about zeta = 0, which quantifies the error the plain offset
start commits by ignoring the curvature between 0 and zeta_start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45

from .model import ModelParams, State, ValidationError, rhs

OFFSET = "offset"
SERIES = "series"
COMPLETED = "completed"
DIVERGED = "diverged"
EVENT_ZERO = "zero"
EVENT_DIVERGED = "diverged"

DIVERGENCE_GUARD = 1e12
BISECT_MAX_ITER = 40


class IntegrationError(RuntimeError):
    """Integration could not continue; last_zeta is the final good point."""

    def __init__(self, message: str, last_zeta: float):
        self.last_zeta = last_zeta
        super().__init__(message)


@dataclass(frozen=True)
class IntegratorOptions:
    """Run controls.  zeta_end must exceed the params' zeta_start, which is
    only checkable inside integrate()."""

    zeta_end: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    start_mode: str = OFFSET

    def __post_init__(self):
        if not (math.isfinite(self.zeta_end) and self.zeta_end > 0.0):
            raise ValidationError("zeta_end",
                                  f"must be finite and > 0, got {self.zeta_end!r}")
        if not (0.0 < self.rel_tol <= 1e-3):
            raise ValidationError("rel_tol",
                                  f"must lie in (0, 1e-3], got {self.rel_tol!r}")
        if not (0.0 < self.abs_tol <= self.rel_tol):
            raise ValidationError("abs_tol",
                                  f"must lie in (0, rel_tol], got {self.abs_tol!r}")
        if isinstance(self.max_steps, bool) or int(self.max_steps) != self.max_steps \
                or self.max_steps < 1:
            raise ValidationError("max_steps",
                                  f"must be a positive integer, got {self.max_steps!r}")
        if self.start_mode not in (OFFSET, SERIES):
            raise ValidationError("start_mode",
                                  f"must be '{OFFSET}' or '{SERIES}', got {self.start_mode!r}")


def _dense(zeta, zeta0, h, y0, q) -> np.ndarray:
    """Quartic interpolant y0 + h * q @ (s, s^2, s^3, s^4) of one accepted
    step, s = (zeta - zeta0)/h.  Broadcasts over a leading step axis:
    zeta, zeta0, h of shape (M,), y0 (M, 2) and q (M, 2, 4) give (M, 2)."""
    s = (zeta - zeta0) / h
    powers = np.stack([s, s * s, s ** 3, s ** 4], axis=-1)
    return y0 + np.expand_dims(h, -1) * (q @ powers[..., None])[..., 0]


@dataclass(frozen=True)
class Event:
    zeta: float
    kind: str


@dataclass(frozen=True)
class Trajectory:
    """Completed integration: sample nodes, per-step dense output, events.

    Step k runs from zetas[k] to zetas[k+1]; its interpolant is
    (zs[k], dzs[k]) + h * q[k] @ (s, s^2, s^3, s^4) with
    h = zetas[k+1] - zetas[k] and s = (zeta - zetas[k])/h, so q has shape
    (N-1, 2, 4).  q[k][:, 0] is the right-hand side at the left node, so
    the piecewise curve is C1 there.  status is "completed" or "diverged";
    diverged_at carries the zeta at which |z| crossed the divergence
    guard, else None.
    """

    params: ModelParams
    zetas: np.ndarray
    zs: np.ndarray
    dzs: np.ndarray
    q: np.ndarray
    events: tuple[Event, ...]
    status: str
    diverged_at: float | None

    def evaluate(self, zeta: float) -> tuple[float, float]:
        """Dense-output (z, dz) anywhere inside the integrated range."""
        y = self.evaluate_many([float(zeta)])[0]
        return (float(y[0]), float(y[1]))

    def evaluate_many(self, zetas) -> np.ndarray:
        """Dense-output evaluation on an array of points; returns (N, 2)."""
        pts = np.asarray(zetas, dtype=float).ravel()
        inside = (self.zetas[0] <= pts) & (pts <= self.zetas[-1])
        if not inside.all():
            raise ValidationError(
                "zeta",
                f"outside the integrated range [{float(self.zetas[0])!r}, "
                f"{float(self.zetas[-1])!r}], got {float(pts[~inside][0])!r}")
        k = np.searchsorted(self.zetas, pts, side="right") - 1
        k = np.minimum(k, len(self.q) - 1)
        t0 = self.zetas[k]
        return _dense(pts, t0, self.zetas[k + 1] - t0,
                      np.stack([self.zs[k], self.dzs[k]], axis=-1), self.q[k])


def series_start(params: ModelParams, zeta_small: float) -> State:
    """Quadratic start state from the expansion z = z0 + c*zeta^2.

    Substituting the ansatz into (zeta^2 z')' = zeta^2 (omega z^n - 1)/(n+1)
    and matching leading terms gives 6c = (omega z0^n - 1)/(n+1), hence
    c = (omega z0^n - 1)/(6(n+1)) with z0 = theta0^(1/n); dz = 2c*zeta and
    the truncation error is O(zeta^4).  Valid only very close to the
    singular point, so zeta_small is capped at 0.01.
    """
    zeta_small = float(zeta_small)
    if not (0.0 < zeta_small <= 0.01):
        raise ValidationError("zeta_small",
                              f"must lie in (0, 0.01], got {zeta_small!r}")
    z0 = params.theta0 ** (1.0 / params.n)
    # omega*z0**n equals omega*theta0 exactly; using theta0 skips a pow round trip
    c = (params.omega * params.theta0 - 1.0) / (6.0 * (params.n + 1.0))
    return State(zeta_small, z0 + c * zeta_small * zeta_small,
                 2.0 * c * zeta_small)


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] given f(lo) and f(hi) differ in sign."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    lo_positive = flo > 0.0
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def integrate(params: ModelParams, opts: IntegratorOptions) -> Trajectory:
    """Integrate from zeta_start to zeta_end, or to the divergence guard.

    Raises IntegrationError on step-size underflow or when max_steps runs
    out.  A guard crossing |z| > 1e12 is not an error: the trajectory is
    returned with status "diverged", a "diverged" event, and diverged_at
    set to the crossing zeta found by bisection.
    """
    if not opts.zeta_end > params.zeta_start:
        raise ValidationError(
            "zeta_end",
            f"must exceed zeta_start = {params.zeta_start!r}, got {opts.zeta_end!r}")
    if opts.start_mode == SERIES:
        if params.zeta_start > 0.01:
            raise ValidationError(
                "zeta_start",
                f"series start needs zeta_start <= 0.01, got {params.zeta_start!r}")
        s0 = series_start(params, params.zeta_start)
        y0 = np.array([s0.z, s0.dz])
    else:
        y0 = np.array([params.theta0 ** (1.0 / params.n), 0.0])

    def fun(t, y):
        return np.array(rhs(t, y[0], y[1], params))

    first = min(1e-4, (opts.zeta_end - params.zeta_start) / 100.0)
    stepper = RK45(fun, params.zeta_start, y0, t_bound=opts.zeta_end,
                   rtol=opts.rel_tol, atol=opts.abs_tol, first_step=first)

    node_t = [params.zeta_start]
    node_y = [y0]
    qs: list[np.ndarray] = []
    events: list[Event] = []
    status = COMPLETED
    diverged_at = None
    steps = 0

    while stepper.status == "running":
        if steps >= opts.max_steps:
            raise IntegrationError(
                f"max_steps = {opts.max_steps} exhausted at zeta = {stepper.t!r}",
                float(node_t[-1]))
        stepper.step()
        steps += 1
        if stepper.status == "failed":
            raise IntegrationError(
                f"step size underflow; last good zeta = {node_t[-1]!r}",
                float(node_t[-1]))
        t0, t1, y_old = node_t[-1], float(stepper.t), node_y[-1]
        h = t1 - t0
        q = np.array(stepper.dense_output().Q, dtype=float)
        qs.append(q)
        node_t.append(t1)
        node_y.append(stepper.y.copy())

        def z_at(t):
            return _dense(t, t0, h, y_old, q)[0]

        z_prev, z_new = float(y_old[0]), float(stepper.y[0])
        if z_prev != 0.0 and (z_new == 0.0 or (z_prev > 0.0) != (z_new > 0.0)):
            events.append(Event(_bisect(z_at, t0, t1), EVENT_ZERO))
        if abs(z_new) > DIVERGENCE_GUARD:
            diverged_at = _bisect(lambda t: abs(z_at(t)) - DIVERGENCE_GUARD,
                                  t0, t1)
            events.append(Event(diverged_at, EVENT_DIVERGED))
            status = DIVERGED
            break

    ys = np.array(node_y)
    return Trajectory(params=params,
                      zetas=np.array(node_t),
                      zs=ys[:, 0],
                      dzs=ys[:, 1],
                      q=np.array(qs),
                      events=tuple(events),
                      status=status,
                      diverged_at=diverged_at)


def first_zero(traj: Trajectory) -> float | None:
    """Smallest zeta with z(zeta) = 0, or None if z never changes sign.

    Crossings were located during integration by a sign change between
    sample nodes followed by bisection on the dense interpolant, so this
    is a lookup, not a new search.
    """
    for ev in traj.events:
        if ev.kind == EVENT_ZERO:
            return ev.zeta
    return None
