"""Adaptive integration of the cloud profile from near the singular point.

model.rhs is smooth and nonstiff for zeta >= zeta_start > 0.  An in-house
Dormand-Prince 5(4) pair steps it on plain floats (Hairer, Norsett &
Wanner, Solving ODEs I, II.4-II.6) with the controller of scipy's RK45:
RMS error norm over (z, dz) scaled by atol + max(|y|, |y_new|)*rtol, no
growth right after a rejection, first step min(1e-4, span/100), underflow
once h < 10 ulp(zeta).  An overflowing trial stage is a rejected step.
Each accepted step keeps its seven stage slopes; Trajectory.q is their
product with the free quartic interpolant P.  Zero crossings of z and the
divergence guard are found on the nodes and located by bisection on q,
so a runaway solution (expected for odd n, whose sole equilibrium
repels) ends as a "diverged" outcome, which is data, not failure.

Two start modes exist.  Offset starts exactly at (z, dz) =
(theta0**(1/n), 0) at zeta_start.  Series replaces that with a quadratic
expansion about zeta = 0, which quantifies the error the plain offset
start commits by ignoring the curvature between 0 and zeta_start.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, State, ValidationError, rhs

OFFSET = "offset"
SERIES = "series"
COMPLETED = "completed"
DIVERGED = "diverged"
EVENT_ZERO = "zero"
EVENT_DIVERGED = "diverged"

DIVERGENCE_GUARD = 1e12
BISECT_MAX_ITER = 40

# Dormand-Prince 5(4): nodes C, lower rows of A, fifth-order weights B,
# error weights E (fifth minus fourth order, over the 7 stages with the
# FSAL slope last) and the free quartic interpolant P (Shampine 1986)
C = (0.0, 1/5, 3/10, 4/5, 8/9, 1.0)
A = ((1/5,),
     (3/40, 9/40),
     (44/45, -56/15, 32/9),
     (19372/6561, -25360/2187, 64448/6561, -212/729),
     (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
B = (35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84)
E = (-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
P = np.array([
    [1.0, -2.8535800653862835, 3.0717434641059005, -1.1270175653862835],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 4.023133379230305, -6.249321565289, 2.675424484351598],
    [0.0, -3.7324019615885042, 10.068970589843675, -5.685526961588504],
    [0.0, 2.5548038301849423, -6.399112377351017, 3.5219323679207912],
    [0.0, -1.3744241142186024, 3.272657752246729, -1.7672812570757455],
    [0.0, 1.3824689317781436, -3.764937863556287, 2.382468931778144]])
# step-size controller: h *= SAFETY * err**ERROR_EXPONENT, clamped
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5


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

    Raises IntegrationError on step-size underflow, on an overflowing
    right-hand side at the start, or when max_steps runs out.  A guard
    crossing |z| > 1e12 is not an error: the trajectory is returned with
    status "diverged", a "diverged" event, and diverged_at set to the
    crossing zeta found by bisection.
    """
    if not opts.zeta_end > params.zeta_start:
        raise ValidationError("zeta_end", f"must exceed zeta_start = "
                              f"{params.zeta_start!r}, got {opts.zeta_end!r}")
    if opts.start_mode == SERIES:
        if params.zeta_start > 0.01:
            raise ValidationError("zeta_start", f"series start needs "
                                  f"zeta_start <= 0.01, got "
                                  f"{params.zeta_start!r}")
        s0 = series_start(params, params.zeta_start)
        z, dz = s0.z, s0.dz
    else:
        z, dz = params.theta0 ** (1.0 / params.n), 0.0

    c2, c3, c4, c5, _ = C[1:]
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = A
    (b1, _, b3, b4, b5, b6), (e1, _, e3, e4, e5, e6, e7) = B, E
    rtol, atol, t_end = opts.rel_tol, opts.abs_tol, opts.zeta_end
    t = params.zeta_start
    try:
        k1z, k1d = rhs(t, z, dz, params)
    except OverflowError:
        raise IntegrationError(f"right-hand side overflows at the start "
                               f"zeta = {t!r}", t) from None
    h_abs = min(1e-4, (t_end - t) / 100.0)
    nodes = array("d", (t, z, dz))  # (zeta, z, dz) per node
    slopes = array("d")  # the 7 stage slopes (z', dz') per accepted step
    status, steps = COMPLETED, 0

    while t < t_end:
        if steps >= opts.max_steps:
            raise IntegrationError(
                f"max_steps = {opts.max_steps} exhausted at zeta = {t!r}", t)
        steps += 1
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    f"step size underflow; last good zeta = {t!r}", t)
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            try:
                k2z, k2d = rhs(t + c2 * h, z + a21 * k1z * h,
                               dz + a21 * k1d * h, params)
                k3z, k3d = rhs(t + c3 * h, z + (a31 * k1z + a32 * k2z) * h,
                               dz + (a31 * k1d + a32 * k2d) * h, params)
                k4z, k4d = rhs(t + c4 * h,
                               z + (a41 * k1z + a42 * k2z + a43 * k3z) * h,
                               dz + (a41 * k1d + a42 * k2d + a43 * k3d) * h,
                               params)
                k5z, k5d = rhs(t + c5 * h, z + (a51 * k1z + a52 * k2z
                                                + a53 * k3z + a54 * k4z) * h,
                               dz + (a51 * k1d + a52 * k2d + a53 * k3d
                                     + a54 * k4d) * h, params)
                k6z, k6d = rhs(t_new, z + (a61 * k1z + a62 * k2z + a63 * k3z
                                           + a64 * k4z + a65 * k5z) * h,
                               dz + (a61 * k1d + a62 * k2d + a63 * k3d
                                     + a64 * k4d + a65 * k5d) * h, params)
                z_new = z + h * (b1 * k1z + b3 * k3z + b4 * k4z + b5 * k5z
                                 + b6 * k6z)
                dz_new = dz + h * (b1 * k1d + b3 * k3d + b4 * k4d + b5 * k5d
                                   + b6 * k6d)
                k7z, k7d = rhs(t_new, z_new, dz_new, params)
                ez = (e1 * k1z + e3 * k3z + e4 * k4z + e5 * k5z + e6 * k6z
                      + e7 * k7z) * h / (atol + max(abs(z), abs(z_new))
                                         * rtol)
                ed = (e1 * k1d + e3 * k3d + e4 * k4d + e5 * k5d + e6 * k6d
                      + e7 * k7d) * h / (atol + max(abs(dz), abs(dz_new))
                                         * rtol)
                err = math.sqrt(ez * ez + ed * ed) / 2 ** 0.5
            except OverflowError:
                err = math.inf
            if err < 1.0:
                factor = MAX_FACTOR if err == 0.0 else \
                    min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # an inf or nan norm gives MIN_FACTOR (max() keeps it over nan)
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        slopes.extend((k1z, k1d, k2z, k2d, k3z, k3d, k4z, k4d, k5z, k5d,
                       k6z, k6d, k7z, k7d))
        nodes.extend((t_new, z_new, dz_new))
        t, z, dz, k1z, k1d = t_new, z_new, dz_new, k7z, k7d
        if abs(z) > DIVERGENCE_GUARD:
            status = DIVERGED
            break

    zetas, zs, dzs = np.frombuffer(nodes).reshape(-1, 3).T.copy()
    q = np.frombuffer(slopes).reshape(-1, 7, 2).transpose(0, 2, 1) @ P
    za, zb = zs[:-1], zs[1:]  # steps whose end nodes bracket a zero of z
    crossings = np.flatnonzero((za != 0.0)
                               & ((zb == 0.0) | ((za > 0.0) != (zb > 0.0))))

    def locate(k, g):  # root of g(z) on step k's interpolant
        t0, z0, dz0, t1 = nodes[3 * k:3 * k + 4]
        y0, qk = (z0, dz0), q[k]
        return _bisect(lambda t: g(_dense(t, t0, t1 - t0, y0, qk)[0]), t0, t1)

    events = [Event(locate(k, lambda z: z), EVENT_ZERO) for k in crossings]
    diverged_at = None
    if status == DIVERGED:
        diverged_at = locate(len(q) - 1, lambda z: abs(z) - DIVERGENCE_GUARD)
        events.append(Event(diverged_at, EVENT_DIVERGED))
    return Trajectory(params=params, zetas=zetas, zs=zs, dzs=dzs, q=q,
                      events=tuple(events), status=status,
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
